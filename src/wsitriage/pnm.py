"""Binary PPM (P6) and PGM (P5) readers and writers.

Slide rasters are stored as 8-bit P6 files and masks as P5; both are
bit-exact round-trippable and inspectable with standard image tools.
"""

from __future__ import annotations

import os

import numpy as np


class PNMError(ValueError):
    """Raised for malformed PPM/PGM files."""


# The longest header token read.  Twenty digits already claim more pixels
# than any file holds, and int() of a longer run of digits is slow, then
# refused by Python past 4300 digits.
MAX_TOKEN = 20


def _read_token(fh, path) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise PNMError(f"{path}: unexpected end of file in header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        if len(token) == MAX_TOKEN:
            raise PNMError(f"{path}: header token longer than {MAX_TOKEN} bytes")
        token += ch


def _read_number(fh, path, what: str) -> int:
    """Next header token as a positive decimal integer."""
    token = _read_token(fh, path)
    if not token.isdigit() or int(token) == 0:
        raise PNMError(f"{path}: {what} must be a positive integer, "
                       f"got {token.decode('ascii', 'replace')!r}")
    return int(token)


def _shape(h, w, channels: int) -> tuple:
    """The array shape of an h x w image: (h, w) for one channel."""
    return (h, w) if channels == 1 else (h, w, channels)


def _write_pnm(path, magic: bytes, pixels: np.ndarray, channels: int) -> None:
    """Write uint8 pixels of _shape(H, W, channels) as binary PNM: the
    magic, the size, maxval 255, then the pixel bytes, written from the
    array's own buffer when it is C-contiguous.  Any other dtype is
    refused rather than cast, since a cast would wrap values that do not
    fit in a byte."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected a uint8 array, got dtype {pixels.dtype}")
    if pixels.ndim < 2 or pixels.shape != _shape(*pixels.shape[:2], channels):
        expected = "(H, W)" if channels == 1 else f"(H, W, {channels})"
        raise ValueError(f"expected {expected} array, got shape {pixels.shape}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).data)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    _write_pnm(path, b"P6", rgb, 3)


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) uint8 array as binary PGM."""
    _write_pnm(path, b"P5", gray, 1)


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(2) != magic:
            raise PNMError(f"{path}: not a {magic.decode()} file")
        w = _read_number(fh, path, "width")
        h = _read_number(fh, path, "height")
        maxval = _read_number(fh, path, "maxval")
        if maxval != 255:
            raise PNMError(f"{path}: unsupported maxval {maxval} (only 8-bit)")
        n = w * h * channels
        # the header's claim is checked against the file before any read,
        # so a forged size never becomes a request for that many bytes
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < n:
            raise PNMError(f"{path}: truncated pixel data ({size} of {n} bytes)")
        buf = fh.read(n)
        if fh.read(1):
            raise PNMError(f"{path}: bytes after the {n} bytes of pixel data")
    return np.frombuffer(buf, dtype=np.uint8).reshape(_shape(h, w, channels))


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into an (H, W, 3) uint8 array."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into an (H, W) uint8 array."""
    return _read_pnm(path, b"P5", 1)
