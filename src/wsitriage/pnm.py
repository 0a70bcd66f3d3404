"""Binary PPM (P6) and PGM (P5) readers and writers.

Slide rasters are stored as 8-bit P6 files and masks as P5; both are
bit-exact round-trippable and inspectable with standard image tools.
"""

from __future__ import annotations

import numpy as np


class PNMError(ValueError):
    """Raised for malformed PPM/PGM files."""


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
        token += ch


def _read_number(fh, path, what: str) -> int:
    """Next header token as a positive decimal integer."""
    token = _read_token(fh, path)
    if not token.isdigit() or int(token) == 0:
        raise PNMError(f"{path}: {what} must be a positive integer, "
                       f"got {token.decode('ascii', 'replace')!r}")
    return int(token)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) array, got shape {rgb.shape}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) uint8 array as binary PGM."""
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise ValueError(f"expected (H, W) array, got shape {gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


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
        buf = fh.read(n)
        if len(buf) != n:
            raise PNMError(f"{path}: truncated pixel data ({len(buf)} of {n} bytes)")
    arr = np.frombuffer(buf, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, channels)


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into an (H, W, 3) uint8 array."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into an (H, W) uint8 array."""
    return _read_pnm(path, b"P5", 1)
