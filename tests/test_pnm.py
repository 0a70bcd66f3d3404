import time
import tracemalloc

import numpy as np
import pytest

from wsitriage.pnm import MAX_TOKEN, PNMError, read_pgm, read_ppm, write_pgm, write_ppm


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(21, 19), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


@pytest.mark.parametrize("write, magic, shape", [
    (write_ppm, b"P6", (5, 7, 3)), (write_pgm, b"P5", (5, 7))], ids=["ppm", "pgm"])
def test_file_is_header_then_pixels(tmp_path, write, magic, shape):
    img = np.random.default_rng(2).integers(0, 256, size=shape, dtype=np.uint8)
    path = tmp_path / "x"
    write(path, np.asfortranarray(img))
    assert path.read_bytes() == magic + b"\n7 5\n255\n" + img.tobytes()


def test_header_comments_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + body)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img.tobytes() == body


def test_wrong_magic(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n1 1\n255\n000")
    with pytest.raises(PNMError):
        read_ppm(path)


def test_truncated_data(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n4 4\n255\n\x00\x00")
    with pytest.raises(PNMError, match="truncated"):
        read_ppm(path)


def test_forged_size_rejected_before_any_read(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n40000 40000\n255\n\x00\x00\x00")
    tracemalloc.start()
    try:
        with pytest.raises(PNMError, match=r"x.ppm: truncated pixel data "
                                           r"\(3 of 4800000000 bytes\)"):
            read_ppm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # the claimed 4.8 GB were never asked for


def test_unsupported_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(PNMError, match="maxval"):
        read_pgm(path)


def test_shape_validation(tmp_path):
    with pytest.raises(ValueError, match=r"expected \(H, W, 3\) array, got shape \(4, 4\)"):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"expected \(H, W\) array, got shape \(4, 4, 3\)"):
        write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"expected \(H, W\) array, got shape \(4,\)"):
        write_pgm(tmp_path / "x.pgm", np.zeros(4, dtype=np.uint8))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("write, pixels", [
    (write_pgm, np.array([[300, -1], [256, 5]])),
    (write_pgm, np.array([[255.7, 0.0]])),
    (write_pgm, np.array([[True, False]])),
    (write_ppm, np.zeros((2, 2, 3), dtype=np.uint16)),
    (write_ppm, np.full((2, 2, 3), 200.0, dtype=np.float32)),
], ids=["int64-out-of-range", "float64", "bool", "uint16", "float32"])
def test_non_uint8_rejected_not_wrapped(tmp_path, write, pixels):
    """Values that do not fit in a byte are never cast (300 would be
    written as 44, -1 as 255, 255.7 as 255): any dtype but uint8 is
    refused, naming the dtype, and no file is made."""
    with pytest.raises(ValueError, match=f"expected a uint8 array, got dtype {pixels.dtype}"):
        write(tmp_path / "x", pixels)
    assert not list(tmp_path.iterdir())


def test_raster_written_from_its_own_buffer(tmp_path):
    """A C-contiguous raster is written without a copy of its pixels."""
    img = np.random.default_rng(3).integers(0, 256, size=(1024, 1536, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    tracemalloc.start()
    try:
        write_ppm(path, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak   # a copy would be 4.7 MB
    assert np.array_equal(read_ppm(path), img)


@pytest.mark.parametrize("header, what", [
    (b"P6\n-4 2\n255\n", "width"),
    (b"P6\nfour 2\n255\n", "width"),
    (b"P6\n0 2\n255\n", "width"),
    (b"P6\n2 2\n255.0\n", "maxval"),
], ids=["negative-width", "text-width", "zero-width", "fractional-maxval"])
def test_malformed_header_number(tmp_path, header, what):
    path = tmp_path / "x.ppm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(PNMError, match=f"x.ppm: {what} must be a positive integer"):
        read_ppm(path)


@pytest.mark.parametrize("digits", [MAX_TOKEN + 1, 5_000])
def test_overlong_header_number(tmp_path, digits):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n" + b"1" * digits + b" 2\n255\n" + bytes(12))
    with pytest.raises(PNMError, match=f"^{path}: header token longer than"):
        read_ppm(path)


def test_longest_header_number_read(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n" + b"0" * (MAX_TOKEN - 1) + b"3 2\n255\n" + bytes(6))
    assert read_pgm(path).shape == (2, 3)


def test_million_digit_token_rejected_fast(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n" + b"7" * 1_000_000 + b" 2\n255\n")
    start = time.perf_counter()
    with pytest.raises(PNMError, match="header token longer than"):
        read_pgm(path)
    assert time.perf_counter() - start < 0.5
