import numpy as np
import pytest

from wsitriage.pnm import PNMError, read_pgm, read_ppm, write_pgm, write_ppm


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


def test_unsupported_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(PNMError, match="maxval"):
        read_pgm(path)


def test_shape_validation():
    with pytest.raises(ValueError):
        write_ppm("/tmp/never.ppm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_pgm("/tmp/never.pgm", np.zeros((4, 4, 3), dtype=np.uint8))


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
