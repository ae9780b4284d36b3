import numpy as np
import pytest

from symnorm import imgfmt
from symnorm.errors import InputError


def test_pfm_color_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.normal(size=(7, 5, 3)).astype(np.float32)
    path = tmp_path / "c.pfm"
    imgfmt.write_pfm(path, img)
    assert np.array_equal(imgfmt.read_pfm(path), img)


def test_pfm_gray_roundtrip_with_inf(tmp_path):
    img = np.full((4, 6), np.inf, dtype=np.float32)
    img[1, 2] = 3.5
    img[0, 0] = -0.25
    path = tmp_path / "g.pfm"
    imgfmt.write_pfm(path, img)
    assert np.array_equal(imgfmt.read_pfm(path), img)


def test_pfm_header_layout(tmp_path):
    path = tmp_path / "h.pfm"
    imgfmt.write_pfm(path, np.zeros((2, 3, 3), dtype=np.float32))
    raw = path.read_bytes()
    assert raw.startswith(b"PF\n3 2\n-1.0\n")


def test_pfm_rejects_bad_shapes_and_scale(tmp_path):
    with pytest.raises(ValueError):
        imgfmt.write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 4)))


def test_pfm_read_errors(tmp_path):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 4)
    with pytest.raises(InputError):
        imgfmt.read_pfm(bad)
    short = tmp_path / "short.pfm"
    short.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\0" * 8)
    with pytest.raises(InputError):
        imgfmt.read_pfm(short)


def test_pgm16_roundtrip(tmp_path):
    img = np.arange(24, dtype=np.uint16).reshape(4, 6) * 2749
    path = tmp_path / "l.pgm"
    imgfmt.write_pgm16(path, img)
    assert np.array_equal(imgfmt.read_pgm16(path), img)
    assert path.read_bytes().startswith(b"P5\n6 4\n65535\n")


def test_pgm16_big_endian_samples(tmp_path):
    path = tmp_path / "e.pgm"
    imgfmt.write_pgm16(path, np.array([[0x0102]], dtype=np.uint16))
    assert path.read_bytes().endswith(b"\x01\x02")


def test_pgm16_range_validation(tmp_path):
    with pytest.raises(ValueError):
        imgfmt.write_pgm16(tmp_path / "x.pgm", np.array([[70000]]))
    with pytest.raises(ValueError):
        imgfmt.write_pgm16(tmp_path / "x.pgm", np.array([[-1]]))


def test_pgm16_read_errors(tmp_path):
    wrong_max = tmp_path / "m.pgm"
    wrong_max.write_bytes(b"P5\n1 1\n255\n\0")
    with pytest.raises(InputError):
        imgfmt.read_pgm16(wrong_max)


def test_header_comments_tolerated(tmp_path):
    path = tmp_path / "c.pgm"
    payload = np.array([[1, 2], [3, 4]], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n# a comment\n2 2\n65535\n" + payload)
    assert imgfmt.read_pgm16(path).tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("header, field", [
    (b"PF\n-2 -2\n-1.0\n", "width"),
    (b"PF\n2.5 2\n-1.0\n", "width"),
    (b"Pf\n2 -1\n-1.0\n", "height"),
    (b"Pf\n2 x\n-1.0\n", "height"),
    (b"Pf\n2 2\nabc\n", "scale"),
    (b"Pf\n2 2\nnan\n", "scale"),
    (b"Pf\n2 2\n0\n", "scale"),
], ids=["negative", "fractional-width", "negative-height", "word-height", "word-scale",
        "nan-scale", "zero-scale"])
def test_pfm_malformed_header_names_the_field(tmp_path, header, field):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(header + b"\0" * 48)
    with pytest.raises(InputError, match=f"header {field} "):
        imgfmt.read_pfm(bad)


@pytest.mark.parametrize("header, field", [
    (b"P5\n-2 2\n65535\n", "width"),
    (b"P5\n2.5 2\n65535\n", "width"),
    (b"P5\n2 -2\n65535\n", "height"),
    (b"P5\n2 2\nabc\n", "maxval"),
    (b"P5\n2 2\n-65535\n", "maxval"),
], ids=["negative-width", "fractional-width", "negative-height", "word-maxval", "negative-maxval"])
def test_pgm16_malformed_header_names_the_field(tmp_path, header, field):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(header + b"\0" * 16)
    with pytest.raises(InputError, match=f"header {field} "):
        imgfmt.read_pgm16(bad)
