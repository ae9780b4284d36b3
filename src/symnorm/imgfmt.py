"""PFM and 16-bit binary PGM readers and writers.

PFM scanlines are stored bottom-to-top; a negative scale marks little-endian
data.  PGM P5 at maxval 65535 stores big-endian two-byte samples, rows
top-to-bottom.
"""

import math

import numpy as np

from . import util
from .errors import InputError


def write_pfm(path, image) -> None:
    """Write a (h, w) grayscale or (h, w, 3) color float map, little-endian."""
    arr = np.asarray(image, dtype="<f4")
    if arr.ndim == 2:
        magic = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValueError("PFM images must be (h, w) or (h, w, 3)")
    h, w = arr.shape[:2]
    header = magic + b"\n%d %d\n-1.0\n" % (w, h)
    with util.atomic_write(path) as fh:
        fh.write(header + np.flipud(arr).tobytes())


def _tokens(buf, count):
    pos = 0
    out = []
    while len(out) < count:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":  # header comment
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise InputError("truncated image header")
        out.append(buf[start:pos])
    return out, pos + 1  # skip the single whitespace byte before binary data


def _count(token, field):
    """A header's nonnegative decimal integer: ASCII digits only."""
    if not token.isdigit():
        raise InputError(f"image header {field} {token.decode('latin-1')!r} "
                         "is not a nonnegative integer")
    return int(token)


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into a float32 array, rows top-to-bottom."""
    with open(path, "rb") as fh:
        buf = fh.read()
    (magic, ws, hs, ss), pos = _tokens(buf, 4)
    if magic not in (b"PF", b"Pf"):
        raise InputError(f"not a PFM file: magic {magic!r}")
    w, h = _count(ws, "width"), _count(hs, "height")
    try:
        scale = float(ss)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale != 0.0):
        raise InputError(f"image header scale {ss.decode('latin-1')!r} is not a finite nonzero number")
    channels = 3 if magic == b"PF" else 1
    dtype = "<f4" if scale < 0 else ">f4"
    payload = memoryview(buf)[pos:]
    if w * h * channels * 4 > len(payload):
        raise InputError("PFM payload shorter than header promises")
    shape = (h, w, 3) if channels == 3 else (h, w)
    arr = np.frombuffer(payload, dtype=dtype, count=w * h * channels).reshape(shape)
    # the one copy: native float32, rows flipped to top-to-bottom
    return arr[::-1].astype(np.float32, order="C")


def write_pgm16(path, image) -> None:
    """Write a (h, w) integer array as binary PGM with maxval 65535."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError("PGM images must be (h, w)")
    if arr.size and (arr.min() < 0 or arr.max() > 65535):
        raise ValueError("PGM sample out of the 16-bit range")
    h, w = arr.shape
    header = b"P5\n%d %d\n65535\n" % (w, h)
    # two-byte PGM samples are most-significant-byte first
    with util.atomic_write(path) as fh:
        fh.write(header + arr.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    (magic, ws, hs, maxs), pos = _tokens(buf, 4)
    if magic != b"P5":
        raise InputError(f"not a binary PGM file: magic {magic!r}")
    maxval = _count(maxs, "maxval")
    if maxval != 65535:
        raise InputError(f"expected maxval 65535, found {maxval}")
    w, h = _count(ws, "width"), _count(hs, "height")
    payload = memoryview(buf)[pos:]
    if w * h * 2 > len(payload):
        raise InputError("PGM payload shorter than header promises")
    # the one copy: big-endian samples to native uint16
    return np.frombuffer(payload, dtype=">u2", count=w * h).reshape(h, w).astype(np.uint16)
