"""PFM and 16-bit binary PGM readers and writers.

PFM scanlines are stored bottom-to-top; a negative scale marks little-endian
data.  PGM P5 at maxval 65535 stores big-endian two-byte samples, rows
top-to-bottom.
"""

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
    util.atomic_write_bytes(path, header + np.flipud(arr).tobytes())


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


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into a float32 array, rows top-to-bottom."""
    with open(path, "rb") as fh:
        buf = fh.read()
    (magic, ws, hs, ss), pos = _tokens(buf, 4)
    if magic not in (b"PF", b"Pf"):
        raise InputError(f"not a PFM file: magic {magic!r}")
    w, h = int(ws), int(hs)
    scale = float(ss)
    channels = 3 if magic == b"PF" else 1
    dtype = "<f4" if scale < 0 else ">f4"
    expected = w * h * channels * 4
    data = buf[pos:pos + expected]
    if len(data) != expected:
        raise InputError("PFM payload shorter than header promises")
    arr = np.frombuffer(data, dtype=dtype).reshape(h, w, channels).astype(np.float32)
    if channels == 1:
        arr = arr[:, :, 0]
    return np.flipud(arr).copy()


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
    util.atomic_write_bytes(path, header + arr.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    (magic, ws, hs, maxs), pos = _tokens(buf, 4)
    if magic != b"P5":
        raise InputError(f"not a binary PGM file: magic {magic!r}")
    if int(maxs) != 65535:
        raise InputError(f"expected maxval 65535, found {int(maxs)}")
    w, h = int(ws), int(hs)
    expected = w * h * 2
    data = buf[pos:pos + expected]
    if len(data) != expected:
        raise InputError("PGM payload shorter than header promises")
    return np.frombuffer(data, dtype=">u2").reshape(h, w).astype(np.uint16)
