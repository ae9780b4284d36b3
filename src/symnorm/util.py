"""Small shared helpers: deterministic RNG streams, UTF-8 text reads, atomic
file writes and the usable CPU count."""

import contextlib
import os
import zlib

import numpy as np

from .errors import InputError


def usable_cpu_count():
    """CPUs this process may run on: its affinity set where the OS reports
    one (a container or `taskset` can narrow it below the machine's count),
    else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def derive_rng(seed, *tags):
    """Deterministic generator for a (seed, tags...) stream.

    Tags keep independent stages of a pipeline from sharing one stream while
    staying reproducible for a fixed root seed.
    """
    entropy = [int(seed) % (1 << 63)]
    entropy.extend(zlib.crc32(str(t).encode("utf-8")) for t in tags)
    return np.random.default_rng(entropy)


def derive_seed(seed, *tags):
    """Single integer seed derived from a (seed, tags...) stream."""
    return int(derive_rng(seed, *tags).integers(0, 1 << 63))


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading, less a leading byte-order mark;
    text that does not decode raises InputError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None


def data_lines(path):
    """(line number, stripped line) of each line of a text file that is
    neither blank nor a '#' comment."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


@contextlib.contextmanager
def atomic_write(path):
    """Yield a binary file that replaces `path` when the block ends: the
    bytes go to a temp file in the same directory, renamed at the end.

    If the block, the write or the rename fails, the temp file is removed
    and the error re-raised; an OSError that names the temp file, or no
    file, is raised again naming `path`.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_text(path, text):
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def readonly(array):
    array.flags.writeable = False
    return array
