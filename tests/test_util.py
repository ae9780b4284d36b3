import os
import subprocess
import sys
from pathlib import Path

import pytest

import symnorm
from symnorm import util


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        util.atomic_write_bytes(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def _blas_threads_after_import(**env):
    """OPENBLAS_NUM_THREADS as a fresh interpreter sees it after `import symnorm`."""
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = str(Path(symnorm.__file__).parents[1])
    code = "import os, symnorm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_import_runs_openblas_on_one_thread_unless_the_environment_sets_it():
    assert _blas_threads_after_import() == "1"
    assert _blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"


def test_usable_cpu_count_follows_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert util.usable_cpu_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert util.usable_cpu_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert util.usable_cpu_count() == 1
