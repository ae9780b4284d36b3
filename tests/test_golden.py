"""Golden output digests: the byte-determinism contract, pinned.

Builds a tiny seeded corpus, the four polyhedra of `shapes` and a low
icosphere, under both view settings; scores each build with eval-sym on
the baseline's predictions and with eval-normals on the build's own label
maps; and compares the sha256 of every file the run leaves (corpus, build,
predictions, reports) with the checked-in golden file.  The golden file
records the Python, numpy and scipy versions it was made with.  The digests
also depend on the OpenBLAS kernel and numpy's SIMD level (see the README),
which CI prints next to the versions, so a mismatch can be read against
both environments.

A change that alters output bytes on purpose regenerates the golden file
with `PYTHONPATH=src python tests/test_golden.py` and names the files that
moved and why.
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import shapes
from symnorm.cli import main
from symnorm.mesh_io import serialize_obj
from symnorm.orientation import VIEW_DISTRIBUTIONS

GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(GOLDEN / "build.cfg")
DIGESTS = GOLDEN / "digests.txt"
MODELS = {
    "bowl": {"icosphere": shapes.icosphere(1)},
    "cabinet": {"cuboid": shapes.cuboid(), "plate": shapes.square_plate()},
    "can": {"prism": shapes.hexagonal_prism()},
    "knife": {"tetrahedron": shapes.asymmetric_tetrahedron()},
}


def environment() -> str:
    return f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"


def run_digests(root: Path) -> dict:
    """Run the pipeline under `root`; the sha256 of each file it leaves
    there, by its path relative to `root`."""
    corpus = root / "corpus"
    for category, models in MODELS.items():
        (corpus / category).mkdir(parents=True)
        for model_id, mesh in models.items():
            (corpus / category / f"{model_id}.obj").write_text(serialize_obj(mesh))
    for setting in VIEW_DISTRIBUTIONS:
        run = root / setting
        build = run / "build"
        manifest = str(build / "manifest.tsv")
        predictions = str(run / "baseline.tsv")
        assert main(["build", str(corpus), str(build), "--view-setting", setting,
                     "--config", CONFIG]) == 0
        assert main(["baseline", manifest, "--out", predictions, "--config", CONFIG]) == 0
        assert main(["eval-sym", manifest, predictions, "--out-dir", str(run / "eval_sym"),
                     "--config", CONFIG]) == 0
        assert main(["eval-normals", manifest, str(build), "--out-dir", str(run / "eval_normals"),
                     "--config", CONFIG]) == 0
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def read_golden():
    """The golden file's environment line and its digests by path."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    pairs = (line.split("  ", 1) for line in lines[1:])
    return lines[0].removeprefix("# made with "), {path: digest for digest, path in pairs}


def test_output_bytes_match_golden_digests(tmp_path):
    made_with, want = read_golden()
    got = run_digests(tmp_path)
    moved = sorted(path for path in want.keys() & got.keys() if want[path] != got[path])
    assert got == want, (
        f"golden file made with {made_with}; this run: {environment()}\n"
        f"moved: {moved}\nmissing: {sorted(want.keys() - got.keys())}\n"
        f"new: {sorted(got.keys() - want.keys())}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    DIGESTS.write_text(f"# made with {environment()}\n"
                       + "".join(f"{digest}  {path}\n" for path, digest in digests.items()),
                       encoding="utf-8")
    print(f"{len(digests)} digests -> {DIGESTS}", file=sys.stderr)
