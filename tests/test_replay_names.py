"""The traced benchmark replay (`perfbench/replay.py`) wraps symnorm functions
by module and name.  A renamed or deleted one breaks only `--trace 1` runs, so
the names it wraps are checked here against the package."""

import ast
import importlib
import inspect
from pathlib import Path

from symnorm.symmetry import refine_plane_icp

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def wrapped_names():
    """(module, attr) of every `module.attr` that `install` reads or assigns and
    of every `(module, "attr", ...)` row of the loop that wraps the rest."""
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    install = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    modules = {alias.asname or alias.name for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) and node.module == "symnorm"
               for alias in node.names}
    names = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add((node.value.id, node.attr))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for row in node.iter.elts:
                module, attr = row.elts[:2]
                assert isinstance(module, ast.Name) and module.id in modules
                names.add((module.id, attr.value))
    return sorted(names)


def test_replay_wraps_only_existing_names():
    names = wrapped_names()
    assert ("symmetry", "refine_plane_icp") in names and ("cli", "read_manifest") in names
    missing = [f"symnorm.{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"symnorm.{module}"), attr)]
    assert not missing


def test_replay_refine_wrapper_keeps_return_history():
    assert "return_history" in inspect.signature(refine_plane_icp).parameters
