"""Traced replay: run symnorm CLI commands in this process with a span
recorded around every call into the modules' public functions.

    python3 perfbench/replay.py SRC_DIR COMMANDS_JSON SPANS_JSON

COMMANDS_JSON holds a list of CLI argument lists.  Each one goes through
`symnorm.cli.main`, so the replay writes the same files as the untraced
commands.  Spans are kept in memory and written to SPANS_JSON at the end as
{"import_s", "commands": [{"argv", "rc"}], "spans": [[id, name, start, end,
parent, attrs], ...]}.
"""

import functools
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    """Span recorder.  A span's parent is the innermost open span of its
    thread; spans opened on a worker thread with nothing open there hang
    under the innermost open span of the main thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_of=None):
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else 0
        span_id = next(self._ids)
        attrs = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                result = attrs_of(attrs, result, args, kwargs)
            return result
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent, attrs])

    def wrap(self, namespace, attr, name, attrs_of=None):
        fn = getattr(namespace, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)

        setattr(namespace, attr, traced)


def _file_bytes(attrs, result, args, kwargs):
    attrs["bytes"] = os.path.getsize(args[0])
    return result


def _rasterize(attrs, result, args, kwargs):
    attrs["faces"] = len(args[0].faces)
    attrs["covered_px"] = int(result.mask.sum())
    return result


def _manifest_rows(attrs, result, args, kwargs):
    attrs["rows"] = len(result[1])
    return result


def _written_rows(attrs, result, args, kwargs):
    attrs["rows"] = len(args[1])
    return result


def _predictions(attrs, result, args, kwargs):
    attrs["predictions"] = sum(len(v) for v in result.values())
    return result


def _pixels(attrs, result, args, kwargs):
    attrs["pixels"] = len(result)
    return result


def _dedupe(attrs, result, args, kwargs):
    attrs["accepted"] = len(args[0])
    attrs["kept"] = len(result)
    return result


def install(tracer):
    """Wrap the public functions where their callers look them up."""
    from symnorm import cli, dataset, evaluation, imgfmt, symmetry

    refine = symmetry.refine_plane_icp

    def refine_counted(samples, plane, config, return_history=False, **kwargs):
        attrs_box = {}

        def run():
            refined, history = refine(samples, plane, config, return_history=True, **kwargs)
            # one history entry per iteration run, plus the final rescoring
            attrs_box["iters"] = len(history) - 1
            attrs_box["capped"] = int(len(history) - 1 >= config.icp_max_iters)
            return (refined, history) if return_history else refined

        def attrs_of(attrs, result, args, kw):
            attrs.update(attrs_box)
            return result

        return tracer.call("symmetry.refine_plane_icp", run, (), {}, attrs_of)

    symmetry.refine_plane_icp = refine_counted

    for namespace, attr, name, attrs_of in (
        (cli, "build_manifest", "dataset.build_manifest", None),
        (cli, "read_manifest", "dataset.read_manifest", _manifest_rows),
        (cli, "read_predictions", "cli.read_predictions", _predictions),
        (cli, "load_normal_map", "render.load_normal_map", None),
        (cli, "load_label_map", "render.load_label_map", None),
        (cli, "labels_to_normals", "render.labels_to_normals", None),
        (dataset, "parse_obj_file", "mesh_io.parse_obj_file", None),
        (dataset, "detect_symmetries", "symmetry.detect_symmetries", None),
        (dataset, "write_planes", "symmetry.write_planes", None),
        (dataset, "sample_view", "orientation.sample_view", None),
        (dataset, "rotate_orientations", "orientation.rotate_orientations", None),
        (dataset, "make_symmetry_label", "orientation.make_symmetry_label", None),
        (dataset, "rasterize", "render.rasterize", _rasterize),
        (dataset, "discretize_normal_map", "render.discretize_normal_map", None),
        (dataset, "save_normal_map", "render.save_normal_map", None),
        (dataset, "save_label_map", "render.save_label_map", None),
        (dataset, "write_manifest", "dataset.write_manifest", _written_rows),
        (symmetry, "sample_surface", "mesh_io.sample_surface", None),
        (symmetry, "generate_hypotheses", "symmetry.generate_hypotheses", None),
        (symmetry, "dedupe_planes", "symmetry.dedupe_planes", _dedupe),
        (evaluation, "ap_symmetry", "evaluation.ap_symmetry", None),
        (evaluation, "pixel_errors_deg", "evaluation.pixel_errors_deg", _pixels),
        (evaluation, "aggregate_by_category", "evaluation.aggregate_by_category", None),
        (imgfmt, "write_pfm", "imgfmt.write_pfm", _file_bytes),
        (imgfmt, "write_pgm16", "imgfmt.write_pgm16", _file_bytes),
        (imgfmt, "read_pfm", "imgfmt.read_pfm", _file_bytes),
        (imgfmt, "read_pgm16", "imgfmt.read_pgm16", _file_bytes),
    ):
        tracer.wrap(namespace, attr, name, attrs_of)
    return cli


def main(src_dir, commands_path, spans_path):
    sys.path.insert(0, src_dir)
    started = time.perf_counter()
    import symnorm.cli  # noqa: F401  (timed: the CLI's cold import)
    import_s = time.perf_counter() - started
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    tracer = Tracer()
    cli = install(tracer)
    done = []
    for argv in commands:
        rc = tracer.call("cli." + argv[0], cli.main, (argv,), {})
        done.append({"argv": argv, "rc": rc})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "commands": done, "spans": tracer.spans}, fh)
    return 0 if all(c["rc"] == 0 for c in done) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
