"""symnorm benchmark: ground-truth builds and evaluation, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the program is the `symnorm`
package under `src/`, started as `python -m symnorm.cli` in a fresh child
process for every command, so each command's wall time and peak RSS are its
own.  All files live under `.perfbench_work/` in the checkout and are removed
when the run ends.

Workloads (inputs are drawn from --seed; the program's own seed stays 0):

  build_lowpoly  `symnorm build` over a cuboid, a square plate, a hexagonal
                 prism and a tetrahedron with the acceptance-suite detector
                 values; symmetry detection is nearly all the work.
  build_dense    `symnorm build --view-setting V_D` over two 1280-face and
                 one 5120-face icosphere at 224x224; rasterizing and writing
                 the maps is most of the work.

Each run times one build, writes seeded predictions for the built corpus,
then runs `eval-sym` and `eval-normals`, which read the maps back,
one at a time in a closed loop, always the kind with less time measured so
far, until each kind has run for half of --seconds and at least twice, so
that repeated commands can be compared byte for byte.  Eval rates are
medians over each kind's commands.  setup_s is the median of three set-ups,
each writing the seeded meshes and starting a fresh interpreter that
imports symnorm.cli.  setup_s and the eval rates are scaled to a reference
start-up speed (see STARTUP_S); the build rates are reported as measured.
Every command's exit code, a ground truth self-check (AP 1, normal error
near 0 degrees) and byte-identical repeats count as output checks.

With --trace 1 the run makes one untraced eval round, then replays the
timed commands in one process through `replay.py`, which records a span
around each call into the modules' public functions, and reports per-layer
metrics.  The replay must write the same bytes as the untraced commands.

The last line of standard output is one JSON object: correct, attempted,
failed (output checks) and metrics (name -> value, unit).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 3
SELF_CHECK_ROWS = 24
EVAL_KINDS = ("eval-sym", "eval-normals")
MODULES = ("mesh_io", "symmetry", "orientation", "render", "imgfmt", "dataset", "cli", "evaluation")
DEDUPE_ANGLE_DEG = 10.0  # the program's default dedupe_angle_deg, used to match planes

# Set-up and the eval commands over these small corpora are mostly interpreter
# start-up: importing numpy and scipy takes about two thirds of an eval-sym.
# On a shared host start-up time drifts by a third from one minute to the
# next, more than any run length averages out.  So a bare start-up, with the
# same third-party imports and no code of this repository, is timed right
# before each set-up and each eval command, and setup_s and the eval rates
# are reported at the host speed where that start-up takes STARTUP_S.  The
# builds run for many seconds on two threads and are reported as measured.
STARTUP_ARGV = ("-c", "import numpy, scipy.spatial")
STARTUP_S = 0.5

# acceptance-suite detector values (see README "Configuration keys")
SUITE_DETECTOR = "sample_count = 8000\naccept_residual = 0.0088\ncluster_offset_frac = 0.015\n"


@dataclass(frozen=True)
class Workload:
    models: object          # seed -> list[inputs.Model]
    config: str             # --config file for every build
    build_flags: tuple
    views: int


WORKLOADS = {
    "build_lowpoly": Workload(
        lambda seed: inputs.lowpoly_models(
            seed, (inputs.cuboid, inputs.square_plate, inputs.hexagonal_prism,
                   inputs.asymmetric_tetrahedron), stream=1),
        SUITE_DETECTOR, (), 4),
    "build_dense": Workload(
        lambda seed: inputs.dense_models(seed, (3, 3, 4)),
        SUITE_DETECTOR, ("--view-setting", "V_D"), 10),
}


class Run:
    """Output checks, timed child processes and the work directory of one run."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.startups = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def startup(self):
        """Time one bare start-up (STARTUP_ARGV) in a child process."""
        rc, wall, _ = self.child([sys.executable, *STARTUP_ARGV])
        self.check(rc == 0, f"reference start-up exited {rc}")
        self.startups.append(wall)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED check: {what}")

    def child(self, argv):
        """Run argv to completion; return (exit code, wall s, peak RSS MB).

        os.wait4 reports the child's own peak RSS, not the harness's."""
        log = self.work / "child.log"
        with open(log, "ab") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=out)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, argv):
        rc, wall, rss = self.child([sys.executable, "-m", "symnorm.cli", *argv])
        self.check(rc == 0, f"`symnorm {' '.join(argv[:1])}` exited {rc}")
        return wall, rss


def setup_inputs(run: Run, wl: Workload, seed: int):
    """Write the seeded corpus and config, then start the CLI's import once
    in a fresh interpreter.  Repeated; the median time is setup_s."""
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        target = run.work / f"setup{k}"
        run.startup()
        started = time.perf_counter()
        models = wl.models(seed)
        digests.append(inputs.write_corpus(target / "corpus", models))
        (target / "run.cfg").write_text(wl.config + f"per_model_views = {wl.views}\n")
        rc, _, _ = run.child([sys.executable, "-c", "import symnorm.cli"])
        times.append(time.perf_counter() - started)
        run.check(rc == 0, "symnorm.cli imports")
        if k:
            shutil.rmtree(target)
    run.check(len(set(digests)) == 1, "inputs repeat for one seed")
    return models, run.work / "setup0", statistics.median(times), digests[0]


def plane_scores(out: Path, models):
    """Match each model's detected planes to its analytic planes."""
    rows, matched, analytic, detected = [], 0, 0, 0
    for m in models:
        found = inputs.read_planes(out / m.category / m.model_id / "planes.txt")
        hit, spurious = inputs.match_planes(m.planes[:, :3], found, DEDUPE_ANGLE_DEG)
        rows.append(f"  {m.model_id:26s} faces {len(m.faces):5d}  analytic {len(m.planes):2d}"
                    f"  detected {len(found):2d}  matched {hit:2d}  spurious {spurious:2d}")
        matched, analytic, detected = matched + hit, analytic + len(m.planes), detected + len(found)
    return {"matched": matched, "analytic": analytic, "detected": detected, "rows": rows}


def report_value(path: Path, row: str, column: int) -> float:
    """A number from a report.tsv, or NaN when the report or row is missing."""
    lines = path.read_text().splitlines() if path.is_file() else []
    for parts in (line.split("\t") for line in lines):
        if parts[0] == row:
            return float(parts[column])
    return math.nan


def self_check(run: Run, manifest: Path):
    """Ground truth posed as predictions must score AP 1 and ~0 degrees."""
    base = run.work / "self_check"
    sub = inputs.write_self_check(manifest, SELF_CHECK_ROWS, base / "preds.tsv", base / "maps")
    run.command(["eval-sym", str(sub), str(base / "preds.tsv"), "--out-dir", str(base / "sym")])
    run.command(["eval-normals", str(sub), str(base / "maps"), "--out-dir", str(base / "normals")])
    ap = report_value(base / "sym" / "report.tsv", "macro", 1)
    err = report_value(base / "normals" / "report.tsv", "macro", 1)
    run.check(abs(ap - 1.0) < 1e-9, f"self-check macro AP {ap!r} is 1")
    run.check(err < 0.05, f"self-check mean normal error {err!r} deg is near 0")
    sub.unlink()
    shutil.rmtree(base)
    return ap, err


class Timed:
    """The timed commands of one run: one build, then a loop of eval-sym
    and eval-normals over its output."""

    def __init__(self, run: Run, wl: Workload, inputs_dir: Path, seed: int):
        self.run, self.wl, self.inputs_dir, self.seed = run, wl, inputs_dir, seed
        self.corpus = run.work / "corpus_out"
        self.walls = {"build": [], "eval-sym": [], "eval-normals": []}
        self.rss = {"build": [], "eval-sym": [], "eval-normals": []}
        self.digests = {"build": [], "eval-sym": [], "eval-normals": []}
        self.predictions = None

    def command(self, kind, argv, out: Path):
        wall, rss = self.run.command(argv)
        self.walls[kind].append(wall)
        self.rss[kind].append(rss)
        self.digests[kind].append(inputs.tree_digest(out))
        return wall

    def build_argv(self, out: Path):
        return ["build", str(self.inputs_dir / "corpus"), str(out),
                "--config", str(self.inputs_dir / "run.cfg"), *self.wl.build_flags]

    def eval_argv(self, kind: str, tag: str):
        """(argv, output dir) of one eval command."""
        pred, manifest = self.run.work / "pred", self.corpus / "manifest.tsv"
        if kind == "eval-sym":
            out = self.run.work / f"sym{tag}"
            return ["eval-sym", str(manifest), str(pred / "preds.tsv"), "--out-dir", str(out)], out
        out = self.run.work / f"normals{tag}"
        return ["eval-normals", str(manifest), str(pred / "maps"), "--out-dir", str(out)], out

    def eval_argvs(self, tag: str):
        """(kind, argv, output dir) of one eval-sym and one eval-normals."""
        return [(kind, *self.eval_argv(kind, tag)) for kind in EVAL_KINDS]

    def build(self):
        """Build the corpus, then write the seeded predictions for it.
        Returns the build's wall s."""
        wall = self.command("build", self.build_argv(self.corpus), self.corpus)
        pred = self.run.work / "pred"
        self.predictions = inputs.write_predictions(self.corpus / "manifest.tsv", pred / "preds.tsv",
                                                    pred / "maps", self.seed)
        return wall

    def eval_loop(self, seconds: float, minimum: int):
        """Closed loop of eval commands, one at a time.  The next command is
        the kind with less time measured so far, so both kinds are sampled
        across the whole loop; it ends when each kind has run for half of
        `seconds` and at least `minimum` times.  Repeats must write
        identical bytes.  Returns the command count of each kind."""
        while True:
            spent = {kind: sum(self.walls[kind]) for kind in EVAL_KINDS}
            short = [k for k in EVAL_KINDS if len(self.walls[k]) < minimum or spent[k] < seconds / 2]
            if not short:
                break
            enough = all(len(self.walls[kind]) >= minimum for kind in EVAL_KINDS)
            kind = min(short, key=lambda k: (len(self.walls[k]) >= minimum, spent[k]))
            if enough and time.monotonic() + 1.5 * max(self.walls[kind]) > self.run.deadline:
                self.run.notes.append(f"stopped the eval loop after {sum(spent.values()):.1f} s "
                                      "to end in time")
                break
            argv, out = self.eval_argv(kind, str(len(self.walls[kind])))
            self.run.startup()
            self.command(kind, argv, out)
            shutil.rmtree(out)
        for kind in EVAL_KINDS:
            if len(self.digests[kind]) > 1:
                self.run.check(len(set(self.digests[kind])) == 1,
                               f"repeated `{kind}` writes identical bytes")
        return {kind: len(self.walls[kind]) for kind in EVAL_KINDS}


def tail(values):
    """(median, tail) of n samples.  The tail is the nearest-rank percentile
    100 (n - 10) / n, the highest with ten samples beyond it; below 20
    samples no percentile above the median has that, and tail = median."""
    if not values:
        return 0.0, 0.0
    xs = sorted(values)
    mid = statistics.median(xs)
    rank = len(xs) - 10
    return (mid, xs[rank - 1]) if 2 * rank > len(xs) else (mid, mid)


def measure(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def subtract(span, cover):
    """Parts of the interval `span` not covered by any interval in `cover`."""
    out, cursor = [], span[0]
    for s, e in sorted(cover):
        if s > cursor:
            out.append((cursor, min(s, span[1])))
        cursor = max(cursor, e)
        if cursor >= span[1]:
            break
    if cursor < span[1]:
        out.append((cursor, span[1]))
    return out


def layer_metrics(trace, traced_wall, untraced_wall):
    """Per-layer metrics from the replay's spans.  A span's self time is its
    interval minus those of its children; `<module>.self_pct` is the share of
    the traced command time that the module's spans cover with self time."""
    spans = trace["spans"]
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    self_parts = {span[0]: subtract((span[2], span[3]), children.get(span[0], [])) for span in spans}

    def named(name):
        return [s for s in spans if s[1] == name]

    def total_s(*names):
        return sum(s[3] - s[2] for n in names for s in named(n))

    def ms(name):
        return [1000.0 * (s[3] - s[2]) for s in named(name)]

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in named(name))

    command_s = sum(s[3] - s[2] for s in spans if s[1].startswith("cli.") and s[4] == 0)

    def self_pct(match):
        parts = [p for s in spans if match(s[1]) for p in self_parts[s[0]]]
        return 100.0 * measure(parts) / command_s if command_s else 0.0

    icp_calls = len(named("symmetry.refine_plane_icp"))
    accepted = attr_sum("symmetry.dedupe_planes", "accepted")
    kept = attr_sum("symmetry.dedupe_planes", "kept")
    raster_p50, raster_tail = tail(ms("render.rasterize"))
    raster_s = total_s("render.rasterize")
    writes = ms("imgfmt.write_pfm") + ms("imgfmt.write_pgm16")
    reads = ms("imgfmt.read_pfm") + ms("imgfmt.read_pgm16")
    write_p50, write_tail = tail(writes)
    read_p50, read_tail = tail(reads)
    pix_p50, pix_tail = tail(ms("evaluation.pixel_errors_deg"))
    values = {
        "mesh_io.parse_s": (total_s("mesh_io.parse_obj_file"), "s"),
        "mesh_io.sample_s": (total_s("mesh_io.sample_surface"), "s"),
        "symmetry.detect_s": (total_s("symmetry.detect_symmetries"), "s"),
        "symmetry.hypotheses_s": (total_s("symmetry.generate_hypotheses"), "s"),
        "symmetry.icp_busy_s": (total_s("symmetry.refine_plane_icp"), "s"),
        "symmetry.icp_calls": (icp_calls, "count"),
        "symmetry.icp_iters": (attr_sum("symmetry.refine_plane_icp", "iters"), "count"),
        "symmetry.icp_capped": (attr_sum("symmetry.refine_plane_icp", "capped"), "count"),
        "symmetry.icp_failed": (sum(1 for s in named("symmetry.refine_plane_icp") if "error" in s[5]),
                                "count"),
        "symmetry.accepted": (accepted, "count"),
        "symmetry.accept_ratio": (accepted / icp_calls if icp_calls else 0.0, "ratio"),
        "symmetry.dedupe_keep_ratio": (kept / accepted if accepted else 0.0, "ratio"),
        "orientation.view_label_s": (total_s("orientation.sample_view", "orientation.rotate_orientations",
                                             "orientation.make_symmetry_label"), "s"),
        "render.rasterize_ms_p50": (raster_p50, "ms"),
        "render.rasterize_ms_tail": (raster_tail, "ms"),
        "render.rasterize_calls": (len(named("render.rasterize")), "count"),
        "render.faces_per_s": (attr_sum("render.rasterize", "faces") / raster_s if raster_s else 0.0,
                               "1/s"),
        "render.covered_px": (attr_sum("render.rasterize", "covered_px"), "count"),
        "render.rasterize_self_pct": (self_pct(lambda n: n == "render.rasterize"), "%"),
        "render.discretize_ms_p50": (tail(ms("render.discretize_normal_map"))[0], "ms"),
        "imgfmt.write_ms_p50": (write_p50, "ms"),
        "imgfmt.write_ms_tail": (write_tail, "ms"),
        "imgfmt.writes": (len(writes), "count"),
        "imgfmt.write_bytes": (attr_sum("imgfmt.write_pfm", "bytes") + attr_sum("imgfmt.write_pgm16", "bytes"),
                               "B"),
        "imgfmt.write_self_pct": (self_pct(lambda n: n.startswith("imgfmt.write")), "%"),
        "imgfmt.read_ms_p50": (read_p50, "ms"),
        "imgfmt.read_ms_tail": (read_tail, "ms"),
        "imgfmt.reads": (len(reads), "count"),
        "imgfmt.read_bytes": (attr_sum("imgfmt.read_pfm", "bytes") + attr_sum("imgfmt.read_pgm16", "bytes"),
                              "B"),
        "imgfmt.read_self_pct": (self_pct(lambda n: n.startswith("imgfmt.read")), "%"),
        "dataset.manifest_write_s": (total_s("dataset.write_manifest"), "s"),
        "dataset.manifest_read_s": (total_s("dataset.read_manifest"), "s"),
        "dataset.rows_written": (attr_sum("dataset.write_manifest", "rows"), "count"),
        "dataset.rows_read": (attr_sum("dataset.read_manifest", "rows"), "count"),
        "cli.import_s": (trace["import_s"], "s"),
        "cli.read_predictions_s": (total_s("cli.read_predictions"), "s"),
        "cli.predictions": (attr_sum("cli.read_predictions", "predictions"), "count"),
        "evaluation.ap_s": (total_s("evaluation.ap_symmetry"), "s"),
        "evaluation.pixel_errors_ms_p50": (pix_p50, "ms"),
        "evaluation.pixel_errors_ms_tail": (pix_tail, "ms"),
        "evaluation.pixel_errors_calls": (len(named("evaluation.pixel_errors_deg")), "count"),
        "evaluation.pixels": (attr_sum("evaluation.pixel_errors_deg", "pixels"), "count"),
        "evaluation.aggregate_s": (total_s("evaluation.aggregate_by_category"), "s"),
        **{f"{module}.self_pct": (self_pct(lambda n, m=module: n.split(".")[0] == m), "%")
           for module in MODULES},
        "trace.spans": (len(spans), "count"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return values


def traced_replay(run: Run, timed: Timed):
    """Replay the timed commands (the build and one eval round) in one
    traced process into fresh directories; their bytes must match the
    untraced outputs."""
    steps = [("build", timed.build_argv(run.work / "corpus_traced"), run.work / "corpus_traced"),
             *timed.eval_argvs("_traced")]
    (run.work / "commands.json").write_text(json.dumps([argv for _, argv, _ in steps]))
    rc, wall, _ = run.child([sys.executable, str(Path(__file__).with_name("replay.py")), str(SRC),
                             str(run.work / "commands.json"), str(run.work / "spans.json")])
    run.check(rc == 0, f"traced replay exited {rc}")
    trace = json.loads((run.work / "spans.json").read_text())
    for kind, _, out in steps:
        run.check(inputs.tree_digest(out) == timed.digests[kind][0],
                  f"traced `{kind}` writes the untraced bytes")
    untraced_wall = sum(timed.walls[kind][0] for kind, _, _ in steps)
    return layer_metrics(trace, wall, untraced_wall)


def environment():
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {k: os.environ[k] for k in keys if k in os.environ},
    }


def benchmark(run: Run, name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    models, inputs_dir, setup_s, inputs_digest = setup_inputs(run, wl, seed)
    timed = Timed(run, wl, inputs_dir, seed)
    build_wall = timed.build()
    counts = timed.eval_loop(0.0, 1) if trace else timed.eval_loop(seconds, 2)
    planes = plane_scores(timed.corpus, models)
    _, rows = inputs.read_manifest(timed.corpus / "manifest.tsv")
    views = len(rows)
    run.check(views == len(models) * wl.views, f"manifest has {views} rows")
    ap, err = self_check(run, timed.corpus / "manifest.tsv")
    n_preds = len((run.work / "pred" / "preds.tsv").read_text().splitlines())
    lines = [f"inputs sha256 {inputs_digest}", f"predictions sha256 {timed.predictions}",
             *(f"output sha256 {kind}: {d[0]}" for kind, d in timed.digests.items()),
             f"eval commands {counts}; self-check macro AP {ap!r}, mean normal error {err!r} deg",
             *(f"{kind} wall s {[round(w, 3) for w in walls]}" for kind, walls in timed.walls.items()),
             "planes (analytic planes matched within dedupe_angle_deg):", *planes["rows"],
             f"plane recall {planes['matched']} of {planes['analytic']} analytic; spurious "
             f"{planes['detected'] - planes['matched']} of {planes['detected']} detected"]
    if trace:
        values = traced_replay(run, timed)
        values.update({
            "symmetry.plane_recall": (planes["matched"] / planes["analytic"], "ratio"),
            "symmetry.analytic_planes": (planes["analytic"], "count"),
            "symmetry.plane_precision": (planes["matched"] / planes["detected"] if planes["detected"] else 0.0,
                                         "ratio"),
            "symmetry.detected_planes": (planes["detected"], "count"),
            "symmetry.spurious_planes": (planes["detected"] - planes["matched"], "count"),
        })
    else:
        startup = statistics.median(run.startups)
        speed = STARTUP_S / startup  # below 1 when start-up is slower than the reference
        sym_raw = n_preds / statistics.median(timed.walls["eval-sym"])
        normals_raw = views / statistics.median(timed.walls["eval-normals"])
        lines += [f"bare start-up median {startup:.4f} s over {len(run.startups)}: host speed {speed:.4f} "
                  f"of the reference; as measured, setup_s {setup_s:.6g} s, sym_preds_per_s "
                  f"{sym_raw:.6g} 1/s, normal_images_per_s {normals_raw:.6g} 1/s"]
        values = {
            "setup_s": (setup_s * speed, "s"),
            "views_per_s": (views / build_wall, "1/s"),
            "models_per_s": (len(models) / build_wall, "1/s"),
            "build_peak_rss_mb": (timed.rss["build"][0], "MB"),
            "sym_preds_per_s": (sym_raw / speed, "1/s"),
            "sym_peak_rss_mb": (statistics.median(timed.rss["eval-sym"]), "MB"),
            "normal_images_per_s": (normals_raw / speed, "1/s"),
            "normal_peak_rss_mb": (statistics.median(timed.rss["eval-normals"]), "MB"),
        }
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination signal unwinds like an error: children are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "symnorm" / "cli.py").is_file():
        print(f"error: no symnorm sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(work, started)
    try:
        values, lines = benchmark(run, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.monotonic() - started:.1f}s")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("\n".join(lines + run.notes))
    for name, (value, unit) in values.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
