"""Command-line surface: detect, render, build, eval-sym, eval-normals, baseline.

Exit codes: 0 success, 1 internal error, 2 input/parse error, 3 geometry or
degenerate-data error.  Reports are written both human-readable (.txt) and
tab-separated (.tsv); plot data is emitted as CSV.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import evaluation, imgfmt, util
from .config import RunConfig
from .dataset import build_manifest, read_manifest, record_image_id
from .errors import GeometryError, InputError, NoForegroundError, SymnormError
from .mesh_io import parse_obj_file
from .orientation import VIEW_DISTRIBUTIONS, OrientationCodebook, ViewPose, unit_rows
from .render import (
    LABEL_MAP_SUFFIX,
    NORMAL_MAP_SUFFIX,
    check_foreground_normals,
    check_labels,
    discretize_normal_map,
    pixels_at,
    rasterize,
    read_normal_pixels,
    save_label_map,
    save_normal_map,
)
# not called here: perfbench/replay.py wraps these names on this module
from .render import labels_to_normals, load_label_map, load_normal_map  # noqa: F401
from .symmetry import detect_symmetries, write_planes

logger = logging.getLogger(__name__)


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults) overridden by every flag named like a key."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    keys = {f.name for f in fields(RunConfig)}
    return cfg.merged(**{k: v for k, v in vars(args).items() if k in keys})


def cmd_detect(args, cfg: RunConfig) -> int:
    mesh = parse_obj_file(args.obj)
    planes = detect_symmetries(mesh, cfg)
    write_planes(args.out, planes, comments=[
        f"accept_residual {cfg.accept_residual}",
        f"seed {cfg.seed}",
        "columns: nx ny nz offset residual",
    ])
    print(f"{len(planes)} symmetry plane(s) -> {args.out}")
    return 0


def cmd_render(args, cfg: RunConfig) -> int:
    try:
        pose = ViewPose(args.az, args.el, args.cyclo)
    except ValueError as exc:
        raise InputError(f"bad pose: {exc}") from None
    mesh = parse_obj_file(args.obj)
    nm = rasterize(mesh, pose, cfg)
    lm = discretize_normal_map(nm, cfg.normal_codebook())
    normal_path, depth_path = save_normal_map(args.out, nm)
    label_path = f"{args.out}{LABEL_MAP_SUFFIX}"
    save_label_map(label_path, lm)
    print(f"wrote {normal_path}, {depth_path}, {label_path}")
    return 0


def cmd_build(args, cfg: RunConfig) -> int:
    records, manifest_path = build_manifest(args.corpus_root, args.out_dir, cfg)
    print(f"{len(records)} records -> {manifest_path}")
    return 0


def read_predictions(path):
    """Tab-separated `image_id nx ny nz confidence` lines as a dict from image id
    to its (n, 4) array of those rows, in file order, orientations normalized."""
    rows_of, values, linenos = defaultdict(list), [], []
    with util.open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise InputError(f"{path}: line {lineno}: expected 5 tab-separated fields")
            try:
                values.extend(map(float, parts[1:]))
            except ValueError:
                raise InputError(f"{path}: line {lineno}: bad numeric field") from None
            rows_of[parts[0]].append(len(linenos))
            linenos.append(lineno)
    table = np.array(values, dtype=np.float64).reshape(-1, 4)
    bad = evaluation.bad_prediction_row(table)
    if bad is not None:
        raise InputError(f"{path}: line {linenos[bad[0]]}: {bad[1]}")
    table[:, :3] = unit_rows(table[:, :3])
    return {image_id: table[index] for image_id, index in rows_of.items()}


def write_predictions(path, image_ids, per_image_predictions) -> None:
    """One line per row of each image's (n, 4) prediction array."""
    lines = []
    for image_id, table in zip(image_ids, per_image_predictions):
        for nx, ny, nz, confidence in table.tolist():
            lines.append(f"{image_id}\t{nx!r}\t{ny!r}\t{nz!r}\t{confidence!r}")
    util.atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_eval_sym(args, cfg: RunConfig) -> int:
    meta, records = read_manifest(args.gt_manifest)
    codebook = meta["codebook"]
    predictions = read_predictions(args.predictions)
    known = {record_image_id(r) for r in records}
    stray = sorted(set(predictions) - known)
    if stray:
        raise InputError(f"predictions reference unknown image ids: {', '.join(stray[:5])}")
    by_category = defaultdict(lambda: ([], []))
    for r in records:
        gts, preds = by_category[r.category]
        gts.append(codebook.directions[np.flatnonzero(r.symmetry_label)])
        preds.append(predictions.get(record_image_id(r), np.empty((0, 4))))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, empty = [], []
    for category in sorted(by_category):
        gts, preds = by_category[category]
        n_gt = sum(len(g) for g in gts)
        n_pred = sum(len(p) for p in preds)
        if n_gt == 0:
            empty.append(category)
            continue
        curve = evaluation.ap_symmetry(gts, preds, cfg.theta_deg)
        rows.append((category, curve.ap, n_gt, n_pred))
        csv = "recall,precision\n" + "".join(f"{float(r)!r},{float(p)!r}\n" for r, p in curve.points)
        util.atomic_write_text(out_dir / f"{category}_pr.csv", csv)
    if empty:
        logger.warning("category has no ground-truth planes, skipped (%d of %d): %s",
                       len(empty), len(by_category), ", ".join(empty))
    if not rows:
        raise InputError("no category had ground-truth planes")
    macro = float(np.mean([ap for _, ap, _, _ in rows]))
    tsv = ["category\tap\tn_gt\tn_pred"]
    txt = [f"symmetry AP at theta={cfg.theta_deg} deg"]
    for category, ap, n_gt, n_pred in rows:
        tsv.append(f"{category}\t{ap!r}\t{n_gt}\t{n_pred}")
        txt.append(f"  {category:24s} AP {ap:.4f}  ({n_gt} gt, {n_pred} pred)")
    tsv.append(f"macro\t{macro!r}\t\t")
    txt.append(f"  {'macro':24s} AP {macro:.4f}")
    util.atomic_write_text(out_dir / "report.tsv", "\n".join(tsv) + "\n")
    util.atomic_write_text(out_dir / "report.txt", "\n".join(txt) + "\n")
    print("\n".join(txt))
    return 0


def _prediction_map(pred_dir: Path, image_id: str, codebook):
    """An image's validated prediction: its (h, w) label map, which takes
    precedence, or else its (h, w, 3) normal map (see read_normal_pixels).
    Each codebook row that a label map uses is checked once, as a predicted
    normal."""
    pgm = pred_dir / f"{image_id}{LABEL_MAP_SUFFIX}"
    if pgm.is_file():
        labels = imgfmt.read_pgm16(pgm)
        check_labels(labels, codebook.K)
        used = np.bincount(labels.reshape(-1), minlength=codebook.K + 1)[:codebook.K] > 0
        check_foreground_normals(codebook.directions[used])
        return labels
    pfm = pred_dir / f"{image_id}{NORMAL_MAP_SUFFIX}"
    if pfm.is_file():
        return read_normal_pixels(pfm)[0]
    raise InputError(f"no prediction found for {image_id} under {pred_dir}")


def _image_errors(gt_path, pred_dir: Path, image_id: str, codebook) -> np.ndarray:
    """One image's per-pixel errors over its ground-truth foreground.  Its
    checks run in this order: the ground truth's non-zero pixels, the
    prediction's (all of them, not only those on that foreground), the map
    sizes, then the foreground's emptiness."""
    gt, gt_mask = read_normal_pixels(gt_path)
    pred = _prediction_map(pred_dir, image_id, codebook)
    evaluation.check_map_pair(gt_mask, pred.shape[:2])
    pred_fg = pixels_at(pred, gt_mask)
    if pred.ndim == 2:
        # a label's direction; the background label K looks up the zero vector
        pred_fg = np.vstack([codebook.directions, np.zeros((1, 3))])[pred_fg]
    return evaluation.pixel_errors_deg(pixels_at(gt, gt_mask), pred_fg)


def cmd_eval_normals(args, cfg: RunConfig) -> int:
    meta, records = read_manifest(args.gt_manifest)
    codebook = meta["normal_codebook"]
    manifest_dir = Path(args.gt_manifest).parent
    pred_dir = Path(args.pred_dir)
    rows_by_category = defaultdict(list)
    for row, r in enumerate(records):
        rows_by_category[r.category].append(row)
    skipped = []  # (manifest row, image id, reason)

    def scored_errors(rows):
        """Each scored image's errors in turn; a skipped image is noted instead."""
        for row in rows:
            r = records[row]
            image_id = record_image_id(r)
            try:
                errors = _image_errors(manifest_dir / r.normal_map_path, pred_dir, image_id, codebook)
            except (SymnormError, ValueError) as exc:
                skipped.append((row, image_id, str(exc)))
                continue
            yield errors

    # aggregation draws one category's images at a time, so only that
    # category's errors are held
    try:
        per_category, macro = evaluation.aggregate_by_category(
            {category: scored_errors(rows) for category, rows in rows_by_category.items()})
    except NoForegroundError:
        raise InputError("no evaluable images") from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "category\tmean_err_deg\tmedian_err_deg\tgp_11_25\tgp_22_5\tgp_30\tauc_30"
    tsv = [header]
    txt = ["surface-normal metrics (degrees / fractions)"]
    for category, m in list(per_category.items()) + [("macro", macro)]:
        tsv.append(f"{category}\t{m.mean_err_deg!r}\t{m.median_err_deg!r}"
                   f"\t{m.gp_11_25!r}\t{m.gp_22_5!r}\t{m.gp_30!r}\t{m.auc_30!r}")
        txt.append(f"  {category:24s} mean {m.mean_err_deg:7.2f}  median {m.median_err_deg:7.2f}"
                   f"  GP {m.gp_11_25 * 100:5.1f}/{m.gp_22_5 * 100:5.1f}/{m.gp_30 * 100:5.1f}"
                   f"  AUC {m.auc_30:.4f}")
        if category != "macro":
            csv = "threshold_deg,fraction\n" + "".join(
                f"{float(t)!r},{float(f)!r}\n" for t, f in per_category[category].curve)
            util.atomic_write_text(out_dir / f"{category}_gp_curve.csv", csv)
    for _, image_id, reason in sorted(skipped):
        txt.append(f"  skipped {image_id}: {reason}")
    util.atomic_write_text(out_dir / "report.tsv", "\n".join(tsv) + "\n")
    util.atomic_write_text(out_dir / "report.txt", "\n".join(txt) + "\n")
    print("\n".join(txt))
    return 2 if skipped else 0


def cmd_baseline(args, cfg: RunConfig) -> int:
    if args.baseline_k is not None and args.baseline_k < 1:
        raise InputError("--codebook-k must be at least 1")
    meta, records = read_manifest(args.gt_manifest)
    codebook = meta["codebook"]
    if args.baseline_k is not None:
        codebook = OrientationCodebook(args.baseline_k, codebook.support)
    image_ids = [record_image_id(r) for r in records]
    predictions = evaluation.random_baseline(codebook, len(image_ids), cfg.seed)
    write_predictions(args.out, image_ids, predictions)
    print(f"{len(image_ids) * codebook.K} baseline predictions -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symnorm",
        description="Reflection-symmetry extraction, normal-map ground truth "
                    "and detection-style evaluation for triangle meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--seed", type=int, default=None, help=f"root seed (default {RunConfig.seed})")

    p = sub.add_parser("detect", help="extract symmetry planes from an OBJ mesh")
    p.add_argument("obj")
    p.add_argument("--out", required=True, help="output planes file")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("render", help="render normal/depth/label maps for one pose")
    p.add_argument("obj")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--az", type=float, default=0.0)
    p.add_argument("--el", type=float, default=0.0)
    p.add_argument("--cyclo", type=float, default=0.0)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--fov", type=float, default=None, dest="fov_y_deg")
    p.add_argument("--codebook-k", type=int, default=None, dest="normal_codebook_k",
                   help="hemisphere codebook size for the label map "
                        f"(default {RunConfig.normal_codebook_k})")
    common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("build", help="build ground-truth manifest for a corpus")
    p.add_argument("corpus_root")
    p.add_argument("out_dir")
    p.add_argument("--views", type=int, default=None, dest="per_model_views")
    p.add_argument("--view-setting", choices=tuple(VIEW_DISTRIBUTIONS), default=None, dest="view_setting")
    p.add_argument("--max-models", type=int, default=None, dest="max_models_per_category")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval-sym", help="score symmetry predictions against a manifest")
    p.add_argument("gt_manifest")
    p.add_argument("predictions")
    p.add_argument("--theta-deg", type=float, default=None, dest="theta_deg")
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_eval_sym)

    p = sub.add_parser("eval-normals", help="score predicted normal/label maps")
    p.add_argument("gt_manifest")
    p.add_argument("pred_dir")
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_eval_normals)

    p = sub.add_parser("baseline", help="emit the uninformed random baseline")
    p.add_argument("gt_manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--codebook-k", type=int, default=None, dest="baseline_k",
                   help="resize the manifest's symmetry codebook (the codebook_k key does not)")
    common(p)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args))
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SymnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
