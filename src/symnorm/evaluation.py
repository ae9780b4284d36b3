"""Scoring: detection-style AP for symmetry orientations, surface-normal
error metrics and per-category aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import util
from .errors import NoForegroundError, UndefinedAPError
from .orientation import OrientationCodebook, sym_angle_deg, unit_mask, unit_rows
from .render import NormalMap, foreground_mask

GP_THRESHOLDS_DEG = (11.25, 22.5, 30.0)
CURVE_MAX_DEG = 30


def bad_prediction_row(table):
    """(row, reason) for the first row of an (n, 4) prediction table that is
    not a unit orientation (within 1e-6) then a confidence in [0, 1], or None.

    Raises ValueError for any other shape.  Both checks fail NaN, so every
    non-finite value fails one of them."""
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError(f"predictions must form an (n, 4) array, not {table.shape}")
    unit = unit_mask(table[:, :3])
    bad = np.flatnonzero(~(unit & (table[:, 3] >= 0.0) & (table[:, 3] <= 1.0)))
    if not bad.size:
        return None
    row = int(bad[0])
    if not unit[row]:
        return row, "orientation must be finite and unit length"
    return row, "confidence must lie in [0, 1]"


@dataclass(frozen=True)
class PRCurve:
    """Sweep points sorted by ascending recall plus the envelope-integrated AP."""

    points: np.ndarray  # (n, 2): recall, precision
    ap: float

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64)).reshape(-1, 2)
        object.__setattr__(self, "points", util.readonly(pts))


def ap_symmetry(gt_sets, pred_sets, theta_deg: float) -> PRCurve:
    """Detection-style average precision over pooled per-image predictions.

    `pred_sets` holds one (n, 4) array of rows `nx ny nz confidence` per
    image.  Predictions are sorted by descending confidence (ties stable by
    image then input order) and matched greedily within their image to the
    unmatched ground-truth orientation of minimum sign-invariant angle,
    counting a true positive when that angle is at most theta_deg.  AP is
    the all-points integral of the monotone precision envelope.
    """
    if len(gt_sets) != len(pred_sets):
        raise ValueError("ground-truth and prediction image counts disagree")
    gt = [np.asarray(g, dtype=np.float64).reshape(-1, 3) for g in gt_sets]
    total_gt = sum(len(g) for g in gt)
    if total_gt == 0:
        raise UndefinedAPError("no ground-truth orientations: AP is undefined")
    tables = [np.asarray(p, dtype=np.float64) for p in pred_sets]
    for img, table in enumerate(tables):
        bad = bad_prediction_row(table)
        if bad is not None:
            raise ValueError(f"image {img}: prediction {bad[0]}: {bad[1]}")
    # greedy matching within an image depends only on its own confidence
    # order, so hits are found image by image; concatenation lists them by
    # image then input order, which the stable sort keeps among ties
    hits = np.concatenate([_greedy_hits(g, t, theta_deg) for g, t in zip(gt, tables)])
    confidence = np.concatenate([t[:, 3] for t in tables])
    tp = np.cumsum(hits[np.argsort(-confidence, kind="stable")])
    recall, precision = tp / total_gt, tp / np.arange(1, len(tp) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    # recall never decreases; cumsum adds the rectangles in order, as a loop would
    ap = float(np.cumsum(np.diff(recall, prepend=0.0) * envelope)[-1]) if len(tp) else 0.0
    return PRCurve(np.column_stack([recall, precision]), ap)


def _greedy_hits(gt: np.ndarray, table: np.ndarray, theta_deg: float) -> np.ndarray:
    """True-positive flag of each prediction of one image, in input order."""
    hits = np.zeros(len(table), dtype=bool)
    matched = np.zeros(len(gt), dtype=bool)
    for i in np.argsort(-table[:, 3], kind="stable"):
        free = np.flatnonzero(~matched)
        if not free.size:
            break
        angles = sym_angle_deg(gt[free], table[i, :3])
        best = int(np.argmin(angles))
        if angles[best] <= theta_deg:
            matched[free[best]] = True
            hits[i] = True
    return hits


def random_baseline(codebook: OrientationCodebook, images: int, seed: int):
    """Per image, one (K, 4) array of rows `nx ny nz confidence`: every codebook
    direction with a confidence i.i.d. uniform in [0, 1]."""
    rng = np.random.default_rng(seed)
    directions = unit_rows(codebook.directions)
    return [np.column_stack([directions, rng.random(codebook.K)]) for _ in range(images)]


def check_map_pair(gt_size, pred_size, foreground_pixels: int) -> None:
    """Raise unless the (h, w) sizes of a ground truth and a prediction match
    and the ground truth's foreground holds a pixel, in that order."""
    if tuple(gt_size) != tuple(pred_size):
        raise ValueError("normal map dimensions disagree")
    if not foreground_pixels:
        raise NoForegroundError("ground-truth mask is empty")


def pixel_errors_deg(gt_normals, pred_normals) -> np.ndarray:
    """Angular error at each ground-truth foreground pixel, from the (n, 3)
    ground-truth normals there and the prediction's at the same pixels.

    A prediction claiming background there (the zero vector) counts as 180
    degrees, so predicting background everywhere cannot win.
    """
    gt = np.asarray(gt_normals, dtype=np.float64)
    pred = np.asarray(pred_normals, dtype=np.float64)
    dots = np.einsum("ij,ij->i", gt, pred)
    errors = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
    errors[~foreground_mask(pred)] = 180.0
    return errors


@dataclass(frozen=True)
class NormalMetrics:
    mean_err_deg: float
    median_err_deg: float
    gp_11_25: float
    gp_22_5: float
    gp_30: float
    curve: np.ndarray  # (31, 2): threshold_deg, fraction of pixels within it
    auc_30: float

    def __post_init__(self):
        curve = np.ascontiguousarray(np.asarray(self.curve, dtype=np.float64))
        object.__setattr__(self, "curve", util.readonly(curve))


def metrics_from_errors(errors_deg) -> NormalMetrics:
    """Five-number normal metrics from a flat vector of per-pixel errors."""
    return _sorted_metrics(np.sort(np.asarray(errors_deg, dtype=np.float64).reshape(-1)))


def _sorted_metrics(errors) -> NormalMetrics:
    """metrics_from_errors of a flat float64 vector already sorted ascending."""
    n = len(errors)
    if n == 0:
        raise NoForegroundError("no pixel errors to aggregate")
    mean = float(errors.mean())
    median = float(errors[(n - 1) // 2])  # lower middle for even counts
    # sorted, so the count within a threshold is its right insertion point
    gp = (np.searchsorted(errors, GP_THRESHOLDS_DEG, side="right") / n).tolist()
    thresholds = np.arange(CURVE_MAX_DEG + 1, dtype=np.float64)
    fractions = np.searchsorted(errors, thresholds, side="right") / n
    curve = np.column_stack([thresholds, fractions])
    auc = float(np.trapezoid(fractions, thresholds) / CURVE_MAX_DEG)
    return NormalMetrics(mean, median, gp[0], gp[1], gp[2], curve, auc)


def normal_metrics(gt: NormalMap, pred: NormalMap) -> NormalMetrics:
    check_map_pair(gt.mask.shape, pred.mask.shape, np.count_nonzero(gt.mask))
    return metrics_from_errors(pixel_errors_deg(gt.normals[gt.mask], pred.normals[gt.mask]))


def aggregate_by_category(errors_by_category):
    """Pixel-pooled metrics per category, in sorted order, plus the unweighted
    macro average, from a mapping of each category to an iterable of its
    per-image foreground pixel errors.

    The iterables may be lazy: one category is drawn, pooled and scored before
    the next is touched, so at most two copies of one category's errors, the
    per-image arrays and their concatenation, are held at once.  A category
    that yields no image, an empty list or an exhausted iterator alike, is
    left out of the result and of the macro average; when none yields an
    image, NoForegroundError is raised."""
    per_category = {}
    for category in sorted(errors_by_category):
        chunks = [np.asarray(e, dtype=np.float64).reshape(-1) for e in errors_by_category[category]]
        if not chunks:
            continue
        pooled = np.concatenate(chunks)
        del chunks
        # in place: a sorted copy would be a third allocation wherever malloc
        # keeps the freed per-image arrays
        pooled.sort()
        per_category[category] = _sorted_metrics(pooled)
        del pooled  # before the next category is drawn
    if not per_category:
        raise NoForegroundError("no pixel errors to aggregate")
    metrics = list(per_category.values())
    curve = np.mean([m.curve for m in metrics], axis=0)
    macro = NormalMetrics(
        float(np.mean([m.mean_err_deg for m in metrics])),
        float(np.mean([m.median_err_deg for m in metrics])),
        float(np.mean([m.gp_11_25 for m in metrics])),
        float(np.mean([m.gp_22_5 for m in metrics])),
        float(np.mean([m.gp_30 for m in metrics])),
        curve,
        float(np.mean([m.auc_30 for m in metrics])),
    )
    return per_category, macro
