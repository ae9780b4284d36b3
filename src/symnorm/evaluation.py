"""Scoring: sign-invariant angular distance, detection-style AP for symmetry
orientations, surface-normal error metrics and per-category aggregation."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import util
from .errors import NoForegroundError, UndefinedAPError
from .orientation import OrientationCodebook, sym_angle_deg
from .render import NormalMap

GP_THRESHOLDS_DEG = (11.25, 22.5, 30.0)
CURVE_MAX_DEG = 30


def angular_distance_sym(a, b) -> float:
    """Angle between unoriented unit directions: arccos(|a.b|), in [0, 90]."""
    va = np.asarray(a, dtype=np.float64).reshape(3)
    vb = np.asarray(b, dtype=np.float64).reshape(3)
    for v in (va, vb):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-6:
            raise ValueError("directions must be unit length")
    return float(sym_angle_deg(va, vb))


@dataclass(frozen=True)
class SymmetryPrediction:
    """Predicted plane orientation with a confidence in [0, 1]."""

    orientation: np.ndarray
    confidence: float

    def __post_init__(self):
        v = np.asarray(self.orientation, dtype=np.float64).reshape(3).copy()
        length = float(np.linalg.norm(v))
        if abs(length - 1.0) > 1e-6:
            raise ValueError("prediction orientation must be unit length")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        object.__setattr__(self, "orientation", util.readonly(v / length))
        object.__setattr__(self, "confidence", float(self.confidence))


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

    Predictions are sorted by descending confidence (ties stable by image
    then input order) and matched greedily within their image to the
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
    entries = []
    for img, preds in enumerate(pred_sets):
        for order, pred in enumerate(preds):
            entries.append((-pred.confidence, img, order, pred))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    matched = [np.zeros(len(g), dtype=bool) for g in gt]
    tp = fp = 0
    points = []
    for _, img, _, pred in entries:
        free = np.flatnonzero(~matched[img])
        hit = -1
        if free.size:
            angles = sym_angle_deg(gt[img][free], pred.orientation)
            best = int(np.argmin(angles))
            if angles[best] <= theta_deg:
                hit = int(free[best])
        if hit >= 0:
            matched[img][hit] = True
            tp += 1
        else:
            fp += 1
        points.append((tp / total_gt, tp / (tp + fp)))
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return PRCurve(pts, _envelope_ap(pts))


def _envelope_ap(points: np.ndarray) -> float:
    if len(points) == 0:
        return 0.0
    recall = points[:, 0]
    envelope = np.maximum.accumulate(points[::-1, 1])[::-1]
    ap = 0.0
    prev = 0.0
    for r, p in zip(recall, envelope):
        if r > prev:
            ap += (r - prev) * p
            prev = r
    return float(ap)


def random_baseline(codebook: OrientationCodebook, images: int, seed: int):
    """Every codebook direction per image, confidences i.i.d. uniform [0, 1]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(images):
        confidences = rng.random(codebook.K)
        out.append([SymmetryPrediction(d, float(c))
                    for d, c in zip(codebook.directions, confidences)])
    return out


def pixel_errors_deg(gt: NormalMap, pred: NormalMap) -> np.ndarray:
    """Per-pixel angular error over the ground-truth foreground.

    A prediction claiming background where the ground truth is foreground
    counts as 180 degrees, so predicting background everywhere cannot win.
    """
    if gt.normals.shape != pred.normals.shape:
        raise ValueError("normal map dimensions disagree")
    fg = gt.mask
    if not fg.any():
        raise NoForegroundError("ground-truth mask is empty")
    dots = np.einsum("ij,ij->i", gt.normals[fg], pred.normals[fg])
    errors = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
    errors[~pred.mask[fg]] = 180.0
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
    errors = np.sort(np.asarray(errors_deg, dtype=np.float64).reshape(-1))
    n = len(errors)
    if n == 0:
        raise NoForegroundError("no pixel errors to aggregate")
    mean = float(errors.mean())
    median = float(errors[(n - 1) // 2])  # lower middle for even counts
    gp = [float((errors <= t).mean()) for t in GP_THRESHOLDS_DEG]
    thresholds = np.arange(CURVE_MAX_DEG + 1, dtype=np.float64)
    fractions = np.searchsorted(errors, thresholds, side="right") / n
    curve = np.column_stack([thresholds, fractions])
    auc = float(np.trapezoid(fractions, thresholds) / CURVE_MAX_DEG)
    return NormalMetrics(mean, median, gp[0], gp[1], gp[2], curve, auc)


def normal_metrics(gt: NormalMap, pred: NormalMap) -> NormalMetrics:
    return metrics_from_errors(pixel_errors_deg(gt, pred))


@dataclass(frozen=True)
class InstanceErrors:
    """Per-image foreground pixel errors tagged with the image's category."""

    category: str
    errors_deg: np.ndarray


def aggregate_by_category(records, known_categories=None):
    """Pixel-pooled metrics per category plus the unweighted macro average."""
    records = list(records)
    if known_categories is not None:
        unknown = sorted({r.category for r in records} - set(known_categories))
        if unknown:
            raise ValueError(f"unknown categories: {', '.join(unknown)}")
    if not records:
        raise ValueError("no records to aggregate")
    pooled = defaultdict(list)
    for r in records:
        pooled[r.category].append(np.asarray(r.errors_deg, dtype=np.float64).reshape(-1))
    per_category = {c: metrics_from_errors(np.concatenate(chunks))
                    for c, chunks in sorted(pooled.items())}
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
