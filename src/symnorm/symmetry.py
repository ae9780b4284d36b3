"""Global reflection-symmetry plane detection for triangle meshes.

Pipeline: uniform surface sampling -> point-pair voting for plane hypotheses
-> greedy vote clustering -> ICP refinement of each hypothesis with a
closed-form reflection refit -> residual-based rejection -> duplicate
suppression.  A plane is stored as (n, b) with the plane set {x : n.x = b};
normals are sign-canonicalized so detection output is orientation-unique.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import util
from .errors import (
    DegenerateCorrespondencesError,
    InsufficientGeometryError,
    RefinementDivergedError,
)
from .mesh_io import SurfaceSamples, TriangleMesh, sample_surface
from .orientation import canonical_sign, sym_angle_deg

UNSCORED = float("inf")


@dataclass(frozen=True)
class SymmetryPlane:
    """Unit normal n, offset b and a bbox-normalized fit residual."""

    normal: np.ndarray
    offset: float
    residual: float = UNSCORED

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3).copy()
        length = float(np.linalg.norm(n))
        if not np.isfinite(length) or abs(length - 1.0) > 1e-6:
            raise ValueError("plane normal must be unit length")
        n /= length
        canon = canonical_sign(n)
        b = float(self.offset)
        if float(canon @ n) < 0.0:
            b = -b  # flipping the normal names the same plane with negated offset
        if not self.residual >= 0.0:
            raise ValueError("residual must be nonnegative")
        object.__setattr__(self, "normal", util.readonly(canon))
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "residual", float(self.residual))


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs of the detection pipeline; angle thresholds are in degrees,
    fractional thresholds are in units of the mesh bbox diagonal."""

    sample_count: int = 4000
    pair_count: int = 20000
    cluster_angle_deg: float = 10.0
    cluster_offset_frac: float = 0.05
    max_hypotheses: int = 32
    icp_max_iters: int = 30
    icp_converge_deg: float = 0.1
    icp_reject_frac: float = 0.05
    accept_residual: float = 0.02
    dedupe_angle_deg: float = 10.0
    seed: int = 0

    def __post_init__(self):
        positive = (
            self.sample_count, self.pair_count, self.cluster_angle_deg,
            self.cluster_offset_frac, self.max_hypotheses, self.icp_max_iters,
            self.icp_converge_deg, self.icp_reject_frac, self.accept_residual,
            self.dedupe_angle_deg,
        )
        if any(not v > 0 for v in positive):
            raise ValueError("all detector thresholds must be strictly positive")
        if self.cluster_angle_deg >= 90.0 or self.dedupe_angle_deg >= 90.0:
            raise ValueError("clustering and dedupe angles must be below 90 degrees")


def reflect_points(points, plane: SymmetryPlane) -> np.ndarray:
    """Mirror points across the plane: p - 2 (n.p - b) n."""
    pts = np.asarray(points, dtype=np.float64)
    dist = pts @ plane.normal - plane.offset
    return pts - 2.0 * dist[..., None] * plane.normal


def reflect_point(point, plane: SymmetryPlane) -> np.ndarray:
    return reflect_points(np.asarray(point, dtype=np.float64).reshape(3), plane)


# A pair can only witness a reflection if that reflection maps its first
# point's surface normal onto the second's; pairs violating this within the
# tolerance below are pruned before voting (sign-invariant, so inconsistent
# mesh winding is tolerated).
PAIR_NORMAL_TOL_DEG = 15.0


def generate_hypotheses(samples: SurfaceSamples, config: DetectorConfig) -> list[SymmetryPlane]:
    """Vote planes from random point pairs and cluster the votes greedily.

    Each ordered pair (p, q) with reflection-compatible surface normals
    votes the unique plane reflecting p onto q: normal along p - q
    (canonicalized) through the midpoint.  Votes are processed densest
    neighborhood first and join the best existing cluster within the angle
    and offset tolerances, else open a new one; the most-voted
    max_hypotheses cluster means are returned, largest first.
    """
    pts = samples.points
    nrm = samples.normals
    min_sep = 1e-6 * samples.bbox_diagonal
    if len(pts) < 2 or not (np.linalg.norm(pts - pts[0], axis=1) > min_sep).any():
        raise InsufficientGeometryError("need at least two distinct sample points")
    rng = util.derive_rng(config.seed, "pair-votes")
    want = config.pair_count
    consistency = np.cos(np.radians(PAIR_NORMAL_TOL_DEG))
    p_idx = np.empty(want, dtype=np.int64)
    q_idx = np.empty(want, dtype=np.int64)
    got = 0
    for _ in range(64):
        draw = rng.integers(0, len(pts), size=(2, want))
        d = pts[draw[0]] - pts[draw[1]]
        sep = np.linalg.norm(d, axis=1)
        valid = sep > min_sep
        axis = np.where(valid, sep, 1.0)[:, None]
        axis = d / axis
        n_p = nrm[draw[0]]
        mirrored = n_p - 2.0 * np.einsum("ij,ij->i", n_p, axis)[:, None] * axis
        valid &= np.abs(np.einsum("ij,ij->i", mirrored, nrm[draw[1]])) >= consistency
        take = min(want - got, int(valid.sum()))
        sel = np.flatnonzero(valid)[:take]
        p_idx[got:got + take] = draw[0][sel]
        q_idx[got:got + take] = draw[1][sel]
        got += take
        if got == want:
            break
    if got < want:
        raise InsufficientGeometryError("could not draw enough reflection-compatible point pairs")
    p, q = pts[p_idx], pts[q_idx]
    diff = p - q
    normals = canonical_sign(diff / np.linalg.norm(diff, axis=1, keepdims=True))
    offsets = np.einsum("ij,ij->i", normals, 0.5 * (p + q))
    order = _density_order(normals, offsets, config, samples.bbox_diagonal)
    return _cluster_votes(normals[order], offsets[order], config, samples.bbox_diagonal)


def _density_order(normals, offsets, config, bbox_diagonal):
    """Deterministic processing order: densest vote neighborhoods first.

    Seeding clusters at vote-density peaks instead of at whatever vote was
    drawn first parks cluster means on the true planes; the ball radius
    0.1 spans about 5.7 degrees in normal space and the matching slice of
    the cluster offset window.
    """
    scale = 0.1 / (config.cluster_offset_frac * bbox_diagonal)
    embedded = np.column_stack([normals, offsets * scale])
    # count in the +/- doubled cloud so votes straddling the sign-
    # canonicalization boundary see their antipodal twins.  One thread: the
    # count takes about 0.2 s, and a second thread saves at most half of
    # that on an idle host but nothing when another process holds a core
    counts = cKDTree(np.vstack([embedded, -embedded])).query_ball_point(
        embedded, r=0.1, return_length=True)
    return np.argsort(-counts, kind="stable")


def _cluster_votes(normals, offsets, config, bbox_diagonal):
    # membership is sign-invariant: a vote and its negation name the same
    # plane, so votes near the canonicalization boundary must not split
    # into antipodal half-clusters.  Accumulation aligns each vote's sign
    # (and therefore its offset's) with the cluster representative.
    cos_thresh = np.cos(np.radians(config.cluster_angle_deg))
    b_tol = config.cluster_offset_frac * bbox_diagonal
    cap = len(normals)
    reps = np.empty((cap, 3))
    sums = np.empty((cap, 3))
    b_sum = np.empty(cap)
    b_mean = np.empty(cap)
    counts = np.zeros(cap, dtype=np.int64)
    m = 0
    for v, b in zip(normals, offsets):
        if m:
            dots = reps[:m] @ v
            signs = np.where(dots < 0.0, -1.0, 1.0)
            ok = (np.abs(dots) >= cos_thresh) & (np.abs(b_mean[:m] - signs * b) <= b_tol)
            if ok.any():
                # join the closest qualifying cluster (first one on exact ties)
                j = int(np.argmax(np.where(ok, np.abs(dots), -2.0)))
                sums[j] += signs[j] * v
                b_sum[j] += signs[j] * b
                counts[j] += 1
                reps[j] = sums[j] / np.linalg.norm(sums[j])
                b_mean[j] = b_sum[j] / counts[j]
                continue
        reps[m] = v
        sums[m] = v
        b_sum[m] = b
        b_mean[m] = b
        counts[m] = 1
        m += 1
    order = np.argsort(-counts[:m], kind="stable")[: config.max_hypotheses]
    planes = []
    for j in order:
        mean = sums[j] / np.linalg.norm(sums[j])
        canon = canonical_sign(mean)
        b = float(b_mean[j]) if float(canon @ mean) >= 0.0 else -float(b_mean[j])
        planes.append(SymmetryPlane(canon, b))
    return planes


def score_plane(samples: SurfaceSamples, plane: SymmetryPlane, tree: cKDTree | None = None,
                query_workers: int = -1) -> float:
    """Mean nearest-neighbor distance of the reflected samples / bbox diagonal."""
    if len(samples) == 0:
        raise ValueError("cannot score a plane against zero samples")
    if tree is None:
        tree = cKDTree(samples.points)
    dists, _ = tree.query(reflect_points(samples.points, plane), workers=query_workers)
    return float(dists.mean() / samples.bbox_diagonal)


def refine_plane_icp(samples: SurfaceSamples, plane: SymmetryPlane, config: DetectorConfig,
                     return_history: bool = False, tree: cKDTree | None = None,
                     query_workers: int = -1):
    """ICP between original and reflected samples with a closed-form refit.

    Per iteration: reflect all points, match each reflected point to its
    nearest original, reject matches beyond icp_reject_frac * diagonal, then
    refit the plane from correspondences (p, q): the new normal is the
    principal eigenvector of sum(d d^T) over displaced pairs d = p - q, the
    new offset places the plane through the mean midpoint.  Iteration stops
    early once the normal rotates less than icp_converge_deg; every iterate
    is scored (the matching pass provides the residual for free) and the
    best-scoring plane is returned, so the accepted-state residual history
    never increases and the result is never worse than the input hypothesis.
    """
    pts = samples.points
    if len(pts) == 0:
        raise ValueError("cannot refine a plane against zero samples")
    diag = samples.bbox_diagonal
    if tree is None:
        tree = cKDTree(pts)
    reject = config.icp_reject_frac * diag
    min_disp = 1e-6 * diag
    current = plane
    best = None
    best_residual = np.inf
    history = []
    for iteration in range(config.icp_max_iters):
        dists, idx = tree.query(reflect_points(pts, current), workers=query_workers)
        residual = float(dists.mean() / diag)
        if residual < best_residual:
            best, best_residual = current, residual
        # accepted-state residuals: nonincreasing by construction
        history.append(best_residual)
        keep = dists <= reject
        if not keep.any():
            if iteration == 0:
                raise RefinementDivergedError("every correspondence exceeded the rejection radius")
            break
        p = pts[keep]
        q = pts[idx[keep]]
        d = p - q
        strong = np.linalg.norm(d, axis=1) > min_disp
        if int(strong.sum()) < 3:
            if iteration == 0:
                raise DegenerateCorrespondencesError("fewer than three displaced correspondences")
            break
        ds = d[strong]
        _, vecs = np.linalg.eigh(ds.T @ ds)
        normal = canonical_sign(vecs[:, -1])
        offset = float(normal @ (0.5 * (p + q)).mean(axis=0))
        step_deg = sym_angle_deg(normal, current.normal)
        current = SymmetryPlane(normal, offset)
        if step_deg < config.icp_converge_deg:
            break
    final_residual = score_plane(samples, current, tree=tree, query_workers=query_workers)
    if final_residual < best_residual:
        best, best_residual = current, final_residual
    history.append(best_residual)
    refined = SymmetryPlane(best.normal, best.offset, best_residual)
    return (refined, history) if return_history else refined


def dedupe_planes(planes, angle_deg: float) -> list[SymmetryPlane]:
    """Keep best-residual planes first, dropping any within angle_deg of a kept one."""
    order = sorted(range(len(planes)), key=lambda i: planes[i].residual)
    kept: list[SymmetryPlane] = []
    for i in order:
        candidate = planes[i]
        if all(sym_angle_deg(candidate.normal, k.normal) > angle_deg for k in kept):
            kept.append(candidate)
    return kept


def detect_symmetries(mesh: TriangleMesh, config: DetectorConfig | None = None) -> list[SymmetryPlane]:
    """Full pipeline; returns deduped planes with residual <= accept_residual.

    An empty list (no error) means no plane passed acceptance.  Hypothesis
    refinements are independent and their results are collected in
    hypothesis order, so output is identical to the sequential pipeline.
    They run on this thread while each converges at its first iteration
    (two KD-tree queries, about 20 ms): a whole pass of those takes well
    under a second, a second thread saves little of it, and that little
    comes and goes with the load on the other core.  From the first
    refinement that iterates on, the rest run on a thread pool (the KD-tree
    queries release the GIL), where each can take up to icp_max_iters
    queries.
    """
    cfg = config if config is not None else DetectorConfig()
    samples = sample_surface(mesh, cfg.sample_count, cfg.seed)
    hypotheses = generate_hypotheses(samples, cfg)
    tree = cKDTree(samples.points)

    def refine(hypothesis):
        """(refined plane or None, ICP iterations run)."""
        try:
            plane, history = refine_plane_icp(samples, hypothesis, cfg, return_history=True,
                                              tree=tree, query_workers=1)
        except (RefinementDivergedError, DegenerateCorrespondencesError):
            return None, 0
        return plane, len(history) - 1  # one entry per iteration, plus the final rescoring

    refined = []
    for k, hypothesis in enumerate(hypotheses):
        plane, iterations = refine(hypothesis)
        refined.append(plane)
        rest = hypotheses[k + 1:]
        workers = min(len(rest), os.cpu_count() or 1)
        if iterations > 1 and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                refined += [result for result, _ in pool.map(refine, rest)]
            break
    accepted = [p for p in refined if p is not None and p.residual <= cfg.accept_residual]
    return dedupe_planes(accepted, cfg.dedupe_angle_deg)


def write_planes(path, planes, comments=()) -> None:
    """One plane per line: nx ny nz b residual, '#' comment lines allowed."""
    lines = [f"# {c}" for c in comments]
    for p in planes:
        nx, ny, nz = p.normal
        lines.append(f"{nx:.12e} {ny:.12e} {nz:.12e} {p.offset:.12e} {p.residual:.12e}")
    util.atomic_write_text(path, "\n".join(lines) + "\n")


def read_planes(path) -> list[SymmetryPlane]:
    planes = []
    with util.open_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            nx, ny, nz, b, residual = (float(tok) for tok in line.split())
            planes.append(SymmetryPlane(np.array([nx, ny, nz]), b, residual))
    return planes
