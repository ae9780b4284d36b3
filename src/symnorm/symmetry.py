"""Global reflection-symmetry plane detection for triangle meshes.

Pipeline: uniform surface sampling -> point-pair voting for plane hypotheses
-> greedy vote clustering -> ICP refinement of each hypothesis with a
closed-form reflection refit -> residual-based rejection -> duplicate
suppression.  A plane is stored as (n, b) with the plane set {x : n.x = b};
normals are sign-canonicalized so detection output is orientation-unique.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import util
from .config import DetectorConfig
from .errors import (
    DegenerateCorrespondencesError,
    InputError,
    InsufficientGeometryError,
    RefinementDivergedError,
)
from .mesh_io import SurfaceSamples, TriangleMesh, sample_surface
from .orientation import canonical_sign, sym_angle_deg, unit_mask, unit_rows

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

UNSCORED = float("inf")


@dataclass(frozen=True)
class SymmetryPlane:
    """Unit normal n, offset b and a bbox-normalized fit residual."""

    normal: np.ndarray
    offset: float
    residual: float = UNSCORED

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(1, 3)
        if not unit_mask(n)[0]:
            raise ValueError("plane normal must be unit length")
        n = unit_rows(n)[0]
        canon = canonical_sign(n)
        b = float(self.offset)
        if float(canon @ n) < 0.0:
            b = -b  # flipping the normal names the same plane with negated offset
        if not self.residual >= 0.0:
            raise ValueError("residual must be nonnegative")
        object.__setattr__(self, "normal", util.readonly(canon))
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "residual", float(self.residual))


def reflect_points(points, plane: SymmetryPlane) -> np.ndarray:
    """Mirror points across the plane: p - 2 (n.p - b) n."""
    pts = np.asarray(points, dtype=np.float64)
    dist = pts @ plane.normal - plane.offset
    return pts - 2.0 * dist[..., None] * plane.normal


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


def _kd_tree(points):
    # scipy is imported here, not at module level, so that the commands
    # that build no tree (evaluation, rendering) start without loading it
    from scipy.spatial import cKDTree

    return cKDTree(points)


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
    counts = _kd_tree(np.vstack([embedded, -embedded])).query_ball_point(
        embedded, r=0.1, return_length=True)
    return np.argsort(-counts, kind="stable")


CLUSTER_ANGLE_DEG = 10.0  # a vote joins only a cluster whose representative is this close


def _cluster_votes(normals, offsets, config, bbox_diagonal):
    """Greedy clustering of the votes in the order given.

    Each vote joins the qualifying cluster whose representative is closest
    in unoriented angle, the lowest index on exact ties, or else opens a new
    cluster.  Membership is sign-invariant: a vote and its negation name the
    same plane, so votes near the canonicalization boundary must not split
    into antipodal half-clusters.  Each candidate is decided once, in these
    IEEE operations, which `tests/cluster_oracle.py` repeats: the
    representative is the vote itself for a one-vote cluster, else the sum
    over sqrt(x*x + y*y + z*z); the dot product is rx*vx + ry*vy + rz*vz,
    added left to right; a cluster qualifies when |dot| >=
    cos(CLUSTER_ANGLE_DEG) and |mean offset - sign(dot) * b| <=
    cluster_offset_frac * diagonal.  Sums, offset sums and counts are
    accumulated vote by vote.

    Candidates come from a uniform grid whose cell edge is the chord of the
    angle window: a representative within the window lies within one chord
    of v or -v in every coordinate, so each cluster is filed in the 27 cells
    around its representative's and a vote tests the clusters filed at the
    cells of v and -v.
    """
    cos_thresh = float(np.cos(np.radians(CLUSTER_ANGLE_DEG)))
    b_tol = config.cluster_offset_frac * bbox_diagonal
    # widened so that rounding in the dot products and the cell divisions
    # cannot put a representative in the window two cells from v or -v
    edge = math.sqrt(2.0 - 2.0 * cos_thresh) * (1.0 + 1e-6)
    # cell (i, j, k) has the key (i * size + j) * size + k, which is unique
    # while the indices of every cell and its neighbours stay below size / 2
    size = 2 * math.floor(1.0 / edge) + 5
    around = [(dx * size + dy) * size + dz
              for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    grid = {}
    reps, sums, b_sum, b_mean, counts, cells = [], [], [], [], [], []
    # Python floats one chunk at a time: lists of every vote would raise the
    # process's peak memory by more than the whole clustering needs
    for start in range(0, len(normals), 1024):
        chunk = normals[start:start + 1024]
        votes, vote_b = chunk.tolist(), offsets[start:start + 1024].tolist()
        plus = (np.floor(chunk / edge).astype(np.int64) @ [size * size, size, 1]).tolist()
        minus = (np.floor(-chunk / edge).astype(np.int64) @ [size * size, size, 1]).tolist()
        for i, (vx, vy, vz) in enumerate(votes):
            b = vote_b[i]
            best, best_s, best_a = -1, 1.0, 0.0
            near, far = grid.get(plus[i], []), grid.get(minus[i])
            # candidates come in filing order, not index order
            for j in near + far if far else near:
                rx, ry, rz = reps[j]
                d = rx * vx + ry * vy + rz * vz
                s = -1.0 if d < 0.0 else 1.0
                a = abs(d)
                if a >= cos_thresh and abs(b_mean[j] - s * b) <= b_tol \
                        and (a > best_a or (a == best_a and j < best)):
                    best, best_s, best_a = j, s, a
            if best < 0:
                best = len(reps)
                reps.append(votes[i])
                sums.append([vx, vy, vz])
                b_sum.append(b)
                b_mean.append(b)
                counts.append(1)
                cells.append(None)
            else:
                total = sums[best]
                total[0] += best_s * vx
                total[1] += best_s * vy
                total[2] += best_s * vz
                b_sum[best] += best_s * b
                counts[best] += 1
                b_mean[best] = b_sum[best] / counts[best]
                length = math.sqrt(total[0] * total[0] + total[1] * total[1] + total[2] * total[2])
                reps[best] = (total[0] / length, total[1] / length, total[2] / length)
            rx, ry, rz = reps[best]
            key = (math.floor(rx / edge) * size + math.floor(ry / edge)) * size + math.floor(rz / edge)
            if key != cells[best]:  # file the cluster around its new cell
                if cells[best] is not None:
                    for step in around:
                        grid[cells[best] + step].remove(best)
                for step in around:
                    grid.setdefault(key + step, []).append(best)
                cells[best] = key
    order = np.argsort(-np.array(counts), kind="stable")[: config.max_hypotheses]
    means = unit_rows(np.array(sums)[order])
    return [SymmetryPlane(mean, float(b_mean[j])) for mean, j in zip(means, order)]


def score_plane(samples: SurfaceSamples, plane: SymmetryPlane, tree: cKDTree | None = None) -> float:
    """Mean nearest-neighbor distance of the reflected samples / bbox diagonal.

    `tree`, if given, is a cKDTree over samples.points."""
    if len(samples) == 0:
        raise ValueError("cannot score a plane against zero samples")
    if tree is None:
        tree = _kd_tree(samples.points)
    dists, _ = _query_reflected(tree, samples.points, plane)
    return float(dists.mean() / samples.bbox_diagonal)


def _query_reflected(tree, points, plane):
    """`tree.query(reflect_points(points, plane))` for the tree of `points`,
    asked in the tree's leaf order: an isometry keeps neighbouring points
    neighbours, so consecutive queries walk the same branches.  A point's
    nearest neighbour does not depend on the order it is asked in, so the
    distances and indices, scattered back, are the ones a plain query gives."""
    leaf_order = tree.indices
    if len(leaf_order) != len(points):
        raise ValueError("the KD-tree must be built over the points being reflected")
    dists, idx = tree.query(reflect_points(points, plane)[leaf_order])
    out_dists, out_idx = np.empty_like(dists), np.empty_like(idx)
    out_dists[leaf_order] = dists
    out_idx[leaf_order] = idx
    return out_dists, out_idx


# A refinement that does not converge on its first iteration continues on a
# third of the samples, one from each run of ICP_SUBSET_STRIDE consecutive
# points in the tree's leaf order.  A KD query costs about its number of
# points (on 8000 cuboid samples a third of them, asked in leaf order, took
# 1.7 ms against 5.8 ms for all of them).  ICP on a subset steers towards the
# fixed point of the full sample up to the subset's sampling error
# (Rusinkiewicz and Levoy, "Efficient Variants of the ICP Algorithm", 3DIM
# 2001), which the full-sample iterations that finish every such refinement
# reduce.  Leaf order keeps neighbours together, so one point per run covers
# the surface evenly, with less sampling error than a uniform random third.
# That moved a cuboid plane so far that two detector seeds disagreed by
# 1.13 degrees; with a quarter of the samples, or a random half, the
# full-length loop kept a second false plane on the asymmetric tetrahedron
# (ROADMAP, Exact dead ends).
ICP_SUBSET_STRIDE = 3

# The subset phase's trend check allows each score left twice the subset's
# last drop: a slide along a near-symmetry can speed up.  On the asymmetric
# tetrahedron under the default config at seed 1, one slid from 0.052 to
# 0.0200, its subset drops growing from 0.0006 to 0.0022 per iteration;
# judged by its plain last drop, it was stopped at its second subset
# iteration although the full-length loop accepts it.
ICP_SUBSET_DROP_ALLOWANCE = 2.0


def _icp_subset(tree, seed):
    """Indices of the ICP subset of the tree's points, in the tree's leaf
    order: from each run of ICP_SUBSET_STRIDE consecutive points of the leaf
    order, the one at an offset drawn from the seed's "icp-subset" stream.
    The draw depends only on the seed and the tree, so every refinement of a
    model that draws it gets the same subset."""
    leaf_order = tree.indices
    starts = np.arange(0, len(leaf_order), ICP_SUBSET_STRIDE)
    rng = util.derive_rng(seed, "icp-subset")
    offsets = rng.integers(0, np.minimum(ICP_SUBSET_STRIDE, len(leaf_order) - starts))
    return leaf_order[starts + offsets]


ICP_REJECT_FRAC = 0.05  # ICP drops matches farther apart than this much of the bbox diagonal
ICP_CONVERGE_DEG = 0.1  # a refit that moves the normal less than this has converged


def refine_plane_icp(samples: SurfaceSamples, plane: SymmetryPlane, config: DetectorConfig,
                     return_history: bool = False, tree: cKDTree | None = None):
    """ICP between original and reflected samples with a closed-form refit.

    Per iteration: reflect the points, match each reflected point to its
    nearest sample, reject matches beyond ICP_REJECT_FRAC * diagonal, then
    refit the plane from correspondences (p, q): the new normal is the
    principal eigenvector of sum(d d^T) over displaced pairs d = p - q, the
    new offset places the plane through the mean midpoint.  The matching
    pass scores the plane it reflects by its mean match distance.

    A refinement runs in up to three phases.  "first" is iteration 0, on all
    samples, as a refinement that converges there always has.  Otherwise it
    goes on in the "subset" phase, on the ICP subset (`_icp_subset`, each
    refinement that gets here draws the same one, matched against all
    samples), until a refit converges, and then in the "finish" phase, on all
    samples again from the subset's last plane, until a refit converges.  A
    subset score only estimates a full-sample one, so only full-sample
    scores pick the returned plane: the result is the best plane scored on
    all samples, with that score.  icp_max_iters bounds the iterations of all
    phases together; the subset phase ends by iteration icp_max_iters - 2,
    so that at least one full-sample iteration follows it.  A refinement that
    converges on all samples or reaches icp_max_iters scores its last refit
    plane once more.

    While its best full-sample score is above accept_residual, it also stops,
    with no refit and no rescoring, when the residual trend shows the
    refinement cannot be accepted.  After iteration i with best score s_i
    and previous best s_(i-1), at most icp_max_iters - i more planes can be
    scored (the remaining iterations and the final rescoring), so if even
    gaining drop = s_(i-1) - s_i on each of them leaves s_i -
    (icp_max_iters - i) * drop above accept_residual, it returns the best
    full-scored plane so far.  The finish phase reads the best full-sample
    scores after each of its iterations, the subset phase its own best
    scores after each of its iterations from the second, allowing each score
    left ICP_SUBSET_DROP_ALLOWANCE times their last drop.  Any other exit
    after iteration 0 (no match within the rejection radius, fewer than
    three displaced matches) also returns the best full-scored plane.  The
    history holds the best full-sample score after each iteration run (a
    subset iteration repeats it), plus a last entry for the result.
    `tree`, if given, is a cKDTree over samples.points.
    """
    pts = samples.points
    if len(pts) == 0:
        raise ValueError("cannot refine a plane against zero samples")
    diag = samples.bbox_diagonal
    if tree is None:
        tree = _kd_tree(pts)
    reject = ICP_REJECT_FRAC * diag
    min_disp = 1e-6 * diag
    last = config.icp_max_iters - 1
    current = plane
    best = None
    best_residual = np.inf
    history = []
    phase, points = "first", pts
    subset_scores = []  # the subset phase's best subset score after each of its iterations
    for iteration in range(config.icp_max_iters):
        if phase == "subset":
            dists, idx = tree.query(reflect_points(points, current))
            score = float(dists.mean() / diag)
            subset_scores.append(min(score, subset_scores[-1]) if subset_scores else score)
        else:
            dists, idx = _query_reflected(tree, pts, current)
            residual = float(dists.mean() / diag)
            if residual < best_residual:
                best, best_residual = current, residual
        # one entry per iteration: the best full-sample score, nonincreasing
        history.append(best_residual)
        if phase == "finish":
            trend, allowance = history, 1.0
        elif phase == "subset" and len(subset_scores) > 1:
            trend, allowance = subset_scores, ICP_SUBSET_DROP_ALLOWANCE
        else:
            trend = None
        if trend is not None and best_residual > config.accept_residual:
            # hopeless: gaining the allowed drop on each score left stays rejected
            drop = allowance * (trend[-2] - trend[-1])
            if trend[-1] - (config.icp_max_iters - iteration) * drop > config.accept_residual:
                break
        keep = dists <= reject
        if not keep.any():
            if iteration == 0:
                raise RefinementDivergedError("every correspondence exceeded the rejection radius")
            break
        p = points[keep]
        q = pts[idx[keep]]
        d = p - q
        strong = np.linalg.norm(d, axis=1) > min_disp
        if int(strong.sum()) < 3:
            if iteration == 0:
                raise DegenerateCorrespondencesError("fewer than three displaced correspondences")
            break
        ds = d[strong]
        _, vecs = np.linalg.eigh(ds.T @ ds)
        normal = vecs[:, -1]
        offset = float(normal @ (0.5 * (p + q)).mean(axis=0))
        converged = sym_angle_deg(normal, current.normal) < ICP_CONVERGE_DEG
        current = SymmetryPlane(normal, offset)
        if phase != "subset" and (converged or iteration == last):
            final_residual = score_plane(samples, current, tree=tree)
            if final_residual < best_residual:
                best, best_residual = current, final_residual
            break
        if phase == "first" and last >= 2:
            phase, points = "subset", pts[_icp_subset(tree, config.seed)]
        elif phase == "first" or (phase == "subset" and (converged or iteration == last - 1)):
            phase, points = "finish", pts
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


DEDUPE_ANGLE_DEG = 10.0  # of accepted planes this close, detection keeps the best-scored


def detect_symmetries(mesh: TriangleMesh, config: DetectorConfig | None = None) -> list[SymmetryPlane]:
    """Full pipeline; returns deduped planes with residual <= accept_residual.

    An empty list (no error) means no plane passed acceptance.  Each
    hypothesis is refined on all samples, then, unless its first refit
    converged, on the model's ICP subset and on all samples again (see
    `refine_plane_icp`); every residual it is accepted or rejected by is a
    full-sample score.  A refinement whose residual trend shows it cannot
    reach accept_residual stops early and is rejected.  The kept planes are
    those of full-length refinements (`tests/icp_oracle.py`) unless
    a stopped refinement would have ended accepted and been kept by dedupe.

    Hypothesis refinements are independent: they share one thread pool of
    min(hypotheses, usable CPUs) workers (the KD-tree queries release the
    GIL), each one that draws the ICP subset draws the same one, all read
    the same tree, and they are collected in hypothesis order, so output is
    identical to the sequential pipeline.
    """
    cfg = config if config is not None else DetectorConfig()
    samples = sample_surface(mesh, cfg.sample_count, cfg.seed)
    hypotheses = generate_hypotheses(samples, cfg)
    tree = _kd_tree(samples.points)

    def refine(hypothesis):
        try:
            return refine_plane_icp(samples, hypothesis, cfg, tree=tree)
        except (RefinementDivergedError, DegenerateCorrespondencesError):
            return None

    with ThreadPoolExecutor(max_workers=min(len(hypotheses), util.usable_cpu_count())) as pool:
        refined = list(pool.map(refine, hypotheses))
    accepted = [p for p in refined if p is not None and p.residual <= cfg.accept_residual]
    return dedupe_planes(accepted, DEDUPE_ANGLE_DEG)


def write_planes(path, planes, comments=()) -> None:
    """One plane per line: nx ny nz b residual, after a '#' line for each
    comment and one naming the columns."""
    lines = [f"# {c}" for c in (*comments, "columns: nx ny nz offset residual")]
    for p in planes:
        nx, ny, nz = p.normal
        lines.append(f"{nx:.12e} {ny:.12e} {nz:.12e} {p.offset:.12e} {p.residual:.12e}")
    util.atomic_write_text(path, "\n".join(lines) + "\n")


def read_planes(path) -> list[SymmetryPlane]:
    """The planes of a file write_planes wrote; a line that is not five
    numbers making a valid plane is an InputError naming the file and line."""
    planes = []
    with util.open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                nx, ny, nz, b, residual = (float(tok) for tok in line.split())
                planes.append(SymmetryPlane(np.array([nx, ny, nz]), b, residual))
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from None
    return planes
