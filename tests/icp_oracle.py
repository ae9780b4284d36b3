"""Full-length ICP oracle: the reference loop for `symmetry.refine_plane_icp`.

Runs both phases of every refinement in full, whatever its residual trend:
iteration 0 on all samples; then, unless that refit converged, the model's
ICP subset until a refit converges or iteration icp_max_iters - 2 ends; then
all samples again until a refit converges or icp_max_iters is reached, and a
rescoring of the last refit plane.  Only full-sample scores pick the
returned plane.  Detection with `symmetry.refine_plane_icp` must keep the
same planes, byte for byte, as detection with this loop patched in: the
early stop only ends refinements that this loop would leave rejected or that
dedupe would drop.
"""

import numpy as np

from symnorm import symmetry
from symnorm.errors import DegenerateCorrespondencesError, RefinementDivergedError
from symnorm.orientation import sym_angle_deg
from symnorm.symmetry import (
    ICP_REJECT_FRAC,
    SymmetryPlane,
    _icp_subset,
    _kd_tree,
    _query_reflected,
    reflect_points,
    score_plane,
)


def refine_plane_icp(samples, plane, config, return_history=False, tree=None):
    pts = samples.points
    if len(pts) == 0:
        raise ValueError("cannot refine a plane against zero samples")
    diag = samples.bbox_diagonal
    if tree is None:
        tree = _kd_tree(pts)
    reject = ICP_REJECT_FRAC * diag
    min_disp = 1e-6 * diag
    last = config.icp_max_iters - 1
    subset = pts[_icp_subset(tree, config.seed)]
    points = pts  # the points of the running phase
    current = plane
    best = None
    best_residual = np.inf
    history = []
    for iteration in range(config.icp_max_iters):
        full = points is pts
        if full:
            dists, idx = _query_reflected(tree, pts, current)
            residual = float(dists.mean() / diag)
            if residual < best_residual:
                best, best_residual = current, residual
        else:
            dists, idx = tree.query(reflect_points(subset, current))
        history.append(best_residual)
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
        converged = sym_angle_deg(normal, current.normal) < symmetry.ICP_CONVERGE_DEG
        current = SymmetryPlane(normal, offset)
        if full and (converged or iteration == last):
            final_residual = score_plane(samples, current, tree=tree)
            if final_residual < best_residual:
                best, best_residual = current, final_residual
            break
        if iteration == 0 and last >= 2:
            points = subset
        elif not full and (converged or iteration == last - 1):
            points = pts
    history.append(best_residual)
    refined = SymmetryPlane(best.normal, best.offset, best_residual)
    return (refined, history) if return_history else refined
