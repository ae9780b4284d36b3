"""Full-length ICP oracle: the reference loop for `symmetry.refine_plane_icp`.

Runs every refinement until it converges or reaches icp_max_iters, then
rescores the last refit plane, whatever its residual trend.  Detection with
`symmetry.refine_plane_icp` must keep the same planes, byte for byte, as
detection with this loop patched in: the early stop only ends refinements
that this loop would leave rejected or that dedupe would drop.
"""

import numpy as np

from symnorm.errors import DegenerateCorrespondencesError, RefinementDivergedError
from symnorm.orientation import sym_angle_deg
from symnorm.symmetry import SymmetryPlane, _kd_tree, _query_reflected, score_plane


def refine_plane_icp(samples, plane, config, return_history=False, tree=None):
    pts = samples.points
    if len(pts) == 0:
        raise ValueError("cannot refine a plane against zero samples")
    diag = samples.bbox_diagonal
    if tree is None:
        tree = _kd_tree(pts)
    reject = config.icp_reject_frac * diag
    min_disp = 1e-6 * diag
    current = plane
    best = None
    best_residual = np.inf
    history = []
    for iteration in range(config.icp_max_iters):
        dists, idx = _query_reflected(tree, pts, current)
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
        normal = vecs[:, -1]
        offset = float(normal @ (0.5 * (p + q)).mean(axis=0))
        step_deg = sym_angle_deg(normal, current.normal)
        current = SymmetryPlane(normal, offset)
        if step_deg < config.icp_converge_deg:
            break
    final_residual = score_plane(samples, current, tree=tree)
    if final_residual < best_residual:
        best, best_residual = current, final_residual
    history.append(best_residual)
    refined = SymmetryPlane(best.normal, best.offset, best_residual)
    return (refined, history) if return_history else refined
