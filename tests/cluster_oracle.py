"""Per-vote clustering oracle: the reference loop for `symmetry._cluster_votes`.

Takes the votes in order; each joins the qualifying cluster whose
representative is closest in unoriented angle (the lowest index on exact
ties), else opens a new one.  A cluster qualifies when its representative is
within symmetry.CLUSTER_ANGLE_DEG (read at each call, as `_cluster_votes`
reads it) of the vote and its mean offset, after aligning the vote's sign
with the representative, is within cluster_offset_frac * diagonal of the
vote's.  `symmetry._cluster_votes` must return planes with the same normal
and offset bytes, in the same order.

The rule is tested against every cluster, in the sweep's IEEE operations:
a dot product is r[:, 0] * v[0] + r[:, 1] * v[1] + r[:, 2] * v[2], added
left to right, and a representative is the vote itself for a one-vote
cluster, else sum / sqrt(x*x + y*y + z*z).  So a grid that missed a
candidate or broke a tie differently would show in the bytes.
"""

import numpy as np

from symnorm import symmetry
from symnorm.orientation import canonical_sign
from symnorm.symmetry import SymmetryPlane


def cluster_votes(normals, offsets, config, bbox_diagonal):
    # membership is sign-invariant: a vote and its negation name the same
    # plane, so votes near the canonicalization boundary must not split
    # into antipodal half-clusters.  Accumulation aligns each vote's sign
    # (and therefore its offset's) with the cluster representative.
    cos_thresh = np.cos(np.radians(symmetry.CLUSTER_ANGLE_DEG))
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
            r = reps[:m]
            dots = r[:, 0] * v[0] + r[:, 1] * v[1] + r[:, 2] * v[2]
            signs = np.where(dots < 0.0, -1.0, 1.0)
            ok = (np.abs(dots) >= cos_thresh) & (np.abs(b_mean[:m] - signs * b) <= b_tol)
            if ok.any():
                # join the closest qualifying cluster (first one on exact ties)
                j = int(np.argmax(np.where(ok, np.abs(dots), -2.0)))
                sums[j] += signs[j] * v
                b_sum[j] += signs[j] * b
                counts[j] += 1
                x, y, z = sums[j]
                reps[j] = sums[j] / np.sqrt(x * x + y * y + z * z)
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
