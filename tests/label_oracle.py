"""Per-pixel label oracle: the reference for `render.discretize_normal_map`.

Bins every foreground pixel's normal on its own, where the renderer bins
each face shown once and gives its pixels that face's label.  The two must
write the same label bytes, and only this one takes a map without face
indices, such as one lifted from labels.
"""

import numpy as np

from symnorm.orientation import HEMISPHERE, bin_orientations
from symnorm.render import LabelMap


def discretize_normal_map(nm, codebook):
    if codebook.support != HEMISPHERE:
        raise ValueError("label maps require a hemisphere codebook")
    labels = np.full((nm.height, nm.width), codebook.K, dtype=np.int32)
    if nm.mask.any():
        labels[nm.mask] = bin_orientations(codebook, nm.normals[nm.mask], sign_invariant=False)
    return LabelMap(labels, codebook.K)
