"""Full-frame eval-normals oracle: the reference composition for
`symnorm.cli._image_errors`.

Each map becomes a whole validated NormalMap first: a normal map as a full
float64 frame, a label map lifted to a full frame of its codebook directions.
Only then are the two frames compared at the ground-truth foreground.  A
test substitutes `image_errors` for `cli._image_errors` and requires the
same report bytes and exit code.
"""

import numpy as np

from symnorm import imgfmt
from symnorm.errors import InputError, NoForegroundError
from symnorm.render import (
    LABEL_MAP_SUFFIX,
    NORMAL_MAP_SUFFIX,
    NormalMap,
    labels_to_normals,
    load_label_map,
)


def load_normal_map(path) -> NormalMap:
    """A PFM normal map as a full-frame NormalMap: every pixel but an exact
    zero vector is foreground, and NormalMap validates it."""
    arr = np.asarray(imgfmt.read_pfm(path), dtype=np.float64)
    arr[~np.any(arr != 0.0, axis=2)] = 0.0
    return NormalMap(arr)


def load_prediction_map(pred_dir, image_id, codebook) -> NormalMap:
    pgm = pred_dir / f"{image_id}{LABEL_MAP_SUFFIX}"
    if pgm.is_file():
        return labels_to_normals(load_label_map(pgm, codebook.K), codebook)
    pfm = pred_dir / f"{image_id}{NORMAL_MAP_SUFFIX}"
    if pfm.is_file():
        return load_normal_map(pfm)
    raise InputError(f"no prediction found for {image_id} under {pred_dir}")


def pixel_errors_deg(gt: NormalMap, pred: NormalMap) -> np.ndarray:
    if gt.normals.shape != pred.normals.shape:
        raise ValueError("normal map dimensions disagree")
    fg = gt.mask
    if not fg.any():
        raise NoForegroundError("ground-truth mask is empty")
    dots = np.einsum("ij,ij->i", gt.normals[fg], pred.normals[fg])
    errors = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
    errors[~pred.mask[fg]] = 180.0
    return errors


def image_errors(gt_path, pred_dir, image_id, codebook) -> np.ndarray:
    gt = load_normal_map(gt_path)
    pred = load_prediction_map(pred_dir, image_id, codebook)
    return pixel_errors_deg(gt, pred)
