"""Software perspective rasterizer for per-pixel camera-frame normal maps.

The camera auto-frames the posed mesh: it sits on the view axis at the
distance where the mesh's bounding sphere fills the vertical field of view
times a margin, looking at the bbox center along -z.  Shading is flat (face
normals), normals are flipped to face the viewer (z > 0), coverage uses a
top-left fill rule at pixel centers (i + 0.5, j + 0.5), and each pixel shows
the nearest face at positive depth, the lowest face index among equals, so
output is bit-exact reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imgfmt, util
from .errors import GeometryError
from .mesh_io import TriangleMesh
from .orientation import HEMISPHERE, OrientationCodebook, ViewPose, bin_orientations, row_norms, unit_mask

BACKGROUND_DEPTH = np.inf
RASTER_CHUNK = 16384  # (face, pixel) candidates tested at once


@dataclass(frozen=True)
class CameraIntrinsics:
    width: int = 224
    height: int = 224
    fov_y_deg: float = 30.0
    auto_frame_margin: float = 1.1

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if not 0.0 < self.fov_y_deg < 180.0:
            raise ValueError("vertical field of view must lie in (0, 180)")
        if not self.auto_frame_margin >= 1.0:
            raise ValueError("auto-frame margin must be >= 1")


@dataclass(frozen=True)
class CameraFrame:
    """Derived placement: posed-space center/distance plus pixel projection."""

    center: np.ndarray
    distance: float
    focal_px: float
    cx: float
    cy: float
    width: int
    height: int


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel camera-frame unit normals with mask and depth channels."""

    normals: np.ndarray  # (h, w, 3), zero on background
    mask: np.ndarray     # (h, w) bool
    depth: np.ndarray    # (h, w), BACKGROUND_DEPTH on background

    def __post_init__(self):
        normals = np.ascontiguousarray(np.asarray(self.normals, dtype=np.float64))
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        depth = np.ascontiguousarray(np.asarray(self.depth, dtype=np.float64))
        if normals.ndim != 3 or normals.shape[2] != 3 or normals.shape[:2] != mask.shape \
                or depth.shape != mask.shape:
            raise ValueError("normals, mask and depth shapes disagree")
        check_foreground_normals(normals[mask])
        if (~mask).any():
            if np.any(normals[~mask] != 0.0) or not np.all(depth[~mask] == BACKGROUND_DEPTH):
                raise ValueError("background pixels must have zero normal and sentinel depth")
        object.__setattr__(self, "normals", util.readonly(normals))
        object.__setattr__(self, "mask", util.readonly(mask))
        object.__setattr__(self, "depth", util.readonly(depth))

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel orientation bins in {0..K-1} plus BACKGROUND = K."""

    labels: np.ndarray  # (h, w) int32
    K: int

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int32))
        if labels.ndim != 2:
            raise ValueError("labels must be a 2-d array")
        check_labels(labels, self.K)
        object.__setattr__(self, "labels", util.readonly(labels))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


def foreground_mask(normals) -> np.ndarray:
    """Per pixel of a (..., 3) normal array: True unless it is the exact zero
    vector, the background.  A short or a NaN pixel is foreground."""
    return (normals[..., 0] != 0.0) | (normals[..., 1] != 0.0) | (normals[..., 2] != 0.0)


def pixels_at(image, mask) -> np.ndarray:
    """The pixels of an (h, w) or (h, w, c) image where the (h, w) mask is
    set, in row-major order, as boolean indexing gives them, only faster."""
    return image.reshape(mask.size, *image.shape[2:]).take(np.flatnonzero(mask), axis=0)


def check_foreground_normals(normals) -> None:
    """Raise ValueError unless every row of an (n, 3) array is a unit normal
    (see unit_mask: NaN fails) that faces the viewer (z > 0)."""
    if not unit_mask(normals).all():
        raise ValueError("masked normals must be unit length")
    if np.any(normals[:, 2] <= 0.0):
        raise ValueError("masked normals must face the viewer (z > 0)")


def check_labels(labels, K: int) -> None:
    """Raise ValueError unless every label lies in {0..K}, K being background."""
    if labels.size and (labels.min() < 0 or labels.max() > K):
        raise ValueError("labels must lie in {0..K}")


def frame_camera(mesh: TriangleMesh, pose: ViewPose, cam: CameraIntrinsics) -> CameraFrame:
    """Auto-framing camera placement for the rotated mesh."""
    rotated = mesh.vertices @ pose.rotation.T
    center = 0.5 * (rotated.min(axis=0) + rotated.max(axis=0))
    radius = float(np.linalg.norm(rotated - center, axis=1).max())
    if radius <= 0.0:
        raise GeometryError("mesh bounding sphere has zero radius")
    half_fov = 0.5 * np.radians(cam.fov_y_deg)
    distance = cam.auto_frame_margin * radius / np.sin(half_fov)
    focal_px = (cam.height / 2.0) / np.tan(half_fov)
    return CameraFrame(util.readonly(center), distance, focal_px,
                       cam.width / 2.0, cam.height / 2.0, cam.width, cam.height)


def _face_setup(verts, faces, us, vs, w, h):
    """Per-face normals, plane constants, screen edges and clipped bboxes.

    Drops faces with a zero normal, edge-on faces (n_z == 0 after flipping
    the normal towards the viewer), zero screen area and bboxes that hold
    no pixel center.  The stacked matmul gives the same bits as the 1-d
    `n @ v`, which `einsum` does not always do.  Edge arrays are
    (edge, x|y, face).
    """
    va, vb, vc = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    n = np.cross(vb - va, vc - va)
    length = row_norms(n)
    keep = length != 0.0
    n = n[keep] / length[keep, None]
    n[n[:, 2] < 0.0] *= -1.0
    on = n[:, 2] != 0.0
    keep[keep] = on
    n = n[on]
    tri = np.stack([us[faces[keep]], vs[faces[keep]]], axis=2)  # (face, corner, x|y)
    area = (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1]) \
        - (tri[:, 1, 1] - tri[:, 0, 1]) * (tri[:, 2, 0] - tri[:, 0, 0])
    tri[area < 0.0] = tri[area < 0.0][:, [0, 2, 1]]
    lo = np.maximum(np.ceil(tri.min(axis=1) - 0.5), 0.0)
    hi = np.minimum(np.floor(tri.max(axis=1) - 0.5), [w - 1, h - 1])
    good = (area != 0.0) & np.all(lo <= hi, axis=1)
    n, tri, lo, hi = n[good], tri[good], lo[good].astype(np.int64), hi[good].astype(np.int64)
    plane = (n[:, None, :] @ verts[faces[keep][good, 0]][:, :, None])[:, 0, 0]
    start = np.ascontiguousarray(tri.transpose(1, 2, 0))
    edge = start[[1, 2, 0]] - start
    # top-left rule for a triangle wound so the interior is on the positive
    # side of every edge function: horizontal edges going right are "top",
    # edges going up in screen coordinates (dy < 0) are "left"
    inclusive = ((edge[:, 1] == 0.0) & (edge[:, 0] > 0.0)) | (edge[:, 1] < 0.0)
    return n, plane, start, edge, inclusive, lo.T, (hi - lo + 1).T


def rasterize(mesh: TriangleMesh, pose: ViewPose, cam: CameraIntrinsics | None = None) -> NormalMap:
    """Z-buffered flat-shaded render of camera-frame normals and depth.

    Depth is the distance along the view axis, found per pixel by
    intersecting the pixel-center ray with the face plane; the auto-framing
    guarantees the whole mesh sits strictly in front of the camera.  Each
    pixel takes the nearest face at positive depth and, among faces at the
    same depth, the lowest face index.  The whole mesh is drawn at once:
    the (face, pixel) pairs of every face's clipped bbox are tested in runs
    of RASTER_CHUNK, so memory stays bounded whatever the faces cover.
    """
    cam = cam if cam is not None else CameraIntrinsics()
    frame = frame_camera(mesh, pose, cam)
    verts = mesh.vertices @ pose.rotation.T - frame.center
    verts[:, 2] -= frame.distance
    w, h = frame.width, frame.height
    inv_z = -1.0 / verts[:, 2]
    us = frame.cx + frame.focal_px * verts[:, 0] * inv_z
    vs = frame.cy - frame.focal_px * verts[:, 1] * inv_z
    n, plane, start, edge, inclusive, lo, size = _face_setup(verts, mesh.faces, us, vs, w, h)
    count = size[0] * size[1]
    ends = np.cumsum(count)
    begins = ends - count
    depth = np.full(h * w, BACKGROUND_DEPTH)
    winner = np.zeros(h * w, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    for first in range(0, total, RASTER_CHUNK):
        # candidates run in face order, so earlier chunks hold lower faces
        last = min(first + RASTER_CHUNK, total)
        fa, fb = np.searchsorted(ends, [first, last - 1], side="right")
        span = np.arange(fa, fb + 1)
        f = np.repeat(span, np.minimum(ends[span], last) - np.maximum(begins[span], first))
        row, col = np.divmod(np.arange(first, last) - begins[f], size[0][f])
        xi = lo[0][f] + col
        yi = lo[1][f] + row
        X = xi + 0.5
        Y = yi + 0.5
        cover = np.ones(len(f), dtype=bool)
        for e in range(3):
            wv = edge[e, 0][f] * (Y - start[e, 1][f]) - edge[e, 1][f] * (X - start[e, 0][f])
            cover &= (wv > 0.0) | ((wv == 0.0) & inclusive[e][f])
        f, xi, yi, X, Y = f[cover], xi[cover], yi[cover], X[cover], Y[cover]
        dx = (X - frame.cx) / frame.focal_px
        dy = (frame.cy - Y) / frame.focal_px
        nf = n[f]
        denom = nf[:, 0] * dx + nf[:, 1] * dy - nf[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = plane[f] / denom
        front = (t > 0.0) & (t < BACKGROUND_DEPTH)
        f, t, pix = f[front], t[front], yi[front] * w + xi[front]
        before = depth[pix]
        np.minimum.at(depth, pix, t)
        # strictly nearer than every earlier chunk; the lowest face wins ties
        won = (t < before) & (t == depth[pix])
        winner[pix[won]] = len(plane)  # above every face index
        np.minimum.at(winner, pix[won], f[won])
    mask = np.isfinite(depth)
    normals = np.zeros((h * w, 3))
    normals[mask] = n[winner[mask]]
    return NormalMap(normals.reshape(h, w, 3), mask.reshape(h, w), depth.reshape(h, w))


def discretize_normal_map(nm: NormalMap, codebook: OrientationCodebook) -> LabelMap:
    """Bin masked normals into the hemisphere codebook; background becomes K."""
    if codebook.support != HEMISPHERE:
        raise ValueError("label maps require a hemisphere codebook")
    labels = np.full((nm.height, nm.width), codebook.K, dtype=np.int32)
    if nm.mask.any():
        labels[nm.mask] = bin_orientations(codebook, nm.normals[nm.mask], sign_invariant=False)
    return LabelMap(labels, codebook.K)


def labels_to_normals(lm: LabelMap, codebook: OrientationCodebook) -> NormalMap:
    """Lift bins back to their codebook directions; depth stays unknown."""
    if codebook.K != lm.K:
        raise ValueError(f"label map has K={lm.K}, codebook has K={codebook.K}")
    mask = lm.labels < lm.K
    normals = np.zeros((lm.height, lm.width, 3))
    if mask.any():
        normals[mask] = codebook.directions[lm.labels[mask]]
    depth = np.full(mask.shape, BACKGROUND_DEPTH)
    return NormalMap(normals, mask, depth)


# suffixes of a view's sidecar files: <prefix>_normal.pfm, <prefix>_labels.pgm
NORMAL_MAP_SUFFIX = "_normal.pfm"
LABEL_MAP_SUFFIX = "_labels.pgm"


def save_normal_map(path_prefix, nm: NormalMap) -> tuple[str, str]:
    """Persist as <prefix>_normal.pfm (3-channel) and <prefix>_depth.pfm."""
    normal_path = f"{path_prefix}{NORMAL_MAP_SUFFIX}"
    depth_path = f"{path_prefix}_depth.pfm"
    imgfmt.write_pfm(normal_path, nm.normals.astype(np.float32))
    imgfmt.write_pfm(depth_path, nm.depth.astype(np.float32))
    return normal_path, depth_path


def read_normal_pixels(path):
    """A 3-channel PFM normal map as read, a float32 (h, w, 3) array, and its
    (h, w) foreground mask.  Only an exact zero vector is background: any
    other pixel, a short or a NaN one included, is foreground, and ValueError
    is raised unless every foreground pixel passes check_foreground_normals."""
    arr = imgfmt.read_pfm(path)
    if arr.ndim != 3:
        raise ValueError("normal maps are 3-channel PFM files")
    mask = foreground_mask(arr)
    check_foreground_normals(pixels_at(arr, mask))
    return arr, mask


def load_normal_map(path) -> NormalMap:
    """Rebuild a NormalMap from a 3-channel PFM (see read_normal_pixels);
    depth is left unknown."""
    arr, mask = read_normal_pixels(path)
    normals = arr.astype(np.float64)
    normals[~mask] = 0.0
    return NormalMap(normals, mask, np.where(mask, 1.0, BACKGROUND_DEPTH))


def save_label_map(path, lm: LabelMap) -> None:
    imgfmt.write_pgm16(path, lm.labels)


def load_label_map(path, K: int) -> LabelMap:
    return LabelMap(imgfmt.read_pgm16(path).astype(np.int32), K)
