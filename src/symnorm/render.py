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

from dataclasses import dataclass, field

import numpy as np

from . import imgfmt, util
from .config import RunConfig
from .errors import GeometryError
from .mesh_io import TriangleMesh
from .orientation import HEMISPHERE, OrientationCodebook, ViewPose, bin_orientations, row_norms, unit_mask

RASTER_CHUNK = 16384  # (face, pixel) candidates tested at once


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
    """Per-pixel camera-frame unit normals, the foreground mask they imply
    (see foreground_mask), and for a rendered map the index of the mesh face
    each pixel shows."""

    normals: np.ndarray  # (h, w, 3), zero on background
    face_ids: np.ndarray | None = None  # (h, w) int32, -1 on background; None unless rendered
    mask: np.ndarray = field(init=False, repr=False, compare=False)  # (h, w) bool

    def __post_init__(self):
        normals = np.ascontiguousarray(np.asarray(self.normals, dtype=np.float64))
        if normals.ndim != 3 or normals.shape[2] != 3:
            raise ValueError("normals must be an (h, w, 3) array")
        mask = foreground_mask(normals)
        check_foreground_normals(pixels_at(normals, np.flatnonzero(mask)))
        if self.face_ids is not None:
            face_ids = np.ascontiguousarray(np.asarray(self.face_ids, dtype=np.int32))
            if face_ids.shape != mask.shape or not np.array_equal(face_ids >= 0, mask) \
                    or (face_ids < -1).any():
                raise ValueError("face indices must be -1 on background and >= 0 elsewhere")
            object.__setattr__(self, "face_ids", util.readonly(face_ids))
        object.__setattr__(self, "normals", util.readonly(normals))
        object.__setattr__(self, "mask", util.readonly(mask))

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


def foreground_mask(normals) -> np.ndarray:
    """Per pixel of a (..., 3) normal array: True unless it is the exact zero
    vector, the background.  A short or a NaN pixel is foreground."""
    return (normals[..., 0] != 0.0) | (normals[..., 1] != 0.0) | (normals[..., 2] != 0.0)


def pixels_at(image, index) -> np.ndarray:
    """The pixels of an (h, w) or (h, w, c) image at flat row-major indices:
    at np.flatnonzero(mask), those boolean indexing by mask gives, faster."""
    return image.reshape(image.shape[0] * image.shape[1], *image.shape[2:]).take(index, axis=0)


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


AUTO_FRAME_MARGIN = 1.1  # camera distance over the one at which the bounding sphere fills the view
FOV_Y_DEG = 30.0  # the camera's vertical field of view


def frame_camera(mesh: TriangleMesh, pose: ViewPose, cam: RunConfig) -> CameraFrame:
    """Auto-framing camera placement for the rotated mesh."""
    rotated = mesh.vertices @ pose.rotation.T
    center = 0.5 * (rotated.min(axis=0) + rotated.max(axis=0))
    radius = float(np.linalg.norm(rotated - center, axis=1).max())
    if radius <= 0.0:
        raise GeometryError("mesh bounding sphere has zero radius")
    half_fov = 0.5 * np.radians(FOV_Y_DEG)
    distance = AUTO_FRAME_MARGIN * radius / np.sin(half_fov)
    focal_px = (cam.height / 2.0) / np.tan(half_fov)
    return CameraFrame(util.readonly(center), distance, focal_px,
                       cam.width / 2.0, cam.height / 2.0, cam.width, cam.height)


def _face_setup(verts, faces, us, vs, w, h):
    """Per-face mesh indices, normals, plane constants, screen edges and
    clipped bboxes, in block order (see `_blocks`).

    Drops faces with a zero normal, edge-on faces (n_z == 0 after flipping
    the normal towards the viewer), zero screen area and bboxes that hold
    no pixel center.  The stacked matmul gives the same bits as the 1-d
    `n @ v`, which `einsum` does not always do.  Edge arrays are
    (edge, x|y, face); a pixel center lies inside an edge when its edge
    function exceeds that edge's `floor`.  Bbox arrays are (x|y, face).
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
    corners = tri[:, 0], tri[:, 1], tri[:, 2]
    lo = np.maximum(np.ceil(np.minimum(np.minimum(*corners[:2]), corners[2]) - 0.5), 0.0)
    hi = np.minimum(np.floor(np.maximum(np.maximum(*corners[:2]), corners[2]) - 0.5),
                    np.array([w - 1, h - 1]))
    good = (area != 0.0) & np.all(lo <= hi, axis=1)
    ids = np.flatnonzero(keep)[good]
    n, tri, lo, hi = n[good], tri[good], lo[good].astype(np.int64), hi[good].astype(np.int64)
    plane = (n[:, None, :] @ verts[faces[ids, 0]][:, :, None])[:, 0, 0]
    start = tri.transpose(1, 2, 0)
    edge = start[[1, 2, 0]] - start
    # top-left rule for a triangle wound so the interior is on the positive
    # side of every edge function: horizontal edges going right are "top",
    # edges going up in screen coordinates (dy < 0) are "left"; those take
    # wv >= 0, which is wv > -0x1p-1074, and the others wv > 0
    inclusive = ((edge[:, 1] == 0.0) & (edge[:, 0] > 0.0)) | (edge[:, 1] < 0.0)
    floor = np.where(inclusive, -np.nextafter(0.0, 1.0), 0.0)
    size = hi - lo + 1
    order = np.argsort(_shape_class(size), kind="stable")
    return (ids[order], n[order], plane[order], start[..., order], edge[..., order],
            floor[:, order], lo[order].T, hi[order].T)


def _shape_class(size):
    """Each (width, height) row's power-of-two classes, as one key."""
    return np.frexp(size[:, 0] - 1)[1] * 64 + np.frexp(size[:, 1] - 1)[1]


def _blocks(lo, hi):
    """(first, last, top, left, rows, cols) blocks of (face, pixel)
    candidates, each at most RASTER_CHUNK long, that together hold every
    bbox: faces first to last, rows and columns from top and left of each
    bbox.

    The faces come sorted by shape class, and faces whose bbox width and
    height fall in the same power-of-two classes share blocks, padded to
    the largest bbox of their class; a bbox larger than the chunk is cut
    into bands of rows, and a row longer than the chunk into runs.
    """
    size = (hi - lo + 1).T
    key = _shape_class(size)
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # none when no face is drawn
    for begin, end in zip(starts, [*starts[1:], len(key)]):
        width, height = (int(v) for v in size[begin:end].max(axis=0))
        cols = min(width, RASTER_CHUNK)
        rows = min(height, max(1, RASTER_CHUNK // cols))
        per = max(1, RASTER_CHUNK // (rows * cols))
        for first in range(begin, end, per):
            for top in range(0, height, rows):
                for left in range(0, width, cols):
                    yield (first, min(first + per, end), top, left,
                           min(rows, height - top), min(cols, width - left))


def rasterize(mesh: TriangleMesh, pose: ViewPose, cam: RunConfig | None = None) -> NormalMap:
    """Z-buffered flat-shaded render of camera-frame normals.

    The z-buffer holds each pixel's depth, the distance along the view
    axis, found by intersecting the pixel-center ray with the face plane;
    the auto-framing guarantees the whole mesh sits strictly in front of
    the camera.  Only the normals and face indices are kept.  Each
    pixel takes the nearest face at positive depth and, among faces at the
    same depth, the lowest face index; the map records that face's index.
    The whole mesh is drawn at once, in blocks of at most RASTER_CHUNK
    (face, pixel) candidates (see `_blocks`), so memory stays bounded
    whatever the faces cover.  In a block, each edge function is the
    difference of a per-row and a per-column term, the same two products
    as per pixel, and depth is found only for covered candidates.
    """
    cam = cam if cam is not None else RunConfig()
    frame = frame_camera(mesh, pose, cam)
    verts = mesh.vertices @ pose.rotation.T - frame.center
    verts[:, 2] -= frame.distance
    w, h = frame.width, frame.height
    inv_z = -1.0 / verts[:, 2]
    us = frame.cx + frame.focal_px * verts[:, 0] * inv_z
    vs = frame.cy - frame.focal_px * verts[:, 1] * inv_z
    ids, n, plane, start, edge, floor, lo, hi = _face_setup(verts, mesh.faces, us, vs, w, h)
    # each pixel center's ray direction, by flat pixel index
    ray_x = np.tile((np.arange(w) + 0.5 - frame.cx) / frame.focal_px, h)
    ray_y = np.repeat((frame.cy - (np.arange(h) + 0.5)) / frame.focal_px, w)
    nx, ny, nz = n.T.copy()
    depth = np.full(h * w, np.inf)
    # the mesh index of each pixel's face, or len(mesh.faces) on background
    winner = np.full(h * w, len(mesh.faces))
    for first, last, top, left, rows, cols in _blocks(lo, hi):
        span = slice(first, last)
        # (row, face) and (column, face) pixel coordinates; faces vary fastest
        yi = np.arange(top, top + rows)[:, None] + lo[1, span]
        xi = np.arange(left, left + cols)[:, None] + lo[0, span]
        # (edge, row, face) and (edge, column, face) terms of the edge functions
        across = edge[:, 0, None, span] * (yi + 0.5 - start[:, 1, None, span])
        along = edge[:, 1, None, span] * (xi + 0.5 - start[:, 0, None, span])
        across[:, yi > hi[1, span]] = -np.inf  # past a bbox never covers
        along[:, xi > hi[0, span]] = np.inf
        inside = across[:, :, None, :] - along[:, None, :, :] > floor[:, None, None, span]
        hit = np.flatnonzero(inside[0] & inside[1] & inside[2])
        pix = (yi[:, None, :] * w + xi[None, :, :]).reshape(-1)[hit]
        f = first + hit % (last - first)
        denom = nx[f] * ray_x[pix] + ny[f] * ray_y[pix] - nz[f]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = plane[f] / denom
        front = (t > 0.0) & (t < np.inf)
        f, t, pix = f[front], t[front], pix[front]
        before = depth[pix]
        np.minimum.at(depth, pix, t)
        now = depth[pix]
        # a pixel whose depth fell forgets its earlier faces, and the lowest
        # face at its depth wins, whatever order the blocks come in
        winner[pix[now < before]] = len(mesh.faces)  # above every face index
        at = t == now
        np.minimum.at(winner, pix[at], ids[f[at]])
    normal_of = np.zeros((len(mesh.faces) + 1, 3))  # the last row is background's
    normal_of[ids] = n
    face_ids = winner.astype(np.int32)
    face_ids[winner == len(mesh.faces)] = -1
    return NormalMap(normal_of.take(winner, axis=0).reshape(h, w, 3), face_ids.reshape(h, w))


def discretize_normal_map(nm: NormalMap, codebook: OrientationCodebook) -> LabelMap:
    """Bin a rendered map into the hemisphere codebook; background becomes K.

    Every pixel of a face shows that face's normal, so each face shown is
    binned once and its pixels take its label.  A map without face indices
    (one read from a file, or lifted from labels) is a ValueError.
    """
    if codebook.support != HEMISPHERE:
        raise ValueError("label maps require a hemisphere codebook")
    if nm.face_ids is None:
        raise ValueError("label maps are made from rendered maps, which carry face indices")
    labels = np.full(nm.face_ids.size, codebook.K, dtype=np.int32)
    pixels = np.flatnonzero(nm.mask)
    if len(pixels):
        faces = nm.face_ids.reshape(-1)[pixels]
        some_pixel = np.full(int(faces.max()) + 1, -1, dtype=np.int64)
        some_pixel[faces] = pixels
        shown = np.flatnonzero(some_pixel >= 0)
        face_label = np.zeros(len(some_pixel), dtype=np.int32)
        face_label[shown] = bin_orientations(
            codebook, nm.normals.reshape(-1, 3)[some_pixel[shown]], sign_invariant=False)
        labels[pixels] = face_label[faces]
    return LabelMap(labels.reshape(nm.face_ids.shape), codebook.K)


def labels_to_normals(lm: LabelMap, codebook: OrientationCodebook) -> NormalMap:
    """Lift bins back to their codebook directions."""
    if codebook.K != lm.K:
        raise ValueError(f"label map has K={lm.K}, codebook has K={codebook.K}")
    normals = codebook.label_directions[lm.labels]
    return NormalMap(normals)


# suffixes of a view's sidecar files: <prefix>_normal.pfm, <prefix>_labels.pgm
NORMAL_MAP_SUFFIX = "_normal.pfm"
LABEL_MAP_SUFFIX = "_labels.pgm"


def save_normal_map(path_prefix, nm: NormalMap) -> str:
    """Persist as <prefix>_normal.pfm; return that path."""
    normal_path = f"{path_prefix}{NORMAL_MAP_SUFFIX}"
    imgfmt.write_pfm(normal_path, nm.normals.astype(np.float32))
    return normal_path


def read_normal_pixels(path):
    """A PFM normal map as read, a float32 (h, w, 3) array, the flat indices
    of its foreground pixels and their (n, 3) normals.  Only an exact zero
    vector is background, and ValueError is raised unless every other pixel,
    a short or a NaN one included, passes check_foreground_normals."""
    arr = imgfmt.read_pfm(path)
    foreground = np.flatnonzero(foreground_mask(arr))
    normals = pixels_at(arr, foreground)
    check_foreground_normals(normals)
    return arr, foreground, normals


def load_normal_map(path) -> NormalMap:
    """Rebuild a NormalMap from a PFM normal map, background as +0.0."""
    arr = imgfmt.read_pfm(path)
    return NormalMap(np.where(foreground_mask(arr)[..., None], arr, 0.0))


def save_label_map(path, lm: LabelMap) -> None:
    imgfmt.write_pgm16(path, lm.labels)


def load_label_map(path, K: int) -> LabelMap:
    return LabelMap(imgfmt.read_pgm16(path).astype(np.int32), K)
