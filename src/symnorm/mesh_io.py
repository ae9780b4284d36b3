"""OBJ subset parsing and area-weighted uniform surface sampling.

Only geometry is read: ``v`` lines supply positions (extra tokens such as
vertex colors are ignored) and ``f`` lines supply polygons, fan-triangulated
from their first vertex.  ``vn``, ``vt``, ``mtllib``, ``usemtl``, ``o``,
``g``, ``s`` and comments are skipped, as is any other keyword.  Face entries
may be ``i``, ``i/j``, ``i//k`` or ``i/j/k``; negative indices resolve
against the running vertex count, and indices must reference vertices that
were already declared.  Vertices that no face references are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import util
from .errors import EmptyMeshError, GeometryError, MeshParseError, NoSamplableAreaError


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup with a cached bounding-box diagonal.  Only the
    vertices that faces reference are kept, in their order, and the faces
    are re-indexed to them."""

    vertices: np.ndarray  # (n, 3) float64
    faces: np.ndarray     # (m, 3) int64, 0-based
    bbox_diagonal: float = field(init=False)

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        faces = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError("faces must be an (m, 3) array")
        if len(verts) == 0 or len(faces) == 0:
            raise EmptyMeshError("mesh needs at least one vertex and one face")
        if faces.min() < 0 or faces.max() >= len(verts):
            raise ValueError("face index out of range")
        if not np.isfinite(verts).all():
            raise GeometryError("mesh vertices must be finite")
        # a vertex no face uses would still move the bbox, and with it the
        # camera framing and every detector threshold
        used = np.zeros(len(verts), dtype=bool)
        used[faces] = True
        if not used.all():
            verts = verts[used]
            faces = np.cumsum(used)[faces] - 1
        # finite coordinates can still overflow float64 in the extent or an area
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
        if not math.isfinite(diagonal):
            raise GeometryError("mesh bounding box diagonal is not finite")
        if not diagonal > 0.0:
            raise GeometryError("mesh bounding box has zero diagonal")
        object.__setattr__(self, "vertices", util.readonly(verts))
        object.__setattr__(self, "faces", util.readonly(faces))
        object.__setattr__(self, "bbox_diagonal", diagonal)
        with np.errstate(over="ignore", invalid="ignore"):
            areas = face_areas(self)
        if not np.isfinite(areas).all():
            raise GeometryError("mesh face areas are not finite")


@dataclass(frozen=True)
class SurfaceSamples:
    """Uniform area-weighted surface points with per-point face normals."""

    points: np.ndarray       # (k, 3)
    normals: np.ndarray      # (k, 3), unit, from the source face winding
    source_face: np.ndarray  # (k,)
    bbox_diagonal: float     # carried over from the sampled mesh

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64)).reshape(-1, 3)
        nrm = np.ascontiguousarray(np.asarray(self.normals, dtype=np.float64)).reshape(-1, 3)
        src = np.ascontiguousarray(np.asarray(self.source_face, dtype=np.int64)).reshape(-1)
        if not (len(pts) == len(nrm) == len(src)):
            raise ValueError("points, normals and source_face must have equal length")
        object.__setattr__(self, "points", util.readonly(pts))
        object.__setattr__(self, "normals", util.readonly(nrm))
        object.__setattr__(self, "source_face", util.readonly(src))

    def __len__(self):
        return len(self.points)


def face_corners(mesh: TriangleMesh):
    v = mesh.vertices
    f = mesh.faces
    return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]


def face_areas(mesh: TriangleMesh) -> np.ndarray:
    a, b, c = face_corners(mesh)
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _resolve_index(token: str, declared: int, line: int) -> int:
    base = token.split("/")[0]
    try:
        raw = int(base)
    except ValueError:
        raise MeshParseError(f"bad face index token {token!r}", line=line) from None
    if raw == 0:
        raise MeshParseError("face index 0 is invalid (OBJ indices are 1-based)", line=line)
    idx = declared + raw if raw < 0 else raw - 1
    if not 0 <= idx < declared:
        raise MeshParseError(f"face index {raw} out of range", line=line)
    return idx


def parse_obj(data) -> TriangleMesh:
    """Parse the OBJ subset from bytes or text."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise MeshParseError(f"not valid UTF-8: {exc}") from None
    else:
        text = data
    verts: list[list[float]] = []
    tris: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "v":
            if len(parts) < 4:
                raise MeshParseError("vertex needs three coordinates", line=lineno)
            try:
                xyz = [float(p) for p in parts[1:4]]
            except ValueError:
                raise MeshParseError(f"bad numeric token in {line!r}", line=lineno) from None
            if not all(map(math.isfinite, xyz)):
                raise MeshParseError(f"non-finite coordinate in {line!r}", line=lineno)
            verts.append(xyz)
        elif keyword == "f":
            tokens = parts[1:]
            if len(tokens) < 3:
                raise MeshParseError("face needs at least three vertices", line=lineno)
            idx = [_resolve_index(t, len(verts), lineno) for t in tokens]
            for i in range(1, len(idx) - 1):
                tris.append((idx[0], idx[i], idx[i + 1]))
        # vn, vt, mtllib, usemtl, o, g, s and anything else: skipped
    if not verts or not tris:
        raise EmptyMeshError("no vertices or no faces in OBJ stream")
    return TriangleMesh(np.asarray(verts), np.asarray(tris))


def parse_obj_file(path) -> TriangleMesh:
    with open(path, "rb") as fh:
        return parse_obj(fh.read())


def serialize_obj(mesh: TriangleMesh) -> str:
    """Emit the mesh in the parsed subset; float repr round-trips bitwise."""
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices]
    lines.extend(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces)
    return "\n".join(lines) + "\n"


def sample_surface(mesh: TriangleMesh, count: int, seed: int) -> SurfaceSamples:
    """Sample points uniformly by area with barycentric folding.

    Faces are chosen with probability proportional to area (zero-area faces
    are excluded from the CDF but stay in the mesh); within a face, (u, v)
    are uniform on the unit square and folded so u + v <= 1.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    a, b, c = face_corners(mesh)
    cross = np.cross(b - a, c - a)
    length = np.linalg.norm(cross, axis=1)
    areas = 0.5 * length
    usable = np.flatnonzero(areas > 0.0)
    if usable.size == 0:
        raise NoSamplableAreaError("all faces are degenerate")
    if count == 0:
        empty = np.empty((0, 3))
        return SurfaceSamples(empty, empty, np.empty(0, dtype=np.int64), mesh.bbox_diagonal)
    rng = np.random.default_rng(seed)
    probs = areas[usable] / areas[usable].sum()
    chosen = usable[rng.choice(usable.size, size=count, p=probs)]
    u = rng.random(count)
    v = rng.random(count)
    over = u + v > 1.0
    u[over] = 1.0 - u[over]
    v[over] = 1.0 - v[over]
    pts = a[chosen] + u[:, None] * (b[chosen] - a[chosen]) + v[:, None] * (c[chosen] - a[chosen])
    normals = cross[chosen] / length[chosen, None]  # unit, oriented by winding
    return SurfaceSamples(pts, normals, chosen, mesh.bbox_diagonal)
