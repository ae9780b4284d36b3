"""Direction codebooks, orientation binning, Euler poses and view sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import util

FULL_SPHERE = "full_sphere"
HEMISPHERE = "hemisphere"
HORIZONTAL_CIRCLE = "horizontal_circle"
SUPPORTS = (FULL_SPHERE, HEMISPHERE, HORIZONTAL_CIRCLE)
# supports whose bins name a direction and its negation alike
SIGN_INVARIANT_SUPPORTS = (HORIZONTAL_CIRCLE, FULL_SPHERE)

GOLDEN_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0
BIN_SCORES = 1 << 20  # scores held at once: rows x K floats, whatever K is


def canonical_sign(vectors):
    """Flip signs so the first nonzero component among (z, y, x) is positive.

    Accepts a single 3-vector or an (n, 3) array; zero vectors pass through.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    single = arr.ndim == 1
    out = arr.reshape(-1, 3).copy()
    key = np.where(
        out[:, 2] != 0.0,
        np.sign(out[:, 2]),
        np.where(out[:, 1] != 0.0, np.sign(out[:, 1]), np.sign(out[:, 0])),
    )
    key[key == 0.0] = 1.0
    out *= key[:, None]
    return out[0] if single else out


def row_norms(vectors) -> np.ndarray:
    """Length of each row of an (n, 3) array, with the bits of the 1-d
    `np.linalg.norm` of that row; `np.linalg.norm(axis=1)` and `einsum`
    differ from it in the last bit for some rows."""
    v = np.asarray(vectors, dtype=np.float64).reshape(-1, 3)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def unit_mask(vectors) -> np.ndarray:
    """Per row of an (n, 3) array: unit length within 1e-6, as row_norms
    decides it.  NaN, inf and rows whose squared length overflows fail,
    without a numpy warning.

    An `einsum` norm is within a few ulps of row_norms', so it decides every
    row but those within 1e-12 of the bound, which row_norms re-checks.
    """
    v = np.asarray(vectors, dtype=np.float64).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        # in place: a fresh array per step costs more than the step
        off = np.einsum("ij,ij->i", v, v)
        np.sqrt(off, out=off)
        off -= 1.0
        np.abs(off, out=off)
        unit = off <= 1e-6
        off -= 1e-6
        np.abs(off, out=off)
        near = np.flatnonzero(off <= 1e-12)
        unit[near] = np.abs(row_norms(v[near]) - 1.0) <= 1e-6
    return unit


def unit_rows(vectors) -> np.ndarray:
    """Each row of an (n, 3) array divided by its own length (see row_norms)."""
    v = np.asarray(vectors, dtype=np.float64).reshape(-1, 3)
    return v / row_norms(v)[:, None]


def sym_angle_deg(a, b):
    """Angle between unoriented directions, arccos(|a @ b|), in [0, 90] degrees.

    `a` may be one direction or an (n, 3) array of them; `b` is one direction.
    """
    return np.degrees(np.arccos(np.clip(np.abs(a @ b), 0.0, 1.0)))


@dataclass(frozen=True)
class OrientationCodebook:
    """K approximately uniform unit directions used as classification bins.

    full_sphere and hemisphere: golden-angle lattices, z_k = 1 - (2k+1)/(s*K)
    with s = 1 on the sphere and 2 on the (strictly front-facing) hemisphere.
    horizontal_circle: azimuths pi*k/K in the z = 0 plane, spanning a half
    circle because an orientation and its negation name the same plane.
    """

    K: int
    support: str
    directions: np.ndarray = field(init=False, repr=False, compare=False)  # (K, 3)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.support not in SUPPORTS:
            raise ValueError(f"unknown support {self.support!r}")
        k = np.arange(self.K, dtype=np.float64)
        if self.support == HORIZONTAL_CIRCLE:
            az = np.pi * k / self.K
            dirs = np.column_stack([np.cos(az), np.sin(az), np.zeros(self.K)])
        else:
            s = 1.0 if self.support == FULL_SPHERE else 2.0  # scaling by 2 is exact
            z = 1.0 - (2.0 * k + 1.0) / (s * self.K)
            theta = 2.0 * np.pi * k * GOLDEN_CONJUGATE
            # unit to machine precision; renormalizing would perturb the exact z_k
            r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            dirs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        object.__setattr__(self, "directions", util.readonly(dirs))

    def header(self) -> str:
        """The manifest header value naming this codebook: `support=...<TAB>k=...`."""
        return f"support={self.support}\tk={self.K}"

    @classmethod
    def from_header(cls, text: str) -> "OrientationCodebook":
        """The codebook a `header()` string names; ValueError if it names none."""
        spec = dict(item.partition("=")[::2] for item in text.split("\t"))
        return cls(int(spec.get("k", "")), spec.get("support", ""))


def fibonacci_codebook(K: int, support: str = FULL_SPHERE) -> OrientationCodebook:
    """The K-direction codebook on `support` (see OrientationCodebook)."""
    return OrientationCodebook(K, support)


def bin_orientations(codebook: OrientationCodebook, vectors, sign_invariant: bool = False) -> np.ndarray:
    """Index of the codebook direction with maximal (optionally absolute) dot,
    per row of an (n, 3) array."""
    arr = np.asarray(vectors, dtype=np.float64).reshape(-1, 3)
    if not unit_mask(arr).all():
        raise ValueError("directions must be unit length")
    labels = np.empty(len(arr), dtype=np.int32)
    rows = max(1, BIN_SCORES // codebook.K)
    for start in range(0, len(arr), rows):
        scores = arr[start:start + rows] @ codebook.directions.T
        if sign_invariant:
            scores = np.abs(scores)
        # np.argmax returns the first maximum: ties break to the lowest index
        labels[start:start + rows] = np.argmax(scores, axis=1)
    return labels


def euler_to_rotation(azimuth_deg: float, elevation_deg: float, cyclo_deg: float) -> np.ndarray:
    """World-to-camera rotation R_z(cyclo) @ R_x(-elevation) @ R_y(azimuth).

    Right-handed frames, y-up world; the camera has +x right, +y up and
    looks along -z.  The camera translation is handled by the renderer.
    """
    ay, ax, az = np.radians([azimuth_deg, -elevation_deg, cyclo_deg])
    cy, sy = np.cos(ay), np.sin(ay)
    cx, sx = np.cos(ax), np.sin(ax)
    cz, sz = np.cos(az), np.sin(az)
    r_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    r_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    r_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return r_z @ r_x @ r_y


@dataclass(frozen=True)
class ViewPose:
    """Azimuth/elevation/cyclo-rotation triple; poses compare by these angles."""

    azimuth_deg: float
    elevation_deg: float
    cyclo_deg: float

    def __post_init__(self):
        if not -180.0 < self.azimuth_deg <= 180.0:
            raise ValueError("azimuth must lie in (-180, 180]")
        if not np.isfinite(self.elevation_deg):
            raise ValueError("elevation must be finite")
        if not -90.0 < self.cyclo_deg <= 90.0:
            raise ValueError("cyclo-rotation must lie in (-90, 90]")

    @property
    def rotation(self) -> np.ndarray:
        """The read-only world-to-camera rotation (see euler_to_rotation)."""
        return util.readonly(euler_to_rotation(self.azimuth_deg, self.elevation_deg, self.cyclo_deg))


@dataclass(frozen=True)
class ViewDistribution:
    """Azimuth uniform over (-180, 180]; elevation and cyclo uniform over their ranges."""

    name: str
    elevation_range: tuple
    cyclo_range: tuple


V_N = ViewDistribution("V_N", (0.0, 10.0), (0.0, 0.0))
V_D = ViewDistribution("V_D", (0.0, 50.0), (-30.0, 30.0))
VIEW_DISTRIBUTIONS = {d.name: d for d in (V_N, V_D)}


def view_distribution(name: str) -> ViewDistribution:
    try:
        return VIEW_DISTRIBUTIONS[name]
    except KeyError:
        raise ValueError(f"unknown view distribution {name!r}") from None


def sample_view(dist: ViewDistribution, seed: int) -> ViewPose:
    """One pose with each angle uniform over its interval, deterministic per seed."""
    rng = np.random.default_rng(seed)
    u = rng.random(3)
    azimuth = 180.0 - 360.0 * u[0]  # uniform over (-180, 180]
    lo, hi = dist.elevation_range
    elevation = lo + (hi - lo) * u[1]
    lo, hi = dist.cyclo_range
    cyclo = lo + (hi - lo) * u[2]  # exact lo when the interval is degenerate
    return ViewPose(float(azimuth), float(elevation), float(cyclo))


def rotate_orientations(normals, rotation) -> np.ndarray:
    """Rotate unit orientations and re-canonicalize their signs."""
    rot = np.asarray(rotation, dtype=np.float64)
    if rot.shape != (3, 3) or np.abs(rot @ rot.T - np.eye(3)).max() > 1e-9:
        raise ValueError("rotation must be a 3x3 orthonormal matrix")
    arr = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    return canonical_sign(arr @ rot.T)


def make_symmetry_label(normals, codebook: OrientationCodebook) -> np.ndarray:
    """Multilabel vector: bit k set iff some normal bins (sign-invariant) to k."""
    if codebook.support not in SIGN_INVARIANT_SUPPORTS:
        raise ValueError("symmetry labels need a sign-invariant codebook "
                         f"({' or '.join(SIGN_INVARIANT_SUPPORTS)})")
    label = np.zeros(codebook.K, dtype=bool)
    label[bin_orientations(codebook, normals, sign_invariant=True)] = True
    return label
