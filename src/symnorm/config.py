"""Every run setting: the detector's, the camera's and the run's keys, their
defaults and the rules their values must keep.

One RunConfig holds them all, so the config file and the CLI flags share one
key space and one check.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from . import util
from .errors import InputError
from .orientation import (
    HEMISPHERE,
    HORIZONTAL_CIRCLE,
    SIGN_INVARIANT_SUPPORTS,
    OrientationCodebook,
    view_distribution,
)

MAX_CODEBOOK_K = 65535  # label K is a 16-bit sample; (K, 3) directions take 1.5 MB
# plane normals have no sign, and a label map's directions all face the viewer
CODEBOOK_SUPPORTS = {"codebook": SIGN_INVARIANT_SUPPORTS, "normal_codebook": (HEMISPHERE,)}


def check_codebook(name: str, K: int, support: str) -> None:
    """Raise ValueError unless a build can write codebook `name` (a key of
    CODEBOOK_SUPPORTS) with 1 <= K <= MAX_CODEBOOK_K directions on `support`."""
    if K < 1:
        raise ValueError(f"{name}_k must be at least 1")
    if K > MAX_CODEBOOK_K:
        raise ValueError(f"{name}_k must be at most {MAX_CODEBOOK_K}")
    if support not in CODEBOOK_SUPPORTS[name]:
        raise ValueError(f"the {name}'s support must be one of {', '.join(CODEBOOK_SUPPORTS[name])}")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; fractional detector thresholds are in units
    of the mesh bbox diagonal."""

    # detector
    sample_count: int = 4000
    pair_count: int = 20000
    cluster_offset_frac: float = 0.05
    max_hypotheses: int = 32
    icp_max_iters: int = 30
    accept_residual: float = 0.02
    seed: int = 0
    # camera
    width: int = 224
    height: int = 224
    # codebooks and views
    codebook_k: int = 10
    codebook_support: str = HORIZONTAL_CIRCLE
    normal_codebook_k: int = 60
    view_setting: str = "V_N"
    per_model_views: int = 200
    max_models_per_category: int = 200
    # evaluation
    theta_deg: float = 10.0

    def __post_init__(self):
        positive = (self.sample_count, self.pair_count, self.cluster_offset_frac,
                    self.max_hypotheses, self.icp_max_iters, self.accept_residual)
        if any(not v > 0 for v in positive):
            raise ValueError("all detector thresholds must be strictly positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        check_codebook("codebook", self.codebook_k, self.codebook_support)
        check_codebook("normal_codebook", self.normal_codebook_k, HEMISPHERE)
        view_distribution(self.view_setting)
        if self.per_model_views < 0 or self.max_models_per_category < 0:
            raise ValueError("view and model counts must be nonnegative")
        if not self.theta_deg >= 0.0:
            raise ValueError("theta_deg must be nonnegative")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Parse `key = value` lines; unknown keys and bad values are rejected."""
        types = {f.name: f.type for f in fields(cls)}
        casts = {"int": int, "float": float, "str": str}
        values = {}
        for lineno, line in util.data_lines(path):
            key, sep, value = line.partition("=")
            if not sep:
                raise InputError(f"{path}: line {lineno}: expected key=value")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise InputError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in values:
                raise InputError(f"{path}: line {lineno}: repeated key {key!r}")
            try:
                values[key] = casts[types[key]](value)
            except ValueError:
                raise InputError(f"{path}: line {lineno}: bad value for {key}") from None
        try:
            return cls(**values)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None

    def merged(self, **overrides) -> "RunConfig":
        """Apply non-None overrides (CLI flags beat config-file values)."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        try:
            return replace(self, **updates) if updates else self
        except ValueError as exc:
            raise InputError(str(exc)) from None

    def symmetry_codebook(self) -> OrientationCodebook:
        return OrientationCodebook(self.codebook_k, self.codebook_support)

    def normal_codebook(self) -> OrientationCodebook:
        return OrientationCodebook(self.normal_codebook_k, HEMISPHERE)
