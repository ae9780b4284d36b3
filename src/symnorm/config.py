"""Flat key=value run configuration merging every pipeline knob.

A RunConfig is itself the DetectorConfig and the CameraIntrinsics of a run,
so the config file and the CLI flags share one key space.
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
from .render import CameraIntrinsics
from .symmetry import DetectorConfig


def check_symmetry_codebook(K: int, support: str) -> None:
    """Raise ValueError unless symmetry labels can bin plane normals, which
    have no sign, into K directions on `support`."""
    if support not in SIGN_INVARIANT_SUPPORTS:
        raise ValueError(f"codebook_support must be one of {', '.join(SIGN_INVARIANT_SUPPORTS)}")


def check_normal_codebook(K: int, support: str) -> None:
    """Raise ValueError unless label maps can use K directions on `support`:
    the hemisphere, whose directions all face the viewer, and K <= 65535,
    since label K, the background, is a 16-bit sample."""
    if support != HEMISPHERE:
        raise ValueError(f"the normal codebook's support must be {HEMISPHERE}")
    if K > 65535:
        raise ValueError("normal_codebook_k must be at most 65535")


@dataclass(frozen=True)
class RunConfig(DetectorConfig, CameraIntrinsics):
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
        DetectorConfig.__post_init__(self)
        CameraIntrinsics.__post_init__(self)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.codebook_k < 1 or self.normal_codebook_k < 1:
            raise ValueError("codebook sizes must be at least 1")
        check_symmetry_codebook(self.codebook_k, self.codebook_support)
        check_normal_codebook(self.normal_codebook_k, HEMISPHERE)
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
        with util.open_text(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
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
