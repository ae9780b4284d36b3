"""symnorm: reflection-symmetry extraction, normal-map ground truth and
detection-style evaluation for triangle meshes."""

import os

# The package's matrix products are small (n x 3 by 3 x K).  OpenBLAS gains
# no wall time on them from its helper threads, which spin between calls
# and compete with the detector's KD-tree threads for the cores: on two
# cores a dense build burnt a quarter more CPU and its wall time swung twice
# as widely.  This must run before numpy loads; a value already in the
# environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .evaluation import (
    NormalMetrics,
    PRCurve,
    aggregate_by_category,
    angular_distance_sym,
    ap_symmetry,
    normal_metrics,
    random_baseline,
)
from .mesh_io import SurfaceSamples, TriangleMesh, parse_obj, parse_obj_file, sample_surface, serialize_obj
from .orientation import (
    OrientationCodebook,
    ViewDistribution,
    ViewPose,
    V_D,
    V_N,
    euler_to_rotation,
    fibonacci_codebook,
    make_symmetry_label,
    rotate_orientations,
    sample_view,
)
from .render import (
    CameraIntrinsics,
    LabelMap,
    NormalMap,
    discretize_normal_map,
    labels_to_normals,
    rasterize,
)
from .symmetry import (
    DetectorConfig,
    SymmetryPlane,
    dedupe_planes,
    detect_symmetries,
    generate_hypotheses,
    reflect_points,
    refine_plane_icp,
    score_plane,
)

__version__ = "0.1.0"
