"""symnorm: reflection-symmetry extraction, normal-map ground truth and
detection-style evaluation for triangle meshes."""

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
    bin_orientation,
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
    reflect_point,
    reflect_points,
    refine_plane_icp,
    score_plane,
)

__version__ = "0.1.0"
