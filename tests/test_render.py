import tracemalloc

import numpy as np
import pytest

import label_oracle
import raster_oracle
import shapes
from symnorm.errors import GeometryError
from symnorm.mesh_io import TriangleMesh, parse_obj
from symnorm.orientation import HEMISPHERE, ViewPose, fibonacci_codebook
from symnorm.render import (
    BACKGROUND_DEPTH,
    CameraIntrinsics,
    LabelMap,
    NormalMap,
    discretize_normal_map,
    frame_camera,
    labels_to_normals,
    load_label_map,
    load_normal_map,
    rasterize,
    save_label_map,
    save_normal_map,
)

FRONTAL = ViewPose(0.0, 0.0, 0.0)


def frontal_square(side=1.0):
    h = side / 2.0
    verts = np.array([[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]])
    return TriangleMesh(verts, np.array([(0, 1, 2), (0, 2, 3)]))


def pixel_rays(frame, mask):
    ys, xs = np.nonzero(mask)
    dirs = np.column_stack([
        (xs + 0.5 - frame.cx) / frame.focal_px,
        (frame.cy - (ys + 0.5)) / frame.focal_px,
        -np.ones(len(xs)),
    ])
    return ys, xs, dirs


def test_frontal_square_constant_normal_and_depth():
    mesh = frontal_square()
    cam = CameraIntrinsics(width=64, height=64)
    nm = rasterize(mesh, FRONTAL, cam)
    frame = frame_camera(mesh, FRONTAL, cam)
    assert nm.mask.any() and not nm.mask.all()
    fg = nm.normals[nm.mask]
    assert np.all(fg == np.array([0.0, 0.0, 1.0]))
    assert np.all(nm.depth[nm.mask] == frame.distance)
    assert np.all(nm.depth[~nm.mask] == BACKGROUND_DEPTH)
    assert np.all(nm.normals[~nm.mask] == 0.0)


def test_rasterize_deterministic():
    mesh = shapes.icosphere(2)
    pose = ViewPose(33.0, 12.0, -7.0)
    a = rasterize(mesh, pose, CameraIntrinsics(width=96, height=96))
    b = rasterize(mesh, pose, CameraIntrinsics(width=96, height=96))
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.mask, b.mask)


def test_degenerate_bounds_rejected_at_construction():
    # coincident vertices never reach the renderer: the mesh type refuses
    # a zero bounding-box diagonal
    with pytest.raises(GeometryError):
        TriangleMesh(np.ones((3, 3)), np.array([(0, 1, 2)]))
    with pytest.raises(GeometryError):
        parse_obj("v 1 1 1\nv 1 1 1\nv 1 1 1\nf 1 2 3\n")


def test_front_facing_and_consistency_many_poses():
    rng = np.random.default_rng(0)
    cam = CameraIntrinsics(width=48, height=48)
    meshes = [shapes.cuboid(), shapes.icosphere(1), shapes.asymmetric_tetrahedron()]
    codebook = fibonacci_codebook(60, HEMISPHERE)
    for i in range(1000):
        mesh = meshes[i % len(meshes)]
        pose = ViewPose(float(rng.uniform(-180.0, 180.0)), float(rng.uniform(-80.0, 80.0)),
                        float(rng.uniform(-89.0, 90.0)))
        nm = rasterize(mesh, pose, cam)
        if nm.mask.any():
            fg = nm.normals[nm.mask]
            assert fg[:, 2].min() > 0.0
            assert np.abs(np.linalg.norm(fg, axis=1) - 1.0).max() <= 1e-6
        lm = discretize_normal_map(nm, codebook)
        assert np.array_equal(lm.labels == codebook.K, ~nm.mask)


def test_zbuffer_matches_ray_casting():
    verts = np.array([
        [-0.8, -0.7, 0.31], [0.9, -0.55, 0.29], [0.05, 0.85, 0.33],
        [-0.75, -0.6, -0.12], [0.8, -0.72, 0.55], [-0.1, 0.9, 0.2],
    ])
    mesh = TriangleMesh(verts, np.array([(0, 1, 2), (3, 4, 5)]))
    cam = CameraIntrinsics(width=16, height=16)
    nm = rasterize(mesh, FRONTAL, cam)
    frame = frame_camera(mesh, FRONTAL, cam)
    cam_verts = mesh.vertices @ FRONTAL.rotation.T - frame.center
    cam_verts[:, 2] -= frame.distance

    def ray_hit(direction, a, b, c):
        e1, e2 = b - a, c - a
        pv = np.cross(direction, e2)
        det = e1 @ pv
        if det == 0.0:
            return None
        inv = 1.0 / det
        u = (-a @ pv) * inv
        if u < 0.0 or u > 1.0:
            return None
        qv = np.cross(-a, e1)
        v = (direction @ qv) * inv
        if v < 0.0 or u + v > 1.0:
            return None
        t = (e2 @ qv) * inv
        return t if t > 0.0 else None

    for j in range(16):
        for i in range(16):
            d = np.array([(i + 0.5 - frame.cx) / frame.focal_px,
                          (frame.cy - (j + 0.5)) / frame.focal_px, -1.0])
            hits = [t for fa, fb, fc in mesh.faces
                    for t in [ray_hit(d, cam_verts[fa], cam_verts[fb], cam_verts[fc])]
                    if t is not None]
            oracle = min(hits) if hits else np.inf
            got = nm.depth[j, i]
            if np.isinf(oracle):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(oracle, abs=1e-9)


def test_no_double_coverage_on_shared_edge():
    # two triangles sharing an edge: the fill rule must assign every pixel
    # to exactly one of them, with no seam gaps inside the quad
    mesh = frontal_square(1.0)
    nm = rasterize(mesh, FRONTAL, CameraIntrinsics(width=64, height=64))
    ys, xs = np.nonzero(nm.mask)
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    assert nm.mask[y0:y1 + 1, x0:x1 + 1].all()  # no holes along the diagonal


def test_coverage_resolution_independence():
    mesh = shapes.cuboid()
    pose = ViewPose(30.0, 20.0, 0.0)
    frac = []
    for size in (224, 448):
        nm = rasterize(mesh, pose, CameraIntrinsics(width=size, height=size))
        frac.append(nm.mask.mean())
    assert abs(frac[0] - frac[1]) < 0.02


def test_discretize_requires_hemisphere():
    nm = rasterize(frontal_square(), FRONTAL, CameraIntrinsics(width=16, height=16))
    with pytest.raises(ValueError):
        discretize_normal_map(nm, fibonacci_codebook(10, "horizontal_circle"))


def test_discretize_frontal_square_hits_top_bin():
    codebook = fibonacci_codebook(60, HEMISPHERE)
    nm = rasterize(frontal_square(), FRONTAL, CameraIntrinsics(width=32, height=32))
    lm = discretize_normal_map(nm, codebook)
    # bin 0 holds the largest z of the hemisphere lattice, nearest to +z
    assert np.all(lm.labels[nm.mask] == 0)
    assert np.all(lm.labels[~nm.mask] == codebook.K)


def test_all_background_roundtrip():
    codebook = fibonacci_codebook(60, HEMISPHERE)
    lm = LabelMap(np.full((4, 4), codebook.K, dtype=np.int32), codebook.K)
    nm = labels_to_normals(lm, codebook)
    assert not nm.mask.any()
    assert np.all(nm.depth == BACKGROUND_DEPTH)


def test_labels_to_normals_constant_roundtrip():
    codebook = fibonacci_codebook(60, HEMISPHERE)
    labels = np.full((5, 5), 17, dtype=np.int32)
    labels[0, 0] = codebook.K
    nm = labels_to_normals(LabelMap(labels, codebook.K), codebook)
    assert np.all(nm.normals[1:, 1:] == codebook.directions[17])
    assert not nm.mask[0, 0]
    assert np.all(nm.depth == BACKGROUND_DEPTH)
    assert nm.face_ids is None
    lm2 = label_oracle.discretize_normal_map(nm, codebook)
    assert np.array_equal(lm2.labels, labels)
    with pytest.raises(ValueError, match="face indices"):
        discretize_normal_map(nm, codebook)


def test_labels_to_normals_codebook_mismatch():
    codebook = fibonacci_codebook(30, HEMISPHERE)
    lm = LabelMap(np.zeros((2, 2), dtype=np.int32), 60)
    with pytest.raises(ValueError):
        labels_to_normals(lm, codebook)


def test_label_map_validation():
    with pytest.raises(ValueError):
        LabelMap(np.array([[61]], dtype=np.int32), 60)
    with pytest.raises(ValueError):
        LabelMap(np.array([[-1]], dtype=np.int32), 60)


def test_roundtrip_quantization_bound():
    codebook = fibonacci_codebook(60, HEMISPHERE)
    nm = rasterize(shapes.icosphere(2), ViewPose(40.0, 25.0, 10.0),
                   CameraIntrinsics(width=96, height=96))
    back = labels_to_normals(discretize_normal_map(nm, codebook), codebook)
    dots = np.einsum("ij,ij->i", nm.normals[nm.mask], back.normals[nm.mask])
    worst = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0))).max()
    assert worst <= 1.5 * np.degrees(np.arccos(1.0 - 2.0 / 60.0))


@pytest.mark.parametrize("K", [1, 7, 60, 300])
def test_face_labels_match_the_per_pixel_oracle(K):
    codebook = fibonacci_codebook(K, HEMISPHERE)
    rng = np.random.default_rng(K)
    cams = [CameraIntrinsics(width=64, height=64), CameraIntrinsics(width=37, height=23)]
    meshes = [shapes.cuboid(), shapes.square_plate(), shapes.asymmetric_tetrahedron(),
              shapes.icosphere(2), shapes.icosphere(3), degenerate_soup(), doubled_icosphere()]
    for mesh in meshes:
        for cam in cams:
            for _ in range(6):
                nm = rasterize(mesh, random_pose(rng), cam)
                got = discretize_normal_map(nm, codebook)
                assert got.labels.tobytes() == label_oracle.discretize_normal_map(
                    nm, codebook).labels.tobytes()
    nm = rasterize(shapes.icosphere(3), ViewPose(12.0, 30.0, -20.0), CameraIntrinsics())
    assert discretize_normal_map(nm, codebook).labels.tobytes() == \
        label_oracle.discretize_normal_map(nm, codebook).labels.tobytes()


def test_face_labels_match_the_oracle_at_the_largest_codebook():
    codebook = fibonacci_codebook(65535, HEMISPHERE)
    rng = np.random.default_rng(65535)
    for mesh in (shapes.cuboid(), shapes.icosphere(2)):
        for _ in range(3):
            nm = rasterize(mesh, random_pose(rng), CameraIntrinsics(width=24, height=24))
            assert discretize_normal_map(nm, codebook).labels.tobytes() == \
                label_oracle.discretize_normal_map(nm, codebook).labels.tobytes()


def test_rendered_face_indices_name_the_face_each_pixel_shows():
    mesh = shapes.icosphere(2)
    nm = rasterize(mesh, ViewPose(33.0, 12.0, -7.0), CameraIntrinsics(width=96, height=96))
    assert np.array_equal(nm.face_ids >= 0, nm.mask) and not nm.face_ids.flags.writeable
    va, vb, vc = (mesh.vertices @ ViewPose(33.0, 12.0, -7.0).rotation.T)[mesh.faces].transpose(1, 0, 2)
    n = np.cross(vb - va, vc - va)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    shown = np.abs(n[nm.face_ids[nm.mask]])
    assert np.abs(shown - np.abs(nm.normals[nm.mask])).max() < 1e-12
    with pytest.raises(ValueError, match="face indices"):
        NormalMap(nm.normals, nm.mask, nm.depth, np.zeros(nm.mask.shape, dtype=np.int32))


def test_normal_map_validation():
    good = np.zeros((2, 2, 3))
    good[0, 0] = [0.0, 0.0, 1.0]
    mask = np.array([[True, False], [False, False]])
    depth = np.full((2, 2), BACKGROUND_DEPTH)
    depth[0, 0] = 1.0
    NormalMap(good, mask, depth)
    with pytest.raises(ValueError):  # masked normal not unit
        NormalMap(good * 0.5, mask, depth)
    with pytest.raises(ValueError):  # masked normal facing away
        bad = good.copy()
        bad[0, 0] = [0.0, 0.0, -1.0]
        NormalMap(bad, mask, depth)
    with pytest.raises(ValueError):  # background depth not sentinel
        NormalMap(good, mask, np.ones((2, 2)))


def test_save_load_roundtrip(tmp_path):
    mesh = shapes.icosphere(1)
    pose = ViewPose(10.0, 5.0, 0.0)
    nm = rasterize(mesh, pose, CameraIntrinsics(width=48, height=48))
    codebook = fibonacci_codebook(60, HEMISPHERE)
    lm = discretize_normal_map(nm, codebook)
    normal_path, depth_path = save_normal_map(tmp_path / "v000", nm)
    save_label_map(tmp_path / "v000_labels.pgm", lm)
    again = load_normal_map(normal_path)
    assert np.array_equal(again.mask, nm.mask)
    # float32 storage: normals equal to single precision
    assert np.abs(again.normals - nm.normals.astype(np.float32)).max() == 0.0
    lagain = load_label_map(tmp_path / "v000_labels.pgm", codebook.K)
    assert np.array_equal(lagain.labels, lm.labels)


def assert_matches_oracle(mesh, pose, cam):
    got = rasterize(mesh, pose, cam)
    want = raster_oracle.rasterize(mesh, pose, cam)
    assert got.normals.tobytes() == want.normals.tobytes()
    assert got.depth.tobytes() == want.depth.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes()
    return got


def random_pose(rng):
    return ViewPose(float(rng.uniform(-180.0, 180.0)), float(rng.uniform(-80.0, 80.0)),
                    float(rng.uniform(-89.0, 90.0)))


def test_rasterize_matches_per_face_oracle():
    two_planes = TriangleMesh(np.array([
        [-0.8, -0.7, 0.31], [0.9, -0.55, 0.29], [0.05, 0.85, 0.33],
        [-0.75, -0.6, -0.12], [0.8, -0.72, 0.55], [-0.1, 0.9, 0.2],
    ]), np.array([(0, 1, 2), (3, 4, 5)]))
    fixtures = [
        (frontal_square(), FRONTAL, CameraIntrinsics(width=64, height=64)),
        (two_planes, FRONTAL, CameraIntrinsics(width=16, height=16)),
        (shapes.icosphere(2), ViewPose(33.0, 12.0, -7.0), CameraIntrinsics(width=96, height=96)),
        (shapes.cuboid(), ViewPose(30.0, 20.0, 0.0), CameraIntrinsics()),
    ]
    # four faces meeting at the center along the image axes: at FRONTAL with
    # odd image sizes, pixel centers lie exactly on those edges, so the fill
    # rule decides which face, or for one face alone whether any, owns them
    diamond = np.array([[0.0, 0.0, 0.3], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                        [-1.0, 0.0, 0.0]])
    quarters = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
    for cam in (CameraIntrinsics(width=33, height=33), CameraIntrinsics(width=97, height=61)):
        fixtures.append((TriangleMesh(diamond, quarters), FRONTAL, cam))
        fixtures.extend((TriangleMesh(diamond, quarters[[i]]), FRONTAL, cam) for i in range(4))
    for mesh, pose, cam in fixtures:
        assert assert_matches_oracle(mesh, pose, cam).mask.any()
    rng = np.random.default_rng(11)
    meshes = [shapes.cuboid(), shapes.square_plate(), shapes.asymmetric_tetrahedron(),
              shapes.icosphere(1), shapes.icosphere(2), shapes.icosphere(3)]
    cams = [CameraIntrinsics(width=48, height=48), CameraIntrinsics(width=97, height=61),
            CameraIntrinsics(width=1, height=1)]
    for cam in cams:
        for mesh in meshes:
            for _ in range(2 if len(mesh.faces) > 100 else 6):
                assert_matches_oracle(mesh, random_pose(rng), cam)


def degenerate_soup(faces=slice(None)):
    """The faces of test_rasterize_matches_oracle_on_degenerate_faces: good,
    collinear, repeated-vertex and edge-on (at FRONTAL) ones."""
    verts = np.array([
        [-1.0, -1.0, 0.0], [1.0, -1.0, 0.1], [0.0, 1.0, -0.1],   # good
        [-0.5, 0.2, 0.3], [0.0, 0.4, 0.3], [0.5, 0.6, 0.3],     # collinear
        [-0.8, -0.5, -0.4], [0.8, -0.5, -0.4], [0.0, -0.5, 0.6],  # edge-on at FRONTAL
        [0.2, -0.9, 0.5], [0.9, 0.3, 0.45], [-0.6, 0.7, 0.2],   # good, in front
    ])
    all_faces = np.array([(0, 1, 2), (3, 3, 4), (3, 4, 5), (6, 7, 8), (9, 10, 11), (0, 0, 0),
                          (9, 11, 10)])
    return TriangleMesh(verts, all_faces[faces])


def doubled_icosphere():
    """The mesh of test_rasterize_matches_oracle_on_duplicated_faces: every
    face of icosphere(1) four times, copied, rolled and reversed."""
    base = shapes.icosphere(1)
    a, b, c = base.faces.T
    return TriangleMesh(base.vertices, np.concatenate(
        [base.faces, base.faces, np.column_stack([b, c, a]), np.column_stack([a, c, b])]))


def test_rasterize_matches_oracle_on_degenerate_faces():
    # FRONTAL is the identity rotation, so the face in the plane y = -0.5 is
    # exactly edge-on (n_z == 0) there
    verts = np.array([
        [-1.0, -1.0, 0.0], [1.0, -1.0, 0.1], [0.0, 1.0, -0.1],   # good
        [-0.5, 0.2, 0.3], [0.0, 0.4, 0.3], [0.5, 0.6, 0.3],     # collinear
        [-0.8, -0.5, -0.4], [0.8, -0.5, -0.4], [0.0, -0.5, 0.6],  # edge-on at FRONTAL
        [0.2, -0.9, 0.5], [0.9, 0.3, 0.45], [-0.6, 0.7, 0.2],   # good, in front
    ])
    faces = np.array([(0, 1, 2), (3, 3, 4), (3, 4, 5), (6, 7, 8), (9, 10, 11), (0, 0, 0), (9, 11, 10)])
    mesh = TriangleMesh(verts, faces)
    rng = np.random.default_rng(12)
    for cam in (CameraIntrinsics(width=32, height=32), CameraIntrinsics(width=97, height=61)):
        assert assert_matches_oracle(mesh, FRONTAL, cam).mask.any()
        for _ in range(8):
            assert_matches_oracle(mesh, random_pose(rng), cam)


def test_rasterize_matches_oracle_on_duplicated_faces():
    # exact copies tie in depth; rolled and reversed copies lie in the same
    # plane but their normals and depths may differ in the last bit
    base = shapes.icosphere(1)
    a, b, c = base.faces.T
    faces = np.concatenate([base.faces, base.faces, np.column_stack([b, c, a]),
                            np.column_stack([a, c, b])])
    mesh = TriangleMesh(base.vertices, faces)
    rng = np.random.default_rng(13)
    for cam in (CameraIntrinsics(width=64, height=64), CameraIntrinsics(width=61, height=97)):
        for _ in range(6):
            assert_matches_oracle(mesh, random_pose(rng), cam)


def test_rasterize_matches_oracle_when_no_face_is_drawable():
    # only the collinear, repeated-vertex and edge-on faces of the soup
    for cam in (CameraIntrinsics(width=32, height=32), CameraIntrinsics(width=97, height=61)):
        nm = assert_matches_oracle(degenerate_soup([1, 2, 3, 5]), FRONTAL, cam)
        assert not nm.mask.any() and np.all(nm.face_ids == -1)


def test_rasterize_matches_oracle_when_a_bbox_covers_the_image():
    # corners on the bounding circle at 45, 135 and 315 degrees reach past
    # every pixel center of a 1x1, 1x2 or 2x2 image
    angles = np.radians([45.0, 135.0, 315.0])
    mesh = TriangleMesh(np.column_stack([np.cos(angles), np.sin(angles), np.zeros(3)]),
                        np.array([(0, 1, 2)]))
    for width, height in ((1, 1), (1, 2), (2, 2)):
        cam = CameraIntrinsics(width=width, height=height)
        frame = frame_camera(mesh, FRONTAL, cam)
        cam_verts = mesh.vertices - frame.center
        cam_verts[:, 2] -= frame.distance
        us = frame.cx - frame.focal_px * cam_verts[:, 0] / cam_verts[:, 2]
        vs = frame.cy + frame.focal_px * cam_verts[:, 1] / cam_verts[:, 2]
        assert us.min() < 0.5 and us.max() > width - 0.5
        assert vs.min() < 0.5 and vs.max() > height - 0.5
        assert_matches_oracle(mesh, FRONTAL, cam)


def test_rasterize_memory_stays_bounded():
    # 200 overlapping triangles each spanning most of the frame: about 4M
    # (face, pixel) candidates, several hundred MB if tested all at once
    count = 200
    angles = np.arange(count)[:, None] * (0.3 / count) + np.radians([90.0, 210.0, 330.0])
    depths = np.broadcast_to(np.linspace(-0.05, 0.05, count)[:, None], angles.shape)
    verts = np.stack([np.cos(angles), np.sin(angles), depths], axis=2).reshape(-1, 3)
    mesh = TriangleMesh(verts, np.arange(3 * count).reshape(count, 3))
    tracemalloc.start()
    try:
        nm = rasterize(mesh, FRONTAL, CameraIntrinsics(width=224, height=224))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nm.mask.mean() > 0.2
    assert peak < 32 * 2 ** 20
