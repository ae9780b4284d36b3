import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import chisquare

import shapes
from symnorm.config import RunConfig
from symnorm.errors import EmptyMeshError, GeometryError, MeshParseError, NoSamplableAreaError
from symnorm.mesh_io import (
    TriangleMesh,
    face_areas,
    parse_obj,
    sample_surface,
    serialize_obj,
)
from symnorm.orientation import ViewPose
from symnorm.render import rasterize
from symnorm.symmetry import detect_symmetries

MINIMAL = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


def test_parse_minimal():
    mesh = parse_obj(MINIMAL)
    assert mesh.vertices.shape == (3, 3)
    assert mesh.faces.tolist() == [[0, 1, 2]]
    assert mesh.bbox_diagonal == pytest.approx(np.sqrt(2.0))


def test_parse_accepts_bytes_and_crlf():
    mesh = parse_obj(MINIMAL.replace("\n", "\r\n").encode())
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_quad_fan_triangulation():
    mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_negative_indices_resolve_against_running_count():
    mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_face_token_forms():
    mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/4 2//7 3/5/9\n")
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_skipped_keywords_and_comments():
    text = ("# header\nmtllib foo.mtl\no thing\ng part\ns off\nusemtl mat\n"
            "vn 0 0 1\nvt 0.5 0.5\nv 0 0 0\nv 2 0 0\nv 0 2 0\nf 1 2 3\n")
    mesh = parse_obj(text)
    assert len(mesh.vertices) == 3 and len(mesh.faces) == 1


def test_vertex_color_extras_ignored():
    mesh = parse_obj("v 0 0 0 0.2 0.3 0.4\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    assert mesh.vertices[0].tolist() == [0.0, 0.0, 0.0]


def test_malformed_numeric_token_reports_line():
    with pytest.raises(MeshParseError) as err:
        parse_obj("v 0 0 0\nv 1 zero 0\nv 0 1 0\nf 1 2 3\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
def test_non_finite_coordinate_reports_line(token):
    with pytest.raises(MeshParseError) as info:
        parse_obj(f"v 0 0 0\nv 1 {token} 0\nv 0 1 0\nf 1 2 3\n")
    assert info.value.line == 2


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_mesh_rejects_non_finite_vertices(value):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, value, 0.0]])
    with pytest.raises(GeometryError, match="vertices must be finite"):
        TriangleMesh(verts, np.array([(0, 1, 2)]))


def test_face_index_out_of_range():
    with pytest.raises(MeshParseError):
        parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(MeshParseError):
        parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")


def test_face_needs_three_vertices():
    with pytest.raises(MeshParseError):
        parse_obj("v 0 0 0\nv 1 0 0\nf 1 2\n")


def test_empty_mesh_errors():
    with pytest.raises(EmptyMeshError):
        parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    with pytest.raises(EmptyMeshError):
        parse_obj("# nothing\n")


def test_serialize_roundtrip_is_bitwise():
    mesh = shapes.asymmetric_tetrahedron()
    jittered = TriangleMesh(mesh.vertices + np.pi * 1e-3, mesh.faces)
    again = parse_obj(serialize_obj(jittered))
    assert np.array_equal(again.vertices, jittered.vertices)
    assert np.array_equal(again.faces, jittered.faces)


@pytest.mark.parametrize("tail", ["", "v 10 10 10\n"], ids=["plain", "unused-vertex"])
def test_leading_byte_order_mark_is_ignored(tail):
    """A UTF-8 byte-order mark is not part of the first line: the first vertex
    is kept, so the faces index the vertices they name."""
    cuboid = shapes.cuboid()
    mesh = parse_obj(("\ufeff" + serialize_obj(cuboid) + tail).encode("utf-8"))
    assert mesh.vertices.tobytes() == cuboid.vertices.tobytes()
    assert mesh.faces.tobytes() == cuboid.faces.tobytes()


def test_single_triangle_samples_lie_on_it():
    mesh = shapes.single_triangle()
    s = sample_surface(mesh, 100, seed=3)
    assert len(s) == 100
    assert np.all(s.source_face == 0)
    # on the z=0 plane within 1e-6 * diagonal, barycentric inside
    assert np.abs(s.points[:, 2]).max() <= 1e-6 * mesh.bbox_diagonal
    u, v = s.points[:, 0], s.points[:, 1]
    assert (u >= -1e-9).all() and (v >= -1e-9).all()
    assert (u + v <= 1.0 + 1e-9).all()


def test_sample_normals_unit_and_winding_oriented():
    s = sample_surface(shapes.single_triangle(), 50, seed=0)
    assert np.abs(np.linalg.norm(s.normals, axis=1) - 1.0).max() <= 1e-6
    assert np.allclose(s.normals, [0.0, 0.0, 1.0])


def test_area_weighting_within_three_sigma():
    mesh = shapes.two_triangles_1_3()
    s = sample_surface(mesh, 4000, seed=11)
    count_small = int((s.source_face == 0).sum())
    # binomial n=4000 p=0.25: 3 sigma = 3 * sqrt(4000 * 0.25 * 0.75) = 82.2
    assert abs(count_small - 1000) <= 83


def test_area_proportionality_chi_square_over_ten_seeds():
    mesh = shapes.two_triangles_1_3()
    counts = np.zeros(2)
    for seed in range(10):
        s = sample_surface(mesh, 4000, seed=seed)
        counts[0] += (s.source_face == 0).sum()
        counts[1] += (s.source_face == 1).sum()
    result = chisquare(counts, f_exp=[10000.0, 30000.0])
    assert result.pvalue > 0.001


def test_sampling_determinism():
    mesh = shapes.cuboid()
    a = sample_surface(mesh, 500, seed=42)
    b = sample_surface(mesh, 500, seed=42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.source_face, b.source_face)
    c = sample_surface(mesh, 500, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_zero_count_gives_empty_samples():
    s = sample_surface(shapes.cuboid(), 0, seed=0)
    assert len(s) == 0
    assert s.bbox_diagonal == shapes.cuboid().bbox_diagonal


def test_degenerate_faces_excluded_from_sampling():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = TriangleMesh(verts, np.array([(0, 1, 2), (0, 1, 3)]))  # first face collinear
    assert face_areas(mesh)[0] == 0.0
    s = sample_surface(mesh, 200, seed=1)
    assert np.all(s.source_face == 1)


def test_all_degenerate_faces_error():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mesh = TriangleMesh(verts, np.array([(0, 1, 2)]))
    with pytest.raises(NoSamplableAreaError):
        sample_surface(mesh, 10, seed=0)


def test_samples_lie_on_source_face_plane():
    mesh = shapes.icosphere(1)
    s = sample_surface(mesh, 2000, seed=5)
    a = mesh.vertices[mesh.faces[s.source_face, 0]]
    off = np.abs(np.einsum("ij,ij->i", s.points - a, s.normals))
    assert off.max() <= 1e-6 * mesh.bbox_diagonal


def test_sample_spread_covers_surface():
    mesh = shapes.cuboid()
    s = sample_surface(mesh, 4000, seed=0)
    # every face of the cuboid gets samples
    assert len(np.unique(s.source_face)) == 12
    tree = cKDTree(s.points)
    d, _ = tree.query(mesh.vertices)
    assert d.max() < 0.5


def test_unreferenced_vertices_change_nothing():
    """A vertex no face uses neither widens the bbox, which frames the camera
    and scales the detector's thresholds, nor shows in any output."""
    cuboid = shapes.cuboid()
    padded = TriangleMesh(np.vstack([cuboid.vertices, [[30.0, 0.0, 0.0]]]), cuboid.faces)
    parsed = parse_obj(serialize_obj(cuboid) + "v 30 0 0\n")
    config = RunConfig(max_hypotheses=8)
    pose, cam = ViewPose(30.0, 10.0, 0.0), RunConfig(width=64, height=64)

    def outputs(mesh):
        nm = rasterize(mesh, pose, cam)
        planes = [(p.normal.tobytes(), p.offset, p.residual)
                  for p in detect_symmetries(mesh, config)]
        return nm.normals.tobytes(), nm.face_ids.tobytes(), planes

    want = outputs(cuboid)
    assert want[2]
    for mesh in (padded, parsed):
        assert outputs(mesh) == want
        assert mesh.vertices.tobytes() == cuboid.vertices.tobytes()
        assert mesh.faces.tolist() == cuboid.faces.tolist()


def test_unreferenced_vertices_are_dropped_and_faces_reindexed():
    verts = np.array([[9.0, 9.0, 9.0], [0.0, 0.0, 0.0], [7.0, 7.0, 7.0],
                      [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    mesh = TriangleMesh(verts, np.array([[3, 1, 4], [1, 3, 5]]))
    assert mesh.vertices.tolist() == verts[[1, 3, 4, 5]].tolist()
    assert mesh.faces.tolist() == [[1, 0, 2], [0, 1, 3]]
    assert mesh.bbox_diagonal == pytest.approx(np.sqrt(3.0))
    # the checks of the whole input still come first
    with pytest.raises(GeometryError, match="finite"):
        TriangleMesh(np.vstack([verts, [[np.nan, 0.0, 0.0]]]), np.array([[3, 1, 4]]))
