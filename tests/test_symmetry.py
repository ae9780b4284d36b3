from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

import cluster_oracle
import icp_oracle
import shapes
from symnorm import symmetry
from symnorm.errors import (
    DegenerateCorrespondencesError,
    InputError,
    InsufficientGeometryError,
    RefinementDivergedError,
)
from symnorm.mesh_io import SurfaceSamples, TriangleMesh, sample_surface
from symnorm.orientation import canonical_sign, euler_to_rotation
from symnorm.config import RunConfig
from symnorm.symmetry import (
    SymmetryPlane,
    dedupe_planes,
    detect_symmetries,
    generate_hypotheses,
    read_planes,
    refine_plane_icp,
    reflect_points,
    score_plane,
    write_planes,
)


def sym_angle_matrix(a, b):
    return np.degrees(np.arccos(np.clip(np.abs(np.asarray(a) @ np.asarray(b).T), 0.0, 1.0)))


def cloud_samples(points, diag=None):
    """Wrap a bare point cloud; normals are placeholders (all +z)."""
    pts = np.asarray(points, dtype=np.float64)
    if diag is None:
        diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return SurfaceSamples(pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)),
                          np.zeros(len(pts), dtype=np.int64), diag)


def perturbed(normal, angle_deg, rng):
    axis = np.cross(normal, rng.normal(size=3))
    axis /= np.linalg.norm(axis)
    a = np.radians(angle_deg)
    out = np.cos(a) * normal + np.sin(a) * np.cross(axis, normal)
    return out / np.linalg.norm(out)


def test_reflect_examples():
    z0 = SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0)
    assert reflect_points(np.array([1.0, 2.0, 3.0]), z0).tolist() == [1.0, 2.0, -3.0]
    assert reflect_points(np.array([4.0, -1.0, 0.0]), z0).tolist() == [4.0, -1.0, 0.0]
    x_half = SymmetryPlane(np.array([1.0, 0.0, 0.0]), 0.5)
    assert reflect_points(np.array([2.0, 0.0, 0.0]), x_half).tolist() == [-1.0, 0.0, 0.0]


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=80, deadline=None)
def test_reflection_is_involution(seed):
    rng = np.random.default_rng(seed)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    plane = SymmetryPlane(n, float(rng.normal()))
    pts = rng.normal(size=(16, 3)) * 10.0
    assert np.abs(reflect_points(reflect_points(pts, plane), plane) - pts).max() <= 1e-9


def test_plane_canonicalization_flips_offset():
    p = SymmetryPlane(np.array([0.0, 0.0, -1.0]), 2.0)
    assert p.normal.tolist() == [0.0, 0.0, 1.0]
    assert p.offset == -2.0


def test_plane_validation():
    with pytest.raises(ValueError):
        SymmetryPlane(np.array([0.0, 0.0, 0.5]), 0.0)
    with pytest.raises(ValueError):
        SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0, residual=-0.1)
    with pytest.raises(ValueError):
        SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0, residual=float("nan"))
    for offset in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="plane offset must be finite"):
            SymmetryPlane(np.array([0.0, 0.0, 1.0]), float(offset))


def test_detector_config_validation():
    with pytest.raises(ValueError):
        RunConfig(sample_count=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        RunConfig(seed=-1)


def test_two_point_hypothesis():
    # normals perpendicular to the pair axis are reflection-compatible
    samples = SurfaceSamples(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                             np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
                             np.zeros(2, dtype=np.int64), 1.0)
    planes = generate_hypotheses(samples, RunConfig(pair_count=64))
    assert len(planes) == 1
    assert np.allclose(planes[0].normal, [1.0, 0.0, 0.0])
    assert planes[0].offset == pytest.approx(0.5)


def test_insufficient_geometry():
    one = cloud_samples(np.zeros((1, 3)), diag=1.0)
    with pytest.raises(InsufficientGeometryError):
        generate_hypotheses(one, RunConfig())
    dup = cloud_samples(np.zeros((5, 3)), diag=1.0)
    with pytest.raises(InsufficientGeometryError):
        generate_hypotheses(dup, RunConfig())


def test_cuboid_vote_peaks_cover_axis_planes():
    samples = sample_surface(shapes.cuboid(), 8000, seed=0)
    hyps = generate_hypotheses(samples, shapes.SUITE_CONFIG)
    # every axis plane owns a returned cluster within the clustering window
    # with a near-zero offset (flat-face pair ridges also rank highly, so
    # the axis peaks need not be the literal top three)
    normals = np.array([h.normal for h in hyps])
    offsets = np.array([h.offset for h in hyps])
    for axis in np.eye(3):
        angles = sym_angle_matrix(normals, axis[None, :]).ravel()
        near = np.flatnonzero(angles <= symmetry.CLUSTER_ANGLE_DEG)
        assert near.size, f"no cluster near axis {axis}"
        assert np.abs(offsets[near]).min() <= 0.05 * samples.bbox_diagonal
    # and the single most-voted cluster is one of the true planes
    assert sym_angle_matrix(np.eye(3), normals[:1]).min() <= symmetry.CLUSTER_ANGLE_DEG


def fixture_votes(monkeypatch, mesh, config):
    """The density-ordered votes `generate_hypotheses` clusters for a mesh."""
    seen = []

    def capture(normals, offsets, cfg, diag):
        seen.append((normals, offsets, diag))
        return []

    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "_cluster_votes", capture)
        generate_hypotheses(sample_surface(mesh, config.sample_count, config.seed), config)
    return seen[0]


def assert_clusters_match_oracle(normals, offsets, config, diag):
    """Every cluster (max_hypotheses lifted) with the oracle's bytes and order."""
    config = replace(config, max_hypotheses=len(normals))
    got = symmetry._cluster_votes(normals, offsets, config, diag)
    want = cluster_oracle.cluster_votes(normals, offsets, config, diag)
    assert [(p.normal.tobytes(), p.offset) for p in got] == \
        [(p.normal.tobytes(), p.offset) for p in want]
    return got


@pytest.mark.parametrize("mesh, config, seed", [
    (shapes.cuboid, shapes.SUITE_CONFIG, 1),
    (shapes.square_plate, RunConfig(), 2),
    (shapes.hexagonal_prism, shapes.SUITE_CONFIG, 3),
    (shapes.asymmetric_tetrahedron, RunConfig(), 4),
    (lambda: shapes.icosphere(1), shapes.SUITE_CONFIG, 5),
    (lambda: shapes.icosphere(2), RunConfig(), 6),
    (lambda: shapes.icosphere(3), shapes.SUITE_CONFIG, 7),
], ids=["cuboid", "plate", "hex_prism", "tetrahedron", "icosphere1", "icosphere2", "icosphere3"])
def test_cluster_sweep_matches_oracle_on_fixtures(monkeypatch, mesh, config, seed):
    normals, offsets, diag = fixture_votes(monkeypatch, mesh(), replace(config, seed=seed))
    assert_clusters_match_oracle(normals, offsets, config, diag)


def adversarial_votes(rng, n, config):
    """Unit votes in canonical sign with offsets: random planes, exact
    duplicates, planes tilted by exactly the cluster angle from an earlier
    vote, and horizontal planes on the sign-canonicalization boundary.
    Also returns the (tilted, original) index pairs."""
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.choice([-0.3, 0.0, 0.2, 0.5], size=n) + rng.normal(scale=0.01, size=n)
    theta = np.radians(symmetry.CLUSTER_ANGLE_DEG)
    tilted = []
    for i, kind in enumerate(rng.integers(0, 4, size=n)):
        if i == 0 or kind == 0:
            continue
        j = rng.integers(0, i)
        if kind == 1:
            normals[i], offsets[i] = normals[j], offsets[j]
        elif kind == 2:
            side = np.cross(normals[j], rng.normal(size=3))
            side /= np.linalg.norm(side)
            normals[i] = np.cos(theta) * normals[j] + np.sin(theta) * side
            offsets[i] = offsets[j] + rng.choice([0.0, config.cluster_offset_frac])
            tilted.append((i, j))
        else:
            a = rng.choice([0.0, np.pi]) + rng.choice([0.0, 1e-17, -1e-17, 1e-9])
            normals[i] = [np.cos(a), np.sin(a), 0.0]
    canon = canonical_sign(normals)
    flipped = np.einsum("ij,ij->i", canon, normals) < 0.0
    return canon, np.where(flipped, -offsets, offsets), tilted


def test_cluster_sweep_matches_oracle_on_adversarial_votes(monkeypatch):
    rng = np.random.default_rng(2024)
    on_threshold = 0
    for case in range(40):
        angle = rng.choice([0.05, 0.5, 5.0, 10.0, 30.0, 89.5, 89.9])
        monkeypatch.setattr(symmetry, "CLUSTER_ANGLE_DEG", float(angle))
        config = RunConfig(cluster_offset_frac=float(rng.choice([0.05, 0.2])))
        n = int(rng.integers(1, 400))
        normals, offsets, tilted = adversarial_votes(rng, n, config)
        assert_clusters_match_oracle(normals, offsets, config, 1.0)
        cos_thresh = np.cos(np.radians(angle))
        on_threshold += sum(abs(abs(normals[i] @ normals[j]) - cos_thresh) <= 1e-12
                            for i, j in tilted)
    assert on_threshold  # the tilted votes put some decisions on the threshold


def test_cluster_sweep_finds_a_representative_across_a_cell_boundary():
    # the representative sits on the grid plane x = 0 and the vote lies
    # almost one chord of the angle window to its -x side: the two fall in
    # adjacent cells only if the cell edge is at least that chord
    config = RunConfig()
    theta = np.radians(symmetry.CLUSTER_ANGLE_DEG - 0.01)
    normals = np.array([[0.0, 0.0, 1.0], [-np.sin(theta), 0.0, np.cos(theta)]])
    planes = assert_clusters_match_oracle(normals, np.zeros(2), config, 1.0)
    assert len(planes) == 1


def test_cluster_sweep_single_and_identical_votes():
    config = RunConfig()
    v = canonical_sign(np.array([[0.3, -0.4, 0.5]]) / np.linalg.norm([0.3, -0.4, 0.5]))
    assert len(assert_clusters_match_oracle(v, np.array([0.25]), config, 1.0)) == 1
    same = assert_clusters_match_oracle(np.repeat(v, 300, axis=0), np.full(300, 0.25), config, 1.0)
    assert len(same) == 1


def test_cluster_sweep_exact_tie_goes_to_the_lowest_index():
    s, c = np.sin(np.radians(6.0)), np.cos(np.radians(6.0))
    # two clusters 12 degrees apart, then a vote 6 degrees from each
    normals = np.array([[s, 0.0, c], [-s, 0.0, c], [0.0, 0.0, 1.0]])
    planes = assert_clusters_match_oracle(normals, np.zeros(3), RunConfig(), 1.0)
    assert planes[0].normal[0] > 0.0  # the lowest index won the tie


def test_cluster_sweep_cross_cell_tie_goes_to_the_lowest_index():
    # cluster 0 lies 6 degrees from -x, in the cell of -v only, and cluster 1
    # 6 degrees from +x, in the cell of v: the sweep meets cluster 1 first,
    # and the vote v = +x ties the two exactly (|-c| == |c|)
    s, c = np.sin(np.radians(6.0)), np.cos(np.radians(6.0))
    normals = np.array([[-c, 0.0, s], [c, 0.0, s], [1.0, 0.0, 0.0]])
    planes = assert_clusters_match_oracle(normals, np.zeros(3), RunConfig(), 1.0)
    assert len(planes) == 2
    assert planes[0].normal[0] < 0.0  # the vote joined cluster 0


@pytest.mark.parametrize("delta, clusters", [(1e-12, 1), (-1e-12, 2)])
def test_cluster_sweep_angle_threshold_is_inclusive(delta, clusters):
    config = RunConfig()
    z = float(np.cos(np.radians(symmetry.CLUSTER_ANGLE_DEG))) + delta
    normals = np.array([[0.0, 0.0, 1.0], [np.sqrt(1.0 - z * z), 0.0, z]])
    planes = assert_clusters_match_oracle(normals, np.zeros(2), config, 1.0)
    assert len(planes) == clusters


@pytest.mark.parametrize("delta, clusters", [(-1e-12, 1), (1e-12, 2)])
def test_cluster_sweep_offset_threshold_is_inclusive(delta, clusters):
    config = RunConfig()
    diag = 2.0
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    offsets = np.array([0.0, config.cluster_offset_frac * diag + delta])
    planes = assert_clusters_match_oracle(normals, offsets, config, diag)
    assert len(planes) == clusters


def test_leaf_order_queries_match_plain_queries():
    samples = sample_surface(shapes.hexagonal_prism(), 3000, seed=5)
    tree = cKDTree(samples.points)
    rng = np.random.default_rng(21)
    for _ in range(4):
        n = rng.normal(size=3)
        plane = SymmetryPlane(n / np.linalg.norm(n), float(rng.uniform(-0.3, 0.3)))
        want_d, want_i = tree.query(reflect_points(samples.points, plane))
        got_d, got_i = symmetry._query_reflected(tree, samples.points, plane)
        assert got_d.tobytes() == want_d.tobytes() and np.array_equal(got_i, want_i)
        assert score_plane(samples, plane, tree=tree) == \
            float(want_d.mean() / samples.bbox_diagonal)
    with pytest.raises(ValueError, match="KD-tree"):
        score_plane(samples, plane, tree=cKDTree(samples.points[::2]))


def test_icp_recovers_perturbed_plane():
    rng = np.random.default_rng(9)
    pts, n_true, b_true = shapes.mirrored_cloud(rng)
    samples = cloud_samples(pts)
    start = SymmetryPlane(perturbed(n_true, 5.0, rng), b_true)
    refined = refine_plane_icp(samples, start, RunConfig())
    assert sym_angle_matrix(refined.normal, n_true).item() <= 0.5


def test_icp_fixed_point_converges_immediately():
    rng = np.random.default_rng(10)
    pts, n_true, b_true = shapes.mirrored_cloud(rng)
    samples = cloud_samples(pts)
    refined, history = refine_plane_icp(samples, SymmetryPlane(n_true, b_true),
                                        RunConfig(), return_history=True)
    # one accepted matching pass plus the final score
    assert len(history) <= 2
    assert sym_angle_matrix(refined.normal, n_true).item() <= symmetry.ICP_CONVERGE_DEG


def test_icp_history_never_increases():
    rng = np.random.default_rng(11)
    pts, n_true, b_true = shapes.mirrored_cloud(rng)
    samples = cloud_samples(pts)
    for angle in (2.0, 5.0, 8.0):
        start = SymmetryPlane(perturbed(n_true, angle, rng), b_true)
        _, history = refine_plane_icp(samples, start, RunConfig(), return_history=True)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_icp_monotone_on_fixture_hypotheses():
    # every surviving refinement must end at or below the residual of the
    # hypothesis it started from
    samples = sample_surface(shapes.cuboid(), 4000, seed=0)
    cfg = RunConfig(sample_count=4000, cluster_offset_frac=0.015)
    tree = cKDTree(samples.points)
    for hypothesis in generate_hypotheses(samples, cfg)[:8]:
        start_residual = score_plane(samples, hypothesis, tree=tree)
        try:
            refined, history = refine_plane_icp(samples, hypothesis, cfg,
                                                return_history=True, tree=tree)
        except Exception:
            continue
        assert refined.residual <= start_residual + 1e-9
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def counted_refinement(monkeypatch, samples, plane, config):
    """refine_plane_icp's (plane, history), the KD queries of its loop (on
    all samples or on the ICP subset; each reflects the points it asks once)
    and how often it rescored a refit plane."""
    queries, rescores = [], []
    reflect, score = symmetry.reflect_points, symmetry.score_plane

    def counted_reflect(*args):
        queries.append(1)
        return reflect(*args)

    def counted_score(*args, **kwargs):
        rescores.append(1)
        return score(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "reflect_points", counted_reflect)
        patch.setattr(symmetry, "score_plane", counted_score)
        refined, history = refine_plane_icp(samples, plane, config, return_history=True)
    return refined, history, len(queries) - len(rescores), len(rescores)


def plane_bytes(plane):
    return plane.normal.tobytes(), plane.offset, plane.residual


CUBOID_SMALL = RunConfig(sample_count=1000, pair_count=5000)


def cuboid_hypotheses():
    samples = sample_surface(shapes.cuboid(), CUBOID_SMALL.sample_count, CUBOID_SMALL.seed)
    return samples, generate_hypotheses(samples, CUBOID_SMALL)


def test_icp_stops_only_refinements_that_end_rejected():
    """Each refinement either runs as the full-length oracle does, or stops
    early with the oracle's history up to the stop and a residual above
    accept_residual, and the stop rule holds at the last iteration run.  A
    stop on the ICP subset leaves the history flat; the subset's own rule is
    checked by test_icp_stop_in_the_subset_phase_returns_a_full_sample_score."""
    samples, hypotheses = cuboid_hypotheses()
    cfg = CUBOID_SMALL
    stopped = 0
    for hypothesis in hypotheses:
        refined, history = refine_plane_icp(samples, hypothesis, cfg, return_history=True)
        full, full_history = icp_oracle.refine_plane_icp(samples, hypothesis, cfg, return_history=True)
        if history == full_history and plane_bytes(refined) == plane_bytes(full):
            continue
        stopped += 1
        i = len(history) - 2  # the last iteration run
        assert i >= 1 and history[:-1] == full_history[:i + 1] and history[-1] == history[-2]
        assert history[i] - (cfg.icp_max_iters - i) * (history[i - 1] - history[i]) > cfg.accept_residual
        assert refined.residual == history[-1] > cfg.accept_residual
    assert stopped >= len(hypotheses) // 2


def refinement_outcome(refine, samples, hypothesis, config, tree):
    try:
        refined, history = refine(samples, hypothesis, config, return_history=True, tree=tree)
    except (RefinementDivergedError, DegenerateCorrespondencesError) as exc:
        return type(exc)
    return plane_bytes(refined), history


@pytest.mark.parametrize("mesh", [shapes.cuboid, shapes.asymmetric_tetrahedron])
def test_icp_matches_the_oracle_at_the_smallest_budgets(mesh):
    """With one or two iterations there is no subset phase, with three the
    subset runs once, with four twice: with the trend stop off, each budget
    gives the oracle's exceptions, planes and histories.  The ten most-voted
    hypotheses keep it to a few seconds; on both meshes the tenth converges
    at its first iteration."""
    samples = sample_surface(mesh(), shapes.SUITE_CONFIG.sample_count, shapes.SUITE_CONFIG.seed)
    hypotheses = generate_hypotheses(samples, shapes.SUITE_CONFIG)[:10]
    tree = cKDTree(samples.points)
    for iters in (1, 2, 3, 4):
        cfg = replace(shapes.SUITE_CONFIG, icp_max_iters=iters, accept_residual=1e3)
        for hypothesis in hypotheses:
            assert refinement_outcome(refine_plane_icp, samples, hypothesis, cfg, tree) == \
                refinement_outcome(icp_oracle.refine_plane_icp, samples, hypothesis, cfg, tree)


def test_icp_history_counts_iterations_on_every_exit(monkeypatch):
    """len(history) - 1 is the number of iterations run and the history never
    increases, whether a refinement stops early, converges or reaches
    icp_max_iters: the traced replay reads icp_iters and icp_capped so.  Only
    a converged or capped refinement rescores its last refit plane."""
    samples, hypotheses = cuboid_hypotheses()
    cfg = CUBOID_SMALL
    exits = {}
    for hypothesis in hypotheses:
        _, history, iterations, rescores = counted_refinement(monkeypatch, samples, hypothesis, cfg)
        assert len(history) - 1 == iterations
        assert all(b <= a for a, b in zip(history, history[1:]))
        _, full_history = icp_oracle.refine_plane_icp(samples, hypothesis, cfg, return_history=True)
        if iterations < len(full_history) - 1:
            exits.setdefault("stopped", iterations)
            assert rescores == 0
        elif rescores:
            exits.setdefault("converged", iterations)
    rng = np.random.default_rng(11)
    pts, n_true, b_true = shapes.mirrored_cloud(rng)
    pts = pts + rng.normal(scale=1e-3, size=pts.shape)
    start = SymmetryPlane(perturbed(n_true, 8.0, rng), b_true)
    monkeypatch.setattr(symmetry, "ICP_CONVERGE_DEG", 1e-12)  # no refit converges
    capped = RunConfig()
    _, history, iterations, rescores = counted_refinement(monkeypatch, cloud_samples(pts), start, capped)
    assert len(history) - 1 == iterations == capped.icp_max_iters and rescores == 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert 1 < exits["converged"] < cfg.icp_max_iters
    assert 1 < exits["stopped"] < cfg.icp_max_iters


class ObservedTree:
    """A cKDTree that records the size and mean distance of every query and
    can break one: `fail(sizes)` returns the index of the query to break, or
    None."""

    def __init__(self, points, fail=lambda sizes: None, kind="no_match"):
        self.tree = cKDTree(points)
        self.indices = self.tree.indices
        self.sizes, self.means, self.fail, self.kind = [], [], fail, kind

    def query(self, x):
        dists, idx = self.tree.query(x)
        self.sizes.append(len(x))
        self.means.append(dists.mean())
        if self.fail(self.sizes) == len(self.sizes) - 1:
            if self.kind == "no_match":
                dists = dists + 1e3
            elif len(x) == len(self.indices):
                idx = self.indices.copy()  # in leaf order: every point matched to itself
            else:
                dists[2:] += 1e3  # two matches left
        return dists, idx


def first_after_subset(sizes):
    """The first full-sample query after a subset query."""
    for i in range(1, len(sizes)):
        if sizes[i] > sizes[i - 1]:
            return i
    return None


def broken_refinement(exit_kind, fail):
    """Refine an 8-degree perturbation of a mirrored cloud's plane, never
    stopping for the trend, with the query `fail` names broken: (samples,
    hypothesis, refined plane, history, index of the broken query)."""
    rng = np.random.default_rng(13)
    pts, n_true, b_true = shapes.mirrored_cloud(rng)
    samples = cloud_samples(pts)
    start = SymmetryPlane(perturbed(n_true, 8.0, rng), b_true)
    cfg = replace(RunConfig(), accept_residual=1e3)
    tree = ObservedTree(pts, fail, exit_kind)
    refined, history = refine_plane_icp(samples, start, cfg, return_history=True, tree=tree)
    broken = fail(tree.sizes)
    # no query after the broken one, and one history entry per query plus the result
    assert broken == len(tree.sizes) - 1 and len(history) == broken + 2
    subset = len(symmetry._icp_subset(tree, cfg.seed))
    assert tree.sizes == [len(pts)] + [subset] * (broken - 1) + [tree.sizes[broken]]
    return samples, start, refined, history, broken


@pytest.mark.parametrize("exit_kind", ["no_match", "degenerate"])
def test_icp_exit_after_an_iteration_reuses_its_score(exit_kind):
    """A refinement that runs out of matches (none within the rejection radius,
    or fewer than three displaced) on its second iteration, the first on the
    ICP subset, returns the best plane already scored on all samples, the
    hypothesis, without querying the tree again."""
    samples, start, refined, history, _ = broken_refinement(exit_kind, lambda sizes: 1)
    first = score_plane(samples, start)
    assert (refined.normal.tobytes(), refined.offset) == (start.normal.tobytes(), start.offset)
    assert history == [first, first, first] and refined.residual == first


@pytest.mark.parametrize("exit_kind", ["no_match", "degenerate"])
def test_icp_exit_in_the_finishing_phase_reuses_its_score(exit_kind):
    """The same exit on the first full-sample iteration after the subset phase
    returns the better of the hypothesis and the plane that iteration scored
    (a broken match list scores nothing), without querying the tree again."""
    samples, start, refined, history, broken = broken_refinement(exit_kind, first_after_subset)
    first = score_plane(samples, start)
    assert broken >= 2 and history[:broken] == [first] * broken
    if exit_kind == "no_match":
        assert (refined.normal.tobytes(), refined.offset) == (start.normal.tobytes(), start.offset)
        assert history[-2:] == [first, first] and refined.residual == first
    else:
        # the plane that iteration scored, with that score: building the
        # returned SymmetryPlane renormalises its normal, so rescoring it can
        # differ in the last bits of a residual that is rounding noise here
        assert refined.residual == history[-1] < first
        assert score_plane(samples, refined) == pytest.approx(refined.residual, rel=0, abs=1e-12)


def test_icp_converging_at_its_first_iteration_never_draws_the_subset(monkeypatch):
    """A hypothesis whose first, full-sample refit converges never draws the
    ICP subset: it returns a 2-entry history and the oracle's bytes.  Every
    suite-config hypothesis on the icosphere converges so."""
    samples = sample_surface(shapes.icosphere(), shapes.SUITE_CONFIG.sample_count, 0)
    hypotheses = generate_hypotheses(samples, shapes.SUITE_CONFIG)
    want = [icp_oracle.refine_plane_icp(samples, h, shapes.SUITE_CONFIG, return_history=True)
            for h in hypotheses]

    def no_subset(*args):
        raise AssertionError("the ICP subset was drawn")

    monkeypatch.setattr(symmetry, "_icp_subset", no_subset)
    for hypothesis, (want_plane, want_history) in zip(hypotheses, want):
        refined, history = refine_plane_icp(samples, hypothesis, shapes.SUITE_CONFIG, return_history=True)
        assert len(history) == 2 and history == want_history
        assert plane_bytes(refined) == plane_bytes(want_plane)


def test_icp_stop_in_the_subset_phase_returns_a_full_sample_score():
    """A refinement that the trend rule stops on the ICP subset at its first
    check, after the subset phase's second iteration (allowing each score
    left ICP_SUBSET_DROP_ALLOWANCE times the last drop), returns the
    hypothesis with its full-sample score, not a plane scored on the subset
    only."""
    samples, hypotheses = cuboid_hypotheses()
    cfg = CUBOID_SMALL
    diag = samples.bbox_diagonal
    stopped = 0
    for hypothesis in hypotheses:
        tree = ObservedTree(samples.points)
        refined, history = refine_plane_icp(samples, hypothesis, cfg, return_history=True, tree=tree)
        n, m = len(samples.points), len(symmetry._icp_subset(tree, cfg.seed))
        if tree.sizes != [n, m, m]:
            continue
        stopped += 1
        s1, s2 = (float(mean / diag) for mean in tree.means[1:])
        drop = symmetry.ICP_SUBSET_DROP_ALLOWANCE * (s1 - min(s1, s2))
        assert min(s1, s2) - (cfg.icp_max_iters - 2) * drop > cfg.accept_residual
        assert (refined.normal.tobytes(), refined.offset) == (hypothesis.normal.tobytes(), hypothesis.offset)
        assert refined.residual == score_plane(samples, hypothesis)
        assert history == [refined.residual] * 4
    assert stopped >= len(hypotheses) // 4


class InflatedSubsetTree(ObservedTree):
    """An ObservedTree whose subset queries report one match a whole
    diagonal per point too far, so the subset scores read above 1 and stall,
    while every other match is kept."""

    def __init__(self, points, diag):
        super().__init__(points)
        self.diag = diag

    def query(self, x):
        dists, idx = super().query(x)
        if len(x) < len(self.indices):
            dists = dists.copy()
            dists[0] += len(x) * self.diag
            self.means[-1] = dists.mean()
        return dists, idx


def test_icp_subset_trend_never_stops_a_hypothesis_already_accepted():
    """A hypothesis whose full-sample score already meets accept_residual is
    refined on, through the subset phase into the finishing phase, however
    hopeless its subset scores look."""
    rng = np.random.default_rng(14)
    pts, n_true, b_true = shapes.mirrored_cloud(rng)
    samples = cloud_samples(pts)
    start = SymmetryPlane(perturbed(n_true, 8.0, rng), b_true)
    first = score_plane(samples, start)
    cfg = replace(RunConfig(), accept_residual=first)
    tree = InflatedSubsetTree(pts, samples.bbox_diagonal)
    refined, history = refine_plane_icp(samples, start, cfg, return_history=True, tree=tree)
    subset = len(symmetry._icp_subset(tree, cfg.seed))
    s1, s2 = (float(mean / samples.bbox_diagonal) for mean in tree.means[1:3])
    # the subset phase's trend rule alone would have stopped it
    assert tree.sizes[1:3] == [subset, subset] and s2 > 1.0
    assert s2 - (cfg.icp_max_iters - 2) * symmetry.ICP_SUBSET_DROP_ALLOWANCE * (s1 - s2) > first
    assert tree.sizes[-1] == len(pts) and first_after_subset(tree.sizes) is not None
    assert refined.residual == history[-1] < first


@pytest.mark.parametrize("mesh", [shapes.cuboid, shapes.square_plate, shapes.hexagonal_prism,
                                  shapes.asymmetric_tetrahedron],
                         ids=["cuboid", "plate", "prism", "tetrahedron"])
def test_detect_with_the_icp_subset_is_the_same_at_one_and_two_cpus(monkeypatch, mesh):
    """Refinements that continue on the ICP subset share it across the pool's
    threads; the fixtures' planes are byte-identical at 1 and 2 usable CPUs."""
    draws = []
    draw = symmetry._icp_subset

    def counted_draw(*args):
        draws.append(1)
        return draw(*args)

    monkeypatch.setattr(symmetry, "_icp_subset", counted_draw)
    found = {}
    for cpus in (1, 2):
        monkeypatch.setattr(symmetry.util, "usable_cpu_count", lambda: cpus)
        found[cpus] = [plane_bytes(p) for p in detect_symmetries(mesh(), RunConfig())]
    assert draws and found[1] == found[2]


def assert_detect_keeps_the_planes_of_full_length_icp(monkeypatch, mesh, config):
    generate, seen = symmetry.generate_hypotheses, []

    def generate_once(samples, cfg):  # both detections draw the same hypotheses
        if not seen:
            seen.append((samples.points.tobytes(), generate(samples, cfg)))
        assert samples.points.tobytes() == seen[0][0]
        return seen[0][1]

    monkeypatch.setattr(symmetry, "generate_hypotheses", generate_once)
    planes = detect_symmetries(mesh(), config)
    monkeypatch.setattr(symmetry, "refine_plane_icp", icp_oracle.refine_plane_icp)
    assert [plane_bytes(p) for p in planes] == \
        [plane_bytes(p) for p in detect_symmetries(mesh(), config)]


FULL_LENGTH_CONFIGS = pytest.mark.parametrize("config", [RunConfig(), shapes.SUITE_CONFIG],
                                              ids=["default", "suite"])
FULL_LENGTH_MESHES = pytest.mark.parametrize(
    "mesh", [shapes.cuboid, shapes.square_plate, shapes.asymmetric_tetrahedron,
             lambda: shapes.icosphere(1)], ids=["cuboid", "plate", "tetrahedron", "icosphere1"])


@FULL_LENGTH_CONFIGS
@FULL_LENGTH_MESHES
def test_detect_keeps_the_planes_of_full_length_icp(monkeypatch, mesh, config):
    """Detection keeps the same plane bytes with the full-length ICP oracle
    patched in as with the early-stopping refinement (detector seed 0)."""
    assert_detect_keeps_the_planes_of_full_length_icp(monkeypatch, mesh, config)


@pytest.mark.parametrize("seed", [1, 2])
@FULL_LENGTH_CONFIGS
@FULL_LENGTH_MESHES
def test_detect_keeps_the_planes_of_full_length_icp_at_other_seeds(monkeypatch, mesh, config, seed):
    """The same at detector seeds 1 and 2, which draw other samples, votes
    and ICP subsets."""
    assert_detect_keeps_the_planes_of_full_length_icp(monkeypatch, mesh, replace(config, seed=seed))


def test_icp_on_asymmetric_cloud_rejected():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, size=(500, 3)) * np.array([1.0, 0.7, 0.4])
    samples = cloud_samples(pts)
    cfg = RunConfig()
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    try:
        refined = refine_plane_icp(samples, SymmetryPlane(n, 0.9), cfg)
        residual_ok = refined.residual > cfg.accept_residual
    except Exception:
        residual_ok = True  # divergence also counts as rejection
    # a random plane on a random cloud must not look like a symmetry
    assert residual_ok or refined.residual > 0.01


def test_score_single_point_on_plane():
    samples = cloud_samples(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), diag=2.0)
    plane = SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0)
    assert score_plane(samples, plane) == 0.0


def test_score_true_plane_bounded_by_sampling_spacing():
    rng = np.random.default_rng(13)
    pts, n_true, b_true = shapes.mirrored_cloud(rng, n=800)
    samples = cloud_samples(pts)
    spacing, _ = cKDTree(pts).query(pts, k=2)
    mean_spacing = spacing[:, 1].mean()
    residual = score_plane(samples, SymmetryPlane(n_true, b_true))
    assert residual <= mean_spacing / samples.bbox_diagonal


def test_score_offset_sheet():
    rng = np.random.default_rng(14)
    xy = rng.uniform(-1.0, 1.0, size=(2000, 2))
    z = 2.0 + rng.uniform(-0.01, 0.01, size=2000)
    pts = np.column_stack([xy, z])
    samples = cloud_samples(pts)
    residual = score_plane(samples, SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0))
    # the sheet reflects to z = -2: every reflected point is about 4 away
    assert residual == pytest.approx(4.0 / samples.bbox_diagonal, rel=0.05)


def test_dedupe_keeps_best_and_orthogonal():
    a = SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0, 0.001)
    b_n = np.array([0.0, np.sin(np.radians(2.0)), np.cos(np.radians(2.0))])
    b = SymmetryPlane(b_n, 0.0, 0.002)
    kept = dedupe_planes([b, a], 10.0)
    assert len(kept) == 1 and kept[0].residual == 0.001
    ortho = [SymmetryPlane(np.eye(3)[i], 0.0, 0.001 * (i + 1)) for i in range(3)]
    assert len(dedupe_planes(ortho, 10.0)) == 3


def test_dedupe_sign_invariant():
    a = SymmetryPlane(np.array([0.0, 0.0, 1.0]), 0.0, 0.001)
    b = SymmetryPlane(np.array([0.0, 1e-12, -1.0]), 0.0, 0.002)  # flips to ~ +z
    assert len(dedupe_planes([a, b], 10.0)) == 1


def test_detect_cuboid_exact_planes():
    planes = detect_symmetries(shapes.cuboid(), shapes.SUITE_CONFIG)
    assert len(planes) == 3
    cost = sym_angle_matrix(np.eye(3), [p.normal for p in planes])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 2.0
    assert max(abs(p.offset) for p in planes) <= 0.05
    for p in planes:
        assert p.residual <= shapes.SUITE_CONFIG.accept_residual


@pytest.mark.parametrize("mesh, truth, matched", [
    (shapes.open_cuboid, shapes.open_cuboid_plane_normals, 2),
    (shapes.open_prism, shapes.open_prism_plane_normals, 6),
], ids=["open_cuboid", "open_prism"])
def test_detect_open_shell_planes(mesh, truth, matched):
    """A record at seed 0, not a target: on an open shell every kept plane
    is an analytic one, and as many analytic planes are found as measured."""
    planes = detect_symmetries(mesh(), shapes.SUITE_CONFIG)
    cost = sym_angle_matrix(truth(), [p.normal for p in planes])
    assert (cost.min(axis=0) <= symmetry.DEDUPE_ANGLE_DEG).all()
    assert (cost.min(axis=1) <= symmetry.DEDUPE_ANGLE_DEG).sum() >= matched


def test_detect_asymmetric_tetrahedron_empty():
    # voting always yields candidates; none survive residual acceptance
    samples = sample_surface(shapes.asymmetric_tetrahedron(),
                             shapes.SUITE_CONFIG.sample_count, shapes.SUITE_CONFIG.seed)
    assert len(generate_hypotheses(samples, shapes.SUITE_CONFIG)) > 0
    assert detect_symmetries(shapes.asymmetric_tetrahedron(), shapes.SUITE_CONFIG) == []


def test_detect_output_canonical_and_deterministic():
    planes_a = detect_symmetries(shapes.cuboid(), shapes.SUITE_CONFIG)
    planes_b = detect_symmetries(shapes.cuboid(), shapes.SUITE_CONFIG)
    assert len(planes_a) == len(planes_b)
    for a, b in zip(planes_a, planes_b):
        assert np.array_equal(a.normal, b.normal)
        assert a.offset == b.offset and a.residual == b.residual
        z, y, x = a.normal[2], a.normal[1], a.normal[0]
        first = z if z != 0 else (y if y != 0 else x)
        assert first > 0


def test_detect_refines_every_hypothesis_on_one_pool(monkeypatch):
    """Detection opens one pool of min(hypotheses, usable CPUs) threads, also
    at one CPU and when every refinement converges at its first iteration,
    and its planes do not depend on the CPU count."""
    pools = []

    class CountingPool(symmetry.ThreadPoolExecutor):
        def __init__(self, **kwargs):
            pools.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(symmetry, "ThreadPoolExecutor", CountingPool)

    def planes(mesh, config, cpus):
        monkeypatch.setattr(symmetry.util, "usable_cpu_count", lambda: cpus)
        pools.clear()
        found = detect_symmetries(mesh, config)
        assert pools == [{"max_workers": cpus}]
        return [(p.normal.tobytes(), p.offset, p.residual) for p in found]

    # every suite-config refinement on the sphere converges at its first iteration
    sphere = (shapes.icosphere(), shapes.SUITE_CONFIG)
    cuboid = (shapes.cuboid(), RunConfig(sample_count=2000, pair_count=5000))
    for mesh, config in (sphere, cuboid):
        two = planes(mesh, config, 2)
        assert two
        assert two == planes(mesh, config, 1)


def test_detect_rotation_equivariance():
    rng = np.random.default_rng(7)
    mesh = shapes.cuboid()
    base = np.array([p.normal for p in detect_symmetries(mesh, shapes.SUITE_CONFIG)])
    R = euler_to_rotation(*rng.uniform(-60.0, 60.0, size=3))
    rotated = TriangleMesh(mesh.vertices @ R.T, mesh.faces)
    planes = detect_symmetries(rotated, shapes.SUITE_CONFIG)
    assert len(planes) == len(base)
    cost = sym_angle_matrix(base @ R.T, [p.normal for p in planes])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 2.0


def test_detect_scale_invariance():
    mesh = shapes.cuboid()
    base = detect_symmetries(mesh, shapes.SUITE_CONFIG)
    for scale in (0.1, 10.0):
        scaled = TriangleMesh(mesh.vertices * scale, mesh.faces)
        planes = detect_symmetries(scaled, shapes.SUITE_CONFIG)
        assert len(planes) == len(base)
        cost = sym_angle_matrix([p.normal for p in base], [p.normal for p in planes])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1.0
        for i, j in zip(rows, cols):
            assert abs(base[i].residual - planes[j].residual) <= 1e-6


def test_planes_file_roundtrip(tmp_path):
    planes = detect_symmetries(shapes.cuboid(), shapes.SUITE_CONFIG)
    path = tmp_path / "planes.txt"
    write_planes(path, planes, comments=["fixture cuboid"])
    text = path.read_text()
    assert text.startswith("# fixture cuboid\n# columns: nx ny nz offset residual\n")
    again = read_planes(path)
    assert len(again) == len(planes)
    for a, b in zip(planes, again):
        assert sym_angle_matrix(a.normal, b.normal).item() <= 1e-9
        assert a.offset == pytest.approx(b.offset, abs=1e-11)
        assert a.residual == pytest.approx(b.residual, abs=1e-11)


@pytest.mark.parametrize("text, reason", [
    (b"# \xff\n1 0 0 0 0\n", "planes.txt: "),
    (b"# columns\n1 0 0\n", "planes.txt: line 2: not enough values"),
    (b"# columns\n2 0 0 0 0\n", "planes.txt: line 2: plane normal must be unit length"),
    (b"# columns\n1 0 0 0 x\n", "planes.txt: line 2: could not convert"),
    (b"# columns\n1 0 0 0 0.01\n1 0 0 nan 0.01\n", "planes.txt: line 3: plane offset must be finite"),
    (b"# columns\n0 1 0 inf 0.02\n", "planes.txt: line 2: plane offset must be finite"),
], ids=["not-utf8", "three-fields", "non-unit-normal", "word-residual", "nan-offset", "inf-offset"])
def test_read_planes_names_file_that_is_not_utf8(tmp_path, text, reason):
    """A planes file that does not decode, or a line that is not five
    numbers making a valid plane, is an InputError naming the file and the
    line."""
    path = tmp_path / "planes.txt"
    path.write_bytes(text)
    with pytest.raises(InputError, match=reason):
        read_planes(path)
