"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them inline)."""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import chisquare, qmc

import shapes
from ap_oracle import oracle_ap
from symnorm.cli import main
from symnorm.config import RunConfig
from symnorm.dataset import read_manifest
from symnorm.evaluation import ap_symmetry, normal_metrics
from symnorm.mesh_io import SurfaceSamples, TriangleMesh, serialize_obj
from symnorm.orientation import (
    HEMISPHERE,
    HORIZONTAL_CIRCLE,
    V_D,
    V_N,
    OrientationCodebook,
    ViewPose,
    sample_view,
)
from symnorm.render import (
    NormalMap,
    discretize_normal_map,
    frame_camera,
    labels_to_normals,
    rasterize,
)
from symnorm.symmetry import SymmetryPlane, detect_symmetries, refine_plane_icp

# frozen regression constant: max angle of the 2^20-point Sobol hemisphere
# scan against the K=60 codebook, measured once and pinned
FROZEN_SCAN_MAX_DEG = 18.921705401


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def sym_angle_matrix(a, b):
    return np.degrees(np.arccos(np.clip(np.abs(np.asarray(a) @ np.asarray(b).T), 0.0, 1.0)))


def test_criterion_1_synthetic_symmetry_suite():
    fixtures = [
        ("cuboid", shapes.cuboid(), shapes.cuboid_plane_normals()),
        ("square_plate", shapes.square_plate(), shapes.square_plate_plane_normals()),
        ("hexagonal_prism", shapes.hexagonal_prism(), shapes.hexagonal_prism_plane_normals()),
    ]
    gt_sets, pred_sets = [], []
    elapsed = 0.0
    worst = 0.0
    for name, mesh, truth in fixtures:
        started = time.perf_counter()
        planes = detect_symmetries(mesh, shapes.SUITE_CONFIG)
        elapsed += time.perf_counter() - started
        assert len(planes) == len(truth), f"{name}: {len(planes)} planes, want {len(truth)}"
        cost = sym_angle_matrix(truth, [p.normal for p in planes])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
        assert cost[rows, cols].max() <= 2.0, f"{name}: worst angle {cost[rows, cols].max():.2f}"
        gt_sets.append(truth)
        pred_sets.append(np.column_stack([
            [p.normal for p in planes],
            [1.0 - min(1.0, p.residual / shapes.SUITE_CONFIG.accept_residual) for p in planes],
        ]))
    ap = ap_symmetry(gt_sets, pred_sets, theta_deg=10.0).ap
    assert ap == 1.0
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"
    report(1, f"3/5/7 planes, worst angle {worst:.2f} deg, AP 1.0, {elapsed:.1f}s")


def test_criterion_2_icp_convergence():
    cfg = RunConfig()
    hits = 0
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        points, n_true, b_true = shapes.mirrored_cloud(rng, n=600)
        samples = SurfaceSamples(points, np.tile([0.0, 0.0, 1.0], (len(points), 1)),
                                 np.zeros(len(points), dtype=np.int64),
                                 float(np.linalg.norm(points.max(0) - points.min(0))))
        angle = np.radians(rng.uniform(4.0, 8.0))
        axis = np.cross(n_true, rng.normal(size=3))
        axis /= np.linalg.norm(axis)
        start = np.cos(angle) * n_true + np.sin(angle) * np.cross(axis, n_true)
        start /= np.linalg.norm(start)
        refined, history = refine_plane_icp(samples, SymmetryPlane(start, b_true), cfg,
                                            return_history=True)
        error = sym_angle_matrix(refined.normal, n_true).item()
        worst = max(worst, error)
        hits += error <= 0.5
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert hits >= 95, f"only {hits}/100 within 0.5 deg"
    report(2, f"{hits}/100 within 0.5 deg (worst {worst:.3f}), residuals monotone")


def test_criterion_3_ap_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        images = int(rng.integers(1, 4))
        gt_sets, pred_sets, oracle_preds = [], [], []
        while True:
            gt_sets = [np.random.default_rng(rng.integers(1 << 30)).normal(size=(k, 3))
                       for k in rng.integers(0, 4, size=images)]
            gt_sets = [g / np.linalg.norm(g, axis=1, keepdims=True) if len(g) else g.reshape(0, 3)
                       for g in gt_sets]
            if sum(len(g) for g in gt_sets):
                break
        for _ in range(images):
            n = int(rng.integers(0, 7))
            dirs = rng.normal(size=(n, 3))
            dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) if n else dirs.reshape(0, 3)
            confs = rng.random(n)
            pred_sets.append(np.column_stack([dirs, confs]))
            oracle_preds.append(list(zip(dirs, confs.tolist())))
        got = ap_symmetry(gt_sets, pred_sets, theta_deg=10.0).ap
        want = oracle_ap(gt_sets, oracle_preds, theta_deg=10.0)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12
    report(3, f"1000 instances, max |AP - oracle| = {worst:.2e}")


def test_criterion_4_rasterizer_oracles():
    # icosphere against the analytic ray-sphere normal oracle at 224^2
    mesh = shapes.icosphere(3, radius=1.0)
    pose = ViewPose(25.0, 10.0, 5.0)
    cam = RunConfig()
    nm = rasterize(mesh, pose, cam)
    frame = frame_camera(mesh, pose, cam)
    ys, xs = np.nonzero(nm.mask)
    rays = np.column_stack([(xs + 0.5 - frame.cx) / frame.focal_px,
                            (frame.cy - (ys + 0.5)) / frame.focal_px,
                            -np.ones(len(xs))])
    center = -frame.center - np.array([0.0, 0.0, frame.distance])
    b = rays @ center
    a = np.einsum("ij,ij->i", rays, rays)
    disc = b * b - a * (center @ center - 1.0)
    assert (disc >= 0.0).all()  # every masked pixel ray meets the smooth sphere
    t = (b - np.sqrt(disc)) / a
    hit = t[:, None] * rays
    true_normals = hit - center
    true_normals /= np.linalg.norm(true_normals, axis=1, keepdims=True)
    angles = np.degrees(np.arccos(np.clip(
        np.einsum("ij,ij->i", true_normals, nm.normals[ys, xs]), -1.0, 1.0)))
    frac = float((angles <= 5.0).mean())
    assert frac >= 0.99

    # two overlapping triangles against exhaustive ray casting
    verts = np.array([
        [-0.8, -0.7, 0.31], [0.9, -0.55, 0.29], [0.05, 0.85, 0.33],
        [-0.75, -0.6, -0.12], [0.8, -0.72, 0.55], [-0.1, 0.9, 0.2],
    ])
    duo = TriangleMesh(verts, np.array([(0, 1, 2), (3, 4, 5)]))
    cam16 = RunConfig(width=16, height=16)
    pose0 = ViewPose(0.0, 0.0, 0.0)
    zmap = rasterize(duo, pose0, cam16)
    frame = frame_camera(duo, pose0, cam16)
    cam_verts = duo.vertices @ pose0.rotation.T - frame.center
    cam_verts[:, 2] -= frame.distance

    def ray_hit(direction, a3, b3, c3):
        e1, e2 = b3 - a3, c3 - a3
        pv = np.cross(direction, e2)
        det = e1 @ pv
        if det == 0.0:
            return None
        inv = 1.0 / det
        u = (-a3 @ pv) * inv
        if u < 0.0 or u > 1.0:
            return None
        qv = np.cross(-a3, e1)
        v = (direction @ qv) * inv
        if v < 0.0 or u + v > 1.0:
            return None
        tt = (e2 @ qv) * inv
        return tt if tt > 0.0 else None

    mismatches = 0
    for j in range(16):
        for i in range(16):
            d = np.array([(i + 0.5 - frame.cx) / frame.focal_px,
                          (frame.cy - (j + 0.5)) / frame.focal_px, -1.0])
            # the face the pixel shows must be one its ray hits, at the
            # nearest hit; background must be exactly where no face is hit
            hits = [ray_hit(d, *cam_verts[face]) for face in duo.faces]
            drawn = [tt for tt in hits if tt is not None]
            shown = zmap.face_ids[j, i]
            if drawn:
                same = shown >= 0 and hits[shown] is not None and abs(hits[shown] - min(drawn)) < 1e-9
            else:
                same = shown == -1
            mismatches += not same
    assert mismatches == 0
    report(4, f"icosphere {frac * 100:.2f}% within 5 deg; z-buffer 256/256 pixels exact")


def test_criterion_5_quantization_bound():
    codebook = OrientationCodebook(60, HEMISPHERE)
    engine = qmc.Sobol(d=2, scramble=False, seed=0)
    uv = engine.random_base2(20)  # 2^20 > 1e6 quasi-random hemisphere points
    z = uv[:, 0]
    theta = 2.0 * np.pi * uv[:, 1]
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    dirs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    worst = 0.0
    for chunk in np.array_split(dirs, 64):
        best = np.clip((chunk @ codebook.directions.T).max(axis=1), -1.0, 1.0)
        worst = max(worst, float(np.degrees(np.arccos(best)).max()))
    bound = 1.5 * np.degrees(np.arccos(1.0 - 2.0 / 60.0))
    assert worst <= bound
    assert worst == pytest.approx(FROZEN_SCAN_MAX_DEG, abs=1e-6)

    # per-pixel round trip respects the same bound on a real render
    nm = rasterize(shapes.icosphere(2), ViewPose(40.0, 25.0, 10.0),
                   RunConfig(width=96, height=96))
    back = labels_to_normals(discretize_normal_map(nm, codebook), codebook)
    dots = np.einsum("ij,ij->i", nm.normals[nm.mask], back.normals[nm.mask])
    per_pixel = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0))).max()
    assert per_pixel <= bound
    report(5, f"scan max {worst:.4f} deg <= bound {bound:.4f}; round-trip max {per_pixel:.4f}")


def test_criterion_6_metric_fixtures(tmp_path):
    normals = np.zeros((1, 2, 3))
    normals[0, :, 2] = 1.0
    gt = NormalMap(normals)
    a = np.radians(20.0)
    pred_normals = normals.copy()
    pred_normals[0, 1] = [np.sin(a), 0.0, np.cos(a)]
    pred = NormalMap(pred_normals)
    m = normal_metrics(gt, pred)
    assert m.mean_err_deg == pytest.approx(10.0, abs=1e-12)
    assert m.median_err_deg == 0.0
    assert (m.gp_11_25, m.gp_22_5, m.gp_30) == (0.5, 1.0, 1.0)

    # end-to-end perfect-prediction run through the CLI
    corpus = tmp_path / "corpus"
    (corpus / "mug").mkdir(parents=True)
    (corpus / "mug" / "m0.obj").write_text(serialize_obj(shapes.cuboid(1.0, 1.3, 1.7)))
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("sample_count = 2500\npair_count = 8000\nmax_hypotheses = 16\n"
                   "cluster_offset_frac = 0.015\nper_model_views = 2\n"
                   "width = 64\nheight = 64\n")
    out = tmp_path / "out"
    assert main(["build", str(corpus), str(out), "--config", str(cfg), "--seed", "0"]) == 0
    import shutil
    meta, records = read_manifest(out / "manifest.tsv")
    pred_dir = tmp_path / "pred"
    for record in records:
        dst = pred_dir / (record.image_id + "_normal.pfm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / (record.image_id + "_normal.pfm"), dst)
    rep = tmp_path / "rep"
    assert main(["eval-normals", str(out / "manifest.tsv"), str(pred_dir),
                 "--out-dir", str(rep)]) == 0
    text = (rep / "report.txt").read_text()
    assert "mean    0.00" in text and "median    0.00" in text
    assert "GP 100.0/100.0/100.0" in text
    report(6, "2-pixel fixture exact; end-to-end report 0/0/100/100/100")


def test_criterion_7_paper_constant_conformance():
    azimuths = np.empty(100000)
    for seed in range(100000):
        pose = sample_view(V_N, seed)
        assert pose.cyclo_deg == 0.0
        assert 0.0 <= pose.elevation_deg <= 10.0
        azimuths[seed] = pose.azimuth_deg
    hist, _ = np.histogram(azimuths, bins=36, range=(-180.0, 180.0))
    assert chisquare(hist).pvalue > 0.001
    for seed in range(100000):
        pose = sample_view(V_D, seed)
        assert 0.0 <= pose.elevation_deg <= 50.0
        assert -30.0 <= pose.cyclo_deg <= 30.0

    codebook = OrientationCodebook(10, HORIZONTAL_CIRCLE)
    assert codebook.K == 10
    assert np.all(codebook.directions[:, 2] == 0.0)
    az = np.degrees(np.arctan2(codebook.directions[:, 1], codebook.directions[:, 0]))
    assert np.allclose(az, np.arange(10) * 18.0, atol=1e-12)

    report(7, "V_N/V_D boxes hold over 1e5 draws, azimuth uniform, "
              "10 horizontal directions")


def test_criterion_8_toy_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "airplane").mkdir(parents=True)
    for i in range(4):
        mesh = shapes.cuboid(1.0 + 0.2 * i, 1.5, 2.0 + 0.1 * i)
        (corpus / "airplane" / f"model{i}.obj").write_text(serialize_obj(mesh))
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("sample_count = 2500\npair_count = 8000\nmax_hypotheses = 16\n"
                   "cluster_offset_frac = 0.015\nper_model_views = 8\n")
    started = time.perf_counter()
    outs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main(["build", str(corpus), str(out), "--config", str(cfg),
                     "--seed", "0"]) == 0
        outs.append(out)
    elapsed = time.perf_counter() - started
    man_a = (outs[0] / "manifest.tsv").read_bytes()
    man_b = (outs[1] / "manifest.tsv").read_bytes()
    assert man_a == man_b
    meta, records = read_manifest(outs[0] / "manifest.tsv")
    assert len(records) == 32  # 4 models x 8 views
    for record in records:
        for rel in (f"{record.image_id}_normal.pfm", f"{record.image_id}_labels.pgm"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
    # each tree holds the manifest, each model's planes and each row's two
    # named maps, and nothing else
    expected = {"manifest.tsv"} | {f"{r.category}/{r.model_id}/planes.txt" for r in records} \
        | {f"{r.image_id}{suffix}" for r in records for suffix in ("_normal.pfm", "_labels.pgm")}
    for out in outs:
        assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == expected
    assert elapsed < 60.0, f"two runs took {elapsed:.1f}s"
    report(8, f"two full runs bitwise identical, {elapsed:.1f}s for both")
