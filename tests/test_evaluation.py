import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapes
from ap_oracle import oracle_ap
from symnorm.errors import NoForegroundError, UndefinedAPError
from symnorm.evaluation import (
    aggregate_by_category,
    angular_distance_sym,
    ap_symmetry,
    metrics_from_errors,
    normal_metrics,
    pixel_errors_deg,
    random_baseline,
)
from symnorm.orientation import HORIZONTAL_CIRCLE, ViewPose, fibonacci_codebook
from symnorm.render import BACKGROUND_DEPTH, CameraIntrinsics, NormalMap, rasterize


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_instance(rng, max_images=3, max_gt=3, max_pred=6):
    images = int(rng.integers(1, max_images + 1))
    gt_sets, pred_sets, oracle_preds = [], [], []
    while True:
        gt_sets = [random_unit(rng, int(rng.integers(0, max_gt + 1))) for _ in range(images)]
        if sum(len(g) for g in gt_sets):
            break
    for _ in range(images):
        n = int(rng.integers(0, max_pred + 1))
        dirs = random_unit(rng, n)
        confs = rng.random(n)
        pred_sets.append(np.column_stack([dirs, confs]))
        oracle_preds.append(list(zip(dirs, confs.tolist())))
    return gt_sets, pred_sets, oracle_preds


def flat_map(normals_list, mask):
    h, w = mask.shape
    normals = np.zeros((h, w, 3))
    normals[mask] = normals_list
    depth = np.where(mask, 1.0, BACKGROUND_DEPTH)
    return NormalMap(normals, mask, depth)


def test_angular_distance_examples():
    z = np.array([0.0, 0.0, 1.0])
    assert angular_distance_sym(z, z) == 0.0
    assert angular_distance_sym(z, -z) == 0.0
    assert angular_distance_sym([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 90.0
    with pytest.raises(ValueError):
        angular_distance_sym([0.0, 0.0, 2.0], z)
    with pytest.raises(ValueError):
        angular_distance_sym([np.nan, 0.0, 0.0], z)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_angular_distance_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    a, b = random_unit(rng, 2)
    d = angular_distance_sym(a, b)
    assert 0.0 <= d <= 90.0
    assert d == angular_distance_sym(b, a)
    assert d == angular_distance_sym(-a, b)


def test_prediction_validation():
    gt_sets = [np.array([[0.0, 0.0, 1.0]])]
    with pytest.raises(ValueError):
        ap_symmetry(gt_sets, [np.array([[0.0, 0.0, 0.5, 0.5]])], theta_deg=10.0)
    with pytest.raises(ValueError):
        ap_symmetry(gt_sets, [np.array([[0.0, 0.0, 1.0, 1.5]])], theta_deg=10.0)
    with pytest.raises(ValueError):
        ap_symmetry(gt_sets, [np.array([[np.nan, 0.0, 0.0, 0.5]])], theta_deg=10.0)
    with pytest.raises(ValueError):
        ap_symmetry(gt_sets, [np.array([[0.0, 0.0, 1.0, np.nan]])], theta_deg=10.0)
    with pytest.raises(ValueError):
        ap_symmetry(gt_sets, [np.array([0.0, 0.0, 1.0, 0.5])], theta_deg=10.0)


def test_ap_perfect_detector():
    rng = np.random.default_rng(0)
    gt_sets = [random_unit(rng, 2), random_unit(rng, 1)]
    preds = [np.column_stack([gs, 0.9 - 0.1 * np.arange(len(gs))]) for gs in gt_sets]
    curve = ap_symmetry(gt_sets, preds, theta_deg=10.0)
    assert curve.ap == 1.0


def test_ap_hand_traced_half():
    gt_sets = [np.array([[0.0, 0.0, 1.0]])]
    wrong = [1.0, 0.0, 0.0, 0.9]
    right = [0.0, 0.0, 1.0, 0.5]
    curve = ap_symmetry(gt_sets, [np.array([wrong, right])], theta_deg=10.0)
    assert curve.points.tolist() == [[0.0, 0.0], [1.0, 0.5]]
    assert curve.ap == 0.5


def test_ap_all_wrong_is_zero():
    gt_sets = [np.array([[0.0, 0.0, 1.0]])]
    preds = [np.array([[1.0, 0.0, 0.0, 0.5],
                       [0.0, 1.0, 0.0, 0.5]])]
    assert ap_symmetry(gt_sets, preds, theta_deg=10.0).ap == 0.0


def test_ap_prevents_double_counting():
    gt_sets = [np.array([[0.0, 0.0, 1.0]])]
    near = unit([0.01, 0.0, 1.0])
    preds = [np.column_stack([[near, near], [0.9, 0.8]])]
    curve = ap_symmetry(gt_sets, preds, theta_deg=10.0)
    # second prediction of the same plane is a false positive
    assert curve.points.tolist() == [[1.0, 1.0], [1.0, 0.5]]
    assert curve.ap == 1.0


def test_ap_zero_gt_undefined():
    with pytest.raises(UndefinedAPError):
        ap_symmetry([np.empty((0, 3))], [np.empty((0, 4))], theta_deg=10.0)


def test_ap_matches_oracle_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(200):
        gt_sets, pred_sets, oracle_preds = random_instance(rng)
        got = ap_symmetry(gt_sets, pred_sets, theta_deg=10.0).ap
        want = oracle_ap(gt_sets, oracle_preds, theta_deg=10.0)
        assert abs(got - want) <= 1e-12


def test_added_confident_hit_never_loses_recall():
    # Envelope AP itself is NOT monotone under adding a top-confidence
    # correct prediction: duplicating an already-detected plane turns the
    # old match into a false positive (see the duplicate-penalty test
    # below).  What does hold, and is asserted here over 1000 random
    # instances, is that final recall never drops and that implementation
    # and brute-force oracle agree before and after.
    rng = np.random.default_rng(321)
    for _ in range(1000):
        gt_sets, pred_sets, oracle_preds = random_instance(rng, max_images=2)
        before = ap_symmetry(gt_sets, pred_sets, theta_deg=10.0)
        img = next(i for i, g in enumerate(gt_sets) if len(g))
        boosted = list(pred_sets)
        boosted[img] = np.vstack([boosted[img], np.append(gt_sets[img][0], 1.0)])
        boosted_oracle = [list(p) for p in oracle_preds]
        boosted_oracle[img] = boosted_oracle[img] + [(gt_sets[img][0], 1.0)]
        after = ap_symmetry(gt_sets, boosted, theta_deg=10.0)
        recall_before = before.points[-1, 0] if len(before.points) else 0.0
        recall_after = after.points[-1, 0]
        assert recall_after >= recall_before - 1e-12
        assert abs(before.ap - oracle_ap(gt_sets, oracle_preds, 10.0)) <= 1e-12 \
            if any(len(p) for p in oracle_preds) else True
        assert abs(after.ap - oracle_ap(gt_sets, boosted_oracle, 10.0)) <= 1e-12


def test_ap_duplicate_penalty_counterexample():
    # the documented reason AP monotonicity cannot be asserted: two images
    # with one plane each, each hit once, give AP 1; adding a duplicate
    # top-confidence hit of the first plane demotes its old match to a
    # false positive and AP drops to 5/6
    g = np.array([[0.0, 0.0, 1.0]])
    gt_sets = [g, g]
    p_img0 = np.append(g[0], 0.9)
    p_img1 = np.append(g[0], 0.8)
    assert ap_symmetry(gt_sets, [np.array([p_img0]), np.array([p_img1])], 10.0).ap == 1.0
    dup = np.append(g[0], 1.0)
    curve = ap_symmetry(gt_sets, [np.array([dup, p_img0]), np.array([p_img1])], 10.0)
    assert curve.ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_random_baseline_shape_and_determinism():
    codebook = fibonacci_codebook(10, HORIZONTAL_CIRCLE)
    a = random_baseline(codebook, 3, seed=5)
    b = random_baseline(codebook, 3, seed=5)
    c = random_baseline(codebook, 3, seed=6)
    assert [len(p) for p in a] == [10, 10, 10]
    assert all(np.array_equal(pa[:, 3], pb[:, 3]) for pa, pb in zip(a, b))
    assert any(not np.array_equal(pa[:, 3], pc[:, 3]) for pa, pc in zip(a, c))


def test_random_baseline_expected_ap_analytic():
    # one image whose single plane sits exactly on a codebook direction:
    # only that direction matches at theta=10 (spacing is 18), and with a
    # uniform random rank R among K the envelope AP is 1/R, so
    # E[AP] = H_K / K.  400 seeds put the sample mean within 3 sigma.
    codebook = fibonacci_codebook(10, HORIZONTAL_CIRCLE)
    gt = [codebook.directions[4:5]]
    aps = []
    for seed in range(400):
        preds = random_baseline(codebook, 1, seed=seed)
        aps.append(ap_symmetry(gt, preds, theta_deg=10.0).ap)
    expected = sum(1.0 / r for r in range(1, 11)) / 10.0
    sigma_mean = 0.263 / np.sqrt(400)
    assert abs(np.mean(aps) - expected) <= 3.0 * sigma_mean


def test_normal_metrics_perfect():
    mask = np.array([[True, True], [True, False]])
    nm = flat_map(np.tile([0.0, 0.0, 1.0], (3, 1)), mask)
    m = normal_metrics(nm, nm)
    assert m.mean_err_deg == 0.0 and m.median_err_deg == 0.0
    assert m.gp_11_25 == m.gp_22_5 == m.gp_30 == 1.0
    assert m.auc_30 == 1.0
    assert m.curve[0].tolist() == [0.0, 1.0]


def test_normal_metrics_two_pixel_fixture():
    mask = np.array([[True, True]])
    gt = flat_map([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], mask)
    a = np.radians(20.0)
    pred = flat_map([[0.0, 0.0, 1.0], [np.sin(a), 0.0, np.cos(a)]], mask)
    m = normal_metrics(gt, pred)
    assert m.mean_err_deg == pytest.approx(10.0, abs=1e-12)
    assert m.median_err_deg == 0.0  # lower middle of [0, 20]
    assert m.gp_11_25 == 0.5
    assert m.gp_22_5 == 1.0
    assert m.gp_30 == 1.0
    # curve: 0.5 below 20 degrees, 1.0 from 20 on; trapezoid = 20.25 / 30
    assert m.auc_30 == pytest.approx(0.675, abs=1e-12)


def test_predicted_background_counts_as_180():
    mask = np.array([[True, True]])
    gt = flat_map([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], mask)
    pred_mask = np.array([[True, False]])
    pred = flat_map([[0.0, 0.0, 1.0]], pred_mask)
    errors = pixel_errors_deg(gt.normals[gt.mask], pred.normals[gt.mask])
    assert sorted(errors.tolist()) == [0.0, 180.0]
    assert normal_metrics(gt, pred).mean_err_deg == 90.0


def test_metrics_dimension_mismatch_and_empty():
    mask = np.array([[True]])
    nm = flat_map([[0.0, 0.0, 1.0]], mask)
    bigger = flat_map(np.tile([0.0, 0.0, 1.0], (4, 1)), np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="dimensions disagree"):
        normal_metrics(nm, bigger)
    empty = NormalMap(np.zeros((1, 1, 3)), np.zeros((1, 1), dtype=bool),
                      np.full((1, 1), BACKGROUND_DEPTH))
    with pytest.raises(NoForegroundError):
        normal_metrics(empty, empty)
    # the sizes are checked before the foreground
    with pytest.raises(ValueError, match="dimensions disagree"):
        normal_metrics(empty, bigger)


def test_view_axis_rotation_against_per_pixel_oracle():
    mesh = shapes.icosphere(2)
    nm = rasterize(mesh, ViewPose(15.0, 20.0, 0.0), CameraIntrinsics(width=96, height=96))
    alpha = np.radians(12.0)
    rot = np.array([[np.cos(alpha), -np.sin(alpha), 0.0],
                    [np.sin(alpha), np.cos(alpha), 0.0],
                    [0.0, 0.0, 1.0]])
    rotated = nm.normals[nm.mask] @ rot.T
    pred = flat_map(rotated, nm.mask)
    m = normal_metrics(nm, pred)
    # analytic per-pixel error for rotation about the view axis
    nz = nm.normals[nm.mask][:, 2]
    expected = np.degrees(np.arccos(np.clip(nz ** 2 + (1 - nz ** 2) * np.cos(alpha), -1, 1)))
    assert m.mean_err_deg == pytest.approx(expected.mean(), abs=0.5)


def test_aggregate_single_category_equals_macro():
    errors = np.array([1.0, 2.0, 3.0])
    per_cat, macro = aggregate_by_category({"mug": [errors]})
    assert per_cat["mug"].mean_err_deg == macro.mean_err_deg
    assert per_cat["mug"].auc_30 == macro.auc_30


def test_aggregate_macro_is_unweighted():
    errors_a = np.array([5.0, 5.0, 20.0, 20.0, 20.0])       # gp11 = 0.4
    errors_b = np.array([5.0, 5.0, 5.0, 20.0, 20.0] * 10)  # gp11 = 0.6
    per_cat, macro = aggregate_by_category({"a": [errors_a], "b": [errors_b]})
    assert per_cat["a"].gp_11_25 == 0.4
    assert per_cat["b"].gp_11_25 == 0.6
    assert macro.gp_11_25 == 0.5


def test_aggregate_pools_pixels_for_median():
    rng = np.random.default_rng(3)
    chunks = [rng.uniform(0.0, 40.0, size=17), rng.uniform(0.0, 40.0, size=8)]
    per_cat, _ = aggregate_by_category({"cat": chunks})
    pooled = np.sort(np.concatenate(chunks))
    assert per_cat["cat"].median_err_deg == pooled[(len(pooled) - 1) // 2]
    assert per_cat["cat"].mean_err_deg == pytest.approx(pooled.mean(), abs=1e-12)


def test_aggregate_draws_lazy_categories_in_turn_and_leaves_out_empty_ones():
    drawn = []

    def images(category, chunks):
        for chunk in chunks:
            drawn.append(category)
            yield np.asarray(chunk)

    per_cat, macro = aggregate_by_category({"b": images("b", [[10.0], [30.0]]),
                                            "c": images("c", []),
                                            "a": images("a", [[5.0, 15.0]])})
    assert drawn == ["a", "b", "b"]
    assert list(per_cat) == ["a", "b"]
    assert (per_cat["b"].mean_err_deg, per_cat["b"].median_err_deg) == (20.0, 10.0)
    assert macro.mean_err_deg == 15.0
    per_cat, macro = aggregate_by_category({"a": [[5.0, 15.0]], "b": []})
    assert list(per_cat) == ["a"]
    assert macro.mean_err_deg == per_cat["a"].mean_err_deg == 10.0  # "b" is not averaged in
    for empty in ({}, {"a": [], "b": iter([])}):
        with pytest.raises(NoForegroundError):
            aggregate_by_category(empty)


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(4)
    errors = rng.uniform(0.0, 60.0, size=101)
    m1 = metrics_from_errors(errors)
    m2 = metrics_from_errors(rng.permutation(errors))
    assert m1.mean_err_deg == m2.mean_err_deg
    assert m1.median_err_deg == m2.median_err_deg
    assert (m1.gp_11_25, m1.gp_22_5, m1.gp_30) == (m2.gp_11_25, m2.gp_22_5, m2.gp_30)
    assert np.array_equal(m1.curve, m2.curve)
    assert m1.auc_30 == m2.auc_30
    gt_sets, pred_sets, _ = random_instance(rng)
    ap1 = ap_symmetry(gt_sets, pred_sets, theta_deg=10.0).ap
    order = rng.permutation(len(gt_sets))
    ap2 = ap_symmetry([gt_sets[i] for i in order], [pred_sets[i] for i in order],
                      theta_deg=10.0).ap
    assert ap1 == pytest.approx(ap2, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 300_001])
def test_good_pixel_fractions_match_the_threshold_means(n):
    """The fractions within 11.25, 22.5 and 30 degrees have the bits of
    `(errors <= t).mean()`, errors landing exactly on each threshold and at
    180 degrees included."""
    rng = np.random.default_rng(n)
    ties = np.array([11.25, 22.5, 30.0, 180.0])
    errors = np.where(rng.random(n) < 0.3, ties[rng.integers(0, 4, n)],
                      rng.uniform(0.0, 180.0, n))
    m = metrics_from_errors(errors)
    want = [float((errors <= t).mean()) for t in (11.25, 22.5, 30.0)]
    assert [m.gp_11_25, m.gp_22_5, m.gp_30] == want


def test_gp_curve_consistency():
    rng = np.random.default_rng(5)
    m = metrics_from_errors(rng.uniform(0.0, 45.0, size=500))
    fractions = m.curve[:, 1]
    assert np.all(np.diff(fractions) >= 0.0)
    assert m.gp_30 == fractions[-1]
    assert m.curve[-1, 0] == 30.0
