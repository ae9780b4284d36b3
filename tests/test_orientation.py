import dataclasses
import hashlib
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from symnorm.orientation import (
    BIN_SCORES,
    FULL_SPHERE,
    HEMISPHERE,
    HORIZONTAL_CIRCLE,
    V_D,
    V_N,
    OrientationCodebook,
    ViewPose,
    bin_orientations,
    canonical_sign,
    euler_to_rotation,
    make_symmetry_label,
    rotate_orientations,
    row_norms,
    sample_view,
    unit_mask,
    unit_rows,
    view_distribution,
)

unit_angles = st.floats(min_value=-179.9, max_value=180.0, allow_nan=False)


def test_full_sphere_z_sequence():
    cb = OrientationCodebook(2, FULL_SPHERE)
    assert cb.directions[:, 2].tolist() == [0.5, -0.5]
    cb = OrientationCodebook(7, FULL_SPHERE)
    assert np.allclose(cb.directions[:, 2], 1.0 - (2.0 * np.arange(7) + 1.0) / 7.0)


def test_hemisphere_single_direction():
    cb = OrientationCodebook(1, HEMISPHERE)
    assert cb.directions[0, 2] == 0.5
    assert np.linalg.norm(cb.directions[0]) == pytest.approx(1.0, abs=1e-12)


def test_hemisphere_strictly_front_facing():
    cb = OrientationCodebook(60, HEMISPHERE)
    assert cb.directions[:, 2].min() > 0.0


def test_horizontal_circle_spacing():
    cb = OrientationCodebook(10, HORIZONTAL_CIRCLE)
    assert cb.K == 10
    assert np.all(cb.directions[:, 2] == 0.0)
    az = np.degrees(np.arctan2(cb.directions[:, 1], cb.directions[:, 0]))
    assert np.allclose(az, np.arange(10) * 18.0, atol=1e-12)


def test_codebook_rejects_bad_input():
    with pytest.raises(ValueError):
        OrientationCodebook(0, FULL_SPHERE)
    with pytest.raises(ValueError):
        OrientationCodebook(4, "cube")
    with pytest.raises(ValueError):
        OrientationCodebook(-1, HEMISPHERE)


# sha256 of directions.tobytes(): label maps, symmetry labels and baseline
# predictions index into these directions, so their bits are output bytes
CODEBOOK_DIGESTS = {
    (FULL_SPHERE, 1): "725c4777db328932b197731b1c986c84913a069a2090deb3667b697624551c8b",
    (FULL_SPHERE, 10): "bcce42bf586e156b07f3c14f03e56415aeb0d3776f2b616707d6b9c1fa59bbf1",
    (FULL_SPHERE, 60): "56b77d283c950c220985f836d1d1cdad6fabbb3dbeda05045f0f8c42ba684c50",
    (FULL_SPHERE, 1000): "c5176e98a6a6f53ad481074a6282a2b690af5008cd0ce14ab8168bd052728650",
    (HEMISPHERE, 1): "ec5be3fbb29231f405f55a57ab0dbdd5d4f838eb66ba6cb665eed794b0f52df8",
    (HEMISPHERE, 10): "76b3e3f219d53f821c37e3b65a8ef40df7d6b0a7e4497c3e0f675608d4378cb2",
    (HEMISPHERE, 60): "250bbb2cff3dd2ea7035a5b7c712531cf10ad54776343175e23f12d1e2cb77d0",
    (HEMISPHERE, 1000): "c53c24d0fd84dcaf61b51d28f34432851ddf59d7ff5ddd63e5f7014a0dda9816",
    (HORIZONTAL_CIRCLE, 1): "725c4777db328932b197731b1c986c84913a069a2090deb3667b697624551c8b",
    (HORIZONTAL_CIRCLE, 10): "87aedc9ec36070092155590601a4203ad85774d7d8b0e73c47df25e476b64d27",
    (HORIZONTAL_CIRCLE, 60): "1e6d16d67f6ef9d1e92f353f7fc3a3438e4afec35747ef78ba608ad694f43b04",
    (HORIZONTAL_CIRCLE, 1000): "649ae7195234ce86cbe462defa40b7cdd73658e6f4d2426615d35d87df4097c2",
}


@pytest.mark.parametrize("support, K", sorted(CODEBOOK_DIGESTS))
def test_codebook_directions_pinned(support, K):
    cb = OrientationCodebook(K, support)
    assert hashlib.sha256(cb.directions.tobytes()).hexdigest() == CODEBOOK_DIGESTS[support, K]
    assert cb.directions.shape == (K, 3) and not cb.directions.flags.writeable


@pytest.mark.parametrize("support, K", sorted(CODEBOOK_DIGESTS))
def test_codebook_header_round_trip(support, K):
    cb = OrientationCodebook(K, support)
    assert cb.header() == f"support={support}\tk={K}"
    again = OrientationCodebook(*OrientationCodebook.parse_header(cb.header()))
    assert again == cb and again.directions.tobytes() == cb.directions.tobytes()


@pytest.mark.parametrize("text", ["support=hemisphere", "k=10", "support=cube\tk=10",
                                  "support=hemisphere\tk=0", "support=hemisphere\tk=ten",
                                  "hemisphere\t10", ""])
def test_codebook_header_rejects_malformed(text):
    with pytest.raises(ValueError):
        OrientationCodebook(*OrientationCodebook.parse_header(text))


def per_row_norms(vectors):
    """The oracle: each row's 1-d `np.linalg.norm`, one row at a time."""
    return np.array([np.linalg.norm(v) for v in vectors])


@pytest.mark.parametrize("scale", [None, 1e-3, 1.0, 1e3], ids=["near-unit", "1e-3", "1", "1e3"])
def test_row_norms_and_unit_rows_match_per_row_oracle(scale):
    rng = np.random.default_rng(7)
    vs = rng.normal(size=(20000, 3))
    if scale is None:
        vs = vs / per_row_norms(vs)[:, None] * (1.0 + 1e-9 * rng.normal(size=(len(vs), 1)))
    else:
        vs *= scale
    want = per_row_norms(vs)
    assert row_norms(vs).tobytes() == want.tobytes()
    assert unit_rows(vs).tobytes() == np.array([v / n for v, n in zip(vs, want)]).tobytes()


def test_unit_mask_tolerance_and_non_finite():
    rows = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + 5e-7], [0.0, 0.0, 1.0 + 2e-6], [0.0, 0.0, 0.0],
            [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [np.nan] * 3]
    assert unit_mask(rows).tolist() == [True, True, False, False, False, False, False]
    assert unit_mask(np.empty((0, 3))).tolist() == []


def test_unit_mask_decides_boundary_and_overflowing_rows_without_a_warning():
    """On rows within 8 ulps of 1 +- 1e-6 and on special rows, in float64 and
    float32, unit_mask decides as row_norms does, and a row whose squared
    length overflows fails without a numpy warning."""
    rng = np.random.default_rng(12)
    n = 40000
    directions = unit_rows(rng.normal(size=(n, 3)))
    lengths = np.where(rng.random(n) < 0.5, 1.0 + 1e-6, 1.0 - 1e-6)
    steps = rng.integers(-8, 9, n)
    for i in range(8):
        lengths = np.where(steps > i, np.nextafter(lengths, 2.0), lengths)
        lengths = np.where(steps < -i, np.nextafter(lengths, 0.0), lengths)
    special = [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 0.0],
               [1e200, 0.0, 0.0], [1e-200, 0.0, 0.0], [1e200, -1e200, 1e200], [0.0, 0.0, 1.0]]
    rows = np.vstack([directions * lengths[:, None], special])
    with np.errstate(over="ignore"):
        single = rows.astype(np.float32)
        want = np.abs(row_norms(rows) - 1.0) <= 1e-6
        want_single = np.abs(row_norms(single) - 1.0) <= 1e-6
    assert 0 < want.sum() < n
    assert want[n:].tolist() == want_single[n:].tolist() == [False] * 7 + [True]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing row fails without a warning
        assert unit_mask(rows).tolist() == want.tolist()
        assert unit_mask(single).tolist() == want_single.tolist()


def test_unit_mask_fast_path_decides_as_the_per_row_norm():
    """unit_mask's einsum norm decides every row but those near the bound,
    which row_norms re-checks: on rows within 8 ulps of 1 +- 1e-6, each
    step equally often, and on special rows it decides as each row's 1-d
    np.linalg.norm."""
    rng = np.random.default_rng(13)
    per_step = 1000
    lengths = []
    for bound in (1.0 - 1e-6, 1.0 + 1e-6):
        for step in range(-8, 9):
            length = bound
            for _ in range(abs(step)):
                length = np.nextafter(length, 2.0 if step > 0 else 0.0)
            lengths.append(np.full(per_step, length))
    lengths = np.concatenate(lengths)
    rows = unit_rows(rng.normal(size=(len(lengths), 3))) * lengths[:, None]
    special = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0],
                        [0.0, 0.0, 0.0], [0.0, 0.0, 1e200], [0.0, -1e-200, 0.0], [0.0, 1.0, 0.0]])
    rows = np.vstack([rows, special])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.abs(per_row_norms(rows) - 1.0) <= 1e-6
        # the einsum norm alone decides some of these rows the other way
        fast = np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0) <= 1e-6
    assert 0.3 < want[:-len(special)].mean() < 0.7
    assert want[-len(special):].tolist() == [False] * 6 + [True]
    assert (fast != want).any()
    assert unit_mask(rows).tolist() == want.tolist()


def _reject_plane(v):
    from symnorm.symmetry import SymmetryPlane
    SymmetryPlane(v, 0.0)


def _reject_bin(v):
    bin_orientations(OrientationCodebook(10, FULL_SPHERE), v)


def _reject_normal_map(v):
    from symnorm.render import NormalMap
    normals = np.zeros((1, 2, 3))
    normals[0, 0] = [0.0, 0.0, 1.0]
    normals[0, 1] = v
    NormalMap(normals, np.ones((1, 2)))


def _reject_prediction(v):
    from symnorm.evaluation import bad_prediction_row
    bad = bad_prediction_row(np.array([[0.0, 0.0, 1.0, 0.5], [*v, 0.5]]))
    if bad is not None:
        raise ValueError(f"prediction {bad[0]}: {bad[1]}")


@pytest.mark.parametrize("value", [[np.nan, 0.0, 1.0], [0.0, 0.0, np.inf], [np.nan] * 3,
                                   [0.0, -np.inf, np.nan]], ids=["nan", "inf", "all-nan", "mixed"])
@pytest.mark.parametrize("site", [_reject_plane, _reject_bin, _reject_normal_map,
                                  _reject_prediction], ids=lambda f: f.__name__[8:])
def test_every_unit_check_rejects_non_finite(site, value):
    with pytest.raises(ValueError, match="unit length"):
        site(np.array(value))


def test_codebook_directions_unit_within_1e9():
    for support, K in ((FULL_SPHERE, 60), (HEMISPHERE, 60), (HORIZONTAL_CIRCLE, 10)):
        cb = OrientationCodebook(K, support)
        assert np.abs(np.linalg.norm(cb.directions, axis=1) - 1.0).max() <= 1e-9


def test_bin_self_and_sign_invariance():
    cb = OrientationCodebook(12, FULL_SPHERE)
    assert bin_orientations(cb, cb.directions[5]).tolist() == [5]
    assert bin_orientations(cb, -cb.directions[5], sign_invariant=True).tolist() == [5]
    assert bin_orientations(cb, -cb.directions[5], sign_invariant=False).tolist() != [5]


def test_bin_idempotent_on_every_codebook_member():
    for support, K in ((FULL_SPHERE, 60), (HEMISPHERE, 60), (HORIZONTAL_CIRCLE, 10)):
        cb = OrientationCodebook(K, support)
        assert bin_orientations(cb, cb.directions).tolist() == list(range(K))


def test_bin_exact_tie_breaks_to_lowest_index():
    cb = OrientationCodebook(10, HORIZONTAL_CIRCLE)
    # (0,0,1) is orthogonal to every horizontal direction: all scores are
    # exactly 0.0, so the argmax must return index 0
    assert bin_orientations(cb, np.array([0.0, 0.0, 1.0]), sign_invariant=True).tolist() == [0]


def test_bin_midpoint_of_adjacent_directions():
    cb = OrientationCodebook(10, HORIZONTAL_CIRCLE)
    mid = cb.directions[0] + cb.directions[1]
    mid /= np.linalg.norm(mid)
    scores = cb.directions @ mid
    # the two scores tie up to float rounding; whichever ulp wins, the bin
    # must be one of the two nearest directions
    assert abs(scores[0] - scores[1]) < 1e-14
    assert bin_orientations(cb, mid)[0] in (0, 1)


def test_bin_rejects_non_unit():
    cb = OrientationCodebook(6, FULL_SPHERE)
    with pytest.raises(ValueError):
        bin_orientations(cb, np.array([0.0, 0.0, 0.5]))


def test_bin_orientations_matches_scalar():
    cb = OrientationCodebook(60, HEMISPHERE)
    rng = np.random.default_rng(0)
    vs = rng.normal(size=(64, 3))
    vs[:, 2] = np.abs(vs[:, 2])
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    batch = bin_orientations(cb, vs)
    assert [bin_orientations(cb, v)[0] for v in vs] == batch.tolist()


@pytest.mark.parametrize("k, support", [(10, HORIZONTAL_CIRCLE), (60, HEMISPHERE), (200, FULL_SPHERE)])
def test_bin_orientations_blocks_match_whole_product(k, support):
    cb = OrientationCodebook(k, support)
    rng = np.random.default_rng(k)
    vs = rng.normal(size=(3 * (BIN_SCORES // k) + 5, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    # tied rows in every block: codebook members (a tie with their negation
    # when sign-invariant) and +z, which scores exactly 0 against every
    # horizontal direction
    vs[::97] = cb.directions[rng.integers(0, k, size=len(vs[::97]))]
    vs[1::89] = [0.0, 0.0, 1.0]
    for sign_invariant in (False, True):
        scores = vs @ cb.directions.T
        if sign_invariant:
            scores = np.abs(scores)
        assert np.array_equal(bin_orientations(cb, vs, sign_invariant), np.argmax(scores, axis=1))


def test_bin_orientations_block_is_sized_from_K():
    # 200 rows against 65535 directions: 105 MB of scores in one block
    cb = OrientationCodebook(65535, HEMISPHERE)
    vs = cb.directions[::331][:200]
    tracemalloc.start()
    try:
        labels = bin_orientations(cb, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.tolist() == list(range(0, 65535, 331))
    assert peak < 24 * 2 ** 20


def test_euler_identity_and_y_flip():
    assert np.allclose(euler_to_rotation(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)
    R = euler_to_rotation(180.0, 0.0, 0.0)
    assert np.allclose(R, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)


def test_euler_rotation_orthonormal_many():
    rng = np.random.default_rng(1)
    for az, el, cy in rng.uniform(-180.0, 180.0, size=(10000, 3)):
        R = euler_to_rotation(az, el, cy)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12


def test_view_pose_rotation_and_validation():
    pose = ViewPose(90.0, 0.0, 0.0)
    assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-12)
    assert np.allclose(pose.rotation, euler_to_rotation(90.0, 0.0, 0.0))
    assert not pose.rotation.flags.writeable
    with pytest.raises(ValueError):
        ViewPose(181.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ViewPose(0.0, 0.0, 95.0)


def test_view_pose_is_its_three_angles():
    assert [f.name for f in dataclasses.fields(ViewPose)] == [
        "azimuth_deg", "elevation_deg", "cyclo_deg"]
    pose = ViewPose(10.0, 5.0, 0.0)
    assert pose == ViewPose(10.0, 5.0, 0.0)
    assert hash(pose) == hash(ViewPose(10.0, 5.0, 0.0))
    assert pose != ViewPose(10.0, 5.0, 1.0)
    again = pickle.loads(pickle.dumps(pose))
    assert again == pose
    assert not again.rotation.flags.writeable
    assert again.rotation.tobytes() == pose.rotation.tobytes()


@pytest.mark.parametrize("dist", [V_N, V_D], ids=lambda d: d.name)
def test_view_pose_rotation_has_the_bits_of_euler_to_rotation(dist):
    for seed in range(200):
        pose = sample_view(dist, seed)
        want = euler_to_rotation(pose.azimuth_deg, pose.elevation_deg, pose.cyclo_deg)
        assert pose.rotation.tobytes() == want.tobytes()


def test_view_distribution_registry():
    assert view_distribution("V_N") is V_N
    assert view_distribution("V_D") is V_D
    with pytest.raises(ValueError):
        view_distribution("V_X")
    assert V_N.elevation_range == (0.0, 10.0) and V_N.cyclo_range == (0.0, 0.0)
    assert V_D.elevation_range == (0.0, 50.0) and V_D.cyclo_range == (-30.0, 30.0)


def test_sample_view_ranges_and_determinism():
    for seed in range(500):
        pose = sample_view(V_N, seed)
        assert pose.cyclo_deg == 0.0
        assert 0.0 <= pose.elevation_deg <= 10.0
        assert -180.0 < pose.azimuth_deg <= 180.0
        pose = sample_view(V_D, seed)
        assert -30.0 <= pose.cyclo_deg <= 30.0
        assert 0.0 <= pose.elevation_deg <= 50.0
    a = sample_view(V_D, 123)
    b = sample_view(V_D, 123)
    assert (a.azimuth_deg, a.elevation_deg, a.cyclo_deg) == \
        (b.azimuth_deg, b.elevation_deg, b.cyclo_deg)


def test_sample_view_azimuth_uniform_chi_square():
    az = np.array([sample_view(V_N, seed).azimuth_deg for seed in range(20000)])
    hist, _ = np.histogram(az, bins=36, range=(-180.0, 180.0))
    assert chisquare(hist).pvalue > 0.001


def test_rotate_orientations_example():
    R = euler_to_rotation(0.0, 90.0, 0.0)
    out = rotate_orientations(np.array([[0.0, 0.0, 1.0]]), R)
    assert np.allclose(out[0], [0.0, 1.0, 0.0], atol=1e-12)


def test_rotate_orientations_identity_is_canonicalization():
    cb = OrientationCodebook(16, FULL_SPHERE)
    canon = canonical_sign(cb.directions)
    out = rotate_orientations(canon, np.eye(3))
    assert np.allclose(out, canon, atol=1e-15)


def test_rotate_orientations_preserves_unit_norm():
    rng = np.random.default_rng(2)
    vs = rng.normal(size=(32, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    out = rotate_orientations(vs, euler_to_rotation(33.0, 21.0, -8.0))
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12


def test_rotate_orientations_requires_orthonormal():
    with pytest.raises(ValueError):
        rotate_orientations(np.eye(3), np.eye(3) * 2.0)


def test_canonical_sign_rule():
    # first nonzero of (z, y, x) becomes positive
    assert canonical_sign(np.array([0.0, 0.0, -1.0])).tolist() == [0.0, 0.0, 1.0]
    assert canonical_sign(np.array([3.0, -2.0, 0.0])).tolist() == [-3.0, 2.0, 0.0]
    assert canonical_sign(np.array([-3.0, 2.0, 0.0])).tolist() == [-3.0, 2.0, 0.0]
    assert canonical_sign(np.array([0.0, -2.0, 0.0])).tolist() == [0.0, 2.0, 0.0]
    assert canonical_sign(np.array([-1.0, 0.0, 0.0])).tolist() == [1.0, 0.0, 0.0]
    assert canonical_sign(np.array([0.0, 0.0, 0.0])).tolist() == [0.0, 0.0, 0.0]
    assert canonical_sign(np.array([5.0, -1.0, 2.0])).tolist() == [5.0, -1.0, 2.0]


def test_make_symmetry_label():
    cb = OrientationCodebook(10, HORIZONTAL_CIRCLE)
    assert not make_symmetry_label(np.empty((0, 3)), cb).any()
    one = make_symmetry_label(cb.directions[3:4], cb)
    assert one.sum() == 1 and one[3]
    # two normals one degree apart share a bin when bins are 18 degrees wide
    a = np.array([np.cos(np.radians(0.5)), np.sin(np.radians(0.5)), 0.0])
    b = np.array([np.cos(np.radians(1.5)), np.sin(np.radians(1.5)), 0.0])
    label = make_symmetry_label(np.vstack([a, b]), cb)
    assert label.sum() == 1 and label[0]


def test_make_symmetry_label_rejects_hemisphere():
    with pytest.raises(ValueError):
        make_symmetry_label(np.array([[0.0, 0.0, 1.0]]), OrientationCodebook(60, HEMISPHERE))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_binning_sign_invariance_property(seed):
    cb = OrientationCodebook(24, FULL_SPHERE)
    v = np.random.default_rng(seed).normal(size=3)
    v /= np.linalg.norm(v)
    assert np.array_equal(bin_orientations(cb, v, sign_invariant=True),
                          bin_orientations(cb, -v, sign_invariant=True))


@given(unit_angles, unit_angles, unit_angles)
@settings(max_examples=80, deadline=None)
def test_euler_inverse_is_transpose_property(az, el, cy):
    R = euler_to_rotation(az, el, cy)
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12


def test_hemisphere_near_uniformity_quick_scan():
    # the exhaustive million-vector scan lives in the acceptance suite
    cb = OrientationCodebook(60, HEMISPHERE)
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(100000, 3))
    dirs[:, 2] = np.abs(dirs[:, 2])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = np.degrees(np.arccos(np.clip((dirs @ cb.directions.T).max(axis=1), -1, 1))).max()
    assert worst <= 1.5 * np.degrees(np.arccos(1.0 - 2.0 / 60.0))
