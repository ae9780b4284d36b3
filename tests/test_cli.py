import dataclasses
import json
import logging
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import label_oracle
import normal_eval_oracle
import shapes
import symnorm
from symnorm import cli
from symnorm.cli import main, read_predictions, write_predictions
from symnorm.dataset import read_manifest, record_image_id, write_manifest
from symnorm.imgfmt import read_pfm, read_pgm16, write_pfm, write_pgm16
from symnorm.mesh_io import serialize_obj
from symnorm.orientation import FULL_SPHERE, HEMISPHERE, OrientationCodebook, ViewPose
from symnorm.render import CameraIntrinsics, rasterize
from symnorm.symmetry import read_planes

SUITE_KEYS = ("sample_count = 8000\naccept_residual = 0.0088\n"
              "cluster_offset_frac = 0.015\n")
TOY_KEYS = ("sample_count = 2500\npair_count = 8000\nmax_hypotheses = 16\n"
            "cluster_offset_frac = 0.015\nper_model_views = 2\n"
            "width = 64\nheight = 64\n")


@pytest.fixture()
def cuboid_obj(tmp_path):
    path = tmp_path / "cuboid.obj"
    path.write_text(serialize_obj(shapes.cuboid()))
    return path


@pytest.fixture()
def suite_cfg(tmp_path):
    path = tmp_path / "suite.cfg"
    path.write_text(SUITE_KEYS)
    return path


@pytest.fixture()
def toy_build(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "airplane").mkdir(parents=True)
    for i in range(4):
        mesh = shapes.cuboid(1.0 + 0.2 * i, 1.5, 2.0 + 0.1 * i)
        (corpus / "airplane" / f"model{i}.obj").write_text(serialize_obj(mesh))
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_KEYS)
    out = tmp_path / "out"
    assert main(["build", str(corpus), str(out), "--config", str(cfg), "--seed", "0"]) == 0
    return corpus, cfg, out


def test_detect_cuboid_three_lines(tmp_path, cuboid_obj, suite_cfg):
    out = tmp_path / "planes.txt"
    rc = main(["detect", str(cuboid_obj), "--out", str(out), "--config", str(suite_cfg)])
    assert rc == 0
    planes = read_planes(out)
    assert len(planes) == 3
    assert "accept_residual" in out.read_text()


def test_detect_missing_and_malformed_inputs(tmp_path):
    rc = main(["detect", str(tmp_path / "nope.obj"), "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 zero\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    rc = main(["detect", str(bad), "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    degen = tmp_path / "degen.obj"
    degen.write_text("v 1 1 1\nv 1 1 1\nv 1 1 1\nf 1 2 3\n")
    rc = main(["detect", str(degen), "--out", str(tmp_path / "o.txt")])
    assert rc == 3


# finite coordinates whose bbox diagonal (the first two) or face areas (the
# last) overflow float64
OVERFLOWING_OBJ = {
    "extent-1e200": "v 1e200 0 0\nv -1e200 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\nf 2 4 3\n",
    "extent-1e308": "v 1e308 0 0\nv -1e308 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\nf 2 4 3\n",
    "area-1e150": "v 1e150 0 0\nv -1e150 0 0\nv 0 1e150 0\nf 1 2 3\n",
}


@pytest.mark.parametrize("command", ["detect", "render"])
@pytest.mark.parametrize("mesh", sorted(OVERFLOWING_OBJ))
def test_overflowing_mesh_exits_3(tmp_path, capsys, command, mesh):
    obj = tmp_path / "big.obj"
    obj.write_text(OVERFLOWING_OBJ[mesh])
    out = tmp_path / "out"
    assert main([command, str(obj), "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_build_skips_an_overflowing_mesh_and_builds_the_rest(tmp_path, cuboid_obj, caplog):
    corpus = tmp_path / "corpus"
    (corpus / "can").mkdir(parents=True)
    (corpus / "mug").mkdir()
    bad = corpus / "can" / "big.obj"
    bad.write_text(OVERFLOWING_OBJ["extent-1e200"])
    shutil.copy(cuboid_obj, corpus / "mug" / "box.obj")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_KEYS)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        assert main(["build", str(corpus), str(out), "--config", str(cfg)]) == 0
    assert f"skipping {bad}: mesh bounding box diagonal is not finite" in caplog.messages
    assert {r.model_id for r in read_manifest(out / "manifest.tsv")[1]} == {"box"}
    assert not (out / "can").exists()


def test_detect_stable_across_seeds(tmp_path, cuboid_obj, suite_cfg):
    outs = []
    for seed in (0, 1):
        out = tmp_path / f"planes{seed}.txt"
        assert main(["detect", str(cuboid_obj), "--out", str(out),
                     "--config", str(suite_cfg), "--seed", str(seed)]) == 0
        outs.append(read_planes(out))
    assert len(outs[0]) == len(outs[1]) == 3
    a = np.array([p.normal for p in outs[0]])
    b = np.array([p.normal for p in outs[1]])
    angles = np.degrees(np.arccos(np.clip(np.abs(a @ b.T), 0, 1)))
    assert (angles.min(axis=1) <= 1.0).all()


def test_render_frontal_square(tmp_path):
    obj = tmp_path / "square.obj"
    obj.write_text("v -0.5 -0.5 0\nv 0.5 -0.5 0\nv 0.5 0.5 0\nv -0.5 0.5 0\nf 1 2 3 4\n")
    prefix = tmp_path / "sq"
    rc = main(["render", str(obj), "--out", str(prefix), "--az", "0", "--el", "0",
               "--cyclo", "0", "--width", "32", "--height", "32"])
    assert rc == 0
    normals = read_pfm(f"{prefix}_normal.pfm")
    fg = np.linalg.norm(normals, axis=2) > 0.5
    assert fg.any()
    assert np.all(normals[fg] == np.array([0.0, 0.0, 1.0], dtype=np.float32))
    # bitwise reproducibility
    first = open(f"{prefix}_normal.pfm", "rb").read()
    assert main(["render", str(obj), "--out", str(prefix), "--az", "0", "--el", "0",
                 "--cyclo", "0", "--width", "32", "--height", "32"]) == 0
    assert open(f"{prefix}_normal.pfm", "rb").read() == first


def test_render_at_the_largest_codebook_stays_small_and_matches_the_oracle(tmp_path, cuboid_obj):
    """Each face shown is binned once, in blocks of rows sized from K: the
    per-pixel binning of this 224x224 view in blocks of 4096 rows held
    2.1 GB of scores at K = 65535."""
    prefix = tmp_path / "view"
    tracemalloc.start()
    try:
        assert main(["render", str(cuboid_obj), "--out", str(prefix), "--az", "30", "--el", "20",
                     "--cyclo", "5", "--codebook-k", "65535"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    labels = read_pgm16(f"{prefix}_labels.pgm")
    nm = rasterize(symnorm.parse_obj_file(cuboid_obj), ViewPose(30.0, 20.0, 5.0), CameraIntrinsics())
    codebook = OrientationCodebook(65535, HEMISPHERE)
    assert nm.mask.sum() > 10000 and len(np.unique(labels)) > 2
    assert np.array_equal(labels, label_oracle.discretize_normal_map(nm, codebook).labels)


def test_render_missing_file(tmp_path):
    assert main(["render", str(tmp_path / "nope.obj"), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("flag, value", [("--az", "200"), ("--el", "nan"), ("--cyclo", "95")])
def test_render_out_of_range_pose_exits_2(tmp_path, cuboid_obj, capsys, flag, value):
    assert main(["render", str(cuboid_obj), "--out", str(tmp_path / "view"), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad pose: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cuboid.obj"]


def test_build_missing_corpus_root_exits_2_and_makes_no_out_dir(tmp_path, capsys):
    corpus = tmp_path / "no-such-corpus"
    out = tmp_path / "out"
    assert main(["build", str(corpus), str(out), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(corpus) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "build"])
def test_normal_codebook_above_16_bits_exits_2_before_any_file(tmp_path, cuboid_obj, capsys, command):
    from symnorm.config import RunConfig
    if command == "render":
        argv = [command, str(cuboid_obj), "--out", str(tmp_path / "view"), "--codebook-k", "70000"]
    else:
        corpus = tmp_path / "corpus"
        (corpus / "airplane").mkdir(parents=True)
        shutil.copy(cuboid_obj, corpus / "airplane" / "m.obj")
        cfg = tmp_path / "k.cfg"
        cfg.write_text("normal_codebook_k = 70000\n")
        argv = [command, str(corpus), str(tmp_path / "out"), "--config", str(cfg)]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert "normal_codebook_k must be at most 65535" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    # label K, the background, is the largest 16-bit sample
    assert RunConfig(normal_codebook_k=65535).normal_codebook().K == 65535
    with pytest.raises(ValueError):
        RunConfig(normal_codebook_k=65536)


def test_build_split_and_rerun_identical(tmp_path, toy_build):
    corpus, cfg, out = toy_build
    meta, records = read_manifest(out / "manifest.tsv")
    assert len(records) == 8
    splits = {r.model_id: r.split for r in records}
    assert sorted(splits.values()) == ["test", "train", "train", "train"]
    out2 = tmp_path / "out2"
    assert main(["build", str(corpus), str(out2), "--config", str(cfg), "--seed", "0"]) == 0
    assert (out / "manifest.tsv").read_bytes() == (out2 / "manifest.tsv").read_bytes()


def test_eval_sym_perfect_predictions(tmp_path, toy_build):
    _, _, out = toy_build
    meta, records = read_manifest(out / "manifest.tsv")
    codebook = meta["codebook"]
    image_ids, per_image = [], []
    for r in records:
        image_ids.append(record_image_id(r))
        dirs = codebook.directions[np.flatnonzero(r.symmetry_label)]
        per_image.append(np.column_stack([dirs, np.full(len(dirs), 0.9)]))
    pred_file = tmp_path / "perfect.tsv"
    write_predictions(pred_file, image_ids, per_image)
    rep = tmp_path / "rep"
    rc = main(["eval-sym", str(out / "manifest.tsv"), str(pred_file), "--out-dir", str(rep)])
    assert rc == 0
    report = (rep / "report.tsv").read_text().splitlines()
    macro = [l for l in report if l.startswith("macro\t")][0]
    assert float(macro.split("\t")[1]) == 1.0
    assert (rep / "airplane_pr.csv").read_text().startswith("recall,precision\n")


def test_eval_sym_empty_predictions(tmp_path, toy_build):
    _, _, out = toy_build
    pred_file = tmp_path / "empty.tsv"
    pred_file.write_text("# no predictions\n")
    rep = tmp_path / "rep"
    rc = main(["eval-sym", str(out / "manifest.tsv"), str(pred_file), "--out-dir", str(rep)])
    assert rc == 0
    report = (rep / "report.tsv").read_text().splitlines()
    row = [l for l in report if l.startswith("airplane\t")][0]
    _, ap, n_gt, n_pred = row.split("\t")
    assert float(ap) == 0.0
    assert int(n_gt) > 0 and int(n_pred) == 0


def test_eval_sym_logs_one_line_for_categories_without_planes(tmp_path, toy_build, caplog):
    _, _, out = toy_build
    manifest = out / "manifest.tsv"
    k = read_manifest(manifest)[0]["codebook"].K
    rows = ["\t".join([f"{c}0", c, "m.obj", "0.0,0.0,0.0", f"{c}/v_normal.pfm",
                       f"{c}/v_labels.pgm", "0" * k, "V_N", "test"]) for c in ("bench", "chair")]
    manifest.write_text(manifest.read_text() + "\n".join(rows) + "\n")
    pred_file = tmp_path / "empty.tsv"
    pred_file.write_text("")
    rep = tmp_path / "rep"
    with caplog.at_level(logging.WARNING):
        assert main(["eval-sym", str(manifest), str(pred_file), "--out-dir", str(rep)]) == 0
    assert [m for m in caplog.messages if "ground-truth planes" in m] == \
        ["category has no ground-truth planes, skipped (2 of 3): bench, chair"]
    report = (rep / "report.tsv").read_text().splitlines()
    assert [l.split("\t")[0] for l in report] == ["category", "airplane", "macro"]


def test_eval_sym_rejects_unknown_image_ids(tmp_path, toy_build):
    _, _, out = toy_build
    pred_file = tmp_path / "stray.tsv"
    pred_file.write_text("who/are/you\t0.0\t0.0\t1.0\t0.5\n")
    rc = main(["eval-sym", str(out / "manifest.tsv"), str(pred_file),
               "--out-dir", str(tmp_path / "rep")])
    assert rc == 2


@pytest.mark.parametrize("command", ["eval-sym", "eval-normals"])
def test_eval_rejects_a_category_that_would_write_outside_out_dir(tmp_path, toy_build, capsys,
                                                                  command):
    _, _, out = toy_build
    manifest = out / "escaping.tsv"
    lines = (out / "manifest.tsv").read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[:4]) + "".join(
        line.replace("\tairplane\t", "\t../../escaped\t", 1) for line in lines[4:]))
    preds = tmp_path / "empty.tsv"
    preds.write_text("")
    before = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")}
    argv = [command, str(manifest), str(preds if command == "eval-sym" else out),
            "--out-dir", str(tmp_path / "rep" / "a" / "b")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 5: category '../../escaped'")
    assert {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")} == before


def test_eval_normals_perfect_and_skip(tmp_path, toy_build):
    _, _, out = toy_build
    meta, records = read_manifest(out / "manifest.tsv")
    pred_dir = tmp_path / "pred"
    for r in records:
        dst = pred_dir / (record_image_id(r) + "_normal.pfm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / r.normal_map_path, dst)
    rep = tmp_path / "rep"
    rc = main(["eval-normals", str(out / "manifest.tsv"), str(pred_dir),
               "--out-dir", str(rep)])
    assert rc == 0
    rows = (rep / "report.tsv").read_text().splitlines()
    macro = [l for l in rows if l.startswith("macro\t")][0].split("\t")
    mean, median, gp1, gp2, gp3 = (float(v) for v in macro[1:6])
    # float32 map storage leaves ~4e-3 degrees of self-angle noise; the
    # human-readable report still shows 0.00/0.00/100/100/100
    assert mean <= 0.01 and median <= 0.01
    assert gp1 == gp2 == gp3 == 1.0
    txt = (rep / "report.txt").read_text()
    assert "mean    0.00" in txt and "GP 100.0/100.0/100.0" in txt
    assert (rep / "airplane_gp_curve.csv").read_text().startswith("threshold_deg,fraction\n")
    # break one prediction's dimensions: that image is skipped, exit code 2
    victim = pred_dir / (record_image_id(records[0]) + "_normal.pfm")
    from symnorm.imgfmt import write_pfm
    write_pfm(victim, np.zeros((8, 8, 3), dtype=np.float32))
    rc = main(["eval-normals", str(out / "manifest.tsv"), str(pred_dir),
               "--out-dir", str(tmp_path / "rep2")])
    assert rc == 2
    assert "skipped" in (tmp_path / "rep2" / "report.txt").read_text()


def test_baseline_counts_and_determinism(tmp_path, toy_build):
    _, _, out = toy_build
    meta, records = read_manifest(out / "manifest.tsv")
    pred_a = tmp_path / "a.tsv"
    pred_b = tmp_path / "b.tsv"
    assert main(["baseline", str(out / "manifest.tsv"), "--out", str(pred_a),
                 "--seed", "5"]) == 0
    assert main(["baseline", str(out / "manifest.tsv"), "--out", str(pred_b),
                 "--seed", "5"]) == 0
    assert pred_a.read_bytes() == pred_b.read_bytes()
    preds = read_predictions(pred_a)
    assert len(preds) == len(records)
    assert all(len(v) == 10 for v in preds.values())
    rep = tmp_path / "rep"
    rc = main(["eval-sym", str(out / "manifest.tsv"), str(pred_a), "--out-dir", str(rep)])
    assert rc == 0
    row = [l for l in (rep / "report.tsv").read_text().splitlines()
           if l.startswith("airplane\t")][0]
    assert 0.0 < float(row.split("\t")[1]) < 0.9  # uninformed but nonzero


def test_baseline_codebook_k_flag_resizes_and_config_key_does_not(tmp_path, toy_build, capsys):
    _, _, out = toy_build
    manifest = str(out / "manifest.tsv")
    n_images = len(read_manifest(manifest)[1])
    cfg = tmp_path / "k20.cfg"
    cfg.write_text("codebook_k = 20\n")
    per_image = {}
    for name, flags in (("flag", ["--codebook-k", "20"]), ("config", ["--config", str(cfg)]),
                        ("both", ["--config", str(cfg), "--codebook-k", "7"])):
        pred = tmp_path / f"{name}.tsv"
        assert main(["baseline", manifest, "--out", str(pred), *flags]) == 0
        preds = read_predictions(pred)
        assert len(preds) == n_images
        per_image[name] = {len(v) for v in preds.values()}
    # the flag resizes the manifest's codebook; the build key names the manifest's
    assert per_image == {"flag": {20}, "config": {10}, "both": {7}}
    capsys.readouterr()
    assert main(["baseline", manifest, "--out", str(tmp_path / "zero.tsv"),
                 "--codebook-k", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "zero.tsv").exists()


def test_eval_commands_score_train_and_test_rows(tmp_path, toy_build):
    """Both evaluations score every manifest row, whatever its split."""
    _, _, out = toy_build
    manifest = str(out / "manifest.tsv")
    meta, records = read_manifest(manifest)
    by_split = {"train": [r for r in records if r.split == "train"],
                "test": [r for r in records if r.split == "test"]}
    assert by_split["train"] and by_split["test"]
    # symmetry: predictions for train rows only are counted against the
    # ground truth of all rows
    dirs = [meta["codebook"].directions[np.flatnonzero(r.symmetry_label)]
            for r in by_split["train"]]
    pred_file = tmp_path / "train.tsv"
    write_predictions(pred_file, [record_image_id(r) for r in by_split["train"]],
                      [np.column_stack([d, np.full(len(d), 0.9)]) for d in dirs])
    assert main(["eval-sym", manifest, str(pred_file), "--out-dir", str(tmp_path / "sym")]) == 0
    row = [l for l in (tmp_path / "sym" / "report.tsv").read_text().splitlines()
           if l.startswith("airplane\t")][0].split("\t")
    assert int(row[2]) == sum(int(r.symmetry_label.sum()) for r in records)
    assert int(row[3]) == sum(len(d) for d in dirs) > 0
    # normals: with maps for one split only, every image of the other split
    # is attempted and skipped for want of a prediction
    for split, other in (("train", "test"), ("test", "train")):
        pred_dir = tmp_path / f"maps_{split}"
        for r in by_split[split]:
            dst = pred_dir / (record_image_id(r) + "_normal.pfm")
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(out / r.normal_map_path, dst)
        rep = tmp_path / f"normals_{split}"
        assert main(["eval-normals", manifest, str(pred_dir), "--out-dir", str(rep)]) == 2
        skipped = [l.split()[1].rstrip(":") for l in (rep / "report.txt").read_text().splitlines()
                   if l.startswith("  skipped ")]
        assert sorted(skipped) == sorted(record_image_id(r) for r in by_split[other])
        assert (rep / "airplane_gp_curve.csv").is_file()


@pytest.mark.parametrize("change, reason", [(1.5, "must be unit length"),
                                            (-1.0, "must face the viewer"),
                                            ((np.nan,) * 3, "must be unit length"),
                                            ((0.0, 0.0, 0.4), "must be unit length")],
                         ids=["non-unit", "back-facing", "nan-pixel", "short-pixel"])
def test_eval_normals_skips_invalid_predicted_normals(tmp_path, toy_build, change, reason):
    """A predicted PFM normal that is not unit length or faces away from the
    viewer is neither normalized nor flipped, and a NaN or short non-zero
    pixel is not taken for background: its image is skipped."""
    from symnorm.imgfmt import write_pfm
    _, _, out = toy_build
    _, records = read_manifest(out / "manifest.tsv")
    pred_dir = tmp_path / "pred"
    for r in records:
        dst = pred_dir / (record_image_id(r) + "_normal.pfm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / r.normal_map_path, dst)
    victim = record_image_id(records[0])
    normals = read_pfm(pred_dir / (victim + "_normal.pfm")).copy()
    if isinstance(change, tuple):
        y, x = np.argwhere(np.any(normals != 0.0, axis=2))[0]
        normals[y, x] = change
    elif change < 0.0:
        normals[..., 2] *= change
    else:
        normals *= change
    write_pfm(pred_dir / (victim + "_normal.pfm"), normals)
    rep = tmp_path / "rep"
    assert main(["eval-normals", str(out / "manifest.tsv"), str(pred_dir),
                 "--out-dir", str(rep)]) == 2
    skipped = [l for l in (rep / "report.txt").read_text().splitlines() if "skipped" in l]
    assert len(skipped) == 1
    assert skipped[0].startswith(f"  skipped {victim}: ") and reason in skipped[0]


@pytest.mark.parametrize("suffix, header, field", [("_normal.pfm", b"PF\n-2 -2\n-1.0\n", "width"),
                                                   ("_normal.pfm", b"PF\n2 2\nabc\n", "scale"),
                                                   ("_labels.pgm", b"P5\n2.5 2\n65535\n", "width"),
                                                   ("_labels.pgm", b"P5\n2 2\nabc\n", "maxval")],
                         ids=["pfm-width", "pfm-scale", "pgm-width", "pgm-maxval"])
def test_eval_normals_skips_a_prediction_with_a_malformed_header(tmp_path, toy_build, suffix, header,
                                                                 field):
    """A prediction whose image header holds a negative or non-numeric field
    is skipped with a reason naming that field, and the exit code is 2."""
    _, _, out = toy_build
    _, records = read_manifest(out / "manifest.tsv")
    pred_dir = tmp_path / "pred"
    for r in records:
        dst = pred_dir / (record_image_id(r) + "_normal.pfm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / r.normal_map_path, dst)
    victim = record_image_id(records[0])
    (pred_dir / (victim + "_normal.pfm")).unlink()
    (pred_dir / (victim + suffix)).write_bytes(header + b"\0" * 64)
    rep = tmp_path / "rep"
    assert main(["eval-normals", str(out / "manifest.tsv"), str(pred_dir),
                 "--out-dir", str(rep)]) == 2
    reasons = _skip_reasons((rep / "report.txt").read_bytes())
    assert list(reasons) == [victim] and f"header {field} " in reasons[victim]


def _eval_normals(manifest, pred_dir, out_dir):
    """(exit code, {file name: bytes}) of one eval-normals run."""
    rc = main(["eval-normals", str(manifest), str(pred_dir), "--out-dir", str(out_dir)])
    return rc, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _skip_reasons(report_txt: bytes):
    lines = report_txt.decode().splitlines()
    return dict(l.removeprefix("  skipped ").split(": ", 1) for l in lines
                if l.startswith("  skipped "))


def _unit_noise(normals, rng):
    """A valid prediction: each foreground normal jittered and renormalized,
    kept where the jitter turned it away from the viewer."""
    fg = np.any(normals != 0.0, axis=2)
    truth = normals[fg].astype(np.float64)
    noisy = truth + rng.normal(scale=0.15, size=truth.shape)
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    away = noisy[:, 2] <= 1e-3
    noisy[away] = truth[away]
    out = np.zeros_like(normals)
    out[fg] = noisy
    return out


def _scaled(normals, factor):
    out = normals.copy()
    out[..., 2] *= factor
    return out


def _first_foreground(normals):
    return tuple(np.argwhere(np.any(normals != 0.0, axis=2))[0])


def _with_pixel(normals, where, value):
    out = normals.copy()
    out[where] = value
    return out


def _relabelled(labels, k, rng):
    """Labels with a quarter of the foreground moved to random bins and a
    tenth of it to the background label K."""
    out = labels.astype(np.int64)
    fg = np.flatnonzero(out.reshape(-1) < k)
    draw = rng.random(len(fg))
    out.reshape(-1)[fg[draw < 0.25]] = rng.integers(0, k, int((draw < 0.25).sum()))
    out.reshape(-1)[fg[draw > 0.9]] = k
    return out


UNIT_Z = np.array([0.0, 0.0, 1.0], dtype=np.float32)

# case -> the skip reason of its image, or None when it is scored; each case
# writes its prediction and may replace its ground truth (see _case_files)
PREDICTION_CASES = {
    "labels": None,
    "labels-all-background": None,
    "labels-over-normals": None,
    "noisy-normals": None,
    "exact-normals": None,
    "non-unit": "masked normals must be unit length",
    "back-facing": "masked normals must face the viewer (z > 0)",
    "nan-pixel": "masked normals must be unit length",
    "short-pixel": "masked normals must be unit length",
    "invalid-off-foreground": "masked normals must be unit length",
    "mis-sized": "normal map dimensions disagree",
    "mis-sized-labels": "normal map dimensions disagree",
    "label-above-k": "labels must lie in {0..K}",
    "missing": "no prediction found for ",  # then the image id and the directory
    "empty-truth": "ground-truth mask is empty",
    "mis-sized-and-invalid": "masked normals must be unit length",
    "invalid-truth-and-prediction": "masked normals must be unit length",
    "empty-truth-and-mis-sized": "normal map dimensions disagree",
}


def _case_files(case, prefix, gt_path, gt_labels, k, rng):
    """Write one case's prediction under `prefix` and, for the cases about the
    ground truth, replace the map at `gt_path`."""
    gt = read_pfm(gt_path)
    normals, labels = f"{prefix}_normal.pfm", f"{prefix}_labels.pgm"
    if case == "labels":
        write_pgm16(labels, _relabelled(gt_labels, k, rng))
    elif case == "labels-all-background":
        write_pgm16(labels, np.full(gt_labels.shape, k))
    elif case == "labels-over-normals":
        write_pgm16(labels, _relabelled(gt_labels, k, rng))
        write_pfm(normals, _scaled(gt, 1.5))
    elif case == "noisy-normals":
        write_pfm(normals, _unit_noise(gt, rng))
    elif case == "exact-normals":
        write_pfm(normals, gt)
    elif case == "non-unit":
        write_pfm(normals, gt * 1.5)
    elif case == "back-facing":
        write_pfm(normals, _scaled(gt, -1.0))
    elif case == "nan-pixel":
        write_pfm(normals, _with_pixel(gt, _first_foreground(gt), np.nan))
    elif case == "short-pixel":
        write_pfm(normals, _with_pixel(gt, _first_foreground(gt), (0.0, 0.0, 0.4)))
    elif case == "invalid-off-foreground":
        background = tuple(np.argwhere(~np.any(gt != 0.0, axis=2))[0])
        write_pfm(normals, _with_pixel(gt, background, (0.0, 0.0, 2.0)))
    elif case == "mis-sized":
        write_pfm(normals, np.tile(UNIT_Z, (8, 8, 1)))
    elif case == "mis-sized-labels":
        write_pgm16(labels, np.zeros((8, 8), dtype=np.int64))
    elif case == "label-above-k":
        write_pgm16(labels, _with_pixel(gt_labels, _first_foreground(gt), k + 1))
    elif case == "empty-truth":
        write_pfm(normals, gt)
        write_pfm(gt_path, np.zeros_like(gt))
    elif case == "mis-sized-and-invalid":
        write_pfm(normals, np.tile(2.0 * UNIT_Z, (8, 8, 1)))
    elif case == "invalid-truth-and-prediction":
        write_pfm(normals, _scaled(gt, -1.0))
        write_pfm(gt_path, gt * 1.5)
    elif case == "empty-truth-and-mis-sized":
        write_pfm(normals, np.tile(UNIT_Z, (8, 8, 1)))
        write_pfm(gt_path, np.zeros_like(gt))
    else:
        assert case == "missing"


def _prediction_cases(tmp_path, out):
    """A manifest of one image per PREDICTION_CASES entry, each a copy of one
    of the toy build's views in one of two categories, and the predictions
    directory.  Returns (manifest, pred_dir, {image id: expected reason})."""
    meta, records = read_manifest(out / "manifest.tsv")
    k = meta["normal_codebook"].K
    rng = np.random.default_rng(11)
    pred_dir = tmp_path / "cases_pred"
    rows, expected = [], {}
    for i, (case, reason) in enumerate(PREDICTION_CASES.items()):
        src = records[i % len(records)]
        category = ("airplane", "chair")[i % 2]
        rel = f"{category}/{case}/v000"
        (out / category / case).mkdir(parents=True)
        (pred_dir / category / case).mkdir(parents=True)
        gt_path = out / f"{rel}_normal.pfm"
        shutil.copy(out / src.normal_map_path, gt_path)
        shutil.copy(out / src.label_map_path, out / f"{rel}_labels.pgm")
        rows.append(dataclasses.replace(src, model_id=case, category=category,
                                        normal_map_path=f"{rel}_normal.pfm",
                                        label_map_path=f"{rel}_labels.pgm"))
        _case_files(case, pred_dir / rel, gt_path, read_pgm16(out / src.label_map_path), k, rng)
        if case == "missing":
            reason += f"{rel} under {pred_dir}"
        if reason is not None:
            expected[rel] = reason
    manifest = out / "cases.tsv"
    write_manifest(manifest, rows, meta["codebook"], meta["normal_codebook"], meta["view_setting"])
    return manifest, pred_dir, expected


def test_eval_normals_matches_the_full_frame_oracle(tmp_path, toy_build, monkeypatch):
    """Reports, curves and exit code are those of the full-frame composition
    in tests/normal_eval_oracle.py, byte for byte, over label and normal map
    predictions and one image for each reason to skip one, in the oracle's
    order of checks."""
    _, _, out = toy_build
    manifest, pred_dir, expected = _prediction_cases(tmp_path, out)
    rc, files = _eval_normals(manifest, pred_dir, tmp_path / "fast")
    assert rc == 2
    assert sorted(files) == ["airplane_gp_curve.csv", "chair_gp_curve.csv", "report.tsv",
                             "report.txt"]
    assert _skip_reasons(files["report.txt"]) == expected
    # under a full-sphere codebook, half of the label directions face away
    meta, rows = read_manifest(manifest)
    sphere = out / "sphere.tsv"
    write_manifest(sphere, rows, meta["codebook"], OrientationCodebook(meta["normal_codebook"].K,
                   FULL_SPHERE), meta["view_setting"])
    _, sphere_files = _eval_normals(sphere, pred_dir, tmp_path / "sphere_fast")
    assert _skip_reasons(sphere_files["report.txt"])["airplane/labels/v000"] == \
        "masked normals must face the viewer (z > 0)"
    monkeypatch.setattr(cli, "_image_errors", normal_eval_oracle.image_errors)
    assert _eval_normals(manifest, pred_dir, tmp_path / "oracle") == (rc, files)
    assert _eval_normals(sphere, pred_dir, tmp_path / "sphere_oracle") == (2, sphere_files)


def test_eval_normals_label_maps_take_precedence_and_background_scores_180(tmp_path, toy_build):
    """A label map that predicts background (label K) on every pixel scores
    180 degrees on each foreground pixel; a normal map beside it is ignored,
    even a perfect one."""
    _, _, out = toy_build
    meta, records = read_manifest(out / "manifest.tsv")
    k = meta["normal_codebook"].K
    pred_dir = tmp_path / "pred"
    for r in records:
        prefix = pred_dir / record_image_id(r)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        write_pgm16(f"{prefix}_labels.pgm", np.full(read_pgm16(out / r.label_map_path).shape, k))
    rc, labels_only = _eval_normals(out / "manifest.tsv", pred_dir, tmp_path / "labels")
    assert rc == 0
    macro = [l for l in labels_only["report.tsv"].decode().splitlines()
             if l.startswith("macro\t")][0].split("\t")
    assert [float(v) for v in macro[1:]] == [180.0, 180.0, 0.0, 0.0, 0.0, 0.0]
    for r in records:
        shutil.copy(out / r.normal_map_path, pred_dir / (record_image_id(r) + "_normal.pfm"))
    assert _eval_normals(out / "manifest.tsv", pred_dir, tmp_path / "both") == (0, labels_only)


def _recategorized(out, records, categories, name):
    """A manifest at `out/name` holding `records` with the given categories, in
    that order; image ids and maps stay those of the records."""
    meta, _ = read_manifest(out / "manifest.tsv")
    rows = [dataclasses.replace(r, category=c) for r, c in zip(records, categories)]
    write_manifest(out / name, rows, meta["codebook"], meta["normal_codebook"],
                   meta["view_setting"])
    return out / name


def test_eval_normals_scores_one_category_at_a_time(tmp_path, toy_build, monkeypatch):
    """Images are scored category by category in sorted order, each category's
    in manifest order, so the same rows interleaved or grouped by category give
    the same report and curve bytes; skipped images are still listed in
    manifest order."""
    _, _, out = toy_build
    _, records = read_manifest(out / "manifest.tsv")
    rng = np.random.default_rng(5)
    pred_dir = tmp_path / "pred"
    for r in records:
        dst = pred_dir / (record_image_id(r) + "_normal.pfm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        write_pfm(dst, _unit_noise(read_pfm(out / r.normal_map_path), rng))
    categories = [("chair", "airplane", "bench")[i % 3] for i in range(len(records))]
    # one skipped image per category, whose manifest order is not their scoring order
    for r in records[3:6]:
        (pred_dir / (record_image_id(r) + "_normal.pfm")).unlink()
    interleaved = _recategorized(out, records, categories, "interleaved.tsv")
    order = sorted(range(len(records)), key=lambda i: categories[i])
    grouped = _recategorized(out, [records[i] for i in order], [categories[i] for i in order],
                             "grouped.tsv")
    scored, image_errors = [], cli._image_errors

    def recording(gt_path, pred_dir, image_id, codebook):
        scored.append(image_id)
        return image_errors(gt_path, pred_dir, image_id, codebook)

    monkeypatch.setattr(cli, "_image_errors", recording)
    rc, files = _eval_normals(interleaved, pred_dir, tmp_path / "interleaved")
    assert scored == [record_image_id(records[i]) for i in order]
    assert rc == 2
    assert _eval_normals(grouped, pred_dir, tmp_path / "grouped")[0] == 2
    grouped_files = {p.name: p.read_bytes() for p in (tmp_path / "grouped").iterdir()}
    assert sorted(files) == sorted(grouped_files) == [
        "airplane_gp_curve.csv", "bench_gp_curve.csv", "chair_gp_curve.csv", "report.tsv",
        "report.txt"]
    for name in files:
        if name != "report.txt":
            assert files[name] == grouped_files[name]

    def skips(report):
        lines = report.decode().splitlines()
        return [l for l in lines if l.startswith("  skipped ")], \
            [l for l in lines if not l.startswith("  skipped ")]

    skipped, rest = skips(files["report.txt"])
    assert [l.split()[1].rstrip(":") for l in skipped] == \
        [record_image_id(r) for r in records[3:6]]
    grouped_skipped, grouped_rest = skips(grouped_files["report.txt"])
    assert rest == grouped_rest
    assert [l.split()[1].rstrip(":") for l in grouped_skipped] == \
        [record_image_id(records[i]) for i in order if 3 <= i < 6]


def _traced_peak(argv):
    """Peak traced Python allocation over one CLI run, in bytes."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_normals_peak_memory_is_bounded_by_the_largest_category(tmp_path, toy_build):
    """Four categories of N images each peak below 1.4 times one category of
    N images: only one category's errors are held at a time.  Holding every
    category's errors while one is pooled and sorted peaks at (4 + 2) / (1 + 2)
    = 2 times as much."""
    _, _, out = toy_build
    _, records = read_manifest(out / "manifest.tsv")
    write_pfm(out / "flat_normal.pfm", np.tile(np.array([0.0, 0.0, 1.0], dtype=np.float32),
                                               (64, 64, 1)))
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    tilted = np.tile(np.array([0.0, 0.6, 0.8], dtype=np.float32), (64, 64, 1))
    n, categories = 16, ("a", "b", "c", "d")
    rows = []
    for i in range(n * len(categories)):
        rows.append(dataclasses.replace(records[0], model_id=f"m{i}",
                                        normal_map_path="flat_normal.pfm",
                                        label_map_path=f"m{i}_labels.pgm"))
        write_pfm(pred_dir / f"m{i}_normal.pfm", tilted)
    one = _recategorized(out, rows[:n], ["a"] * n, "one.tsv")
    four = _recategorized(out, rows, categories * n, "four.tsv")

    def argv(manifest, name):
        return ["eval-normals", str(manifest), str(pred_dir), "--out-dir", str(tmp_path / name)]

    assert main(argv(one, "warm-up")) == 0
    one_peak = _traced_peak(argv(one, "one"))
    four_peak = _traced_peak(argv(four, "four"))
    assert four_peak < 1.4 * one_peak, (one_peak, four_peak)


def test_eval_sym_huge_coordinate_is_one_error_line(tmp_path, toy_build):
    """A predicted orientation whose squared length overflows is rejected with
    the exit code and the one error line of any non-unit orientation, and no
    numpy warning."""
    _, _, out = toy_build
    _, records = read_manifest(out / "manifest.tsv")
    pred_file = tmp_path / "huge.tsv"
    pred_file.write_text(f"{record_image_id(records[0])}\t1e200\t0\t0\t0.5\n")
    src = str(Path(symnorm.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "symnorm.cli", "eval-sym",
                           str(out / "manifest.tsv"), str(pred_file), "--out-dir",
                           str(tmp_path / "rep")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"error: {pred_file}: line 1: orientation must be finite and unit length"]


REPLAY_PIXEL_SPANS = """
import importlib.util, json, sys
replay_path, manifest, maps, out = sys.argv[1:]
spec = importlib.util.spec_from_file_location("replay", replay_path)
replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay)
tracer = replay.Tracer()
rc = replay.install(tracer).main(["eval-normals", manifest, maps, "--out-dir", out])
spans = [s for s in tracer.spans if s[1] == "evaluation.pixel_errors_deg"]
print(json.dumps({"rc": rc, "calls": len(spans), "pixels": sum(s[5]["pixels"] for s in spans)}))
"""


def test_traced_replay_sees_one_pixel_error_span_per_scored_image(tmp_path, toy_build):
    """The benchmark's traced replay (perfbench/replay.py) counts scoring
    through its wrapper of `evaluation.pixel_errors_deg`: one span per scored
    image, whose `pixels` add up to the ground-truth foreground.  `install`
    patches modules for good, so it runs in a child process."""
    _, _, out = toy_build
    manifest = out / "manifest.tsv"
    records = read_manifest(manifest)[1]
    maps = tmp_path / "maps"
    for r in records[1:]:  # the first image has no prediction and is skipped
        dst = maps / (record_image_id(r) + "_labels.pgm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / r.label_map_path, dst)
    foreground = sum(int(np.any(read_pfm(out / r.normal_map_path) != 0.0, axis=2).sum())
                     for r in records[1:])
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", REPLAY_PIXEL_SPANS, str(root / "perfbench" / "replay.py"),
         str(manifest), str(maps), str(tmp_path / "rep")],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == \
        {"rc": 2, "calls": len(records) - 1, "pixels": foreground}


EVAL_WITHOUT_SCIPY = """
import sys
import symnorm.cli
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, f"import symnorm.cli loaded {loaded[:3]}"
manifest, predictions, maps, out = sys.argv[1:]
assert symnorm.cli.main(["eval-sym", manifest, predictions, "--out-dir", out + "/sym"]) == 0
assert symnorm.cli.main(["eval-normals", manifest, maps, "--out-dir", out + "/normals"]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, f"the eval commands loaded {loaded[:3]}"
"""


def test_eval_commands_do_not_load_scipy(tmp_path, toy_build):
    _, _, out = toy_build
    manifest = out / "manifest.tsv"
    predictions = tmp_path / "p.tsv"
    assert main(["baseline", str(manifest), "--out", str(predictions), "--seed", "1"]) == 0
    maps = tmp_path / "maps"
    for r in read_manifest(manifest)[1]:
        dst = maps / (record_image_id(r) + "_normal.pfm")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / r.normal_map_path, dst)
    src = str(Path(symnorm.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", EVAL_WITHOUT_SCIPY, str(manifest), str(predictions), str(maps),
         str(tmp_path / "rep")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "rep" / "sym" / "report.tsv").is_file()
    assert (tmp_path / "rep" / "normals" / "report.tsv").is_file()


def test_cli_import_leaves_the_process_pool_modules_unloaded():
    """The build's process pool imports them itself; every other command
    starts without them."""
    code = ("import sys, symnorm.cli; print(' '.join(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    src = str(Path(symnorm.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == ""


def test_predictions_file_validation(tmp_path, toy_build):
    bad = tmp_path / "bad.tsv"
    bad.write_text("img\t1\t0\t0\n")  # four fields instead of five
    with pytest.raises(Exception):
        read_predictions(bad)
    bad.write_text("img\t0\t0\t1\t1.5\n")  # confidence out of range
    from symnorm.errors import InputError
    with pytest.raises(InputError):
        read_predictions(bad)
    # NaN fails every comparison, so it must fail the checks, not pass them
    _, _, out = toy_build
    _, records = read_manifest(out / "manifest.tsv")
    image_id = record_image_id(records[0])
    for row in ("nan\t0\t0\t0.5", "0\t0\t1\tnan"):
        bad.write_text(f"{image_id}\t0\t0\t1\t0.5\n{image_id}\t{row}\n")
        with pytest.raises(InputError, match="line 2"):
            read_predictions(bad)
        assert main(["eval-sym", str(out / "manifest.tsv"), str(bad),
                     "--out-dir", str(tmp_path / "rep")]) == 2
        assert not (tmp_path / "rep").exists()


def test_config_unknown_key_rejected(tmp_path, cuboid_obj):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sample_count = 100\nwat = 7\n")
    rc = main(["detect", str(cuboid_obj), "--out", str(tmp_path / "o.txt"),
               "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("command, config, flags", [
    ("detect", "sample_count = 100\nwat = 7\n", []),
    ("detect", "sample_count = 0\n", []),
    ("detect", "seed = 1\nseed = 2\n", []),
    ("render", "width = 0\n", []),
    ("render", "", ["--width", "0"]),
    ("build", "view_setting = V_X\n", []),
    ("build", "codebook_support = hemisphere\n", []),
    ("eval-normals", "wat = 7\n", []),
], ids=["unknown-key", "zero-samples", "repeated-key", "zero-width", "zero-width-flag",
        "unknown-view-setting", "hemisphere-support", "eval-normals-unknown-key"])
def test_config_rejected_before_any_output(tmp_path, cuboid_obj, capsys, request, command, config, flags):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    out = tmp_path / "rejected"
    if command == "eval-normals":
        # a build whose own label maps score as predictions, exit 0 without --config
        _, _, built = request.getfixturevalue("toy_build")
        argv = [command, str(built / "manifest.tsv"), str(built), "--out-dir", str(out)]
    elif command == "build":
        corpus = tmp_path / "corpus"
        (corpus / "airplane").mkdir(parents=True)
        (corpus / "airplane" / "m.obj").write_bytes(cuboid_obj.read_bytes())
        argv = [command, str(corpus), str(out)]
    else:
        argv = [command, str(cuboid_obj), "--out", str(out)]
    rc = main(argv + flags + ["--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


QUICK_DETECT_KEYS = "sample_count = 1000\npair_count = 4000\nmax_hypotheses = 8\n"


@pytest.mark.parametrize("case", ["config-dir", "config-0xff", "predictions-0xff",
                                  "manifest-dir", "manifest-0xff", "detect-out-dir",
                                  "detect-obj-dir", "render-obj-dangling",
                                  "eval-sym-no-codebook", "eval-sym-malformed-codebook",
                                  "eval-sym-late-codebook", "eval-normals-no-normal-codebook",
                                  "eval-sym-bad-label-path", "eval-normals-bad-label-path",
                                  "baseline-bad-label-path"])
def test_unreadable_input_exits_2(tmp_path, cuboid_obj, capsys, case):
    from symnorm.dataset import MANIFEST_FIELDS, write_manifest
    from symnorm.orientation import HEMISPHERE, HORIZONTAL_CIRCLE, fibonacci_codebook
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(QUICK_DETECT_KEYS)
    manifest = tmp_path / "m.tsv"
    write_manifest(manifest, [], fibonacci_codebook(10, HORIZONTAL_CIRCLE),
                   fibonacci_codebook(60, HEMISPHERE), "V_N")
    preds = tmp_path / "preds.tsv"
    preds.write_text("")
    detect = ["detect", str(cuboid_obj), "--out", str(tmp_path / "o.txt")]
    eval_sym = ["eval-sym", str(manifest), str(preds), "--out-dir", str(tmp_path / "rep")]
    eval_normals = ["eval-normals", str(manifest), str(tmp_path),
                    "--out-dir", str(tmp_path / "rep")]
    baseline = ["baseline", str(manifest), "--out", str(tmp_path / "b.tsv")]
    fields_line = "#fields:\t" + "\t".join(MANIFEST_FIELDS) + "\n"
    row = ["m0", "airplane", "m0.obj", "0.0,0.0,0.0", "n.pfm", "m0_labels.pgm", "0" * 10, "V_N",
           "test"]
    named, header = tmp_path, None
    if case == "config-dir":
        argv = detect + ["--config", str(tmp_path)]
    elif case == "config-0xff":
        cfg.write_bytes(b"seed = 1\n\xff\n")
        argv, named = detect + ["--config", str(cfg)], cfg
    elif case == "predictions-0xff":
        preds.write_bytes(b"img\t0\t0\t1\t0.5\xff\n")
        argv, named = eval_sym, preds
    elif case == "manifest-dir":
        argv = ["eval-sym", str(tmp_path), str(preds), "--out-dir", str(tmp_path / "rep")]
    elif case == "manifest-0xff":
        manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
        argv, named = eval_sym, manifest
    elif case == "detect-obj-dir":
        argv = ["detect", str(tmp_path), "--out", str(tmp_path / "o.txt")]
    elif case == "render-obj-dangling":
        named = tmp_path / "dangling.obj"
        named.symlink_to(tmp_path / "no-such-file")
        argv = ["render", str(named), "--out", str(tmp_path / "view")]
    elif case == "eval-sym-no-codebook":
        manifest.write_text(fields_line)
        argv, named, header = eval_sym, manifest, "#codebook:"
    elif case == "eval-sym-malformed-codebook":
        manifest.write_text("#codebook:\tsupport=horizontal_circle\tk=ten\n" + fields_line)
        argv, named, header = eval_sym, manifest, "#codebook:"
    elif case == "eval-sym-late-codebook":
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("\t".join(row) + "\n#codebook:\tsupport=horizontal_circle\tk=20\n")
        argv, named, header = eval_sym, manifest, "#codebook:"
    elif case == "eval-normals-no-normal-codebook":
        manifest.write_text("#codebook:\tsupport=horizontal_circle\tk=10\n" + fields_line)
        argv, named, header = eval_normals, manifest, "#normal_codebook:"
    elif case.endswith("-bad-label-path"):
        row[5] = "m0_label.pgm"
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("\t".join(row) + "\n")
        argv = {"eval-sym": eval_sym, "eval-normals": eval_normals,
                "baseline": baseline}[case.removesuffix("-bad-label-path")]
        named, header = manifest, "m0_label.pgm"
    else:
        argv = ["detect", str(cuboid_obj), "--out", str(tmp_path), "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(named) in err
    if header is not None:
        assert header in err


def test_write_failure_names_target_path(tmp_path, cuboid_obj, capsys):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(QUICK_DETECT_KEYS)
    target = tmp_path / "nodir" / "x.txt"
    assert main(["detect", str(cuboid_obj), "--out", str(target), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert ".tmp-" not in err
    assert not (tmp_path / "nodir").exists()


def test_flags_override_config(tmp_path):
    from symnorm.config import RunConfig
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 3\nwidth = 100\n# comment\n")
    base = RunConfig.from_file(cfg)
    assert base.seed == 3 and base.width == 100
    merged = base.merged(seed=9, width=None)
    assert merged.seed == 9 and merged.width == 100


def test_readme_defaults_table_matches_run_config():
    from dataclasses import fields

    from symnorm.config import RunConfig
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration keys and defaults", 1)[1].split("\n\n")[1]
    casts = {"int": int, "float": float, "str": str}
    types = {f.name: casts[f.type] for f in fields(RunConfig)}
    documented = {}
    for row in table.splitlines()[2:]:
        cells = [c.strip() for c in row.strip("|").split("|")]
        for keys, default in zip(cells[0::3], cells[1::3]):
            for key in filter(None, (k.strip(" `") for k in keys.split(","))):
                documented[key] = types[key](default)
    assert documented == {f.name: f.default for f in fields(RunConfig)}
