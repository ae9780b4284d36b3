import hashlib
import logging
import multiprocessing
import os
from concurrent.futures import Future
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import shapes
from symnorm import dataset, util
from symnorm.cli import main
from symnorm.config import RunConfig
from symnorm.dataset import (
    CATEGORIES,
    SHAPE_GROUPS,
    SPLIT_A,
    SPLIT_B,
    build_manifest,
    induction_view,
    read_manifest,
    record_image_id,
    write_manifest,
)
from symnorm.mesh_io import serialize_obj
from symnorm.orientation import HEMISPHERE, HORIZONTAL_CIRCLE, fibonacci_codebook
from symnorm.render import load_label_map, load_normal_map

# golden copies of the induction splits and shape groups, kept verbatim in
# the test so any drift in the module constants is caught
GOLDEN_A = {
    "airplane", "bathtub", "bed", "bicycle", "bookshelf", "bottle", "bowl",
    "bus", "can", "clock", "computer_keyboard", "dishwasher", "file",
    "loudspeaker", "mailbox", "microphone", "microwave", "mug", "piano",
    "pillow", "pistol", "pot", "printer", "skateboard", "stove", "table",
    "telephone", "train",
}
GOLDEN_B = {
    "ashcan", "bag", "basket", "bench", "birdhouse", "boat", "cabinet",
    "camera", "cap", "car", "cellular_telephone", "chair", "display",
    "earphone", "faucet", "guitar", "helmet", "jar", "knife", "lamp",
    "laptop", "motorcycle", "remote_control", "rifle", "rocket", "sofa",
    "tower", "vessel", "washer",
}
GOLDEN_GROUPS = {
    "circular": {"ashcan", "basket", "bottle", "bowl", "can", "cap", "clock",
                 "helmet", "jar", "lamp", "microphone", "mug", "pot",
                 "rocket", "tower", "washer"},
    "elongated": {"computer_keyboard", "knife", "piano", "rifle",
                  "skateboard", "train"},
    "planar": {"airplane", "bag", "bench", "bicycle", "bookshelf",
               "cellular_telephone", "display", "file", "laptop",
               "motorcycle", "pistol", "remote_control"},
    "cuboidal": {"bathtub", "bed", "bus", "cabinet", "camera", "car",
                 "chair", "dishwasher", "loudspeaker", "mailbox",
                 "microwave", "pillow", "printer", "sofa", "stove", "table"},
    "misc": {"birdhouse", "boat", "earphone", "faucet", "guitar",
             "telephone", "vessel"},
}

TOY = RunConfig(sample_count=2500, pair_count=8000, max_hypotheses=16,
                cluster_offset_frac=0.015, width=64, height=64)


def toy(**values):
    return replace(TOY, **values)


BROKEN_OBJ = "v 0 0 zero\nf 1 2 3\n"

# parses, but every face is collinear: detection fails on zero area
COLLINEAR_OBJ = "v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n"


def add_unreadable_objs(cat_dir):
    """A directory named like a model and a dangling symlink: opening
    either raises OSError, not a parse error."""
    (cat_dir / "directory.obj").mkdir()
    (cat_dir / "dangling.obj").symlink_to(cat_dir / "no-such-file")


def make_corpus(root, categories=("airplane",), models=4):
    for category in categories:
        (root / category).mkdir(parents=True)
        for i in range(models):
            mesh = shapes.cuboid(1.0 + 0.2 * i, 1.5, 2.0 + 0.1 * i)
            (root / category / f"model{i}.obj").write_text(serialize_obj(mesh))


def test_registry_counts_and_golden_lists():
    assert len(CATEGORIES) == 57
    assert len(SPLIT_A) == 28
    assert len(SPLIT_B) == 29
    assert set(SPLIT_A) == GOLDEN_A
    assert set(SPLIT_B) == GOLDEN_B
    assert {group: set(members) for group, members in SHAPE_GROUPS.items()} == GOLDEN_GROUPS
    # no duplicate names, in the halves or in the groups
    grouped = [c for members in SHAPE_GROUPS.values() for c in members]
    assert len(set(CATEGORIES)) == len(CATEGORIES) == len(SPLIT_A + SPLIT_B) == len(grouped)
    # the two halves are disjoint and together cover every category
    assert not set(SPLIT_A) & set(SPLIT_B)
    assert set(SPLIT_A) | set(SPLIT_B) == set(CATEGORIES)
    # every category has a shape group
    assert set(grouped) == set(CATEGORIES)


def test_induction_view():
    assert all(induction_view(c) == "train_on_B" for c in SPLIT_A)
    assert all(induction_view(c) == "train_on_A" for c in SPLIT_B)
    with pytest.raises(ValueError):
        induction_view("zeppelin")


def test_build_manifest_split_and_integrity(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    with caplog.at_level(logging.WARNING):
        records, manifest_path = build_manifest(
            corpus, tmp_path / "out", toy(per_model_views=2, seed=0))
    assert len(records) == 8  # 4 models x 2 views
    splits = {r.model_id: r.split for r in records}
    assert sorted(splits.values()).count("train") == 3
    assert sorted(splits.values()).count("test") == 1
    # missing categories warn but do not fail
    assert any("has no directory" in m for m in caplog.messages)
    # referential integrity: every path resolves and parses
    meta, again = read_manifest(manifest_path)
    assert len(again) == 8
    codebook = meta["codebook"]
    assert codebook == fibonacci_codebook(10, HORIZONTAL_CIRCLE)
    normal_codebook = meta["normal_codebook"]
    assert normal_codebook == fibonacci_codebook(60, HEMISPHERE)
    for r in again:
        nm = load_normal_map(manifest_path.parent / r.normal_map_path)
        lm = load_label_map(manifest_path.parent / r.label_map_path, normal_codebook.K)
        assert nm.mask.shape == (64, 64)
        assert np.array_equal(lm.labels == normal_codebook.K, ~nm.mask)
        assert len(r.symmetry_label) == codebook.K
        assert (manifest_path.parent / r.obj_path).resolve().exists()
        assert record_image_id(r).endswith(r.label_map_path[:-len("_labels.pgm")].split("/")[-1])


def test_build_manifest_deterministic(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=2)
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    _, man_a = build_manifest(corpus, out_a, toy(per_model_views=2, seed=0))
    _, man_b = build_manifest(corpus, out_b, toy(per_model_views=2, seed=0))
    assert man_a.read_bytes() == man_b.read_bytes()
    meta, records = read_manifest(man_a)
    for rel in (records[0].normal_map_path, records[0].label_map_path):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_split_stable_under_view_count_change(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    rec1, _ = build_manifest(corpus, tmp_path / "o1", toy(per_model_views=1, seed=7))
    rec3, _ = build_manifest(corpus, tmp_path / "o3", toy(per_model_views=3, seed=7))
    split1 = {r.model_id: r.split for r in rec1}
    split3 = {r.model_id: r.split for r in rec3}
    assert split1 == split3
    assert len(rec1) == 4 and len(rec3) == 12


def test_unreadable_obj_skipped_with_reason(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=2)
    (corpus / "airplane" / "broken.obj").write_text(BROKEN_OBJ)
    (corpus / "airplane" / "collinear.obj").write_text(COLLINEAR_OBJ)
    add_unreadable_objs(corpus / "airplane")
    with caplog.at_level(logging.WARNING):
        records, manifest = build_manifest(corpus, tmp_path / "out", toy(per_model_views=1, seed=0))
    assert {r.model_id for r in records} == {"model0", "model1"}
    assert manifest.is_file()
    for name, reason in (("broken", ""), ("collinear", ""),
                         ("directory", "Is a directory"), ("dangling", "No such file")):
        assert any(m.startswith(f"skipping {corpus / 'airplane' / name}.obj: ") and reason in m
                   for m in caplog.messages)
        assert not (tmp_path / "out" / "airplane" / name).exists()


def test_build_write_failure_aborts(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=1)
    out = tmp_path / "out"
    (out / "airplane").mkdir(parents=True)
    (out / "airplane" / "model0").write_text("")  # a file where the model's directory goes
    with pytest.raises(FileExistsError):
        build_manifest(corpus, out, toy(per_model_views=1, seed=0))
    assert not (out / "manifest.tsv").exists()


def tree_digests(root):
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def count_forks(monkeypatch):
    """Patch os.fork to count the children started from this process."""
    forks = []
    real_fork = os.fork

    def counted():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_pooled_build_matches_in_process_build(tmp_path, monkeypatch, caplog):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, categories=("airplane", "car"), models=2)
    (corpus / "airplane" / "broken.obj").write_text(BROKEN_OBJ)
    add_unreadable_objs(corpus / "airplane")
    (corpus / "bathtub").mkdir()
    (corpus / "bathtub" / "collinear.obj").write_text(COLLINEAR_OBJ)
    # five views on three workers: render jobs over uneven slices of views
    config = toy(per_model_views=5, seed=0)
    forks = count_forks(monkeypatch)
    runs = {}
    for cpus in (3, 1):
        monkeypatch.setattr(util, "usable_cpu_count", lambda: cpus)
        out = tmp_path / f"out{cpus}"
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            records, _ = build_manifest(corpus, out, config)
        runs[cpus] = (tree_digests(out), list(caplog.messages), records)
        for model in ("airplane/broken", "airplane/dangling", "airplane/directory",
                      "bathtub/collinear"):
            assert not (out / model).exists()
        assert all(not r.pose.rotation.flags.writeable for r in records)
        assert len(forks) == 3  # the pooled build forked one worker per CPU, the other none
    (pooled, pooled_log, pooled_records), (alone, alone_log, alone_records) = runs[3], runs[1]
    assert len(pooled) == 1 + 4 * (1 + 5 * 3)  # manifest; per model planes and 5 views of 3 maps
    assert pooled == alone
    assert pooled_log == alone_log
    skips = [m for m in pooled_log if m.startswith("skipping ")]
    assert [m.split(":")[0] for m in skips] == [
        f"skipping {corpus / 'airplane' / 'broken.obj'}",
        f"skipping {corpus / 'airplane' / 'dangling.obj'}",
        f"skipping {corpus / 'airplane' / 'directory.obj'}",
        f"skipping {corpus / 'bathtub' / 'collinear.obj'}",
    ]
    assert pooled_log.index(skips[-1]) < pooled_log.index(
        "category holds no usable models (1 of 57): bathtub")

    def fields(r):
        return (r.label_map_path, r.split, r.pose.azimuth_deg, r.pose.elevation_deg,
                r.pose.rotation.tobytes(), r.symmetry_label.tobytes())

    assert [fields(r) for r in pooled_records] == [fields(r) for r in alone_records]


def test_pooled_build_keeps_at_most_two_models_per_worker_in_flight(tmp_path, monkeypatch):
    monkeypatch.setattr(util, "usable_cpu_count", lambda: 2)
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=12)
    model_of = {}  # every submitted future not yet read -> the OBJ path of its model
    in_flight = []
    real_submit, real_result = ProcessPoolExecutor.submit, Future.result

    def submit(self, fn, job, *args):
        future = real_submit(self, fn, job, *args)
        model_of[future] = job[1]
        in_flight.append(len(set(model_of.values())))
        return future

    def result(self, timeout=None):
        model_of.pop(self, None)
        return real_result(self, timeout)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    monkeypatch.setattr(Future, "result", result)
    records, _ = build_manifest(corpus, tmp_path / "out", toy(per_model_views=2, seed=0))
    assert len(records) == 24
    assert len(in_flight) == 12 * 3  # per model one detect job and a render job per worker
    assert max(in_flight) == 4
    assert model_of == {}


def test_empty_corpus_and_one_model_build_start_no_child(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(util, "usable_cpu_count", lambda: 2)
    forks = count_forks(monkeypatch)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert main(["build", str(corpus), str(tmp_path / "empty"), "--seed", "0"]) == 0
    assert "0 records" in capsys.readouterr().out
    lines = (tmp_path / "empty" / "manifest.tsv").read_text().splitlines()
    assert [line.split(":")[0] for line in lines] == \
        ["#codebook", "#normal_codebook", "#view_setting", "#fields"]
    make_corpus(corpus, models=1)
    records, _ = build_manifest(corpus, tmp_path / "one", toy(per_model_views=1, seed=0))
    assert len(records) == 1
    assert forks == []
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_build(tmp_path, monkeypatch):
    monkeypatch.setattr(util, "usable_cpu_count", lambda: 2)
    forks = count_forks(monkeypatch)
    shutdowns = []
    real_shutdown = ProcessPoolExecutor.shutdown

    def recorded(self, *args, **kwargs):
        shutdowns.append(kwargs)
        return real_shutdown(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "shutdown", recorded)
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=3)
    config = toy(per_model_views=1, seed=0)
    records, _ = build_manifest(corpus, tmp_path / "clean", config)
    assert len(records) == 3
    assert multiprocessing.active_children() == []
    (corpus / "airplane" / "broken.obj").write_text(BROKEN_OBJ)
    records, _ = build_manifest(corpus, tmp_path / "skip", config)
    assert len(records) == 3
    assert multiprocessing.active_children() == []
    parse = dataset.parse_obj_file

    def fail_on_model1(path):
        if path.stem == "model1":
            raise RuntimeError("internal fault")
        return parse(path)

    monkeypatch.setattr(dataset, "parse_obj_file", fail_on_model1)
    config_file = tmp_path / "toy.cfg"
    config_file.write_text("sample_count = 2500\npair_count = 8000\nmax_hypotheses = 16\n"
                           "per_model_views = 1\nwidth = 64\nheight = 64\n")
    with pytest.raises(RuntimeError, match="internal fault"):
        main(["build", str(corpus), str(tmp_path / "fail"), "--config", str(config_file)])
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "fail" / "manifest.tsv").exists()
    assert len(forks) == 6
    assert shutdowns == [{"cancel_futures": True}] * 3


def test_model_cap(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=5)
    records, _ = build_manifest(corpus, tmp_path / "out",
                                toy(per_model_views=1, seed=0, max_models_per_category=3))
    assert len({r.model_id for r in records}) == 3
    splits = {r.model_id: r.split for r in records}
    assert sorted(splits.values()).count("train") == 2  # floor(0.75 * 3)


def test_manifest_roundtrip_preserves_pose_and_labels(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=1)
    records, manifest_path = build_manifest(
        corpus, tmp_path / "out", toy(per_model_views=3, seed=0))
    _, again = read_manifest(manifest_path)
    for a, b in zip(records, again):
        assert a.pose.azimuth_deg == b.pose.azimuth_deg
        assert a.pose.elevation_deg == b.pose.elevation_deg
        assert a.pose.cyclo_deg == b.pose.cyclo_deg
        assert np.array_equal(a.symmetry_label, b.symmetry_label)
        assert a.split == b.split and a.view_setting == b.view_setting


def test_manifest_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("model\tcat\n")
    from symnorm.errors import InputError
    with pytest.raises(InputError):
        read_manifest(path)


@pytest.mark.parametrize("bits", ["10x0", "1010101"])
def test_manifest_rejects_malformed_symmetry_label(tmp_path, bits):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [], fibonacci_codebook(4, HORIZONTAL_CIRCLE),
                   fibonacci_codebook(60, HEMISPHERE), "V_N")
    row = ["m0", "airplane", "m0.obj", "0.0,0.0,0.0", "airplane/m0/v000_normal.pfm",
           "airplane/m0/v000_labels.pgm", bits, "V_N", "train"]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\t".join(row) + "\n")
    from symnorm.errors import InputError
    with pytest.raises(InputError, match="line 5"):
        read_manifest(path)


LATE_CODEBOOK = "#codebook:\tsupport=horizontal_circle\tk=20"
ROW = "\t".join(["m0", "airplane", "m0.obj", "{pose}", "airplane/m0/v000_normal.pfm",
                 "airplane/m0/v000_labels.pgm", "1010", "V_N", "train"])


@pytest.mark.parametrize("extra, lineno, reason", [
    ([ROW.format(pose="0.0,0.0,0.0"), LATE_CODEBOOK], 6, "#codebook: header must come once"),
    ([ROW.format(pose="0.0,0.0,0.0"), "#normal_codebook:\tsupport=hemisphere\tk=60"], 6,
     "#normal_codebook: header must come once"),
    ([LATE_CODEBOOK, ROW.format(pose="0.0,0.0,0.0")], 5, "#codebook: header must come once"),
    ([ROW.format(pose="0.0,nan,0.0")], 5, "elevation must be finite"),
    ([ROW.format(pose="0.0,inf,0.0")], 5, "elevation must be finite"),
    ([ROW.format(pose="nan,0.0,0.0")], 5, "azimuth"),
    ([ROW.format(pose="0.0,0.0,-inf")], 5, "cyclo"),
], ids=["late-codebook", "late-normal-codebook", "repeated-codebook", "nan-elevation",
        "inf-elevation", "nan-azimuth", "inf-cyclo"])
def test_manifest_rejects_misplaced_header_and_non_finite_pose(tmp_path, extra, lineno, reason):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [], fibonacci_codebook(4, HORIZONTAL_CIRCLE),
                   fibonacci_codebook(60, HEMISPHERE), "V_N")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(extra) + "\n")
    from symnorm.errors import InputError
    with pytest.raises(InputError, match=f"line {lineno}: .*{reason}"):
        read_manifest(path)


def test_write_manifest_header_shape(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [], fibonacci_codebook(10, HORIZONTAL_CIRCLE),
                   fibonacci_codebook(60, HEMISPHERE), "V_N")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#codebook:\t")
    assert lines[3].startswith("#fields:\tmodel_id\tcategory\tobj_path\tpose\t")
