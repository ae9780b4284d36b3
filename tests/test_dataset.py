import hashlib
import logging
import multiprocessing
import os
import re
import tracemalloc
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
    build_manifest,
    read_manifest,
    write_manifest,
)
from symnorm.mesh_io import serialize_obj
from symnorm.orientation import HEMISPHERE, HORIZONTAL_CIRCLE, OrientationCodebook
from symnorm.render import load_label_map, load_normal_map

# a golden copy of the category registry, kept verbatim in the test so any
# drift in the module constant is caught
GOLDEN_CATEGORIES = (
    "airplane", "ashcan", "bag", "basket", "bathtub", "bed", "bench",
    "bicycle", "birdhouse", "boat", "bookshelf", "bottle", "bowl", "bus",
    "cabinet", "camera", "can", "cap", "car", "cellular_telephone", "chair",
    "clock", "computer_keyboard", "dishwasher", "display", "earphone",
    "faucet", "file", "guitar", "helmet", "jar", "knife", "lamp", "laptop",
    "loudspeaker", "mailbox", "microphone", "microwave", "motorcycle", "mug",
    "piano", "pillow", "pistol", "pot", "printer", "remote_control", "rifle",
    "rocket", "skateboard", "sofa", "stove", "table", "telephone", "tower",
    "train", "vessel", "washer",
)

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


def built_records(corpus_root, out_dir, config):
    """Build; return the manifest's records, checked against the row count
    that `build_manifest` returns."""
    rows, manifest_path = build_manifest(corpus_root, out_dir, config)
    records = read_manifest(manifest_path)[1]
    assert rows == len(records)
    return records


def make_corpus(root, categories=("airplane",), models=4):
    for category in categories:
        (root / category).mkdir(parents=True)
        for i in range(models):
            mesh = shapes.cuboid(1.0 + 0.2 * i, 1.5, 2.0 + 0.1 * i)
            (root / category / f"model{i}.obj").write_text(serialize_obj(mesh))


def test_registry_counts_and_golden_lists():
    assert CATEGORIES == GOLDEN_CATEGORIES
    # 57 names, sorted, as a build visits them in manifest order
    assert len(set(CATEGORIES)) == 57 and list(CATEGORIES) == sorted(CATEGORIES)


def test_build_manifest_split_and_integrity(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    with caplog.at_level(logging.WARNING):
        rows, manifest_path = build_manifest(
            corpus, tmp_path / "out", toy(per_model_views=2, seed=0))
    assert rows == 8  # 4 models x 2 views
    meta, records = read_manifest(manifest_path)
    splits = {r.model_id: r.split for r in records}
    assert sorted(splits.values()).count("train") == 3
    assert sorted(splits.values()).count("test") == 1
    # missing categories warn but do not fail
    assert any("has no directory" in m for m in caplog.messages)
    # referential integrity: every path resolves and parses
    codebook = meta["codebook"]
    assert codebook == OrientationCodebook(10, HORIZONTAL_CIRCLE)
    normal_codebook = meta["normal_codebook"]
    assert normal_codebook == OrientationCodebook(60, HEMISPHERE)
    for r in records:
        nm = load_normal_map(manifest_path.parent / f"{r.image_id}_normal.pfm")
        lm = load_label_map(manifest_path.parent / f"{r.image_id}_labels.pgm", normal_codebook.K)
        assert nm.mask.shape == (64, 64)
        assert np.array_equal(lm.labels == normal_codebook.K, ~nm.mask)
        assert len(r.symmetry_label) == codebook.K
        assert (manifest_path.parent / r.obj_path).resolve().exists()
        assert re.fullmatch(rf"{r.category}/{r.model_id}/v\d{{3}}", r.image_id)


def test_build_manifest_deterministic(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=2)
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    _, man_a = build_manifest(corpus, out_a, toy(per_model_views=2, seed=0))
    _, man_b = build_manifest(corpus, out_b, toy(per_model_views=2, seed=0))
    assert man_a.read_bytes() == man_b.read_bytes()
    meta, records = read_manifest(man_a)
    for rel in (f"{records[0].image_id}_normal.pfm", f"{records[0].image_id}_labels.pgm"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_split_stable_under_view_count_change(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    rec1 = built_records(corpus, tmp_path / "o1", toy(per_model_views=1, seed=7))
    rec3 = built_records(corpus, tmp_path / "o3", toy(per_model_views=3, seed=7))
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
        records = built_records(corpus, tmp_path / "out", toy(per_model_views=1, seed=0))
    assert {r.model_id for r in records} == {"model0", "model1"}
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
    assert [p.name for p in out.iterdir()] == ["airplane"]  # no manifest, no temp file


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
            records = built_records(corpus, out, config)
        runs[cpus] = (tree_digests(out), list(caplog.messages), records)
        for model in ("airplane/broken", "airplane/dangling", "airplane/directory",
                      "bathtub/collinear"):
            assert not (out / model).exists()
        assert all(not r.pose.rotation.flags.writeable for r in records)
        assert len(forks) == 3  # the pooled build forked one worker per CPU, the other none
    (pooled, pooled_log, pooled_records), (alone, alone_log, alone_records) = runs[3], runs[1]
    assert len(pooled) == 1 + 4 * (1 + 5 * 2)  # manifest; per model planes and 5 views of 2 maps
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
        return (r.image_id, r.split, r.pose.azimuth_deg, r.pose.elevation_deg,
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
    rows, _ = build_manifest(corpus, tmp_path / "out", toy(per_model_views=2, seed=0))
    assert rows == 24
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
    rows, _ = build_manifest(corpus, tmp_path / "one", toy(per_model_views=1, seed=0))
    assert rows == 1
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
    rows, _ = build_manifest(corpus, tmp_path / "clean", config)
    assert rows == 3
    assert multiprocessing.active_children() == []
    (corpus / "airplane" / "broken.obj").write_text(BROKEN_OBJ)
    rows, _ = build_manifest(corpus, tmp_path / "skip", config)
    assert rows == 3
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


def stub_detection(monkeypatch):
    """Detect no planes, at once: the build's other work stays as it is."""
    monkeypatch.setattr(dataset, "detect_symmetries", lambda mesh, config: [])


def test_build_writes_a_models_rows_in_label_map_path_order(tmp_path, monkeypatch):
    monkeypatch.setattr(util, "usable_cpu_count", lambda: 2)
    stub_detection(monkeypatch)
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=1)
    # two render jobs, each over half of the views in manifest order
    records = built_records(corpus, tmp_path / "out",
                            toy(per_model_views=1001, width=2, height=2, seed=0))
    paths = [f"{r.image_id}_labels.pgm" for r in records]
    assert len(paths) == 1001 and paths == sorted(paths)
    assert paths.index("airplane/model0/v1000_labels.pgm") < \
        paths.index("airplane/model0/v101_labels.pgm")


@pytest.mark.parametrize("cpus", [2, 1])
def test_build_skips_a_model_no_manifest_row_can_hold(tmp_path, monkeypatch, caplog, cpus):
    """A tab in a model id would add fields to its rows, and an id starting
    with '#' would read back as a header line: both models are skipped, in
    job order, and every row written reads back."""
    monkeypatch.setattr(util, "usable_cpu_count", lambda: cpus)
    stub_detection(monkeypatch)
    corpus = tmp_path / "corpus"
    (corpus / "bag").mkdir(parents=True)
    for name in ("a\tb", "#1", "plain"):
        (corpus / "bag" / f"{name}.obj").write_text(serialize_obj(shapes.cuboid(1.0, 1.5, 2.0)))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        records = built_records(corpus, out, toy(per_model_views=2, width=8, height=8, seed=0))
    assert [r.model_id for r in records] == ["plain", "plain"]
    skips = [m for m in caplog.messages if m.startswith("skipping ")]
    assert [m.split(": ")[0] for m in skips] == [
        f"skipping {corpus / 'bag' / name}.obj" for name in ("#1", "a\tb")]
    assert sorted(p.name for p in (out / "bag").iterdir()) == ["plain"]


@pytest.mark.parametrize("cpus", [2, 1])
def test_build_skips_a_model_whose_id_is_a_dot_name(tmp_path, monkeypatch, caplog, cpus):
    """'..obj' and '...obj' have the ids '.' and '..': their files would land
    in the category directory and in the output directory, where every
    category's would overwrite each other's.  Both are skipped, in job
    order, and nothing is written outside a model directory."""
    monkeypatch.setattr(util, "usable_cpu_count", lambda: cpus)
    stub_detection(monkeypatch)
    corpus = tmp_path / "corpus"
    for category in ("bag", "bed"):
        (corpus / category).mkdir(parents=True)
        for name in (".", "..", "plain"):
            (corpus / category / f"{name}.obj").write_text(
                serialize_obj(shapes.cuboid(1.0, 1.5, 2.0)))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        records = built_records(corpus, out, toy(per_model_views=1, width=8, height=8, seed=0))
    assert [r.image_id for r in records] == ["bag/plain/v000", "bed/plain/v000"]
    skips = [m for m in caplog.messages if m.startswith("skipping ")]
    assert [m.split(": ")[0] for m in skips] == [
        f"skipping {corpus / category}/{name}.obj" for category in ("bag", "bed")
        for name in (".", "..")]
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == [
        f"{category}/plain/{name}" for category in ("bag", "bed")
        for name in ("planes.txt", "v000_labels.pgm", "v000_normal.pfm")] + ["manifest.tsv"]


def test_build_parent_memory_stays_flat_as_the_corpus_grows(tmp_path, monkeypatch):
    monkeypatch.setattr(util, "usable_cpu_count", lambda: 2)
    stub_detection(monkeypatch)
    config = toy(per_model_views=20, width=2, height=2, seed=0)

    def traced_peak(run, models):
        make_corpus(tmp_path / f"corpus{run}", models=models)
        tracemalloc.start()
        try:
            build_manifest(tmp_path / f"corpus{run}", tmp_path / f"out{run}", config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(0, 8)  # a process's first build also traces the imports it makes
    small, large = traced_peak(1, 8), traced_peak(2, 32)
    # the parent keeps a job per model, but none of the 20 rows of each
    assert large - small < (32 - 8) * 2048


def test_model_cap(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=5)
    records = built_records(corpus, tmp_path / "out",
                            toy(per_model_views=1, seed=0, max_models_per_category=3))
    assert len({r.model_id for r in records}) == 3
    splits = {r.model_id: r.split for r in records}
    assert sorted(splits.values()).count("train") == 2  # floor(0.75 * 3)


def test_manifest_roundtrip_preserves_pose_and_labels(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, models=1)
    _, manifest_path = build_manifest(corpus, tmp_path / "out", toy(per_model_views=3, seed=0))
    meta, records = read_manifest(manifest_path)
    again_path = tmp_path / "again.tsv"
    write_manifest(again_path, records, meta["codebook"], meta["normal_codebook"],
                   meta["view_setting"])
    assert again_path.read_bytes() == manifest_path.read_bytes()
    _, again = read_manifest(again_path)
    assert len(again) == len(records) == 3
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
    write_manifest(path, [], OrientationCodebook(4, HORIZONTAL_CIRCLE),
                   OrientationCodebook(60, HEMISPHERE), "V_N")
    row = ["m0", "airplane", "m0.obj", "0.0,0.0,0.0", "airplane/m0/v000_normal.pfm",
           "airplane/m0/v000_labels.pgm", bits, "V_N", "train"]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\t".join(row) + "\n")
    from symnorm.errors import InputError
    with pytest.raises(InputError, match="line 5"):
        read_manifest(path)


LATE_CODEBOOK = "#codebook:\tsupport=horizontal_circle\tk=20"


def row(pose="0.0,0.0,0.0", category="airplane", normal=None, model="m0", image="airplane/m0/v000"):
    return "\t".join([model, category, "m0.obj", pose, normal or f"{image}_normal.pfm",
                      f"{image}_labels.pgm", "1010", "V_N", "train"])


@pytest.mark.parametrize("extra, lineno, reason", [
    ([row(), LATE_CODEBOOK], 6, "#codebook: header must come once"),
    ([row(), "#normal_codebook:\tsupport=hemisphere\tk=60"], 6,
     "#normal_codebook: header must come once"),
    ([LATE_CODEBOOK, row()], 5, "#codebook: header must come once"),
    ([row(pose="0.0,nan,0.0")], 5, "elevation must be finite"),
    ([row(pose="0.0,inf,0.0")], 5, "elevation must be finite"),
    ([row(pose="nan,0.0,0.0")], 5, "azimuth"),
    ([row(pose="0.0,0.0,-inf")], 5, "cyclo"),
    *(([row(), row(category=category)], 6, "is not a plain file name")
      for category in ("", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b")),
    ([row(normal="airplane/m0/v001_normal.pfm")], 5,
     "normal_map_path 'airplane/m0/v001_normal.pfm' is not airplane/m0/v000_normal.pfm"),
    ([row(), row(model="m1")], 6, "image id 'airplane/m0/v000' is not airplane/m1/v###"),
    ([row(category="chair")], 5, "image id 'airplane/m0/v000' is not chair/m0/v###"),
    *(([row(image=f"airplane/m0/{view}")], 5,
       f"image id 'airplane/m0/{view}' is not airplane/m0/v###")
      for view in ("v00", "v0001", "v", "v12a", "v-01", "v\u0661\u0662\u0663", "x000", "v000/v000")),
    *(([row(model=model, image=f"airplane/{model}/v000")], 5, "is not a plain file name")
      for model in ("", ".", "..", "a/b", "a\\b", "a\0b")),
], ids=["late-codebook", "late-normal-codebook", "repeated-codebook", "nan-elevation",
        "inf-elevation", "nan-azimuth", "inf-cyclo", "empty-category", "dot-category",
        "dotdot-category", "escaping-category", "slash-category", "backslash-category",
        "nul-category", "mismatched-normal-path", "another-model", "another-category",
        "two-digit-view", "padded-view", "no-view", "letter-in-view", "signed-view",
        "non-ascii-digits", "no-v", "nested-view", "empty-model", "dot-model", "dotdot-model",
        "slash-model", "backslash-model", "nul-model"])
def test_manifest_rejects_misplaced_header_and_non_finite_pose(tmp_path, extra, lineno, reason):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [], OrientationCodebook(4, HORIZONTAL_CIRCLE),
                   OrientationCodebook(60, HEMISPHERE), "V_N")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(extra) + "\n")
    from symnorm.errors import InputError
    with pytest.raises(InputError, match=f"line {lineno}: .*{reason}"):
        read_manifest(path)


def test_manifest_reads_view_indices_as_build_writes_them(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [], OrientationCodebook(4, HORIZONTAL_CIRCLE),
                   OrientationCodebook(60, HEMISPHERE), "V_N")
    views = ("v000", "v007", "v999", "v1000", "v12345")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(row(image=f"airplane/m0/{v}") + "\n" for v in views))
    _, records = read_manifest(path)
    assert [r.image_id for r in records] == [f"airplane/m0/{v}" for v in views]


def test_write_manifest_header_shape(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [], OrientationCodebook(10, HORIZONTAL_CIRCLE),
                   OrientationCodebook(60, HEMISPHERE), "V_N")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#codebook:\t")
    assert lines[3].startswith("#fields:\tmodel_id\tcategory\tobj_path\tpose\t")
