"""Corpus manifests: the 57 categories with their induction splits and shape
groups, per-sample records, and the ground-truth generation pipeline that
ties meshes, poses, rendered maps and symmetry labels together.

Corpus layout: ``<corpus_root>/<category>/<model_id>.obj``.  Manifest rows
are tab-separated in SampleRecord field order; the pose field packs
``azimuth,elevation,cyclo`` in degrees.  An image id is the shared path
prefix of a row's map files, ``<category>/<model_id>/v###``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import util
from .config import RunConfig
from .errors import InputError, SymnormError
from .mesh_io import TriangleMesh, parse_obj_file
from .orientation import (
    OrientationCodebook,
    ViewPose,
    make_symmetry_label,
    rotate_orientations,
    sample_view,
    view_distribution,
)
from .render import (
    LABEL_MAP_SUFFIX,
    NORMAL_MAP_SUFFIX,
    discretize_normal_map,
    rasterize,
    save_label_map,
    save_normal_map,
)
from .symmetry import detect_symmetries, write_planes

logger = logging.getLogger(__name__)

SPLIT_A = (
    "airplane", "bathtub", "bed", "bicycle", "bookshelf", "bottle", "bowl",
    "bus", "can", "clock", "computer_keyboard", "dishwasher", "file",
    "loudspeaker", "mailbox", "microphone", "microwave", "mug", "piano",
    "pillow", "pistol", "pot", "printer", "skateboard", "stove", "table",
    "telephone", "train",
)

SPLIT_B = (
    "ashcan", "bag", "basket", "bench", "birdhouse", "boat", "cabinet",
    "camera", "cap", "car", "cellular_telephone", "chair", "display",
    "earphone", "faucet", "guitar", "helmet", "jar", "knife", "lamp",
    "laptop", "motorcycle", "remote_control", "rifle", "rocket", "sofa",
    "tower", "vessel", "washer",
)

SHAPE_GROUPS = {
    "circular": ("ashcan", "basket", "bottle", "bowl", "can", "cap", "clock",
                 "helmet", "jar", "lamp", "microphone", "mug", "pot", "rocket",
                 "tower", "washer"),
    "elongated": ("computer_keyboard", "knife", "piano", "rifle", "skateboard",
                  "train"),
    "planar": ("airplane", "bag", "bench", "bicycle", "bookshelf",
               "cellular_telephone", "display", "file", "laptop", "motorcycle",
               "pistol", "remote_control"),
    "cuboidal": ("bathtub", "bed", "bus", "cabinet", "camera", "car", "chair",
                 "dishwasher", "loudspeaker", "mailbox", "microwave", "pillow",
                 "printer", "sofa", "stove", "table"),
    "misc": ("birdhouse", "boat", "earphone", "faucet", "guitar", "telephone",
             "vessel"),
}


CATEGORIES = tuple(sorted(SPLIT_A + SPLIT_B))


def induction_view(category: str) -> str:
    """Which trained split evaluates this category: the one NOT containing it."""
    if category in SPLIT_A:
        return "train_on_B"
    if category in SPLIT_B:
        return "train_on_A"
    raise ValueError(f"unknown category {category!r}")


@dataclass(frozen=True)
class SampleRecord:
    model_id: str
    category: str
    obj_path: str
    pose: ViewPose
    normal_map_path: str
    label_map_path: str
    symmetry_label: np.ndarray  # (K,) bool
    view_setting: str
    split: str


def record_image_id(record: SampleRecord) -> str:
    if not record.label_map_path.endswith(LABEL_MAP_SUFFIX):
        raise ValueError(f"unexpected label map path {record.label_map_path!r}")
    return record.label_map_path[: -len(LABEL_MAP_SUFFIX)]


MANIFEST_FIELDS = ("model_id", "category", "obj_path", "pose", "normal_map_path",
                   "label_map_path", "symmetry_label", "view_setting", "split")


def write_manifest(path, records, codebook: OrientationCodebook,
                   normal_codebook: OrientationCodebook, view_setting: str) -> None:
    lines = [
        f"#codebook:\t{codebook.header()}",
        f"#normal_codebook:\t{normal_codebook.header()}",
        f"#view_setting:\t{view_setting}",
        "#fields:\t" + "\t".join(MANIFEST_FIELDS),
    ]
    for r in records:
        pose = ",".join(repr(float(v)) for v in
                        (r.pose.azimuth_deg, r.pose.elevation_deg, r.pose.cyclo_deg))
        bits = "".join("1" if b else "0" for b in r.symmetry_label)
        lines.append("\t".join([r.model_id, r.category, r.obj_path, pose,
                                r.normal_map_path, r.label_map_path, bits,
                                r.view_setting, r.split]))
    util.atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path):
    """Return (metadata dict, records).  Paths stay relative to the manifest;
    meta["codebook"] and meta["normal_codebook"] are OrientationCodebooks."""
    meta = {}
    records = []
    saw_fields = False
    label_k = None
    with util.open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, rest = line[1:].partition(":\t")
                if key == "fields":
                    if tuple(rest.split("\t")) != MANIFEST_FIELDS:
                        raise InputError(f"{path}: unexpected manifest fields")
                    saw_fields = True
                elif key in ("codebook", "normal_codebook"):
                    if records or key in meta:
                        raise InputError(f"{path}: line {lineno}: #{key}: header must come "
                                         "once, before the first record")
                    try:
                        meta[key] = OrientationCodebook.from_header(rest)
                    except ValueError:
                        raise InputError(f"{path}: line {lineno}: malformed #{key}: header "
                                         "line") from None
                else:
                    meta[key] = rest
                continue
            parts = line.split("\t")
            if len(parts) != len(MANIFEST_FIELDS):
                raise InputError(f"{path}: line {lineno}: expected "
                                 f"{len(MANIFEST_FIELDS)} fields, found {len(parts)}")
            model_id, category, obj_path, pose_s, nm_path, lm_path, bits, view_setting, split = parts
            try:
                az, el, cy = (float(v) for v in pose_s.split(","))
                pose = ViewPose(az, el, cy)
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: bad pose {pose_s!r}: {exc}") from None
            if not lm_path.endswith(LABEL_MAP_SUFFIX):
                raise InputError(f"{path}: line {lineno}: label_map_path {lm_path!r} does not "
                                 f"end in {LABEL_MAP_SUFFIX}")
            if label_k is None:
                if "codebook" not in meta:
                    raise InputError(f"{path}: line {lineno}: no #codebook: header "
                                     "before the first record")
                label_k = meta["codebook"].K
            if len(bits) != label_k or bits.strip("01"):
                raise InputError(f"{path}: line {lineno}: symmetry_label {bits!r} is not "
                                 f"{label_k} characters of 0 and 1")
            label = np.array([c == "1" for c in bits], dtype=bool)
            records.append(SampleRecord(model_id, category, obj_path, pose,
                                        nm_path, lm_path, label, view_setting, split))
    if not saw_fields:
        raise InputError(f"{path}: missing #fields: header line")
    for key in ("codebook", "normal_codebook"):
        if key not in meta:
            raise InputError(f"{path}: missing #{key}: header line")
    return meta, records


def _split_models(model_ids, seed, category, cap):
    """Deterministic cap and 75/25 model-level split: sort, shuffle, slice."""
    ids = sorted(model_ids)
    rng = util.derive_rng(seed, "model-split", category)
    order = rng.permutation(len(ids))
    kept = [ids[i] for i in order[:cap]]
    n_train = math.floor(0.75 * len(kept))
    return {mid: ("train" if rank < n_train else "test") for rank, mid in enumerate(kept)}


def build_manifest(corpus_root, out_dir, config: RunConfig = RunConfig()):
    """Generate ground truth for a corpus and write manifest plus sidecars.

    Per model: detect symmetry planes once, then per view sample a pose,
    render the normal/depth/label maps, rotate the symmetry orientations
    into the view and discretize them into the multilabel target.  A model
    whose file cannot be read or parsed, or whose detection fails, is
    skipped with a warning and leaves no files; one that fails while
    rendering is skipped with the same warning.
    A corpus root that is not a directory is an InputError, raised
    before `out_dir` is made.  Returns (records, manifest_path).

    Each model is one detect job (`_detect_outcome`) and, once its planes
    are read, one render job per worker (`_render_outcome`), each over a
    contiguous slice of its views, so renders fill any worker that detection
    leaves idle.  The jobs run in a pool of
    min(models, util.usable_cpu_count()) worker processes, or in this
    process when that is below 2; each worker still pools its own ICP
    refinements (see `detect_symmetries`).  The workers are forked, which
    spares each of them the numpy import; this process has started no
    thread of its own when it forks.  Outcomes are read in job order,
    and only this process logs, counts and writes the manifest, so the
    files, the manifest and the warnings are the same for any worker count.
    No worker outlives the call, and an error other than a skip propagates
    once the pool has shut down.
    """
    corpus_root = Path(corpus_root)
    out_dir = Path(out_dir)
    if not corpus_root.is_dir():
        raise InputError(f"corpus root {corpus_root} is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    missing = []
    usable = {}
    for category in CATEGORIES:
        cat_dir = corpus_root / category
        if not cat_dir.is_dir():
            missing.append(category)
            continue
        usable[category] = 0
        model_ids = [p.stem for p in cat_dir.glob("*.obj")]
        split_of = _split_models(model_ids, config.seed, category, config.max_models_per_category)
        jobs += [(category, cat_dir / f"{mid}.obj", split_of[mid]) for mid in sorted(split_of)]
    detect = functools.partial(_detect_outcome, out_dir=out_dir, config=config)
    render = functools.partial(_render_outcome, out_dir=out_dir, config=config)
    workers = min(len(jobs), util.usable_cpu_count())
    views = config.per_model_views
    slices = [range(views * i // workers, views * (i + 1) // workers) for i in range(workers)]
    slices = [s for s in slices if s]  # fewer views than workers leave some empty
    records = []
    with contextlib.ExitStack() as stack:
        if workers < 2:
            outcomes = (_serial_outcome(job, detect, render, slices) for job in jobs)
        else:
            # imported here: the eval commands never need them, and they add
            # to every start-up of the CLI
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)
            outcomes = _pooled_outcomes(pool, jobs, detect, render, slices, window=2 * workers)
        for (category, obj_path, _), outcome in zip(jobs, outcomes):
            if isinstance(outcome, str):
                logger.warning("skipping %s: %s", obj_path, outcome)
            else:
                records.extend(outcome)
                usable[category] += 1
    unusable = [category for category, n in usable.items() if n == 0]
    if missing:
        logger.warning("category has no directory under %s (%d of %d): %s",
                       corpus_root, len(missing), len(CATEGORIES), ", ".join(missing))
    if unusable:
        logger.warning("category holds no usable models (%d of %d): %s",
                       len(unusable), len(CATEGORIES), ", ".join(unusable))
    records.sort(key=lambda r: (r.category, r.model_id, r.label_map_path))
    manifest_path = out_dir / "manifest.tsv"
    write_manifest(manifest_path, records, config.symmetry_codebook(), config.normal_codebook(),
                   config.view_setting)
    return records, manifest_path


def _pooled_outcomes(pool, jobs, detect, render, slices, window):
    """Each job's outcome, in job order, from detect and render jobs in `pool`.

    At most `window` models are in flight, from their detect job's submission
    to the reading of their last render.  A model's render jobs are submitted
    as soon as its planes are read, whichever model that is, and every
    future is dropped once read.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    waiting = iter(jobs)
    flight = collections.deque()  # jobs in flight, in job order
    detecting = {}  # job -> its detect future
    rendering = {}  # job -> its render futures, or the message that skips it
    while True:
        while len(flight) < window and (job := next(waiting, None)) is not None:
            flight.append(job)
            detecting[job] = pool.submit(detect, job)
        if not flight:
            return
        for job in [job for job, future in detecting.items() if future.done()]:
            model = detecting.pop(job).result()
            rendering[job] = model if isinstance(model, str) else [
                pool.submit(render, job, model, views) for views in slices]
        head = rendering.get(flight[0])
        running = [] if head is None or isinstance(head, str) else \
            [future for future in head if not future.done()]
        if head is not None and not running:
            del rendering[flight.popleft()]
            yield head if isinstance(head, str) else \
                _model_outcome([future.result() for future in head])
        else:
            wait([*detecting.values(), *running], return_when=FIRST_COMPLETED)


def _serial_outcome(job, detect, render, slices):
    """One job's outcome from its detect and render jobs, run in this process."""
    model = detect(job)
    if isinstance(model, str):
        return model
    return _model_outcome([render(job, model, views) for views in slices])


def _model_outcome(outcomes):
    """A model's records from its render outcomes in view order, or the first
    of their skip messages."""
    skips = [outcome for outcome in outcomes if isinstance(outcome, str)]
    return skips[0] if skips else [record for outcome in outcomes for record in outcome]


def _detect_outcome(job, out_dir, config):
    """Parse one (category, obj_path, split) job's model, detect its planes
    and write its planes.txt; return the mesh's vertex and face arrays and
    the (n, 3) plane normals, or the message of the SymnormError, or of the
    OSError of an OBJ file that cannot be read, that skips the model: a
    plain string, so a worker never has to pickle the error itself."""
    category, obj_path, _ = job
    try:
        mesh = parse_obj_file(obj_path)
        planes = detect_symmetries(mesh, config)
    except (SymnormError, OSError) as exc:
        return str(exc)
    model_dir = out_dir / category / obj_path.stem
    model_dir.mkdir(parents=True, exist_ok=True)
    write_planes(model_dir / "planes.txt", planes,
                 comments=[f"accept_residual {config.accept_residual}",
                           "columns: nx ny nz offset residual"])
    return mesh.vertices, mesh.faces, np.array([p.normal for p in planes]).reshape(-1, 3)


def _render_outcome(job, model, views, out_dir, config):
    """Render, label and record the `views` (a range) of one job's model,
    `model` being what `_detect_outcome` returned for it; return the
    records, or the message of the SymnormError that skips the model.  The
    mesh is rebuilt from its arrays here, since a mesh sent between
    processes would come back writeable."""
    category, obj_path, split = job
    vertices, faces, plane_normals = model
    codebook = config.symmetry_codebook()
    normal_codebook = config.normal_codebook()
    model_id = obj_path.stem
    dist = view_distribution(config.view_setting)
    records = []
    try:
        mesh = TriangleMesh(vertices, faces)
        for view in views:
            view_seed = util.derive_seed(config.seed, "view", category, model_id, view)
            pose = sample_view(dist, view_seed)
            nm = rasterize(mesh, pose, config)
            lm = discretize_normal_map(nm, normal_codebook)
            rotated = rotate_orientations(plane_normals, pose.rotation)
            label = make_symmetry_label(rotated, codebook)
            rel = f"{category}/{model_id}/v{view:03d}"
            save_normal_map(out_dir / rel, nm)
            save_label_map(out_dir / f"{rel}{LABEL_MAP_SUFFIX}", lm)
            records.append(SampleRecord(
                model_id=model_id,
                category=category,
                obj_path=os.path.relpath(obj_path, out_dir),
                pose=pose,
                normal_map_path=f"{rel}{NORMAL_MAP_SUFFIX}",
                label_map_path=f"{rel}{LABEL_MAP_SUFFIX}",
                symmetry_label=label,
                view_setting=config.view_setting,
                split=split,
            ))
    except SymnormError as exc:
        return str(exc)
    return records
