"""Corpus manifests: the 57 categories, per-sample records, and the
ground-truth generation pipeline that ties meshes, poses, rendered maps and
symmetry labels together.

Corpus layout: ``<corpus_root>/<category>/<model_id>.obj``.  Manifest rows
are tab-separated in MANIFEST_FIELDS order; the pose field packs
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
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import util
from .config import CODEBOOK_SUPPORTS, RunConfig, check_codebook
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

# the 57 object categories a corpus may hold, one directory each, sorted
CATEGORIES = (
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


@dataclass(frozen=True)
class SampleRecord:
    model_id: str
    category: str
    obj_path: str
    pose: ViewPose
    image_id: str  # the maps are <image_id>_normal.pfm and <image_id>_labels.pgm
    symmetry_label: np.ndarray  # (K,) bool
    view_setting: str
    split: str


MANIFEST_FIELDS = ("model_id", "category", "obj_path", "pose", "normal_map_path",
                   "label_map_path", "symmetry_label", "view_setting", "split")


def manifest_header(codebook, normal_codebook, view_setting: str) -> str:
    return (f"#codebook:\t{codebook.header()}\n"
            f"#normal_codebook:\t{normal_codebook.header()}\n"
            f"#view_setting:\t{view_setting}\n"
            "#fields:\t" + "\t".join(MANIFEST_FIELDS) + "\n")


def manifest_row(r: SampleRecord) -> str:
    pose = ",".join(repr(float(v)) for v in
                    (r.pose.azimuth_deg, r.pose.elevation_deg, r.pose.cyclo_deg))
    bits = "".join("1" if b else "0" for b in r.symmetry_label)
    return "\t".join([r.model_id, r.category, r.obj_path, pose, f"{r.image_id}{NORMAL_MAP_SUFFIX}",
                      f"{r.image_id}{LABEL_MAP_SUFFIX}", bits, r.view_setting, r.split]) + "\n"


def write_manifest(path, records, codebook: OrientationCodebook,
                   normal_codebook: OrientationCodebook, view_setting: str) -> None:
    util.atomic_write_text(path, manifest_header(codebook, normal_codebook, view_setting)
                           + "".join(map(manifest_row, records)))


def plain_name(name: str) -> bool:
    """Whether `name` names a file in its directory, not the directory
    itself, its parent or a path below it."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def read_manifest(path):
    """Return (metadata dict, records).  Paths stay relative to the manifest;
    meta["codebook"] and meta["normal_codebook"] are OrientationCodebooks,
    and each must be one a build can write (see config.check_codebook).  A
    row's image id is its label_map_path less _labels.pgm; a row whose image
    id is not its own <category>/<model_id>/v{view:03d}, whose
    normal_map_path is not <image id>_normal.pfm, whose image id repeats
    an earlier row's, or whose category or model id is not a plain file
    name, is an InputError."""
    meta = {}
    records = []
    saw_fields = False
    label_k = None
    line_of = {}  # image id -> the line of its row
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
                elif key in CODEBOOK_SUPPORTS:
                    if records or key in meta:
                        raise InputError(f"{path}: line {lineno}: #{key}: header must come "
                                         "once, before the first record")
                    try:
                        K, support = OrientationCodebook.parse_header(rest)
                    except ValueError:
                        raise InputError(f"{path}: line {lineno}: malformed #{key}: header "
                                         "line") from None
                    try:
                        check_codebook(key, K, support)
                    except ValueError as exc:
                        raise InputError(f"{path}: line {lineno}: #{key}: {exc}") from None
                    meta[key] = OrientationCodebook(K, support)
                else:
                    meta[key] = rest
                continue
            parts = line.split("\t")
            if len(parts) != len(MANIFEST_FIELDS):
                raise InputError(f"{path}: line {lineno}: expected "
                                 f"{len(MANIFEST_FIELDS)} fields, found {len(parts)}")
            model_id, category, obj_path, pose_s, nm_path, lm_path, bits, view_setting, split = parts
            # the evals name report files after the category, and the maps of a
            # model lie in <category>/<model_id>/
            for what, name in (("category", category), ("model id", model_id)):
                if not plain_name(name):
                    raise InputError(f"{path}: line {lineno}: {what} {name!r} is not a "
                                     "plain file name")
            try:
                az, el, cy = (float(v) for v in pose_s.split(","))
                pose = ViewPose(az, el, cy)
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: bad pose {pose_s!r}: {exc}") from None
            if not lm_path.endswith(LABEL_MAP_SUFFIX):
                raise InputError(f"{path}: line {lineno}: label_map_path {lm_path!r} does not "
                                 f"end in {LABEL_MAP_SUFFIX}")
            image_id = lm_path[: -len(LABEL_MAP_SUFFIX)]
            prefix = f"{category}/{model_id}/v"
            view = image_id[len(prefix):]  # as build writes it: 3 digits, or more with no leading 0
            if not (image_id.startswith(prefix) and view.isascii() and view.isdecimal()
                    and view.lstrip("0").zfill(3) == view):
                raise InputError(f"{path}: line {lineno}: image id {image_id!r} is not "
                                 f"{prefix}### of its own category and model")
            if nm_path != f"{image_id}{NORMAL_MAP_SUFFIX}":
                raise InputError(f"{path}: line {lineno}: normal_map_path {nm_path!r} is not "
                                 f"{image_id}{NORMAL_MAP_SUFFIX}, its label map's image id's")
            first = line_of.setdefault(image_id, lineno)
            if first != lineno:
                raise InputError(f"{path}: line {lineno}: label_map_path {lm_path!r} repeats "
                                 f"line {first}'s: an image id names one row")
            if label_k is None:
                if "codebook" not in meta:
                    raise InputError(f"{path}: line {lineno}: no #codebook: header "
                                     "before the first record")
                label_k = meta["codebook"].K
            if len(bits) != label_k or bits.strip("01"):
                raise InputError(f"{path}: line {lineno}: symmetry_label {bits!r} is not "
                                 f"{label_k} characters of 0 and 1")
            label = np.array([c == "1" for c in bits], dtype=bool)
            records.append(SampleRecord(model_id, category, obj_path, pose, image_id, label,
                                        view_setting, split))
    if not saw_fields:
        raise InputError(f"{path}: missing #fields: header line")
    for key in CODEBOOK_SUPPORTS:
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
    render the normal and label maps, rotate the symmetry orientations
    into the view and discretize them into the multilabel target.  A model
    whose file cannot be read or parsed, or whose detection fails, is
    skipped with a warning and leaves no files; one that fails while
    rendering is skipped with the same warning.
    A corpus root that is not a directory is an InputError, raised
    before `out_dir` is made.  Returns (row count, manifest_path).

    Each model is one detect job (`_detect_outcome`) and, once its planes
    are read, one render job per worker (`_render_outcome`) over a slice of
    its views, contiguous in manifest order, so renders fill any worker
    that detection leaves idle.  The jobs run in a pool of
    min(models, util.usable_cpu_count()) worker processes, forked to spare
    each the numpy import, or on one thread of this process when that is
    below 2.  When it forks, this process has started no thread and has
    flushed the manifest's header.  Outcomes are read in job order, the
    manifest's (category, model_id) order, and each model's rows, formatted
    by its render jobs, are appended to the manifest's temp file as they
    are read: no record is held, and the output and the warnings are the
    same for any worker count.  No worker outlives the call; an error other
    than a skip propagates once the pool has shut down, leaving no manifest.
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
    workers = max(1, min(len(jobs), util.usable_cpu_count()))
    # manifest order, in which v1000_labels.pgm sorts before v101_labels.pgm
    views = sorted(range(config.per_model_views), key=lambda v: f"v{v:03d}{LABEL_MAP_SUFFIX}")
    slices = [views[len(views) * i // workers:len(views) * (i + 1) // workers]
              for i in range(workers)]
    slices = [s for s in slices if s]  # fewer views than workers leave some empty
    manifest_path = out_dir / "manifest.tsv"
    rows = 0
    with util.atomic_write(manifest_path) as manifest, contextlib.ExitStack() as stack:
        manifest.write(manifest_header(config.symmetry_codebook(), config.normal_codebook(),
                                       config.view_setting).encode("utf-8"))
        manifest.flush()
        if workers < 2:
            pool = ThreadPoolExecutor(1)
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
                manifest.write("".join(outcome).encode("utf-8"))
                rows += len(outcome)
                usable[category] += 1
    unusable = [category for category, n in usable.items() if n == 0]
    if missing:
        logger.warning("category has no directory under %s (%d of %d): %s",
                       corpus_root, len(missing), len(CATEGORIES), ", ".join(missing))
    if unusable:
        logger.warning("category holds no usable models (%d of %d): %s",
                       len(unusable), len(CATEGORIES), ", ".join(unusable))
    return rows, manifest_path


def _pooled_outcomes(pool, jobs, detect, render, slices, window):
    """Each job's outcome, in job order, from detect and render jobs in `pool`:
    its model's manifest rows in manifest order, as a list, or the first
    message that skips it.

    At most `window` models are in flight, from their detect job's submission
    to the reading of their last render.  A model's render jobs are submitted
    as soon as its planes are read, whichever model that is, and every
    future is dropped once read.
    """
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
            outcomes = [head] if isinstance(head, str) else [future.result() for future in head]
            skips = [outcome for outcome in outcomes if isinstance(outcome, str)]
            yield skips[0] if skips else [row for outcome in outcomes for row in outcome]
        else:
            wait([*detecting.values(), *running], return_when=FIRST_COMPLETED)


def _detect_outcome(job, out_dir, config):
    """Parse one (category, obj_path, split) job's model, detect its planes
    and write its planes.txt; return the mesh's vertex and face arrays and
    the (n, 3) plane normals, or the message of the SymnormError, or of the
    OSError of an OBJ file that cannot be read, that skips the model: a
    plain string, so a worker never has to pickle the error itself.  First,
    a model whose id starts with '#' or is not a plain file name ('.' and
    '..' are ids of '..obj' and '...obj'), or whose relative OBJ path holds
    a tab, CR or LF, is skipped: its rows would not read back."""
    category, obj_path, _ = job
    model_id = obj_path.stem
    if model_id.startswith("#") or not plain_name(model_id) \
            or any(c in os.path.relpath(obj_path, out_dir) for c in "\t\r\n"):
        return ("a manifest row cannot hold an id that starts with '#' or is not a plain "
                "file name, or a tab, CR or LF")
    try:
        mesh = parse_obj_file(obj_path)
        planes = detect_symmetries(mesh, config)
    except (SymnormError, OSError) as exc:
        return str(exc)
    model_dir = out_dir / category / model_id
    model_dir.mkdir(parents=True, exist_ok=True)
    write_planes(model_dir / "planes.txt", planes,
                 comments=[f"accept_residual {config.accept_residual}"])
    return mesh.vertices, mesh.faces, np.array([p.normal for p in planes]).reshape(-1, 3)


def _render_outcome(job, model, views, out_dir, config):
    """Render, label and record the `views` (view indices) of one job's
    model, `model` being what `_detect_outcome` returned for it; return
    their manifest rows as a list, or the message of the SymnormError that
    skips the model.  The mesh is rebuilt from its arrays here, since a
    mesh sent between processes would come back writeable."""
    category, obj_path, split = job
    vertices, faces, plane_normals = model
    codebook = config.symmetry_codebook()
    normal_codebook = config.normal_codebook()
    model_id = obj_path.stem
    dist = view_distribution(config.view_setting)
    rows = []
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
            rows.append(manifest_row(SampleRecord(
                model_id=model_id,
                category=category,
                obj_path=os.path.relpath(obj_path, out_dir),
                pose=pose,
                image_id=rel,
                symmetry_label=label,
                view_setting=config.view_setting,
                split=split,
            )))
    except SymnormError as exc:
        return str(exc)
    return rows
