"""Seeded benchmark inputs: meshes with their analytic symmetry planes, and
symmetry and normal-map predictions for a built corpus.

Everything here is drawn from one workload seed and depends only on numpy:
neither the test fixtures nor the symnorm package are imported, so a fixture
or calibration change cannot move the benchmark inputs.  The manifest, plane
and image formats are read and written with the few lines they need.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHI = (1.0 + 5.0 ** 0.5) / 2.0


@dataclass(frozen=True)
class Model:
    """One mesh to write as <category>/<model_id>.obj, with its planes.

    `planes` rows are (nx, ny, nz, b) for the plane {x : n.x = b}, already
    moved by the same rigid motion as the vertices.
    """

    category: str
    model_id: str
    vertices: np.ndarray
    faces: np.ndarray
    planes: np.ndarray


def _box(sx, sy, sz):
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    verts = np.array([[x, y, z] for z in (-hz, hz) for y in (-hy, hy) for x in (-hx, hx)])
    # corner index = 4*(z>0) + 2*(y>0) + (x>0); quads wound outward
    quads = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4), (2, 6, 7, 3), (1, 3, 7, 5), (0, 4, 6, 2)]
    faces = [t for a, b, c, d in quads for t in ((a, b, c), (a, c, d))]
    return verts, np.array(faces)


# Proportions are drawn within about 10% of the acceptance-suite fixtures
# (cuboid 1x2x4 in the ratio of its sides, plate 2x2x0.8, prism height 1.5):
# wider draws change how much detector work a seed brings by more than the
# benchmark's bounds, and this keeps the sides of every cuboid distinct.


def cuboid(rng):
    """Box with three distinct, seed-drawn side lengths: the 3 axis planes."""
    sides = rng.permutation([1.0, rng.uniform(1.8, 2.2), rng.uniform(3.6, 4.4)])
    verts, faces = _box(*sides)
    return verts, faces, np.eye(3)


def square_plate(rng):
    """Square slab, seed-drawn thickness: 4 vertical planes plus the midplane."""
    verts, faces = _box(2.0, 2.0, rng.uniform(0.72, 0.88))
    s = 0.5 ** 0.5
    normals = np.array([[1, 0, 0], [0, 1, 0], [s, s, 0], [-s, s, 0], [0, 0, 1]], dtype=float)
    return verts, faces, normals


def hexagonal_prism(rng):
    """Regular hexagonal prism, seed-drawn height: 6 vertical planes plus the midplane."""
    height = rng.uniform(1.35, 1.65)
    az = np.arange(6) * (np.pi / 3.0)
    rim = np.column_stack([np.cos(az), np.sin(az)])
    verts = np.vstack([np.column_stack([rim, np.full(6, h)]) for h in (height / 2.0, -height / 2.0)])
    faces = [(0, i, i + 1) for i in range(1, 5)] + [(6, 7 + i, 6 + i) for i in range(1, 5)]
    for i in range(6):
        j = (i + 1) % 6
        faces += [(i, 6 + i, 6 + j), (i, 6 + j, j)]
    mirror = np.radians(np.arange(6) * 30.0)
    normals = np.vstack([np.column_stack([np.cos(mirror), np.sin(mirror), np.zeros(6)]), [0, 0, 1]])
    return verts, np.array(faces), normals


def asymmetric_tetrahedron(rng):
    """Scalene tetrahedron, jittered per seed: no reflection symmetry."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 1.3, 0.0], [0.2, 0.4, 1.7]])
    verts = verts + rng.uniform(-0.05, 0.05, size=verts.shape)
    faces = np.array([(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)])
    return verts, faces, np.empty((0, 3))


ICOSAHEDRON = (
    [(-1, PHI, 0), (1, PHI, 0), (-1, -PHI, 0), (1, -PHI, 0),
     (0, -1, PHI), (0, 1, PHI), (0, -1, -PHI), (0, 1, -PHI),
     (PHI, 0, -1), (PHI, 0, 1), (-PHI, 0, -1), (-PHI, 0, 1)],
    [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
     (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
     (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
     (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)],
)


def icosphere(subdivisions):
    """Subdivided icosahedron on the unit sphere: the 15 icosahedral mirror planes."""
    base, faces = ICOSAHEDRON
    verts = [np.asarray(v, dtype=float) / np.linalg.norm(v) for v in base]
    midpoints = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoints:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            midpoints[key] = len(verts) - 1
        return midpoints[key]

    for _ in range(subdivisions):
        finer = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            finer += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = finer
    return np.array(verts), np.array(faces), icosahedral_mirror_normals()


def icosahedral_mirror_normals():
    """The 15 mirror normals of the base icosahedron: its 30 edge midpoints,
    taken up to sign."""
    verts, faces = ICOSAHEDRON
    verts = np.asarray(verts, dtype=float)
    mids = {}
    for face in faces:
        for i, j in zip(face, face[1:] + face[:1]):
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            key = tuple(np.round(m if tuple(m) >= tuple(-m) else -m, 9))
            mids[key] = m
    return np.array(sorted(mids))


def random_rotation(rng):
    """Uniform rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def place(rng, category, model_id, verts, faces, normals):
    """Apply a seed-drawn rigid motion to a mesh centred at the origin and
    carry its mirror planes (all through the origin) along."""
    rot = random_rotation(rng)
    shift = rng.uniform(-0.5, 0.5, size=3)
    moved = verts @ rot.T + shift
    n = normals.reshape(-1, 3) @ rot.T
    planes = np.column_stack([n, n @ shift])
    return Model(category, model_id, moved, faces, planes)


CATEGORY = {"cuboid": "cabinet", "square_plate": "laptop", "hexagonal_prism": "can",
            "asymmetric_tetrahedron": "boat"}


def lowpoly_models(seed, makers, stream):
    """One seed-drawn model per maker, each under its own rigid motion;
    `stream` separates the draws of workloads that share a seed."""
    rng = np.random.default_rng([seed, stream])
    models = []
    for i, maker in enumerate(makers):
        verts, faces, normals = maker(rng)
        models.append(place(rng, CATEGORY[maker.__name__], f"{maker.__name__}_{i}",
                            verts, faces, normals))
    return models


def dense_models(seed, subdivisions):
    """Icospheres at the given subdivision levels, each freshly rotated."""
    rng = np.random.default_rng([seed, 0])
    models = []
    for i, level in enumerate(subdivisions):
        verts, faces, normals = icosphere(level)
        models.append(place(rng, "ashcan", f"icosphere{level}_{i}", verts, faces, normals))
    return models


def obj_text(model: Model) -> str:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in model.vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in model.faces.tolist()]
    return "\n".join(lines) + "\n"


def write_corpus(root, models) -> str:
    """Write <root>/<category>/<model_id>.obj for every model; return the
    sha256 of the OBJ bytes and analytic planes, in model order."""
    digest = hashlib.sha256()
    for m in models:
        path = Path(root) / m.category / f"{m.model_id}.obj"
        path.parent.mkdir(parents=True, exist_ok=True)
        text = obj_text(m).encode()
        path.write_bytes(text)
        digest.update(text)
        digest.update(m.planes.tobytes())
    return digest.hexdigest()


def match_planes(analytic, detected, angle_deg):
    """Greedy one-to-one match of plane normals (sign-invariant) within
    angle_deg, closest pairs first.  Returns (matched, spurious)."""
    a = np.asarray(analytic, dtype=float).reshape(-1, 3)
    d = np.asarray(detected, dtype=float).reshape(-1, 3)
    if len(a) == 0 or len(d) == 0:
        return 0, len(d)
    angles = np.degrees(np.arccos(np.clip(np.abs(a @ d.T), 0.0, 1.0)))
    used_a, used_d = set(), set()
    for flat in np.argsort(angles, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(d))
        if angles[i, j] > angle_deg:
            break
        if i not in used_a and j not in used_d:
            used_a.add(i)
            used_d.add(j)
    return len(used_a), len(d) - len(used_d)


def read_planes(path):
    """Normals of a planes file written by the CLI (nx ny nz b residual)."""
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    return np.array([[float(v) for v in row[:3]] for row in rows]).reshape(-1, 3)


def read_manifest(path):
    """(metadata, rows) of a manifest; rows are dicts keyed by its #fields."""
    meta, rows, fields = {}, [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, rest = line[1:].partition(":\t")
            if key == "fields":
                fields = rest.split("\t")
            else:
                meta[key] = dict(item.split("=", 1) for item in rest.split("\t") if "=" in item)
        elif line:
            rows.append(dict(zip(fields, line.split("\t"))))
    return meta, rows


def image_id(row):
    return row["label_map_path"][: -len("_labels.pgm")]


def symmetry_directions(meta, row):
    """Ground-truth orientations of a row: the directions of its set label
    bits in the manifest's horizontal-circle codebook (azimuths pi*k/K)."""
    spec = meta["codebook"]
    if spec["support"] != "horizontal_circle":
        raise ValueError(f"unsupported symmetry codebook {spec}")
    az = np.pi * np.flatnonzero([c == "1" for c in row["symmetry_label"]]) / int(spec["k"])
    return np.column_stack([np.cos(az), np.sin(az), np.zeros(len(az))])


def read_pfm(path):
    """Little-endian 3-channel PFM as written by the CLI, rows top to bottom."""
    buf = Path(path).read_bytes()
    magic, size, scale, payload = buf.split(b"\n", 3)
    w, h = (int(v) for v in size.split())
    if magic != b"PF" or float(scale) >= 0:
        raise ValueError(f"{path}: not a little-endian color PFM")
    return np.flipud(np.frombuffer(payload, dtype="<f4").reshape(h, w, 3))


def write_pfm(path, image):
    h, w = image.shape[:2]
    Path(path).write_bytes(b"PF\n%d %d\n-1.0\n" % (w, h)
                           + np.flipud(np.asarray(image, dtype="<f4")).tobytes())


def read_pgm16(path):
    buf = Path(path).read_bytes()
    magic, size, maxval, payload = buf.split(b"\n", 3)
    w, h = (int(v) for v in size.split())
    if magic != b"P5" or int(maxval) != 65535:
        raise ValueError(f"{path}: not a 16-bit binary PGM")
    return np.frombuffer(payload, dtype=">u2").reshape(h, w)


def write_pgm16(path, labels):
    h, w = labels.shape
    Path(path).write_bytes(b"P5\n%d %d\n65535\n" % (w, h) + labels.astype(">u2").tobytes())


def random_directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def write_predictions(manifest_path, tsv_path, pred_dir, seed, per_image=100):
    """Seeded predictions for every manifest row; returns their sha256.

    The TSV holds `per_image` orientations per image: three jittered copies
    (about 7 degrees off) of each ground-truth orientation at high confidence,
    the rest uniform random directions at lower confidence.  `pred_dir`
    gets one map per image: a label map with a quarter of its foreground
    labels replaced by random bins, or a normal map with Gaussian noise
    (sigma 0.15) on every foreground normal.  A seeded half of the images
    (rounded down) get label maps, so every seed brings the same mix.
    """
    manifest_path = Path(manifest_path)
    meta, rows = read_manifest(manifest_path)
    k_normal = int(meta["normal_codebook"]["k"])
    rng = np.random.default_rng([seed, 3])
    as_labels = rng.permutation(len(rows)) < len(rows) // 2
    lines = []
    for row, labelled in zip(rows, as_labels):
        iid = image_id(row)
        gt = symmetry_directions(meta, row)
        jittered = np.repeat(gt, 3, axis=0) + rng.normal(scale=0.09, size=(3 * len(gt), 3))
        jittered /= np.linalg.norm(jittered, axis=1, keepdims=True)
        noise = random_directions(rng, per_image - len(jittered))
        conf = np.concatenate([rng.uniform(0.4, 1.0, len(jittered)), rng.uniform(0.0, 0.7, len(noise))])
        for (x, y, z), c in zip(np.vstack([jittered, noise]).tolist(), conf.tolist()):
            lines.append(f"{iid}\t{x!r}\t{y!r}\t{z!r}\t{c!r}")
        target = Path(pred_dir) / iid
        target.parent.mkdir(parents=True, exist_ok=True)
        if labelled:
            labels = read_pgm16(manifest_path.parent / row["label_map_path"]).astype(np.int64)
            fg = np.flatnonzero(labels.reshape(-1) < k_normal)
            swap = fg[rng.random(len(fg)) < 0.25]
            labels.reshape(-1)[swap] = rng.integers(0, k_normal, len(swap))
            write_pgm16(f"{target}_labels.pgm", labels)
        else:
            gt_map = read_pfm(manifest_path.parent / row["normal_map_path"]).astype(np.float64)
            fg = np.linalg.norm(gt_map, axis=2) > 0.5
            noisy = gt_map[fg] + rng.normal(scale=0.15, size=(int(fg.sum()), 3))
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            # a prediction must face the viewer; keep the truth where noise flipped it
            flipped = noisy[:, 2] <= 1e-3
            noisy[flipped] = gt_map[fg][flipped]
            pred = np.zeros_like(gt_map)
            pred[fg] = noisy
            write_pfm(f"{target}_normal.pfm", pred)
    Path(tsv_path).write_text("\n".join(lines) + "\n")
    return tree_digest(Path(pred_dir), extra=Path(tsv_path).read_bytes())


def write_self_check(manifest_path, rows_kept, tsv_path, pred_dir):
    """Ground truth posed as predictions for about `rows_kept` evenly spaced
    rows: a sub-manifest beside the original, its orientations at confidence
    1, and its normal maps linked into `pred_dir`.  Returns the sub-manifest."""
    manifest_path = Path(manifest_path)
    text = manifest_path.read_text().splitlines()
    header = [line for line in text if line.startswith("#")]
    body = [line for line in text if line and not line.startswith("#")]
    body = body[::max(1, len(body) // rows_kept)]
    sub = manifest_path.with_name("self_check_manifest.tsv")
    sub.write_text("\n".join(header + body) + "\n")
    meta, rows = read_manifest(sub)
    lines = []
    for row in rows:
        iid = image_id(row)
        for x, y, z in symmetry_directions(meta, row).tolist():
            lines.append(f"{iid}\t{x!r}\t{y!r}\t{z!r}\t1.0")
        target = Path(pred_dir) / f"{iid}_normal.pfm"
        target.parent.mkdir(parents=True, exist_ok=True)
        os.link(manifest_path.parent / row["normal_map_path"], target)
    Path(tsv_path).write_text("\n".join(lines) + "\n")
    return sub


def tree_digest(root, extra=b""):
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256(extra)
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
