"""Per-face rasterizer oracle: the reference loop for `render.rasterize`.

Draws one face at a time in index order into a z-buffer, writing a pixel
only when the face covers it (top-left fill rule) and its depth is positive
and strictly below the buffer, so the nearest face wins and the lowest face
index wins ties.  `render.rasterize` must write the same normal, depth and
mask bytes.
"""

import numpy as np

from symnorm.render import BACKGROUND_DEPTH, CameraIntrinsics, NormalMap, frame_camera


def _edge_includes_boundary(a, b):
    # top-left rule for a triangle wound so the interior is on the positive
    # side of every edge function: horizontal edges going right are "top",
    # edges going up in screen coordinates (dy < 0) are "left"
    dy = b[1] - a[1]
    return (dy == 0.0 and b[0] - a[0] > 0.0) or dy < 0.0


def rasterize(mesh, pose, cam=None):
    cam = cam if cam is not None else CameraIntrinsics()
    frame = frame_camera(mesh, pose, cam)
    verts = mesh.vertices @ pose.rotation.T - frame.center
    verts[:, 2] -= frame.distance
    w, h = frame.width, frame.height
    depth = np.full((h, w), BACKGROUND_DEPTH)
    normals = np.zeros((h, w, 3))
    inv_z = -1.0 / verts[:, 2]
    us = frame.cx + frame.focal_px * verts[:, 0] * inv_z
    vs = frame.cy - frame.focal_px * verts[:, 1] * inv_z
    for ia, ib, ic in mesh.faces:
        n = np.cross(verts[ib] - verts[ia], verts[ic] - verts[ia])
        length = np.linalg.norm(n)
        if length == 0.0:
            continue
        n /= length
        if n[2] < 0.0:
            n = -n
        elif n[2] == 0.0:
            continue  # edge-on face cannot carry a front-facing normal
        tri = np.array([[us[ia], vs[ia]], [us[ib], vs[ib]], [us[ic], vs[ic]]])
        area = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) \
            - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
        if area == 0.0:
            continue
        if area < 0.0:
            tri[[1, 2]] = tri[[2, 1]]
        x0 = max(int(np.ceil(tri[:, 0].min() - 0.5)), 0)
        x1 = min(int(np.floor(tri[:, 0].max() - 0.5)), w - 1)
        y0 = max(int(np.ceil(tri[:, 1].min() - 0.5)), 0)
        y1 = min(int(np.floor(tri[:, 1].max() - 0.5)), h - 1)
        if x1 < x0 or y1 < y0:
            continue
        px = np.arange(x0, x1 + 1) + 0.5
        py = np.arange(y0, y1 + 1) + 0.5
        X = px[None, :]
        Y = py[:, None]
        cover = np.ones((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            wv = (b[0] - a[0]) * (Y - a[1]) - (b[1] - a[1]) * (X - a[0])
            if _edge_includes_boundary(a, b):
                cover &= wv >= 0.0
            else:
                cover &= wv > 0.0
        if not cover.any():
            continue
        dx = (X - frame.cx) / frame.focal_px
        dy = (frame.cy - Y) / frame.focal_px
        denom = n[0] * dx + n[1] * dy - n[2]
        plane_const = float(n @ verts[ia])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = plane_const / denom
        window = depth[y0:y1 + 1, x0:x1 + 1]
        sel = cover & (t > 0.0) & (t < window)
        if sel.any():
            window[sel] = t[sel]
            normals[y0:y1 + 1, x0:x1 + 1][sel] = n
    mask = np.isfinite(depth)
    return NormalMap(normals, mask, depth)
