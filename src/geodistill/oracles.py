"""Brute-force reference implementations, written as plain Python loops
with no shared code or vectorization tricks from the main modules.

The test suite and the ``oracle`` CLI subcommand evaluate both paths on
seeded random inputs and compare.  Keeping these deliberately naive (and
slow) makes them easy to audit by hand.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bev_distillation import (
    bilinear_sample,
    inter_channel_gram,
    inter_keypoint_gram,
)
from .depth_supervision import (
    BCE_CLAMP,
    DepthBins,
    assign_depth_bins,
)
from .geometry import Box3D, CameraModel, RigidTransform, points_in_box, project_points, rot_z
from .numerics import matmul
from .rng import CounterRng

# random (N, C) feature stacks the Gram oracle compares
GRAM_INSTANCES = 200


def matmul_loops(a, b) -> List[List[float]]:
    """Triple-loop matrix product over Python floats."""
    a = [[float(v) for v in row] for row in np.asarray(a)]
    b = [[float(v) for v in row] for row in np.asarray(b)]
    n, k = len(a), len(a[0])
    k2, m = len(b), len(b[0])
    if k != k2:
        raise ValueError("inner dimensions disagree")
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def gram_channel_loops(f) -> np.ndarray:
    """Entry (a, b) sums F[i, a] * F[i, b] over keypoints i."""
    f = np.asarray(f, dtype=float)
    _, c = f.shape
    rows = f.tolist()
    out = np.zeros((c, c))
    for a in range(c):
        for b in range(c):
            acc = 0.0
            for row in rows:
                acc += row[a] * row[b]
            out[a, b] = acc
    return out


def gram_keypoint_loops(f) -> np.ndarray:
    """Entry (p, q) sums F[p, c] * F[q, c] over channels c."""
    f = np.asarray(f, dtype=float)
    n, _ = f.shape
    rows = f.tolist()
    out = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            acc = 0.0
            for fp, fq in zip(rows[p], rows[q]):
                acc += fp * fq
            out[p, q] = acc
    return out


def project_point_scalar(cam: CameraModel, point) -> Optional[Tuple[float, float, float]]:
    """One point through the extrinsics and pinhole model, scalar math.

    Returns (u, v, depth) or None when the point is culled by the near
    plane or the image bounds.
    """
    p = [float(v) for v in point]
    r = cam.world_to_cam.rotation
    t = cam.world_to_cam.translation
    x = r[0, 0] * p[0] + r[0, 1] * p[1] + r[0, 2] * p[2] + t[0]
    y = r[1, 0] * p[0] + r[1, 1] * p[1] + r[1, 2] * p[2] + t[1]
    z = r[2, 0] * p[0] + r[2, 1] * p[1] + r[2, 2] * p[2] + t[2]
    if z <= cam.z_near:
        return None
    u = cam.fx * x / z + cam.cx
    v = cam.fy * y / z + cam.cy
    if not (0.0 <= u < cam.width and 0.0 <= v < cam.height):
        return None
    return (u, v, z)


def point_in_box_corners(box: Box3D, point) -> bool:
    """Containment via explicit dot products with the box axes."""
    p = [float(v) for v in point]
    cx, cy, cz = (float(v) for v in box.center)
    ax = (math.cos(box.yaw), math.sin(box.yaw), 0.0)
    ay = (-math.sin(box.yaw), math.cos(box.yaw), 0.0)
    az = (0.0, 0.0, 1.0)
    d = (p[0] - cx, p[1] - cy, p[2] - cz)
    half = [float(v) / 2.0 for v in box.size]
    for axis, h in zip((ax, ay, az), half):
        proj = d[0] * axis[0] + d[1] * axis[1] + d[2] * axis[2]
        if abs(proj) > h:
            return False
    return True


def bilinear_scalar(data, row: float, col: float) -> List[float]:
    """Four-corner interpolation with explicit weights, one channel at a
    time; coordinates clamp to the valid cell-center range."""
    data = np.asarray(data, dtype=float)
    c_dim, h, w = data.shape
    r = min(max(row, 0.0), float(h - 1))
    c = min(max(col, 0.0), float(w - 1))
    r0 = int(math.floor(r))
    c0 = int(math.floor(c))
    r1 = min(r0 + 1, h - 1)
    c1 = min(c0 + 1, w - 1)
    fr = r - r0
    fc = c - c0
    out = []
    for ch in range(c_dim):
        v = (
            float(data[ch, r0, c0]) * (1 - fr) * (1 - fc)
            + float(data[ch, r0, c1]) * (1 - fr) * fc
            + float(data[ch, r1, c0]) * fr * (1 - fc)
            + float(data[ch, r1, c1]) * fr * fc
        )
        out.append(v)
    return out


def smallest_error_scan(gt: Sequence[float], pred: Sequence[float], signed: bool = False) -> int:
    """Linear scan for the pixel whose prediction error is smallest;
    ties go to the earliest index."""
    best = None
    best_idx = -1
    for i, (g, p) in enumerate(zip(gt, pred)):
        err = float(g) - float(p)
        if not signed:
            err = abs(err)
        if best is None or err < best:
            best = err
            best_idx = i
    return best_idx


def continuous_depth_scalar(probs: Sequence[float], centers: Sequence[float]) -> float:
    acc = 0.0
    for p, c in zip(probs, centers):
        acc += float(p) * float(c)
    return acc


def softmax_scalar(logits: Sequence[float]) -> List[float]:
    m = max(float(v) for v in logits)
    exps = [math.exp(float(v) - m) for v in logits]
    s = sum(exps)
    return [e / s for e in exps]


def bce_scalar(probs: Sequence[float], target_idx: int) -> float:
    """One pixel's summed binary cross entropy against a one-hot target,
    with the same probability clamp as the library."""
    total = 0.0
    for k, p in enumerate(probs):
        p = min(max(float(p), BCE_CLAMP), 1.0 - BCE_CLAMP)
        if k == target_idx:
            total += -math.log(p)
        else:
            total += -math.log(1.0 - p)
    return total


def inner_depth_scalar(
    logit_rows: Sequence[Sequence[float]],
    centers: Sequence[float],
    gt: Sequence[float],
    ref: Optional[int],
    reduction: str = "mean",
) -> float:
    """One target's relative-depth loss composed from scalar pieces.

    ``ref`` None means the pairwise form over all ordered pairs.
    """
    depths = [continuous_depth_scalar(softmax_scalar(row), centers) for row in logit_rows]
    n = len(depths)
    if ref is None:
        acc = 0.0
        for p in range(n):
            for q in range(n):
                if p == q:
                    continue
                e = (depths[p] - depths[q]) - (float(gt[p]) - float(gt[q]))
                acc += e * e
        denom = n * (n - 1) if reduction == "mean" else 1
        return acc / denom
    acc = 0.0
    for t in range(n):
        e = (depths[t] - depths[ref]) - (float(gt[t]) - float(gt[ref]))
        acc += e * e
    denom = n if reduction == "mean" else 1
    return acc / denom


def nearest_bin_scan(value: float, centers: Sequence[float]) -> int:
    """Closest bin center by linear scan; exact midpoints take the lower
    index because strict improvement is required to move on."""
    best_idx = 0
    best = abs(float(value) - float(centers[0]))
    for k in range(1, len(centers)):
        d = abs(float(value) - float(centers[k]))
        if d < best:
            best = d
            best_idx = k
    return best_idx


def adam_scalar(
    params: Sequence[float], grad: Sequence[float], m1: Sequence[float], m2: Sequence[float],
    step: int, lr: float, beta1: float, beta2: float, eps: float,
) -> Tuple[List[float], List[float], List[float]]:
    """Bias-corrected Adam update ``step`` (from 0) element by element, in
    Kingma and Ba's efficient form (arXiv 1412.6980, Section 2): the new
    parameters p - lr_t * m1 / (sqrt(m2) + eps_hat), and both moments."""
    root2 = math.sqrt(1.0 - beta2 ** (step + 1))
    lr_t = lr * root2 / (1.0 - beta1 ** (step + 1))
    eps_hat = eps * root2
    new_p, new_m1, new_m2 = [], [], []
    for p, g, a, b in zip(params, grad, m1, m2):
        p, g, a, b = float(p), float(g), float(a), float(b)
        a = beta1 * a + (1.0 - beta1) * g
        b = beta2 * b + ((1.0 - beta2) * g) * g
        new_p.append(p - (lr_t * a) / (math.sqrt(b) + eps_hat))
        new_m1.append(a)
        new_m2.append(b)
    return new_p, new_m1, new_m2


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def run_oracle_suite(seed: int = 42) -> Tuple[Dict, bool]:
    """Run every oracle family on seeded inputs; returns (fixtures, ok).

    The fixtures dict is JSON-serializable and records the worst
    deviation per family along with a small pinned example.
    """
    root = CounterRng(seed)
    fixtures: Dict[str, Dict] = {}
    ok = True

    # Matrix product: library result must match the loop oracle exactly,
    # both accumulate over k in ascending order.
    sub = root.substream("matmul")
    worst = 0.0
    for _ in range(50):
        n = 2 + int(sub.uniform(1)[0] * 5)
        k = 2 + int(sub.uniform(1)[0] * 5)
        m = 2 + int(sub.uniform(1)[0] * 5)
        a = sub.normal((n, k))
        b = sub.normal((k, m))
        worst = max(worst, _max_abs_diff(matmul(a, b), matmul_loops(a, b)))
    a_fix = np.array([[1.0, 2.0], [3.0, 4.0]])
    b_fix = np.array([[5.0, 6.0], [7.0, 8.0]])
    fixtures["matmul"] = {
        "instances": 50,
        "max_abs_diff": worst,
        "tolerance": 0.0,
        "example_product": matmul_loops(a_fix, b_fix),
    }
    ok = ok and worst == 0.0

    # Gram matrices against triple loops; summation order differs, so a
    # small float tolerance applies.
    sub = root.substream("gram")
    worst = 0.0
    for _ in range(GRAM_INSTANCES):
        n = 2 + int(sub.uniform(1)[0] * 15)
        c = 2 + int(sub.uniform(1)[0] * 15)
        f = sub.normal((n, c))
        worst = max(worst, _max_abs_diff(inter_channel_gram(f), gram_channel_loops(f)))
        worst = max(worst, _max_abs_diff(inter_keypoint_gram(f), gram_keypoint_loops(f)))
    fixtures["gram"] = {"instances": GRAM_INSTANCES, "max_abs_diff": worst, "tolerance": 1e-12}
    ok = ok and worst <= 1e-12

    # Vectorized projection against the scalar path.
    sub = root.substream("project")
    worst = 0.0
    kept_mismatch = 0
    checked = 0
    for _ in range(20):
        angles = sub.uniform(3, 0.0, 2.0 * math.pi)  # three draws keep the stream; only the first is used
        rz = rot_z(angles[0])
        cam = CameraModel(
            fx=60.0 + 20.0 * sub.uniform(1)[0],
            fy=60.0 + 20.0 * sub.uniform(1)[0],
            cx=32.0,
            cy=24.0,
            width=64,
            height=48,
            world_to_cam=RigidTransform(rotation=rz, translation=sub.normal(3)),
        )
        pts = sub.normal((40, 3), sigma=5.0)
        proj = project_points(cam, pts)
        scalar = {}
        for i, p in enumerate(pts):
            hit = project_point_scalar(cam, p)
            if hit is not None:
                scalar[i] = hit
        if sorted(scalar) != list(proj.index):
            kept_mismatch += 1
            continue
        for j, i in enumerate(proj.index):
            u, v, z = scalar[int(i)]
            worst = max(worst, abs(u - proj.u[j]), abs(v - proj.v[j]), abs(z - proj.depth[j]))
            checked += 1
    fixtures["projection"] = {
        "points_checked": checked,
        "kept_set_mismatches": kept_mismatch,
        "max_abs_diff": worst,
        "tolerance": 1e-9,
    }
    ok = ok and kept_mismatch == 0 and worst <= 1e-9

    # Box membership against the axis-projection oracle.
    sub = root.substream("inbox")
    mismatches = 0
    trials = 0
    for _ in range(20):
        draw = sub.uniform(7)
        box = Box3D(
            center=np.array([4.0 * draw[0] - 2.0, 4.0 * draw[1] - 2.0, draw[2]]),
            size=np.array([1.0 + 2.0 * draw[3], 1.0 + draw[4], 1.0 + draw[5]]),
            yaw=2.0 * math.pi * draw[6] - math.pi,
        )
        pts = sub.normal((60, 3), sigma=2.0)
        mask = points_in_box(box, pts)
        for i, p in enumerate(pts):
            trials += 1
            if bool(mask[i]) != point_in_box_corners(box, p):
                mismatches += 1
    fixtures["points_in_box"] = {"points_checked": trials, "mismatches": mismatches}
    ok = ok and mismatches == 0

    # Bilinear sampling against the explicit 4-weight formula.
    sub = root.substream("bilinear")
    worst = 0.0
    for _ in range(50):
        data = sub.normal((3, 6, 7))
        pts = np.stack([sub.uniform(10, -1.0, 6.0), sub.uniform(10, -1.0, 7.0)], axis=1)
        out = bilinear_sample(data, pts)
        for i, (r, c) in enumerate(pts):
            worst = max(worst, _max_abs_diff(out[i], bilinear_scalar(data, r, c)))
    fixtures["bilinear"] = {"instances": 50, "max_abs_diff": worst, "tolerance": 1e-12}
    ok = ok and worst <= 1e-12

    # Nearest-bin assignment against the linear scan.
    sub = root.substream("bins")
    mismatches = 0
    bins = DepthBins(count=12, d_min=1.0, d_max=10.0)
    values = sub.uniform(500, 0.5, 11.0)
    assigned = assign_depth_bins(values, bins)
    for v, k in zip(values, assigned):
        if nearest_bin_scan(v, bins.centers) != int(k):
            mismatches += 1
    fixtures["bin_assignment"] = {"values_checked": 500, "mismatches": mismatches}
    ok = ok and mismatches == 0

    return fixtures, ok
