"""Slow, independent reference implementations used to freeze expected values.

Everything here is written as plain loops over pixels/points, on purpose:
the package code is vectorized and these are not, so agreement between the
two is meaningful. Do not import mobilabel from this module.
"""

import struct
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# mask primitives


def rle_counts_ref(mask):
    """Column-major scan, zeros-first run lengths."""
    h, w = mask.shape
    scan = []
    for c in range(w):
        for r in range(h):
            scan.append(1 if mask[r, c] else 0)
    counts = []
    current, run = 0, 0
    for v in scan:
        if v == current:
            run += 1
        else:
            counts.append(run)
            current, run = v, 1
    counts.append(run)
    return counts


def rle_expand_ref(h, w, counts):
    """Zeros-first runs laid down pixel by pixel over the column-major scan."""
    scan = []
    for i, c in enumerate(counts):
        scan.extend([i % 2 == 1] * c)
    return np.array(scan, dtype=bool).reshape(w, h).T


def iou_ref(a, b):
    inter = 0
    union = 0
    for r in range(a.shape[0]):
        for c in range(a.shape[1]):
            if a[r, c] and b[r, c]:
                inter += 1
            if a[r, c] or b[r, c]:
                union += 1
    return inter / union if union else 0.0


def coverage_ref(refs, targ):
    targ_area = 0
    covered = 0
    for r in range(targ.shape[0]):
        for c in range(targ.shape[1]):
            if not targ[r, c]:
                continue
            targ_area += 1
            if any(m[r, c] for m in refs):
                covered += 1
    return covered / targ_area


def components_ref(mask, connectivity=8):
    """Flood fill, returned in (min row, min col) order."""
    if connectivity == 8:
        offs = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    else:
        offs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            pix = []
            while stack:
                r, c = stack.pop()
                pix.append((r, c))
                for dr, dc in offs:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
            comp = np.zeros_like(mask, dtype=bool)
            for r, c in pix:
                comp[r, c] = True
            key = (min(p[0] for p in pix), min(p[1] for p in pix))
            comps.append((key, comp))
    comps.sort(key=lambda t: t[0])
    return [c for _, c in comps]


def label_counts_ref(path, at, iid, height, width, counts):
    """A label file's counts rule as a per-count loop and a sum: the first
    fault as (error class name, field path or None, message), or None
    when the counts are accepted."""
    for j, c in enumerate(counts):
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            field = f"{at}.rle.counts[{j}]"
            return "SchemaViolation", field, f"{field}: expected a non-negative integer, got {c!r}"
    if sum(counts) != height * width:
        return ("RleSumMismatch", None,
                f"{path}: instance {iid} counts sum to {sum(counts)}, expected {height * width}")
    return None


# ---------------------------------------------------------------------------
# clustering

def dbscan_ref(points, eps, min_pts, pixel_window):
    """Textbook DBSCAN with brute-force O(n^2) neighbor queries.

    points: list of (row, col, x, y, z). Neighborhoods require both the
    pixel coordinates inside the window and 3D distance <= eps; a point is
    its own neighbor. Returns a list of frozensets of (row, col), one per
    cluster, in no particular order. Noise is dropped.
    """
    half = pixel_window // 2
    n = len(points)

    def neighbors(i):
        ri, ci, xi, yi, zi = points[i]
        out = []
        for j in range(n):
            rj, cj, xj, yj, zj = points[j]
            if abs(rj - ri) > half or abs(cj - ci) > half:
                continue
            d2 = (xj - xi) ** 2 + (yj - yi) ** 2 + (zj - zi) ** 2
            if d2 <= eps * eps:
                out.append(j)
        return out

    UNSEEN, NOISE = -2, -1
    label = [UNSEEN] * n
    cid = 0
    for i in range(n):
        if label[i] != UNSEEN:
            continue
        nb = neighbors(i)
        if len(nb) < min_pts:
            label[i] = NOISE
            continue
        label[i] = cid
        queue = list(nb)
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if label[j] == NOISE:
                label[j] = cid
            if label[j] != UNSEEN:
                continue
            label[j] = cid
            nb_j = neighbors(j)
            if len(nb_j) >= min_pts:
                queue.extend(nb_j)
        cid += 1
    clusters = []
    for c in range(cid):
        clusters.append(frozenset((points[i][0], points[i][1]) for i in range(n) if label[i] == c))
    return clusters


def dbscan_matrix_ref(points, eps, min_pts, pixel_window):
    """Same algorithm as dbscan_ref but with the full O(n^2) pairwise
    neighbor matrix materialized up front; usable at a few thousand points."""
    n = len(points)
    rows = np.array([p[0] for p in points], dtype=np.int64)
    cols = np.array([p[1] for p in points], dtype=np.int64)
    xyz = np.array([[p[2], p[3], p[4]] for p in points], dtype=np.float64)
    half = pixel_window // 2
    win = (np.abs(rows[:, None] - rows[None, :]) <= half) & (np.abs(cols[:, None] - cols[None, :]) <= half)
    d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=2)
    nbmat = win & (d2 <= eps * eps)

    UNSEEN, NOISE = -2, -1
    label = [UNSEEN] * n
    cid = 0
    for i in range(n):
        if label[i] != UNSEEN:
            continue
        nb = list(np.flatnonzero(nbmat[i]))
        if len(nb) < min_pts:
            label[i] = NOISE
            continue
        label[i] = cid
        queue = nb
        k = 0
        while k < len(queue):
            j = int(queue[k])
            k += 1
            if label[j] == NOISE:
                label[j] = cid
            if label[j] != UNSEEN:
                continue
            label[j] = cid
            nb_j = list(np.flatnonzero(nbmat[j]))
            if len(nb_j) >= min_pts:
                queue.extend(nb_j)
        cid += 1
    clusters = []
    for c in range(cid):
        clusters.append(frozenset((int(rows[i]), int(cols[i])) for i in range(n) if label[i] == c))
    return clusters


# ---------------------------------------------------------------------------
# aggregation: a line-by-line transcription of the published pseudocode.
# Proposals are dicts {"mask": bool array, "score": float}; identity matters,
# so the same dict object may appear in the output at most once.

def mask_agg_literal(ML, MS, matchThrd, filtFrac, coverFrac):
    def Area(m):
        return int(m["mask"].sum())

    def IntersectArea(ref_masks, targ_mask):
        u = np.zeros_like(targ_mask["mask"])
        for r in ref_masks:
            u |= r["mask"]
        return int((u & targ_mask["mask"]).sum())

    def Coverage(ref_masks, targ_mask):
        if isinstance(ref_masks, dict):
            ref_masks = [ref_masks]
        return IntersectArea(ref_masks, targ_mask) / Area(targ_mask)

    def IoU(m1, m2):
        inter = int((m1["mask"] & m2["mask"]).sum())
        return inter / (Area(m1) + Area(m2) - inter)

    def OverlapSubset(masks, targ_mask):
        return [m for m in masks if Coverage(m, targ_mask) > 0]

    def HigherScoring(m1, m2):
        return m1 if m1["score"] > m2["score"] else m2

    def RemoveSmallerOverlappingMasks(M, frac):
        return [a for a in M
                if not any(Area(b) > Area(a) and Coverage(b, a) > frac for b in M if b is not a)]

    def RemoveLargerOverlappingMasks(M, frac):
        return [a for a in M
                if not any(Area(b) < Area(a) and Coverage(a, b) > frac for b in M if b is not a)]

    ML = RemoveSmallerOverlappingMasks(ML, filtFrac)
    MS = RemoveLargerOverlappingMasks(MS, filtFrac)
    MAgg = []

    def union(items):
        for item in [items] if isinstance(items, dict) else items:
            if not any(item is kept for kept in MAgg):
                MAgg.append(item)

    for m in ML:
        mS = OverlapSubset(MS, m)
        if len(mS) == 0:
            continue
        elif len(mS) == 1 and IoU(mS[0], m) > matchThrd:
            union(HigherScoring(mS[0], m))
        elif Coverage(mS, m) > coverFrac:
            union(mS)
        else:
            union(m)

    union([m for m in ML if Coverage(MS, m) == 0])
    union([m for m in MS if Coverage(ML, m) == 0])
    return MAgg


# ---------------------------------------------------------------------------
# matching and COCO-style summaries

def greedy_match_ref(pred_masks, pred_scores, gt_masks, iou_thrd):
    """Score-descending greedy matching; each GT used at most once.

    Ties in score break toward the lower prediction index. Returns
    pred_index -> gt_index for the matched pairs.
    """
    order = sorted(range(len(pred_masks)), key=lambda i: (-pred_scores[i], i))
    taken = set()
    match = {}
    for i in order:
        best_j = -1
        best_iou = -1.0
        for j in range(len(gt_masks)):
            if j in taken:
                continue
            v = iou_ref(pred_masks[i], gt_masks[j])
            if v >= iou_thrd and v > best_iou:
                best_j, best_iou = j, v
        if best_j != -1:
            match[i] = best_j
            taken.add(best_j)
    return match


def ap101_ref(scores, is_tp, n_gt):
    """101-point interpolated average precision.

    scores/is_tp describe every prediction (matched or not) pooled over
    the dataset; n_gt is the total number of ground-truth instances.
    """
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tp = 0
    fp = 0
    recalls, precisions = [], []
    for i in order:
        if is_tp[i]:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    ap = 0.0
    for k in range(101):
        r = k / 100.0
        best = 0.0
        for rec, prec in zip(recalls, precisions):
            if rec >= r and prec > best:
                best = prec
        ap += best
    return ap / 101.0


# ---------------------------------------------------------------------------
# file readers


class RefReject(Exception):
    """A reference reader's refusal: the name of the error class the package
    raises for the input, and its message."""

    def __init__(self, kind, message):
        super().__init__(kind, message)
        self.kind, self.message = kind, message


def read_depth_ref(path):
    """The depth reader as one whole-file read: the file's bytes, checked
    in order (magic, header, size, finiteness), then copied out."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise RefReject("TruncatedFile", f"{path}: {len(data)} bytes, need at least 4 for the magic")
    if data[:4] != b"DPF1":
        raise RefReject("BadMagic", f"{path}: magic {data[:4]!r} != {b'DPF1'!r}")
    if len(data) < 12:
        raise RefReject("TruncatedFile", f"{path}: header truncated at {len(data)} bytes")
    w, h = struct.unpack("<II", data[4:12])
    if w == 0 or h == 0:
        raise RefReject("BadHeader", f"{path}: zero dimension {w}x{h}")
    expected = 12 + 4 * w * h
    if len(data) < expected:
        raise RefReject("TruncatedFile", f"{path}: {len(data)} bytes, expected {expected}")
    if len(data) > expected:
        raise RefReject("BadHeader", f"{path}: {len(data) - expected} trailing bytes")
    values = np.frombuffer(data, dtype="<f4", offset=12).reshape(h, w)
    if not np.isfinite(values).all():
        raise RefReject("NonFiniteValue", f"{path}: depth payload contains non-finite values")
    return np.array(values, dtype=np.float32)
