"""Independent brute-force oracles for the feature implementations.

Everything here is written as plain per-voxel / per-entry Python loops,
sharing no assembly code with the package: matrices come from exhaustive
enumeration (pair scans, run walks, flood fills, neighbor counts) and the
feature formulas are transcribed directly from their definitions. The
documented package conventions (13-direction set, per-direction averaging
with empty GLCM directions skipped, dependence size = count + 1,
degenerate-value substitutions) are reproduced here from the definitions,
not imported. The image-feature oracles are the exception to the loops:
they apply np.isin and np.nonzero to the whole grid, where the package
gathers inside bounding boxes. The tree oracles are the package's former
node-by-node CART growth (one split search per node, on that node's rows),
its former prediction, which walked one tree node by node, and its
former importance, which walked each tree with a stack.
The last sections keep more former package paths: the mask decode that
took every datatype through float64, the image features and mask summary
computed on the whole label grid, the perceptron's optimizer loop that
updated each weight and bias array on its own, the GLCM and run/zone
formulas evaluated on one direction's matrix at a time, the Taubin
smoothing that summed every vertex's neighbours with one ``bincount`` per
axis and step, regions taken with ``np.isin`` and centroids with
``np.mean``, and the texture walk that gathered two level arrays per
direction.
"""

from __future__ import annotations

import math

import numpy as np

from radsurv.imagefeat import (ImageFeatures, MaskSummary, roi_volume,
                               roi_surface_area_facecount)
from radsurv.radiomics.shape import (TAUBIN_ITERATIONS, TAUBIN_LAMBDA,
                                     TAUBIN_MU)
from radsurv.radiomics.texture import TextureCounts, _hook
from radsurv.regressors.mlp import (MlpDivergenceError, forward,
                                    init_parameters, loss_and_grads)
from radsurv.rng import make_rng
from radsurv.volumeio import MaskLabelError, RoiMask, bounding_box, load_nifti

DIRS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
]

ALL_26 = [(dx, dy, dz)
          for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
          if (dx, dy, dz) != (0, 0, 0)]


def _in_roi(roi, v):
    x, y, z = v
    return (0 <= x < roi.shape[0] and 0 <= y < roi.shape[1]
            and 0 <= z < roi.shape[2] and roi[x, y, z])


def _entropy(ps):
    return -sum(p * math.log2(p) for p in ps if p > 0)


# ---------------------------------------------------------------------------
# GLCM

def glcm_matrix_bf(levels, roi, d, ng):
    p = np.zeros((ng, ng))
    for x in range(roi.shape[0]):
        for y in range(roi.shape[1]):
            for z in range(roi.shape[2]):
                if not roi[x, y, z]:
                    continue
                u = (x + d[0], y + d[1], z + d[2])
                if _in_roi(roi, u):
                    a = levels[x, y, z] - 1
                    b = levels[u] - 1
                    p[a, b] += 1
                    p[b, a] += 1
    return p


def glcm_features_bf(counts, ng):
    total = counts.sum()
    p = counts / total
    mu_x = sum((i + 1) * p[i, :].sum() for i in range(ng))
    mu_y = sum((j + 1) * p[:, j].sum() for j in range(ng))
    px = [p[i, :].sum() for i in range(ng)]
    py = [p[:, j].sum() for j in range(ng)]
    sig_x2 = sum((i + 1 - mu_x) ** 2 * px[i] for i in range(ng))
    sig_y2 = sum((j + 1 - mu_y) ** 2 * py[j] for j in range(ng))

    p_sum = {}
    p_diff = {}
    for i in range(ng):
        for j in range(ng):
            p_sum[i + j + 2] = p_sum.get(i + j + 2, 0.0) + p[i, j]
            p_diff[abs(i - j)] = p_diff.get(abs(i - j), 0.0) + p[i, j]

    autocorr = sum((i + 1) * (j + 1) * p[i, j]
                   for i in range(ng) for j in range(ng))
    contrast = sum((i - j) ** 2 * p[i, j] for i in range(ng) for j in range(ng))
    if sig_x2 > 0 and sig_y2 > 0:
        correlation = (autocorr - mu_x * mu_y) / math.sqrt(sig_x2 * sig_y2)
    else:
        correlation = 1.0

    hx = _entropy(px)
    hy = _entropy(py)
    hxy = _entropy(p.ravel())
    hxy1 = -sum(p[i, j] * math.log2(px[i] * py[j])
                for i in range(ng) for j in range(ng) if p[i, j] > 0)
    hxy2 = -sum(px[i] * py[j] * math.log2(px[i] * py[j])
                for i in range(ng) for j in range(ng)
                if px[i] * py[j] > 0)
    hmax = max(hx, hy)
    imc1 = (hxy - hxy1) / hmax if hmax > 0 else 0.0
    imc2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))

    da = sum(k * v for k, v in p_diff.items())

    present = [i for i in range(ng) if px[i] > 0]
    if len(present) <= 1:
        mcc = 1.0
    else:
        q = np.zeros((len(present), len(present)))
        for a, i in enumerate(present):
            for b, j in enumerate(present):
                q[a, b] = sum(p[i, k] * p[j, k] / (px[i] * py[k])
                              for k in present if py[k] > 0)
        eig = sorted(np.linalg.eigvals(q).real, reverse=True)
        mcc = math.sqrt(max(0.0, eig[1]))

    return {
        "glcm.autocorrelation": autocorr,
        "glcm.joint_average": mu_x,
        "glcm.cluster_prominence": sum(
            (i + j + 2 - mu_x - mu_y) ** 4 * p[i, j]
            for i in range(ng) for j in range(ng)),
        "glcm.cluster_shade": sum(
            (i + j + 2 - mu_x - mu_y) ** 3 * p[i, j]
            for i in range(ng) for j in range(ng)),
        "glcm.cluster_tendency": sum(
            (i + j + 2 - mu_x - mu_y) ** 2 * p[i, j]
            for i in range(ng) for j in range(ng)),
        "glcm.contrast": contrast,
        "glcm.correlation": correlation,
        "glcm.difference_average": da,
        "glcm.difference_entropy": _entropy(p_diff.values()),
        "glcm.difference_variance": sum(
            (k - da) ** 2 * v for k, v in p_diff.items()),
        "glcm.joint_energy": sum(p[i, j] ** 2
                                 for i in range(ng) for j in range(ng)),
        "glcm.joint_entropy": hxy,
        "glcm.imc1": imc1,
        "glcm.imc2": imc2,
        "glcm.idm": sum(v / (1 + k ** 2) for k, v in p_diff.items()),
        "glcm.idmn": sum(v / (1 + k ** 2 / ng ** 2) for k, v in p_diff.items()),
        "glcm.id": sum(v / (1 + k) for k, v in p_diff.items()),
        "glcm.idn": sum(v / (1 + k / ng) for k, v in p_diff.items()),
        "glcm.inverse_variance": sum(v / k ** 2
                                     for k, v in p_diff.items() if k >= 1),
        "glcm.maximum_probability": p.max(),
        "glcm.sum_average": sum(k * v for k, v in p_sum.items()),
        "glcm.sum_entropy": _entropy(p_sum.values()),
        "glcm.sum_squares": sum((i + 1 - mu_x) ** 2 * p[i, j]
                                for i in range(ng) for j in range(ng)),
        "glcm.mcc": mcc,
    }


def glcm_features_mean_bf(levels, roi, ng):
    per_dir = []
    for d in DIRS:
        counts = glcm_matrix_bf(levels, roi, d, ng)
        if counts.sum() > 0:
            per_dir.append(glcm_features_bf(counts, ng))
    keys = per_dir[0].keys()
    return {k: sum(d[k] for d in per_dir) / len(per_dir) for k in keys}


# ---------------------------------------------------------------------------
# GLRLM

def glrlm_matrix_bf(levels, roi, d, ng, max_len):
    p = np.zeros((ng, max_len))
    for x in range(roi.shape[0]):
        for y in range(roi.shape[1]):
            for z in range(roi.shape[2]):
                if not roi[x, y, z]:
                    continue
                lv = levels[x, y, z]
                prev = (x - d[0], y - d[1], z - d[2])
                if _in_roi(roi, prev) and levels[prev] == lv:
                    continue  # not a run start
                length = 1
                cur = (x + d[0], y + d[1], z + d[2])
                while _in_roi(roi, cur) and levels[cur] == lv:
                    length += 1
                    cur = (cur[0] + d[0], cur[1] + d[1], cur[2] + d[2])
                p[lv - 1, length - 1] += 1
    return p


def run_zone_features_bf(p, n_voxels):
    """The 16 shared features in the canonical order (lists, not arrays)."""
    ng, smax = p.shape
    nr = p.sum()
    pn = p / nr
    row = [p[i, :].sum() for i in range(ng)]
    col = [p[:, s].sum() for s in range(smax)]
    mu_i = sum((i + 1) * pn[i, s] for i in range(ng) for s in range(smax))
    mu_s = sum((s + 1) * pn[i, s] for i in range(ng) for s in range(smax))

    def agg(weight):
        return sum(weight(i + 1, s + 1) * p[i, s]
                   for i in range(ng) for s in range(smax)) / nr

    return [
        agg(lambda i, s: 1.0 / s ** 2),
        agg(lambda i, s: float(s ** 2)),
        sum(r ** 2 for r in row) / nr,
        sum(r ** 2 for r in row) / nr ** 2,
        sum(c ** 2 for c in col) / nr,
        sum(c ** 2 for c in col) / nr ** 2,
        nr / n_voxels,
        sum((i + 1 - mu_i) ** 2 * pn[i, s]
            for i in range(ng) for s in range(smax)),
        sum((s + 1 - mu_s) ** 2 * pn[i, s]
            for i in range(ng) for s in range(smax)),
        _entropy(pn.ravel()),
        agg(lambda i, s: 1.0 / i ** 2),
        agg(lambda i, s: float(i ** 2)),
        agg(lambda i, s: 1.0 / (i ** 2 * s ** 2)),
        agg(lambda i, s: i ** 2 / s ** 2),
        agg(lambda i, s: s ** 2 / i ** 2),
        agg(lambda i, s: float(i ** 2 * s ** 2)),
    ]


# ---------------------------------------------------------------------------
# Shape diameters

def max_diameters_bf(roi, spacing):
    """Largest center distances over all pairs of surface voxels: in 3D and
    within each plane family, as (3d, slice, column, row).

    A surface voxel has at least one 6-neighbor outside the ROI (or outside
    the grid). Centers are index * spacing: the origin cancels from every
    difference. The squared distance sums the axis terms in x, y, z order.
    """
    surface = [v for v in np.ndindex(*roi.shape) if roi[v] and any(
        not _in_roi(roi, (v[0] + d[0], v[1] + d[1], v[2] + d[2]))
        for d in ALL_26 if sum(map(abs, d)) == 1)]
    centers = [tuple(float(i) * s for i, s in zip(v, spacing))
               for v in surface]
    best = {"3d": 0.0, 2: 0.0, 1: 0.0, 0: 0.0}
    for a in range(len(surface)):
        for b in range(a + 1, len(surface)):
            dx, dy, dz = (p - q for p, q in zip(centers[a], centers[b]))
            d2 = dx * dx + dy * dy + dz * dz
            best["3d"] = max(best["3d"], d2)
            for axis in range(3):
                if surface[a][axis] == surface[b][axis]:
                    best[axis] = max(best[axis], d2)
    return tuple(math.sqrt(best[k]) for k in ("3d", 2, 1, 0))


# ---------------------------------------------------------------------------
# GLSZM

def glszm_matrix_bf(levels, roi, ng):
    visited = np.zeros(roi.shape, dtype=bool)
    zones = []
    for x in range(roi.shape[0]):
        for y in range(roi.shape[1]):
            for z in range(roi.shape[2]):
                if not roi[x, y, z] or visited[x, y, z]:
                    continue
                lv = levels[x, y, z]
                stack = [(x, y, z)]
                visited[x, y, z] = True
                size = 0
                while stack:
                    cx, cy, cz = stack.pop()
                    size += 1
                    for d in ALL_26:
                        u = (cx + d[0], cy + d[1], cz + d[2])
                        if _in_roi(roi, u) and not visited[u] \
                                and levels[u] == lv:
                            visited[u] = True
                            stack.append(u)
                zones.append((lv, size))
    max_size = max(size for _, size in zones)
    p = np.zeros((ng, max_size))
    for lv, size in zones:
        p[lv - 1, size - 1] += 1
    return p


# ---------------------------------------------------------------------------
# GLDM

def gldm_matrix_bf(levels, roi, ng, alpha=0.0):
    p = np.zeros((ng, 27))
    for x in range(roi.shape[0]):
        for y in range(roi.shape[1]):
            for z in range(roi.shape[2]):
                if not roi[x, y, z]:
                    continue
                count = 0
                for d in ALL_26:
                    u = (x + d[0], y + d[1], z + d[2])
                    if _in_roi(roi, u) and \
                            abs(int(levels[u]) - int(levels[x, y, z])) <= alpha:
                        count += 1
                p[levels[x, y, z] - 1, count] += 1
    return p


def gldm_features_bf(p):
    ng, dmax = p.shape
    nz = p.sum()
    pn = p / nz
    row = [p[i, :].sum() for i in range(ng)]
    col = [p[:, c].sum() for c in range(dmax)]
    mu_i = sum((i + 1) * pn[i, c] for i in range(ng) for c in range(dmax))
    mu_d = sum((c + 1) * pn[i, c] for i in range(ng) for c in range(dmax))

    def agg(weight):
        return sum(weight(i + 1, c + 1) * p[i, c]
                   for i in range(ng) for c in range(dmax)) / nz

    return {
        "gldm.small_dependence_emphasis": agg(lambda i, d: 1.0 / d ** 2),
        "gldm.large_dependence_emphasis": agg(lambda i, d: float(d ** 2)),
        "gldm.gray_level_non_uniformity": sum(r ** 2 for r in row) / nz,
        "gldm.dependence_non_uniformity": sum(c ** 2 for c in col) / nz,
        "gldm.dependence_non_uniformity_normalized":
            sum(c ** 2 for c in col) / nz ** 2,
        "gldm.gray_level_variance": sum(
            (i + 1 - mu_i) ** 2 * pn[i, c]
            for i in range(ng) for c in range(dmax)),
        "gldm.dependence_variance": sum(
            (c + 1 - mu_d) ** 2 * pn[i, c]
            for i in range(ng) for c in range(dmax)),
        "gldm.dependence_entropy": _entropy(pn.ravel()),
        "gldm.low_gray_level_emphasis": agg(lambda i, d: 1.0 / i ** 2),
        "gldm.high_gray_level_emphasis": agg(lambda i, d: float(i ** 2)),
        "gldm.small_dependence_low_gray_level_emphasis":
            agg(lambda i, d: 1.0 / (i ** 2 * d ** 2)),
        "gldm.small_dependence_high_gray_level_emphasis":
            agg(lambda i, d: i ** 2 / d ** 2),
        "gldm.large_dependence_low_gray_level_emphasis":
            agg(lambda i, d: d ** 2 / i ** 2),
        "gldm.large_dependence_high_gray_level_emphasis":
            agg(lambda i, d: float(i ** 2 * d ** 2)),
    }


# ---------------------------------------------------------------------------
# NGTDM

def ngtdm_features_bf(levels, roi, ng):
    n = [0.0] * ng
    s = [0.0] * ng
    nvp = 0
    for x in range(roi.shape[0]):
        for y in range(roi.shape[1]):
            for z in range(roi.shape[2]):
                if not roi[x, y, z]:
                    continue
                vals = []
                for d in ALL_26:
                    u = (x + d[0], y + d[1], z + d[2])
                    if _in_roi(roi, u):
                        vals.append(int(levels[u]))
                if not vals:
                    continue
                nvp += 1
                lv = int(levels[x, y, z])
                n[lv - 1] += 1
                s[lv - 1] += abs(lv - sum(vals) / len(vals))
    if nvp == 0:
        return {"ngtdm.coarseness": 1e6, "ngtdm.contrast": 0.0,
                "ngtdm.busyness": 0.0, "ngtdm.complexity": 0.0,
                "ngtdm.strength": 0.0}
    p = [ni / nvp for ni in n]
    present = [i for i in range(ng) if p[i] > 0]
    ngp = len(present)

    psum = sum(p[i] * s[i] for i in range(ng))
    coarseness = 1.0 / psum if psum > 0 else 1e6
    if ngp > 1:
        contrast = (sum(p[i] * p[j] * (i - j) ** 2
                        for i in present for j in present)
                    / (ngp * (ngp - 1))) * (sum(s) / nvp)
        busy_den = sum(abs((i + 1) * p[i] - (j + 1) * p[j])
                       for i in present for j in present)
        busyness = psum / busy_den if busy_den > 0 else 0.0
        complexity = sum(abs(i - j) * (p[i] * s[i] + p[j] * s[j])
                         / (p[i] + p[j])
                         for i in present for j in present) / nvp
        s_total = sum(s)
        strength = (sum((p[i] + p[j]) * (i - j) ** 2
                        for i in present for j in present) / s_total
                    if s_total > 0 else 0.0)
    else:
        contrast = busyness = complexity = strength = 0.0
    return {"ngtdm.coarseness": coarseness, "ngtdm.contrast": contrast,
            "ngtdm.busyness": busyness, "ngtdm.complexity": complexity,
            "ngtdm.strength": strength}


# ---------------------------------------------------------------------------
# First order

# ---------------------------------------------------------------------------
# Image features and mask summary: np.isin / np.nonzero over the whole grid,
# with the region label sets written out here

def _centroid_bf(member, spacing, origin):
    idx = np.nonzero(member)
    if idx[0].size == 0:
        return [math.nan] * 3
    return [float(np.mean(idx[a]) * spacing[a] + origin[a]) for a in range(3)]


def image_features_bf(labels, spacing, age):
    """Volumes and exposed-face areas of WT, TC and ET, then the age."""
    voxel = spacing[0] * spacing[1] * spacing[2]
    face_area = (spacing[1] * spacing[2], spacing[0] * spacing[2],
                 spacing[0] * spacing[1])
    vols, surfs = [], []
    for region in ((1, 2, 4), (1, 4), (4,)):
        member = np.isin(labels, region)
        count = int(np.count_nonzero(member))
        vols.append(count * voxel)
        total = 0.0
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            shared = int(np.count_nonzero(member[tuple(lo)] & member[tuple(hi)]))
            total += (2 * count - 2 * shared) * face_area[axis]
        surfs.append(total)
    return vols + surfs + [float(age)]


def mask_summary_bf(labels, spacing, origin):
    """Label amounts, WT extent, WT and necrosis centroids (NaN if absent)."""
    voxel = spacing[0] * spacing[1] * spacing[2]
    amounts = [int(np.count_nonzero(labels == v)) * voxel for v in (1, 2, 4)]
    wt = np.isin(labels, (1, 2, 4))
    idx = np.nonzero(wt)
    if idx[0].size == 0:
        extent = [0.0] * 3
    else:
        extent = [float((int(idx[a].max()) - int(idx[a].min()) + 1) * spacing[a])
                  for a in range(3)]
    return (amounts + extent + _centroid_bf(wt, spacing, origin)
            + _centroid_bf(labels == 1, spacing, origin))


def percentile_bf(values, q):
    """Linear interpolation between closest ranks."""
    vs = sorted(values)
    if len(vs) == 1:
        return vs[0]
    rank = q / 100.0 * (len(vs) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return vs[lo] * (1 - frac) + vs[hi] * frac


def first_order_bf(values, levels, ng, voxel_volume):
    vs = sorted(values)
    n = len(vs)
    mean = sum(vs) / n
    m2 = sum((v - mean) ** 2 for v in vs) / n
    m3 = sum((v - mean) ** 3 for v in vs) / n
    m4 = sum((v - mean) ** 4 for v in vs) / n

    counts = [0] * ng
    for lv in levels:
        counts[lv - 1] += 1
    ps = [c / n for c in counts if c > 0]

    if n % 2:
        median = vs[n // 2]
    else:
        median = (vs[n // 2 - 1] + vs[n // 2]) / 2

    p10 = percentile_bf(vs, 10)
    p90 = percentile_bf(vs, 90)
    band = [v for v in vs if p10 <= v <= p90]
    band_mean = sum(band) / len(band)
    energy = sum(v ** 2 for v in vs)
    return {
        "firstorder.energy": energy,
        "firstorder.total_energy": energy * voxel_volume,
        "firstorder.entropy": _entropy(ps),
        "firstorder.minimum": vs[0],
        "firstorder.percentile_10": p10,
        "firstorder.percentile_90": p90,
        "firstorder.maximum": vs[-1],
        "firstorder.mean": mean,
        "firstorder.median": median,
        "firstorder.interquartile_range":
            percentile_bf(vs, 75) - percentile_bf(vs, 25),
        "firstorder.range": vs[-1] - vs[0],
        "firstorder.mean_absolute_deviation":
            sum(abs(v - mean) for v in vs) / n,
        "firstorder.robust_mean_absolute_deviation":
            sum(abs(v - band_mean) for v in band) / len(band),
        "firstorder.root_mean_squared": math.sqrt(energy / n),
        "firstorder.skewness": m3 / m2 ** 1.5 if m2 > 0 else 0.0,
        "firstorder.kurtosis": m4 / m2 ** 2 if m2 > 0 else 0.0,
        "firstorder.variance": m2,
        "firstorder.uniformity": sum(p ** 2 for p in ps),
    }


def best_split_bf(X, y, feat_idx):
    """Best (feature, threshold, gain, left_row_mask) of one node's rows.

    Scans the given features with cumulative sums over each one's stable
    sort order; ties in gain go to the lowest feature, then the lowest
    threshold. None when no feature admits a gain-positive split.
    """
    m = y.shape[0]
    xs_all = X[:, feat_idx]
    order = np.argsort(xs_all, axis=0, kind="stable")
    xs = np.take_along_axis(xs_all, order, axis=0)
    ys = y[order]

    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys * ys, axis=0)
    t1 = s1[-1, :]
    t2 = s2[-1, :]
    left_n = np.arange(1, m, dtype=np.float64)[:, None]
    right_n = m - left_n
    sse_left = s2[:-1] - s1[:-1] ** 2 / left_n
    sse_right = (t2 - s2[:-1]) - (t1 - s1[:-1]) ** 2 / right_n
    parent = t2 - t1 ** 2 / m
    gain = parent[None, :] - sse_left - sse_right
    gain[xs[1:] <= xs[:-1]] = -np.inf   # split must separate distinct values

    flat_best_rows = np.argmax(gain, axis=0)        # lowest threshold on ties
    best_gains = gain[flat_best_rows, np.arange(gain.shape[1])]
    col = int(np.argmax(best_gains))                # lowest feature on ties
    if not best_gains[col] > 0:
        return None
    row = int(flat_best_rows[col])
    feature = int(feat_idx[col])
    threshold = (xs[row, col] + xs[row + 1, col]) / 2.0
    left_mask = X[:, feature] <= threshold
    return feature, float(threshold), float(best_gains[col]), left_mask


def _leaf_bf(rows, y):
    ysub = y[rows]
    return {"n": rows.size, "value": float(ysub.mean())}, ysub


def grow_tree_bf(X, y, max_depth, min_split):
    """Recursive CART growth over every feature, as a model.json tree dict."""
    p = X.shape[1]

    def grow(rows, depth):
        node, ysub = _leaf_bf(rows, y)
        if rows.size < min_split or (max_depth is not None
                                     and depth >= max_depth):
            return node
        if float(((ysub - node["value"]) ** 2).sum()) <= 0.0:
            return node
        found = best_split_bf(X[rows], ysub, np.arange(p))
        if found is None:
            return node
        feature, threshold, gain, left_mask = found
        node.update(feature=feature, threshold=threshold, gain=gain,
                    left=grow(rows[left_mask], depth + 1),
                    right=grow(rows[~left_mask], depth + 1))
        return node

    return grow(np.arange(X.shape[0]), 0)


def grow_tree_levels_bf(X, y, max_depth, min_split, max_features, rng):
    """CART growth one depth at a time with per-depth feature-subset draws.

    At each depth the nodes searched for a split (enough rows, below
    max_depth, positive SSE) take one row each, in level order, of a
    ``rng.random((searched, p))`` block, and search the features of their
    row's ``max_features`` smallest draws. Returns a nested model.json dict.
    """
    p = X.shape[1]
    root = {"rows": np.arange(X.shape[0])}
    level, depth = [root], 0
    while level:
        searched = []
        for node in level:
            rows = node.pop("rows")
            leaf, ysub = _leaf_bf(rows, y)
            node.update(leaf)
            if rows.size < min_split or (max_depth is not None
                                         and depth >= max_depth):
                continue
            if float(((ysub - node["value"]) ** 2).sum()) > 0.0:
                searched.append((node, rows))
        draws = rng.random((len(searched), p))
        level = []
        for (node, rows), u in zip(searched, draws):
            subset = np.sort(np.argsort(u, kind="stable")[:max_features])
            found = best_split_bf(X[rows], y[rows], subset)
            if found is None:
                continue
            feature, threshold, gain, left_mask = found
            node.update(feature=feature, threshold=threshold, gain=gain,
                        left={"rows": rows[left_mask]},
                        right={"rows": rows[~left_mask]})
            level += [node["left"], node["right"]]
        depth += 1
    return root


def predict_tree_bf(root, X):
    """The value of the leaf of the TreeNode tree at ``root`` that each row
    of X reaches, going left where x <= threshold, one node at a time."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.feature is None:
            out[idx] = node.value
        else:
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
    return out


def split_gains_bf(trees, p):
    """Per-feature split gains of the trees at the root views ``trees``:
    each tree's gains added as a stack pops its nodes (a node, then its
    right subtree, then its left), the per-tree vectors added in tree
    order."""
    gains = np.zeros(p)
    for root in trees:
        tree_gains = np.zeros(p)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.feature is not None:
                tree_gains[node.feature] += node.gain
                stack.append(node.left)
                stack.append(node.right)
        gains += tree_gains
    return gains


# ---------------------------------------------------------------------------
# Former package paths: the float64 mask decode and whole-grid image features

def load_mask_via_float(path):
    """Labels of a mask decoded as float64 (scaled), rounded, drift-checked,
    cast to C-ordered int16 and checked with np.isin; raises the same
    MaskLabelError texts as the package for non-integer and bad labels."""
    data = load_nifti(path).region(...)
    rounded = np.rint(data)
    drift = np.abs(data - rounded)
    if drift.max(initial=0.0) > 1e-6:
        idx = tuple(int(c[0]) for c in np.nonzero(drift > 1e-6))
        raise MaskLabelError(
            f"{path}: voxel {idx} holds non-integer value {data[idx]!r}")
    labels = rounded.astype(np.int16, order="C")
    bad = ~np.isin(labels, (0, 1, 2, 4))
    if bad.any():
        idx = tuple(int(c[0]) for c in np.nonzero(bad))
        raise MaskLabelError(
            f"{path}: label {int(labels[idx])} at voxel {idx} is not in "
            "{0,1,2,4}")
    return labels


_LABEL_SETS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,), "LABEL1": (1,),
               "LABEL2": (2,), "LABEL4": (4,)}


def _full_roi(mask, kind):
    """The region as the package derived it before regions were cropped:
    np.isin over the whole label grid."""
    return RoiMask(dims=mask.dims, spacing=mask.spacing, origin=mask.origin,
                   membership=np.isin(mask.labels, _LABEL_SETS[kind]))


def extract_image_features_full(mask, age):
    """ImageFeatures from regions derived on the whole label grid."""
    vols, surfs = [], []
    for kind in ("WT", "TC", "ET"):
        roi = _full_roi(mask, kind)
        vols.append(roi_volume(roi))
        surfs.append(roi_surface_area_facecount(roi))
    return ImageFeatures(*vols, *surfs, age=float(age))


def _centroid_in_box(roi, box):
    if box is None:
        return None
    idx = np.nonzero(roi.membership[box])
    return tuple(
        float(np.mean(idx[a] + box[a].start) * roi.spacing[a] + roi.origin[a])
        for a in range(3))


def mask_summary_full(mask):
    """MaskSummary from regions derived on the whole label grid."""
    wt = _full_roi(mask, "WT")
    necrosis = _full_roi(mask, "LABEL1")
    wt_box = bounding_box(wt.membership)
    extent = ((0.0, 0.0, 0.0) if wt_box is None else tuple(
        float((wt_box[a].stop - wt_box[a].start) * mask.spacing[a])
        for a in range(3)))
    return MaskSummary(
        amount_necrotic=roi_volume(necrosis),
        amount_edema=roi_volume(_full_roi(mask, "LABEL2")),
        amount_enhancing=roi_volume(_full_roi(mask, "LABEL4")),
        extent=extent,
        centroid_wt=_centroid_in_box(wt, wt_box),
        centroid_necrosis=_centroid_in_box(
            necrosis, bounding_box(necrosis.membership)),
    )


def train_mlp_per_array(X, y, seed, widths=(32, 24, 16, 12, 8), epochs=200,
                        lr=1e-3, optimizer="adam", batch_size=32):
    """(weights, biases) of the perceptron on a complete matrix, each array
    updated by its own optimizer step; MlpDivergenceError as the package
    raises it."""
    n, p = X.shape
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    x_scale[x_scale == 0] = 1.0
    xs = (X - x_mean) / x_scale
    y_mean = float(y.mean())
    y_scale = float(y.std()) or 1.0
    ys = (y - y_mean) / y_scale

    weights, biases = init_parameters(p, tuple(widths), seed)
    batch_rng = make_rng(seed, 1)
    if optimizer == "adam":
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m_w = [np.zeros_like(w) for w in weights]
        v_w = [np.zeros_like(w) for w in weights]
        m_b = [np.zeros_like(b) for b in biases]
        v_b = [np.zeros_like(b) for b in biases]
        step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            perm = batch_rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = perm[start:start + batch_size]
                _, gw, gb = loss_and_grads(weights, biases, xs[batch], ys[batch])
                if optimizer == "sgd":
                    for i in range(len(weights)):
                        weights[i] -= lr * gw[i]
                        biases[i] -= lr * gb[i]
                else:
                    step += 1
                    corr1 = 1.0 - beta1 ** step
                    corr2 = 1.0 - beta2 ** step
                    for i in range(len(weights)):
                        m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                        v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                        weights[i] -= lr * (m_w[i] / corr1) \
                            / (np.sqrt(v_w[i] / corr2) + eps)
                        m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                        v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                        biases[i] -= lr * (m_b[i] / corr1) \
                            / (np.sqrt(v_b[i] / corr2) + eps)
            epoch_loss = float(np.mean((forward(weights, biases, xs) - ys) ** 2))
            if not np.isfinite(epoch_loss):
                raise MlpDivergenceError(epoch)
    return weights, biases


# ---------------------------------------------------------------------------
# Former per-matrix texture formulas: one direction's matrix per call, the
# evaluation the (directions x levels x levels) stacks must match bit for bit

GLCM_NAMES_FORMER = (
    "glcm.autocorrelation", "glcm.joint_average", "glcm.cluster_prominence",
    "glcm.cluster_shade", "glcm.cluster_tendency", "glcm.contrast",
    "glcm.correlation", "glcm.difference_average", "glcm.difference_entropy",
    "glcm.difference_variance", "glcm.joint_energy", "glcm.joint_entropy",
    "glcm.imc1", "glcm.imc2", "glcm.idm", "glcm.idmn", "glcm.id", "glcm.idn",
    "glcm.inverse_variance", "glcm.maximum_probability", "glcm.sum_average",
    "glcm.sum_entropy", "glcm.sum_squares", "glcm.mcc",
)


def _entropy_per_matrix(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def glcm_features_per_matrix(counts, ng):
    """The 24 GLCM features of one count matrix (GLCM_NAMES_FORMER order)."""
    total = counts.sum()
    assert total > 0
    p = counts / total
    levels = np.arange(1, ng + 1, dtype=np.float64)
    i = levels[:, None]
    j = levels[None, :]
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = float((levels * px).sum())
    mu_y = float((levels * py).sum())
    sig_x2 = float(((levels - mu_x) ** 2 * px).sum())
    sig_y2 = float(((levels - mu_y) ** 2 * py).sum())

    ks = np.arange(2, 2 * ng + 1, dtype=np.float64)
    p_sum = np.zeros(ks.size)
    kd = np.arange(0, ng, dtype=np.float64)
    p_diff = np.zeros(kd.size)
    np.add.at(p_sum, ((i + j).astype(int) - 2).ravel(), p.ravel())
    np.add.at(p_diff, np.abs(i - j).astype(int).ravel(), p.ravel())

    hx = _entropy_per_matrix(px)
    hy = _entropy_per_matrix(py)
    hxy = _entropy_per_matrix(p.ravel())
    nz = p > 0
    outer = px[:, None] * py[None, :]
    hxy1 = float(-(p[nz] * np.log2(outer[nz])).sum())
    nz_outer = outer > 0
    hxy2 = float(-(outer[nz_outer] * np.log2(outer[nz_outer])).sum())

    autocorr = float((i * j * p).sum())
    if sig_x2 > 0 and sig_y2 > 0:
        correlation = (autocorr - mu_x * mu_y) / np.sqrt(sig_x2 * sig_y2)
    else:
        correlation = 1.0
    hmax = max(hx, hy)
    imc1 = (hxy - hxy1) / hmax if hmax > 0 else 0.0
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - hxy)))))
    diff_avg = float((kd * p_diff).sum())

    present = np.nonzero(px > 0)[0]
    if present.size <= 1:
        mcc = 1.0
    else:
        sub = p[np.ix_(present, present)]
        q = (sub / px[present][:, None]) @ (sub / py[present][None, :]).T
        eig = np.sort(np.linalg.eigvals(q).real)[::-1]
        mcc = float(np.sqrt(max(0.0, eig[1])))

    values = [
        autocorr, mu_x,
        float(((i + j - mu_x - mu_y) ** 4 * p).sum()),
        float(((i + j - mu_x - mu_y) ** 3 * p).sum()),
        float(((i + j - mu_x - mu_y) ** 2 * p).sum()),
        float(((i - j) ** 2 * p).sum()),
        float(correlation), diff_avg, _entropy_per_matrix(p_diff),
        float(((kd - diff_avg) ** 2 * p_diff).sum()),
        float((p ** 2).sum()), hxy, float(imc1), imc2,
        float((p_diff / (1.0 + kd ** 2)).sum()),
        float((p_diff / (1.0 + kd ** 2 / ng ** 2)).sum()),
        float((p_diff / (1.0 + kd)).sum()),
        float((p_diff / (1.0 + kd / ng)).sum()),
        float((p_diff[1:] / kd[1:] ** 2).sum()),
        float(p.max()), float((ks * p_sum).sum()),
        _entropy_per_matrix(p_sum),
        float(((i - mu_x) ** 2 * p).sum()), mcc,
    ]
    return dict(zip(GLCM_NAMES_FORMER, values))


def run_zone_values_per_matrix(p, n_voxels):
    """The 16 run/zone values of one (level x size) count matrix."""
    nr = p.sum()
    assert nr > 0
    ng, smax = p.shape
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    s = np.arange(1, smax + 1, dtype=np.float64)[None, :]
    pn = p / nr
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    mu_i = float((i * pn).sum())
    mu_s = float((s * pn).sum())
    return [
        float((p / s ** 2).sum() / nr),
        float((p * s ** 2).sum() / nr),
        float((row ** 2).sum() / nr),
        float((row ** 2).sum() / nr ** 2),
        float((col ** 2).sum() / nr),
        float((col ** 2).sum() / nr ** 2),
        float(nr / n_voxels),
        float(((i - mu_i) ** 2 * pn).sum()),
        float(((s - mu_s) ** 2 * pn).sum()),
        _entropy_per_matrix(pn.ravel()),
        float((p / i ** 2).sum() / nr),
        float((p * i ** 2).sum() / nr),
        float((p / (i ** 2 * s ** 2)).sum() / nr),
        float((p * i ** 2 / s ** 2).sum() / nr),
        float((p * s ** 2 / i ** 2).sum() / nr),
        float((p * i ** 2 * s ** 2).sum() / nr),
    ]


def direction_means_per_matrix(per_dir):
    """Each value's mean over a list of per-direction value dicts."""
    return {name: float(np.mean([d[name] for d in per_dir]))
            for name in per_dir[0]}


# ---------------------------------------------------------------------------
# Former package path: Taubin smoothing summed with one bincount per axis

def taubin_via_bincount(vertices, faces):
    """Shrink-free Laplacian smoothing over the mesh 1-ring neighborhoods,
    ``TAUBIN_ITERATIONS`` times a lambda then a mu step."""
    n = vertices.shape[0]
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                            faces[:, [2, 0]]], axis=0)
    # both directions of every edge, once each, sorted by (owner, neighbor)
    keys = np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                   edges[:, 1] * n + edges[:, 0]]))
    owner, neighbor = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    degree = np.bincount(owner, minlength=n).astype(np.float64)
    degree[degree == 0] = 1.0

    v = vertices.T.astype(np.float64)       # one row per axis
    for _ in range(TAUBIN_ITERATIONS):
        for factor in (TAUBIN_LAMBDA, TAUBIN_MU):
            acc = np.stack([np.bincount(owner, weights=row[neighbor],
                                        minlength=n) for row in v])
            v = v + factor * (acc / degree - v)
    return np.ascontiguousarray(v.T)


# ---------------------------------------------------------------------------
# Former package paths: regions by np.isin, centroids by np.mean, and the
# texture walk that gathered voxel numbers and then two level arrays

def derive_roi_isin(mask, kind):
    """The region as ``derive_roi`` took it with ``np.isin`` over the crop
    of the mask's box."""
    box = mask.box
    crop = mask.labels[tuple(slice(b.start - c, b.stop - c)
                             for b, c in zip(box, mask.corner))]
    return RoiMask(dims=mask.dims, spacing=mask.spacing, origin=mask.origin,
                   membership=np.isin(crop, _LABEL_SETS[kind]),
                   corner=tuple(b.start for b in box))


def centroid_mean(roi):
    """Mean member voxel center by ``np.mean`` of the nonzero indices, or
    None for an empty region."""
    idx = np.nonzero(roi.membership)
    if idx[0].size == 0:
        return None
    return tuple(
        float(np.mean(idx[a] + roi.corner[a]) * roi.spacing[a] + roi.origin[a])
        for a in range(3))


def count_textures_gather(disc):
    """``TextureCounts`` of the walk that, per direction, gathered the
    neighbours' voxel numbers, then the levels at both ends of each pair:
    the GLCM from one ``bincount`` of ``la * ng + lb``, the equal pairs from
    ``la == lb``."""
    levels = disc.levels
    nv, ng, width = levels.size, disc.n_levels, max(disc.roi.dims)
    lv = levels.astype(np.int64) - 1
    glcm = np.empty((len(DIRS), ng, ng))
    longer = np.zeros((len(DIRS), ng, width))
    dep = np.zeros(nv, dtype=np.int64)
    succ = np.full(nv, -1)
    linked = np.zeros(nv, dtype=bool)
    label, left = np.arange(nv), []
    padded = np.pad(disc.level_map, 1)
    pos = np.flatnonzero(padded.ravel())
    number = np.full(padded.size, -1, dtype=np.int64)
    number[pos] = np.arange(pos.size)
    strides = np.array([padded.shape[1] * padded.shape[2], padded.shape[2], 1])
    for d, shift in enumerate((np.array(DIRS) @ strides).tolist()):
        b = number[pos + shift]
        a = np.flatnonzero(b >= 0)
        b = b[a]
        la, lb = lv[a], lv[b]
        glcm[d] = np.bincount(la * ng + lb, minlength=ng * ng).reshape(ng, ng)
        same = np.flatnonzero(la == lb)
        a, b = a[same], b[same]
        dep += np.bincount(a, minlength=nv)
        dep += np.bincount(b, minlength=nv)
        succ[a] = b
        linked[b] = True
        run, k = succ[a[np.flatnonzero(~linked[a])]], 1
        while run.size:
            longer[d, :, k] = np.bincount(lv[run], minlength=ng)
            run = succ[run]
            run = run[run >= 0]
            k += 1
        succ[a] = -1
        linked[b] = False
        label, a, b = _hook(label, a, b)
        left.append((a, b))
    longer[:, :, 0] = np.bincount(lv, minlength=ng) - longer.sum(axis=2)
    longer[:, :, :-1] -= longer[:, :, 1:]
    glcm += glcm.transpose(0, 2, 1)
    src, dst = (np.concatenate(ends) for ends in zip(*left))
    while src.size:
        label, src, dst = _hook(label, src, dst)
    sizes = np.bincount(label)
    roots = np.flatnonzero(sizes)
    return TextureCounts(glcm, longer,
                         np.bincount(lv * 27 + dep, minlength=ng * 27)
                         .reshape(ng, 27).astype(np.float64),
                         zones=(lv[roots], sizes[roots] - 1))
