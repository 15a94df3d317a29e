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
gathers inside bounding boxes.
"""

from __future__ import annotations

import math

import numpy as np

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
