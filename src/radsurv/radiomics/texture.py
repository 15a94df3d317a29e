"""Gray-level texture matrices and their feature families.

Conventions, fixed across the package and mirrored by the test oracles:

* Neighborhoods are infinity-norm distance 1: the 26-neighborhood for
  GLSZM zones, GLDM dependence counts and NGTDM neighborhood means, and
  the 13 axial+diagonal directions (antipodal offsets merged) for GLCM
  and GLRLM. All five families read one list of in-ROI voxel pairs
  (v, v + d) over the 13 half-offsets (every 26-neighbor pair once),
  built once per ``DiscretizedRoi``. GLRLM runs along d are the connected
  components of d's equal-level pairs, GLSZM zones those of all 13.
* Directional families compute features per direction and then take the
  arithmetic mean over directions, in the fixed ``DIRECTIONS_13`` order.
  A GLCM direction with no co-occurring pair is excluded from the mean;
  if every direction is empty the family raises ("no co-occurrences").
  GLRLM directions are never empty for a non-empty ROI.
* Matrices are accumulated as exact integer counts (stored in float64) so
  the conservation identities (run mass, zone mass and dependence mass
  equal the ROI voxel count) hold exactly; normalization happens inside
  the feature formulas.
* Matrix rows span levels 1..Ng where Ng is the maximum assigned level;
  absent intermediate levels are zero rows and contribute nothing.
* GLDM feature formulas use dependence size d = (neighbor count) + 1 so
  small-dependence emphasis stays finite for isolated voxels.
* Division-by-zero conventions on degenerate inputs (never NaN):
  GLCM correlation -> 1 and MCC -> 1 on a single-level direction, IMC1 -> 0
  when both marginal entropies vanish, IMC2 clamped at 0; NGTDM coarseness
  -> 1e6 sentinel when its denominator vanishes, busyness/strength -> 0,
  contrast -> 0 for a single present level.
"""

from __future__ import annotations

import numpy as np

from .discretize import DIRECTIONS_13, DiscretizedRoi

COARSENESS_SENTINEL = 1e6

GLCM_FEATURE_NAMES = (
    "glcm.autocorrelation", "glcm.joint_average", "glcm.cluster_prominence",
    "glcm.cluster_shade", "glcm.cluster_tendency", "glcm.contrast",
    "glcm.correlation", "glcm.difference_average", "glcm.difference_entropy",
    "glcm.difference_variance", "glcm.joint_energy", "glcm.joint_entropy",
    "glcm.imc1", "glcm.imc2", "glcm.idm", "glcm.idmn", "glcm.id", "glcm.idn",
    "glcm.inverse_variance", "glcm.maximum_probability", "glcm.sum_average",
    "glcm.sum_entropy", "glcm.sum_squares", "glcm.mcc",
)

GLRLM_FEATURE_NAMES = (
    "glrlm.short_run_emphasis", "glrlm.long_run_emphasis",
    "glrlm.gray_level_non_uniformity",
    "glrlm.gray_level_non_uniformity_normalized",
    "glrlm.run_length_non_uniformity",
    "glrlm.run_length_non_uniformity_normalized",
    "glrlm.run_percentage", "glrlm.gray_level_variance", "glrlm.run_variance",
    "glrlm.run_entropy", "glrlm.low_gray_level_run_emphasis",
    "glrlm.high_gray_level_run_emphasis",
    "glrlm.short_run_low_gray_level_emphasis",
    "glrlm.short_run_high_gray_level_emphasis",
    "glrlm.long_run_low_gray_level_emphasis",
    "glrlm.long_run_high_gray_level_emphasis",
)

GLSZM_FEATURE_NAMES = (
    "glszm.small_area_emphasis", "glszm.large_area_emphasis",
    "glszm.gray_level_non_uniformity",
    "glszm.gray_level_non_uniformity_normalized",
    "glszm.size_zone_non_uniformity",
    "glszm.size_zone_non_uniformity_normalized",
    "glszm.zone_percentage", "glszm.gray_level_variance", "glszm.zone_variance",
    "glszm.zone_entropy", "glszm.low_gray_level_zone_emphasis",
    "glszm.high_gray_level_zone_emphasis",
    "glszm.small_area_low_gray_level_emphasis",
    "glszm.small_area_high_gray_level_emphasis",
    "glszm.large_area_low_gray_level_emphasis",
    "glszm.large_area_high_gray_level_emphasis",
)

GLDM_FEATURE_NAMES = (
    "gldm.small_dependence_emphasis", "gldm.large_dependence_emphasis",
    "gldm.gray_level_non_uniformity", "gldm.dependence_non_uniformity",
    "gldm.dependence_non_uniformity_normalized", "gldm.gray_level_variance",
    "gldm.dependence_variance", "gldm.dependence_entropy",
    "gldm.low_gray_level_emphasis", "gldm.high_gray_level_emphasis",
    "gldm.small_dependence_low_gray_level_emphasis",
    "gldm.small_dependence_high_gray_level_emphasis",
    "gldm.large_dependence_low_gray_level_emphasis",
    "gldm.large_dependence_high_gray_level_emphasis",
)

NGTDM_FEATURE_NAMES = (
    "ngtdm.coarseness", "ngtdm.contrast", "ngtdm.busyness",
    "ngtdm.complexity", "ngtdm.strength",
)


class TextureError(ValueError):
    pass


def _all_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The per-direction neighbor pairs as two flat arrays."""
    a, b = zip(*pairs)
    return np.concatenate(a), np.concatenate(b)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _zone_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of n nodes joined by the edges (src, dst).

    Labelling runs without a per-node loop: each node starts with its own
    index as label. A round hooks every label root to the smallest label
    across its edges (so a label never grows and always names a node of its
    component), then jumps pointers until every node holds its root. Rounds
    repeat until no edge joins two labels; each node's label is then the
    smallest node of its component.
    """
    label = np.arange(n)
    while True:
        a, b = label[src], label[dst]
        joined = a != b
        if not joined.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[joined],
                      np.minimum(a, b)[joined])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def _size_matrix(levels: np.ndarray, labels: np.ndarray, ng: int,
                 width: int | None = None) -> np.ndarray:
    """Component count matrix (level x size) of ``_zone_labels`` output,
    as wide as the largest component unless ``width`` is given."""
    sizes = np.bincount(labels)
    roots = np.flatnonzero(sizes)
    if width is None:
        width = int(sizes.max())
    p = np.zeros((ng, width), dtype=np.float64)
    np.add.at(p, (levels[roots] - 1, sizes[roots] - 1), 1.0)
    return p


# ---------------------------------------------------------------------------
# GLCM

def glcm_matrices(disc: DiscretizedRoi) -> list[np.ndarray]:
    """Symmetrized co-occurrence count matrices, one per direction."""
    levels, pairs = disc.neighbor_pairs
    ng = disc.n_levels
    out = []
    for a, b in pairs:
        p = np.zeros((ng, ng), dtype=np.float64)
        np.add.at(p, (levels[a] - 1, levels[b] - 1), 1.0)
        out.append(p + p.T)
    return out


def glcm_features_single(counts: np.ndarray, ng: int) -> dict[str, float]:
    """The 24 GLCM features of one direction's count (or probability) matrix."""
    total = counts.sum()
    if total <= 0:
        raise TextureError("no co-occurrences")
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
    sum_idx = (i + j).astype(int) - 2
    diff_idx = np.abs(i - j).astype(int)
    np.add.at(p_sum, sum_idx.ravel(), p.ravel())
    np.add.at(p_diff, diff_idx.ravel(), p.ravel())

    hx = _entropy(px)
    hy = _entropy(py)
    hxy = _entropy(p.ravel())
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
        pxp = px[present]
        pyp = py[present]
        # Q[a, b] = sum_c sub[a, c] * sub[b, c] / (px[a] * py[c])
        q = (sub / pxp[:, None]) @ (sub / pyp[None, :]).T
        eig = np.sort(np.linalg.eigvals(q).real)[::-1]
        mcc = float(np.sqrt(max(0.0, eig[1])))

    return {
        "glcm.autocorrelation": autocorr,
        "glcm.joint_average": mu_x,
        "glcm.cluster_prominence": float(((i + j - mu_x - mu_y) ** 4 * p).sum()),
        "glcm.cluster_shade": float(((i + j - mu_x - mu_y) ** 3 * p).sum()),
        "glcm.cluster_tendency": float(((i + j - mu_x - mu_y) ** 2 * p).sum()),
        "glcm.contrast": float(((i - j) ** 2 * p).sum()),
        "glcm.correlation": float(correlation),
        "glcm.difference_average": diff_avg,
        "glcm.difference_entropy": _entropy(p_diff),
        "glcm.difference_variance": float(((kd - diff_avg) ** 2 * p_diff).sum()),
        "glcm.joint_energy": float((p ** 2).sum()),
        "glcm.joint_entropy": hxy,
        "glcm.imc1": float(imc1),
        "glcm.imc2": imc2,
        "glcm.idm": float((p_diff / (1.0 + kd ** 2)).sum()),
        "glcm.idmn": float((p_diff / (1.0 + kd ** 2 / ng ** 2)).sum()),
        "glcm.id": float((p_diff / (1.0 + kd)).sum()),
        "glcm.idn": float((p_diff / (1.0 + kd / ng)).sum()),
        "glcm.inverse_variance": float((p_diff[1:] / kd[1:] ** 2).sum()),
        "glcm.maximum_probability": float(p.max()),
        "glcm.sum_average": float((ks * p_sum).sum()),
        "glcm.sum_entropy": _entropy(p_sum),
        "glcm.sum_squares": float(((i - mu_x) ** 2 * p).sum()),
        "glcm.mcc": mcc,
    }


def glcm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """Per-direction GLCM features averaged over non-empty directions."""
    mats = glcm_matrices(disc)
    per_dir = [glcm_features_single(m, disc.n_levels) for m in mats
               if m.sum() > 0]
    if not per_dir:
        raise TextureError("no co-occurrences in any direction")
    return {name: float(np.mean([d[name] for d in per_dir]))
            for name in GLCM_FEATURE_NAMES}


# ---------------------------------------------------------------------------
# GLRLM

def glrlm_matrices(disc: DiscretizedRoi) -> list[np.ndarray]:
    """Run-length count matrices (level x run length), one per direction.

    A run along d is a connected component of d's equal-level neighbor
    pairs. Every matrix is max(dims) wide, which bounds any run.
    """
    levels, pairs = disc.neighbor_pairs
    width = max(disc.roi.dims)
    out = []
    for a, b in pairs:
        same = levels[a] == levels[b]
        labels = _zone_labels(levels.size, a[same], b[same])
        out.append(_size_matrix(levels, labels, disc.n_levels, width))
    return out


def _run_zone_values(p: np.ndarray, n_voxels: int) -> list[float]:
    """Shared GLRLM/GLSZM/GLDM formulas over a (level x size) count matrix.

    Returns the 16 values in the canonical order of GLRLM and GLSZM
    (emphasis pairs, non-uniformities, percentage, variances, entropy,
    gray-level emphases and the four joint emphases).
    """
    nr = p.sum()
    if nr <= 0:
        raise TextureError("empty run/zone matrix")
    ng, smax = p.shape
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    s = np.arange(1, smax + 1, dtype=np.float64)[None, :]
    pn = p / nr
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    mu_i = float((i * pn).sum())
    mu_s = float((s * pn).sum())
    return [
        float((p / s ** 2).sum() / nr),            # short/small emphasis
        float((p * s ** 2).sum() / nr),            # long/large emphasis
        float((row ** 2).sum() / nr),              # gray level non-uniformity
        float((row ** 2).sum() / nr ** 2),         # ... normalized
        float((col ** 2).sum() / nr),              # size non-uniformity
        float((col ** 2).sum() / nr ** 2),         # ... normalized
        float(nr / n_voxels),                      # run/zone percentage
        float(((i - mu_i) ** 2 * pn).sum()),       # gray level variance
        float(((s - mu_s) ** 2 * pn).sum()),       # size variance
        _entropy(pn.ravel()),                      # entropy
        float((p / i ** 2).sum() / nr),            # low gray level emphasis
        float((p * i ** 2).sum() / nr),            # high gray level emphasis
        float((p / (i ** 2 * s ** 2)).sum() / nr),
        float((p * i ** 2 / s ** 2).sum() / nr),
        float((p * s ** 2 / i ** 2).sum() / nr),
        float((p * i ** 2 * s ** 2).sum() / nr),
    ]


def glrlm_features_single(p: np.ndarray, n_voxels: int) -> dict[str, float]:
    """The 16 GLRLM features for one direction's run matrix."""
    return dict(zip(GLRLM_FEATURE_NAMES, _run_zone_values(p, n_voxels)))


def glrlm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """Per-direction GLRLM features averaged over the 13 directions."""
    n_vox = disc.roi.voxel_count
    per_dir = [glrlm_features_single(p, n_vox) for p in glrlm_matrices(disc)]
    return {name: float(np.mean([d[name] for d in per_dir]))
            for name in GLRLM_FEATURE_NAMES}


# ---------------------------------------------------------------------------
# GLSZM

def glszm_matrix(disc: DiscretizedRoi) -> np.ndarray:
    """Zone count matrix (level x zone size), zones 26-connected: the
    components of the equal-level pairs of all 13 directions."""
    levels, pairs = disc.neighbor_pairs
    src, dst = _all_pairs(pairs)
    same = levels[src] == levels[dst]
    src, dst = src[same], dst[same]     # frees the unfiltered pair arrays
    return _size_matrix(levels, _zone_labels(levels.size, src, dst),
                        disc.n_levels)


def glszm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """The 16 GLSZM features (single matrix, no directionality)."""
    p = glszm_matrix(disc)
    return dict(zip(GLSZM_FEATURE_NAMES,
                    _run_zone_values(p, disc.roi.voxel_count)))


# ---------------------------------------------------------------------------
# GLDM

def gldm_matrix(disc: DiscretizedRoi, alpha: float = 0.0) -> np.ndarray:
    """Dependence count matrix (level x dependence count 0..26).

    Each neighbor pair whose levels differ by at most ``alpha`` adds one to
    the dependence count of both its voxels.
    """
    levels, pairs = disc.neighbor_pairs
    a, b = _all_pairs(pairs)
    close = np.abs(levels[a] - levels[b]) <= alpha
    n = levels.size
    dep = np.bincount(a[close], minlength=n) + np.bincount(b[close], minlength=n)
    p = np.zeros((disc.n_levels, 27), dtype=np.float64)
    np.add.at(p, (levels - 1, dep), 1.0)
    return p


def gldm_features(disc: DiscretizedRoi, alpha: float = 0.0) -> dict[str, float]:
    """The 14 GLDM features: the run/zone formulas over the dependence matrix
    (size d = count + 1), less its entries 3 (GLN normalized) and 6
    (percentage)."""
    values = _run_zone_values(gldm_matrix(disc, alpha), disc.roi.voxel_count)
    del values[6], values[3]
    return dict(zip(GLDM_FEATURE_NAMES, values))


# ---------------------------------------------------------------------------
# NGTDM

def ngtdm_table(disc: DiscretizedRoi) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-level (n_i, s_i) over voxels with at least one in-ROI neighbor.

    Returns (n, s, n_participating) where n and s are indexed by level-1
    over 1..Ng, n_i counts participating voxels of level i and s_i sums
    |i - neighborhood mean| over them. Each neighbor pair adds to the
    neighbor sum and count of both its voxels.
    """
    levels, pairs = disc.neighbor_pairs
    a, b = _all_pairs(pairs)
    nv = levels.size
    neigh_cnt = np.bincount(a, minlength=nv) + np.bincount(b, minlength=nv)
    # integer levels, so these float sums are exact in any order
    neigh_sum = (np.bincount(a, weights=levels[b], minlength=nv)
                 + np.bincount(b, weights=levels[a], minlength=nv))
    part = neigh_cnt > 0
    ng = disc.n_levels
    n = np.zeros(ng, dtype=np.float64)
    s = np.zeros(ng, dtype=np.float64)
    lv = levels[part]
    diff = np.abs(lv - neigh_sum[part] / neigh_cnt[part])
    np.add.at(n, lv - 1, 1.0)
    np.add.at(s, lv - 1, diff)
    return n, s, int(part.sum())


def ngtdm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """Coarseness, contrast, busyness, complexity and strength."""
    n, s, nvp = ngtdm_table(disc)
    if nvp == 0:
        # isolated voxels only: no valid neighborhoods anywhere
        return {
            "ngtdm.coarseness": COARSENESS_SENTINEL,
            "ngtdm.contrast": 0.0,
            "ngtdm.busyness": 0.0,
            "ngtdm.complexity": 0.0,
            "ngtdm.strength": 0.0,
        }
    ng = n.size
    levels = np.arange(1, ng + 1, dtype=np.float64)
    p = n / nvp
    present = p > 0
    ngp = int(present.sum())

    ps_dot = float((p * s).sum())
    coarseness = 1.0 / ps_dot if ps_dot > 0 else COARSENESS_SENTINEL

    li = levels[present]
    pi = p[present]
    si = s[present]
    if ngp > 1:
        diff2 = (li[:, None] - li[None, :]) ** 2
        contrast = float((pi[:, None] * pi[None, :] * diff2).sum()
                         / (ngp * (ngp - 1)) * s.sum() / nvp)
        busy_den = float(np.abs(li[:, None] * pi[:, None]
                                - li[None, :] * pi[None, :]).sum())
        busyness = ps_dot / busy_den if busy_den > 0 else 0.0
        absdiff = np.abs(li[:, None] - li[None, :])
        pair_num = pi[:, None] * si[:, None] + pi[None, :] * si[None, :]
        pair_den = pi[:, None] + pi[None, :]
        complexity = float((absdiff * pair_num / pair_den).sum() / nvp)
        s_total = float(s.sum())
        strength = (float((pair_den * diff2).sum()) / s_total
                    if s_total > 0 else 0.0)
    else:
        contrast = 0.0
        busyness = 0.0
        complexity = 0.0
        strength = 0.0

    return {
        "ngtdm.coarseness": float(coarseness),
        "ngtdm.contrast": contrast,
        "ngtdm.busyness": float(busyness),
        "ngtdm.complexity": complexity,
        "ngtdm.strength": float(strength),
    }
