"""Gray-level texture matrices and their feature families.

Conventions, fixed across the package and mirrored by the test oracles:

* Neighborhoods are infinity-norm distance 1: the 26-neighborhood for
  GLSZM zones, GLDM dependence counts and NGTDM neighborhood means, and
  the 13 axial+diagonal directions (antipodal offsets merged) for GLCM
  and GLRLM, ``DIRECTIONS_13``, which this module owns. One walk,
  ``count_textures``, made once per ``DiscretizedRoi``, numbers the ROI
  voxels and builds the in-ROI voxel pairs (v, v + d) over the 13
  half-offsets d (every 26-neighbor pair once), one direction at a time:
  it adds their GLCM counts, takes the equal-level pairs, walks their
  GLRLM runs from their starts, adds their GLDM dependence counts and
  runs one zone-labelling round on them; no other pair outlives its
  direction. After the walk, labelling finishes on the pairs whose voxels
  still hold two labels, so GLSZM zones are the components of all 13
  directions' equal-level pairs, and the GLCM and GLRLM tables are
  finished in place: each family only reads its table. Every count is an
  integer, so no table depends on the order of the pairs. NGTDM reads no
  pairs: its neighbor counts and level sums are 3x3x3 box sums over the
  level map.
* Directional families compute features per direction and then take the
  arithmetic mean over directions, in the fixed ``DIRECTIONS_13`` order.
  GLCM and GLRLM matrices come as one (13, Ng, .) stack; each formula runs
  once over a stack and reduces every matrix as it would reduce it alone.
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

Each ``*_FEATURE_NAMES`` tuple is the one declaration of its family's column
names and order; every family returns its values through its tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .discretize import DiscretizedRoi

# The 13 canonical direction offsets: the lexicographically positive half
# of the 26-neighborhood (first nonzero component positive).
DIRECTIONS_13 = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
)

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


def _neg_plog2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row of two (k, n) arrays, -sum(p * log2(q)) over the row's entries
    with p > 0; each row is one reduction over just those entries (with
    q = p, the row's entropy)."""
    m = p > 0
    t = p[m] * np.log2(q[m])
    ends = np.cumsum(m.sum(axis=1)).tolist()
    return -np.array([np.add.reduce(t[a:b]) for a, b in zip([0] + ends, ends)])


def _total(x: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the sum of all its entries as one reduction."""
    return x.reshape(x.shape[0], -1).sum(axis=1)


def _direction_means(values: np.ndarray, names) -> dict[str, float]:
    """Column means of a (directions x features) table, by feature name.

    Each column is copied contiguous first, so its sum adds in the order
    ``np.mean`` of that column alone would use."""
    means = np.ascontiguousarray(values.T).mean(axis=1)
    return dict(zip(names, means.tolist()))


def _counts(cells: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Exact float64 count matrix of ``shape`` from flat cell indices."""
    return np.bincount(cells, minlength=int(np.prod(shape))).reshape(
        shape).astype(np.float64)


def _hook(label: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """One labelling round over the edges (src, dst) of a flat label forest:
    returns (label, src, dst) with the edges whose ends still hold two
    labels.

    In a flat forest each node holds a root, a node of its component that
    holds itself; at first, each node holds its own index. The round hooks
    every root at an edge's ends to the smallest root across its edges, so
    a label never grows and always names a node of its component. It then
    jumps the hooked roots to their new roots, and every node to its root.
    Edges whose ends now hold one label hold one label for good. Rounds
    repeated until no edge is left give each node the smallest node of its
    component, whatever edges each round was given.
    """
    a, b = label[src], label[dst]
    apart = np.flatnonzero(a != b)
    src, dst, a, b = src[apart], dst[apart], a[apart], b[apart]
    hi = np.maximum(a, b)
    np.minimum.at(label, hi, np.minimum(a, b))
    # only hooked roots hold a label that is not a root
    up = label[hi]
    while ((jumped := label[up]) != up).any():
        label[hi] = up = jumped
    label = label[label]
    apart = np.flatnonzero(label[src] != label[dst])
    return label, src[apart], dst[apart]


@dataclass(frozen=True)
class TextureCounts:
    """The count tables of every texture family of one ``DiscretizedRoi``,
    read-only: what one walk over ``DIRECTIONS_13`` keeps."""

    glcm: np.ndarray        # (13, Ng, Ng) symmetrized pair counts along d
    runs: np.ndarray        # (13, Ng, W) runs of level i along d, k + 1 long
    gldm: np.ndarray        # (Ng, 27) voxels by equal-level neighbor count
    zones: tuple            # (level - 1, size - 1) of every zone


def count_textures(disc: DiscretizedRoi) -> TextureCounts:
    """Every family's count table from one walk over ``DIRECTIONS_13``
    (``DiscretizedRoi.texture_counts`` keeps it); see the module docstring.

    A run along d is a chain of d's equal-level pairs: b = a + d, and d's
    flat stride is positive, so each voxel has at most one successor and
    one predecessor along d, and no chain closes on itself. A run of two or
    more voxels starts at an a that is never a b. All of d's runs are walked
    together, one voxel per step, and the voxels reached at each step are
    counted by level. W = max(dims), which bounds any run.
    """
    levels = disc.levels
    nv, ng, width = levels.size, disc.n_levels, max(disc.roi.dims)
    lv = levels.astype(np.int64) - 1
    glcm = np.empty((len(DIRECTIONS_13), ng, ng))
    longer = np.zeros((len(DIRECTIONS_13), ng, width))
    dep = np.zeros(nv, dtype=np.int64)
    # two run buffers serve every direction: each is reset after its use
    succ = np.full(nv, -1)
    linked = np.zeros(nv, dtype=bool)
    label, left = np.arange(nv), []
    # voxels numbered in levels order; the pad makes each d one flat shift
    padded = np.pad(disc.level_map, 1)
    pos = np.flatnonzero(padded.ravel())
    number = np.full(padded.size, -1, dtype=np.int64)
    number[pos] = np.arange(pos.size)
    strides = np.array([padded.shape[1] * padded.shape[2], padded.shape[2], 1])
    del padded
    for d, shift in enumerate((np.array(DIRECTIONS_13) @ strides).tolist()):
        b = number[pos + shift]
        a = np.flatnonzero(b >= 0)
        b = b[a]
        la, lb = lv[a], lv[b]
        cells = la * ng
        cells += lb
        glcm[d] = np.bincount(cells, minlength=ng * ng).reshape(ng, ng)
        # flatnonzero and two takes: a boolean index is several times
        # slower on a mask this irregular
        same = np.flatnonzero(la == lb)
        del la, lb, cells
        a, b = a[same], b[same]
        del same
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
    # each run's first voxel is one that no step reaches
    longer[:, :, 0] = np.bincount(lv, minlength=ng) - longer.sum(axis=2)
    # a run of k + 1 voxels has more than k but not more than k + 1; numpy
    # buffers overlapping operands, and integer counts subtract exactly
    longer[:, :, :-1] -= longer[:, :, 1:]
    glcm += glcm.transpose(0, 2, 1)
    src, dst = (np.concatenate(ends) for ends in zip(*left))
    del left
    while src.size:
        label, src, dst = _hook(label, src, dst)

    # each zone is labelled by one of its voxels
    sizes = np.bincount(label)
    roots = np.flatnonzero(sizes)
    tables = (glcm, longer, _counts(lv * 27 + dep, (ng, 27)),
              lv[roots], sizes[roots] - 1)
    for table in tables:
        table.flags.writeable = False
    return TextureCounts(*tables[:3], zones=tables[3:])


# ---------------------------------------------------------------------------
# GLCM

def glcm_matrices(disc: DiscretizedRoi) -> np.ndarray:
    """Symmetrized co-occurrence counts as a (13, Ng, Ng) stack, one matrix
    per direction in ``DIRECTIONS_13`` order."""
    return disc.texture_counts.glcm


def _glcm_values(counts: np.ndarray, ng: int) -> np.ndarray:
    """The 24 GLCM features (``GLCM_FEATURE_NAMES`` order) of every matrix of
    a (k, Ng, Ng) count (or probability) stack, as a (k, 24) array.

    Each formula runs once over the stack, with every matrix reduced exactly
    as it would be alone, so each row carries the bits of a one-matrix
    evaluation.
    """
    total = _total(counts)
    if not (total > 0).all():
        raise TextureError("no co-occurrences")
    k = counts.shape[0]
    p = counts / total[:, None, None]
    levels = np.arange(1, ng + 1, dtype=np.float64)
    i = levels[:, None]
    j = levels[None, :]
    px = p.sum(axis=2)
    py = p.sum(axis=1)
    mu_x = (levels * px).sum(axis=1)
    mu_y = (levels * py).sum(axis=1)
    sig_x2 = ((levels - mu_x[:, None]) ** 2 * px).sum(axis=1)
    sig_y2 = ((levels - mu_y[:, None]) ** 2 * py).sum(axis=1)

    ks = np.arange(2, 2 * ng + 1, dtype=np.float64)
    kd = np.arange(0, ng, dtype=np.float64)
    # bincount adds each matrix's entries in C order, like np.add.at
    base = np.arange(k)[:, None]
    sum_level = (i + j).astype(int) - 2
    sum_idx = (base * ks.size + sum_level.ravel()).ravel()
    diff_idx = (base * kd.size + np.abs(i - j).astype(int).ravel()).ravel()
    p_sum = np.bincount(sum_idx, p.ravel(), k * ks.size).reshape(k, -1)
    p_diff = np.bincount(diff_idx, p.ravel(), k * kd.size).reshape(k, -1)

    flat = p.reshape(k, -1)
    outer = (px[:, :, None] * py[:, None, :]).reshape(k, -1)
    hx = _neg_plog2(px, px)
    hy = _neg_plog2(py, py)
    hxy = _neg_plog2(flat, flat)
    hxy1 = _neg_plog2(flat, outer)
    hxy2 = _neg_plog2(outer, outer)

    autocorr = _total(i * j * p)
    spread = (sig_x2 > 0) & (sig_y2 > 0)
    correlation = np.where(spread, (autocorr - mu_x * mu_y)
                           / np.sqrt(np.where(spread, sig_x2 * sig_y2, 1.0)),
                           1.0)

    hmax = np.maximum(hx, hy)
    imc1 = np.where(hmax > 0, (hxy - hxy1) / np.where(hmax > 0, hmax, 1.0), 0.0)
    imc2 = np.sqrt(np.maximum(0.0, 1.0 - np.exp(-2.0 * (hxy2 - hxy))))

    diff_avg = (kd * p_diff).sum(axis=1)

    # MCC = 1 on a single-level direction; otherwise one batched eigvals per
    # group of directions with the same present levels
    mcc = np.ones(k)
    groups = {}
    for d, row in enumerate(px > 0):
        groups.setdefault(row.tobytes(), []).append(d)
    for ds in groups.values():
        present = np.flatnonzero(px[ds[0]] > 0)
        if present.size <= 1:
            continue
        # C-ordered slices, as alone: BLAS gives F-ordered ones other q bits
        sub = p[np.ix_(ds, present, present)]
        pxp = px[np.ix_(ds, present)]
        pyp = py[np.ix_(ds, present)]
        # Q[a, b] = sum_c sub[a, c] * sub[b, c] / (px[a] * py[c])
        q = (sub / pxp[:, :, None]) @ (sub / pyp[:, None, :]).transpose(0, 2, 1)
        eig = np.sort(np.linalg.eigvals(q).real, axis=1)
        mcc[ds] = np.sqrt(np.maximum(0.0, eig[:, -2]))

    # i + j - mu_x - mu_y takes 2Ng - 1 values per matrix, one per sum
    # level: raise those once and gather them by each cell's sum level. The
    # shifts are the same doubles, so every cell's power keeps its bits, and
    # the powers skip numpy's slow path for negative bases on Ng^2 cells.
    shift = ks - mu_x[:, None] - mu_y[:, None]
    return np.stack([
        autocorr,
        mu_x,
        _total((shift ** 4)[:, sum_level] * p),
        _total((shift ** 3)[:, sum_level] * p),
        _total((shift ** 2)[:, sum_level] * p),
        _total((i - j) ** 2 * p),
        correlation,
        diff_avg,
        _neg_plog2(p_diff, p_diff),
        ((kd - diff_avg[:, None]) ** 2 * p_diff).sum(axis=1),
        _total(p ** 2),
        hxy,
        imc1,
        imc2,
        (p_diff / (1.0 + kd ** 2)).sum(axis=1),
        (p_diff / (1.0 + kd ** 2 / ng ** 2)).sum(axis=1),
        (p_diff / (1.0 + kd)).sum(axis=1),
        (p_diff / (1.0 + kd / ng)).sum(axis=1),
        (p_diff[:, 1:] / kd[1:] ** 2).sum(axis=1),
        flat.max(axis=1),
        (ks * p_sum).sum(axis=1),
        _neg_plog2(p_sum, p_sum),
        _total((i - mu_x[:, None, None]) ** 2 * p),
        mcc,
    ], axis=1)


def glcm_features_single(counts: np.ndarray, ng: int) -> dict[str, float]:
    """The 24 GLCM features of one direction's count (or probability) matrix."""
    values = _glcm_values(counts[None], ng)[0]
    return dict(zip(GLCM_FEATURE_NAMES, values.tolist()))


def glcm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """Per-direction GLCM features averaged over non-empty directions."""
    mats = glcm_matrices(disc)
    mats = mats[_total(mats) > 0]
    if not mats.size:
        raise TextureError("no co-occurrences in any direction")
    return _direction_means(_glcm_values(mats, disc.n_levels),
                            GLCM_FEATURE_NAMES)


# ---------------------------------------------------------------------------
# GLRLM

def glrlm_matrices(disc: DiscretizedRoi) -> np.ndarray:
    """Run-length counts (level x run length) as a (13, Ng, W) stack, one
    matrix per direction in ``DIRECTIONS_13`` order."""
    return disc.texture_counts.runs


def _run_zone_values(p: np.ndarray, n_voxels: int) -> np.ndarray:
    """Shared GLRLM/GLSZM/GLDM formulas over a (k, Ng, S) stack of
    (level x size) count matrices, as a (k, 16) array.

    The 16 values come in the canonical order of GLRLM and GLSZM (emphasis
    pairs, non-uniformities, percentage, variances, entropy, gray-level
    emphases and the four joint emphases). Each row carries the bits of a
    one-matrix evaluation. Every cellwise term is formed in ``cell``, one
    buffer of the stack's shape reused term after term, with the operations
    of the plain expression (``div(mul(p, i2), s2)`` for ``p * i**2 / s**2``;
    a product's operands may swap sides), so each cell keeps its bits.
    """
    nr = _total(p)
    if not (nr > 0).all():
        raise TextureError("empty run/zone matrix")
    k, ng, smax = p.shape
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    s = np.arange(1, smax + 1, dtype=np.float64)[None, :]
    i2, s2 = i ** 2, s ** 2
    row = p.sum(axis=2)
    col = p.sum(axis=1)
    cell = np.empty_like(p)
    mul, div = partial(np.multiply, out=cell), partial(np.divide, out=cell)
    nr3 = nr[:, None, None]
    mu_i = _total(mul(div(p, nr3), i))[:, None, None]
    mu_s = _total(mul(div(p, nr3), s))[:, None, None]
    pn = div(p, nr3).reshape(k, -1)
    entropy = _neg_plog2(pn, pn)
    values = [
        _total(div(p, s2)) / nr,                   # short/small emphasis
        _total(mul(p, s2)) / nr,                   # long/large emphasis
        (row ** 2).sum(axis=1) / nr,               # gray level non-uniformity
        (row ** 2).sum(axis=1) / nr ** 2,          # ... normalized
        (col ** 2).sum(axis=1) / nr,               # size non-uniformity
        (col ** 2).sum(axis=1) / nr ** 2,          # ... normalized
        nr / n_voxels,                             # run/zone percentage
        _total(mul(div(p, nr3), (i - mu_i) ** 2)),  # gray level variance
        _total(mul(div(p, nr3), (s - mu_s) ** 2)),  # size variance
        entropy,
        _total(div(p, i2)) / nr,                   # low gray level emphasis
        _total(mul(p, i2)) / nr,                   # high gray level emphasis
        _total(div(p, mul(i2, s2))) / nr,
        _total(div(mul(p, i2), s2)) / nr,
        _total(div(mul(p, s2), i2)) / nr,
        _total(mul(mul(p, i2), s2)) / nr,
    ]
    return np.stack(values, axis=1)


def glrlm_features_single(p: np.ndarray, n_voxels: int) -> dict[str, float]:
    """The 16 GLRLM features for one direction's run matrix."""
    return dict(zip(GLRLM_FEATURE_NAMES,
                    _run_zone_values(p[None], n_voxels)[0].tolist()))


def glrlm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """Per-direction GLRLM features averaged over the 13 directions."""
    return _direction_means(
        _run_zone_values(glrlm_matrices(disc), disc.roi.voxel_count),
        GLRLM_FEATURE_NAMES)


# ---------------------------------------------------------------------------
# GLSZM

def glszm_matrix(disc: DiscretizedRoi) -> np.ndarray:
    """Zone count matrix (level x zone size), zones 26-connected: the
    components of the equal-level pairs of all 13 directions."""
    lv, size = disc.texture_counts.zones
    width = int(size.max()) + 1
    return _counts(lv * width + size, (disc.n_levels, width))


def glszm_features(disc: DiscretizedRoi) -> dict[str, float]:
    """The 16 GLSZM features (single matrix, no directionality)."""
    p = glszm_matrix(disc)[None]
    return dict(zip(GLSZM_FEATURE_NAMES,
                    _run_zone_values(p, disc.roi.voxel_count)[0].tolist()))


# ---------------------------------------------------------------------------
# GLDM

def gldm_matrix(disc: DiscretizedRoi) -> np.ndarray:
    """Dependence count matrix (level x dependence count 0..26): each
    voxel by the number of its 26 neighbors at its level."""
    return disc.texture_counts.gldm


def gldm_features(disc: DiscretizedRoi, alpha: float = 0.0) -> dict[str, float]:
    """The 14 GLDM features: the run/zone formulas over the dependence matrix
    (size d = count + 1), less its entries 3 (GLN normalized) and 6
    (percentage). Every ``alpha`` in [0, 1) counts the equal-level neighbors,
    and callers pass ``RadiomicsConfig.gldm_alpha``; any other alpha raises."""
    if not 0 <= alpha < 1:
        raise TextureError(f"GLDM alpha must be in [0, 1), got {alpha!r}")
    values = _run_zone_values(gldm_matrix(disc)[None],
                              disc.roi.voxel_count)[0].tolist()
    del values[6], values[3]
    return dict(zip(GLDM_FEATURE_NAMES, values))


# ---------------------------------------------------------------------------
# NGTDM

def ngtdm_table(disc: DiscretizedRoi) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-level (n_i, s_i) over voxels with at least one in-ROI neighbor.

    Returns (n, s, n_participating) where n and s are indexed by level-1
    over 1..Ng, n_i counts participating voxels of level i and s_i sums
    |i - neighborhood mean| over them. A voxel's in-ROI neighbor count and
    neighbor level sum are 3x3x3 box sums over the padded level map, less
    the voxel itself: sums of integers, so exact.
    """
    levels = disc.levels
    padded = np.pad(disc.level_map, 1)
    sums = []
    for grid in ((padded > 0).astype(np.int32), padded):
        grid = grid[:-2] + grid[1:-1] + grid[2:]
        grid = grid[:, :-2] + grid[:, 1:-1] + grid[:, 2:]
        grid = grid[:, :, :-2] + grid[:, :, 1:-1] + grid[:, :, 2:]
        sums.append(grid[disc.roi.membership])
    neigh_cnt, neigh_sum = sums[0] - 1, sums[1] - levels
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
    # isolated voxels only (nvp == 0): no valid neighborhoods anywhere
    coarseness = COARSENESS_SENTINEL
    contrast = busyness = complexity = strength = 0.0
    if nvp:
        ng = n.size
        levels = np.arange(1, ng + 1, dtype=np.float64)
        p = n / nvp
        present = p > 0
        ngp = int(present.sum())

        ps_dot = float((p * s).sum())
        if ps_dot > 0:
            coarseness = 1.0 / ps_dot

        li = levels[present]
        pi = p[present]
        si = s[present]
        if ngp > 1:
            diff2 = (li[:, None] - li[None, :]) ** 2
            contrast = float((pi[:, None] * pi[None, :] * diff2).sum()
                             / (ngp * (ngp - 1)) * s.sum() / nvp)
            busy_den = float(np.abs(li[:, None] * pi[:, None]
                                    - li[None, :] * pi[None, :]).sum())
            if busy_den > 0:
                busyness = ps_dot / busy_den
            absdiff = np.abs(li[:, None] - li[None, :])
            pair_num = pi[:, None] * si[:, None] + pi[None, :] * si[None, :]
            pair_den = pi[:, None] + pi[None, :]
            complexity = float((absdiff * pair_num / pair_den).sum() / nvp)
            s_total = float(s.sum())
            if s_total > 0:
                strength = float((pair_den * diff2).sum()) / s_total

    return dict(zip(NGTDM_FEATURE_NAMES, (
        float(coarseness), contrast, float(busyness), complexity,
        float(strength))))
