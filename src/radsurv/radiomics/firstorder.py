"""First-order intensity statistics over an ROI.

All statistics are computed on raw intensities except entropy and
uniformity, which use the discretized-histogram probabilities. Moments use
the population convention (divide by N); kurtosis is not excess-corrected.
Percentiles interpolate linearly between closest ranks. Degenerate
conventions for a constant ROI: variance 0, skewness 0, kurtosis 0,
entropy 0, uniformity 1 (no NaN ever leaves this module).

``FIRSTORDER_FEATURE_NAMES`` is the one declaration of the family's column
names and order; ``first_order_features`` returns its values through it.
"""

from __future__ import annotations

import numpy as np

from ..volumeio import RoiMask, VoxelVolume
from .discretize import DiscretizedRoi

FIRSTORDER_FEATURE_NAMES = (
    "firstorder.energy",
    "firstorder.total_energy",
    "firstorder.entropy",
    "firstorder.minimum",
    "firstorder.percentile_10",
    "firstorder.percentile_90",
    "firstorder.maximum",
    "firstorder.mean",
    "firstorder.median",
    "firstorder.interquartile_range",
    "firstorder.range",
    "firstorder.mean_absolute_deviation",
    "firstorder.robust_mean_absolute_deviation",
    "firstorder.root_mean_squared",
    "firstorder.skewness",
    "firstorder.kurtosis",
    "firstorder.variance",
    "firstorder.uniformity",
)


def first_order_features(vol: VoxelVolume, roi: RoiMask,
                         disc: DiscretizedRoi) -> dict[str, float]:
    """The 18 first-order features, keyed by canonical name."""
    x = vol.region(roi.box)[roi.membership]
    if x.size == 0:
        raise ValueError("empty ROI")
    n = x.size

    mean = float(x.mean())
    dev = x - mean
    m2 = float(np.mean(dev ** 2))
    lo, hi = float(x.min()), float(x.max())
    if (vol.stored.dtype.kind in "iu" and vol.scaling is None
            and hi - lo < n):
        # integer samples spanning fewer values than voxels: each power is
        # taken once per value and gathered, the same doubles summed in the
        # same order as ``dev ** 3`` and ``dev ** 4``
        per_value = np.arange(lo, hi + 1) - mean
        at = (x - lo).astype(np.intp)
        m3 = float(np.mean((per_value ** 3)[at]))
        m4 = float(np.mean((per_value ** 4)[at]))
    else:
        m3 = float(np.mean(dev ** 3))
        m4 = float(np.mean(dev ** 4))
    skewness = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    kurtosis = m4 / m2 ** 2 if m2 > 0 else 0.0

    p10, p25, p75, p90 = (float(np.percentile(x, q)) for q in (10, 25, 75, 90))
    band = x[(x >= p10) & (x <= p90)]
    rmad = float(np.mean(np.abs(band - band.mean()))) if band.size else 0.0

    counts = np.bincount(disc.levels, minlength=disc.n_levels + 1)[1:]
    p = counts[counts > 0] / n
    entropy = float(-(p * np.log2(p)).sum())
    uniformity = float((p ** 2).sum())

    energy = float((x ** 2).sum())
    return dict(zip(FIRSTORDER_FEATURE_NAMES, (
        energy, energy * roi.voxel_volume_mm3, entropy,
        lo, p10, p90, hi, mean, float(np.median(x)), p75 - p25, hi - lo,
        float(np.mean(np.abs(dev))), rmad, float(np.sqrt(np.mean(x ** 2))),
        skewness, kurtosis, m2, uniformity)))
