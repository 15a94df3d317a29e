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
        float(x.min()), p10, p90, float(x.max()),
        mean, float(np.median(x)), p75 - p25, float(x.max() - x.min()),
        float(np.mean(np.abs(dev))), rmad, float(np.sqrt(np.mean(x ** 2))),
        skewness, kurtosis, m2, uniformity)))
