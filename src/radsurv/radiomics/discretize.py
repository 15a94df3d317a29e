"""Gray-level discretization of ROI intensities.

Two binning rules are supported:

* ``fixed_bin_width(w)``: level = floor((x - min) / w) + 1, anchored at the
  ROI minimum.
* ``fixed_bin_count(k)``: k equal-width bins over [min, max] with the
  maximum mapped to level k. A constant ROI degenerates to a single level
  (Ng = 1) regardless of k.

A non-finite intensity inside the ROI is rejected, naming the first such
voxel in index order.

Levels are stored as a 3D map over the ROI's box (``roi.box``: 0 outside
the ROI, 1..Ng inside). This module only bins; ``texture_counts`` keeps the
tables of the one walk over the neighbour pairs, ``texture.count_textures``,
made on first use: a DiscretizedRoi never changes, so they never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..volumeio import RoiMask, VoxelVolume
from .texture import TextureCounts, count_textures


class DiscretizationError(ValueError):
    pass


@dataclass(frozen=True)
class Binning:
    """Discretization rule: mode is 'fixed_bin_width' or 'fixed_bin_count'."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("fixed_bin_width", "fixed_bin_count"):
            raise DiscretizationError(f"unknown binning mode {self.mode!r}")
        if self.mode == "fixed_bin_width" and not self.value > 0:
            raise DiscretizationError(f"bin width must be > 0, got {self.value}")
        if self.mode == "fixed_bin_count" and (int(self.value) != self.value
                                               or self.value < 2):
            raise DiscretizationError(
                f"bin count must be an integer >= 2, got {self.value}")


@dataclass
class DiscretizedRoi:
    """Gray levels per ROI voxel."""

    level_map: np.ndarray    # int32 map of roi.box, 0 outside ROI, 1..Ng inside
    roi: RoiMask
    n_levels: int

    @cached_property
    def levels(self) -> np.ndarray:
        """Flat 1..Ng level array over ROI voxels (argwhere order)."""
        return self.level_map[self.roi.membership]

    @cached_property
    def texture_counts(self) -> TextureCounts:
        """Every texture family's count table, from one walk over the 13
        directions (``texture.count_textures``)."""
        if not self.levels.size:
            raise DiscretizationError("empty ROI")
        return count_textures(self)


def discretize(vol: VoxelVolume, roi: RoiMask, binning: Binning) -> DiscretizedRoi:
    """Discretize ROI intensities to integer gray levels 1..Ng."""
    member = roi.membership
    roi._check_shape("scan data", vol.stored)
    values = vol.region(roi.box)[member]
    if values.size == 0:
        raise DiscretizationError("empty ROI")
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite))
        index = tuple(int(i) for i in np.argwhere(member)[first] + roi.corner)
        raise DiscretizationError(
            f"non-finite ROI intensity {values[first]} at voxel {index}")
    vmin = float(values.min())
    vmax = float(values.max())

    if binning.mode == "fixed_bin_width":
        levels = np.floor((values - vmin) / binning.value).astype(np.int64) + 1
    else:
        k = int(binning.value)
        if vmax == vmin:
            levels = np.ones(values.shape, dtype=np.int64)
        else:
            width = (vmax - vmin) / k
            levels = np.minimum(
                np.floor((values - vmin) / width).astype(np.int64) + 1, k)

    level_map = np.zeros(member.shape, dtype=np.int32)
    level_map[member] = levels
    return DiscretizedRoi(
        level_map=level_map,
        roi=roi,
        n_levels=int(levels.max()),
    )
