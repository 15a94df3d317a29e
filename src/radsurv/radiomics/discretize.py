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
the ROI, 1..Ng inside), which is the natural shape for the texture-matrix
builders. ``direction_pairs`` yields the in-ROI voxel pairs (v, v + d) of
one direction d of ``DIRECTIONS_13`` at a time, so no pair array spans all
13 directions; ``texture.count_textures`` alone reads them. Its one walk
leaves every texture family's table finished in ``texture_counts``, made
once, on first use; a DiscretizedRoi never changes, so it never goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..volumeio import RoiMask, VoxelVolume

# The 13 canonical direction offsets: the lexicographically positive half
# of the 26-neighborhood (first nonzero component positive).
DIRECTIONS_13 = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
)


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


def _joined(neighbor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, neighbor[a]) over the a whose neighbor is in the ROI (>= 0)."""
    a = np.flatnonzero(neighbor >= 0)
    return a, neighbor[a]


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

    def direction_pairs(self):
        """For each direction d of ``DIRECTIONS_13`` in order, the pairs of
        ROI voxels that d joins, as int64 index arrays (a, b) into ``levels``
        with voxel b = voxel a + d and a ascending."""
        # the one-voxel pad keeps every neighbor index inside the array and
        # makes each direction one positive flat shift
        padded = np.pad(self.level_map, 1)
        pos = np.flatnonzero(padded.ravel())
        if pos.size == 0:
            raise DiscretizationError("empty ROI")
        number = np.full(padded.size, -1, dtype=np.int64)
        number[pos] = np.arange(pos.size)
        strides = np.array([padded.shape[1] * padded.shape[2], padded.shape[2], 1])
        for s in (np.array(DIRECTIONS_13) @ strides).tolist():
            # no local holds a direction's arrays while its pairs are read
            yield _joined(number[pos + s])

    @cached_property
    def texture_counts(self):
        """Every texture family's count table, from one walk over the 13
        directions (``texture.count_textures``)."""
        from .texture import count_textures     # texture imports this module
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
