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
builders. Two pair lists are built once each, on first use, and shared by
the texture families; a DiscretizedRoi never changes, so a caller may
``del`` a list that no later family reads, and a later read rebuilds the
same arrays:

* ``neighbor_pairs``: every pair of ROI voxels that one of the 13
  half-offsets joins (GLCM, NGTDM, and GLDM for alpha < 0 or alpha >= 1);
* ``equal_pairs``: the subset whose two voxels share a level, in the same
  order and grouped by direction the same way (GLRLM runs, GLSZM zones,
  and GLDM for 0 <= alpha < 1, where integer levels make |i - j| <= alpha
  mean i = j).
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
    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """ROI levels and the pairs of ROI voxels that the 13 directions join.

        Returns (levels, a, b, pairs). ``levels`` is ``self.levels``: the level
        of every ROI voxel in C order. ``a`` and ``b`` are flat int64 index
        arrays into it, grouped by direction in ``DIRECTIONS_13`` order;
        ``pairs[k]`` is the (a, b) group of direction k, as views, with voxel
        b = voxel a + DIRECTIONS_13[k]. Each direction's joined pairs are
        counted first, so ``a`` and ``b`` are filled one direction at a time
        and no temporary spans all 13 directions.
        """
        # the one-voxel pad keeps every neighbor index inside the array and
        # makes each direction one positive flat shift
        padded = np.pad(self.level_map, 1)
        inside = padded.ravel() > 0
        pos = np.flatnonzero(inside)
        if pos.size == 0:
            raise DiscretizationError("empty ROI")
        number = np.full(inside.size, -1, dtype=np.int64)
        number[pos] = np.arange(pos.size)
        strides = np.array([padded.shape[1] * padded.shape[2], padded.shape[2], 1])
        shifts = (np.array(DIRECTIONS_13) @ strides).tolist()
        ends = np.cumsum([np.count_nonzero(inside[:-s] & inside[s:])
                          for s in shifts])
        a = np.empty(ends[-1], dtype=np.int64)
        b = np.empty(ends[-1], dtype=np.int64)
        pairs, start = [], 0
        for s, end in zip(shifts, ends.tolist()):
            neighbor = number[pos + s]
            joined = np.flatnonzero(neighbor >= 0)
            pa, pb = a[start:end], b[start:end]
            pa[:] = joined
            np.take(neighbor, joined, out=pb)
            pairs.append((pa, pb))
            start = end
        return self.levels, a, b, pairs

    @cached_property
    def equal_pairs(self) -> tuple[np.ndarray, np.ndarray, list]:
        """The neighbor pairs whose two voxels share a level.

        Returns (a, b, pairs): ``neighbor_pairs``' a and b with only those
        pairs kept, in the same order, and ``pairs[k]`` as direction k's
        (a, b) group, as views. Each direction is compared into one flag
        array over all pairs; its kept pairs are then taken into the
        preallocated outputs.
        """
        levels, a, _, pairs = self.neighbor_pairs
        same = np.empty(a.size, dtype=bool)
        flags, start = [], 0
        for pa, pb in pairs:
            flag = same[start:start + pa.size]
            np.equal(levels[pa], levels[pb], out=flag)
            flags.append(flag)
            start += pa.size
        ends = np.cumsum([np.count_nonzero(flag) for flag in flags])
        a = np.empty(ends[-1], dtype=np.int64)
        b = np.empty(ends[-1], dtype=np.int64)
        kept_pairs, start = [], 0
        for (pa, pb), flag, end in zip(pairs, flags, ends.tolist()):
            # flatnonzero and two takes: a boolean index is several times
            # slower on a mask this irregular
            kept = np.flatnonzero(flag)
            ka, kb = a[start:end], b[start:end]
            np.take(pa, kept, out=ka)
            np.take(pb, kept, out=kb)
            kept_pairs.append((ka, kb))
            start = end
        return a, b, kept_pairs


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
