"""Image-based features computed directly from segmentation masks.

Seven features feed the small-feature-set prognosis models: physical volume
and exposed-face surface area of the three nested ROIs (WT, TC, ET) plus
subject age. Surface area counts exposed voxel faces over the 6-neighborhood
(faces on the grid boundary count as exposed); it is deliberately the
simplest dependency-free definition and is distinct from the mesh-based
surface in the radiomics shape family.

Mask summaries add per-label amounts, the WT bounding-box extent and the
WT / necrosis centroids. Extent is count-based: a 1-voxel-thick region has
extent equal to one spacing step, not zero. Centroids are means of member
voxel centers, where voxel (i, j, k) has center ``origin + index * spacing``;
each axis's mean is its exact integer index sum (from the member counts of
a projection of the region) divided once by the count. An empty label set
yields a missing centroid (None), never a fake zero.

Every region comes from ``volumeio.derive_roi``; which labels make up a
region is decided there and nowhere else, as the crop of the box of the
mask's labelled voxels, one comparison per label. WT is all of them, so
its crop is the extent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .volumeio import LabelMask, RoiMask, SubjectRecord, derive_roi

IMAGE_FEATURE_NAMES = (
    "img.vol_wt", "img.vol_tc", "img.vol_et",
    "img.surf_wt", "img.surf_tc", "img.surf_et",
    "meta.age",
)

MASK_SUMMARY_NAMES = (
    "mask.amount_necrotic", "mask.amount_edema", "mask.amount_enhancing",
    "mask.extent_x", "mask.extent_y", "mask.extent_z",
    "mask.centroid_wt_x", "mask.centroid_wt_y", "mask.centroid_wt_z",
    "mask.centroid_necrosis_x", "mask.centroid_necrosis_y", "mask.centroid_necrosis_z",
)


@dataclass
class ImageFeatures:
    vol_wt: float
    vol_tc: float
    vol_et: float
    surf_wt: float
    surf_tc: float
    surf_et: float
    age: float

    def __post_init__(self):
        if not (self.vol_wt >= self.vol_tc >= self.vol_et >= 0):
            raise ValueError(
                f"ROI nesting violated: vol_wt={self.vol_wt}, "
                f"vol_tc={self.vol_tc}, vol_et={self.vol_et}")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])


@dataclass
class MaskSummary:
    amount_necrotic: float
    amount_edema: float
    amount_enhancing: float
    extent: tuple[float, float, float]
    centroid_wt: Optional[tuple[float, float, float]]
    centroid_necrosis: Optional[tuple[float, float, float]]

    def as_vector(self) -> np.ndarray:
        """Flatten to the MASK_SUMMARY_NAMES order; missing centroids -> NaN."""
        cw = self.centroid_wt or (np.nan, np.nan, np.nan)
        cn = self.centroid_necrosis or (np.nan, np.nan, np.nan)
        return np.array([self.amount_necrotic, self.amount_edema,
                         self.amount_enhancing, *self.extent, *cw, *cn])


def roi_volume(roi: RoiMask) -> float:
    """Physical ROI volume in mm^3 (voxel count times spacing product)."""
    return roi.voxel_count * roi.voxel_volume_mm3


def roi_surface_area_facecount(roi: RoiMask) -> float:
    """Exposed-face surface area in mm^2 over the 6-neighborhood."""
    m = roi.membership
    sx, sy, sz = roi.spacing
    face_area = (sy * sz, sx * sz, sx * sy)
    total = 0.0
    for axis in range(3):
        # neighbor membership along +axis / -axis; grid boundary is exposed
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        shared = m[tuple(sl_lo)] & m[tuple(sl_hi)]
        exposed = 2 * roi.voxel_count - 2 * int(np.count_nonzero(shared))
        total += exposed * face_area[axis]
    return total


def _centroid(roi: RoiMask):
    """Mean member voxel center, or None for an empty region.

    Each axis's index sum is exact: the member count at each index (a
    projection of the box) times the index. One division rounds it, as
    ``np.mean`` of the indices rounds their exact float64 sum while it stays
    below 2**53."""
    n = roi.voxel_count
    if n == 0:
        return None
    centroid = []
    for a in range(3):
        counts = np.count_nonzero(roi.membership,
                                  axis=tuple(b for b in range(3) if b != a))
        total = int(counts @ (np.arange(counts.size) + roi.corner[a]))
        centroid.append(total / n * roi.spacing[a] + roi.origin[a])
    return tuple(centroid)


def extract_image_features(mask: LabelMask, subject: SubjectRecord) -> ImageFeatures:
    """The seven image-based features, in the IMAGE_FEATURE_NAMES order."""
    vols = {}
    surfs = {}
    for kind in ("WT", "TC", "ET"):
        roi = derive_roi(mask, kind)
        vols[kind] = roi_volume(roi)
        surfs[kind] = roi_surface_area_facecount(roi)
    return ImageFeatures(
        vol_wt=vols["WT"], vol_tc=vols["TC"], vol_et=vols["ET"],
        surf_wt=surfs["WT"], surf_tc=surfs["TC"], surf_et=surfs["ET"],
        age=float(subject.age),
    )


def mask_summary(mask: LabelMask) -> MaskSummary:
    """Label amounts, WT extent and WT/necrosis centroids."""
    wt = derive_roi(mask, "WT")
    necrosis = derive_roi(mask, "LABEL1")
    return MaskSummary(
        amount_necrotic=roi_volume(necrosis),
        amount_edema=roi_volume(derive_roi(mask, "LABEL2")),
        amount_enhancing=roi_volume(derive_roi(mask, "LABEL4")),
        extent=tuple(float(n * s)
                     for n, s in zip(wt.membership.shape, mask.spacing)),
        centroid_wt=_centroid(wt),
        centroid_necrosis=_centroid(necrosis),
    )
