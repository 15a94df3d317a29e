"""Radiomics feature extraction: 107 features from an intensity volume + ROI.

The vector concatenates 14 shape, 18 first-order, 24 GLCM, 16 GLRLM,
16 GLSZM, 14 GLDM and 5 NGTDM features in the fixed manifest order. Texture
families run on a discretized ROI; the ROI kind and binning rule are
configuration, which the extract command records in resolved_config.json.

``FEATURE_COLUMNS`` is the one catalog of feature groups, and
``extract_row`` the one composer of a subject's row for an extract mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..imagefeat import (IMAGE_FEATURE_NAMES, MASK_SUMMARY_NAMES,
                         extract_image_features, mask_summary)
from ..volumeio import (LabelMask, SubjectRecord, VoxelVolume,
                        check_same_grid, derive_roi)
from .discretize import Binning, DiscretizedRoi, discretize
from .firstorder import FIRSTORDER_FEATURE_NAMES, first_order_features
from .shape import SHAPE_FEATURE_NAMES, ShapeDescriptors, shape_features
from .texture import (GLCM_FEATURE_NAMES, GLRLM_FEATURE_NAMES,
                      GLSZM_FEATURE_NAMES, GLDM_FEATURE_NAMES,
                      NGTDM_FEATURE_NAMES, TextureError,
                      glcm_features, glrlm_features, glszm_features,
                      gldm_features, ngtdm_features)
from .manifest import MANIFEST_VERSION, RADIOMICS_FEATURE_NAMES, manifest_text

__all__ = [
    "Binning", "DiscretizedRoi", "EXTRACT_MODES", "FEATURE_COLUMNS",
    "RadiomicsConfig", "RadiomicsVector", "ShapeDescriptors", "discretize",
    "extract_radiomics", "extract_row",
    "first_order_features", "shape_features",
    "glcm_features", "glrlm_features", "glszm_features", "gldm_features",
    "ngtdm_features", "RADIOMICS_FEATURE_NAMES", "MANIFEST_VERSION",
    "manifest_text",
]

EXTRACT_MODES = ("all", "image7", "radiomics107")

# the columns of each extract mode and of the shape experiment set
FEATURE_COLUMNS: dict[str, tuple[str, ...]] = {
    "image7": IMAGE_FEATURE_NAMES,
    "radiomics107": RADIOMICS_FEATURE_NAMES,
    "all": IMAGE_FEATURE_NAMES + MASK_SUMMARY_NAMES + RADIOMICS_FEATURE_NAMES,
    # the shape set ends with age, the last image feature
    "shape": (MASK_SUMMARY_NAMES + SHAPE_FEATURE_NAMES
              + IMAGE_FEATURE_NAMES[-1:]),
}


@dataclass(frozen=True)
class RadiomicsConfig:
    """Extraction configuration; defaults are choices, not claims."""

    roi_kind: str = "WT"
    binning: Binning = Binning("fixed_bin_count", 32)
    gldm_alpha: float = 0.0     # [0, 1) only; perfbench/workloads.py reads it


@dataclass
class RadiomicsVector:
    """The 107 feature values in ``RADIOMICS_FEATURE_NAMES`` order."""

    values: np.ndarray


def extract_radiomics(vol: VoxelVolume, mask: LabelMask,
                      config: RadiomicsConfig = RadiomicsConfig()) -> RadiomicsVector:
    """Compute the full 107-feature vector for one subject and ROI."""
    check_same_grid(vol, mask)
    roi = derive_roi(mask, config.roi_kind)
    if roi.voxel_count == 0:
        raise TextureError(f"ROI {config.roi_kind} is empty")
    disc = discretize(vol, roi, config.binning)

    values: dict[str, float] = {}
    stages = (
        ("shape", lambda: dict(zip(SHAPE_FEATURE_NAMES,
                                   shape_features(roi).as_vector().tolist()))),
        ("firstorder", lambda: first_order_features(vol, roi, disc)),
        ("glcm", lambda: glcm_features(disc)),
        ("glrlm", lambda: glrlm_features(disc)),
        ("glszm", lambda: glszm_features(disc)),
        ("gldm", lambda: gldm_features(disc, config.gldm_alpha)),
        ("ngtdm", lambda: ngtdm_features(disc)),
    )
    for family, compute in stages:
        try:
            values.update(compute())
        except Exception as exc:
            raise type(exc)(f"{family}: {exc}") from exc

    return RadiomicsVector(
        np.array([values[name] for name in RADIOMICS_FEATURE_NAMES]))


def extract_row(mask: LabelMask, record: SubjectRecord,
                vol: Optional[VoxelVolume] = None,
                config: RadiomicsConfig = RadiomicsConfig(),
                mode: str = "all") -> np.ndarray:
    """A subject's values for the ``FEATURE_COLUMNS[mode]`` columns of an
    extract mode; ``vol`` is read only by modes with radiomics columns."""
    if mode not in EXTRACT_MODES:
        raise ValueError(f"unknown extract mode {mode!r}")
    parts = []
    if mode != "radiomics107":
        parts.append(extract_image_features(mask, record).as_vector())
    if mode == "all":
        parts.append(mask_summary(mask).as_vector())
    if mode != "image7":
        if vol is None:
            raise ValueError("radiomics features need a scan")
        parts.append(extract_radiomics(vol, mask, config).values)
    return np.concatenate(parts)
