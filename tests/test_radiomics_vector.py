import re

import numpy as np
import pytest

from radsurv.phantoms import PhantomSpec, gen_mask
from radsurv.radiomics import (Binning, RadiomicsConfig,
                               RADIOMICS_FEATURE_NAMES, discretize,
                               extract_radiomics, first_order_features,
                               glcm_features, gldm_features, glrlm_features,
                               glszm_features, manifest_text, ngtdm_features,
                               shape_features)
from radsurv.radiomics.manifest import (MANIFEST_VERSION,
                                        packaged_manifest_text)
from radsurv.radiomics.shape import SHAPE_FEATURE_NAMES
from radsurv.volumeio import GeometryError, derive_roi
from conftest import make_mask, make_volume


@pytest.fixture(scope="module")
def phantom():
    mask = gen_mask(PhantomSpec(shape="sphere", params=(7.0,),
                                center=(10, 10, 10), label_fill=2,
                                dims=(21, 21, 21)))
    rng = np.random.default_rng(0)
    vol = make_volume(0.2 + rng.random((21, 21, 21)))
    return vol, mask


class TestManifest:
    def test_exactly_107_unique_names_by_family(self):
        assert len(RADIOMICS_FEATURE_NAMES) == 107
        assert len(set(RADIOMICS_FEATURE_NAMES)) == 107
        counts = {}
        for name in RADIOMICS_FEATURE_NAMES:
            family = name.split(".")[0]
            counts[family] = counts.get(family, 0) + 1
        assert counts == {"shape": 14, "firstorder": 18, "glcm": 24,
                          "glrlm": 16, "glszm": 16, "gldm": 14, "ngtdm": 5}

    def test_packaged_manifest_matches_code(self):
        assert packaged_manifest_text() == manifest_text()
        lines = manifest_text().strip().split("\n")
        assert str(MANIFEST_VERSION) in lines[0]
        assert lines[1:] == list(RADIOMICS_FEATURE_NAMES)


class TestExtractRadiomics:
    def test_arity_and_provenance(self, phantom):
        vol, mask = phantom
        vec = extract_radiomics(vol, mask, RadiomicsConfig(
            roi_kind="WT", binning=Binning("fixed_bin_count", 16)))
        assert vec.values.shape == (107,)
        assert not np.isnan(vec.values).any()

    def test_shape_slots_match_shape_features(self, phantom):
        vol, mask = phantom
        vec = extract_radiomics(vol, mask)
        direct = shape_features(derive_roi(mask, "WT")).as_vector()
        assert np.array_equal(vec.values[:14], direct)
        assert RADIOMICS_FEATURE_NAMES[:14] == SHAPE_FEATURE_NAMES

    def test_standalone_families_equal_their_slices(self, phantom):
        """Each texture family called on its own, with its own box and
        neighbor pairs, gives the bytes of its slice of the full vector,
        whose families share one DiscretizedRoi."""
        vol, mask = phantom
        vec = extract_radiomics(vol, mask, RadiomicsConfig(gldm_alpha=0.5))
        families = {
            "glcm": glcm_features, "glrlm": glrlm_features,
            "glszm": glszm_features, "ngtdm": ngtdm_features,
            "gldm": lambda disc: gldm_features(disc, 0.5),
            "firstorder": lambda disc: first_order_features(vol, disc.roi,
                                                            disc),
        }
        for family, compute in families.items():
            disc = discretize(vol, derive_roi(mask, "WT"),
                              RadiomicsConfig().binning)
            alone = compute(disc)
            names = [n for n in RADIOMICS_FEATURE_NAMES
                     if n.startswith(family + ".")]
            assert sorted(alone) == sorted(names)
            slots = [RADIOMICS_FEATURE_NAMES.index(n) for n in names]
            assert np.array([alone[n] for n in names]).tobytes() == \
                vec.values[slots].tobytes(), family

    def test_bit_identical_reruns(self, phantom):
        vol, mask = phantom
        v1 = extract_radiomics(vol, mask)
        v2 = extract_radiomics(vol, mask)
        assert np.array_equal(v1.values, v2.values)

    def test_empty_roi_rejected(self, phantom):
        vol, mask = phantom
        with pytest.raises(Exception, match="ET is empty"):
            extract_radiomics(vol, mask, RadiomicsConfig(roi_kind="ET"))

    def test_family_error_carries_family_name(self):
        labels = np.zeros((5, 5, 5), dtype=np.int16)
        labels[2, 2, 2] = 2   # a single voxel has no co-occurring pair
        mask = make_mask(labels)
        vol = make_volume(np.ones((5, 5, 5)))
        with pytest.raises(Exception, match="glcm:"):
            extract_radiomics(vol, mask)

    def test_dims_mismatch_rejected(self, phantom):
        _, mask = phantom
        vol = make_volume(np.ones((4, 4, 4)))
        with pytest.raises(ValueError, match="dims"):
            extract_radiomics(vol, mask)


class TestScanMaskGeometry:
    @pytest.mark.parametrize("field, value", [
        ("spacing", (1.0, 1.0, 1.5)),
        ("origin", (0.0, -2.0, 0.0)),
        ("origin", (0.0, 0.0, 1e-3)),
    ])
    def test_mismatch_rejected_naming_both(self, phantom, field, value):
        vol, mask = phantom
        moved = make_volume(vol.region(...), **{"spacing": mask.spacing,
                                                "origin": mask.origin,
                                                field: value})
        with pytest.raises(GeometryError, match=re.escape(
                f"scan {field} {value} differs from mask {field} "
                f"{getattr(mask, field)}")):
            extract_radiomics(moved, mask)

    def test_float32_round_off_accepted(self):
        spacing = (0.7, 1.3, 2.5)
        origin = (-90.1, 12.3, 33.7)
        mask = gen_mask(PhantomSpec(
            shape="ellipsoid", params=(4.0, 5.0, 7.0), center=(-83.1, 24.0, 56.2),
            label_fill=2, dims=(20, 18, 20), spacing=spacing, origin=origin))
        data = 0.2 + np.random.default_rng(1).random(mask.dims)
        as_float32 = tuple(tuple(float(np.float32(v)) for v in t)
                           for t in (spacing, origin))
        assert as_float32 != (spacing, origin)
        exact = extract_radiomics(make_volume(data, spacing, origin), mask)
        rounded = extract_radiomics(make_volume(data, *as_float32), mask)
        assert exact.values.tobytes() == rounded.values.tobytes()
