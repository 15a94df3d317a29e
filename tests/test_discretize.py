import numpy as np
import pytest

from radsurv.radiomics import Binning, discretize, extract_radiomics
from radsurv.radiomics.discretize import DiscretizationError
from radsurv.volumeio import derive_roi
from conftest import make_mask, make_roi, make_volume


def disc_of(values, binning, shape=None):
    values = np.asarray(values, dtype=np.float64)
    if shape is None:
        shape = (values.size, 1, 1)
    data = values.reshape(shape)
    vol = make_volume(data)
    roi = make_roi(np.ones(shape, dtype=bool))
    return discretize(vol, roi, binning)


class TestFixedBinWidth:
    def test_floor_rule(self):
        disc = disc_of([0.0, 24.9, 25.0, 50.0], Binning("fixed_bin_width", 25))
        assert disc.levels.tolist() == [1, 1, 2, 3]
        assert disc.n_levels == 3

    def test_width_validation(self):
        with pytest.raises(DiscretizationError):
            Binning("fixed_bin_width", 0.0)
        with pytest.raises(DiscretizationError):
            Binning("fixed_bin_width", -1.0)


class TestFixedBinCount:
    def test_constant_roi_degenerates_to_one_level(self):
        disc = disc_of([7.0] * 10, Binning("fixed_bin_count", 8))
        assert disc.n_levels == 1
        assert np.all(disc.levels == 1)

    def test_uniform_64_into_32_bins(self):
        disc = disc_of(np.arange(1.0, 65.0), Binning("fixed_bin_count", 32))
        counts = np.bincount(disc.levels, minlength=33)[1:]
        # direct enumeration oracle: every level holds exactly two values
        assert disc.n_levels == 32
        assert counts.tolist() == [2] * 32

    def test_maximum_maps_to_top_level(self):
        disc = disc_of([0.0, 1.0, 2.0, 3.0], Binning("fixed_bin_count", 4))
        assert disc.levels.max() == 4

    def test_count_validation(self):
        with pytest.raises(DiscretizationError):
            Binning("fixed_bin_count", 1)
        with pytest.raises(DiscretizationError):
            Binning("fixed_bin_count", 2.5)


class TestContracts:
    def test_empty_roi(self):
        vol = make_volume(np.ones((3, 3, 3)))
        roi = make_roi(np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(DiscretizationError, match="empty ROI"):
            discretize(vol, roi, Binning("fixed_bin_count", 8))

    def test_levels_in_range_and_histogram_mass(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            shape = tuple(int(rng.integers(2, 8)) for _ in range(3))
            member = rng.random(shape) < 0.6
            if not member.any():
                member[0, 0, 0] = True
            data = rng.standard_normal(shape) * 50
            vol = make_volume(data)
            roi = make_roi(member)
            binning = (Binning("fixed_bin_count", int(rng.integers(2, 12)))
                       if trial % 2 else
                       Binning("fixed_bin_width", float(rng.uniform(1, 20))))
            disc = discretize(vol, roi, binning)
            levels = disc.levels
            assert levels.min() >= 1
            assert levels.max() == disc.n_levels
            assert np.bincount(levels)[1:].sum() == roi.voxel_count

    def test_shift_invariance_fixed_bin_count(self):
        rng = np.random.default_rng(23)
        shape = (5, 5, 5)
        member = rng.random(shape) < 0.7
        data = rng.random(shape) * 10
        binning = Binning("fixed_bin_count", 16)
        d1 = discretize(make_volume(data), make_roi(member), binning)
        d2 = discretize(make_volume(data + 123.25), make_roi(member), binning)
        assert np.array_equal(d1.level_map, d2.level_map)

    def test_level_map_covers_the_roi_box(self):
        labels = np.zeros((7, 6, 5), dtype=np.int16)
        labels[1:4, 2:5, 1:3] = 2
        labels[2, 3:5, 1] = 4
        labels[1:3, 2, 2] = 1
        data = np.random.default_rng(5).random((7, 6, 5))
        roi = derive_roi(make_mask(labels), "TC")
        disc = discretize(make_volume(np.asfortranarray(data)), roi,
                          Binning("fixed_bin_count", 8))
        assert disc.level_map.shape == (3, 3, 2)
        whole = discretize(make_volume(data),
                           make_roi(np.isin(labels, (1, 4))),
                           Binning("fixed_bin_count", 8))
        assert np.array_equal(disc.level_map, whole.level_map[roi.box])

    def test_scan_of_another_grid_rejected(self):
        roi = make_roi(np.ones((3, 3, 3), dtype=bool))
        with pytest.raises(ValueError, match="does not match dims"):
            discretize(make_volume(np.ones((4, 3, 3))), roi,
                       Binning("fixed_bin_count", 8))


class TestNonFinite:
    @pytest.mark.parametrize("binning", [Binning("fixed_bin_count", 8),
                                         Binning("fixed_bin_width", 2.0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_roi_voxel_named(self, bad, binning):
        data = np.arange(27, dtype=np.float64).reshape(3, 3, 3)
        data[0, 0, 0] = bad     # outside the ROI: allowed
        data[2, 1, 0] = bad
        data[2, 2, 2] = bad
        member = np.ones((3, 3, 3), dtype=bool)
        member[0, 0, 0] = False
        with pytest.raises(DiscretizationError,
                           match=rf"non-finite ROI intensity {bad} "
                                 r"at voxel \(2, 1, 0\)"):
            discretize(make_volume(data), make_roi(member), binning)

    def test_extract_radiomics_rejects_nan_scan_voxel(self):
        labels = np.zeros((6, 6, 6), dtype=np.int16)
        labels[1:5, 1:5, 1:5] = 2
        data = np.random.default_rng(3).random((6, 6, 6))
        data[3, 2, 4] = np.nan
        with pytest.raises(DiscretizationError, match=r"\(3, 2, 4\)"):
            extract_radiomics(make_volume(data), make_mask(labels))
