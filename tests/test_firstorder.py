import numpy as np
import pytest

from radsurv.radiomics import Binning, discretize, first_order_features
from radsurv.radiomics.firstorder import FIRSTORDER_FEATURE_NAMES
from radsurv.volumeio import VoxelVolume
from conftest import make_roi, make_volume
from oracles import first_order_bf


def compute(values, spacing=(1.0, 1.0, 1.0), bins=8):
    values = np.asarray(values, dtype=np.float64)
    shape = (values.size, 1, 1)
    vol = make_volume(values.reshape(shape), spacing=spacing)
    roi = make_roi(np.ones(shape, dtype=bool), spacing=spacing)
    disc = discretize(vol, roi, Binning("fixed_bin_count", bins))
    return first_order_features(vol, roi, disc), disc


class TestDegenerateConventions:
    def test_constant_roi(self):
        feats, _ = compute([3.0] * 10)
        assert feats["firstorder.variance"] == 0.0
        assert feats["firstorder.entropy"] == 0.0
        assert feats["firstorder.uniformity"] == 1.0
        assert feats["firstorder.energy"] == 10 * 9.0
        assert feats["firstorder.mean"] == 3.0
        assert feats["firstorder.median"] == 3.0
        assert feats["firstorder.skewness"] == 0.0
        assert feats["firstorder.kurtosis"] == 0.0

    def test_two_levels_equal_counts(self):
        feats, _ = compute([1.0] * 8 + [2.0] * 8, bins=2)
        assert feats["firstorder.entropy"] == pytest.approx(1.0, abs=1e-12)
        assert feats["firstorder.uniformity"] == pytest.approx(0.5, abs=1e-12)

    def test_small_symmetric_sample(self):
        feats, _ = compute([1.0, 2.0, 3.0, 4.0])
        assert feats["firstorder.mean"] == 2.5
        assert feats["firstorder.variance"] == 1.25
        assert feats["firstorder.skewness"] == 0.0

    def test_total_energy_scales_with_voxel_volume(self):
        f1, _ = compute([1.0, 2.0, 3.0], spacing=(1, 1, 1))
        f2, _ = compute([1.0, 2.0, 3.0], spacing=(2, 2, 2))
        assert f2["firstorder.total_energy"] == 8 * f1["firstorder.total_energy"]
        assert f2["firstorder.energy"] == f1["firstorder.energy"]


class TestOracleEquivalence:
    def test_random_rois_match_direct_formulas(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            values = rng.standard_normal(n) * rng.uniform(0.5, 30) \
                + rng.uniform(-10, 10)
            feats, disc = compute(values, bins=int(rng.integers(2, 16)))
            expected = first_order_bf(values.tolist(), disc.levels.tolist(),
                                      disc.n_levels, 1.0)
            assert set(feats) == set(FIRSTORDER_FEATURE_NAMES)
            for name in FIRSTORDER_FEATURE_NAMES:
                got, want = feats[name], expected[name]
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), name

    def test_mean_shift_by_constant(self):
        rng = np.random.default_rng(55)
        values = rng.random(40) * 5
        f1, _ = compute(values)
        f2, _ = compute(values + 17.0)
        assert f2["firstorder.mean"] == pytest.approx(
            f1["firstorder.mean"] + 17.0, rel=1e-12)


class TestPowersOverValues:
    """Integer, unscaled samples whose [min, max] range is below the voxel
    count take the third and fourth moments from one power per value; either
    way the skewness and kurtosis bits are those of the direct
    ``np.mean(dev ** 3)`` and ``np.mean(dev ** 4)``."""

    @pytest.mark.parametrize("dtype,low,high,scaling,under", [
        (np.int16, -40, 60, None, True),        # negative samples
        (np.uint8, 0, 12, None, True),
        (np.int32, -3000, 3000, None, False),   # range above the count
        (np.int16, -40, 60, (0.5, 3.0), False),  # scaled
        (np.float64, -40, 60, None, False),     # integers stored as floats
        (np.int16, 7, 8, None, True),           # constant ROI
    ])
    def test_bits_equal_the_direct_powers(self, dtype, low, high, scaling,
                                          under):
        rng = np.random.default_rng(23)
        for trial in range(10):
            stored = rng.integers(low, high, (14, 11, 9)).astype(dtype)
            membership = rng.random(stored.shape) < 0.5
            vol = VoxelVolume(dims=stored.shape, spacing=(1.0, 1.0, 1.0),
                              origin=(0.0, 0.0, 0.0), stored=stored,
                              scaling=scaling)
            roi = make_roi(membership)
            x = vol.region(...)[membership]
            assert (vol.stored.dtype.kind in "iu" and scaling is None
                    and x.max() - x.min() < x.size) == under
            dev = x - float(x.mean())
            m2 = float(np.mean(dev ** 2))
            m3, m4 = float(np.mean(dev ** 3)), float(np.mean(dev ** 4))
            want = ((m3 / m2 ** 1.5, m4 / m2 ** 2) if m2 > 0
                    else (0.0, 0.0))
            disc = discretize(vol, roi, Binning("fixed_bin_count", 8))
            feats = first_order_features(vol, roi, disc)
            got = (feats["firstorder.skewness"], feats["firstorder.kurtosis"])
            assert got == want, trial
