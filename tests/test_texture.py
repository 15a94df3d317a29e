import numpy as np
import pytest

from radsurv.radiomics.texture import (DIRECTIONS_13, GLCM_FEATURE_NAMES,
                                       GLDM_FEATURE_NAMES,
                                       GLRLM_FEATURE_NAMES,
                                       GLSZM_FEATURE_NAMES,
                                       NGTDM_FEATURE_NAMES, TextureError,
                                       gldm_features, gldm_matrix,
                                       glcm_features, glcm_features_single,
                                       glcm_matrices, glrlm_features,
                                       glrlm_features_single, glrlm_matrices,
                                       glszm_features, glszm_matrix,
                                       ngtdm_features)
from conftest import make_disc, random_disc
import oracles


def close(got, want, name=""):
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12), name


class TestGlcm:
    def test_constant_roi_conventions(self):
        disc = make_disc(np.ones((3, 3, 3), dtype=int))
        feats = glcm_features(disc)
        assert feats["glcm.joint_energy"] == 1.0
        assert feats["glcm.joint_entropy"] == 0.0
        assert feats["glcm.contrast"] == 0.0
        assert feats["glcm.maximum_probability"] == 1.0
        assert feats["glcm.correlation"] == 1.0
        assert feats["glcm.mcc"] == 1.0

    def test_hand_enumerable_2x2_grid(self):
        levels = np.array([[1, 1], [2, 2]]).reshape(2, 2, 1)
        disc = make_disc(levels)
        mats = glcm_matrices(disc)
        # hand count for direction (1,0,0): both x-pairs are (1,2), and
        # symmetrization mirrors them
        assert np.array_equal(mats[DIRECTIONS_13.index((1, 0, 0))],
                              [[0.0, 2.0], [2.0, 0.0]])
        # direction (0,1,0): pairs (1,1) and (2,2), each mirrored onto itself
        assert np.array_equal(mats[DIRECTIONS_13.index((0, 1, 0))],
                              [[2.0, 0.0], [0.0, 2.0]])
        for d, mat in zip(DIRECTIONS_13, mats):
            expected = oracles.glcm_matrix_bf(disc.level_map,
                                              disc.roi.membership, d, 2)
            assert np.array_equal(mat, expected), d
        got = glcm_features(disc)
        want = oracles.glcm_features_mean_bf(disc.level_map,
                                             disc.roi.membership, 2)
        for name in GLCM_FEATURE_NAMES:
            close(got[name], want[name], name)

    def test_checkerboard_correlation(self):
        idx = np.indices((4, 4, 4)).sum(axis=0)
        disc = make_disc((idx % 2) + 1)
        mats = glcm_matrices(disc)
        for d, mat in zip(DIRECTIONS_13, mats):
            if sum(abs(c) for c in d) == 1:  # axis direction alternates levels
                feats = glcm_features_single(mat, disc.n_levels)
                close(feats["glcm.correlation"], -1.0, f"correlation {d}")

    def test_single_voxel_has_no_pairs(self):
        level = np.zeros((3, 3, 3), dtype=int)
        level[1, 1, 1] = 1
        with pytest.raises(TextureError, match="no co-occurrences"):
            glcm_features(make_disc(level))

    def test_thin_roi_skips_empty_directions(self):
        level = np.zeros((4, 1, 1), dtype=int)
        level[:, 0, 0] = [1, 2, 1, 2]
        feats = glcm_features(make_disc(level))
        want = oracles.glcm_features_mean_bf(level, level > 0, 2)
        for name in GLCM_FEATURE_NAMES:
            close(feats[name], want[name], name)

    def test_normalization_sums_to_one(self):
        rng = np.random.default_rng(2)
        disc = random_disc(rng)
        mats = glcm_matrices(disc)
        aggregated = []
        for mat in mats:
            if mat.sum() > 0:
                p = mat / mat.sum()
                assert abs(p.sum() - 1.0) <= 1e-12
                assert np.array_equal(p, p.T)
                aggregated.append(p)
        mean_p = np.mean(aggregated, axis=0)
        assert abs(mean_p.sum() - 1.0) <= 1e-12


class TestGlrlm:
    def test_line_roi_run_percentage(self):
        n = 6
        level = np.zeros((n, 1, 1), dtype=int)
        level[:, 0, 0] = 1
        disc = make_disc(level)
        mats = glrlm_matrices(disc)
        axial = DIRECTIONS_13.index((1, 0, 0))
        feats_ax = glrlm_features_single(mats[axial], disc.roi.voxel_count)
        close(feats_ax["glrlm.run_percentage"], 1.0 / n)
        assert mats[axial][0, n - 1] == 1.0
        off_axis = DIRECTIONS_13.index((0, 1, 0))
        feats_off = glrlm_features_single(mats[off_axis], disc.roi.voxel_count)
        close(feats_off["glrlm.run_percentage"], 1.0)

    def test_alternating_line_all_short_runs(self):
        level = np.zeros((6, 1, 1), dtype=int)
        level[:, 0, 0] = [1, 2, 1, 2, 1, 2]
        feats = glrlm_features(make_disc(level))
        close(feats["glrlm.short_run_emphasis"], 1.0)
        close(feats["glrlm.run_percentage"], 1.0)

    def test_random_roi_matches_run_scan_oracle(self):
        rng = np.random.default_rng(8)
        disc = random_disc(rng, max_shape=(6, 6, 3), ng=4)
        n_vox = disc.roi.voxel_count
        mats = glrlm_matrices(disc)
        agg = {name: [] for name in GLRLM_FEATURE_NAMES}
        for d, mat in zip(DIRECTIONS_13, mats):
            expected = oracles.glrlm_matrix_bf(
                disc.level_map, disc.roi.membership, d, disc.n_levels,
                max(disc.roi.dims))
            assert np.array_equal(mat, expected), d
            vals = oracles.run_zone_features_bf(expected, n_vox)
            for name, v in zip(GLRLM_FEATURE_NAMES, vals):
                agg[name].append(v)
        got = glrlm_features(disc)
        for name in GLRLM_FEATURE_NAMES:
            close(got[name], float(np.mean(agg[name])), name)

    def test_run_mass_conservation_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            disc = random_disc(rng)
            n_vox = disc.roi.voxel_count
            for mat in glrlm_matrices(disc):
                lengths = np.arange(1, mat.shape[1] + 1)
                assert float((mat * lengths).sum()) == float(n_vox)


class TestGlszm:
    def test_constant_roi_single_zone(self):
        disc = make_disc(np.ones((3, 3, 3), dtype=int))
        mat = glszm_matrix(disc)
        assert mat.sum() == 1.0
        assert mat[0, 26] == 1.0
        feats = glszm_features(disc)
        close(feats["glszm.zone_percentage"], 1.0 / 27)

    def test_diagonal_voxels_form_one_zone(self):
        level = np.zeros((3, 3, 3), dtype=int)
        level[0, 0, 0] = 1
        level[1, 1, 1] = 1
        mat = glszm_matrix(make_disc(level))
        assert mat[0, 1] == 1.0   # one zone of size 2
        assert mat.sum() == 1.0

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            disc = random_disc(rng, max_shape=(6, 6, 6), ng=4)
            mat = glszm_matrix(disc)
            expected = oracles.glszm_matrix_bf(
                disc.level_map, disc.roi.membership, disc.n_levels)
            assert np.array_equal(mat, expected)

    def test_zone_mass_conservation_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            disc = random_disc(rng)
            mat = glszm_matrix(disc)
            sizes = np.arange(1, mat.shape[1] + 1)
            assert float((mat * sizes).sum()) == float(disc.roi.voxel_count)



def _snake(shape):
    """A body-diagonal path that bounces off the box walls, one coordinate
    at a time, until it has run 4 x the box's longest side."""
    pos = np.zeros(3, dtype=int)
    step = np.ones(3, dtype=int)
    path = [tuple(pos)]
    for _ in range(4 * max(shape)):
        for a in range(3):
            if not 0 <= pos[a] + step[a] < shape[a]:
                step[a] = -step[a]
        pos = pos + step
        path.append(tuple(pos))
    return path


def _glszm_worst_cases():
    """Level maps whose zones need the most label-propagation rounds."""
    rng = np.random.default_rng(26)
    cases = {}
    snake = rng.integers(2, 4, size=(9, 7, 11))
    snake[tuple(np.array(_snake(snake.shape)).T)] = 1
    cases["snake"] = snake
    lone = np.zeros((9, 7, 11), dtype=int)
    lone[tuple(np.array(_snake(lone.shape)).T)] = 1
    cases["snake_alone"] = lone
    x, y, z = np.indices((6, 7, 5))
    cases["checkerboard"] = 1 + x % 2 + 2 * (y % 2) + 4 * (z % 2)
    cross = rng.integers(2, 4, size=(7, 8, 9))
    cross[:, 4, 4] = cross[3, :, 4] = cross[3, 4, :] = 1
    cases["six_faces"] = cross
    for name, (a, b) in {
            "corner": ((slice(0, 3),) * 3, (slice(3, 6),) * 3),
            "corner_negative": ((slice(0, 3), slice(3, 6), slice(0, 3)),
                                (slice(3, 6), slice(0, 3), slice(3, 6)))}.items():
        level = np.zeros((6, 6, 6), dtype=int)
        level[a] = level[b] = 1
        cases[name] = level
    return cases


def _worst_case_discs():
    """The GLSZM worst cases as extra inputs for the other 26-neighborhood
    families."""
    return [make_disc(level) for _, level in
            sorted(_glszm_worst_cases().items())]


class TestGlszmWorstCases:
    @pytest.mark.parametrize("name", sorted(_glszm_worst_cases()))
    def test_matches_flood_fill_oracle(self, name):
        disc = make_disc(_glszm_worst_cases()[name])
        expected = oracles.glszm_matrix_bf(
            disc.level_map, disc.roi.membership, disc.n_levels)
        assert np.array_equal(glszm_matrix(disc), expected)

    def test_shapes_are_as_described(self):
        cases = _glszm_worst_cases()
        assert glszm_matrix(make_disc(cases["checkerboard"])).sum() == 6 * 7 * 5
        for name in ("snake", "snake_alone", "six_faces"):
            ones = glszm_matrix(make_disc(cases[name]))[0]
            assert ones.sum() == 1.0, name
        for name in ("corner", "corner_negative"):
            mat = glszm_matrix(make_disc(cases[name]))
            assert mat.sum() == 1.0 and mat[0, 53] == 1.0, name


class TestGldm:
    def test_single_voxel(self):
        level = np.zeros((3, 3, 3), dtype=int)
        level[1, 1, 1] = 1
        mat = gldm_matrix(make_disc(level))
        assert mat.sum() == 1.0
        assert mat[0, 0] == 1.0   # dependence count 0

    def test_constant_cube_center_dependence(self):
        disc = make_disc(np.ones((3, 3, 3), dtype=int))
        mat = gldm_matrix(disc)
        assert mat[0, 26] == 1.0            # the center voxel
        assert mat.sum() == 27.0

    def test_matches_neighbor_count_oracle(self):
        rng = np.random.default_rng(12)
        for alpha in (0.0, 0.5):
            random = random_disc(rng, max_shape=(6, 6, 6), ng=5)
            for disc in [random] + _worst_case_discs():
                mat = gldm_matrix(disc)
                expected = oracles.gldm_matrix_bf(
                    disc.level_map, disc.roi.membership, disc.n_levels, alpha)
                assert np.array_equal(mat, expected)
                got = gldm_features(disc, alpha)
                want = oracles.gldm_features_bf(expected)
                for name in GLDM_FEATURE_NAMES:
                    close(got[name], want[name], name)

    def test_dependence_mass_conservation_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            disc = random_disc(rng)
            assert float(gldm_matrix(disc).sum()) == float(disc.roi.voxel_count)


class TestNgtdm:
    def test_constant_roi_conventions(self):
        disc = make_disc(np.ones((3, 3, 3), dtype=int))
        feats = ngtdm_features(disc)
        assert feats["ngtdm.contrast"] == 0.0
        assert feats["ngtdm.busyness"] == 0.0
        assert feats["ngtdm.coarseness"] == 1e6   # sentinel branch

    def test_two_level_alternation_matches_oracle(self):
        level = np.zeros((6, 1, 1), dtype=int)
        level[:, 0, 0] = [1, 2, 1, 2, 1, 2]
        disc = make_disc(level)
        got = ngtdm_features(disc)
        want = oracles.ngtdm_features_bf(disc.level_map, disc.roi.membership,
                                         disc.n_levels)
        for name in NGTDM_FEATURE_NAMES:
            close(got[name], want[name], name)

    def test_random_roi_matches_oracle(self):
        rng = np.random.default_rng(3)
        discs = [random_disc(rng, max_shape=(6, 6, 6), ng=5) for _ in range(10)]
        for disc in discs + _worst_case_discs():
            got = ngtdm_features(disc)
            want = oracles.ngtdm_features_bf(
                disc.level_map, disc.roi.membership, disc.n_levels)
            for name in NGTDM_FEATURE_NAMES:
                close(got[name], want[name], name)


class TestCrossFamilyProperties:
    def test_all_families_match_oracles_on_random_rois(self):
        rng = np.random.default_rng(1234)
        discs = [random_disc(rng) for _ in range(25)] + _worst_case_discs()
        for disc in discs:
            ng = disc.n_levels
            lm, roi = disc.level_map, disc.roi.membership
            n_vox = disc.roi.voxel_count

            got = glcm_features(disc)
            want = oracles.glcm_features_mean_bf(lm, roi, ng)
            for name in GLCM_FEATURE_NAMES:
                close(got[name], want[name], f"glcm {name}")

            agg = {name: [] for name in GLRLM_FEATURE_NAMES}
            for d in DIRECTIONS_13:
                mat = oracles.glrlm_matrix_bf(lm, roi, d, ng,
                                              max(disc.roi.dims))
                for name, v in zip(GLRLM_FEATURE_NAMES,
                                   oracles.run_zone_features_bf(mat, n_vox)):
                    agg[name].append(v)
            got = glrlm_features(disc)
            for name in GLRLM_FEATURE_NAMES:
                close(got[name], float(np.mean(agg[name])), f"glrlm {name}")

            got = glszm_features(disc)
            zmat = oracles.glszm_matrix_bf(lm, roi, ng)
            for name, v in zip(GLSZM_FEATURE_NAMES,
                               oracles.run_zone_features_bf(zmat, n_vox)):
                close(got[name], v, f"glszm {name}")

            got = gldm_features(disc)
            want = oracles.gldm_features_bf(oracles.gldm_matrix_bf(lm, roi, ng))
            for name in GLDM_FEATURE_NAMES:
                close(got[name], want[name], f"gldm {name}")

            got = ngtdm_features(disc)
            want = oracles.ngtdm_features_bf(lm, roi, ng)
            for name in NGTDM_FEATURE_NAMES:
                close(got[name], want[name], f"ngtdm {name}")

    def test_axis_permutation_invariance(self):
        rng = np.random.default_rng(99)
        disc = random_disc(rng, max_shape=(7, 7, 7), ng=5)
        perm_map = np.transpose(disc.level_map, (1, 2, 0))
        disc_p = make_disc(perm_map)
        for fn in (glcm_features, glrlm_features, glszm_features,
                   gldm_features, ngtdm_features):
            a = fn(disc)
            b = fn(disc_p)
            for name in a:
                close(a[name], b[name], f"{fn.__name__} {name}")

    def test_level_permanence_under_intensity_shift(self):
        # fixed_bin_count levels ignore constant shifts, so texture does too
        from radsurv.radiomics import Binning, discretize
        from conftest import make_roi, make_volume

        rng = np.random.default_rng(7)
        data = rng.random((5, 5, 5)) * 9
        member = rng.random((5, 5, 5)) < 0.8
        roi = make_roi(member)
        binning = Binning("fixed_bin_count", 8)
        d1 = discretize(make_volume(data), roi, binning)
        d2 = discretize(make_volume(data + 55.5), roi, binning)
        f1, f2 = glcm_features(d1), glcm_features(d2)
        for name in GLCM_FEATURE_NAMES:
            assert f1[name] == f2[name], name
