"""The stacked texture formulas against their former per-matrix evaluation.

GLCM and GLRLM features are evaluated once over the (13, Ng, W) stack of
direction matrices. Every value must carry the bits of the former one-matrix
evaluation (``oracles.glcm_features_per_matrix`` and
``oracles.run_zone_values_per_matrix``), and each direction mean those of
``np.mean`` over the per-direction values, so the checks here compare
exact float bits.
"""

import numpy as np
import pytest

from radsurv.radiomics.texture import (GLCM_FEATURE_NAMES,
                                       GLDM_FEATURE_NAMES,
                                       GLRLM_FEATURE_NAMES,
                                       GLSZM_FEATURE_NAMES, _glcm_values,
                                       _run_zone_values, gldm_features,
                                       gldm_matrix, glcm_features,
                                       glcm_features_single, glcm_matrices,
                                       glrlm_features, glrlm_features_single,
                                       glrlm_matrices, glszm_features,
                                       glszm_matrix)
from conftest import make_disc, random_disc
import oracles


def _thin_roi():
    """A 4-voxel line: only direction (1, 0, 0) has co-occurrences."""
    level = np.zeros((4, 1, 1), dtype=np.int32)
    level[:, 0, 0] = [1, 2, 1, 2]
    return make_disc(level)


def _single_level_directions():
    """A level-1 line along x and a lone level-2 voxel: the x direction
    pairs only level 1 (MCC = 1), and most directions are empty."""
    level = np.zeros((4, 1, 3), dtype=np.int32)
    level[:, 0, 0] = 1
    level[0, 0, 2] = 2
    return make_disc(level)


def _mixed_present_levels():
    """Six random levels in a box cut by a plane and a slab: the directions
    see different sets of present levels."""
    rng = np.random.default_rng(5)
    level = rng.integers(1, 7, size=(5, 4, 3)).astype(np.int32)
    level[:, 1, :] = 0
    level[2, :, :] = 0
    return make_disc(level)


def _random(seed, **kw):
    return random_disc(np.random.default_rng(seed), **kw)


CASES = {
    "constant_ng1": lambda: make_disc(np.ones((3, 4, 2), dtype=np.int32)),
    "thin_empty_directions": _thin_roi,
    "single_level_directions": _single_level_directions,
    "mixed_present_levels": _mixed_present_levels,
    **{f"random_{seed}": (lambda seed=seed: _random(seed))
       for seed in range(8)},
    "random_32_levels": lambda: _random(41, max_shape=(12, 12, 10), ng=32),
    "random_sparse": lambda: _random(42, ng=5, density=0.25),
    "random_dense_64_levels": lambda: _random(43, max_shape=(16, 16, 16),
                                              ng=64, density=1.0),
    "random_dense_2_levels": lambda: _random(44, ng=2, density=1.0),
}


def _bits(values: dict) -> dict:
    """Each value as its exact float64 bits (``-0.0`` differs from ``0.0``)."""
    return {name: float(v).hex() for name, v in values.items()}


def _present_sets(mats):
    return {tuple(np.flatnonzero(m.sum(axis=1) > 0)) for m in mats
            if m.sum() > 0}


def test_cases_cover_the_degenerate_conventions():
    mats = glcm_matrices(CASES["constant_ng1"]())
    assert mats.shape == (13, 1, 1)
    thin = glcm_matrices(CASES["thin_empty_directions"]())
    assert [int(m.sum() > 0) for m in thin] == [1] + [0] * 12
    single = glcm_matrices(CASES["single_level_directions"]())
    assert _present_sets(single) == {(0,)}
    mixed = _present_sets(glcm_matrices(CASES["mixed_present_levels"]()))
    assert len([s for s in mixed if len(s) > 1]) >= 2
    for name, ng in (("random_dense_64_levels", 64),
                     ("random_dense_2_levels", 2)):
        mats = glcm_matrices(CASES[name]())
        assert mats.shape[1] == ng
        # every sum level i + j in some direction, and in each direction
        # cells on both sides of the shift i + j - mu_x - mu_y = 0
        ij = np.add.outer(np.arange(1, ng + 1), np.arange(1, ng + 1))
        assert set(ij[mats.sum(axis=0) > 0]) == set(range(2, 2 * ng + 1))
        for m in mats:
            p = m / m.sum()
            mu = (np.arange(1, ng + 1) * p.sum(axis=1)).sum() * 2
            assert (p[ij < mu] > 0).any() and (p[ij > mu] > 0).any()


@pytest.mark.parametrize("name", sorted(CASES))
def test_glcm_stack_matches_per_matrix_bits(name):
    disc = CASES[name]()
    ng = disc.n_levels
    mats = glcm_matrices(disc)
    assert mats.shape == (13, ng, ng)
    full = mats[mats.reshape(13, -1).sum(axis=1) > 0]
    want = [oracles.glcm_features_per_matrix(m, ng) for m in full]
    got = _glcm_values(full, ng)
    assert got.shape == (len(full), 24)
    for row, per in zip(got.tolist(), want):
        assert _bits(dict(zip(GLCM_FEATURE_NAMES, row))) == _bits(per)
    for m, per in zip(full, want):
        assert _bits(glcm_features_single(m, ng)) == _bits(per)
    assert _bits(glcm_features(disc)) == _bits(
        oracles.direction_means_per_matrix(want))


def _random_count_stack(rng):
    """A symmetric (k, Ng, Ng) stack of random float counts, each matrix
    non-empty: dense or sparse, some with empty rows (and columns), some
    with a single level."""
    k, ng = int(rng.integers(1, 14)), int(rng.integers(1, 41))
    density = rng.choice([0.05, 0.3, 1.0])
    mats = rng.random((k, ng, ng)) * (rng.random((k, ng, ng)) < density)
    mats *= rng.choice([1.0, 100.0])
    for m in mats:
        kind = rng.integers(0, 3)
        if kind == 1:
            empty = rng.random(ng) < 0.5
            m[empty] = 0.0
            m[:, empty] = 0.0
        elif kind == 2:
            m[...] = 0.0
        if not m.any():
            level = rng.integers(0, ng)
            m[level, level] = rng.random() + 0.5
    return mats + mats.transpose(0, 2, 1)


CLUSTER = ("glcm.cluster_prominence", "glcm.cluster_shade",
           "glcm.cluster_tendency")


def test_glcm_cluster_moments_match_full_matrix_bits():
    rng = np.random.default_rng(2028)
    cols = [GLCM_FEATURE_NAMES.index(name) for name in CLUSTER]
    for _ in range(200):
        mats = _random_count_stack(rng)
        ng = mats.shape[1]
        got = _glcm_values(mats, ng)[:, cols]
        for row, m in zip(got.tolist(), mats):
            per = oracles.glcm_features_per_matrix(m, ng)
            assert _bits(dict(zip(CLUSTER, row))) == _bits(
                {name: per[name] for name in CLUSTER})


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_zone_stack_matches_per_matrix_bits(name):
    disc = CASES[name]()
    n_vox = disc.roi.voxel_count
    mats = glrlm_matrices(disc)
    assert mats.shape == (13, disc.n_levels, max(disc.roi.dims))
    want = [dict(zip(GLRLM_FEATURE_NAMES,
                     oracles.run_zone_values_per_matrix(m, n_vox)))
            for m in mats]
    got = _run_zone_values(mats, n_vox)
    assert got.shape == (13, 16)
    for row, m, per in zip(got.tolist(), mats, want):
        assert _bits(dict(zip(GLRLM_FEATURE_NAMES, row))) == _bits(per)
        assert _bits(glrlm_features_single(m, n_vox)) == _bits(per)
    assert _bits(glrlm_features(disc)) == _bits(
        oracles.direction_means_per_matrix(want))

    zones = oracles.run_zone_values_per_matrix(glszm_matrix(disc), n_vox)
    assert _bits(glszm_features(disc)) == _bits(
        dict(zip(GLSZM_FEATURE_NAMES, zones)))
    dependence = oracles.run_zone_values_per_matrix(gldm_matrix(disc), n_vox)
    del dependence[6], dependence[3]
    assert _bits(gldm_features(disc)) == _bits(
        dict(zip(GLDM_FEATURE_NAMES, dependence)))
