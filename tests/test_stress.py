"""Heavier randomized cross-checks of the trickiest vectorized paths."""

import numpy as np
import pytest

from radsurv.radiomics.texture import (DIRECTIONS_13, glrlm_matrices,
                                       glszm_matrix)
from radsurv.radiomics.shape import extract_mesh, mesh_area_volume
from radsurv.regressors.tree import TreeGrower
from conftest import make_disc
import oracles


class TestLargerTextureRois:
    def test_glrlm_line_decomposition_on_bigger_grids(self):
        rng = np.random.default_rng(2718)
        for _ in range(5):
            shape = (int(rng.integers(9, 13)), int(rng.integers(7, 11)),
                     int(rng.integers(5, 10)))
            member = rng.random(shape) < 0.55
            member[tuple(s // 2 for s in shape)] = True
            levels = np.zeros(shape, dtype=np.int32)
            levels[member] = rng.integers(1, 6, size=int(member.sum()))
            disc = make_disc(levels)
            mats = glrlm_matrices(disc)
            for d, mat in zip(DIRECTIONS_13, mats):
                expected = oracles.glrlm_matrix_bf(
                    disc.level_map, disc.roi.membership, d, disc.n_levels,
                    max(disc.roi.dims))
                assert np.array_equal(mat, expected[:, :mat.shape[1]]), d
                assert expected[:, mat.shape[1]:].sum() == 0

    def test_glszm_union_find_on_fragmented_rois(self):
        rng = np.random.default_rng(3141)
        for density in (0.2, 0.5, 0.8):
            shape = (11, 9, 8)
            member = rng.random(shape) < density
            member[5, 4, 4] = True
            levels = np.zeros(shape, dtype=np.int32)
            levels[member] = rng.integers(1, 4, size=int(member.sum()))
            disc = make_disc(levels)
            mat = glszm_matrix(disc)
            expected = oracles.glszm_matrix_bf(
                disc.level_map, disc.roi.membership, disc.n_levels)
            assert np.array_equal(mat, expected)


class TestMeshWatertight:
    def test_volume_translation_invariant_on_many_masks(self):
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(200):
            m = rng.random((6, 6, 6)) < rng.uniform(0.2, 0.8)
            if not m.any():
                continue
            verts, faces = extract_mesh(m)
            if faces.shape[0] == 0:
                continue
            _, v1 = mesh_area_volume(verts, faces, (1, 1, 1))
            _, v2 = mesh_area_volume(verts + np.array([101.5, -77.25, 13.0]),
                                     faces, (1, 1, 1))
            assert v1 == pytest.approx(v2, abs=1e-7)
            checked += 1
        assert checked > 150

    def test_every_mesh_edge_shared_by_two_faces(self):
        # watertight and 2-manifold along edges: each undirected edge must
        # appear in exactly two triangles
        rng = np.random.default_rng(555)
        for _ in range(20):
            m = rng.random((6, 6, 6)) < 0.5
            if not m.any():
                continue
            verts, faces = extract_mesh(m)
            if faces.shape[0] == 0:
                continue
            edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                    faces[:, [2, 0]]])
            edges = np.sort(edges, axis=1)
            _, counts = np.unique(edges, axis=0, return_counts=True)
            assert set(counts.tolist()) == {2}


def _root_split(x, y):
    """(feature, threshold, gain, left row mask) of the grower's root split
    over every feature, or None when the root stays a leaf."""
    root, = TreeGrower(x).grow(y, np.arange(y.size)[None, :], 1, 2, None,
                               None)
    if root.feature is None:
        return None
    return (root.feature, root.threshold, root.gain,
            x[:, root.feature] <= root.threshold)


class TestSplitOracle:
    def test_best_split_matches_exhaustive_scan_multifeature(self):
        rng = np.random.default_rng(424)
        for _ in range(25):
            n = int(rng.integers(5, 30))
            p = int(rng.integers(2, 5))
            x = rng.random((n, p))
            y = rng.random(n)
            found = _root_split(x, y)
            best = None
            for j in range(p):
                values = np.unique(x[:, j])
                for a, b in zip(values[:-1], values[1:]):
                    thr = (a + b) / 2.0
                    left = y[x[:, j] <= thr]
                    right = y[x[:, j] > thr]
                    sse = (((left - left.mean()) ** 2).sum()
                           + ((right - right.mean()) ** 2).sum())
                    if best is None or sse < best[0] - 1e-12:
                        best = (sse, j, thr)
            if found is None:
                assert best is None or n < 2
                continue
            feature, threshold, gain, left_mask = found
            parent = ((y - y.mean()) ** 2).sum()
            assert parent - gain == pytest.approx(best[0], rel=1e-9,
                                                  abs=1e-12)
            # the same partition, even if a different feature ties
            oracle_mask = x[:, best[1]] <= best[2]
            same = np.array_equal(left_mask, oracle_mask) or \
                np.array_equal(left_mask, ~oracle_mask)
            if feature == best[1]:
                assert same
