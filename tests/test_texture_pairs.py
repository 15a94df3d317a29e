"""The one walk over the 13 directions and the families that read it.

``count_textures`` builds each direction's pairs once, as one flat shift of
its voxel numbering: GLCM counts them, GLRLM walks the chains of its
equal-level pairs, GLSZM labels the components of all directions' equal
pairs a round at a time and GLDM counts them. A seeded fuzz over level maps
compares all four count tables with the brute-force oracles, and the zone
labelling is checked against a flood fill.
"""

import importlib
import re

import numpy as np
import pytest

from radsurv.phantoms import PhantomSpec, gen_mask
from radsurv.radiomics import (RADIOMICS_FEATURE_NAMES, RadiomicsConfig,
                               discretize, extract_radiomics,
                               first_order_features, shape_features, texture)
from radsurv.radiomics.discretize import Binning, DiscretizationError
from radsurv.radiomics.shape import SHAPE_FEATURE_NAMES
from radsurv.radiomics.texture import (DIRECTIONS_13, TextureError, _hook,
                                       gldm_matrix, glcm_matrices,
                                       glrlm_matrices, glszm_matrix)
from radsurv.volumeio import derive_roi
from conftest import make_disc, make_roi, make_volume
import oracles

discretize_module = importlib.import_module("radsurv.radiomics.discretize")


class _HookCounter:
    """``numpy`` as ``texture`` sees it, with ``minimum.at`` (one call per
    ``_hook`` round) counted, and an error once ``cap`` is passed, so
    labelling that never runs out of edges fails instead of hanging."""

    def __init__(self, cap):
        self.rounds = 0
        counter = self

        class _Minimum:
            def __call__(self, *args, **kwargs):
                return np.minimum(*args, **kwargs)

            def at(self, *args):
                counter.rounds += 1
                if counter.rounds > cap:
                    raise AssertionError(f"more than {cap} hook rounds")
                np.minimum.at(*args)

        self.minimum = _Minimum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def hooks(monkeypatch):
    """Count (and cap at 200) the labelling rounds of ``_hook``."""
    counter = _HookCounter(cap=200)
    monkeypatch.setattr(texture, "np", counter)
    return counter


def _span_map(rng, d):
    """A run of level 1 across the whole box along ``d``: on the longest
    axis of a box for an axial d, corner to corner in a cube otherwise;
    every other voxel is outside the ROI or of level 2..4."""
    d = np.array(d)
    if np.abs(d).sum() == 1:
        dims = np.full(3, int(rng.integers(2, 4)))
        dims[np.flatnonzero(d)[0]] = int(rng.integers(5, 8))
    else:
        dims = np.full(3, int(rng.integers(3, 7)))
    level = rng.integers(2, 5, size=tuple(dims)) * (rng.random(tuple(dims))
                                                     < 0.7)
    start = np.where(d < 0, dims - 1, 0)
    length = int(dims.max())
    level[tuple((start + np.outer(np.arange(length), d)).T)] = 1
    return level


def _level_maps():
    """(name, level map) pairs: about 150 maps from one seed."""
    rng = np.random.default_rng(2929)
    maps = []
    for i in range(6):
        dims = tuple(int(s) for s in rng.integers(1, 4, size=3))
        level = np.zeros(dims, dtype=int)
        level[tuple(int(rng.integers(0, s)) for s in dims)] = i % 3 + 1
        maps.append((f"single{i}", level))
    for i in range(6):
        dims = tuple(int(s) for s in rng.integers(1, 6, size=3))
        member = np.ones(dims, bool) if i < 3 else rng.random(dims) < 0.6
        member.flat[0] = True
        maps.append((f"constant{i}", member * (i % 2 + 1)))
    for i in range(8):
        x, y, z = np.indices(tuple(int(s) for s in rng.integers(2, 7, size=3)))
        level = (1 + (x + y + z) % 2 if i % 2 else
                 1 + x % 2 + 2 * (y % 2) + 4 * (z % 2))
        if i >= 4:
            level = level * (rng.random(level.shape) < 0.8)
            level.flat[0] = 1
        maps.append((f"checker{i}", level))
    for i in range(20):
        dims = [int(s) for s in rng.integers(3, 7, size=3)]
        for axis in rng.choice(3, size=1 + i % 2, replace=False):
            dims[axis] = int(rng.integers(1, 3))
        level = rng.integers(1, 4, size=dims) * (rng.random(dims) < 0.8)
        level.flat[0] = 1
        maps.append((f"slab{i}", level))
    for i in range(26):
        maps.append((f"span{i}", _span_map(rng, DIRECTIONS_13[i % 13])))
    for i in range(84):
        dims = tuple(int(s) for s in rng.integers(1, 6, size=3))
        ng = int(rng.choice([1, 2, 3, 5, 8]))
        level = rng.integers(1, ng + 1, size=dims)
        level = level * (rng.random(dims) < rng.uniform(0.3, 1.0))
        level.flat[int(rng.integers(0, level.size))] = 1
        maps.append((f"random{i}", level))
    return maps


MAPS = _level_maps()


@pytest.mark.parametrize("name, level", MAPS, ids=[n for n, _ in MAPS])
def test_families_match_oracles(name, level, hooks):
    disc = make_disc(level)
    member, ng = disc.roi.membership, disc.n_levels

    # every pair of each direction, counted by its two levels
    assert len(glcm_matrices(disc)) == len(DIRECTIONS_13)
    for d, mat in zip(DIRECTIONS_13, glcm_matrices(disc)):
        assert np.array_equal(mat, oracles.glcm_matrix_bf(level, member, d,
                                                          ng)), d
    for d, mat in zip(DIRECTIONS_13, glrlm_matrices(disc)):
        want = oracles.glrlm_matrix_bf(level, member, d, ng,
                                       max(disc.roi.dims))
        assert np.array_equal(mat, want), d
    assert np.array_equal(glszm_matrix(disc),
                          oracles.glszm_matrix_bf(level, member, ng))
    assert np.array_equal(gldm_matrix(disc),
                          oracles.gldm_matrix_bf(level, member, ng, 0.0))


def _walk_cases():
    """(name, DiscretizedRoi) pairs: every level map above, Ng from 1 to 64
    on random maps and one-voxel-thick slabs, and scans binned by each
    rule."""
    for name, level in MAPS:
        yield name, make_disc(level)
    rng = np.random.default_rng(4444)
    for ng in range(1, 65):
        dims = [int(s) for s in rng.integers(2, 9, size=3)]
        if ng % 4 == 0:
            dims[ng // 4 % 3] = 1
        level = rng.integers(1, ng + 1, size=dims) * (rng.random(dims) < 0.85)
        level.flat[0] = ng
        yield f"ng{ng}", make_disc(level)
    for i in range(12):
        dims = tuple(int(s) for s in rng.integers(1, 9, size=3))
        member = rng.random(dims) < 0.7
        member.flat[int(rng.integers(0, member.size))] = True
        scan = rng.normal(100.0, 30.0, dims)
        binning = (Binning("fixed_bin_width", float(rng.uniform(2, 40)))
                   if i % 2 else Binning("fixed_bin_count",
                                         int(rng.integers(2, 65))))
        yield f"{binning.mode}{i}", discretize(make_volume(scan),
                                               make_roi(member), binning)


def test_walk_matches_the_former_gather():
    """Every ``TextureCounts`` table equals the walk that gathered voxel
    numbers and two level arrays per direction, byte for byte."""
    seen = set()
    for name, disc in _walk_cases():
        got = texture.count_textures(disc)
        want = oracles.count_textures_gather(disc)
        for table, old in ((got.glcm, want.glcm), (got.runs, want.runs),
                           (got.gldm, want.gldm), *zip(got.zones,
                                                       want.zones)):
            assert table.dtype == old.dtype and table.shape == old.shape
            assert table.tobytes() == old.tobytes(), name
        seen.add(disc.n_levels)
    assert seen >= set(range(1, 65))


def test_level_maps_cover_the_named_cases():
    kinds = [name.rstrip("0123456789") for name, _ in MAPS]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "single": 6, "constant": 6, "checker": 8, "slab": 20, "span": 26,
        "random": 84}
    # a slab one voxel thick has a direction that joins no pair
    assert any(0 in glcm_matrices(make_disc(level)).sum(axis=(1, 2))
               for name, level in MAPS if name.startswith("slab"))
    for name, level in MAPS:
        if name.startswith("span"):
            # one level-1 run as long as the box is wide, along its direction
            mats = glrlm_matrices(make_disc(level))
            assert mats[int(name[4:]) % 13][0, -1] == 1.0, name


def _components_bf(n, src, dst):
    """Flood fill from each unlabelled node in increasing order, so each
    component is labelled by its smallest node."""
    neighbors = [[] for _ in range(n)]
    for s, t in zip(src.tolist(), dst.tolist()):
        neighbors[s].append(t)
        neighbors[t].append(s)
    label = [-1] * n
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for u in neighbors[stack.pop()]:
                if label[u] < 0:
                    label[u] = root
                    stack.append(u)
    return label


def _graphs():
    """(name, n, src, dst): random graphs with self-loops and duplicate
    edges, edge-free graphs, and long chains under random node numbers."""
    rng = np.random.default_rng(77)
    graphs = [("no nodes", 0, [], []), ("one node", 1, [], []),
              ("no edges", 9, [], [])]
    for i in range(30):
        n = int(rng.integers(1, 60))
        src = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        dst = rng.integers(0, n, size=src.size)
        loops = rng.integers(0, n, size=3)
        twice = rng.integers(0, src.size, size=min(5, src.size))
        graphs.append((f"random{i}", n,
                       np.concatenate([src, loops, src[twice], dst[twice]]),
                       np.concatenate([dst, loops, dst[twice], src[twice]])))
    for i in range(4):
        n = 3000
        order = rng.permutation(n)
        cut = rng.choice(np.arange(1, n - 1), size=i, replace=False)
        keep = ~np.isin(np.arange(n - 1), cut)
        graphs.append((f"chains{i}", n, order[:-1][keep], order[1:][keep]))
    return graphs


GRAPHS = _graphs()


def _labels(n, src, dst, groups):
    """Labels as ``count_textures`` makes them: one ``_hook`` round per
    group of edges, then rounds over the edges still apart until none is
    left."""
    label, left = np.arange(n), []
    for part in np.array_split(np.arange(src.size), groups):
        label, a, b = _hook(label, src[part], dst[part])
        left.append((a, b))
    src, dst = (np.concatenate(ends) for ends in zip(*left))
    while src.size:
        label, src, dst = _hook(label, src, dst)
    return label


@pytest.mark.parametrize("name, n, src, dst", GRAPHS,
                         ids=[g[0] for g in GRAPHS])
def test_zone_labels_match_flood_fill(name, n, src, dst, hooks):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    want = _components_bf(n, src, dst)
    assert _labels(n, src, dst, 1).tolist() == want
    if name.startswith("chains"):
        assert hooks.rounds >= 4
    # a round per direction's worth of edges, in a shuffled order
    order = np.random.default_rng(n).permutation(src.size)
    assert _labels(n, src[order], dst[order], 13).tolist() == want


# ---------------------------------------------------------------------------
# the cached walk, against extract_radiomics' bytes

FAMILIES = {
    "shape": lambda vol, disc, alpha: dict(zip(
        SHAPE_FEATURE_NAMES, shape_features(disc.roi).as_vector().tolist())),
    "firstorder": lambda vol, disc, alpha: first_order_features(
        vol, disc.roi, disc),
    "glcm": lambda vol, disc, alpha: texture.glcm_features(disc),
    "glrlm": lambda vol, disc, alpha: texture.glrlm_features(disc),
    "glszm": lambda vol, disc, alpha: texture.glszm_features(disc),
    "gldm": lambda vol, disc, alpha: texture.gldm_features(disc, alpha),
    "ngtdm": lambda vol, disc, alpha: texture.ngtdm_features(disc),
}

ORDERS = (tuple(FAMILIES), tuple(reversed(FAMILIES)),
          ("gldm", "glszm", "ngtdm", "shape", "glrlm", "firstorder", "glcm"))


@pytest.fixture(scope="module")
def subject():
    """A sphere of radius 7 on a smooth scan with noise, so that runs and
    zones span many voxels and many pairs join two levels."""
    mask = gen_mask(PhantomSpec(shape="sphere", params=(7.0,),
                                center=(10, 10, 10), label_fill=2,
                                dims=(21, 21, 21)))
    smooth = np.sin(np.indices((21, 21, 21)).sum(axis=0) / 5.0)
    noise = np.random.default_rng(35).random((21, 21, 21))
    return make_volume(smooth + 0.3 * noise), mask


def _fresh_disc(vol, mask):
    return discretize(vol, derive_roi(mask, "WT"), RadiomicsConfig().binning)


def _slice(values, family):
    names = [n for n in RADIOMICS_FEATURE_NAMES if n.startswith(family + ".")]
    return np.array([values[n] for n in names])


@pytest.mark.parametrize("order", ORDERS, ids=["manifest", "reversed",
                                               "shuffled"])
def test_family_order_on_one_roi_keeps_the_bytes(subject, order):
    vol, mask = subject
    disc = _fresh_disc(vol, mask)
    values = {}
    for family in order:
        values.update(FAMILIES[family](vol, disc, 0.0))
    got = np.array([values[n] for n in RADIOMICS_FEATURE_NAMES])
    assert got.tobytes() == extract_radiomics(vol, mask).values.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_alone_keeps_its_bytes(subject, family):
    vol, mask = subject
    want = dict(zip(RADIOMICS_FEATURE_NAMES,
                    extract_radiomics(vol, mask).values.tolist()))
    alone = FAMILIES[family](vol, _fresh_disc(vol, mask), 0.0)
    assert _slice(alone, family).tobytes() == _slice(want, family).tobytes()


def test_gldm_at_every_alpha_after_the_walk(subject):
    vol, mask = subject
    disc = _fresh_disc(vol, mask)
    texture.glcm_features(disc)
    walk = disc.texture_counts
    member, ng = disc.roi.membership, disc.n_levels
    for alpha in (0.0, 0.5):
        want = extract_radiomics(vol, mask, RadiomicsConfig(gldm_alpha=alpha))
        want = dict(zip(RADIOMICS_FEATURE_NAMES, want.values.tolist()))
        got = texture.gldm_features(disc, alpha)
        assert _slice(got, "gldm").tobytes() == \
            _slice(want, "gldm").tobytes(), alpha
        assert np.array_equal(gldm_matrix(disc), oracles.gldm_matrix_bf(
            disc.level_map, member, ng, alpha)), alpha
    assert disc.texture_counts is walk


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 2.5, float("nan"),
                                   float("inf"), float("-inf")])
def test_gldm_rejects_an_alpha_outside_the_unit_interval(subject, alpha):
    """Such an alpha used to walk the directions again; NaN compared false
    with every level difference, so each voxel counted as isolated."""
    vol, mask = subject
    with pytest.raises(TextureError, match=re.escape(
            f"GLDM alpha must be in [0, 1), got {alpha!r}")):
        texture.gldm_features(_fresh_disc(vol, mask), alpha)
    with pytest.raises(TextureError, match=re.escape(
            f"gldm: GLDM alpha must be in [0, 1), got {alpha!r}")):
        extract_radiomics(vol, mask, RadiomicsConfig(gldm_alpha=alpha))


def test_directions_are_walked_once_per_roi(subject, monkeypatch):
    """Every family reads one walk."""
    vol, mask = subject
    walks = []
    count_textures = discretize_module.count_textures

    def counted(disc):
        walks.append(disc)
        return count_textures(disc)

    monkeypatch.setattr(discretize_module, "count_textures", counted)
    disc = _fresh_disc(vol, mask)
    for family in ORDERS[0]:
        FAMILIES[family](vol, disc, 0.5)
    assert len(walks) == 1


def test_empty_roi_is_rejected_before_the_walk():
    with pytest.raises(DiscretizationError, match="empty ROI"):
        make_disc(np.zeros((2, 3, 2))).texture_counts


def test_walk_tables_are_read_only(subject):
    vol, mask = subject
    walk = _fresh_disc(vol, mask).texture_counts
    for table in (walk.glcm, walk.runs, walk.gldm, *walk.zones):
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 1
