import numpy as np
import pytest

from radsurv.imagefeat import (ImageFeatures, _centroid,
                               extract_image_features, mask_summary,
                               roi_surface_area_facecount, roi_volume)
from radsurv.phantoms import PhantomSpec, gen_mask
from radsurv.volumeio import ROI_KINDS, LabelMask, SubjectRecord, derive_roi
from conftest import make_mask, make_roi
import oracles


class TestRoiVolume:
    def test_cuboid_unit_spacing(self):
        m = np.zeros((10, 10, 10), dtype=bool)
        m[1:5, 1:7, 1:9] = True   # 4*6*8 = 192 voxels
        assert roi_volume(make_roi(m)) == 192.0

    def test_cuboid_anisotropic_spacing(self):
        m = np.zeros((10, 10, 10), dtype=bool)
        m[1:5, 1:7, 1:9] = True
        assert roi_volume(make_roi(m, spacing=(1, 1, 2))) == 384.0

    def test_empty_roi(self):
        assert roi_volume(make_roi(np.zeros((3, 3, 3), dtype=bool))) == 0.0


class TestSurfaceArea:
    def test_solid_cube(self):
        m = np.zeros((6, 6, 6), dtype=bool)
        m[1:5, 1:5, 1:5] = True
        assert roi_surface_area_facecount(make_roi(m)) == 6 * 16.0

    def test_single_voxel_anisotropic(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        # faces: 2*(2*3 + 1*3 + 1*2) = 22
        assert roi_surface_area_facecount(make_roi(m, spacing=(1, 2, 3))) == 22.0

    def test_two_adjacent_voxels(self):
        m = np.zeros((4, 3, 3), dtype=bool)
        m[1, 1, 1] = m[2, 1, 1] = True
        assert roi_surface_area_facecount(make_roi(m)) == 10.0

    def test_grid_boundary_faces_exposed(self):
        m = np.ones((2, 2, 2), dtype=bool)
        assert roi_surface_area_facecount(make_roi(m)) == 24.0


class TestExtractImageFeatures:
    def test_nested_spheres_monotone(self):
        labels = np.zeros((30, 30, 30), dtype=np.int16)
        idx = np.indices(labels.shape).reshape(3, -1).T
        r2 = np.sum((idx - 14.5) ** 2, axis=1).reshape(labels.shape)
        labels[r2 <= 100] = 2
        labels[r2 <= 49] = 1
        labels[r2 <= 16] = 4
        mask = make_mask(labels)
        feats = extract_image_features(mask, SubjectRecord("s", age=60.0))
        assert feats.vol_wt > feats.vol_tc > feats.vol_et > 0
        assert feats.as_vector()[6] == 60.0
        # cross-check each slot against per-ROI computation
        for kind, vol, surf in (("WT", feats.vol_wt, feats.surf_wt),
                                ("TC", feats.vol_tc, feats.surf_tc),
                                ("ET", feats.vol_et, feats.surf_et)):
            roi = derive_roi(mask, kind)
            assert vol == roi_volume(roi)
            assert surf == roi_surface_area_facecount(roi)

    def test_all_zero_mask(self):
        mask = make_mask(np.zeros((4, 4, 4)))
        feats = extract_image_features(mask, SubjectRecord("s", age=41.0))
        assert np.array_equal(feats.as_vector(),
                              [0, 0, 0, 0, 0, 0, 41.0])

    def test_edema_only_mask(self):
        labels = np.zeros((5, 5, 5))
        labels[2, 2, 2] = 2
        feats = extract_image_features(make_mask(labels),
                                       SubjectRecord("s", age=50.0))
        assert feats.vol_wt > 0
        assert feats.vol_tc == feats.vol_et == 0.0

    def test_nesting_invariant_enforced(self):
        with pytest.raises(ValueError):
            ImageFeatures(vol_wt=1, vol_tc=2, vol_et=0,
                          surf_wt=1, surf_tc=1, surf_et=1, age=50)


class TestMaskSummary:
    def test_one_voxel_per_label(self):
        labels = np.zeros((8, 8, 8))
        labels[1, 2, 3] = 1
        labels[4, 4, 4] = 2
        labels[6, 1, 2] = 4
        s = mask_summary(make_mask(labels))
        assert (s.amount_necrotic, s.amount_edema, s.amount_enhancing) == \
            (1.0, 1.0, 1.0)
        assert s.centroid_necrosis == (1.0, 2.0, 3.0)

    def test_extent_count_based(self):
        labels = np.zeros((8, 8, 8))
        labels[2:6, 3, 3] = 2   # x indices 2..5 inclusive
        s = mask_summary(make_mask(labels))
        assert s.extent == (4.0, 1.0, 1.0)

    def test_sphere_centroid_analytic(self):
        spec = PhantomSpec(shape="sphere", params=(7.0,), center=(11, 12, 13),
                           label_fill=2, dims=(26, 26, 26))
        s = mask_summary(gen_mask(spec))
        assert np.all(np.abs(np.array(s.centroid_wt) - (11, 12, 13)) <= 0.5)

    def test_missing_centroids(self):
        labels = np.zeros((4, 4, 4))
        labels[1, 1, 1] = 2   # no necrosis anywhere
        s = mask_summary(make_mask(labels))
        assert s.centroid_necrosis is None
        assert s.centroid_wt == (1.0, 1.0, 1.0)
        vec = s.as_vector()
        assert np.isnan(vec[-3:]).all()

    def test_empty_mask(self):
        s = mask_summary(make_mask(np.zeros((3, 3, 3))))
        assert s.extent == (0.0, 0.0, 0.0)
        assert s.centroid_wt is None


def _label_grids():
    """30 seeded label grids, each in C and in Fortran order: anisotropic
    spacing, non-zero origins, no label 1, empty WT, WT on grid faces."""
    rng = np.random.default_rng(515)
    vocabulary = np.array([0, 1, 2, 4], dtype=np.int16)
    for case in range(30):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
        labels = rng.choice(vocabulary, size=shape, p=(0.55, 0.15, 0.15, 0.15))
        kind = case % 4
        if kind == 1:
            labels[labels == 1] = 4
        elif kind == 2:
            labels[...] = 0
        elif kind == 3:
            labels[0] = 2
            labels[:, -1] = 4
            labels[:, :, 0] = 1
        spacing = (tuple(rng.uniform(0.4, 2.6, 3)) if case % 3
                   else (1.0, 1.0, 1.0))
        origin = (tuple(rng.uniform(-120.0, 120.0, 3)) if case % 5
                  else (0.0, 0.0, 0.0))
        for order in "CF":
            yield np.asarray(labels, order=order), spacing, origin


class TestAgainstWholeGridFormulas:
    def test_bits_match_isin_and_nonzero(self):
        grids = list(_label_grids())
        assert len(grids) == 60
        for labels, spacing, origin in grids:
            mask = make_mask(labels, spacing=spacing, origin=origin)
            got = np.concatenate([
                extract_image_features(mask, SubjectRecord("s", age=61.5))
                .as_vector(), mask_summary(mask).as_vector()])
            want = (oracles.image_features_bf(labels, mask.spacing, 61.5)
                    + oracles.mask_summary_bf(labels, mask.spacing,
                                              mask.origin))
            assert [float(x).hex() for x in got] == \
                [float(x).hex() for x in want], (labels.shape, spacing)


def _crop_cases():
    """Seeded label grids for the tumor crop: a random labelled sub-box that
    touches each of the six grid faces in turn, grids without TC (so no ET
    and no necrosis), without ET, without necrosis, an all-background grid
    and the 1x1x1 grids."""
    rng = np.random.default_rng(707)
    vocabulary = np.array([0, 1, 2, 4], dtype=np.int16)
    for case in range(54):
        shape = tuple(int(n) for n in rng.integers(2, 10, size=3))
        labels = np.zeros(shape, dtype=np.int16)
        lo = [int(rng.integers(0, n)) for n in shape]
        hi = [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, shape)]
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        labels[box] = rng.choice(vocabulary, size=labels[box].shape,
                                 p=(0.3, 0.2, 0.3, 0.2))
        variant = case % 9
        if variant < 6:                      # a voxel on one grid face
            face = [int(rng.integers(0, n)) for n in shape]
            face[variant // 2] = -(variant % 2)
            labels[tuple(face)] = 2
        elif variant == 6:
            labels[labels > 0] = 2
        elif variant == 7:
            labels[labels == 4] = 1
        else:
            labels[labels == 1] = 4
        yield labels, tuple(rng.uniform(0.3, 3.0, 3)), \
            tuple(rng.uniform(-150.0, 150.0, 3))
    yield np.zeros((6, 5, 4), dtype=np.int16), (1.0, 2.0, 0.5), (3.0, 0.0, -1.0)
    for label in (0, 1, 2, 4):
        yield np.full((1, 1, 1), label, dtype=np.int16), (0.7, 1.1, 2.3), \
            (-4.0, 12.5, 0.1)


class TestCropAgainstWholeGrid:
    def test_vectors_byte_identical(self):
        faces = set()
        for labels, spacing, origin in _crop_cases():
            occupied = np.argwhere(labels > 0)
            for axis in range(3):
                if occupied.size and occupied[:, axis].min() == 0:
                    faces.add((axis, 0))
                if occupied.size and \
                        occupied[:, axis].max() == labels.shape[axis] - 1:
                    faces.add((axis, 1))
            mask = make_mask(labels, spacing=spacing, origin=origin)
            got = extract_image_features(mask, SubjectRecord("s", age=47.25))
            want = oracles.extract_image_features_full(mask, 47.25)
            assert got.as_vector().tobytes() == want.as_vector().tobytes()
            got = mask_summary(mask)
            want = oracles.mask_summary_full(mask)
            assert got.as_vector().tobytes() == want.as_vector().tobytes(), \
                (labels.shape, spacing, origin)
        assert len(faces) == 6


def _label_boxes():
    """Seeded label boxes in u1 and int16, each in C and Fortran order, at
    a corner of a larger grid: random labels, boxes lacking one label or
    all of them (empty regions), one voxel, and boxes far from the origin
    whose index sums are large."""
    rng = np.random.default_rng(4343)
    vocabulary = np.array([0, 1, 2, 4])
    for case in range(48):
        shape = tuple(int(n) for n in rng.integers(1, 12 if case % 6 else 40,
                                                   size=3))
        labels = rng.choice(vocabulary, size=shape, p=(0.4, 0.2, 0.2, 0.2))
        variant = case % 8
        if variant < 4:
            labels[labels == vocabulary[variant]] = 0
        elif variant == 4:
            labels[...] = 0
        elif variant == 5:
            labels = labels[:1, :1, :1]
        corner = tuple(int(c) for c in rng.integers(0, 300 if case % 3
                                                    else 2, size=3))
        dims = tuple(c + n + int(rng.integers(0, 3))
                     for c, n in zip(corner, labels.shape))
        spacing = tuple(rng.uniform(0.3, 3.0, 3))
        origin = tuple(rng.uniform(-150.0, 150.0, 3))
        for dtype in (np.uint8, np.int16):
            for order in "CF":
                yield LabelMask(dims=dims, spacing=spacing, origin=origin,
                                labels=np.asarray(labels, dtype, order=order),
                                corner=corner)


class TestAgainstFormerRegionPaths:
    def test_regions_and_centroids_match_isin_and_mean(self):
        """``derive_roi`` equals the ``np.isin`` region and ``_centroid``
        the ``np.mean`` centroid, bit for bit, for every ROI kind."""
        empty = 0
        for mask in _label_boxes():
            for kind in ROI_KINDS:
                got, want = derive_roi(mask, kind), \
                    oracles.derive_roi_isin(mask, kind)
                assert got.membership.dtype == want.membership.dtype
                assert got.membership.tobytes() == \
                    want.membership.tobytes(), kind
                assert (got.corner, got.dims, got.spacing, got.origin) == \
                    (want.corner, want.dims, want.spacing, want.origin)
                centroid = _centroid(got)
                assert centroid == oracles.centroid_mean(want), kind
                if centroid is None:
                    empty += 1
                else:
                    assert [c.hex() for c in centroid] == \
                        [c.hex() for c in oracles.centroid_mean(want)]
        assert empty > 0


class TestProperties:
    def test_spacing_scaling_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            labels = rng.choice([0, 2], size=(6, 6, 6), p=[0.5, 0.5])
            m1 = make_mask(labels, spacing=(1.0, 0.5, 2.0))
            m2 = make_mask(labels, spacing=(2.0, 1.0, 4.0))
            f1 = extract_image_features(m1, SubjectRecord("s", age=55.0))
            f2 = extract_image_features(m2, SubjectRecord("s", age=55.0))
            assert f2.vol_wt == 8.0 * f1.vol_wt
            assert f2.surf_wt == 4.0 * f1.surf_wt

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        labels = np.zeros((12, 12, 12), dtype=np.int16)
        labels[2:5, 2:5, 2:5] = rng.choice([1, 2, 4], size=(3, 3, 3))
        shifted = np.roll(labels, (3, 2, 1), axis=(0, 1, 2))
        rec = SubjectRecord("s", age=60.0)
        f1 = extract_image_features(make_mask(labels), rec)
        f2 = extract_image_features(make_mask(shifted), rec)
        assert np.array_equal(f1.as_vector(), f2.as_vector())
        s1 = mask_summary(make_mask(labels))
        s2 = mask_summary(make_mask(shifted))
        assert np.array_equal(np.array(s2.centroid_wt),
                              np.array(s1.centroid_wt) + (3, 2, 1))

    def test_centroids_inside_bounding_box(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            labels = rng.choice([0, 1, 2, 4], size=(7, 7, 7),
                                p=[0.7, 0.1, 0.1, 0.1])
            mask = make_mask(labels, spacing=(1.0, 0.8, 1.3))
            s = mask_summary(mask)
            if s.centroid_wt is None:
                continue
            wt = np.isin(labels, (1, 2, 4))
            idx = np.nonzero(wt)
            for a in range(3):
                lo = idx[a].min() * mask.spacing[a]
                hi = idx[a].max() * mask.spacing[a]
                assert lo <= s.centroid_wt[a] <= hi

    def test_monotonicity_add_voxel(self):
        labels = np.zeros((6, 6, 6))
        labels[2, 2, 2] = 2
        v1 = roi_volume(derive_roi(make_mask(labels), "WT"))
        labels[2, 2, 3] = 2
        v2 = roi_volume(derive_roi(make_mask(labels), "WT"))
        assert v2 > v1
