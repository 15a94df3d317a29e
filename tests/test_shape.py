import hashlib

import numpy as np
import pytest

from radsurv.imagefeat import roi_volume
from radsurv.phantoms import PhantomSpec, gen_mask
from radsurv.radiomics import shape_features
from radsurv.radiomics.shape import (ShapeError, _diameters, _line_ends,
                                    _max_distance_within,
                                    _max_pairwise_distance, _surface_mask,
                                    extract_mesh, mesh_area_volume,
                                    taubin_smooth)
from radsurv.volumeio import derive_roi
from conftest import make_roi, traced_peak
import oracles


def sphere_roi(radius=10.0, dims=(25, 25, 25), center=(12, 12, 12)):
    mask = gen_mask(PhantomSpec(shape="sphere", params=(radius,),
                                center=center, label_fill=2, dims=dims))
    return derive_roi(mask, "WT")


class TestSpherePhantom:
    def test_canonical_sphere_descriptors(self):
        sd = shape_features(sphere_roi())
        analytic_volume = 4.0 / 3.0 * np.pi * 1000.0
        assert abs(sd.mesh_volume - analytic_volume) / analytic_volume < 0.02
        assert sd.sphericity >= 0.97
        assert abs(sd.elongation - 1.0) <= 0.03
        assert abs(sd.flatness - 1.0) <= 0.03
        assert sd.surface_volume_ratio == pytest.approx(
            sd.surface_area / sd.mesh_volume, rel=1e-12)

    def test_voxel_volume_matches_roi_volume(self):
        roi = sphere_roi()
        assert shape_features(roi).voxel_volume == roi_volume(roi)

    def test_diameters_close_to_analytic(self):
        sd = shape_features(sphere_roi())
        for d in (sd.max_3d_diameter, sd.max_2d_diameter_slice,
                  sd.max_2d_diameter_row, sd.max_2d_diameter_column):
            assert 18.0 <= d <= 20.5
        assert sd.max_3d_diameter >= sd.max_2d_diameter_slice
        assert sd.max_3d_diameter >= sd.max_2d_diameter_row
        assert sd.max_3d_diameter >= sd.max_2d_diameter_column


class TestCuboidLimit:
    def test_covariance_axis_ratios(self):
        m = np.zeros((44, 24, 14), dtype=bool)
        m[2:42, 2:22, 2:12] = True   # 40 x 20 x 10 voxel box
        sd = shape_features(make_roi(m))
        assert sd.elongation == pytest.approx(0.5, rel=0.05)
        assert sd.flatness == pytest.approx(0.25, rel=0.05)
        assert 0 < sd.flatness <= sd.elongation <= 1.0


class TestDegenerateRois:
    def test_two_voxel_diameter_and_fallbacks(self):
        m = np.zeros((5, 6, 2), dtype=bool)
        m[0, 0, 0] = m[3, 4, 0] = True
        sd = shape_features(make_roi(m))
        assert sd.max_3d_diameter == 5.0
        assert sd.mesh_volume == 2.0       # voxel-count fallback
        assert sd.surface_area == 12.0     # exposed-face fallback

    def test_single_voxel_maximally_round(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        sd = shape_features(make_roi(m))
        assert sd.elongation == 1.0
        assert sd.flatness == 1.0
        assert sd.mesh_volume == 1.0
        assert sd.surface_area == 6.0

    def test_planar_roi_uses_fallback(self):
        m = np.zeros((6, 6, 3), dtype=bool)
        m[1:5, 1:5, 1] = True
        sd = shape_features(make_roi(m))
        assert sd.mesh_volume == 16.0

    def test_empty_roi_rejected(self):
        with pytest.raises(ShapeError):
            shape_features(make_roi(np.zeros((3, 3, 3), dtype=bool)))


class TestMeshInternals:
    def test_mesh_closed_translation_invariant_volume(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = rng.random((7, 7, 7)) < 0.4
            if not m.any():
                continue
            verts, faces = extract_mesh(m)
            if faces.shape[0] == 0:
                continue
            _, v1 = mesh_area_volume(verts, faces, (1, 1, 1))
            _, v2 = mesh_area_volume(verts + np.array([9.5, -3.25, 40.0]),
                                     faces, (1, 1, 1))
            assert v1 == pytest.approx(v2, abs=1e-9)

    def test_sphericity_bounded(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            m = rng.random((8, 8, 8)) < 0.5
            if not m.any():
                continue
            sd = shape_features(make_roi(m))
            assert 0.0 < sd.sphericity <= 1.0 + 0.01


def _mesh_fixtures():
    yield "sphere", sphere_roi().membership
    m = np.zeros((44, 24, 14), dtype=bool)
    m[2:42, 2:22, 2:12] = True
    yield "cuboid", m
    yield "noise_7", np.random.default_rng(31).random((7, 7, 7)) < 0.4
    m = np.random.default_rng(13).random((9, 9, 9)) < 0.45
    m[4, 4, 4] = True
    yield "noise_9", m
    yield "noise_9_permuted", np.transpose(m, (2, 0, 1))
    m = np.zeros((3, 3, 3), dtype=bool)
    m[1, 1, 1] = True
    yield "single_voxel", m
    yield "empty", np.zeros((3, 3, 3), dtype=bool)


# sha256 of the dtype, shape and bytes of extract_mesh's vertices and faces,
# recorded while the triangles were still built one cube case at a time; the
# face order (case, then triangle, then cube) sets the bits of the area and
# volume sums
MESH_DIGESTS = {
    "sphere":
        "1520c8aa4e63f266164e7f15ace4577214e3001986db5fee6d91fc00bcea7c8e",
    "cuboid":
        "ad6e7a1686a0ecf0148f03f8dc0e839f1f429bedd116dee9c8e744eeed7ae402",
    "noise_7":
        "00dbce8f12d27009cf8ac4158cb09f93f2ed9f57a4da53649d39bdf629ffda52",
    "noise_9":
        "c920323338c86b6f5859d6a21074759f44b22771518e5d0fc094eaa645339a40",
    "noise_9_permuted":
        "a3fd90bab26b03420ef32834f168d881d79a04cdf3fb758c8f9c5435338b0d10",
    "single_voxel":
        "9edf4e7998482cdcd1fc986e9fd7305df34e8bb32afcc3929157e79f991459ee",
    "empty":
        "3d19bc513aade80bb9cf30a6f33614135c418541a0d867fdd8f2bcd66a938822",
}


def test_mesh_digests():
    got = {}
    for name, m in _mesh_fixtures():
        h = hashlib.sha256()
        for a in extract_mesh(m):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        got[name] = h.hexdigest()
    assert got == MESH_DIGESTS


def _taubin_meshes():
    """(name, vertices, faces): the meshes the smoothing is checked on."""
    m = gen_mask(PhantomSpec(shape="ellipsoid", params=(7.0, 5.5, 4.0),
                             center=(9.0, 8.0, 7.0), dims=(19, 17, 15)))
    yield ("ellipsoid", *extract_mesh(m.labels > 0))
    # 45% noise: ambiguous cube cases and vertices of high degree
    noise = np.random.default_rng(41).random((12, 11, 10)) < 0.45
    yield ("noise", *extract_mesh(noise))
    blobs = np.zeros((14, 8, 8), dtype=bool)
    blobs[1:5, 2:6, 1:6] = True
    blobs[8:13, 1:4, 3:7] = True
    yield ("two_blobs", *extract_mesh(blobs))
    one = np.zeros((1, 1, 1), dtype=bool)
    one[0, 0, 0] = True
    yield ("single_voxel", *extract_mesh(one))
    vertices, faces = extract_mesh(noise)
    perm = np.random.default_rng(42).permutation(len(vertices))
    shuffled = np.empty_like(vertices)
    shuffled[perm] = vertices
    yield ("shuffled", shuffled, perm[faces])
    vertices, faces = extract_mesh(blobs)
    lone = np.vstack([vertices, [[50.5, -3.0, 7.25]]])   # in no face
    yield ("unreferenced_vertex", lone, faces)


class TestTaubinTable:
    def test_bits_equal_bincount_oracle(self):
        for name, vertices, faces in _taubin_meshes():
            got = taubin_smooth(vertices, faces)
            want = oracles.taubin_via_bincount(vertices, faces)
            assert got.shape == want.shape and got.flags.c_contiguous, name
            assert got.tobytes() == want.tobytes(), name

    def test_peak_no_higher_than_bincount_oracle(self):
        # the extract_brats smooth lobe: about 12k vertices and 25k faces
        m = gen_mask(PhantomSpec(shape="ellipsoid", params=(30, 26, 22),
                                 center=(31.0, 27.0, 23.0), dims=(63, 55, 47)))
        vertices, faces = extract_mesh(m.labels > 0)
        assert len(vertices) > 10000
        got, peak = traced_peak(lambda: taubin_smooth(vertices, faces))
        want, oracle_peak = traced_peak(
            lambda: oracles.taubin_via_bincount(vertices, faces))
        assert got.tobytes() == want.tobytes()
        assert peak <= oracle_peak


class TestAxisPermutation:
    def test_isotropic_permutation_consistency(self):
        rng = np.random.default_rng(13)
        m = rng.random((9, 9, 9)) < 0.45
        m[4, 4, 4] = True
        sd = shape_features(make_roi(m))
        perm = shape_features(make_roi(np.transpose(m, (2, 0, 1))))
        for attr in ("voxel_volume", "major_axis_length", "minor_axis_length",
                     "least_axis_length", "elongation", "flatness",
                     "max_3d_diameter"):
            assert getattr(perm, attr) == pytest.approx(
                getattr(sd, attr), rel=1e-9), attr
        # mesh metrics carry the documented ambiguity-resolution tolerance;
        # a 45%-density noise blob is the worst case (smooth shapes ~0.05%)
        for attr in ("mesh_volume", "surface_area", "sphericity"):
            assert getattr(perm, attr) == pytest.approx(
                getattr(sd, attr), rel=2e-2), attr
        diam_orig = sorted([sd.max_2d_diameter_slice, sd.max_2d_diameter_row,
                            sd.max_2d_diameter_column])
        diam_perm = sorted([perm.max_2d_diameter_slice,
                            perm.max_2d_diameter_row,
                            perm.max_2d_diameter_column])
        assert np.allclose(diam_orig, diam_perm, rtol=1e-9)


def _diameter_cases():
    """Seeded masks: noise, lobulated ellipsoids, lines, planes and one- and
    two-voxel ROIs."""
    rng = np.random.default_rng(2017)
    cases = []
    for _ in range(6):
        shape = tuple(int(s) for s in rng.integers(3, 10, size=3))
        m = rng.random(shape) < rng.uniform(0.2, 0.8)
        m.flat[int(rng.integers(m.size))] = True
        cases.append(m)
    grid = np.moveaxis(np.indices((14, 13, 12)), 0, -1)
    for _ in range(4):
        m = np.zeros(grid.shape[:3], dtype=bool)
        for _ in range(int(rng.integers(2, 4))):
            center = rng.uniform(4.0, 8.0, size=3)
            axes = rng.uniform(1.5, 4.5, size=3)
            m |= (((grid - center) / axes) ** 2).sum(axis=-1) <= 1.0
        cases.append(m)
    for line in ((slice(1, 7), 2, 3), (4, slice(0, 9), 1), (0, 0, slice(2, 5))):
        m = np.zeros((8, 9, 6), dtype=bool)
        m[line] = True
        cases.append(m)
    diagonal = np.zeros((6, 6, 6), dtype=bool)
    diagonal[np.arange(6), np.arange(6), 5 - np.arange(6)] = True
    cases.append(diagonal)
    for axis in range(3):
        m = np.zeros((10, 9, 8), dtype=bool)
        window = [slice(1, -1)] * 3
        window[axis] = 2
        m[tuple(window)] = rng.random(m[tuple(window)].shape) < 0.7
        m[1, 1, 1] = m[2, 2, 2] = m[3, 2, 2] = False
        m[tuple(2 if a == axis else 1 for a in range(3))] = True
        cases.append(m)
    for voxels in (((2, 1, 3),), ((0, 0, 0), (1, 1, 1)),
                   ((0, 4, 2), (3, 0, 2)), ((1, 2, 0), (1, 2, 4))):
        m = np.zeros((4, 5, 5), dtype=bool)
        for v in voxels:
            m[v] = True
        cases.append(m)
    return cases


class TestDiametersAgainstAllPairs:
    @pytest.mark.parametrize("spacing, origin", [
        ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ((0.7, 1.3, 2.5), (-12.5, 3.25, 100.0)),
    ])
    def test_equal_to_all_pairs_oracle(self, spacing, origin):
        for m in _diameter_cases():
            sd = shape_features(make_roi(m, spacing=spacing, origin=origin))
            got = (sd.max_3d_diameter, sd.max_2d_diameter_slice,
                   sd.max_2d_diameter_column, sd.max_2d_diameter_row)
            assert got == oracles.max_diameters_bf(m, spacing), m.shape


class TestDiameterBlocks:
    @pytest.mark.parametrize("spacing, origin", [
        ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ((0.7, 1.3, 2.5), (-12.5, 3.25, 100.0)),
    ])
    def test_many_extremal_points_take_several_blocks(self, spacing, origin):
        # every voxel of the plane i + j + k = 30 is alone on each of its
        # axis lines, so all 412 are 3D diameter candidates: more than one
        # block of 65536 // 412 = 159 rows
        i, j, k = np.indices((24, 24, 24))
        m = i + j + k == 30
        surface = _surface_mask(m)
        candidates = np.logical_and.reduce(
            [_line_ends(surface, axis) for axis in range(3)])
        assert np.count_nonzero(candidates) == 412
        sd = shape_features(make_roi(m, spacing=spacing, origin=origin))
        got = (sd.max_3d_diameter, sd.max_2d_diameter_slice,
               sd.max_2d_diameter_column, sd.max_2d_diameter_row)
        assert got == oracles.max_diameters_bf(m, spacing)


def _ellipsoids(shape, lobes):
    """Union of the ellipsoids ``(center, semi-axes)`` on a voxel grid."""
    grid = np.moveaxis(np.indices(shape), 0, -1)
    m = np.zeros(shape, dtype=bool)
    for center, axes in lobes:
        m |= (((grid - center) / axes) ** 2).sum(axis=-1) <= 1.0
    return m


def _pruning_cases():
    """Large candidate sets: BraTS-sized lobulated ROIs, smooth and eroded,
    digitized spheres full of near-ties, thin slabs along each axis and the
    412-candidate plane."""
    lobes = [((32.0, 28.0, 24.0), (24.0, 21.0, 18.0)),
             ((52.0, 37.0, 28.0), (9.0, 13.0, 11.0)),
             ((19.0, 44.0, 17.0), (13.0, 11.0, 9.0))]
    lobulated = _ellipsoids((64, 58, 46), lobes)
    yield "lobulated", lobulated
    eroded = lobulated & (np.random.default_rng(5).random(lobulated.shape)
                          < 0.9)
    yield "lobulated_eroded", eroded
    yield "sphere_r20", _ellipsoids((43, 43, 43), [((21.0,) * 3, (20.0,) * 3)])
    yield "sphere_r15_half", _ellipsoids((33, 33, 33),
                                         [((15.5,) * 3, (15.0,) * 3)])
    disc = _ellipsoids((60, 50, 1), [((29.0, 24.0, 0.0), (27.0, 20.0, 1.0)),
                                     ((45.0, 37.0, 0.0), (12.0, 10.0, 1.0))])
    for axis in range(3):
        yield f"slab_{axis}", np.moveaxis(np.repeat(disc, 2, axis=2), 2, axis)
    i, j, k = np.indices((24, 24, 24))
    yield "plane_412", i + j + k == 30


def _unpruned_diameters(m, offset, spacing):
    """(3d, slice, column, row): ``_max_pairwise_distance`` over every
    line-end candidate, and over every plane's candidates."""
    surface = _surface_mask(m)
    ends = [_line_ends(surface, axis) for axis in range(3)]

    def points(candidates):
        return (np.argwhere(candidates) + offset).astype(np.float64) * spacing

    got = [_max_pairwise_distance(points(ends[0] & ends[1] & ends[2]))]
    for axis in (2, 1, 0):
        a, b = (x for x in range(3) if x != axis)
        pts = points(ends[a] & ends[b])
        got.append(max(_max_pairwise_distance(pts[pts[:, axis] == v])
                       for v in np.unique(pts[:, axis])))
    return tuple(got)


class TestPrunedDiameterSearch:
    @pytest.mark.parametrize("spacing, offset", [
        ((1.0, 1.0, 1.0), (0, 0, 0)),
        ((0.7, 1.3, 2.5), (17, 3, 40)),
        ((1.0, 1.0, 3.0), (90, 101, 60)),
        ((0.9375, 0.9375, 1.2), (5, 120, 7)),
    ])
    def test_equal_to_every_candidate(self, spacing, offset):
        spacing, offset = np.array(spacing), np.array(offset)
        for name, m in _pruning_cases():
            max3d, plane = _diameters(m, offset, spacing)
            got = (max3d, plane["slice"], plane["column"], plane["row"])
            assert got == _unpruned_diameters(m, offset, spacing), name

    def test_stop_bound_of_a_later_segment(self):
        # the triangle's centre is farther from its corners (side / sqrt 3)
        # than the pair's is from its ends, so the triangle is visited
        # first; the pair, 1e-4 longer than a side, must still be visited
        side = 10.0
        triangle = side * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                    [0.5, np.sqrt(0.75), 0.0]])
        pair = np.array([[0.0, 0.0, 5.0], [side * (1 + 1e-4), 0.0, 5.0]])
        for segments in ([triangle, pair], [pair, triangle],
                         [pair, triangle, triangle[:1], pair + 1.0]):
            points = np.concatenate(segments)
            counts = np.array([len(s) for s in segments])
            want = max(_max_pairwise_distance(s) for s in segments)
            assert want == _max_pairwise_distance(pair)
            assert _max_distance_within(points, counts) == want
