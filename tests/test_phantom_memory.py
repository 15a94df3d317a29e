"""Digitizing a phantom holds no voxel-coordinate grid: the inclusion test
runs on per-axis coordinate vectors, so one BraTS-sized ``gen_mask`` stays
well below two float64 copies of its grid."""

import tracemalloc

from radsurv.phantoms import PhantomSpec, gen_mask


def test_gen_mask_peak_stays_below_two_float64_grids():
    dims = (240, 240, 155)
    spec = PhantomSpec(shape="ellipsoid", params=(60.0, 50.0, 40.0),
                       center=(119.5, 119.5, 77.0), dims=dims)
    voxels = dims[0] * dims[1] * dims[2]

    tracemalloc.start()
    try:
        gen_mask(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * voxels, f"{peak / 2**20:.1f} MiB traced"
