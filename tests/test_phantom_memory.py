"""Digitizing a phantom holds no voxel-coordinate grid: the inclusion test
runs on per-axis coordinate vectors over the shape's index box, so one
BraTS-sized ``gen_mask`` stays below half of one float64 copy of its grid
(the int16 labels take a quarter)."""

import tracemalloc

from radsurv.phantoms import PhantomSpec, gen_mask


def test_gen_mask_peak_stays_below_half_a_float64_grid():
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
    assert peak < 4 * voxels, f"{peak / 2**20:.1f} MiB traced"
