"""Extraction holds no float64 copy of a whole scan grid: the scan keeps
its samples as stored, and only the mask's box becomes float64."""

import tracemalloc

import numpy as np

from radsurv.radiomics import extract_radiomics
from radsurv.volumeio import load_nifti, write_nifti
from conftest import make_mask


def test_extract_radiomics_peak_stays_below_one_float64_grid(tmp_path):
    dims = (200, 200, 150)
    center, radius = np.array([90, 110, 70]), 8
    lo = center - radius
    i, j, k = np.ogrid[-radius:radius + 1, -radius:radius + 1,
                       -radius:radius + 1]
    ball = i * i + j * j + k * k <= radius * radius
    box = tuple(slice(a, a + 2 * radius + 1) for a in lo)
    labels = np.zeros(dims, dtype=np.int16)
    labels[box][ball] = 2
    scan = np.zeros(dims, dtype=np.int16)
    scan[box] = np.random.default_rng(4).integers(100, 900, ball.shape)
    path = tmp_path / "scan.nii.gz"
    write_nifti(str(path), scan)
    mask = make_mask(labels)
    voxels = scan.size
    del scan, labels

    # traced from before the load, so what the loaded scan holds counts; the
    # peak is reset after it, so the gzip inflate's own transient does not
    tracemalloc.start()
    try:
        vol = load_nifti(str(path))
        tracemalloc.reset_peak()
        extract_radiomics(vol, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * voxels, f"{peak / 2**20:.1f} MiB traced"
