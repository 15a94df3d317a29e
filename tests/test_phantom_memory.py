"""Digitizing a phantom holds no voxel-coordinate grid: the inclusion test
runs on per-axis coordinate vectors over the shape's index box, so one
BraTS-sized ``gen_mask`` stays below half of one float64 copy of its grid
(the int16 labels take a quarter). Writing the mask copies no labels."""

import json
import tracemalloc

import numpy as np

from radsurv import cli
from radsurv.phantoms import PhantomSpec, gen_mask
from radsurv.volumeio import load_mask
from conftest import traced_peak


def test_gen_mask_peak_stays_below_half_a_float64_grid():
    dims = (240, 240, 155)
    spec = PhantomSpec(shape="ellipsoid", params=(60.0, 50.0, 40.0),
                       center=(119.5, 119.5, 77.0), dims=dims)
    voxels = dims[0] * dims[1] * dims[2]

    _, peak = traced_peak(lambda: gen_mask(spec))
    assert peak < 4 * voxels, f"{peak / 2**20:.1f} MiB traced"


def test_phantom_mask_write_holds_no_copy_of_the_labels(tmp_path,
                                                        monkeypatch):
    """``radsurv phantom`` writes the int16 labels ``gen_mask`` built: past
    the mask itself, writing it takes under half of its size again, and the
    file decodes to the same labels, held as their box."""
    dims = (240, 240, 155)
    entry = {"name": "brats", "shape": "ellipsoid",
             "params": [60.0, 50.0, 40.0], "center": [119.5, 119.5, 77.0],
             "dims": list(dims)}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"masks": [entry]}))
    masks = []

    def made(spec):
        masks.append(gen_mask(spec))
        tracemalloc.reset_peak()        # from here on: the write
        return masks[-1]

    monkeypatch.setattr(cli, "gen_mask", made)
    code, peak = traced_peak(lambda: cli.main(
        ["phantom", "--spec", str(spec_path), "--out", str(tmp_path / "out")]))
    assert code == 0
    labels = masks[0].labels
    assert labels.dtype == np.int16
    assert peak < 1.5 * labels.nbytes, f"{peak / 2**20:.1f} MiB traced"
    written = load_mask(str(tmp_path / "out" / "brats_mask.nii.gz"))
    assert written.labels.dtype == np.uint8
    # the loaded mask holds the box of the labels: the crop at its corner
    # is labels[box], and no voxel outside the box is labelled
    box = written.box
    assert written.corner == tuple(b.start for b in box)
    assert written.labels.tobytes(order="F") == \
        labels[box].astype(np.uint8).tobytes(order="F")
    outside = labels.copy()
    outside[box] = 0
    assert not outside.any()
