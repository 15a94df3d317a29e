"""Extraction memory. The scan keeps its samples as stored, so no float64
copy of a whole scan grid is made, and only the mask's box becomes float64.
A loaded mask holds only the box of its labelled voxels, so a subject's
extraction holds no whole label grid beside the scan. The radiomics phase
holds no pair list that spans the 13 directions: one walk builds a
direction's pairs, counts every texture family's share of them and drops
them before the next direction, and keeps only the count tables."""

import numpy as np

from radsurv.imagefeat import extract_image_features, mask_summary
from radsurv.radiomics import extract_radiomics
from radsurv.volumeio import SubjectRecord, load_mask, load_nifti, write_nifti
from conftest import make_mask, traced_peak


def _loaded_extract_peak(tmp_path, labels, scan) -> int:
    """Peak bytes traced by ``extract_radiomics`` on ``scan`` loaded from a
    .nii.gz, counting what the loaded scan holds but not the load's own
    transient."""
    path = tmp_path / "scan.nii.gz"
    write_nifti(str(path), scan)
    mask = make_mask(labels)
    _, peak = traced_peak(lambda vol: extract_radiomics(vol, mask),
                          after=lambda: load_nifti(str(path)))
    return peak


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
    peak = _loaded_extract_peak(tmp_path, labels, scan)
    assert peak < 8 * scan.size, f"{peak / 2**20:.1f} MiB traced"


def test_subject_extraction_holds_no_whole_label_grid(tmp_path):
    """One subject as ``extract`` runs it, on a BraTS grid with a small
    tumour: load the u1 mask, its image features and summary, then the
    int16 scan and its radiomics. The peak is the scan plus the texture
    walk (about 2.7 MiB here) and stays below the scan plus half a label
    grid; a mask that held its whole grid would add 8.5 MiB."""
    dims = (240, 240, 155)
    center, radius = np.array([120, 110, 70]), 10
    i, j, k = np.ogrid[-radius:radius + 1, -radius:radius + 1,
                       -radius:radius + 1]
    r2 = i * i + j * j + k * k
    box = tuple(slice(c - radius, c + radius + 1) for c in center)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[box][r2 <= radius ** 2] = 2
    labels[box][r2 <= 36] = 4
    labels[box][r2 <= 9] = 1
    scan = np.zeros(dims, dtype=np.int16)
    scan[box] = np.random.default_rng(5).integers(100, 900, r2.shape)
    mask_path, scan_path = tmp_path / "m.nii.gz", tmp_path / "s.nii.gz"
    write_nifti(str(mask_path), labels)
    write_nifti(str(scan_path), scan)

    def subject():
        mask = load_mask(str(mask_path))
        record = SubjectRecord("s", age=50.0)
        extract_image_features(mask, record)
        mask_summary(mask)
        return extract_radiomics(load_nifti(str(scan_path)), mask)

    subject()                               # warm imports and caches
    _, peak = traced_peak(subject)
    assert peak < scan.nbytes + labels.nbytes // 2, \
        f"{peak / 2**20:.1f} MiB traced"


def _lobulated_working_set(tmp_path) -> float:
    """Traced bytes per ROI voxel above the loaded scan, on a lobulated
    whole tumor of about 86k voxels on a smooth scan, where many neighbor
    pairs share a level."""
    dims = (96, 96, 80)
    grid = np.ogrid[:dims[0], :dims[1], :dims[2]]
    labels = np.zeros(dims, dtype=np.int16)
    for center, axes in (((46, 44, 38), (30, 26, 22)),
                         ((68, 55, 43), (19, 16, 14)),
                         ((31, 64, 29), (16, 14, 11))):
        inside = sum(((g - c) / a) ** 2 for g, c, a in zip(grid, center, axes))
        labels[inside <= 1.0] = 2
    roi_voxels = int(np.count_nonzero(labels))
    smooth = sum(np.sin(g / w) for g, w in zip(grid, (7.0, 9.0, 6.0)))
    scan = (400 + 100 * smooth).astype(np.int16)
    # the loaded scan keeps its int16 samples as stored
    peak = _loaded_extract_peak(tmp_path, labels, scan) - scan.nbytes
    assert 70_000 < roi_voxels < 100_000, roi_voxels
    return peak / roi_voxels


def test_radiomics_working_set_of_a_large_lobulated_roi(tmp_path):
    """At most 400 bytes per ROI voxel. A full pair list over the 13
    directions alone holds about 200: 12.4 pairs per voxel, two int64
    indices each. A build through (13, n) temporaries that holds the list
    through GLRLM, GLSZM and GLDM peaks at about 470."""
    per_voxel = _lobulated_working_set(tmp_path)
    assert per_voxel < 400, f"{per_voxel:.0f} bytes per ROI voxel"


def test_radiomics_working_set_holds_no_full_pair_list(tmp_path):
    """At most 240 bytes per ROI voxel (about 185 here), so no list of
    every direction's pairs (about 200 bytes per voxel) is held beside the
    rest of the working set; extraction that builds the full list and its
    equal-level subset before dropping the full one peaks at about 335."""
    per_voxel = _lobulated_working_set(tmp_path)
    assert per_voxel < 240, f"{per_voxel:.0f} bytes per ROI voxel"
