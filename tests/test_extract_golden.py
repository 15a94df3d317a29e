"""Golden digests of the full per-subject extraction.

Three seeded phantoms go through the calls ``radsurv extract --features
all`` makes: the 7 image features, the 12 mask-summary values and the 107
radiomics features. The ``float.hex`` text of those 126 values is hashed
and compared with a digest recorded before the extraction hot path was
rewritten for speed, so any change of an output bit fails here.
"""

import hashlib

import numpy as np
import pytest

from radsurv.imagefeat import extract_image_features, mask_summary
from radsurv.phantoms import PhantomSpec, gen_mask
from radsurv.radiomics import extract_radiomics
from radsurv.volumeio import LabelMask, SubjectRecord, VoxelVolume

# (lobes as (center offset, semi-axes) in mm, scan texture, spacing, origin)
PHANTOMS = {
    "smooth": (
        [((0.0, 0.0, 0.0), (13.0, 10.0, 8.0))],
        "smooth", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    "lobulated_noisy": (
        [((0.0, 0.0, 0.0), (11.0, 9.0, 8.0)),
         ((8.0, 6.0, 3.0), (6.0, 5.0, 5.0)),
         ((-7.0, 5.0, -4.0), (5.0, 6.0, 4.0))],
        "noisy", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    "anisotropic": (
        [((0.0, 0.0, 0.0), (12.0, 14.0, 15.0)),
         ((6.0, -8.0, 5.0), (6.0, 7.0, 8.0))],
        "noisy", (0.7, 1.3, 2.5), (-90.5, 12.25, 33.0)),
}

DIGESTS = {
    "smooth":
        "894abd6b3e95412d7cd20d29818eb76f39f6a1c51580df1fd0454c602b9bc658",
    "lobulated_noisy":
        "8bbef258ac95a63ee197ba0c34faf30013f71259debe9726782a7ebb9f3b92a2",
    "anisotropic":
        "86683e2ea23c5d67822e4d226bec5b065cbeb15c5bb7cffc5c9890236a227e6f",
}

DIMS = (40, 36, 30)


def _phantom(name):
    lobes, texture, spacing, origin = PHANTOMS[name]
    center = tuple(o + (d - 1) * s / 2.0
                   for o, d, s in zip(origin, DIMS, spacing))

    def region(offset, axes):
        spec = PhantomSpec(shape="ellipsoid", params=axes,
                           center=tuple(np.add(center, offset)), dims=DIMS,
                           spacing=spacing, origin=origin)
        return gen_mask(spec).labels > 0

    labels = np.zeros(DIMS, dtype=np.int16)
    for offset, axes in lobes:
        labels[region(offset, axes)] = 2
    main = np.asarray(lobes[0][1])
    labels[region((0.0, 0.0, 0.0), tuple(main * 0.65))] = 4
    labels[region((0.0, 0.0, 0.0), tuple(main * 0.4))] = 1

    rng = np.random.default_rng(sorted(PHANTOMS).index(name))
    data = 500.0 + np.array([0.0, -150.0, 120.0, 0.0, 400.0])[labels]
    if texture == "noisy":
        data += rng.normal(0.0, 60.0, DIMS)
    else:
        grid = np.indices(DIMS)
        data += 60.0 * np.sin(grid[0] / 5.0) * np.cos(grid[1] / 7.0) \
            + 20.0 * np.sin(grid[2] / 3.0) + rng.normal(0.0, 4.0, DIMS)
    mask = LabelMask(dims=DIMS, spacing=spacing, origin=origin, labels=labels)
    vol = VoxelVolume(dims=DIMS, spacing=spacing, origin=origin,
                      stored=np.rint(data))
    return mask, vol


def extraction_digest(name):
    mask, vol = _phantom(name)
    record = SubjectRecord(subject_id=name, age=61.5)
    values = extract_image_features(mask, record).as_vector().tolist()
    values += mask_summary(mask).as_vector().tolist()
    values += extract_radiomics(vol, mask).values.tolist()
    assert len(values) == 7 + 12 + 107
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PHANTOMS))
def test_extraction_digest(name):
    assert extraction_digest(name) == DIGESTS[name]
