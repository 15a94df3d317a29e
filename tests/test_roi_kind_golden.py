"""Golden digests of the radiomics vector for every ROI kind.

``tests/test_extract_golden.py`` pins the WT extraction. Here the 107
radiomics features of all six ROI kinds, under both binning modes, are
pinned on the same three phantoms and on two phantoms whose tumour is cut
off by grid faces. TC, ET and the single labels lie strictly inside the
tumour's box, so a region read from that box must give the vectors its
own box gives. The second face phantom keeps its scan Fortran-ordered, as
``load_nifti`` returns it. The ``float.hex`` text of the 7 image features,
the 12 mask-summary values and the six radiomics vectors is hashed; the
digests were recorded while every region still spanned the whole grid.
"""

import hashlib

import numpy as np
import pytest

from radsurv.imagefeat import extract_image_features, mask_summary
from radsurv.radiomics import Binning, RadiomicsConfig, extract_radiomics
from radsurv.volumeio import ROI_KINDS, LabelMask, SubjectRecord, VoxelVolume
from test_extract_golden import _phantom

BINNINGS = {
    "count32": Binning("fixed_bin_count", 32),
    "width25": Binning("fixed_bin_width", 25.0),
}

# (phantom of test_extract_golden, the window of its grid that is kept, and
# whether the scan is stored Fortran-ordered)
CASES = {
    "smooth": ("smooth", (slice(None),) * 3, False),
    "lobulated_noisy": ("lobulated_noisy", (slice(None),) * 3, False),
    "anisotropic": ("anisotropic", (slice(None),) * 3, False),
    # the tumour touches the low x face and the high z face
    "cut_low_x_high_z": ("lobulated_noisy",
                         (slice(16, None), slice(None), slice(None, 19)),
                         False),
    # the tumour touches the high x face, the low y face and the low z face
    "cut_high_x_low_y_low_z": ("anisotropic",
                               (slice(None, 24), slice(15, None),
                                slice(13, None)),
                               True),
}

DIGESTS = {
    ("anisotropic", "count32"):
        "25bf1b88882e4e3a114e15d572803d4cbe7b59722fab16763c918f937bc49632",
    ("anisotropic", "width25"):
        "447875e10789ffe250344aee80e2cc46f6f186c93358a14476c0114d8422f903",
    ("cut_high_x_low_y_low_z", "count32"):
        "797eab99c859c74d755ffb804113acf212fbce76c5a390a57b277c1822c80fec",
    ("cut_high_x_low_y_low_z", "width25"):
        "b8b1bbd275f8d3d2e2dba8e19c8764686cda25b4d66d74ea7198c852008aea72",
    ("cut_low_x_high_z", "count32"):
        "a81f940cac6d41cdb55af6365271d79f6a6b1d0a0ee4f30c94b54e01a012d50e",
    ("cut_low_x_high_z", "width25"):
        "76f940bdff71d05838912831b9de326dfe8020a8db553ee13280fb06f545fcbe",
    ("lobulated_noisy", "count32"):
        "0d8f3196a59b1fc0edb91debafc3fd10bb6c5f487165f2c17380908e9306c0e2",
    ("lobulated_noisy", "width25"):
        "fa60a4d704423cadef49872304613d53931c699fa4084f9c8430d435c41c4d9b",
    ("smooth", "count32"):
        "f5cb34cd581ca4ee78d130d663ffbdb871e84cc853412ad8bca013e72c620849",
    ("smooth", "width25"):
        "979f1de8eb8540d8b722b48f22261543dfa48438713a7d3e4261fef0514f061e",
}


def _case(name):
    phantom, window, fortran = CASES[name]
    mask, vol = _phantom(phantom)
    labels = np.ascontiguousarray(mask.labels[window])
    data = vol.region(window)
    data = np.asfortranarray(data) if fortran else np.ascontiguousarray(data)
    grid = dict(dims=labels.shape, spacing=mask.spacing, origin=mask.origin)
    return LabelMask(**grid, labels=labels), VoxelVolume(**grid, stored=data)


def roi_kind_digest(name, binning):
    mask, vol = _case(name)
    values = extract_image_features(
        mask, SubjectRecord(subject_id=name, age=61.5)).as_vector().tolist()
    values += mask_summary(mask).as_vector().tolist()
    for kind in ROI_KINDS:
        config = RadiomicsConfig(roi_kind=kind, binning=BINNINGS[binning])
        values += extract_radiomics(vol, mask, config).values.tolist()
    assert len(values) == 7 + 12 + 6 * 107
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def test_cut_cases_touch_their_grid_faces():
    for name, faces in (("cut_low_x_high_z", {(0, 0), (2, 1)}),
                        ("cut_high_x_low_y_low_z", {(0, 1), (1, 0), (2, 0)})):
        mask, _ = _case(name)
        occupied = np.argwhere(mask.labels > 0)
        touched = {(a, 0) for a in range(3) if occupied[:, a].min() == 0}
        touched |= {(a, 1) for a in range(3)
                    if occupied[:, a].max() == mask.dims[a] - 1}
        assert touched == faces, name
        for label in (1, 2, 4):
            assert (mask.labels == label).any(), (name, label)


@pytest.mark.parametrize("binning", sorted(BINNINGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_roi_kind_digest(name, binning):
    assert roi_kind_digest(name, binning) == DIGESTS[(name, binning)]
