"""Golden digests of the run and zone matrices on noise-heavy ROIs.

A fragmented ROI with random levels is the worst case for the labelling
rounds that build GLRLM runs and GLSZM zones: thousands of small
components next to a few long, winding ones. The sha256 of every matrix's
shape and float64 bytes was recorded before runs were derived from the
shared neighbour pairs, so any change of a count or of a matrix width
fails here.
"""

import hashlib

import numpy as np
import pytest

from radsurv.radiomics.texture import glrlm_matrices, glszm_matrix
from conftest import make_disc

DIMS = (48, 48, 40)

# (seed, ROI density, number of levels); at density 0.4 over 4 levels each
# level fills 10% of the box, close to the 26-neighbour percolation
# threshold, where zones are the longest and most winding
CASES = {
    "sparse_16_levels": (11, 0.5, 16),
    "dense_2_levels": (12, 0.9, 2),
    "critical_4_levels": (13, 0.4, 4),
}

DIGESTS = {
    "sparse_16_levels": {
        "glrlm":
            "7e6b97e2c750f77bfa9acb2466a364a764b8995d22cd877b0ae204e37f92cebe",
        "glszm":
            "db4b039ab5a777feb236ba8f7062af466f1e3f14fc6489bcc1fe26703c08ad88",
    },
    "dense_2_levels": {
        "glrlm":
            "83b2a110a89e2c88807f0bff5192df949d2eddf661b8f7d5e82ae9826bd109c7",
        "glszm":
            "784662f63164b615e3b1eff49793dfbe2a34ca01abc530defd34e2b358ddf854",
    },
    "critical_4_levels": {
        "glrlm":
            "fbfa9f41aee0383673b6756a9b73f70b566b2f1708c436c38af91757ced3ecb9",
        "glszm":
            "3c8a523f0141eed1834d66a3a186ddcc3709be06dc9ad37a93cefe1df5671f12",
    },
}


def _noise_disc(name):
    seed, density, ng = CASES[name]
    rng = np.random.default_rng(seed)
    member = rng.random(DIMS) < density
    levels = np.zeros(DIMS, dtype=np.int32)
    levels[member] = rng.integers(1, ng + 1, size=int(member.sum()))
    return make_disc(levels)


def _digest(matrices):
    h = hashlib.sha256()
    for mat in matrices:
        h.update(repr(mat.shape).encode())
        h.update(np.ascontiguousarray(mat, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_glrlm_digest(name):
    assert _digest(glrlm_matrices(_noise_disc(name))) == DIGESTS[name]["glrlm"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_glszm_digest(name):
    assert _digest([glszm_matrix(_noise_disc(name))]) == DIGESTS[name]["glszm"]
