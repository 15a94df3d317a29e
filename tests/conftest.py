import tracemalloc

import numpy as np
import pytest

from radsurv.radiomics import DiscretizedRoi
from radsurv.volumeio import LabelMask, RoiMask, VoxelVolume


def traced_peak(fn, *, after=None):
    """(result, peak): ``fn()``'s result and the peak bytes ``tracemalloc``
    traced while it ran. With ``after``, ``after()`` runs first under
    tracing, so what it leaves held counts toward the peak but its own
    transient does not; ``fn`` then gets its result."""
    tracemalloc.start()
    try:
        if after is None:
            result = fn()
        else:
            held = after()
            tracemalloc.reset_peak()
            result = fn(held)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_roi(membership, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    membership = np.asarray(membership, dtype=bool)
    return RoiMask(dims=membership.shape, spacing=spacing, origin=origin,
                   membership=membership)


def make_disc(level_map, spacing=(1.0, 1.0, 1.0)):
    """DiscretizedRoi straight from an integer level map (0 = outside)."""
    level_map = np.asarray(level_map, dtype=np.int32)
    roi = make_roi(level_map > 0, spacing=spacing)
    return DiscretizedRoi(level_map=level_map, roi=roi,
                          n_levels=int(level_map.max()))


def random_disc(rng, max_shape=(8, 8, 8), ng=8, density=0.6):
    """Random non-empty ROI with random levels, up to max_shape."""
    shape = tuple(int(rng.integers(2, s + 1)) for s in max_shape)
    member = rng.random(shape) < density
    if not member.any():
        member[tuple(int(rng.integers(0, s)) for s in shape)] = True
    levels = np.zeros(shape, dtype=np.int32)
    levels[member] = rng.integers(1, ng + 1, size=int(member.sum()))
    # n_levels is the max assigned level, matching the discretizer contract
    return make_disc(levels)


def make_volume(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    data = np.asarray(data, dtype=np.float64)
    return VoxelVolume(dims=data.shape, spacing=spacing, origin=origin,
                       stored=data)


def make_mask(labels, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    labels = np.asarray(labels, dtype=np.int16)
    return LabelMask(dims=labels.shape, spacing=spacing, origin=origin,
                     labels=labels)


@pytest.fixture(scope="session")
def class_mix_cohort():
    """n=200 cohort with 3 informative + 17 distractor features and a
    requested uniform class mix; shared across tests because generation
    runs the full radiomics extraction for every subject."""
    from radsurv.phantoms import CohortSpec, gen_cohort

    spec = CohortSpec(
        n_subjects=200, seed=2024,
        link={"shape.mesh_volume": 0.12, "meta.age": 2.5,
              "mask.amount_edema": 0.05},
        noise_std=20.0, class_mix=(1 / 3, 1 / 3, 1 / 3), n_distractors=17)
    cohort, report = gen_cohort(spec)
    return cohort, report, spec
