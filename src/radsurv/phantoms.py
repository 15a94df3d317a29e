"""Analytic phantoms and synthetic cohorts with known ground truth.

Masks are digitized with the voxel-center inclusion rule: a voxel belongs
to the shape iff its center (``origin + index * spacing``) lies inside the
analytic solid, boundaries inclusive. This is the simplest rule with a
measurable digitization bias (a radius-10 sphere at 1 mm spacing holds 4169
voxels against the analytic 4188.79 mm^3). Ellipsoid parameters are
semi-axes; cuboid parameters are full edge lengths.

The inclusion test builds no grid of voxel centres: one coordinate vector
per axis broadcasts over the shape's index box, and a shape combines
per-axis terms as ``(x + y) + z`` of squared (scaled) offsets, or ``&`` of
three per-axis bounds for the cuboid. That is the order in which ``np.sum``
adds over a length-3 coordinate axis, so the bits equal those of a
full-grid test.

Cohorts pair per-subject tumor phantoms (three nested ellipsoids carrying
labels 2 / 1 / 4 inside a fixed brain ellipsoid) with the full extracted
feature catalog: the seven image features, the mask summary, the 107
radiomics features and optional pure-noise distractor columns. Survival is
a linear link over named features plus Gaussian noise, floored at one day.
When a class mix is requested, the link output is affinely recalibrated so
its empirical quantiles hit the survival-class thresholds (the result is
still a linear link with rescaled coefficients; the scale and offset are
reported back in the generation report). Everything is a pure function of
the spec, including its seed: per-subject streams are derived as
(seed, subject_index), so parallel generation cannot reorder results.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .rng import make_rng
from .volumeio import LabelMask, SubjectRecord, VoxelVolume
from .cohort import Cohort
from .prognosis import DEFAULT_THRESHOLDS, check_thresholds
from .radiomics import FEATURE_COLUMNS, extract_row

# each shape with the number of params it takes
PHANTOM_SHAPES = {"sphere": 1, "ellipsoid": 3, "cuboid": 3, "single_voxel": 0}

DEFAULT_RESECTION_MIX = (0.504, 0.042, 0.454)  # GTR, STR, NA


class PhantomError(ValueError):
    pass


@dataclass(frozen=True)
class PhantomSpec:
    """One analytic shape on a regular grid."""

    shape: str                      # sphere | ellipsoid | cuboid | single_voxel
    params: tuple[float, ...]       # sphere: (r,); ellipsoid/cuboid: (a, b, c)
    center: tuple[float, float, float]
    label_fill: int = 1
    dims: tuple[int, int, int] = (32, 32, 32)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def half_extents(self) -> tuple[float, float, float]:
        if self.shape == "sphere":
            r = float(self.params[0])
            return (r, r, r)
        if self.shape == "ellipsoid":
            return tuple(float(p) for p in self.params)
        if self.shape == "cuboid":
            return tuple(float(p) / 2.0 for p in self.params)
        return (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CohortSpec:
    """Synthetic cohort recipe; deterministic for a fixed seed."""

    n_subjects: int
    seed: int
    link: dict[str, float] = field(default_factory=dict)
    intercept: float = 0.0
    noise_std: float = 0.0
    class_mix: Optional[tuple[float, float, float]] = None
    n_distractors: int = 0
    resection_mix: tuple[float, float, float] = DEFAULT_RESECTION_MIX
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS


def _inside(shape: str, params, center, axes) -> np.ndarray:
    """Membership of the voxel centres at per-axis coordinates ``axes``."""
    d = [x - float(c) for x, c in zip(axes, center)]
    if shape == "sphere":
        x, y, z = (v ** 2 for v in d)
        return x + y + z <= float(params[0]) ** 2
    if shape == "ellipsoid":
        x, y, z = ((v / float(a)) ** 2 for v, a in zip(d, params))
        return x + y + z <= 1.0
    if shape == "cuboid":
        x, y, z = (np.abs(v) <= float(p) / 2.0 for v, p in zip(d, params))
        return x & y & z
    raise PhantomError(f"unknown shape {shape!r}")


def _axis_centers(box, spacing, origin) -> list[np.ndarray]:
    """Voxel-centre coordinates per axis, shaped to broadcast over ``box``."""
    return np.meshgrid(*(np.arange(b.start, b.stop, dtype=np.float64) * s + o
                         for b, s, o in zip(box, spacing, origin)),
                       indexing="ij", sparse=True)


def _index_box(spec: PhantomSpec) -> tuple[slice, ...]:
    """The index slices of ``center ± half_extents``, widened by one voxel
    and clipped to the grid: no voxel centre outside them is inside the
    shape. A NaN bound leaves its axis empty, as no centre passes it."""
    c, h, s, o = (np.array(v, dtype=np.float64) for v in (
        spec.center, spec.half_extents(), spec.spacing, spec.origin))
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.sort([(c - h - o) / s, (c + h - o) / s], axis=0)
    lo, hi = (np.nan_to_num(np.clip(e, 0, spec.dims)).astype(int)
              for e in (np.floor(ends[0]) - 1, np.ceil(ends[1]) + 2))
    return tuple(map(slice, lo.tolist(), hi.tolist()))


def gen_mask(spec: PhantomSpec) -> LabelMask:
    """Digitize an analytic phantom into a LabelMask."""
    if spec.shape not in PHANTOM_SHAPES:
        raise PhantomError(f"unknown shape {spec.shape!r}")
    if spec.label_fill not in (1, 2, 4):
        raise PhantomError(f"label_fill must be a tumor label, got {spec.label_fill}")
    if len(spec.params) != PHANTOM_SHAPES[spec.shape]:
        raise PhantomError(f"{spec.shape} takes {PHANTOM_SHAPES[spec.shape]} "
                           f"params, got {len(spec.params)}")

    lo_corner = tuple(spec.origin[a] - 0.5 * spec.spacing[a] for a in range(3))
    hi_corner = tuple(spec.origin[a] + (spec.dims[a] - 0.5) * spec.spacing[a]
                      for a in range(3))
    half = spec.half_extents()
    for a in range(3):
        if spec.center[a] - half[a] < lo_corner[a] or \
           spec.center[a] + half[a] > hi_corner[a]:
            raise PhantomError(
                f"shape exceeds grid along axis {a}: "
                f"[{spec.center[a] - half[a]}, {spec.center[a] + half[a]}] "
                f"outside [{lo_corner[a]}, {hi_corner[a]}]")

    labels = np.zeros(spec.dims, dtype=np.int16)
    if spec.shape == "single_voxel":
        # the nearest voxel centre; a centre on the grid's outer face can
        # round to one past the edge, so the index is clipped to the grid
        c, s, o = (np.array(v, dtype=np.float64)
                   for v in (spec.center, spec.spacing, spec.origin))
        idx = tuple(np.clip(np.rint((c - o) / s).astype(int), 0,
                            np.array(spec.dims) - 1))
        labels[idx] = spec.label_fill
    else:
        box = _index_box(spec)
        centers = _axis_centers(box, spec.spacing, spec.origin)
        labels[box][_inside(spec.shape, spec.params, spec.center, centers)] = \
            spec.label_fill
    return LabelMask(dims=spec.dims, spacing=spec.spacing, origin=spec.origin,
                     labels=labels)


# ---------------------------------------------------------------------------
# Synthetic cohorts

_COHORT_DIMS = (40, 40, 40)
_BRAIN_AXES = (18.0, 17.0, 16.0)
_TUMOR_SCALES = {"TC": 0.7, "ET": 0.45}


def _synth_subject(seed: int, index: int, centers, brain, ramp):
    """One subject's mask, intensity volume, its stream and its draws of
    age, resection and survival noise, on the cohort's voxel centres, brain
    ellipsoid and intensity ramp."""
    rng = make_rng(seed, index)
    dims = _COHORT_DIMS
    grid_center = tuple((d - 1) / 2.0 for d in dims)

    axes = rng.uniform(4.0, 10.0, size=3)
    center = np.asarray(grid_center) + rng.uniform(-2.0, 2.0, size=3)

    wt = _inside("ellipsoid", axes, center, centers)
    tc = _inside("ellipsoid", axes * _TUMOR_SCALES["TC"], center, centers)
    et = _inside("ellipsoid", axes * _TUMOR_SCALES["ET"], center, centers)
    labels = np.zeros(dims, dtype=np.int16)
    labels[wt] = 2
    labels[tc] = 1
    labels[et] = 4
    mask = LabelMask(dims=dims, spacing=(1, 1, 1), origin=(0, 0, 0),
                     labels=labels)

    data = 0.3 + 0.4 * ramp + 0.1 * (labels == 2) + 0.2 * (labels == 1) \
        + 0.3 * (labels == 4) + 0.05 * rng.standard_normal(dims)
    data = np.where(brain, np.clip(data, 0.01, None), 0.0)
    vol = VoxelVolume(dims=dims, spacing=(1, 1, 1), origin=(0, 0, 0),
                      stored=data)

    age = float(rng.uniform(35.0, 80.0))
    resection_u = float(rng.uniform())
    noise_z = float(rng.standard_normal())
    return mask, vol, rng, (age, resection_u, noise_z)


def gen_cohort(spec: CohortSpec):
    """Generate a synthetic cohort; returns (Cohort, report dict).

    The report records the effective survival link (scale and offset applied
    on top of the raw link when a class mix was requested) so downstream
    consumers can reproduce the survival construction.
    """
    if spec.n_subjects < 1:
        raise PhantomError("n_subjects must be >= 1")
    for name in ("class_mix", "resection_mix"):
        mix = getattr(spec, name)
        if mix is not None and (len(mix) != 3 or min(mix) < 0
                                or abs(sum(mix) - 1.0) > 1e-9):
            raise PhantomError(f"{name} must be 3 proportions summing to 1, "
                               f"got {tuple(float(p) for p in mix)}")
    check_thresholds(spec.thresholds)

    feature_names = list(FEATURE_COLUMNS["all"]) + [
        f"noise.{k:03d}" for k in range(spec.n_distractors)]
    for name in spec.link:
        if name not in feature_names:
            raise PhantomError(f"link references unknown feature {name!r}")

    dims = _COHORT_DIMS
    centers = _axis_centers([slice(0, n) for n in dims], (1, 1, 1), (0, 0, 0))
    brain = _inside("ellipsoid", _BRAIN_AXES,
                    tuple((d - 1) / 2.0 for d in dims), centers)
    ramp = centers[0] / dims[0]
    rows = []
    draws = []
    for i in range(spec.n_subjects):
        mask, vol, rng, draw = _synth_subject(spec.seed, i, centers, brain,
                                              ramp)
        subject = SubjectRecord(subject_id=f"SYN-{i:04d}", age=draw[0])
        rows.append(np.concatenate([extract_row(mask, subject, vol),
                                    rng.standard_normal(spec.n_distractors)]))
        draws.append(draw)

    X = np.vstack(rows)
    raw = np.full(spec.n_subjects, spec.intercept, dtype=np.float64)
    for name, coef in spec.link.items():
        col = X[:, feature_names.index(name)]
        if np.isnan(col).any():
            raise PhantomError(f"link feature {name!r} has missing values")
        raw = raw + coef * col

    scale, offset = 1.0, 0.0
    if spec.class_mix is not None:
        t_lo, t_hi = spec.thresholds
        p_short, p_mid, _ = spec.class_mix
        q1 = float(np.quantile(raw, p_short))
        q2 = float(np.quantile(raw, p_short + p_mid))
        if q2 <= q1:
            raise PhantomError(
                "unsatisfiable class_mix: link output quantiles are degenerate")
        scale = (t_hi - t_lo) / (q2 - q1)
        offset = t_lo - scale * q1

    noise_z = np.array([nz for _, _, nz in draws])
    survival = scale * raw + offset + spec.noise_std * noise_z
    if floored := int(np.count_nonzero(survival < 1.0)):
        logging.getLogger("radsurv").warning(
            "cohort survival floored at 1 day for %d of %d subjects",
            floored, spec.n_subjects)
    survival = np.maximum(survival, 1.0)

    gtr, stri, _ = spec.resection_mix
    records = [SubjectRecord(subject_id=f"SYN-{i:04d}", age=age,
                             survival_days=float(days),
                             resection_status="GTR" if u < gtr else
                             "STR" if u < gtr + stri else "NA")
               for i, ((age, u, _), days) in enumerate(zip(draws, survival))]
    cohort = Cohort(
        subject_ids=[r.subject_id for r in records],
        feature_names=feature_names,
        X=X,
        survival_days=survival.copy(),
        records=records,
    )
    report = {
        "seed": spec.seed,
        "n_subjects": spec.n_subjects,
        "link": dict(spec.link),
        "intercept": spec.intercept,
        "noise_std": spec.noise_std,
        "class_mix": list(spec.class_mix) if spec.class_mix else None,
        "calibration_scale": scale,
        "calibration_offset": offset,
        "thresholds": list(spec.thresholds),
    }
    return cohort, report
