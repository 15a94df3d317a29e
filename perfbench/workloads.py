"""The four benchmark workloads: seeded inputs, one op, one traced op.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned. Inputs are generated from the workload seed at
set-up and written to a scratch directory; radsurv only ever sees those
files. Only the op itself is timed: ``prepare`` runs before it and
``rows`` turns its result into ``(key, text)`` rows for the correctness gate.

* ``extract_brats`` / ``extract_desk``: one op is one subject through the
  calls ``radsurv extract --features all`` makes.
* ``rfe``: one op is ``radsurv rfe`` on a 100-subject synthetic cohort.
* ``experiment``: one op is the 3 x 4 ``radsurv experiment`` matrix on the
  same cohort.

The traced op of the extraction workloads calls each step of
``extract_radiomics`` itself (plus the three public mesh steps of the shape
family on their own). The traced op of the command workloads runs the
command with the public functions it calls wrapped in spans.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from radsurv import cli, featselect, prognosis
from radsurv.imagefeat import extract_image_features, mask_summary
from radsurv.phantoms import CohortSpec, PhantomSpec, gen_cohort, gen_mask
from radsurv.radiomics import (RADIOMICS_FEATURE_NAMES, RadiomicsConfig,
                               discretize, extract_radiomics,
                               first_order_features, shape_features)
from radsurv.radiomics.shape import (SHAPE_FEATURE_NAMES, extract_mesh,
                                     mesh_area_volume, taubin_smooth)
from radsurv.radiomics.texture import (glcm_features, gldm_features,
                                       glrlm_features, glrlm_matrices,
                                       glszm_features, glszm_matrix,
                                       ngtdm_features)
from radsurv.regressors import load_model, model_kind
from radsurv.util import read_csv, write_csv
from radsurv.volumeio import (SubjectRecord, derive_roi, load_mask,
                              load_nifti, write_nifti)

from .gate import row_text

CONFIG = RadiomicsConfig()          # the extract CLI defaults: WT, 32 bins
COHORT_LINK = {"shape.mesh_volume": 0.12, "meta.age": 2.5}
EXPERIMENT_PARAMS = '{"penalty": "l2", "lam": 1.0}'


@dataclass(frozen=True)
class Scale:
    """Input sizes and the fewest ops a run measures, by workload; ``full``
    is what the benchmark measures, ``tiny`` is for its self-test."""

    name: str
    brats_factor: float     # geometry factor on the 240x240x155 grid
    desk_subjects: int
    cohort_subjects: int
    rfe_keep: int
    min_ops: dict


SCALES = {
    "full": Scale("full", 1.0, 50, 100, 20, {
        "extract_brats": 4, "extract_desk": 100, "rfe": 1, "experiment": 4}),
    "tiny": Scale("tiny", 0.3, 4, 24, 100, {
        "extract_brats": 4, "extract_desk": 8, "rfe": 1, "experiment": 1}),
}


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, *keys])))


@dataclass
class Subject:
    sid: str
    age: float
    mask_path: str
    scan_path: str
    roi_voxels: int
    file_bytes: int          # on disk
    decoded_bytes: int       # header + payload after decompression


# ---------------------------------------------------------------------------
# phantom subjects


def _paint(array, center, axes, value, tracer) -> None:
    """Set ``array`` to ``value`` inside an ellipsoid digitized by
    ``gen_mask``, which runs on the ellipsoid's bounding box only (a sub-grid
    with the matching origin), so a small tumor on a BraTS grid stays cheap."""
    lo = [int(math.floor(c - a)) for c, a in zip(center, axes)]
    hi = [int(math.ceil(c + a)) + 1 for c, a in zip(center, axes)]
    if min(lo) < 0 or any(h > d for h, d in zip(hi, array.shape)):
        raise ValueError(f"ellipsoid {center} {axes} leaves the grid")
    spec = PhantomSpec(
        shape="ellipsoid", params=tuple(float(a) for a in axes),
        center=tuple(float(c) for c in center),
        dims=tuple(h - l for l, h in zip(lo, hi)),
        origin=tuple(float(v) for v in lo))
    with tracer.span("phantoms.gen_mask_s"):
        region = gen_mask(spec).labels > 0
    array[tuple(slice(l, h) for l, h in zip(lo, hi))][region] = value


def _tumor_labels(dims, center, lobes, tracer):
    """WT (label 2) is the union of ``lobes``; inside the first lobe an
    enhancing shell (4) surrounds a necrotic core (1)."""
    labels = np.zeros(dims, dtype=np.int16)
    for offset, axes in lobes:
        _paint(labels, np.add(center, offset), axes, 2, tracer)
    main = np.asarray(lobes[0][1])
    _paint(labels, center, main * 0.65, 4, tracer)
    _paint(labels, center, main * 0.4, 1, tracer)
    return labels


_CONTRAST = np.array([0.0, -150.0, 120.0, 0.0, 400.0])   # by label


def _scan(labels, brain, texture, wavelengths, rng):
    """int16 scan: tissue contrast plus a noisy or a smooth texture."""
    dims = labels.shape
    head = brain | (labels > 0)
    data = 500.0 + _CONTRAST[labels]
    n = int(head.sum())
    if texture == "noisy":
        data[head] += rng.normal(0.0, 60.0, n)
    else:
        for axis, wavelength in enumerate(wavelengths):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = 60.0 * np.sin(2.0 * np.pi * np.arange(dims[axis])
                                 / wavelength + phase)
            shape = [1, 1, 1]
            shape[axis] = dims[axis]
            data += wave.reshape(shape)
        data[head] += rng.normal(0.0, 4.0, n)
    return np.where(head, np.rint(data), 0.0).astype(np.int16)


def _write_pair(workdir, sid, labels, scan, suffix, mask_dtype, age):
    mask_path = os.path.join(workdir, f"{sid}_seg{suffix}")
    scan_path = os.path.join(workdir, f"{sid}_t1ce{suffix}")
    write_nifti(mask_path, labels, dtype=mask_dtype)
    write_nifti(scan_path, scan)
    header = 352
    return Subject(
        sid=sid, age=age, mask_path=mask_path, scan_path=scan_path,
        roi_voxels=int((labels > 0).sum()),
        file_bytes=os.path.getsize(mask_path) + os.path.getsize(scan_path),
        decoded_bytes=2 * header + labels.size * np.dtype(mask_dtype).itemsize
        + scan.nbytes)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: set-up, warm-up, op and traced op for one workload."""

    name = ""
    unit = "op"           # what one op processes, for the report
    setup_reps = 1        # set-ups per run; setup_s is their median
    cycle = 1             # ops are measured in whole cycles

    def __init__(self, seed: int, scale: Scale, workdir: str, tracer):
        self.seed = seed
        self.scale = scale
        self.min_ops = scale.min_ops[self.name]
        self.workdir = workdir
        self.tracer = tracer

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.prepare(0)
        self.op(0)

    def prepare(self, i: int) -> None:
        """Untimed work before op ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int):
        raise NotImplementedError

    def rows(self, i: int, result) -> list[tuple[str, str]]:
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError


class _Extract(Workload):
    unit = "subject"
    suffix = ".nii"
    mask_dtype = np.int16

    def __init__(self, *args):
        super().__init__(*args)
        self.subjects: list[Subject] = []
        self._counts: dict[str, dict] = {}
        self._bytes_checked = False

    def subject_plan(self):
        """Yields (sid, dims, brain, lobes, center, texture, wavelengths)."""
        raise NotImplementedError

    def generate(self) -> None:
        subjects = []
        brain_cache = {}
        for index, (sid, dims, brain, lobes, center, texture,
                    wavelengths) in enumerate(self.subject_plan()):
            rng = _rng(self.seed, 1, index)
            if brain not in brain_cache:
                head = np.zeros(dims, dtype=bool)
                _paint(head, *brain, True, self.tracer)
                brain_cache[brain] = head
            labels = _tumor_labels(dims, center, lobes, self.tracer)
            scan = _scan(labels, brain_cache[brain], texture, wavelengths, rng)
            age = float(np.round(rng.uniform(35.0, 80.0), 2))
            mask = labels.astype(self.mask_dtype)
            subjects.append(_write_pair(self.workdir, sid, mask, scan,
                                        self.suffix, self.mask_dtype, age))
        self.subjects = subjects
        self.dims = dims
        self.cycle = len(subjects)

    def inputs(self) -> dict:
        return {
            "grid_dims": list(self.dims),
            "subjects": len(self.subjects),
            "file_format": self.suffix,
            "roi_voxels": [s.roi_voxels for s in self.subjects],
            "compressed_bytes": sum(s.file_bytes for s in self.subjects),
            "decoded_bytes": sum(s.decoded_bytes for s in self.subjects),
        }

    def op(self, i: int):
        s = self.subjects[i % len(self.subjects)]
        mask = load_mask(s.mask_path)
        record = SubjectRecord(subject_id=s.sid, age=s.age)
        values = extract_image_features(mask, record).as_vector().tolist()
        values += mask_summary(mask).as_vector().tolist()
        vol = load_nifti(s.scan_path)
        values += extract_radiomics(vol, mask, CONFIG).values.tolist()
        return values

    def rows(self, i: int, result):
        sid = self.subjects[i % len(self.subjects)].sid
        return [(sid, row_text(sid, result))]

    def traced_op(self, i: int):
        s = self.subjects[i % len(self.subjects)]
        t = self.tracer
        t.op = i
        with t.span("op"):
            with t.span("volumeio.load_mask_s"):
                mask = load_mask(s.mask_path)
            record = SubjectRecord(subject_id=s.sid, age=s.age)
            with t.span("imagefeat.image_features_s"):
                image = extract_image_features(mask, record).as_vector()
            with t.span("imagefeat.mask_summary_s"):
                summary = mask_summary(mask).as_vector()
            with t.span("volumeio.load_nifti_s"):
                vol = load_nifti(s.scan_path)
            radiomics, roi, disc, faces = self._traced_radiomics(vol, mask)
        t.note("volumeio.decoded_mb", s.decoded_bytes / 1e6)
        t.note("radiomics.roi_voxels", roi.voxel_count)
        t.note("radiomics.mesh_faces", int(faces.shape[0]))
        if s.sid not in self._counts:
            self._counts[s.sid] = {
                "radiomics.glszm_zones": int(glszm_matrix(disc).sum()),
                "radiomics.glrlm_runs": int(sum(m.sum() for m in
                                                glrlm_matrices(disc))),
            }
        for name, value in self._counts[s.sid].items():
            t.note(name, value)
        if not self._bytes_checked:
            self._bytes_checked = True
            reference = extract_radiomics(vol, mask, CONFIG).values
            if reference.tobytes() != radiomics.tobytes():
                raise AssertionError(
                    f"{s.sid}: traced radiomics vector differs from "
                    "extract_radiomics")
        return image.tolist() + summary.tolist() + radiomics.tolist()

    def _traced_radiomics(self, vol, mask):
        """``extract_radiomics`` step by step, one span per step."""
        t = self.tracer
        with t.span("volumeio.derive_roi_s"):
            roi = derive_roi(mask, CONFIG.roi_kind)
        with t.span("radiomics.discretize_s"):
            disc = discretize(vol, roi, CONFIG.binning)
        values = {}
        with t.span("radiomics.shape_s"):
            shape = shape_features(roi).as_vector()
        values.update(zip(SHAPE_FEATURE_NAMES, shape.tolist()))
        with t.span("radiomics.shape.mesh_s"):
            vertices, faces = extract_mesh(roi.membership)
        with t.span("radiomics.shape.taubin_s"):
            smoothed = taubin_smooth(vertices, faces)
        with t.span("radiomics.shape.area_volume_s"):
            mesh_area_volume(smoothed, faces, roi.spacing)
        families = (
            ("radiomics.firstorder_s", lambda: first_order_features(vol, roi,
                                                                    disc)),
            ("radiomics.glcm_s", lambda: glcm_features(disc)),
            ("radiomics.glrlm_s", lambda: glrlm_features(disc)),
            ("radiomics.glszm_s", lambda: glszm_features(disc)),
            ("radiomics.gldm_s", lambda: gldm_features(disc,
                                                       CONFIG.gldm_alpha)),
            ("radiomics.ngtdm_s", lambda: ngtdm_features(disc)),
        )
        for name, compute in families:
            with t.span(name):
                values.update(compute())
        vector = np.array([values[n] for n in RADIOMICS_FEATURE_NAMES])
        return vector, roi, disc, faces


class ExtractBrats(_Extract):
    """A cycled set of four BraTS-grid subjects, gzip-compressed NIfTI.

    The set crosses smooth and lobulated whole tumors with noisy and smooth
    scans. The seed moves the tumor by up to 3 voxels, draws the noise and
    the phase of the smooth texture; sizes stay fixed, so the work per
    subject barely depends on the seed.
    """

    name = "extract_brats"
    suffix = ".nii.gz"
    mask_dtype = np.uint8

    def subject_plan(self):
        f = self.scale.brats_factor
        dims = tuple(int(round(d * f)) for d in (240, 240, 155))

        def at(point):      # full-grid coordinates to this grid
            return tuple((c + 0.5) * f - 0.5 for c in point)

        brain = (at((119.5, 119.5, 77.0)), tuple(a * f for a in (88, 72, 62)))
        smooth = [((0, 0, 0), (30, 26, 22))]
        lobulated = [((0, 0, 0), (24, 21, 18)), ((20, 9, 4), (15, 13, 11)),
                     ((-13, 16, -7), (13, 11, 9))]
        kinds = ((smooth, "noisy"), (lobulated, "smooth"),
                 (lobulated, "noisy"), (smooth, "smooth"))
        for index, (lobes, texture) in enumerate(kinds):
            jitter = _rng(self.seed, 0, index).uniform(-3.0, 3.0, 3)
            center = at(np.array((137.5, 107.5, 83.0)) + jitter)
            lobes_here = [(tuple(o * f for o in off), np.array(ax) * f)
                          for off, ax in lobes]
            yield (f"brats-{index}", dims, brain, lobes_here, center,
                   texture, tuple(w * f for w in (23.0, 29.0, 19.0)))


class ExtractDesk(_Extract):
    """Many distinct 40^3 subjects in uncompressed NIfTI.

    Whole-tumor volumes are stratified over 300-3000 voxels (log-uniform, one
    seeded draw per stratum), so every seed sees the same size mix. Odd
    subjects are lobulated; scans alternate noisy and smooth in pairs.
    """

    name = "extract_desk"
    setup_reps = 5

    def subject_plan(self):
        dims = (40, 40, 40)
        middle = (19.5, 19.5, 19.5)
        brain = (middle, (18.0, 17.0, 16.0))
        n = self.scale.desk_subjects
        for index in range(n):
            rng = _rng(self.seed, 0, index)
            volume = 300.0 * 10.0 ** ((index + rng.uniform()) / n)
            r = (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)
            if index % 2:
                lobes = [((0, 0, 0), r * np.array((1.0, 0.9, 0.8)) * 0.85),
                         ((0.9 * r, 0.3 * r, 0.0),
                          r * np.array((0.6, 0.55, 0.5)))]
            else:
                lobes = [((0, 0, 0), r * np.array((1.15, 1.0, 0.87)))]
            center = np.add(middle, rng.uniform(-1.5, 1.5, 3))
            texture = "noisy" if (index // 2) % 2 == 0 else "smooth"
            yield (f"desk-{index:03d}", dims, brain, lobes, tuple(center),
                   texture, (9.0, 11.0, 7.0))


class _Command(Workload):
    """A CLI command on a synthetic cohort written at set-up."""

    unit = "command"

    def __init__(self, *args):
        super().__init__(*args)
        self.features = os.path.join(self.workdir, "features.csv")
        self.metadata = os.path.join(self.workdir, "metadata.csv")
        self.out = os.path.join(self.workdir, "out")
        self.cohort = None

    def generate(self) -> None:
        spec = CohortSpec(n_subjects=self.scale.cohort_subjects,
                          seed=7 + self.seed, link=dict(COHORT_LINK),
                          noise_std=40.0, n_distractors=5)
        with self.tracer.span("phantoms.gen_cohort_s"):
            cohort, _ = gen_cohort(spec)
        cohort.write_features_csv(self.features)
        cohort.write_metadata_csv(self.metadata)
        self.cohort = cohort

    def inputs(self) -> dict:
        wt = self.cohort.column("img.vol_wt")
        return {
            "grid_dims": [40, 40, 40],
            "subjects": self.cohort.n_subjects,
            "features": len(self.cohort.feature_names),
            "roi_voxels_median": float(np.median(wt)),
            "compressed_bytes": os.path.getsize(self.features)
            + os.path.getsize(self.metadata),
            "decoded_bytes": os.path.getsize(self.features)
            + os.path.getsize(self.metadata),
        }

    def args(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i: int):
        status = cli.main(self.args())
        if status != 0:
            raise RuntimeError(f"radsurv {self.name} exited with {status}")

    def wrapped(self) -> list[tuple]:
        """(module, attribute, span name or naming function) of each public
        function the command calls that gets a span, besides train_model."""
        raise NotImplementedError

    def traced_op(self, i: int):
        t = self.tracer
        t.op = i
        nodes = {"rfr": 0, "gbr": 0}

        def count_nodes(name, model):
            kind = name.rsplit(".", 1)[1]
            if kind in nodes:
                nodes[kind] += _node_count(model)

        with ExitStack() as stack:
            for module, attr, name in self.wrapped():
                stack.enter_context(t.wrap(module, attr, name))
            stack.enter_context(t.wrap(self.fit_caller, "train_model",
                                       _fit_name, count_nodes))
            with t.span("cli.self_s"):
                status = cli.main(self.args())
        if status != 0:
            raise RuntimeError(f"radsurv {self.name} exited with {status}")
        for kind, count in nodes.items():
            t.note(f"regressors.{kind}.nodes", count)
        t.note("featselect.refits",
               len(t.children(i, "regressors.fit_s.rfr", "featselect.rfe_s")))


def _fit_name(kind, *args, **kwargs) -> str:
    return f"regressors.fit_s.{kind}"


def _predict_name(model, *args, **kwargs) -> str:
    return f"regressors.predict_s.{model_kind(model)}"


def _node_count(model) -> int:
    stack = list(model.trees)
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        if node.feature is not None:
            stack.extend((node.left, node.right))
    return count


class Rfe(_Command):
    """``radsurv rfe`` (RFR, keep 20, step 1) on the cohort's 107 radiomics
    columns, the input of the paper's rfe20 feature set.

    The forests have 25 trees instead of the default 50, passed through
    ``--config``: 88 refits of 50-tree forests take 25-45 s per op on a
    2-core host, which with the cohort set-up would not fit the benchmark's
    time budget. The work is the same per-node split search, half as often.
    """

    name = "rfe"
    fit_caller = featselect
    estimator_params = {"n_trees": 25}

    def __init__(self, *args):
        super().__init__(*args)
        self.features = os.path.join(self.workdir, "radiomics107.csv")
        self.config = os.path.join(self.workdir, "rfe_config.json")
        self.keep = self.scale.rfe_keep

    def generate(self) -> None:
        super().generate()
        names = list(RADIOMICS_FEATURE_NAMES)
        rows = [[sid] + row.tolist() for sid, row in
                zip(self.cohort.subject_ids, self.cohort.select(names))]
        write_csv(self.features, ["subject_id"] + names, rows)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"estimator_params": self.estimator_params}, fh)

    def warm_up(self) -> None:
        """The same command eliminating a single feature (two refits): it
        loads every code path of the op at a fraction of its cost."""
        self.keep = len(RADIOMICS_FEATURE_NAMES) - 1
        try:
            super().warm_up()
        finally:
            self.keep = self.scale.rfe_keep

    def args(self):
        return ["rfe", "--config", self.config, "--features", self.features,
                "--metadata", self.metadata, "--n-keep", str(self.keep),
                "--estimator", "rfr", "--step", "1", "--seed", "0",
                "--out", self.out]

    def rows(self, i: int, result):
        """Both output files, after a structural check of what they say:
        every feature ranked once, and the reduced table holding every
        subject and exactly the ``keep`` top-ranked features."""
        _, ranking = read_csv(os.path.join(self.out, "ranking.csv"))
        names = list(RADIOMICS_FEATURE_NAMES)
        ranked = [row[0] for row in sorted(ranking, key=lambda r: int(r[1]))]
        if sorted(ranked) != sorted(names) or \
                sorted(int(row[1]) for row in ranking) != \
                list(range(1, len(names) + 1)):
            raise AssertionError("ranking.csv does not rank every feature "
                                 "exactly once")
        header, body = read_csv(os.path.join(self.out, "reduced_features.csv"))
        top = set(ranked[:self.keep])
        if header[0] != "subject_id" or len(header) != self.keep + 1 \
                or set(header[1:]) != top \
                or [r[0] for r in body] != list(self.cohort.subject_ids) \
                or any(len(r) != len(header) for r in body):
            raise AssertionError("reduced_features.csv does not hold every "
                                 f"subject and the {self.keep} top-ranked "
                                 "features")
        rows = []
        for name in ("ranking.csv", "reduced_features.csv"):
            with open(os.path.join(self.out, name), "rb") as fh:
                rows.append((name, fh.read()))
        return rows

    def wrapped(self):
        return [(cli, "load_cohort", "cohort.load_s"),
                (cli, "rfe", "featselect.rfe_s")]


class Experiment(_Command):
    """``radsurv experiment``: image7, radiomics107 and shape sets x the four
    predictors with the README's shared parameters (l2, lam 1)."""

    name = "experiment"
    fit_caller = prognosis

    def args(self):
        return ["experiment", "--features", self.features, "--metadata",
                self.metadata, "--feature-sets", "image7,radiomics107,shape",
                "--predictors", "mlp,linear,gbr,rfr", "--params",
                EXPERIMENT_PARAMS, "--seed", "0", "--out", self.out]

    def rows(self, i: int, result):
        rows = []
        for name in ("metrics_train.csv", "metrics_eval.csv"):
            header, body = read_csv(os.path.join(self.out, name))
            for row in body:
                rows.append(("/".join(row[:3]), ",".join(row)))
        return rows

    def wrapped(self):
        return [(cli, "load_cohort", "cohort.load_s"),
                (prognosis, "run_experiment", "prognosis.cell_s"),
                (prognosis, "predict", _predict_name),
                (prognosis, "evaluate", "prognosis.evaluate_s"),
                (prognosis, "save_model", "regressors.persist.save_s")]

    def traced_op(self, i: int):
        """The command, then each cell's saved model loaded back."""
        super().traced_op(i)
        for cell in sorted(os.listdir(self.out)):
            path = os.path.join(self.out, cell, "model.json")
            if os.path.exists(path):
                with self.tracer.span("regressors.persist.load_s"):
                    load_model(path)


WORKLOADS = {w.name: w for w in (ExtractBrats, ExtractDesk, Rfe, Experiment)}


def load_expected(path: str, workload: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}
