"""Command-line surface: extract, rfe, train, predict, evaluate, experiment,
phantom.

Each command's settings are declared once, in ``COMMANDS``: a default and
the keywords of its flag. Every command resolves them as defaults < --config
file < explicit flags, then echoes the fully resolved configuration (schema
``radsurv-config/1``) next to its outputs, so reruns are reproducible from
the artifacts alone. Outputs are byte-identical across reruns with the same
inputs and seed. Exit status is 0 only when every requested subject or
experiment cell succeeded.

Environment: RADSURV_WORKERS (a positive integer, default 1) caps the
extract thread pool, not the output order; RADSURV_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cohort import load_cohort, read_features_csv
from .featselect import EstimatorSpec, rfe
from .phantoms import (PHANTOM_SHAPES, CohortSpec, PhantomSpec, gen_cohort,
                       gen_mask)
from .prognosis import (DEFAULT_THRESHOLDS, EVAL_STATUSES, METRICS_COLUMNS,
                        evaluate, fit, run_experiment_matrix, save_fit)
from .regressors import FAMILIES, PREDICTOR_KINDS, load_model, predict
from .rng import make_rng
from .util import parse_cell, read_csv, read_json, write_csv, write_json
from .volumeio import (SubjectRecord, load_mask, load_nifti,
                       read_metadata_csv, write_nifti)

log = logging.getLogger("radsurv")

CONFIG_SCHEMA = "radsurv-config/1"


def _workers() -> int:
    value = os.environ.get("RADSURV_WORKERS", "1")
    if not value.isdecimal() or int(value) < 1:
        raise SystemExit(f"RADSURV_WORKERS={value!r} is not a positive integer")
    return int(value)


def _write_config(resolved: dict, directory: str, command: str) -> None:
    doc = {"schema": CONFIG_SCHEMA, "version": __version__, "command": command}
    doc.update(resolved)
    write_json(os.path.join(directory, "resolved_config.json"), doc)


def _read_json(path: str, what: str) -> dict:
    """``util.read_json(path, what)``, its ValueError as a SystemExit."""
    try:
        return read_json(path, what)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _merge_config(settings: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, over the keys of a
    command's ``settings`` table."""
    resolved = {key: default for key, (default, _) in settings.items()}
    if args.config:
        file_values = _read_json(args.config, "config file")
        unknown = set(file_values) - set(settings)
        if unknown:
            raise SystemExit(f"{args.config}: config file has unknown keys: "
                             f"{sorted(unknown)}")
        for key, value in file_values.items():
            if isinstance(resolved[key], dict) and not isinstance(value, dict):
                raise SystemExit(f"{args.config}: {key} must be a JSON object")
        resolved.update(file_values)
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _json_object(text: str) -> dict:
    """argparse type of a flag that takes a JSON object."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(
            f"must be a JSON object, not {type(value).__name__}")
    return value


def _binning_from(resolved: dict):
    from .radiomics import Binning

    if resolved.get("bin_width") is not None:
        return Binning("fixed_bin_width", float(resolved["bin_width"]))
    return Binning("fixed_bin_count", int(resolved["bins"]))


# ---------------------------------------------------------------------------
# extract

def _extract_one(subject_id: str, scan_path: str, mask_path: str,
                 age: float, resolved: dict):
    from .radiomics import RadiomicsConfig, extract_row

    mode = resolved["features"]
    mask = load_mask(mask_path)
    record = SubjectRecord(subject_id=subject_id, age=age)
    if mode == "image7":    # reads no scan, so no binning either
        return extract_row(mask, record, mode=mode).tolist()
    config = RadiomicsConfig(roi_kind=resolved["roi"],
                             binning=_binning_from(resolved),
                             channel=resolved["channel"])
    vol = load_nifti(scan_path) if scan_path else None
    return extract_row(mask, record, vol, config, mode).tolist()


def cmd_extract(resolved: dict) -> int:
    workers = _workers()
    header, rows = read_csv(resolved["subjects"], key="ID",
                            required=("mask",))
    rows = [dict(zip(header, row)) for row in rows]
    ages = {r.subject_id: r.age
            for r in read_metadata_csv(resolved["metadata"])}

    def work(row):
        sid = row["ID"]
        if sid not in ages:
            raise KeyError(f"{resolved['metadata']}: no metadata row for "
                           f"subject {sid!r}")
        return _extract_one(sid, row.get("scan", ""), row["mask"], ages[sid],
                            resolved)

    results = []
    failures = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(row["ID"], pool.submit(work, row)) for row in rows]
        for sid, fut in futures:
            try:
                results.append([sid] + fut.result())
            except Exception as exc:
                failures += 1
                log.error("subject %s failed: %s", sid, exc)

    if results:
        from .radiomics import FEATURE_COLUMNS

        write_csv(resolved["out"],
                  ["subject_id", *FEATURE_COLUMNS[resolved["features"]]],
                  results)
    out_dir = os.path.dirname(os.path.abspath(resolved["out"])) or "."
    _write_config(resolved, out_dir, "extract")
    log.info("extract: %d subjects written, %d failed", len(results), failures)
    if not results:
        log.error("no subjects succeeded")
        return 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# rfe

def cmd_rfe(resolved: dict) -> int:
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    if np.isnan(cohort.survival_days).any():
        raise SystemExit("RFE needs survival days for every subject")
    spec = EstimatorSpec(resolved["estimator"],
                         dict(resolved["estimator_params"]))
    ranking = rfe(cohort.X, cohort.survival_days, cohort.feature_names, spec,
                  n_keep=int(resolved["n_keep"]), step=int(resolved["step"]),
                  seed=int(resolved["seed"]))
    os.makedirs(resolved["out"], exist_ok=True)
    ranking.write_csv(os.path.join(resolved["out"], "ranking.csv"))
    reduced = cohort.select(ranking.kept)
    rows = [[sid] + row.tolist()
            for sid, row in zip(cohort.subject_ids, reduced)]
    write_csv(os.path.join(resolved["out"], "reduced_features.csv"),
              ["subject_id"] + ranking.kept, rows)
    _write_config(resolved, resolved["out"], "rfe")
    return 0


# ---------------------------------------------------------------------------
# train / predict / evaluate

def cmd_train(resolved: dict) -> int:
    if resolved["predictor"] is None:
        raise SystemExit("train needs a predictor kind: pass --predictor or "
                         "set the 'predictor' key of the --config file")
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    if np.isnan(cohort.survival_days).any():
        raise SystemExit("training needs survival days for every subject")
    model, report = fit(resolved["predictor"],
                        cohort.select(cohort.feature_names),
                        cohort.survival_days, dict(resolved["params"]),
                        resolved["grid"], int(resolved["cv_folds"]),
                        int(resolved["seed"]), cohort.feature_names)
    save_fit(resolved["out"], model, report)
    _write_config(resolved, resolved["out"], "train")
    return 0


def cmd_predict(resolved: dict) -> int:
    model = load_model(resolved["model"])
    ids, names, X = read_features_csv(resolved["features"])
    missing = [n for n in model.feature_names if n not in names]
    if missing:
        raise SystemExit(f"features CSV lacks model columns {missing}")
    days = predict(model, X[:, [names.index(n) for n in model.feature_names]])
    write_csv(resolved["out"], ["subject_id", "predicted_days"],
              [[sid, float(d)] for sid, d in zip(ids, days)])
    out_dir = os.path.dirname(os.path.abspath(resolved["out"])) or "."
    _write_config(resolved, out_dir, "predict")
    return 0


def cmd_evaluate(resolved: dict) -> int:
    path = resolved["predictions"]
    header, rows = read_csv(path, key="subject_id",
                            required=("predicted_days",))
    if resolved["eval_filter"] not in EVAL_STATUSES:
        raise SystemExit(f"eval_filter must be one of {tuple(EVAL_STATUSES)}")
    id_col = header.index("subject_id")
    pred_col = header.index("predicted_days")
    pred_by_id = {row[id_col]: parse_cell(path, row[id_col], "predicted_days",
                                          row[pred_col]) for row in rows}
    records = read_metadata_csv(resolved["metadata"])
    unmatched = pred_by_id.keys() - {rec.subject_id for rec in records}
    if unmatched:
        raise ValueError(f"{path}: subject {min(unmatched)!r} has no metadata "
                         f"row in {resolved['metadata']}")
    thresholds = (float(resolved["t_lo"]), float(resolved["t_hi"]))
    statuses = EVAL_STATUSES[resolved["eval_filter"]]

    pred, true = [], []
    for rec in records:
        if (rec.subject_id not in pred_by_id or rec.survival_days is None
                or rec.resection_status not in statuses):
            continue
        pred.append(pred_by_id[rec.subject_id])
        true.append(rec.survival_days)
    if len(pred) < 2:
        raise SystemExit("fewer than 2 evaluable subjects after filtering")
    metrics = evaluate(pred, true, thresholds)
    os.makedirs(resolved["out"], exist_ok=True)
    dataset = "all" if resolved["eval_filter"] == "all" else "eval"
    write_csv(os.path.join(resolved["out"], "metrics.csv"), METRICS_COLUMNS,
              [metrics.row(dataset, "-", "-", 0, thresholds)])
    _write_config(resolved, resolved["out"], "evaluate")
    return 0


# ---------------------------------------------------------------------------
# experiment

def cmd_experiment(resolved: dict) -> int:
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    feature_sets = [s for s in str(resolved["feature_sets"]).split(",") if s]
    predictors = [s for s in str(resolved["predictors"]).split(",") if s]
    base_plan = {
        "params": dict(resolved["params"]),
        "grid": resolved["grid"],
        "cv_folds": int(resolved["cv_folds"]),
        "eval_filter": resolved["eval_filter"],
        "thresholds": (float(resolved["t_lo"]), float(resolved["t_hi"])),
    }
    os.makedirs(resolved["out"], exist_ok=True)
    run_experiment_matrix(cohort, feature_sets, predictors,
                          int(resolved["seed"]), resolved["out"], base_plan)
    _write_config(resolved, resolved["out"], "experiment")
    return 0


# ---------------------------------------------------------------------------
# phantom

def _is_number(value) -> bool:
    """A finite JSON number; JSON true and false are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_int(value) -> bool:
    return _is_number(value) and value == int(value)


def _numbers(count, test=_is_number):
    """The test of a list of ``count`` (any number if None) values that
    pass ``test``."""
    return lambda v: isinstance(v, list) and count in (None, len(v)) and \
        all(map(test, v))


def _checked(description: str, test, convert=lambda v: v):
    """A spec value's conversion: ``convert(value)`` of a value that passes
    ``test``, else a ValueError naming what the value must be."""
    def conversion(value):
        try:
            ok = test(value)
        except OverflowError:       # an integer beyond the float range
            ok = False
        if not ok:
            raise ValueError(f"must be {description}, not {value!r}")
        return convert(value)
    return conversion


# the NIfTI header holds spacing and origin as float32, and its dim field
# as int16
_FLOAT32 = np.finfo(np.float32)
_IN_HEADER = _numbers(3, lambda v: _is_number(v) and abs(v) <= _FLOAT32.max)
_COUNT = _checked("an integer >= 0", lambda v: _is_int(v) and v >= 0, int)
_FLOAT = _checked("a finite number", _is_number, float)

# a phantom spec's keys, each with the conversion its value takes
_SPEC_KEYS = {"seed": _COUNT,
              "masks": _checked("an array", lambda v: isinstance(v, list)),
              "cohort": lambda v: v}
_MASK_KEYS = {
    "name": _checked("a plain file name", lambda v: isinstance(v, str) and (
        v not in ("", ".", "..") and "\0" not in v
        and os.path.basename(v) == v)),
    "with_volume": _checked("true or false", lambda v: isinstance(v, bool)),
    "shape": _checked(f"one of {', '.join(PHANTOM_SHAPES)}",
                      lambda v: isinstance(v, str) and v in PHANTOM_SHAPES),
    "params": _checked("finite positive numbers",
                       _numbers(None, lambda v: _is_number(v) and v > 0),
                       tuple),
    "center": _checked("three finite numbers", _numbers(3), tuple),
    "label_fill": _checked("an integer", _is_int, int),
    "dims": _checked("three integers in 1..32767", _numbers(
        3, lambda v: _is_int(v) and 1 <= v <= 32767),
        lambda v: tuple(map(int, v))),
    "spacing": _checked("three positive numbers within the float32 range",
                        lambda v: _IN_HEADER(v) and
                        min(v) >= _FLOAT32.smallest_subnormal, tuple),
    "origin": _checked("three numbers within the float32 range", _IN_HEADER,
                       tuple)}
_COHORT_KEYS = {
    "n_subjects": _checked("an integer >= 1",
                           lambda v: _is_int(v) and v >= 1, int),
    "seed": _COUNT, "intercept": _FLOAT, "noise_std": _FLOAT,
    "link": _checked("an object of finite numbers", lambda v: isinstance(
        v, dict) and all(map(_is_number, v.values())),
        lambda v: {k: float(x) for k, x in v.items()}),
    "n_distractors": _COUNT,
    "class_mix": _checked("null or three finite numbers",
                          lambda v: v is None or _numbers(3)(v),
                          lambda v: None if v is None else tuple(v)),
    "resection_mix": _checked("three finite numbers", _numbers(3), tuple),
    "thresholds": _checked("two finite numbers", _numbers(2), tuple)}


def _spec_fields(entry, keys: dict, where: str, spec_path: str,
                 required=()) -> dict:
    """The values ``entry`` sets, each converted by its key's conversion in
    ``keys``; SystemExit naming the key path of an unknown or missing key,
    or of a value its conversion rejects."""
    if not isinstance(entry, dict):
        raise SystemExit(f"{spec_path}: {where} must be a JSON object, not "
                         f"{type(entry).__name__}")
    prefix = where + "." if where else ""
    for key in entry:
        if key not in keys:
            raise SystemExit(f"{spec_path}: unknown phantom spec key "
                             f"{prefix}{key}")
    for key in required:
        if key not in entry:
            raise SystemExit(f"{spec_path}: {prefix}{key} is required")
    fields = {}
    for key, value in entry.items():
        try:
            fields[key] = keys[key](value)
        except ValueError as exc:
            raise SystemExit(f"{spec_path}: {prefix}{key}: {exc}") from None
    return fields


def _generate(make, spec, where: str, spec_path: str):
    """``make(spec)``, a ValueError (a spec's values that do not fit one
    another) as a SystemExit naming the spec file and entry."""
    try:
        return make(spec)
    except ValueError as exc:
        raise SystemExit(f"{spec_path}: {where}: {exc}") from None


def cmd_phantom(resolved: dict) -> int:
    spec_path = resolved["spec"]
    spec = _spec_fields(_read_json(spec_path, "spec file"), _SPEC_KEYS, "",
                        spec_path)
    outdir = resolved["out"]
    os.makedirs(outdir, exist_ok=True)

    for i, entry in enumerate(spec.get("masks", [])):
        where = f"masks[{i}]"
        fields = _spec_fields(entry, _MASK_KEYS, where, spec_path,
                              required=("shape", "center"))
        name = fields.pop("name", f"phantom{i:03d}")
        with_volume = fields.pop("with_volume", False)
        mask = _generate(gen_mask, PhantomSpec(**{"params": (), **fields}),
                         where, spec_path)
        write_nifti(os.path.join(outdir, f"{name}_mask.nii.gz"),
                    mask.labels.astype(np.int16), mask.spacing, mask.origin)
        if with_volume:
            rng = make_rng(spec.get("seed", 0), i)
            ramp = np.arange(mask.dims[0])[:, None, None] / mask.dims[0]
            data = (0.3 + 0.5 * ramp + 0.05 * rng.standard_normal(mask.dims))
            data = np.where(mask.labels > 0, data + 0.2, data)
            write_nifti(os.path.join(outdir, f"{name}_vol.nii.gz"),
                        data, mask.spacing, mask.origin)

    if "cohort" in spec:
        fields = _spec_fields(spec["cohort"], _COHORT_KEYS, "cohort",
                              spec_path, required=("n_subjects", "seed"))
        cohort, report = _generate(gen_cohort, CohortSpec(**fields), "cohort",
                                   spec_path)
        cohort.write_features_csv(os.path.join(outdir, "features.csv"))
        cohort.write_metadata_csv(os.path.join(outdir, "metadata.csv"))
        write_json(os.path.join(outdir, "cohort_report.json"), report)

    _write_config(resolved, outdir, "phantom")
    return 0


# ---------------------------------------------------------------------------
# The only declaration of each command's settings. A setting is
# key -> (default, add_argument keywords of its --key flag), or keywords
# None for a key that only a --config file sets. Flags are added in this
# order, so the order is that of --help.

_OUT_DIR = {"help": "output directory"}
_INT = {"type": int}
_FLOAT = {"type": float}
_GRID = {"help": "JSON file with a list of parameter dicts, or 'default'"}
_EVAL_FILTER = {"choices": list(EVAL_STATUSES)}

COMMANDS = {
    "extract": (cmd_extract, "extract feature table from volumes", {
        "subjects": (None, {"help": "manifest CSV: ID,mask[,scan]"}),
        "metadata": (None, {"help": "metadata CSV (ID,Age,...)"}),
        "out": (None, {"help": "output features CSV"}),
        "features": ("all", {"choices": ["all", "image7", "radiomics107"]}),
        "roi": ("WT", {"choices": ["WT", "TC", "ET", "LABEL1", "LABEL2",
                                   "LABEL4"]}),
        "bins": (32, {"type": int, "help": "fixed bin count (default 32)"}),
        "bin_width": (None, _FLOAT),
        "channel": ("unspecified",
                    {"help": "intensity channel label for provenance"})}),
    "rfe": (cmd_rfe, "recursive feature elimination", {
        "features": (None, {}), "metadata": (None, {}),
        "out": (None, _OUT_DIR), "n_keep": (20, _INT),
        "estimator": ("rfr", {"choices": [
            kind for kind, fam in FAMILIES.items()
            if fam.importance is not None]}),
        "estimator_params": ({}, None), "step": (1, _INT),
        "seed": (0, _INT)}),
    "train": (cmd_train, "train one predictor on a feature CSV", {
        "features": (None, {}), "metadata": (None, {}),
        "out": (None, _OUT_DIR),
        "predictor": (None, {"choices": PREDICTOR_KINDS}),
        "params": ({}, {"type": _json_object,
                        "help": "JSON dict of hyperparameters"}),
        "grid": (None, _GRID), "cv_folds": (3, _INT), "seed": (0, _INT)}),
    "predict": (cmd_predict, "predict survival days", {
        "model": (None, {}), "features": (None, {}),
        "out": (None, {"help": "output predictions CSV"})}),
    "evaluate": (cmd_evaluate, "score predictions against metadata", {
        "predictions": (None, {}), "metadata": (None, {}),
        "out": (None, _OUT_DIR), "eval_filter": ("GTR", _EVAL_FILTER),
        "t_lo": (DEFAULT_THRESHOLDS[0], _FLOAT),
        "t_hi": (DEFAULT_THRESHOLDS[1], _FLOAT)}),
    "experiment": (cmd_experiment, "run the feature-set x predictor matrix", {
        "features": (None, {}), "metadata": (None, {}),
        "out": (None, _OUT_DIR),
        "feature_sets": ("image7,radiomics107,rfe20,shape", {
            "help": "comma list from image7,radiomics107,rfe20,shape"}),
        "predictors": ("mlp,linear,gbr,rfr",
                       {"help": "comma list from mlp,linear,gbr,rfr"}),
        "seed": (0, _INT),
        "params": ({}, {"type": _json_object,
                        "help": "JSON dict of shared hyperparameters"}),
        "grid": (None, _GRID), "cv_folds": (3, _INT),
        "eval_filter": ("GTR", _EVAL_FILTER),
        "t_lo": (DEFAULT_THRESHOLDS[0], _FLOAT),
        "t_hi": (DEFAULT_THRESHOLDS[1], _FLOAT)}),
    "phantom": (cmd_phantom, "generate phantom masks and cohorts", {
        "spec": (None, {"help": "phantom spec JSON"}),
        "out": (None, _OUT_DIR)}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radsurv",
        description="Survival prognosis pipeline over segmentation masks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, settings) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, (_, flag) in settings.items():
            if flag is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
        p.add_argument("--config")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("RADSURV_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    func, _, settings = COMMANDS[args.command]
    return func(_merge_config(settings, args))


if __name__ == "__main__":
    sys.exit(main())
