"""Command-line surface: extract, rfe, train, predict, evaluate, experiment,
phantom.

Each command's settings are declared once, in ``COMMANDS``: a default
(``REQUIRED`` for a setting the command cannot run without) and the
keywords of its flag. ``main`` resolves them as defaults < --config file <
explicit flags, rejects a missing required one before any input is read,
runs the command and echoes the fully resolved configuration (schema
``radsurv-config/1``) next to its outputs, so reruns are reproducible from
the artifacts alone. Outputs are byte-identical across reruns with the same
inputs and seed. Exit status is 0 only when every requested subject or
experiment cell succeeded. A path setting that names no file, or the
wrong kind of file, exits with one line naming the setting and the path.

Environment: RADSURV_WORKERS (a positive integer, default 1) caps the
extract thread pool, not the output order; RADSURV_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cohort import load_cohort, read_features_csv
from .featselect import EstimatorSpec, rfe
from .phantoms import (PHANTOM_SHAPES, CohortSpec, PhantomSpec, gen_cohort,
                       gen_mask)
from .prognosis import (DEFAULT_THRESHOLDS, EVAL_STATUSES, FEATURE_SETS,
                        METRICS_COLUMNS, check_thresholds, evaluate, fit,
                        resolve_grid, run_experiment_matrix, save_fit)
from .radiomics import (EXTRACT_MODES, FEATURE_COLUMNS, Binning,
                        RadiomicsConfig, extract_row)
from .regressors import (FAMILIES, PREDICTOR_KINDS, check_param_keys,
                         load_model, predict)
from .rng import make_rng
from .util import (POSITIVE, fields, finite, numbers, of_type, one_of,
                   parse_number, read_cell, read_csv, read_json, write_csv,
                   write_json)
from .volumeio import (NIFTI_MAX_DIM, NIFTI_MAX_FLOAT, NIFTI_MIN_SPACING,
                       ROI_KINDS, SubjectRecord, load_mask, load_nifti,
                       read_metadata_csv, write_nifti)

log = logging.getLogger("radsurv")

CONFIG_SCHEMA = "radsurv-config/1"
REQUIRED = object()     # the default of a setting a command cannot run without


def _workers() -> int:
    value = os.environ.get("RADSURV_WORKERS", "1")
    try:
        workers = parse_number(value, int)
    except ValueError:
        workers = 0
    if workers < 1:
        raise SystemExit(f"RADSURV_WORKERS={value!r} is not a positive integer")
    return workers


def _or_exit(prefix: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, its ValueError as a SystemExit whose
    message is ``prefix`` and the error's."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"{prefix}{exc}") from None


def _check_params(command: str, setting: str, kinds, params: dict,
                  grid=None) -> None:
    """A SystemExit naming the command and the setting where ``params``
    holds a key no predictor family reads or a value that a fit of one of
    the predictor ``kinds`` would reject, or where ``grid`` names no grid
    of each kind. A grid search reads no ``params``, so with a ``grid``
    they must be empty."""
    prefix = f"radsurv {command}: {setting}: "
    if grid and params:
        raise SystemExit(f"{prefix}a grid search reads no {setting}, so "
                         f"they must be {{}} when grid is set")
    _or_exit(prefix, check_param_keys, params)
    for kind in kinds:
        _or_exit(prefix, FAMILIES[kind].settings, params)
        _or_exit(f"radsurv {command}: grid: ", resolve_grid, grid, kind)


def _merge_config(command: str, settings: dict,
                  args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, over the keys of a
    command's ``settings`` table; a SystemExit names a REQUIRED setting
    that neither the file nor a flag sets."""
    resolved = {key: default for key, (default, _) in settings.items()}
    if args.config:
        resolved.update(_or_exit(
            f"{args.config}: ", fields,
            _or_exit("", read_json, args.config, "config file"),
            {key: _setting(*setting) for key, setting in settings.items()},
            unknown="config file has unknown keys: {keys}"))
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
        elif resolved[key] is REQUIRED:
            raise SystemExit(f"radsurv {command} needs --"
                             f"{key.replace('_', '-')} or the config key "
                             f"{key!r}" + (f" in {args.config}"
                                           if args.config else ""))
    return resolved


def _setting(default, flag: dict | None):
    """The decoder of a setting's config-file value, by its flag: what
    ``util.numbers`` accepts as the flag's ``type=_Number(...)``, one of
    the ``choices``, an object whose numbers are finite where the default
    or ``type`` is one, else a string; null only where the default is
    null. It returns the value."""
    flag = flag or {}
    kind = flag.get("type")
    if isinstance(kind, _Number):
        check = _numbers_as(lambda value: value, shape=(), kinds=kind.kinds,
                            low=kind.low)
    elif "choices" in flag:
        check = one_of(flag["choices"])
    else:
        is_kind = of_type(dict if isinstance(default, dict)
                          or kind is _json_object else str)
        check = lambda value, where: finite(is_kind(value, where), where)
    return lambda value, where: (value if value is None and default is None
                                 else check(value, where))


def _json_object(text: str) -> dict:
    """argparse type of a flag that takes a JSON object whose numbers are
    finite."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(
            f"must be a JSON object, not {type(value).__name__}")
    try:
        return finite(value, "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Number:
    """argparse type of a flag that takes a finite number, an integer where
    ``kinds`` is "i", of at least ``low``: read by ``util.parse_number``
    and checked by ``util.numbers``, as a config file's value is."""

    def __init__(self, kinds: str = "if", low=None):
        self.kinds, self.low = kinds, low
        self.what = (f"an integer >= {low}" if kinds == "i" else
                     "a finite number" + (" > 0" if low == POSITIVE else ""))

    def __call__(self, text: str):
        try:
            value = parse_number(text, int if self.kinds == "i" else float)
            numbers(value, "", self.kinds, (), self.low)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {self.what}") from None
        return value


def _binning_from(resolved: dict):
    if resolved.get("bin_width") is not None:
        return Binning("fixed_bin_width", float(resolved["bin_width"]))
    return Binning("fixed_bin_count", resolved["bins"])


# ---------------------------------------------------------------------------
# extract

def _extract_one(subject_id: str, scan_path: str, mask_path: str,
                 age: float, resolved: dict):
    mode = resolved["features"]
    mask = load_mask(mask_path)
    record = SubjectRecord(subject_id=subject_id, age=age)
    if mode == "image7":    # reads no scan, so no binning either
        return extract_row(mask, record, mode=mode).tolist()
    config = RadiomicsConfig(roi_kind=resolved["roi"],
                             binning=_binning_from(resolved))
    vol = load_nifti(scan_path)
    return extract_row(mask, record, vol, config, mode).tolist()


def cmd_extract(resolved: dict) -> int:
    workers = _workers()
    # image7 reads no scan
    files = ("mask",) if resolved["features"] == "image7" else ("mask", "scan")
    header, rows = read_csv(resolved["subjects"], key="ID", required=files)
    rows = [dict(zip(header, row)) for row in rows]
    ages = {r.subject_id: r.age
            for r in read_metadata_csv(resolved["metadata"])}

    def work(row):
        sid = row["ID"]
        if sid not in ages:
            raise KeyError(f"{resolved['metadata']}: no metadata row for "
                           f"subject {sid!r}")
        for column in files:
            if not row[column]:
                raise ValueError(f"{resolved['subjects']}: subject {sid!r} "
                                 f"column {column!r} is empty")
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
        write_csv(resolved["out"],
                  ["subject_id", *FEATURE_COLUMNS[resolved["features"]]],
                  results)
    log.info("extract: %d subjects written, %d failed", len(results), failures)
    if not results:
        log.error("no subjects succeeded")
        return 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# rfe

def cmd_rfe(resolved: dict) -> int:
    _check_params("rfe", "estimator_params", [resolved["estimator"]],
                  resolved["estimator_params"])
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    if resolved["n_keep"] > len(cohort.feature_names):
        raise SystemExit(f"{resolved['features']}: n_keep "
                         f"{resolved['n_keep']} is above its "
                         f"{len(cohort.feature_names)} feature columns")
    spec = EstimatorSpec(resolved["estimator"],
                         dict(resolved["estimator_params"]))
    ranking = rfe(cohort.X, cohort.known_survival(), cohort.feature_names,
                  spec, n_keep=resolved["n_keep"], step=resolved["step"],
                  seed=resolved["seed"])
    os.makedirs(resolved["out"], exist_ok=True)
    ranking.write_csv(os.path.join(resolved["out"], "ranking.csv"))
    reduced = cohort.select(ranking.kept)
    rows = [[sid] + row.tolist()
            for sid, row in zip(cohort.subject_ids, reduced)]
    write_csv(os.path.join(resolved["out"], "reduced_features.csv"),
              ["subject_id"] + ranking.kept, rows)
    return 0


# ---------------------------------------------------------------------------
# train / predict / evaluate

def cmd_train(resolved: dict) -> int:
    _check_params("train", "params", [resolved["predictor"]],
                  resolved["params"], resolved["grid"])
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    model, report = fit(resolved["predictor"],
                        cohort.select(cohort.feature_names),
                        cohort.known_survival(), dict(resolved["params"]),
                        resolved["grid"], resolved["cv_folds"],
                        resolved["seed"], cohort.feature_names)
    save_fit(resolved["out"], model, report)
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
    return 0


def cmd_evaluate(resolved: dict) -> int:
    path = resolved["predictions"]
    header, rows = read_csv(path, key="subject_id",
                            required=("predicted_days",))
    id_col = header.index("subject_id")
    pred_col = header.index("predicted_days")
    pred_by_id = {row[id_col]: read_cell(path, row[id_col], "predicted_days",
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
    metrics = _or_exit(f"{path}: ", evaluate, pred, true, thresholds)
    os.makedirs(resolved["out"], exist_ok=True)
    dataset = "all" if resolved["eval_filter"] == "all" else "eval"
    write_csv(os.path.join(resolved["out"], "metrics.csv"), METRICS_COLUMNS,
              [metrics.row(dataset, "-", "-", 0, thresholds)])
    return 0


# ---------------------------------------------------------------------------
# experiment

def _names(setting: str, value: str, choices) -> list[str]:
    """A comma list's names; a SystemExit names an unknown or repeated one."""
    names = value.split(",")
    for i, name in enumerate(names):
        _or_exit("radsurv experiment: ", one_of(choices), name, setting)
        if name in names[:i]:
            raise SystemExit(f"radsurv experiment: {setting} names "
                             f"{name!r} twice")
    return names


def cmd_experiment(resolved: dict) -> int:
    feature_sets = _names("feature_sets", resolved["feature_sets"],
                          FEATURE_SETS)
    predictors = _names("predictors", resolved["predictors"], PREDICTOR_KINDS)
    _check_params("experiment", "params", predictors, resolved["params"],
                  resolved["grid"])
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    base_plan = {
        "params": dict(resolved["params"]),
        "grid": resolved["grid"],
        "cv_folds": resolved["cv_folds"],
        "eval_filter": resolved["eval_filter"],
        "thresholds": (float(resolved["t_lo"]), float(resolved["t_hi"])),
    }
    os.makedirs(resolved["out"], exist_ok=True)
    run_experiment_matrix(cohort, feature_sets, predictors,
                          resolved["seed"], resolved["out"], base_plan)
    return 0


# ---------------------------------------------------------------------------
# phantom

def _numbers_as(convert, **check):
    """A decoder: ``convert(value)`` of a value ``util.numbers`` accepts."""
    def decode(value, where: str):
        numbers(value, where, **check)
        return convert(value)
    return decode


def _file_name(value, where: str) -> str:
    """A plain file name, so no output lands outside --out."""
    if not (isinstance(value, str) and value not in ("", ".", "..")
            and "\0" not in value and os.path.basename(value) == value):
        raise ValueError(f"{where} must be a plain file name, not {value!r}")
    return value


_COUNT = _numbers_as(int, kinds="i", shape=(), low=0)
_REAL = _numbers_as(float, shape=())
_TRIPLE = _numbers_as(tuple, shape=(3,))


def _link(value, where: str) -> dict:
    """An object of finite numbers, each as a float."""
    return fields(value, dict.fromkeys(of_type(dict)(value, where), _REAL),
                  where)


def _entry(keys: dict, *required: str):
    """The decoder of a spec object, each key's value decoded by ``keys``."""
    return lambda value, where: fields(
        value, keys, where, required=required,
        unknown="unknown phantom spec key {key}")


# a phantom spec's keys, each with its decoder; dims, spacing and origin
# must fit the NIfTI-1 header they are written to
_MASK_KEYS = {
    "name": _file_name, "with_volume": of_type(bool),
    "shape": one_of(PHANTOM_SHAPES),
    "params": _numbers_as(tuple, shape=(None,), low=POSITIVE),
    "center": _TRIPLE, "label_fill": _numbers_as(int, kinds="i", shape=()),
    "dims": _numbers_as(tuple, kinds="i", shape=(3,), low=1,
                        high=NIFTI_MAX_DIM),
    "spacing": _numbers_as(tuple, shape=(3,), low=NIFTI_MIN_SPACING,
                           high=NIFTI_MAX_FLOAT),
    "origin": _numbers_as(tuple, shape=(3,), low=-NIFTI_MAX_FLOAT,
                          high=NIFTI_MAX_FLOAT)}
_COHORT_KEYS = {
    "n_subjects": _numbers_as(int, kinds="i", shape=(), low=1),
    "seed": _COUNT, "intercept": _REAL, "noise_std": _REAL, "link": _link,
    "n_distractors": _COUNT,
    "class_mix": lambda value, where: None if value is None
    else _TRIPLE(value, where),
    "resection_mix": _TRIPLE,
    "thresholds": lambda value, where: check_thresholds(
        _numbers_as(tuple, shape=(2,))(value, where),
        (f"{where}[0]", f"{where}[1]"))}
_MASK = _entry(_MASK_KEYS, "shape", "center")


def _masks(value, where: str) -> list:
    """The mask entries, each with its name (by default ``phantom{i:03d}``),
    which names its output files, so no two entries share one."""
    entries = [_MASK(entry, f"{where}[{i}]")
               for i, entry in enumerate(of_type(list)(value, where))]
    first = {}
    for i, entry in enumerate(entries):
        name = entry.setdefault("name", f"phantom{i:03d}")
        if name in first:
            raise ValueError(f"{where}[{i}].name {name!r} is also the name "
                             f"of {where}[{first[name]}]")
        first[name] = i
    return entries


_SPEC = _entry({
    "seed": _COUNT, "cohort": _entry(_COHORT_KEYS, "n_subjects", "seed"),
    "masks": _masks})


def cmd_phantom(resolved: dict) -> int:
    spec_path, outdir = resolved["spec"], resolved["out"]
    spec = _or_exit(f"{spec_path}: ", _SPEC,
                    _or_exit("", read_json, spec_path, "spec file"), "")
    os.makedirs(outdir, exist_ok=True)

    for i, entry in enumerate(spec.get("masks", [])):
        name = entry.pop("name")
        with_volume = entry.pop("with_volume", False)
        mask = _or_exit(f"{spec_path}: masks[{i}]: ", gen_mask,
                        PhantomSpec(**{"params": (), **entry}))
        write_nifti(os.path.join(outdir, f"{name}_mask.nii.gz"),
                    mask.labels, mask.spacing, mask.origin)
        if with_volume:
            rng = make_rng(spec.get("seed", 0), i)
            ramp = np.arange(mask.dims[0])[:, None, None] / mask.dims[0]
            data = (0.3 + 0.5 * ramp + 0.05 * rng.standard_normal(mask.dims))
            data = np.where(mask.labels > 0, data + 0.2, data)
            write_nifti(os.path.join(outdir, f"{name}_vol.nii.gz"),
                        data, mask.spacing, mask.origin)

    if "cohort" in spec:
        cohort, report = _or_exit(f"{spec_path}: cohort: ", gen_cohort,
                                  CohortSpec(**spec["cohort"]))
        cohort.write_features_csv(os.path.join(outdir, "features.csv"))
        cohort.write_metadata_csv(os.path.join(outdir, "metadata.csv"))
        write_json(os.path.join(outdir, "cohort_report.json"), report)
    return 0


# ---------------------------------------------------------------------------
# The only declaration of each command's settings. A setting is
# key -> (default, add_argument keywords of its --key flag), or keywords
# None for a key that only a --config file sets. Flags are added in this
# order, so the order is that of --help. resolved_config.json goes in
# --out where its flag is _OUT_DIR, else beside the --out file.

_OUT_DIR = {"help": "output directory"}
_SEED = {"type": _Number("i", 0)}
_FOLDS = {"type": _Number("i", 2)}
_FLOAT = {"type": _Number()}
_GRID = {"help": "JSON file with a list of parameter dicts, or 'default'"}
_EVAL_FILTER = {"choices": list(EVAL_STATUSES)}

COMMANDS = {
    "extract": (cmd_extract, "extract feature table from volumes", {
        "subjects": (REQUIRED, {"help": "manifest CSV: ID,mask[,scan]"}),
        "metadata": (REQUIRED, {"help": "metadata CSV (ID,Age,...)"}),
        "out": (REQUIRED, {"help": "output features CSV"}),
        "features": ("all", {"choices": EXTRACT_MODES}),
        "roi": ("WT", {"choices": ROI_KINDS}),
        "bins": (32, {"type": _Number("i", 2),
                      "help": "fixed bin count (default 32)"}),
        "bin_width": (None, {"type": _Number(low=POSITIVE)}),
        "channel": ("unspecified",
                    {"help": "intensity channel label for provenance"})}),
    "rfe": (cmd_rfe, "recursive feature elimination", {
        "features": (REQUIRED, {}), "metadata": (REQUIRED, {}),
        "out": (REQUIRED, _OUT_DIR), "n_keep": (20, {"type": _Number("i", 1)}),
        "estimator": ("rfr", {"choices": [
            kind for kind, fam in FAMILIES.items()
            if fam.importance is not None]}),
        "estimator_params": ({}, None), "step": (1, {"type": _Number("i", 1)}),
        "seed": (0, _SEED)}),
    "train": (cmd_train, "train one predictor on a feature CSV", {
        "features": (REQUIRED, {}), "metadata": (REQUIRED, {}),
        "out": (REQUIRED, _OUT_DIR),
        "predictor": (REQUIRED, {"choices": PREDICTOR_KINDS}),
        "params": ({}, {"type": _json_object,
                        "help": "JSON dict of hyperparameters"}),
        "grid": (None, _GRID), "cv_folds": (3, _FOLDS), "seed": (0, _SEED)}),
    "predict": (cmd_predict, "predict survival days", {
        "model": (REQUIRED, {}), "features": (REQUIRED, {}),
        "out": (REQUIRED, {"help": "output predictions CSV"})}),
    "evaluate": (cmd_evaluate, "score predictions against metadata", {
        "predictions": (REQUIRED, {}), "metadata": (REQUIRED, {}),
        "out": (REQUIRED, _OUT_DIR), "eval_filter": ("GTR", _EVAL_FILTER),
        "t_lo": (DEFAULT_THRESHOLDS[0], _FLOAT),
        "t_hi": (DEFAULT_THRESHOLDS[1], _FLOAT)}),
    "experiment": (cmd_experiment, "run the feature-set x predictor matrix", {
        "features": (REQUIRED, {}), "metadata": (REQUIRED, {}),
        "out": (REQUIRED, _OUT_DIR),
        "feature_sets": ("image7,radiomics107,rfe20,shape", {
            "help": "comma list from image7,radiomics107,rfe20,shape"}),
        "predictors": ("mlp,linear,gbr,rfr",
                       {"help": "comma list from mlp,linear,gbr,rfr"}),
        "seed": (0, _SEED),
        "params": ({}, {"type": _json_object,
                        "help": "JSON dict of shared hyperparameters"}),
        "grid": (None, _GRID), "cv_folds": (3, _FOLDS),
        "eval_filter": ("GTR", _EVAL_FILTER),
        "t_lo": (DEFAULT_THRESHOLDS[0], _FLOAT),
        "t_hi": (DEFAULT_THRESHOLDS[1], _FLOAT)}),
    "phantom": (cmd_phantom, "generate phantom masks and cohorts", {
        "spec": (REQUIRED, {"help": "phantom spec JSON"}),
        "out": (REQUIRED, _OUT_DIR)}),
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
    resolved = {}
    try:
        resolved = _merge_config(args.command, settings, args)
        if "t_lo" in resolved:   # before any input is read
            _or_exit(f"{args.config}: " if args.config
                     and None in (args.t_lo, args.t_hi) else "",
                     check_thresholds, (resolved["t_lo"], resolved["t_hi"]))
        status = func(resolved)
        out = resolved["out"]
        if settings["out"][1] is not _OUT_DIR:
            out = os.path.dirname(os.path.abspath(out))
        write_json(os.path.join(out, "resolved_config.json"),
                   {"schema": CONFIG_SCHEMA, "version": __version__,
                    "command": args.command, **resolved})
    except OSError as exc:
        # the setting holding the path: path settings lead each table
        values = {"config": args.config, **resolved}
        path = exc.filename and os.path.abspath(exc.filename)
        setting = next((key for key, value in values.items()
                        if isinstance(value, str)
                        and os.path.abspath(value) == path), None)
        if setting is None:
            raise
        raise SystemExit(f"radsurv {args.command}: {setting} "
                         f"{values[setting]}: {exc.strerror}") from None
    return status


if __name__ == "__main__":
    sys.exit(main())
