"""Command-line surface: extract, rfe, train, predict, evaluate, experiment,
phantom.

Every command resolves its configuration as defaults < --config file <
explicit flags, then echoes the fully resolved configuration (schema
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
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cohort import load_cohort, read_features_csv
from .featselect import EstimatorSpec, rfe
from .imagefeat import (IMAGE_FEATURE_NAMES, MASK_SUMMARY_NAMES,
                        extract_image_features, mask_summary)
from .phantoms import CohortSpec, PhantomSpec, gen_cohort, gen_mask
from .prognosis import (DEFAULT_THRESHOLDS, EVAL_STATUSES, METRICS_COLUMNS,
                        evaluate, fit, run_experiment_matrix)
from .regressors import (FAMILIES, PREDICTOR_KINDS, load_model, predict,
                         save_model)
from .rng import make_rng
from .util import read_csv, reject_duplicate_ids, write_csv, write_json
from .volumeio import load_mask, load_nifti, read_metadata_csv, write_nifti

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


def _merge_config(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags (one per key of defaults)."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise SystemExit(f"{config_path}: config file must hold a JSON "
                             f"object, not {type(file_values).__name__}")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise SystemExit(f"config file has unknown keys: {sorted(unknown)}")
        resolved.update(file_values)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _binning_from(resolved: dict):
    from .radiomics import Binning

    if resolved.get("bin_width") is not None:
        return Binning("fixed_bin_width", float(resolved["bin_width"]))
    return Binning("fixed_bin_count", int(resolved["bins"]))


# ---------------------------------------------------------------------------
# extract

def _extract_one(subject_id: str, scan_path: str, mask_path: str,
                 age: float, resolved: dict):
    from .radiomics import RadiomicsConfig, extract_radiomics
    from .volumeio import SubjectRecord

    mask = load_mask(mask_path)
    record = SubjectRecord(subject_id=subject_id, age=age)
    feature_mode = resolved["features"]
    values: list[float] = []
    if feature_mode in ("image7", "all"):
        values += extract_image_features(mask, record).as_vector().tolist()
    if feature_mode == "all":
        values += mask_summary(mask).as_vector().tolist()
    if feature_mode in ("radiomics107", "all"):
        if not scan_path:
            raise ValueError("radiomics features need a scan path")
        vol = load_nifti(scan_path)
        config = RadiomicsConfig(roi_kind=resolved["roi"],
                                 binning=_binning_from(resolved),
                                 channel=resolved["channel"])
        values += extract_radiomics(vol, mask, config).values.tolist()
    return values


def _extract_columns(feature_mode: str) -> list[str]:
    from .radiomics import RADIOMICS_FEATURE_NAMES

    if feature_mode == "image7":
        return list(IMAGE_FEATURE_NAMES)
    if feature_mode == "radiomics107":
        return list(RADIOMICS_FEATURE_NAMES)
    return (list(IMAGE_FEATURE_NAMES) + list(MASK_SUMMARY_NAMES)
            + list(RADIOMICS_FEATURE_NAMES))


def cmd_extract(args) -> int:
    workers = _workers()
    resolved = _merge_config(
        {"subjects": None, "metadata": None, "out": None, "features": "all",
         "roi": "WT", "bins": 32, "bin_width": None,
         "channel": "unspecified"}, args)
    header, rows = read_csv(resolved["subjects"])
    required = {"ID", "mask"}
    if not required.issubset(header):
        raise SystemExit(f"subjects manifest needs columns {sorted(required)}")
    id_col = header.index("ID")
    mask_col = header.index("mask")
    scan_col = header.index("scan") if "scan" in header else None
    reject_duplicate_ids((row[id_col] for row in rows), resolved["subjects"])

    ages = {r.subject_id: r.age
            for r in read_metadata_csv(resolved["metadata"])}

    def work(row):
        sid = row[id_col]
        scan = row[scan_col] if scan_col is not None else ""
        if sid not in ages:
            raise KeyError(f"no metadata row for subject {sid!r}")
        return _extract_one(sid, scan, row[mask_col], ages[sid], resolved)

    results = []
    failures = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(row[id_col], pool.submit(work, row)) for row in rows]
        for sid, fut in futures:
            try:
                results.append([sid] + fut.result())
            except Exception as exc:
                failures += 1
                log.error("subject %s failed: %s", sid, exc)

    columns = _extract_columns(resolved["features"])
    if results:
        write_csv(resolved["out"], ["subject_id"] + columns, results)
    out_dir = os.path.dirname(os.path.abspath(resolved["out"])) or "."
    _write_config(resolved, out_dir, "extract")
    log.info("extract: %d subjects written, %d failed", len(results), failures)
    if not results:
        log.error("no subjects succeeded")
        return 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# rfe

def cmd_rfe(args) -> int:
    resolved = _merge_config(
        {"features": None, "metadata": None, "out": None, "n_keep": 20,
         "estimator": "rfr", "estimator_params": {}, "step": 1, "seed": 0},
        args)
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

def cmd_train(args) -> int:
    resolved = _merge_config(
        {"features": None, "metadata": None, "out": None, "predictor": None,
         "params": {}, "grid": None, "cv_folds": 3, "seed": 0}, args)
    if resolved["predictor"] is None:
        raise SystemExit("train needs a predictor kind: pass --predictor or "
                         "set the 'predictor' key of the --config file")
    if isinstance(resolved["params"], str):
        resolved["params"] = json.loads(resolved["params"])
    cohort = load_cohort(resolved["features"], resolved["metadata"])
    if np.isnan(cohort.survival_days).any():
        raise SystemExit("training needs survival days for every subject")
    model, report = fit(resolved["predictor"], cohort.X, cohort.survival_days,
                        dict(resolved["params"]), resolved["grid"],
                        int(resolved["cv_folds"]), int(resolved["seed"]),
                        cohort.feature_names)
    if report is not None:
        write_json(os.path.join(resolved["out"], "grid_report.json"),
                   report.as_dict())
    save_model(model, os.path.join(resolved["out"], "model.json"))
    _write_config(resolved, resolved["out"], "train")
    return 0


def cmd_predict(args) -> int:
    resolved = _merge_config(
        {"model": None, "features": None, "out": None}, args)
    model = load_model(resolved["model"])
    ids, names, X = read_features_csv(resolved["features"])
    missing = [n for n in model.feature_names if n not in names]
    if missing:
        raise SystemExit(f"features CSV lacks model columns {missing}")
    # row-major like the table itself: a column gather alone would hand the
    # model a column-major matrix, which can move a linear model's last bit
    X = np.ascontiguousarray(X[:, [names.index(n)
                                   for n in model.feature_names]])
    days = predict(model, X)
    write_csv(resolved["out"], ["subject_id", "predicted_days"],
              [[sid, float(d)] for sid, d in zip(ids, days)])
    out_dir = os.path.dirname(os.path.abspath(resolved["out"])) or "."
    _write_config(resolved, out_dir, "predict")
    return 0


def cmd_evaluate(args) -> int:
    resolved = _merge_config(
        {"predictions": None, "metadata": None, "out": None,
         "eval_filter": "GTR", "t_lo": DEFAULT_THRESHOLDS[0],
         "t_hi": DEFAULT_THRESHOLDS[1]}, args)
    header, rows = read_csv(resolved["predictions"])
    if header[:2] != ["subject_id", "predicted_days"]:
        raise SystemExit(
            "predictions CSV must have columns subject_id,predicted_days")
    if resolved["eval_filter"] not in EVAL_STATUSES:
        raise SystemExit(f"eval_filter must be one of {tuple(EVAL_STATUSES)}")
    reject_duplicate_ids((row[0] for row in rows), resolved["predictions"])
    pred_by_id = {row[0]: float(row[1]) for row in rows}
    records = read_metadata_csv(resolved["metadata"])
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

def cmd_experiment(args) -> int:
    resolved = _merge_config(
        {"features": None, "metadata": None, "out": None,
         "feature_sets": "image7,radiomics107,rfe20,shape",
         "predictors": "mlp,linear,gbr,rfr", "seed": 0, "params": {},
         "grid": None, "cv_folds": 3, "eval_filter": "GTR",
         "t_lo": DEFAULT_THRESHOLDS[0], "t_hi": DEFAULT_THRESHOLDS[1]}, args)
    if isinstance(resolved["params"], str):
        resolved["params"] = json.loads(resolved["params"])
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

def cmd_phantom(args) -> int:
    resolved = _merge_config({"spec": None, "out": None}, args)
    with open(resolved["spec"], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    outdir = resolved["out"]
    os.makedirs(outdir, exist_ok=True)

    for i, mspec in enumerate(spec.get("masks", [])):
        name = mspec.get("name", f"phantom{i:03d}")
        phantom = PhantomSpec(
            shape=mspec["shape"], params=tuple(mspec.get("params", ())),
            center=tuple(mspec["center"]),
            label_fill=int(mspec.get("label_fill", 1)),
            dims=tuple(mspec.get("dims", (32, 32, 32))),
            spacing=tuple(mspec.get("spacing", (1.0, 1.0, 1.0))))
        mask = gen_mask(phantom)
        write_nifti(os.path.join(outdir, f"{name}_mask.nii.gz"),
                    mask.labels.astype(np.int16), mask.spacing, mask.origin)
        if mspec.get("with_volume"):
            rng = make_rng(spec.get("seed", 0), i)
            ramp = np.indices(mask.dims)[0] / mask.dims[0]
            data = (0.3 + 0.5 * ramp + 0.05 * rng.standard_normal(mask.dims))
            data = np.where(mask.labels > 0, data + 0.2, data)
            write_nifti(os.path.join(outdir, f"{name}_vol.nii.gz"),
                        data.astype(np.float64), mask.spacing, mask.origin)

    if "cohort" in spec:
        c = spec["cohort"]
        cohort, report = gen_cohort(CohortSpec(
            n_subjects=int(c["n_subjects"]), seed=int(c["seed"]),
            link={k: float(v) for k, v in c.get("link", {}).items()},
            intercept=float(c.get("intercept", 0.0)),
            noise_std=float(c.get("noise_std", 0.0)),
            class_mix=tuple(c["class_mix"]) if c.get("class_mix") else None,
            n_distractors=int(c.get("n_distractors", 0))))
        cohort.write_features_csv(os.path.join(outdir, "features.csv"))
        cohort.write_metadata_csv(os.path.join(outdir, "metadata.csv"))
        write_json(os.path.join(outdir, "cohort_report.json"), report)

    _write_config(resolved, outdir, "phantom")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radsurv",
        description="Survival prognosis pipeline over segmentation masks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract feature table from volumes")
    p.add_argument("--subjects", help="manifest CSV: ID,mask[,scan]")
    p.add_argument("--metadata", help="metadata CSV (ID,Age,...)")
    p.add_argument("--out", help="output features CSV")
    p.add_argument("--features", choices=["all", "image7", "radiomics107"])
    p.add_argument("--roi", choices=["WT", "TC", "ET", "LABEL1", "LABEL2",
                                     "LABEL4"])
    p.add_argument("--bins", type=int, help="fixed bin count (default 32)")
    p.add_argument("--bin-width", dest="bin_width", type=float)
    p.add_argument("--channel", help="intensity channel label for provenance")
    p.add_argument("--config")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("rfe", help="recursive feature elimination")
    p.add_argument("--features")
    p.add_argument("--metadata")
    p.add_argument("--out", help="output directory")
    p.add_argument("--n-keep", dest="n_keep", type=int)
    p.add_argument("--estimator", choices=[
        kind for kind, fam in FAMILIES.items() if fam.importance is not None])
    p.add_argument("--step", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_rfe)

    p = sub.add_parser("train", help="train one predictor on a feature CSV")
    p.add_argument("--features")
    p.add_argument("--metadata")
    p.add_argument("--out", help="output directory")
    p.add_argument("--predictor", choices=PREDICTOR_KINDS)
    p.add_argument("--params", help="JSON dict of hyperparameters")
    p.add_argument("--grid", help="JSON file with a list of parameter dicts, or 'default'")
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict survival days")
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--out", help="output predictions CSV")
    p.add_argument("--config")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against metadata")
    p.add_argument("--predictions")
    p.add_argument("--metadata")
    p.add_argument("--out", help="output directory")
    p.add_argument("--eval-filter", dest="eval_filter", choices=list(EVAL_STATUSES))
    p.add_argument("--t-lo", dest="t_lo", type=float)
    p.add_argument("--t-hi", dest="t_hi", type=float)
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the feature-set x predictor matrix")
    p.add_argument("--features")
    p.add_argument("--metadata")
    p.add_argument("--out", help="output directory")
    p.add_argument("--feature-sets", dest="feature_sets",
                   help="comma list from image7,radiomics107,rfe20,shape")
    p.add_argument("--predictors", help="comma list from mlp,linear,gbr,rfr")
    p.add_argument("--seed", type=int)
    p.add_argument("--params", help="JSON dict of shared hyperparameters")
    p.add_argument("--grid", help="JSON file with a list of parameter dicts, or 'default'")
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--eval-filter", dest="eval_filter", choices=list(EVAL_STATUSES))
    p.add_argument("--t-lo", dest="t_lo", type=float)
    p.add_argument("--t-hi", dest="t_hi", type=float)
    p.add_argument("--config")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("phantom", help="generate phantom masks and cohorts")
    p.add_argument("--spec", help="phantom spec JSON")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config")
    p.set_defaults(func=cmd_phantom)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("RADSURV_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
