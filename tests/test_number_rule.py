"""One number rule at the boundary.

``util.parse_number`` is the grammar of every CSV cell and number flag,
``util.read_cell`` reads every numeric cell, and
``regressors.number_param`` decodes every numeric hyperparameter. Each
case in the ``*_named`` tests below was once accepted without a word (or
failed in a message that named no file, subject, column, flag or key). The
seeded fuzz feeds mutated predictions CSVs to ``evaluate``, random
hyperparameter objects to ``train --params``, ``rfe`` ``estimator_params``
and ``train --grid``, and mutated ``--config`` files to five commands:
each case either succeeds with finite outputs or raises an error that
names what is at fault.
"""

import copy
import json
import math
import re

import numpy as np
import pytest

from radsurv.cli import COMMANDS, main
from radsurv.cohort import load_cohort
from radsurv.regressors import FAMILIES, load_model, predict, train_model
from radsurv.util import parse_number, read_cell, read_csv
from radsurv.volumeio import read_metadata_csv, write_nifti

N_SUBJECTS = 12


@pytest.fixture()
def tables(tmp_path):
    """A features CSV (three columns) and a metadata CSV of 12 subjects."""
    rng = np.random.default_rng(26)
    x = rng.standard_normal((N_SUBJECTS, 3))
    days = 400.0 + 150.0 * x[:, 0] + 20.0 * rng.standard_normal(N_SUBJECTS)
    f, m = tmp_path / "features.csv", tmp_path / "meta.csv"
    f.write_text("subject_id,alpha,beta,gamma\n" + "".join(
        f"S{i},{a!r},{b!r},{c!r}\n"
        for i, (a, b, c) in enumerate(x.tolist())))
    m.write_text("ID,Age,Survival_days,Extent_of_Resection\n" + "".join(
        f"S{i},{50 + i},{d:.1f},{'GTR' if i % 3 else 'STR'}\n"
        for i, d in enumerate(days)))
    return f, m


class TestGrammar:
    @pytest.mark.parametrize("text,value", [
        ("7", 7.0), ("+7", 7.0), (".5", 0.5), ("5.", 5.0), ("-1e-3", -1e-3),
        ("1E5", 1e5), (" 12 ", 12.0), ("123456789012", 123456789012.0),
        ("1e-320", 1e-320)])
    def test_numbers_read(self, text, value):
        assert parse_number(text) == value

    @pytest.mark.parametrize("text", [
        "1_000", "١٢", "１２", "0x10", "abc", "", "1,5", "--1", "1e", "\x001",
        "\u00a012"])
    def test_other_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_number(text)

    @pytest.mark.parametrize("text", ["inf", "-Infinity", "nan", "+NAN",
                                      "1e999"])
    def test_non_finite_spellings_read_as_non_finite(self, text):
        assert not math.isfinite(parse_number(text))
        with pytest.raises(ValueError, match=re.escape(
                f"f.csv: subject 'S1' column 'x' holds a non-finite value "
                f"{text!r}")):
            read_cell("f.csv", "S1", "x", text)

    @pytest.mark.parametrize("text", ["", " ", "NA", "na", "NaN", "nan",
                                      "None", " NONE "])
    def test_missing_tokens_only_where_the_column_allows(self, text):
        assert math.isnan(read_cell("f.csv", "S1", "x", text, missing=True))
        with pytest.raises(ValueError, match=re.escape(
                "f.csv: subject 'S1' column 'x' holds a non-")):
            read_cell("f.csv", "S1", "x", text)

    def test_integers(self):
        assert parse_number(" -12 ", int) == -12
        for text in ("1_0", "1.0", "1e3", "٣"):
            with pytest.raises(ValueError):
                parse_number(text, int)


class TestCsvNamed:
    @pytest.mark.parametrize("header,column", [
        ("subject_id,,beta,gamma", 2),
        ("\ufeffsubject_id,alpha,beta,gamma", 1),
        ("subject_id,al\x00pha,beta,gamma", 2),
        ("subject_id,alpha,beta,\x7f", 4)])
    def test_header_cell_rejected_by_column_number(self, tables, header,
                                                   column):
        f, m = tables
        lines = f.read_text().splitlines()
        f.write_text("\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: header column {column} ")):
            load_cohort(str(f), str(m))

    @pytest.mark.parametrize("cell", ["1_000", "١٢"])
    def test_features_cell_outside_the_grammar(self, tables, cell):
        f, m = tables
        lines = f.read_text().splitlines()
        lines[3] = f"S2,1,{cell},2"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: subject 'S2' column 'beta' holds a non-numeric value "
                f"{cell!r}")):
            load_cohort(str(f), str(m))

    @pytest.mark.parametrize("column,cells", [
        ("Age", "S1,5_0,300,GTR"), ("Survival_days", "S1,50,2_00,GTR"),
        ("Age", "S1,NA,300,GTR"), ("Age", "S1,nan,300,GTR")])
    def test_metadata_cell_outside_the_grammar(self, tables, column, cells):
        _, m = tables
        lines = m.read_text().splitlines()
        lines[2] = cells
        m.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{m}: subject 'S1' column {column!r} holds a non-")):
            read_metadata_csv(str(m))

    @pytest.mark.parametrize("cell", ["", "NA", "nan", "None"])
    def test_survival_days_missing_tokens(self, tables, cell):
        _, m = tables
        lines = m.read_text().splitlines()
        lines[2] = f"S1,50,{cell},GTR"
        m.write_text("\n".join(lines) + "\n")
        assert read_metadata_csv(str(m))[1].survival_days is None

    @pytest.mark.parametrize("cell,what", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("", "non-numeric"),
        ("1_000", "non-numeric")])
    def test_evaluate_prediction_named(self, tables, tmp_path, cell, what):
        """A NaN or infinite prediction ended in a bare ``spearman inputs
        must be finite``; a blank one was a non-numeric value already."""
        _, m = tables
        preds = tmp_path / "p.csv"
        preds.write_text("subject_id,predicted_days\n" + "".join(
            f"S{i},{cell if i == 4 else 300 + i}\n"
            for i in range(N_SUBJECTS)))
        with pytest.raises(ValueError, match=re.escape(
                f"{preds}: subject 'S4' column 'predicted_days' holds a "
                f"{what} value {cell!r}")):
            main(["evaluate", "--predictions", str(preds), "--metadata",
                  str(m), "--eval-filter", "all", "--out",
                  str(tmp_path / "ev")])

    def test_evaluate_overflowing_error_named(self, tables, tmp_path):
        """A finite prediction whose squared error is too large for a float
        wrote an mse of inf."""
        _, m = tables
        preds = tmp_path / "p.csv"
        preds.write_text("subject_id,predicted_days\n" + "".join(
            f"S{i},{'1e200' if i == 4 else 300 + i}\n"
            for i in range(N_SUBJECTS)))
        with pytest.raises(SystemExit, match=re.escape(
                f"{preds}: a squared error overflows")):
            main(["evaluate", "--predictions", str(preds), "--metadata",
                  str(m), "--eval-filter", "all", "--out",
                  str(tmp_path / "ev")])

    @pytest.mark.parametrize("argv,message", [
        (["evaluate", "--t-lo", "1_0"], "argument --t-lo: '1_0' is not a "
                                        "finite number"),
        (["extract", "--bin-width", "٢"], "argument --bin-width: '٢' is not "
                                          "a finite number"),
        (["train", "--seed", "1_0"], "argument --seed: '1_0' is not an "
                                     "integer"),
        (["train", "--cv-folds", "3.0"], "argument --cv-folds: '3.0' is not "
                                         "an integer"),
        (["extract", "--bins", "٣٢"], "argument --bins: '٣٢' is not an "
                                      "integer"),
        (["rfe", "--n-keep", "2_0"], "argument --n-keep: '2_0' is not an "
                                     "integer"),
        (["rfe", "--step", "1_0"], "argument --step: '1_0' is not an "
                                   "integer"),
        (["train", "--seed", "-1"], "argument --seed: '-1' is not an "
                                    "integer >= 0"),
        (["train", "--cv-folds", "1"], "argument --cv-folds: '1' is not an "
                                       "integer >= 2"),
        (["extract", "--bins", "1"], "argument --bins: '1' is not an "
                                     "integer >= 2"),
        (["rfe", "--n-keep", "0"], "argument --n-keep: '0' is not an "
                                   "integer >= 1"),
        (["rfe", "--step", "0"], "argument --step: '0' is not an "
                                 "integer >= 1"),
        (["extract", "--bin-width", "0"], "argument --bin-width: '0' is not "
                                          "a finite number > 0")])
    def test_flag_outside_the_grammar(self, tmp_path, monkeypatch, capsys,
                                      argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestHyperparametersNamed:
    @pytest.mark.parametrize("kind,params,message", [
        ("rfr", {"bootstrap": "false"},
         "bootstrap must be a JSON boolean, not str"),
        ("rfr", {"max_features": 2.5},
         "max_features must be 'all' or 'third' or an integer >= 1, got 2.5"),
        ("rfr", {"max_features": True},
         "max_features must be 'all' or 'third' or an integer >= 1, got True"),
        ("mlp", {"lr": True}, "lr must be a number > 0, got True"),
        ("mlp", {"lr": "abc"}, "lr must be a number > 0, got 'abc'"),
        ("mlp", {"lr": 10 ** 400}, f"lr must be a number > 0, got {10**400}"),
        ("mlp", {"optimizer": "Adam"},
         "optimizer must be one of ['sgd', 'adam'], not 'Adam'"),
        ("gbr", {"subsample": "0.5"},
         "subsample must be a number > 0 and <= 1, got '0.5'"),
        ("gbr", {"learning_rate": True},
         "learning_rate must be a number > 0 and <= 1, got True"),
        ("linear", {"penalty": "l1", "tol": -1},
         "tol must be a number > 0, got -1"),
        ("linear", {"lam": -1.0}, "lam must be a number >= 0, got -1.0"),
        ("linear", {"penalty": "L2"},
         "penalty must be one of ['none', 'l1', 'l2'], not 'L2'")])
    def test_setting_named_before_fitting(self, kind, params, message):
        x = np.random.default_rng(3).random((12, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FAMILIES[kind].settings(params)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_model(kind, x, x[:, 0], params, 0)

    def test_max_features_above_the_feature_count(self):
        x = np.random.default_rng(3).random((12, 2))
        with pytest.raises(ValueError, match=re.escape(
                "max_features must be an integer >= 1 and <= 2, got 3")):
            train_model("rfr", x, x[:, 0], {"max_features": 3}, 0)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_every_stock_grid_combination_passes_its_settings(self, kind):
        for combo in FAMILIES[kind].grid:
            FAMILIES[kind].settings(combo)


# the settings each family reads, a cheap base for each, and the values
# the fuzz draws from (JSON values, so no NaN or infinity)
SETTINGS = {
    "linear": ("penalty", "lam", "max_iter", "tol"),
    "rfr": ("n_trees", "max_depth", "min_split", "max_features", "bootstrap"),
    "gbr": ("n_estimators", "max_depth", "min_split", "learning_rate",
            "subsample"),
    "mlp": ("widths", "epochs", "lr", "optimizer", "batch_size")}
CHEAP = {"linear": {}, "rfr": {"n_trees": 3}, "gbr": {"n_estimators": 4},
         "mlp": {"epochs": 4}}
FUZZ_VALUES = (True, False, None, 0, 1, 2, 3, -1, 0.0, 0.5, 1.0, 2.5, 1e-3,
               -1e-300, 1e300, 10 ** 400, "abc", "0.5", "1", "false", "all",
               "third", "none", "l1", "l2", "sgd", "adam", [], {},
               [1, 1, 1, 1, 1], [2, 2, 2, 2, 2.0])


def _names_a_key(text: str, combos: list) -> bool:
    return any(re.search(rf"\b{key} must be ", text)
               for combo in combos for key in combo)


class TestFuzz:
    def test_mutated_predictions_evaluate_finite_or_name_the_fault(
            self, tables, tmp_path):
        _, m = tables
        tokens = ("", " ", "NA", "nan", "NaN", "None", "inf", "-inf", "1e999",
                  "1e200", "-1e200", "-1", "0", "-0", "1e-320", "abc", " 12 ",
                  "1,5", "\x00", "\ufeff", "é", "0x10", "1_000", "١٢", "+7",
                  ".5", "5.", "1E3", "--1", "S3", "subject_id",
                  "predicted_days")
        base = ["subject_id,predicted_days"] + [
            f"S{i},{250.0 + 31.5 * i!r}" for i in range(N_SUBJECTS)]
        rng = np.random.default_rng(2026)
        preds, out = tmp_path / "p.csv", tmp_path / "ev"
        outcomes = {"scored": 0, "rejected": 0}
        for trial in range(150):
            lines = [line.split(",") for line in base]
            for _ in range(int(rng.integers(1, 3))):
                row = lines[int(rng.integers(len(lines)))]
                row[int(rng.random() < 0.8)] = tokens[int(rng.integers(
                    len(tokens)))]
            preds.write_text("\n".join(map(",".join, lines)) + "\n")
            try:
                status = main(["evaluate", "--predictions", str(preds),
                               "--metadata", str(m), "--eval-filter", "all",
                               "--out", str(out)])
            except (ValueError, KeyError, SystemExit) as exc:
                assert str(preds) in str(exc), f"trial {trial}: {exc}"
                outcomes["rejected"] += 1
                continue
            assert status == 0
            row = (out / "metrics.csv").read_text().splitlines()[1]
            assert all(math.isfinite(float(cell))
                       for cell in row.split(",")[3:9]), (trial, row)
            outcomes["scored"] += 1
        assert outcomes["scored"] >= 20 and outcomes["rejected"] >= 40, \
            outcomes

    def test_fuzzed_hyperparameters_fit_finite_or_name_the_key(
            self, tables, tmp_path):
        f, m = tables
        data = ["--features", str(f), "--metadata", str(m)]
        x = load_cohort(str(f), str(m)).X
        rng = np.random.default_rng(2626)
        outcomes = {"fitted": 0, "rejected": 0, "diverged": 0}
        for trial in range(150):
            route = ("params", "rfe", "grid")[trial % 3]
            kinds = ["linear", "rfr", "gbr"] if route == "rfe" \
                else sorted(FAMILIES)
            kind = kinds[int(rng.integers(len(kinds)))]
            combos = []
            for _ in range(int(rng.integers(1, 3)) if route == "grid" else 1):
                key = SETTINGS[kind][int(rng.integers(len(SETTINGS[kind])))]
                combos.append({**CHEAP[kind], key: FUZZ_VALUES[int(
                    rng.integers(len(FUZZ_VALUES)))]})
            out = tmp_path / f"t{trial}"
            if route == "params":
                argv = ["train", "--predictor", kind, "--params",
                        json.dumps(combos[0])]
            elif route == "rfe":
                config = tmp_path / f"c{trial}.json"
                config.write_text(json.dumps({"estimator_params": combos[0]}))
                argv = ["rfe", "--estimator", kind, "--config", str(config),
                        "--n-keep", "1"]
            else:
                grid = tmp_path / f"g{trial}.json"
                grid.write_text(json.dumps(combos))
                argv = ["train", "--predictor", kind, "--grid", str(grid),
                        "--cv-folds", "2"]
            try:
                assert main([*argv, *data, "--out", str(out)]) == 0
            except (SystemExit, RuntimeError, ValueError) as exc:
                if "training diverged" in str(exc):     # a legal lr, too big
                    outcomes["diverged"] += 1
                else:
                    assert _names_a_key(str(exc), combos), (trial, str(exc))
                    outcomes["rejected"] += 1
                continue
            outcomes["fitted"] += 1
            if route == "rfe":
                assert (out / "ranking.csv").exists()
                continue
            model = load_model(str(out / "model.json"))
            assert np.isfinite(predict(model, x)).all(), trial
            if route == "grid":
                report = json.loads((out / "grid_report.json").read_text())
                for combo, error in zip(combos, report["errors"]):
                    try:
                        FAMILIES[kind].settings(combo)
                    except ValueError as exc:
                        assert error == str(exc), (trial, combo, error)
        assert outcomes["fitted"] >= 10 and outcomes["rejected"] >= 10, \
            outcomes

    def test_fuzzed_config_files_run_finite_or_name_the_file_and_key(
            self, tables, tmp_path, monkeypatch):
        """A seeded fuzz of ``--config`` files through ``main`` for all
        seven commands (``experiment`` on a 12-subject phantom cohort with
        cheap fits, ``phantom`` on a small spec): values replaced, keys
        dropped, an unknown key added, the whole document replaced. Each
        run exits 0 with finite outputs, or raises an error that names the
        config file and a mutated key (the file alone for a replaced
        document). Some rejections name the setting at fault instead of
        the file: a path setting that names no readable file is refused by
        an exit naming the command, the setting and the path, a bad grid
        or ``experiment`` name list by one naming the command and the
        setting, and an ``n_keep`` above the feature columns by one that
        names the features file."""
        f, m = tables
        preds = tmp_path / "p.csv"
        preds.write_text("subject_id,predicted_days\n" + "".join(
            f"S{i},{250.0 + 31.5 * i!r}\n" for i in range(N_SUBJECTS)))
        model = tmp_path / "model"
        assert main(["train", "--predictor", "linear", "--features", str(f),
                     "--metadata", str(m), "--out", str(model)]) == 0
        labels = np.zeros((10, 10, 10), dtype=np.int16)
        labels[2:8, 2:8, 2:8] = 2
        labels[3:7, 3:7, 3:7] = 4
        labels[4:6, 4:6, 4:6] = 1
        # a narrow intensity range: the fuzz's bin width 1e-3 gives a few
        # gray levels, where a wide range would give that many thousand
        scan = 100.0 + np.random.default_rng(9).integers(0, 5, labels.shape) \
            * 1e-3
        write_nifti(str(tmp_path / "mask.nii.gz"), labels)
        write_nifti(str(tmp_path / "scan.nii.gz"), scan)
        subjects = tmp_path / "subjects.csv"
        subjects.write_text(f"ID,mask,scan\nS0,{tmp_path / 'mask.nii.gz'},"
                            f"{tmp_path / 'scan.nii.gz'}\n")
        # a small phantom cohort with the 107 radiomics columns, and a spec
        # of one small mask and a three-subject cohort
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": {
            "n_subjects": 12, "seed": 3, "intercept": -100.0,
            "link": {"img.vol_wt": 0.2, "meta.age": 3.0}, "noise_std": 20.0}}))
        cohort = tmp_path / "cohort"
        assert main(["phantom", "--spec", str(spec), "--out",
                     str(cohort)]) == 0
        pf, pm = cohort / "features.csv", cohort / "metadata.csv"
        spec.write_text(json.dumps({
            "masks": [{"shape": "sphere", "params": [3.0],
                       "center": [5, 5, 5], "dims": [10, 10, 10]}],
            "cohort": {"n_subjects": 3, "seed": 2}}))
        cheap = {"penalty": "l2", "lam": 1.0, **CHEAP["rfr"],
                 **CHEAP["gbr"], **CHEAP["mlp"]}
        base = {
            "extract": {"subjects": str(subjects), "metadata": str(m),
                        "out": "x.csv", "features": "all", "roi": "WT",
                        "bins": 8, "channel": "t1"},
            "rfe": {"features": str(f), "metadata": str(m), "out": "o",
                    "n_keep": 1, "estimator": "linear",
                    "estimator_params": {}, "step": 1, "seed": 0},
            "train": {"features": str(f), "metadata": str(m), "out": "o",
                      "predictor": "linear", "params": {}, "cv_folds": 3,
                      "seed": 0},
            "predict": {"model": str(model / "model.json"),
                        "features": str(f), "out": "p.csv"},
            "evaluate": {"predictions": str(preds), "metadata": str(m),
                         "out": "o", "eval_filter": "all", "t_lo": 300,
                         "t_hi": 450},
            "experiment": {"features": str(pf), "metadata": str(pm),
                           "out": "o", "feature_sets": "image7",
                           "predictors": "linear", "seed": 0,
                           "params": cheap, "cv_folds": 3,
                           "eval_filter": "all", "t_lo": 300, "t_hi": 450},
            "phantom": {"spec": str(spec), "out": "o"}}
        # other values each setting accepts, drawn as often as fuzz values
        accepted = {
            "extract": {"features": ("image7", "radiomics107"),
                        "roi": ("TC", "ET", "LABEL1", "LABEL2"),
                        "bins": (2, 3, 32), "bin_width": (0.25, 1e300),
                        "channel": ("", "FLAIR")},
            "rfe": {"n_keep": (2, 3), "estimator": ("rfr", "gbr"),
                    "estimator_params": ({"lam": 2.0}, {"n_trees": 3}),
                    "step": (2, 5), "seed": (1, 7)},
            "train": {"predictor": ("rfr", "gbr", "mlp"),
                      "params": ({"n_trees": 3}, {"epochs": 4}),
                      "cv_folds": (2, 5), "seed": (1, 7)},
            "predict": {},
            "evaluate": {"eval_filter": ("GTR",), "t_lo": (0, 400.5),
                         "t_hi": (500, 1e4)},
            # not rfe20: its RFE pass over 107 columns takes seconds
            "experiment": {"feature_sets": ("shape", "radiomics107",
                                            "shape,image7"),
                           "predictors": ("rfr", "gbr", "mlp", "gbr,linear"),
                           "seed": (1, 7), "params": ({**cheap, "lam": 2.0},),
                           "cv_folds": (2, 5), "eval_filter": ("GTR",),
                           "t_lo": (0, 400.5), "t_hi": (500, 1e4)},
            "phantom": {}}
        paths = {"subjects", "metadata", "features", "model", "predictions",
                 "spec", "grid", "out"}
        x = load_cohort(str(f), str(m)).X
        rng = np.random.default_rng(4242)
        outcomes = {"ran": 0, "rejected": 0}
        for trial in range(560):
            command = sorted(base)[trial % len(base)]
            doc = copy.deepcopy(base[command])
            keys = sorted(COMMANDS[command][2])
            mutated = set()
            for _ in range(int(rng.integers(1, 3))):
                pick, key = rng.random(), keys[int(rng.integers(len(keys)))]
                values = accepted[command].get(key, ()) if pick < 0.6 \
                    else FUZZ_VALUES
                if pick < 0.05:
                    doc = copy.deepcopy(FUZZ_VALUES[int(rng.integers(
                        len(FUZZ_VALUES)))])
                    mutated = set()
                    break
                if pick < 0.15:
                    key = "bogus"
                    doc[key] = 1
                elif pick < 0.3:
                    doc.pop(key, None)
                elif values:
                    doc[key] = copy.deepcopy(values[int(rng.integers(
                        len(values)))])
                mutated.add(key)
            config, run = tmp_path / f"c{trial}.json", tmp_path / f"r{trial}"
            config.write_text(json.dumps(doc))
            run.mkdir()
            monkeypatch.chdir(run)
            try:
                assert main([command, "--config", str(config)]) == 0, trial
            except (SystemExit, ValueError, KeyError, RuntimeError) as exc:
                message = str(exc)
                assert str(config) in message or message.startswith(
                    f"{f}: n_keep ") or message.startswith(
                    f"radsurv {command}: grid: {doc.get('grid')}: ") or any(
                    message.startswith(f"radsurv {command}: {key} "
                                       f"{doc.get(key)}: ")
                    for key in mutated & paths) or any(
                    message.startswith(f"radsurv {command}: {key} ")
                    for key in mutated & {"feature_sets", "predictors"}), \
                    (trial, doc, message)
                assert not mutated or any(
                    re.search(rf"\b{key}\b", message) for key in mutated), \
                    (trial, doc, message)
                outcomes["rejected"] += 1
                continue
            outcomes["ran"] += 1
            out = run / doc.get("out", "")
            if command == "train":
                model_out = load_model(str(out / "model.json"))
                assert np.isfinite(predict(model_out, x)).all(), trial
                continue
            table = {"extract": out, "rfe": out / "reduced_features.csv",
                     "predict": out, "evaluate": out / "metrics.csv",
                     "experiment": out / "metrics_eval.csv",
                     "phantom": out / "features.csv"}[command]
            _, rows = read_csv(str(table))
            cells = [cell for row in rows for cell in row[1:]]
            if command in ("evaluate", "experiment"):
                cells = [cell for row in rows for cell in row[3:9]]
            assert cells and all(math.isfinite(parse_number(cell))
                                 for cell in cells), (trial, doc)
        assert outcomes["ran"] >= 84 and outcomes["rejected"] >= 210, \
            outcomes
