"""One hyperparameter table per predictor family.

Each family module's ``HYPERPARAMETERS`` maps a key to its default and its
rule; ``Family.settings`` decodes it, and a key that no family's table
declares is rejected where params enter: ``train --params``,
``experiment --params``, ``rfe`` ``estimator_params`` and every grid-file
combination. A typo such as ``n_tress`` once trained the default model.
README's hyperparameter table is checked against the tables here.
"""

import json
import pathlib
import re

import numpy as np
import pytest

from radsurv.cli import main
from radsurv.radiomics import FEATURE_COLUMNS
from radsurv.regressors import FAMILIES, check_param_keys, load_model

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
UNKNOWN = "n_tress is not a hyperparameter of any predictor family"


@pytest.fixture()
def tables(tmp_path):
    """A features CSV of the image7 columns and a metadata CSV of 12
    subjects."""
    rng = np.random.default_rng(27)
    x = rng.standard_normal((12, len(FEATURE_COLUMNS["image7"])))
    days = 400.0 + 150.0 * x[:, 0] + 20.0 * rng.standard_normal(12)
    f, m = tmp_path / "features.csv", tmp_path / "meta.csv"
    f.write_text(",".join(["subject_id", *FEATURE_COLUMNS["image7"]]) + "\n"
                 + "".join(f"S{i}," + ",".join(map(repr, row)) + "\n"
                           for i, row in enumerate(x.tolist())))
    m.write_text("ID,Age,Survival_days,Extent_of_Resection\n" + "".join(
        f"S{i},{50 + i},{d:.1f},GTR\n" for i, d in enumerate(days)))
    return f, m


class TestUnknownKeys:
    @pytest.mark.parametrize("argv,config,message", [
        (["train", "--predictor", "rfr", "--params", '{"n_tress": 3}'], {},
         f"radsurv train: params: {UNKNOWN}"),
        (["experiment", "--predictors", "rfr", "--params",
          '{"n_tress": 3}'], {}, f"radsurv experiment: params: {UNKNOWN}"),
        (["rfe"], {"estimator_params": {"n_tress": 3}},
         f"radsurv rfe: estimator_params: {UNKNOWN}")],
        ids=["train", "experiment", "rfe"])
    def test_named_before_any_input_is_read(self, tmp_path, argv, config,
                                            message):
        """The feature and metadata files do not exist: the key is
        rejected first, and nothing is written."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--features", str(tmp_path / "missing.csv"),
                         "--metadata", str(tmp_path / "missing_meta.csv"),
                         "--config", str(config_path), "--out", str(out)])
        assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("params", ['{"n_tress": 3}', '{"n_trees": 3}'])
    def test_params_with_a_grid_are_named_before_any_input_is_read(
            self, tmp_path, command, params):
        """A grid search reads no params: any non-empty object is rejected,
        a key some family reads included, and nothing is written."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--predictor" if command == "train"
                  else "--predictors", "rfr", "--grid", "default",
                  "--params", params,
                  "--features", str(tmp_path / "missing.csv"),
                  "--metadata", str(tmp_path / "missing_meta.csv"),
                  "--out", str(out)])
        assert str(exc.value) == (
            f"radsurv {command}: params: a grid search reads no params, so "
            "they must be {} when grid is set")
        assert not out.exists()

    def test_grid_combination_is_named_by_file_and_index(self, tables,
                                                         tmp_path):
        f, m = tables
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n_trees": 3}, {"max_dept": 2}]))
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="^" + re.escape(
                f"radsurv train: grid: {grid}: grid[1].max_dept is not a "
                "hyperparameter of any predictor family") + "$"):
            main(["train", "--predictor", "rfr", "--grid", str(grid),
                  "--features", str(f), "--metadata", str(m),
                  "--out", str(out)])
        assert not out.exists()

    def test_first_unknown_key_by_name_is_named(self):
        with pytest.raises(ValueError, match="^" + re.escape(
                "p.a is not a hyperparameter of any predictor family")):
            check_param_keys({"n_trees": 3, "z": 1, "a": 2}, "p")


class TestAnotherFamilysKey:
    def test_every_table_key_is_accepted(self):
        keys = {key: None for fam in FAMILIES.values()
                for key in fam.hyperparameters}
        assert check_param_keys(keys) == keys

    @pytest.mark.parametrize("argv,config", [
        (["train", "--predictor", "linear", "--params",
          '{"n_trees": 3, "epochs": 2, "penalty": "l2", "lam": 1.0}'], {}),
        (["rfe", "--estimator", "linear", "--n-keep", "2"],
         {"estimator_params": {"penalty": "l2", "lam": 1.0,
                               "n_estimators": 4}}),
        (["experiment", "--feature-sets", "image7", "--predictors",
          "linear,rfr", "--params", '{"penalty": "l2", "lam": 1.0, '
          '"n_trees": 3, "n_estimators": 4, "epochs": 2}'], {})],
        ids=["train", "rfe", "experiment"])
    def test_is_accepted_and_ignored(self, tables, tmp_path, argv, config):
        f, m = tables
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(argv + ["--features", str(f), "--metadata", str(m),
                            "--config", str(config_path), "--out",
                            str(out)]) == 0
        if argv[0] == "train":
            assert load_model(str(out / "model.json")).params == {
                "penalty": "l2", "lam": 1.0, "max_iter": 10000, "tol": 1e-8}

    def test_grid_combination_with_another_familys_key(self, tables,
                                                       tmp_path):
        f, m = tables
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"penalty": "l2", "lam": 1.0,
                                     "n_trees": 3}]))
        assert main(["train", "--predictor", "linear", "--grid", str(grid),
                     "--cv-folds", "2", "--features", str(f), "--metadata",
                     str(m), "--out", str(tmp_path / "out")]) == 0


def test_readme_table_lists_each_familys_keys_and_defaults():
    """README's table row of a family names each key of its table, in
    order, with its default in the last parentheses of its entry."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(r"\s*\| `(\w+)` \| (.*) \|", line)
        if row and row[1] in FAMILIES:
            rows[row[1]] = [
                (entry[1], json.loads(f"[{entry[2].replace('`', '')}]"))
                for entry in (re.fullmatch(r"`(\w+)` .*\((.*)\)", item)
                              for item in row[2].split("; "))]
    assert sorted(rows) == sorted(FAMILIES)
    for kind, fam in FAMILIES.items():
        expected = [(key, list(default) if isinstance(default, tuple)
                     else [default])
                    for key, (default, _) in fam.hyperparameters.items()]
        assert [key for key, _ in rows[kind]] == [
            key for key, _ in expected], kind
        for (key, got), (_, want) in zip(rows[kind], expected):
            assert got == want and [type(v) is bool for v in got] == [
                type(v) is bool for v in want], (kind, key, got, want)
