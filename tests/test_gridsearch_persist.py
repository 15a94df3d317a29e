import json
import re
import types

import numpy as np
import pytest

from radsurv.regressors import (FAMILIES, PREDICTOR_KINDS, grid_search_cv,
                                load_model, predict, save_model, train_model)
from radsurv.regressors.gridsearch import kfold_indices


class TestGridSearch:
    def test_single_combination_chosen(self):
        rng = np.random.default_rng(0)
        x = rng.random((30, 2))
        y = rng.random(30)
        model, report = grid_search_cv("rfr", x, y, [{"n_trees": 3}],
                                       k=3, seed=0)
        assert report.best_index == 0
        assert report.grid[report.best_index] == {"n_trees": 3}

    def test_duplicate_combinations_keep_first(self):
        rng = np.random.default_rng(1)
        x = rng.random((24, 2))
        y = rng.random(24)
        grid = [{"n_trees": 4}, {"n_trees": 4}]
        _, report = grid_search_cv("rfr", x, y, grid, k=3, seed=0)
        assert report.best_index == 0
        assert report.mean_mse[0] == report.mean_mse[1]

    def test_deep_interaction_prefers_deep_trees(self):
        rng = np.random.default_rng(7)
        n = 240
        x = rng.random((n, 3))
        y = (np.where((x[:, 0] > 0.5) & (x[:, 1] > 0.5) & (x[:, 2] > 0.5),
                      10.0, 0.0)
             + 0.01 * rng.standard_normal(n))
        grid = [{"n_trees": 20, "max_depth": 1},
                {"n_trees": 20, "max_depth": 6}]
        _, report = grid_search_cv("rfr", x, y, grid, k=3, seed=1)
        assert report.best_index == 1
        assert report.mean_mse[1] < report.mean_mse[0]

    def test_empty_grid_rejected(self):
        x = np.arange(10.0).reshape(-1, 1)
        with pytest.raises(ValueError, match="empty"):
            grid_search_cv("rfr", x, np.arange(10.0), [], k=2, seed=0)

    def test_fold_assignment_deterministic_partition(self):
        folds = kfold_indices(17, 4, seed=3)
        again = kfold_indices(17, 4, seed=3)
        assert all(np.array_equal(a, b) for a, b in zip(folds, again))
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(17))

    def test_infeasible_combination_loses_instead_of_crashing(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 20))   # p > n: unpenalized solve fails
        y = rng.standard_normal(12)
        # l2 at its default lam 0 used to fit on a singular system
        grid = [{"penalty": "none"}, {"penalty": "l2", "lam": 1.0},
                {"penalty": "l2"}]
        model, report = grid_search_cv("linear", x, y, grid, k=3, seed=0)
        assert report.best_index == 1
        for failed in (0, 2):
            assert report.mean_mse[failed] is None
            assert report.std_mse[failed] is None
            assert report.errors[failed] == (
                "design matrix is rank deficient; an l2 penalty with lam > 0 "
                "would regularize the solve")
        assert report.errors[1] is None

    def test_all_combinations_failing_raises(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 20))
        y = rng.standard_normal(12)
        with pytest.raises(RuntimeError, match="every grid combination"):
            grid_search_cv("linear", x, y, [{"penalty": "none"}], k=3, seed=0)

    def test_default_grids_cover_the_tuned_parameters(self):
        assert set(FAMILIES) == {"rfr", "gbr", "linear", "mlp"}
        assert all(set(c) == {"n_trees", "max_depth"}
                   for c in FAMILIES["rfr"].grid)
        assert all({"n_estimators", "max_depth", "min_split",
                    "learning_rate"} == set(c) for c in FAMILIES["gbr"].grid)
        assert any(c.get("penalty") == "l1" for c in FAMILIES["linear"].grid)
        assert all({"epochs", "lr", "widths", "optimizer"} == set(c)
                   for c in FAMILIES["mlp"].grid)

    def test_winner_retrained_on_all_data(self):
        rng = np.random.default_rng(2)
        x = rng.random((30, 2))
        y = 3 * x[:, 0]
        model, _ = grid_search_cv("linear", x, y, [{"penalty": "none"}],
                                  k=3, seed=0)
        direct = train_model("linear", x, y, {"penalty": "none"}, seed=0)
        assert np.array_equal(predict(model, x), predict(direct, x))


PERSIST_CASES = [
    ("linear", {"penalty": "l2", "lam": 0.5}),
    ("rfr", {"n_trees": 4, "max_depth": 4}),
    ("gbr", {"n_estimators": 6, "max_depth": 2, "learning_rate": 0.3,
             "subsample": 0.8}),
    ("mlp", {"epochs": 10}),
]


class TestPersistence:
    @pytest.mark.parametrize("kind,params", PERSIST_CASES)
    def test_save_load_predictions_bit_exact(self, tmp_path, kind, params):
        assert tuple(k for k, _ in PERSIST_CASES) == PREDICTOR_KINDS
        rng = np.random.default_rng(5)
        x = rng.standard_normal((25, 3))
        y = rng.standard_normal(25) * 100
        x[3, 1] = np.nan   # exercise the imputation vector round trip
        model = train_model(kind, x, y, params, seed=13,
                            feature_names=["a", "b", "c"])
        path = tmp_path / f"{kind}.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        q = rng.standard_normal((40, 3))
        assert np.array_equal(predict(model, q), predict(loaded, q))
        assert loaded.feature_names == ["a", "b", "c"]
        resaved = tmp_path / f"{kind}_again.json"
        save_model(loaded, str(resaved))
        assert resaved.read_bytes() == path.read_bytes()

        doc = json.loads(path.read_text())
        doc["model_type"] = "svm"
        bad = tmp_path / f"{kind}_svm.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(bad))}.*svm"):
            load_model(str(bad))
        # the same attributes under an unregistered type are not a model
        duck = types.SimpleNamespace(**vars(model), n_features=3)
        with pytest.raises(TypeError):
            predict(duck, q)
        with pytest.raises(TypeError):
            save_model(duck, str(tmp_path / "duck.json"))

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.random((20, 2))
        y = rng.random(20)
        m = train_model("gbr", x, y, {"n_estimators": 3}, seed=0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, str(p1))
        save_model(m, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="schema"):
            load_model(str(path))

    @pytest.mark.parametrize("text,message", [
        ("[]", "model file must hold a JSON object, not list"),
        ('{"schema": ', "model file is not valid JSON"),
        ('{"schema": "\xe9"}', "model file is not valid JSON")],
        ids=["array", "truncated", "latin-1"])
    def test_unreadable_model_file_names_the_file(self, tmp_path, text,
                                                  message):
        path = tmp_path / "model.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_model(str(path))

    def test_missing_parameters_field_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        model = train_model("linear", rng.random((12, 2)), rng.random(12),
                            {}, seed=0)
        path = tmp_path / "linear.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        del doc["parameters"]["x_scale"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: "
                           "linear model lacks parameters.*x_scale"):
            load_model(str(path))
