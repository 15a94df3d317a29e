import logging
import re
import sys

import numpy as np
import pytest

from radsurv.regressors import (FAMILIES, Model, SingularSystemError,
                                predict, prepare_training, staged_predict,
                                train_forest, train_gbr, train_linear,
                                train_model)
from oracles import predict_tree_bf


class TestLinear:
    def test_exact_interpolation(self):
        x = np.linspace(0, 5, 30).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        m = train_linear(x, y)
        assert m.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert m.intercept == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(predict(m, x), y, atol=1e-9)

    def test_l2_infinite_penalty_limit(self):
        rng = np.random.default_rng(0)
        x = rng.random((40, 3))
        y = rng.random(40) * 10
        m = train_linear(x, y, {"penalty": "l2", "lam": 1e12})
        assert np.all(np.abs(m.coefficients) < 1e-6)
        assert m.intercept == pytest.approx(y.mean(), rel=1e-6)

    def test_l1_recovers_sparse_support(self):
        rng = np.random.default_rng(5)
        n = 120
        x = rng.standard_normal((n, 5))
        y = 4.0 * x[:, 1] - 2.5 * x[:, 3]
        best = None
        for lam in (0.01, 0.05, 0.1, 0.3):
            m = train_linear(x, y, {"penalty": "l1", "lam": lam})
            nz = np.abs(m.coefficients) > 1e-8
            if nz.tolist() == [False, True, False, True, False]:
                best = (m, lam)
                break
        assert best is not None, "no lambda recovered the support"
        m, lam = best
        # KKT subgradient conditions in the standardized problem
        z = (x - m.x_mean) / m.x_scale
        beta_std = m.coefficients * m.x_scale
        resid = (y - y.mean()) - z @ beta_std
        grad = z.T @ resid / n
        for j in range(5):
            if beta_std[j] != 0:
                assert grad[j] == pytest.approx(lam * np.sign(beta_std[j]),
                                                abs=1e-6)
            else:
                assert abs(grad[j]) <= lam + 1e-6

    @pytest.mark.parametrize("lam, max_iter, warns",
                             [(0.01, 3, True), (0.5, 10000, False)])
    def test_l1_fit_warns_only_when_out_of_sweeps(self, caplog, lam,
                                                  max_iter, warns):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 30))     # more columns than rows
        y = x[:, :3] @ [3.0, -2.0, 1.0] + rng.standard_normal(10)
        with caplog.at_level(logging.WARNING, logger="radsurv"):
            train_linear(x, y, {"penalty": "l1", "lam": lam,
                             "max_iter": max_iter})
        records = [r for r in caplog.records if r.name == "radsurv"]
        if not warns:
            assert records == []
            return
        [record] = records
        assert record.levelno == logging.WARNING
        assert (f"lam={lam:g}, max_iter={max_iter}, last max update"
                in record.getMessage())

    @pytest.mark.parametrize("params", [{}, {"penalty": "l2"},
                                        {"penalty": "l2", "lam": 0.0}])
    def test_singular_design_suggests_l2(self, params):
        """An l2 penalty of 0 used to end in a bare LinAlgError naming
        neither key."""
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10)
        x = np.hstack([x, x[:, 1:2]])   # duplicated column
        y = np.arange(10.0)
        with pytest.raises(SingularSystemError, match=re.escape(
                "design matrix is rank deficient; an l2 penalty with lam > 0 "
                "would regularize the solve")):
            train_linear(x, y, params)
        train_linear(x, y, {"penalty": "l2", "lam": 1e-3})

    def test_full_rank_l2_at_lam_0_keeps_the_normal_equations(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        m = train_linear(x, y, {"penalty": "l2"})
        z = (x - m.x_mean) / m.x_scale
        beta = np.linalg.solve(z.T @ z, z.T @ (y - y.mean()))
        assert np.array_equal(m.coefficients, beta / m.x_scale)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            x = rng.standard_normal((50, 4))
            y = rng.standard_normal(50)
            m = train_linear(x, y)
            resid = y - predict(m, x)
            for j in range(4):
                assert abs(x[:, j] @ resid) < 1e-8


class TestForest:
    def test_single_tree_memorizes_distinct_rows(self):
        rng = np.random.default_rng(1)
        x = rng.random((30, 4))
        y = rng.random(30)
        m = train_forest(x, y, {"n_trees": 1, "bootstrap": False,
                                "max_features": "all", "max_depth": None,
                                "min_split": 2}, seed=0)
        assert np.array_equal(predict(m, x), y)

    def test_forest_mean_identity_exact(self):
        rng = np.random.default_rng(3)
        x = rng.random((40, 3))
        y = rng.random(40)
        m = train_forest(x, y, {"n_trees": 9}, seed=7)
        q = rng.random((100, 3))
        acc = np.zeros(100)
        for tree in m.trees:
            acc += predict_tree_bf(tree, q)
        assert np.array_equal(acc / 9, predict(m, q))

    def test_step_function_split_threshold(self):
        # brute-force best-split oracle for a depth-1 tree
        x = np.array([[0.1], [0.3], [0.35], [0.8], [0.9], [1.4]])
        y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        m = train_forest(x, y, {"n_trees": 1, "bootstrap": False,
                                "max_features": "all", "max_depth": 1},
                         seed=0)
        root = m.trees[0]
        assert root.feature == 0
        assert 0.35 < root.threshold < 0.8

        def sse(vals):
            return ((vals - vals.mean()) ** 2).sum() if len(vals) else 0.0

        best = None
        for t in np.unique(x[:, 0])[:-1]:
            left = y[x[:, 0] <= t]
            right = y[x[:, 0] > t]
            cost = sse(left) + sse(right)
            if best is None or cost < best[1]:
                best = (t, cost)
        left_pred = y[x[:, 0] <= root.threshold].mean()
        assert root.left.value == left_pred
        assert y[x[:, 0] <= best[0]].mean() == left_pred

    def test_min_split_above_n_gives_stumps(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        m = train_forest(x, y, {"n_trees": 3, "min_split": 50,
                                "bootstrap": False}, seed=0)
        for tree in m.trees:
            assert tree.feature is None
        assert np.allclose(predict(m, x), y.mean())

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.random((30, 5))
        y = rng.random(30)
        m1 = train_forest(x, y, {"n_trees": 5}, seed=11)
        m2 = train_forest(x, y, {"n_trees": 5}, seed=11)
        q = rng.random((20, 5))
        assert np.array_equal(predict(m1, q), predict(m2, q))

    def test_monotone_transform_invariance(self):
        # bootstrap off: every tree trains on all rows, so training-point
        # routing is determined by the induced partition alone (out-of-bag
        # points would route by midpoint comparisons, which a monotone
        # transform may legitimately flip)
        rng = np.random.default_rng(6)
        for seed in range(5):
            x = rng.random((25, 3))
            y = rng.random(25)
            params = {"n_trees": 4, "max_depth": 4, "bootstrap": False}
            m1 = train_forest(x, y, params, seed=seed)
            x2 = x.copy()
            x2[:, 1] = np.exp(3.0 * x2[:, 1])  # strictly increasing
            m2 = train_forest(x2, y, params, seed=seed)
            assert np.array_equal(predict(m1, x), predict(m2, x2))
            for t1, t2 in zip(m1.trees, m2.trees):
                stack = [(t1, t2)]
                while stack:
                    a, b = stack.pop()
                    assert (a.feature is None) == (b.feature is None)
                    if a.feature is not None:
                        assert a.feature == b.feature
                        stack.append((a.left, b.left))
                        stack.append((a.right, b.right))


class TestBoosting:
    def test_single_full_stage_memorizes(self):
        rng = np.random.default_rng(9)
        x = rng.random((25, 3))
        y = rng.random(25)
        m = train_gbr(x, y, {"n_estimators": 1, "max_depth": None,
                             "learning_rate": 1.0}, seed=0)
        assert np.max(np.abs(predict(m, x) - y)) == 0.0

    def test_zero_stages_predicts_mean(self):
        x = np.arange(12.0).reshape(-1, 1)
        y = np.arange(12.0) ** 2
        m = train_gbr(x, y, {"n_estimators": 0}, seed=0)
        assert np.all(predict(m, x) == y.mean())

    def test_staged_prediction_identity(self):
        rng = np.random.default_rng(10)
        x = rng.random((30, 4))
        y = rng.random(30)
        m = train_gbr(x, y, {"n_estimators": 15, "max_depth": 2,
                             "learning_rate": 0.3}, seed=5)
        q = rng.random((100, 4))
        stages = staged_predict(m, q)
        assert len(stages) == 16
        assert np.array_equal(stages[-1], predict(m, q))
        assert np.all(stages[0] == m.init_value)

    def test_training_mse_nonincreasing_full_sample(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.random((40, 3))
            y = rng.random(40)
            m = train_gbr(x, y, {"n_estimators": 25, "max_depth": 2,
                                 "learning_rate": 0.5, "subsample": 1.0},
                          seed=seed)
            mses = [np.mean((s - y) ** 2) for s in staged_predict(m, x)]
            assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))

    def test_parameter_validation(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        with pytest.raises(ValueError, match="learning_rate"):
            train_gbr(x, y, {"learning_rate": 0.0}, seed=0)
        with pytest.raises(ValueError, match="subsample"):
            train_gbr(x, y, {"subsample": 1.5}, seed=0)


class TestSharedContracts:
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_family_follows_the_one_contract(self, kind):
        """Every model holds the shared fields through one base class, and
        every trainer and hyperparameter table is its family module's own,
        with no adapter between the table and it."""
        fam = FAMILIES[kind]
        module = sys.modules[fam.model_class.__module__]
        assert issubclass(fam.model_class, Model)
        assert fam.train.__module__ == module.__name__
        assert fam.train.__name__.startswith("train_")
        assert fam.hyperparameters is module.HYPERPARAMETERS

    @pytest.mark.parametrize("kind, params, message", [
        ("mlp", {"epochs": 2.7}, "epochs must be an integer >= 0, got 2.7"),
        ("mlp", {"epochs": True}, "epochs must be an integer >= 0, got True"),
        ("mlp", {"batch_size": 0},
         "batch_size must be an integer >= 1, got 0"),
        ("mlp", {"widths": [32, 24, 16, 12, 8.0]},
         "widths must be five positive integers, got [32, 24, 16, 12, 8.0]"),
        ("mlp", {"widths": 5}, "widths must be five positive integers, got 5"),
        ("linear", {"max_iter": 10.5},
         "max_iter must be an integer >= 0, got 10.5"),
    ])
    def test_counts_are_integers_checked_before_fitting(self, kind, params,
                                                        message):
        """Each was truncated by int() (true meant 1), or, for a batch of
        0, failed mid-fit in a message that named no setting."""
        x = np.random.default_rng(3).random((12, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FAMILIES[kind].settings(params)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_model(kind, x, x[:, 0], params, 0)

    def test_counts_at_their_bounds_accepted(self):
        x = np.random.default_rng(3).random((12, 2))
        for kind, params in (("mlp", {"epochs": 0, "batch_size": 1}),
                             ("mlp", {"epochs": np.int64(1),
                                      "widths": (1, 1, 1, 1, 1)}),
                             ("linear", {"penalty": "l2", "max_iter": 0})):
            model = train_model(kind, x, x[:, 0], params, 0)
            assert predict(model, x).shape == (12,)

    def test_predict_arity_and_dim_check(self):
        rng = np.random.default_rng(0)
        x = rng.random((15, 3))
        y = rng.random(15)
        for kind in ("linear", "rfr", "gbr"):
            m = train_model(kind, x, y, {"n_trees": 2, "n_estimators": 2},
                            seed=0)
            assert predict(m, x).shape == (15,)
            with pytest.raises(ValueError, match="features"):
                predict(m, rng.random((4, 5)))

    def test_median_imputation_stored_and_applied(self):
        x = np.array([[1.0, 10.0], [2.0, np.nan], [3.0, 30.0],
                      [4.0, np.nan], [5.0, 50.0]])
        y = np.arange(5.0)
        m = train_model("linear", x, y, {}, seed=0)
        assert m.imputation[1] == 30.0    # median of observed values
        q = np.array([[2.5, np.nan]])
        filled = np.array([[2.5, 30.0]])
        assert predict(m, q) == pytest.approx(predict(m, filled))

    def test_imputation_bits_match_per_column_median(self):
        def per_column(rows):
            return np.array([float(np.median(c[~np.isnan(c)]))
                             if (~np.isnan(c)).any() else 0.0
                             for c in rows.T])

        rng = np.random.default_rng(11)
        x = rng.standard_normal((24, 40)) * rng.uniform(0.1, 1e4, 40)
        x[:, :20][rng.random((24, 20)) < 0.15] = np.nan   # gaps in half
        x[:, 7] = np.nan
        for rows in (x, x[:23], x[:0]):   # even, odd and no rows
            got = prepare_training(rows, np.zeros(len(rows)), None)[3]
            assert got.tobytes() == per_column(rows).tobytes()

    def test_nan_target_rejected(self):
        x = np.arange(6.0).reshape(-1, 1)
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0])
        with pytest.raises(ValueError, match="NaN"):
            train_model("gbr", x, y, {}, seed=0)
