import numpy as np
import pytest

from radsurv.featselect import (EstimatorSpec, ImportanceError, importance,
                                rfe)
from radsurv.regressors import train_forest, train_gbr, train_linear, train_mlp
from radsurv.util import read_csv


class TestImportance:
    def test_single_split_tree_credits_one_feature(self):
        x = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        m = train_forest(x, y, {"n_trees": 1, "bootstrap": False,
                                "max_features": "all", "max_depth": 1},
                         seed=0)
        imp = importance(m)
        assert imp.tolist() == [1.0, 0.0]

    def test_linear_importance_via_standardized_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 2))
        y = 3.0 * x[:, 0]
        m = train_linear(x, y)
        imp = importance(m)
        assert imp[0] > imp[1]
        assert imp[1] == pytest.approx(0.0, abs=1e-9)
        assert imp.sum() == pytest.approx(1.0)

    def test_forest_ranks_informative_above_noise(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal((60, 10))
            y = 3.0 * x[:, 0] + 2.0 * x[:, 1] + 0.1 * rng.standard_normal(60)
            m = train_forest(x, y, {"n_trees": 15, "max_depth": 4}, seed=seed)
            top2 = set(np.argsort(importance(m))[-2:])
            hits += top2 == {0, 1}
        assert hits >= 45   # threshold frozen after first seeded measurement

    def test_gbr_importance_sums_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.random((30, 4))
        y = x[:, 2] * 5
        m = train_gbr(x, y, {"n_estimators": 10, "max_depth": 2}, seed=0)
        imp = importance(m)
        assert imp.sum() == pytest.approx(1.0)
        assert imp.argmax() == 2

    def test_mlp_importance_undefined(self):
        rng = np.random.default_rng(2)
        x = rng.random((15, 2))
        m = train_mlp(x, x[:, 0], {"epochs": 1}, seed=0)
        with pytest.raises(ImportanceError, match="undefined"):
            importance(m)


class TestRfe:
    def _names(self, p):
        return [f"f{i:02d}" for i in range(p)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_is_named_by_row_before_any_fit(self, bad):
        """It used to fail inside the first fit, naming no row."""
        rng = np.random.default_rng(2)
        y = rng.random(12)
        y[4] = bad
        with pytest.raises(ValueError,
                           match=rf"^targets\[4\]: {bad} is not a finite"):
            rfe(rng.random((12, 3)), y, self._names(3),
                EstimatorSpec("linear"), n_keep=2)

    def test_identity_when_keeping_everything(self):
        rng = np.random.default_rng(3)
        x = rng.random((30, 5))
        y = rng.random(30)
        ranking = rfe(x, y, self._names(5), EstimatorSpec("linear"), n_keep=5)
        assert ranking.trace == []
        assert sorted(ranking.kept) == self._names(5)
        assert sorted(ranking.ranks.values()) == [1, 2, 3, 4, 5]

    def test_noise_free_linear_recovers_support(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((80, 10))
        y = 5.0 * x[:, 2] - 3.0 * x[:, 7]
        ranking = rfe(x, y, self._names(10), EstimatorSpec("linear"),
                      n_keep=2, seed=0)
        assert set(ranking.kept) == {"f02", "f07"}

    def test_arity_contract_107_to_20(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 107))
        y = rng.standard_normal(60)
        # n < p, so the linear estimator needs its ridge penalty
        ranking = rfe(x, y, self._names(107),
                      EstimatorSpec("linear", {"penalty": "l2", "lam": 1.0}),
                      n_keep=20, step=1, seed=0)
        assert len(ranking.kept) == 20
        assert len(ranking.trace) == 87
        assert sorted(ranking.ranks.values()) == list(range(1, 108))

    def test_step_drops_multiple_but_never_below_keep(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 7))
        y = rng.standard_normal(40)
        ranking = rfe(x, y, self._names(7), EstimatorSpec("linear"),
                      n_keep=4, step=5, seed=0)
        assert len(ranking.kept) == 4
        assert len(ranking.trace) == 3

    def test_rerun_identical_trace(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 8))
        y = rng.standard_normal(50)
        spec = EstimatorSpec("rfr", {"n_trees": 5, "max_depth": 3})
        r1 = rfe(x, y, self._names(8), spec, n_keep=3, seed=9)
        r2 = rfe(x, y, self._names(8), spec, n_keep=3, seed=9)
        assert r1.trace == r2.trace
        assert r1.ranks == r2.ranks

    def test_equal_importance_ties_break_by_name(self):
        # identical columns: tree gain ties resolve to the lowest feature
        # index, so the remaining columns hold importance exactly 0.0 and
        # eliminate in lexicographic name order
        rng = np.random.default_rng(8)
        col = rng.standard_normal(40)
        x = np.column_stack([col, col, col])
        y = col * 2.0
        spec = EstimatorSpec("rfr", {"n_trees": 1, "bootstrap": False,
                                     "max_features": "all", "max_depth": 2})
        ranking = rfe(x, y, ["b_feat", "a_feat", "c_feat"], spec,
                      n_keep=1, step=1, seed=0)
        eliminated = [t[0] for t in ranking.trace]
        assert eliminated == ["a_feat", "c_feat"]
        assert ranking.kept == ["b_feat"]
        assert ranking.trace[0][2] == 0.0

    def test_removing_early_eliminated_feature_keeps_result(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 6))
        y = 4.0 * x[:, 0] + 2.0 * x[:, 1] + 0.5 * x[:, 2] \
            + 0.05 * rng.standard_normal(60)
        names = self._names(6)
        full = rfe(x, y, names, EstimatorSpec("linear"), n_keep=2, step=1)
        first_out = full.trace[0][0]
        keep_cols = [i for i, n in enumerate(names) if n != first_out]
        reduced = rfe(x[:, keep_cols], y,
                      [names[i] for i in keep_cols],
                      EstimatorSpec("linear"), n_keep=2, step=1)
        assert set(reduced.kept) == set(full.kept)

    def test_kept_set_equals_best_ranks(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 9))
        y = rng.standard_normal(40)
        ranking = rfe(x, y, self._names(9), EstimatorSpec("linear"), n_keep=4)
        by_rank = sorted(ranking.ranks, key=lambda n: ranking.ranks[n])[:4]
        assert set(by_rank) == set(ranking.kept)

    def test_mlp_estimator_rejected(self):
        x = np.random.default_rng(0).random((10, 3))
        with pytest.raises(ImportanceError):
            rfe(x, x[:, 0], self._names(3), EstimatorSpec("mlp"), n_keep=1)
        with pytest.raises(ValueError, match="unknown predictor kind"):
            rfe(x, x[:, 0], self._names(3), EstimatorSpec("svm"), n_keep=1)

    def test_ranking_csv_format(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 4))
        y = 2 * x[:, 0]
        ranking = rfe(x, y, self._names(4), EstimatorSpec("linear"), n_keep=2)
        path = tmp_path / "ranking.csv"
        ranking.write_csv(str(path))
        header, rows = read_csv(str(path))
        assert header == ["feature", "rank", "kept", "eliminated_at_iteration"]
        assert len(rows) == 4
        assert rows[0][1] == "1"
        kept_flags = {r[0]: r[2] for r in rows}
        for name in ranking.kept:
            assert kept_flags[name] == "true"
