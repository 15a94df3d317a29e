import math

import numpy as np
import pytest

from radsurv import prognosis
from radsurv.featselect import EstimatorSpec
from radsurv.phantoms import CohortSpec, gen_cohort
from radsurv.prognosis import (DEFAULT_THRESHOLDS, ExperimentPlan, Metrics,
                               MetricsError, bin_survival, evaluate,
                               run_experiment, run_experiment_matrix,
                               spearman)
from radsurv.radiomics import FEATURE_COLUMNS
from radsurv.regressors import MlpDivergenceError, SingularSystemError
from radsurv.util import read_csv


class TestBinSurvival:
    def test_examples(self):
        assert bin_survival(100) == "short"
        assert bin_survival(400) == "intermediate"
        assert bin_survival(600) == "long"

    def test_boundaries_are_intermediate(self):
        assert bin_survival(304.375) == "intermediate"
        assert bin_survival(456.5625) == "intermediate"

    def test_monotone_in_days(self):
        order = {"short": 0, "intermediate": 1, "long": 2}
        days = np.linspace(0, 900, 200)
        classes = [order[bin_survival(d)] for d in days]
        assert all(b >= a for a, b in zip(classes, classes[1:]))

    def test_default_thresholds_from_month_convention(self):
        assert DEFAULT_THRESHOLDS == (304.375, 456.5625)

    def test_reversed_thresholds_fail_the_plan_before_any_cell(self):
        with pytest.raises(ValueError, match="t_lo 500.0 is above t_hi 300.0"):
            ExperimentPlan(feature_set="image7", predictor="linear",
                           thresholds=(500.0, 300.0))


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = np.arange(1.0, 11.0)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)

    def test_reversal_gives_minus_one(self):
        x = np.arange(1.0, 11.0)
        assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_ranks_example(self):
        # ranks of x: (1, 2.5, 2.5, 4); ranks of y: (1, 2, 3, 4)
        # Pearson of those ranks = 4.5 / sqrt(4.5 * 5) = 3 / sqrt(10)
        rho = spearman([1, 2, 2, 4], [10, 20, 30, 40])
        assert rho == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-12)

    def test_constant_vector_undefined(self):
        with pytest.raises(MetricsError, match="undefined"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(0)
        x = rng.random(30)
        y = rng.random(30)
        base = spearman(x, y)
        assert spearman(np.exp(5 * x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, -y) == pytest.approx(-base, abs=1e-12)


class TestEvaluate:
    def test_perfect_predictions(self):
        m = evaluate([100.0, 400.0, 600.0], [100.0, 400.0, 600.0])
        assert (m.accuracy, m.mse, m.median_se, m.std_se) == (1.0, 0, 0, 0)

    def test_constant_offset_same_bins(self):
        true = np.array([100.0, 180.0, 400.0, 600.0])
        m = evaluate(true + 10.0, true)
        assert m.accuracy == 1.0
        assert m.mse == 100.0
        assert m.std_se == 0.0

    def test_four_subject_worked_example(self):
        true = [100.0, 350.0, 500.0, 420.0]
        pred = [90.0, 480.0, 450.0, 300.0]
        # independent spreadsheet-style computation:
        # classes(true) = short, int, long, int; classes(pred) = short,
        # long, int, short -> 1 of 4 correct
        se = [(90 - 100) ** 2, (480 - 350) ** 2, (450 - 500) ** 2,
              (300 - 420) ** 2]                       # 100, 16900, 2500, 14400
        mse = sum(se) / 4                             # 8475
        med = (sorted(se)[1] + sorted(se)[2]) / 2     # (2500 + 14400)/2
        var = sum((s - mse) ** 2 for s in se) / 4
        # ranks: true -> (1, 2, 4, 3); pred -> (1, 4, 3, 2); rho = 0.4
        m = evaluate(pred, true)
        assert m.accuracy == 1 / 4
        assert m.mse == mse == 8475.0
        assert m.median_se == med == 8450.0
        assert m.std_se == pytest.approx(math.sqrt(var), rel=1e-12)
        assert m.spearman_r == pytest.approx(0.4, abs=1e-12)
        assert m.n == 4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        true = rng.uniform(50, 800, 12)
        pred = rng.uniform(50, 800, 12)
        m1 = evaluate(pred, true)
        perm = rng.permutation(12)
        m2 = evaluate(pred[perm], true[perm])
        assert m1 == m2

    def test_accuracy_invariant_under_in_bin_relabeling(self):
        true = np.array([100.0, 350.0, 500.0, 420.0])
        pred = np.array([90.0, 480.0, 450.0, 300.0])
        a1 = evaluate(pred, true).accuracy
        true2 = np.array([250.0, 310.0, 800.0, 440.0])  # same bins
        pred2 = np.array([10.0, 700.0, 390.0, 250.0])   # same bins
        assert evaluate(pred2, true2).accuracy == a1

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            evaluate([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def small_cohort():
    spec = CohortSpec(
        n_subjects=40, seed=314,
        link={"img.vol_wt": 0.2, "meta.age": 3.0}, intercept=-100.0,
        noise_std=0.0, n_distractors=0)
    cohort, _ = gen_cohort(spec)
    return cohort


MEMO_RFR = {"n_trees": 10, "bootstrap": False, "max_features": "all",
            "max_depth": None, "min_split": 2}


class TestRunExperiment:
    def test_zero_noise_rfr_memorizes_training(self, small_cohort):
        plan = ExperimentPlan(feature_set="image7", predictor="rfr", seed=1,
                              params=MEMO_RFR)
        result = run_experiment(small_cohort, plan)
        assert result.train_metrics.accuracy == 1.0
        # averaging 10 identical tree predictions leaves ~1 ulp of noise
        assert result.train_metrics.mse < 1e-18

    def test_linear_exact_on_linear_link(self, small_cohort):
        plan = ExperimentPlan(feature_set="image7", predictor="linear", seed=1)
        result = run_experiment(small_cohort, plan)
        assert result.train_metrics.accuracy == 1.0

    def test_shape_set_has_27_features(self, small_cohort):
        assert len(FEATURE_COLUMNS["shape"]) == 27
        plan = ExperimentPlan(feature_set="shape", predictor="gbr", seed=0,
                              params={"n_estimators": 10})
        result = run_experiment(small_cohort, plan)
        assert len(result.feature_names) == 27

    def test_deterministic_artifacts(self, small_cohort, tmp_path):
        plan = ExperimentPlan(feature_set="shape", predictor="gbr", seed=5,
                              params={"n_estimators": 8, "max_depth": 2})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(small_cohort, plan, str(d1))
        run_experiment(small_cohort, plan, str(d2))
        for name in ("metrics.csv", "model.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_gtr_filter_and_all_filter(self, small_cohort):
        plan_gtr = ExperimentPlan(feature_set="image7", predictor="linear",
                                  seed=0, eval_filter="GTR")
        plan_all = ExperimentPlan(feature_set="image7", predictor="linear",
                                  seed=0, eval_filter="all")
        r_gtr = run_experiment(small_cohort, plan_gtr)
        r_all = run_experiment(small_cohort, plan_all)
        n_gtr = int(small_cohort.resection_mask(("GTR",)).sum())
        assert r_gtr.eval_metrics.n == n_gtr
        assert r_all.eval_metrics.n == small_cohort.n_subjects

    def test_empty_gtr_evaluation_set_rejected(self, monkeypatch):
        """before any model is trained"""
        spec = CohortSpec(n_subjects=8, seed=12,
                          link={"meta.age": 6.0}, noise_std=0.0,
                          resection_mix=(0.0, 0.0, 1.0))   # every subject NA
        cohort, _ = gen_cohort(spec)
        calls = []
        monkeypatch.setattr(prognosis, "train_model",
                            lambda *args: calls.append(args))
        plan = ExperimentPlan(feature_set="image7", predictor="linear", seed=0)
        with pytest.raises(MetricsError, match="GTR"):
            run_experiment(cohort, plan)
        assert calls == []

    def test_failed_evaluation_writes_nothing(self, small_cohort, tmp_path,
                                              monkeypatch):
        calls = []

        def failing(*args):     # the second call scores the GTR subset
            calls.append(args)
            if len(calls) == 2:
                raise MetricsError("undefined correlation")
            return evaluate(*args)

        monkeypatch.setattr(prognosis, "evaluate", failing)
        plan = ExperimentPlan(feature_set="image7", predictor="linear", seed=0)
        with pytest.raises(MetricsError, match="undefined correlation"):
            run_experiment(small_cohort, plan, str(tmp_path / "cell"))
        assert len(calls) == 2
        assert list((tmp_path / "cell").glob("*")) == []

    def test_missing_feature_rejected(self, small_cohort):
        cohort = small_cohort.subset(np.ones(small_cohort.n_subjects, bool))
        cohort.feature_names = [n + "_x" for n in cohort.feature_names]
        plan = ExperimentPlan(feature_set="image7", predictor="linear", seed=0)
        with pytest.raises(KeyError):
            run_experiment(cohort, plan)

    @pytest.mark.parametrize("feature_set,predictor,params,error,message", [
        ("image7", "gbr", {"n_estimators": 0}, MetricsError,
         "undefined correlation: zero rank variance"),
        ("radiomics107", "linear", {"penalty": "none"}, SingularSystemError,
         "design matrix is rank deficient; an l2 penalty would regularize "
         "the solve"),
        ("image7", "mlp", {"optimizer": "sgd", "lr": 1e6, "epochs": 5},
         MlpDivergenceError,
         "training diverged (non-finite loss) at epoch 0")],
        ids=["gbr", "linear", "mlp"])
    def test_failing_cell_is_named(self, small_cohort, feature_set,
                                   predictor, params, error, message):
        """A cell's error keeps its type and attributes, and its message
        names the cell; it used to name none."""
        with pytest.raises(error) as exc:
            run_experiment_matrix(small_cohort, [feature_set],
                                  ["rfr", predictor], seed=0,
                                  base_plan={"params": {"n_trees": 3,
                                                        **params}})
        assert str(exc.value) == f"{feature_set}__{predictor}: {message}"
        if error is MlpDivergenceError:
            assert exc.value.epoch == 0

    def test_matrix_emits_16_rows_per_dataset(self, small_cohort, tmp_path):
        base = {
            # each trainer reads only its own keys; l2 keeps the linear
            # cells solvable on the 107-feature set with only 40 subjects
            "params": {"n_trees": 5, "n_estimators": 5, "epochs": 5,
                       "penalty": "l2", "lam": 1.0},
            "rfe_estimator": EstimatorSpec("linear",
                                           {"penalty": "l2", "lam": 1.0}),
            "rfe_step": 20,
        }
        results, paths = run_experiment_matrix(
            small_cohort, ["image7", "radiomics107", "rfe20", "shape"],
            ["mlp", "linear", "gbr", "rfr"], seed=3, outdir=str(tmp_path),
            base_plan=base)
        assert len(results) == 16
        for key in ("metrics_train", "metrics_eval"):
            header, rows = read_csv(paths[key])
            assert len(rows) == 16
            assert header[0] == "dataset"
        ranking_cells = [r for r in results if r.plan.feature_set == "rfe20"]
        assert all(len(r.feature_names) == 20 for r in ranking_cells)
