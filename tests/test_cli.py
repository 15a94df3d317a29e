import json
import math
import os
import re

import numpy as np
import pytest

from radsurv.cli import main
from radsurv.radiomics import FEATURE_COLUMNS
from radsurv.regressors import FAMILIES
from radsurv.util import read_csv
from radsurv.volumeio import load_mask, load_nifti, write_nifti


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    """One CLI phantom invocation shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "seed": 3,
        "masks": [
            {"name": "sph", "shape": "sphere", "params": [8.0],
             "center": [12, 12, 12], "label_fill": 2, "dims": [26, 26, 26],
             "with_volume": True},
            {"name": "box", "shape": "cuboid", "params": [4, 6, 8],
             "center": [10.5, 10.5, 10.5], "label_fill": 4,
             "dims": [24, 24, 24], "with_volume": True},
        ],
        "cohort": {"n_subjects": 14, "seed": 21,
                   "link": {"shape.mesh_volume": 0.15, "meta.age": 2.0},
                   "noise_std": 10.0, "n_distractors": 2},
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = root / "phantom"
    assert main(["phantom", "--spec", str(spec_path), "--out", str(out)]) == 0
    return root, out


class TestPhantomCommand:
    def test_outputs_exist_and_mask_loads(self, phantom_dir):
        _, out = phantom_dir
        mask = load_mask(str(out / "sph_mask.nii.gz"))
        assert np.count_nonzero(mask.labels == 2) > 0
        assert (out / "features.csv").exists()
        assert (out / "metadata.csv").exists()
        assert (out / "resolved_config.json").exists()

    def test_cuboid_mask_exact_count(self, phantom_dir):
        _, out = phantom_dir
        mask = load_mask(str(out / "box_mask.nii.gz"))
        assert np.count_nonzero(mask.labels == 4) == 192

    def test_cohort_rerun_reproducible(self, phantom_dir, tmp_path):
        root, out = phantom_dir
        again = tmp_path / "phantom2"
        assert main(["phantom", "--spec", str(root / "spec.json"),
                     "--out", str(again)]) == 0
        assert (again / "features.csv").read_bytes() == \
            (out / "features.csv").read_bytes()


class TestExtractCommand:
    def _manifest(self, root, out, rows):
        path = root / "subjects.csv"
        lines = ["ID,mask,scan"]
        lines += [",".join(r) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def _metadata(self, root, ids):
        path = root / "extract_meta.csv"
        lines = ["ID,Age,Survival_days,Extent_of_Resection"]
        lines += [f"{sid},55,300,GTR" for sid in ids]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_image7_extraction(self, phantom_dir, tmp_path):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("P1", str(out / "sph_mask.nii.gz"), ""),
            ("P2", str(out / "box_mask.nii.gz"), ""),
        ])
        meta = self._metadata(tmp_path, ["P1", "P2"])
        features = tmp_path / "img7.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", "image7"]) == 0
        header, rows = read_csv(str(features))
        assert len(header) == 8 and header[0] == "subject_id"
        assert len(rows) == 2
        assert float(rows[0][7]) == 55.0

    def test_full_extraction_reproducible(self, phantom_dir, tmp_path):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("P1", str(out / "sph_mask.nii.gz"), str(out / "sph_vol.nii.gz")),
        ])
        meta = self._metadata(tmp_path, ["P1"])
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            assert main(["extract", "--subjects", str(subjects),
                         "--metadata", str(meta), "--out", str(f),
                         "--features", "all", "--channel", "synthetic"]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        header, rows = read_csv(str(f1))
        assert len(header) == 1 + 7 + 12 + 107

    def test_failed_subject_skipped_with_nonzero_exit(self, phantom_dir,
                                                      tmp_path, caplog):
        root, out = phantom_dir
        empty_mask = tmp_path / "empty_mask.nii"
        write_nifti(str(empty_mask), np.zeros((8, 8, 8), dtype=np.int16))
        subjects = self._manifest(tmp_path, out, [
            ("GOOD", str(out / "sph_mask.nii.gz"),
             str(out / "sph_vol.nii.gz")),
            ("BAD", str(empty_mask), str(out / "sph_vol.nii.gz")),
        ])
        meta = self._metadata(tmp_path, ["GOOD", "BAD"])
        features = tmp_path / "partial.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", "radiomics107", "--roi", "WT"]) == 1
        header, rows = read_csv(str(features))
        assert [r[0] for r in rows] == ["GOOD"]

    def test_scan_mask_spacing_mismatch_names_subject(self, phantom_dir,
                                                      tmp_path, caplog):
        root, out = phantom_dir
        scan = load_nifti(str(out / "sph_vol.nii.gz"))
        stretched = tmp_path / "stretched_vol.nii.gz"
        write_nifti(str(stretched), scan.region(...), spacing=(1.0, 1.0, 2.0))
        subjects = self._manifest(tmp_path, out, [
            ("GOOD", str(out / "sph_mask.nii.gz"),
             str(out / "sph_vol.nii.gz")),
            ("BAD", str(out / "sph_mask.nii.gz"), str(stretched)),
        ])
        meta = self._metadata(tmp_path, ["GOOD", "BAD"])
        features = tmp_path / "partial.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", "radiomics107"]) == 1
        header, rows = read_csv(str(features))
        assert [r[0] for r in rows] == ["GOOD"]
        assert ("subject BAD failed: scan spacing (1.0, 1.0, 2.0) differs "
                "from mask spacing (1.0, 1.0, 1.0)") in caplog.text

    def test_empty_mask_cell_names_manifest_subject_and_column(
            self, phantom_dir, tmp_path, caplog):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("S1", str(out / "sph_mask.nii.gz"), ""),
            ("S2", "", ""),
        ])
        meta = self._metadata(tmp_path, ["S1", "S2"])
        features = tmp_path / "partial.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", "image7"]) == 1
        header, rows = read_csv(str(features))
        assert [r[0] for r in rows] == ["S1"]
        assert (f"subject S2 failed: {subjects}: subject 'S2' column 'mask' "
                "is empty") in caplog.text

    @pytest.mark.parametrize("mode", ["all", "radiomics107"])
    def test_manifest_without_scan_column_rejected_before_any_subject(
            self, phantom_dir, tmp_path, monkeypatch, mode):
        root, out = phantom_dir
        subjects = tmp_path / "subjects.csv"
        subjects.write_text(f"ID,mask\nS1,{out / 'sph_mask.nii.gz'}\n"
                            f"S2,{out / 'box_mask.nii.gz'}\n")
        meta = self._metadata(tmp_path, ["S1", "S2"])
        read = []
        monkeypatch.setattr("radsurv.cli.load_mask",
                            lambda path: read.append(path))
        with pytest.raises(ValueError, match=re.escape(
                f"{subjects}: missing columns ['scan']")):
            main(["extract", "--subjects", str(subjects),
                  "--metadata", str(meta), "--out", str(tmp_path / "f.csv"),
                  "--features", mode])
        assert read == []

    def test_image7_needs_no_scan_column(self, phantom_dir, tmp_path):
        root, out = phantom_dir
        subjects = tmp_path / "subjects.csv"
        subjects.write_text(f"ID,mask\nS1,{out / 'sph_mask.nii.gz'}\n")
        meta = self._metadata(tmp_path, ["S1"])
        features = tmp_path / "img7.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", "image7"]) == 0
        assert [r[0] for r in read_csv(str(features))[1]] == ["S1"]

    @pytest.mark.parametrize("mode", ["all", "radiomics107"])
    def test_empty_scan_cell_names_manifest_subject_and_column(
            self, phantom_dir, tmp_path, caplog, mode):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("S1", str(out / "sph_mask.nii.gz"), str(out / "sph_vol.nii.gz")),
            ("S2", str(out / "box_mask.nii.gz"), ""),
        ])
        meta = self._metadata(tmp_path, ["S1", "S2"])
        features = tmp_path / "partial.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", mode]) == 1
        assert [r[0] for r in read_csv(str(features))[1]] == ["S1"]
        assert (f"subject S2 failed: {subjects}: subject 'S2' column 'scan' "
                "is empty") in caplog.text

    def test_duplicate_manifest_id_rejected(self, phantom_dir, tmp_path):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("P1", str(out / "sph_mask.nii.gz"), ""),
            ("P1", str(out / "box_mask.nii.gz"), ""),
        ])
        meta = self._metadata(tmp_path, ["P1"])
        with pytest.raises(ValueError, match=re.escape(
                f"{subjects}: duplicate subject ID 'P1'")):
            main(["extract", "--subjects", str(subjects),
                  "--metadata", str(meta),
                  "--out", str(tmp_path / "dup.csv"), "--features", "image7"])

    def test_no_subject_succeeds_nonzero_exit(self, phantom_dir, tmp_path):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out,
                                  [("X", str(tmp_path / "missing.nii"), "")])
        meta = self._metadata(tmp_path, ["X"])
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta),
                     "--out", str(tmp_path / "none.csv"),
                     "--features", "image7"]) == 1

    def test_empty_et_roi_subject_skipped(self, phantom_dir, tmp_path):
        # the sphere phantom carries only label 2, so its ET region is empty
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("BOX", str(out / "box_mask.nii.gz"), str(out / "box_vol.nii.gz")),
            ("SPH", str(out / "sph_mask.nii.gz"), str(out / "sph_vol.nii.gz")),
        ])
        meta = self._metadata(tmp_path, ["BOX", "SPH"])
        features = tmp_path / "et.csv"
        assert main(["extract", "--subjects", str(subjects),
                     "--metadata", str(meta), "--out", str(features),
                     "--features", "radiomics107", "--roi", "ET"]) == 1
        header, rows = read_csv(str(features))
        assert [r[0] for r in rows] == ["BOX"]   # box mask is label 4

    def test_worker_count_does_not_change_output(self, phantom_dir, tmp_path,
                                                 monkeypatch):
        root, out = phantom_dir
        subjects = self._manifest(tmp_path, out, [
            ("P1", str(out / "sph_mask.nii.gz"), str(out / "sph_vol.nii.gz")),
            ("P2", str(out / "box_mask.nii.gz"), str(out / "box_vol.nii.gz")),
        ])
        meta = self._metadata(tmp_path, ["P1", "P2"])
        outputs = {}
        for workers in ("1", "4"):
            monkeypatch.setenv("RADSURV_WORKERS", workers)
            path = tmp_path / f"w{workers}.csv"
            assert main(["extract", "--subjects", str(subjects),
                         "--metadata", str(meta), "--out", str(path),
                         "--features", "all"]) == 0
            outputs[workers] = path.read_bytes()
        assert outputs["1"] == outputs["4"]

    @pytest.mark.parametrize("workers", ["abc", "0", "-2", "1.5", "",
                                         "١٢", "1_0"])
    def test_worker_count_must_be_a_positive_integer(self, tmp_path,
                                                     monkeypatch, workers):
        # rejected before any input is read, so no file needs to exist
        monkeypatch.setenv("RADSURV_WORKERS", workers)
        with pytest.raises(SystemExit, match=re.escape(
                f"RADSURV_WORKERS={workers!r} is not a positive integer")):
            main(["extract", "--subjects", str(tmp_path / "subjects.csv"),
                  "--metadata", str(tmp_path / "metadata.csv"),
                  "--out", str(tmp_path / "features.csv")])
        assert os.listdir(tmp_path) == []

    def test_fuzzed_manifest_writes_finite_or_names_the_fault(
            self, phantom_dir, tmp_path, caplog):
        """Mutated subjects manifests through ``extract``, in the style of
        ``test_number_rule.py``'s fuzz. A run either writes every subject
        with finite values; or writes the others and logs each failed
        subject by its manifest ID; or is rejected before any subject is
        read, in an error that names the manifest."""
        root, out = phantom_dir
        files = {"sm": str(out / "sph_mask.nii.gz"),
                 "sv": str(out / "sph_vol.nii.gz"),
                 "bm": str(out / "box_mask.nii.gz"),
                 "bv": str(out / "box_vol.nii.gz")}
        tokens = ("", " ", "NA", "abc", "\x00", "\ufeff", "é", "S1", "S9",
                  "ID", "mask", "scan", '"', "a,b", files["sv"], files["bm"],
                  str(root), str(out / "missing.nii.gz"))
        base = [["ID", "mask", "scan"], ["S0", files["sm"], files["sv"]],
                ["S1", files["bm"], files["bv"]],
                ["S2", files["sm"], files["sv"]]]
        meta = self._metadata(tmp_path, ["S0", "S1", "S2"])
        manifest = tmp_path / "subjects.csv"
        rng = np.random.default_rng(3535)
        outcomes = {"written": 0, "partial": 0, "rejected": 0}
        for trial in range(90):
            lines = [list(line) for line in base]
            for _ in range(int(rng.integers(1, 3))):
                if rng.random() < 0.15:     # a row or a column dropped
                    if rng.random() < 0.5 and len(lines) > 2:
                        del lines[int(rng.integers(1, len(lines)))]
                    else:
                        column = int(rng.integers(3))
                        lines = [line[:column] + line[column + 1:]
                                 for line in lines]
                    continue
                line = lines[int(rng.integers(len(lines)))]
                if line:
                    line[int(rng.integers(len(line)))] = tokens[int(
                        rng.integers(len(tokens)))]
            manifest.write_text("\n".join(map(",".join, lines)) + "\n")
            mode = ("image7", "radiomics107", "all")[trial % 3]
            features = tmp_path / f"t{trial}.csv"
            caplog.clear()
            try:
                status = main(["extract", "--subjects", str(manifest),
                               "--metadata", str(meta), "--out", str(features),
                               "--features", mode])
            except (ValueError, KeyError, SystemExit) as exc:
                assert str(manifest) in str(exc), f"trial {trial}: {exc}"
                outcomes["rejected"] += 1
                continue
            ids = [line[0].strip() for line in lines[1:]]
            header, written = (read_csv(str(features))
                               if features.exists() else ([], []))
            for row in written:
                for name, cell in zip(header[1:], row[1:]):
                    # only a centroid of a region the mask lacks is missing
                    if not (cell == "" and name.startswith("mask.centroid")):
                        assert math.isfinite(float(cell)), (trial, name)
            done = [row[0] for row in written]
            for sid in set(ids) - set(done):
                assert f"subject {sid} failed: " in caplog.text, (trial, sid)
            assert set(done) <= set(ids) and len(set(done)) == len(done)
            assert status == (0 if len(done) == len(ids) else 1), trial
            outcomes["written" if status == 0 else "partial"] += 1
        assert min(outcomes.values()) >= 10, outcomes


class TestTrainPredictEvaluate:
    def test_pipeline_round_trip(self, phantom_dir, tmp_path):
        _, out = phantom_dir
        train_dir = tmp_path / "train"
        assert main(["train", "--features", str(out / "features.csv"),
                     "--metadata", str(out / "metadata.csv"),
                     "--predictor", "gbr",
                     "--params", '{"n_estimators": 20, "max_depth": 3, '
                                 '"learning_rate": 1.0}',
                     "--seed", "7", "--out", str(train_dir)]) == 0
        pred_csv = tmp_path / "pred" / "predictions.csv"
        assert main(["predict", "--model", str(train_dir / "model.json"),
                     "--features", str(out / "features.csv"),
                     "--out", str(pred_csv)]) == 0
        header, rows = read_csv(str(pred_csv))
        assert header == ["subject_id", "predicted_days"]
        assert len(rows) == 14

        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--predictions", str(pred_csv),
                     "--metadata", str(out / "metadata.csv"),
                     "--out", str(eval_dir), "--eval-filter", "all"]) == 0
        header, rows = read_csv(str(eval_dir / "metrics.csv"))
        metrics = dict(zip(header, rows[0]))
        assert float(metrics["accuracy"]) > 0.9   # deep GBR memorizes
        assert metrics["thresholds"] == "304.375:456.5625"

    def test_evaluate_matches_hand_oracle(self, tmp_path):
        import math

        pred_csv = tmp_path / "predictions.csv"
        pred_csv.write_text(
            "subject_id,predicted_days\n"
            "A,90\nB,480\nC,450\nD,300\n")
        meta_csv = tmp_path / "meta.csv"
        meta_csv.write_text(
            "ID,Age,Survival_days,Extent_of_Resection\n"
            "A,50,100,GTR\nB,55,350,GTR\nC,60,500,GTR\nD,65,420,GTR\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--predictions", str(pred_csv),
                     "--metadata", str(meta_csv), "--out", str(out)]) == 0
        header, rows = read_csv(str(out / "metrics.csv"))
        m = dict(zip(header, rows[0]))
        # frozen spreadsheet oracle for this 4-subject vector
        assert float(m["accuracy"]) == 0.25
        assert float(m["mse"]) == 8475.0
        assert float(m["median_se"]) == 8450.0
        se = [100.0, 16900.0, 2500.0, 14400.0]
        std = math.sqrt(sum((s - 8475.0) ** 2 for s in se) / 4)
        assert float(m["std_se"]) == pytest.approx(std, rel=1e-11)
        assert float(m["spearman_r"]) == pytest.approx(0.4, abs=1e-11)

    def test_duplicate_prediction_id_rejected(self, tmp_path):
        pred_csv = tmp_path / "predictions.csv"
        pred_csv.write_text("subject_id,predicted_days\nA,90\nB,480\nA,300\n")
        meta_csv = tmp_path / "meta.csv"
        meta_csv.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                            "A,50,100,GTR\nB,55,350,GTR\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{pred_csv}: duplicate subject ID 'A'")):
            main(["evaluate", "--predictions", str(pred_csv),
                  "--metadata", str(meta_csv), "--out", str(tmp_path / "ev")])

    def test_default_grid_needs_predictor(self, phantom_dir, tmp_path):
        _, out = phantom_dir
        with pytest.raises(SystemExit, match="--predictor.*'predictor'"):
            main(["train", "--features", str(out / "features.csv"),
                  "--metadata", str(out / "metadata.csv"),
                  "--grid", "default", "--out", str(tmp_path / "t")])

    def test_grid_search_via_cli(self, phantom_dir, tmp_path):
        _, out = phantom_dir
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(
            [{"n_trees": 4, "max_depth": 2}, {"n_trees": 8, "max_depth": 4}]))
        train_dir = tmp_path / "gridtrain"
        assert main(["train", "--features", str(out / "features.csv"),
                     "--metadata", str(out / "metadata.csv"),
                     "--predictor", "rfr", "--grid", str(grid_path),
                     "--cv-folds", "3", "--seed", "1",
                     "--out", str(train_dir)]) == 0
        report = json.loads((train_dir / "grid_report.json").read_text())
        assert report["best_index"] in (0, 1)
        assert len(report["mean_mse"]) == 2

    def test_config_file_with_flag_override(self, phantom_dir, tmp_path):
        _, out = phantom_dir
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"predictor": "linear", "seed": 4,
                                      "params": {"penalty": "l2",
                                                 "lam": 1.0}}))
        train_dir = tmp_path / "cfgtrain"
        assert main(["train", "--features", str(out / "features.csv"),
                     "--metadata", str(out / "metadata.csv"),
                     "--config", str(config), "--seed", "9",
                     "--out", str(train_dir)]) == 0
        resolved = json.loads(
            (train_dir / "resolved_config.json").read_text())
        assert resolved["predictor"] == "linear"   # from config file
        assert resolved["seed"] == 9               # flag overrides file
        assert resolved["schema"] == "radsurv-config/1"

    @pytest.mark.parametrize("top", ["[]", '"abc"', "5", "null"])
    def test_config_file_must_hold_an_object(self, tmp_path, top):
        # main() resolves the config before it reads any input file
        config = tmp_path / "cfg.json"
        config.write_text(top)
        with pytest.raises(SystemExit, match=re.escape(
                f"{config}: config file must hold a JSON object")):
            main(["train", "--features", str(tmp_path / "f.csv"),
                  "--metadata", str(tmp_path / "m.csv"),
                  "--predictor", "linear", "--config", str(config),
                  "--out", str(tmp_path / "t")])


class TestRfeCommand:
    def test_rfe_outputs(self, phantom_dir, tmp_path):
        _, out = phantom_dir
        rfe_dir = tmp_path / "rfe"
        assert main(["rfe", "--features", str(out / "features.csv"),
                     "--metadata", str(out / "metadata.csv"),
                     "--n-keep", "5", "--estimator", "rfr",
                     "--step", "30", "--seed", "2",
                     "--out", str(rfe_dir)]) == 0
        header, rows = read_csv(str(rfe_dir / "ranking.csv"))
        assert len(rows) == 7 + 12 + 107 + 2
        header2, rows2 = read_csv(str(rfe_dir / "reduced_features.csv"))
        assert len(header2) == 6   # subject_id + 5 kept
        assert len(rows2) == 14


class TestExperimentCommand:
    def test_small_matrix(self, phantom_dir, tmp_path):
        _, out = phantom_dir
        exp_dir = tmp_path / "exp"
        assert main(["experiment", "--features", str(out / "features.csv"),
                     "--metadata", str(out / "metadata.csv"),
                     "--feature-sets", "image7,shape",
                     "--predictors", "linear,gbr",
                     "--params", '{"n_estimators": 5, "penalty": "l2", '
                                 '"lam": 1.0}',
                     "--seed", "0", "--eval-filter", "all",
                     "--out", str(exp_dir)]) == 0
        header, rows = read_csv(str(exp_dir / "metrics_eval.csv"))
        assert len(rows) == 4
        assert (exp_dir / "image7__linear" / "model.json").exists()
        assert (exp_dir / "shape__gbr" / "metrics.csv").exists()


RFR_GRID = [{"n_trees": 4, "max_depth": 2}, {"n_trees": 6, "max_depth": 4}]
FIXED_PARAMS = {"penalty": "l2", "lam": 1.0, "epochs": 20}


@pytest.fixture(scope="module")
def experiments(phantom_dir):
    """Experiment runs through the grid-search paths, one per way of naming
    a grid: the stock grid, and a grid file under both evaluation filters;
    and one run of fixed parameters."""
    root, out = phantom_dir
    grid_path = root / "rfr_grid.json"
    grid_path.write_text(json.dumps(RFR_GRID))
    runs = {
        "default": ["--feature-sets", "image7", "--predictors", "linear",
                    "--grid", "default"],
        "file": ["--feature-sets", "image7,shape", "--predictors", "rfr",
                 "--grid", str(grid_path)],
        "file_all": ["--feature-sets", "image7", "--predictors", "rfr",
                     "--grid", str(grid_path), "--eval-filter", "all"],
        "fixed": ["--feature-sets", "image7,shape", "--predictors",
                  "linear,mlp", "--params", json.dumps(FIXED_PARAMS)],
    }
    dirs = {}
    for name, flags in runs.items():
        dirs[name] = root / f"exp_{name}"
        assert main(["experiment", "--features", str(out / "features.csv"),
                     "--metadata", str(out / "metadata.csv"), "--seed", "0",
                     "--out", str(dirs[name])] + flags) == 0
    return grid_path, dirs


class TestGridExperimentAgreesWithCommands:
    """The experiment cells and the train/predict/evaluate commands share
    one fit and one evaluation filter; these pin that they agree."""

    def test_grid_report_per_cell(self, experiments):
        _, dirs = experiments
        cells = {"default": ["image7__linear"],
                 "file": ["image7__rfr", "shape__rfr"],
                 "file_all": ["image7__rfr"]}
        for name, names in cells.items():
            for cell in names:
                report = json.loads(
                    (dirs[name] / cell / "grid_report.json").read_text())
                grid = (FAMILIES["linear"].grid if name == "default"
                        else RFR_GRID)
                assert len(report["mean_mse"]) == len(grid)
                assert report["grid"] == json.loads(json.dumps(grid))

    def test_train_matches_experiment_cell_bytes(self, phantom_dir,
                                                 experiments, tmp_path):
        """``train`` on a CSV of exactly a cell's columns gathers them as
        the cell does, so it writes the cell's files for every family."""
        _, out = phantom_dir
        grid_path, dirs = experiments
        header, rows = read_csv(str(out / "features.csv"))
        cases = [("file", "image7", "rfr", ["--grid", str(grid_path)])] + [
            ("fixed", fs, kind, ["--params", json.dumps(FIXED_PARAMS)])
            for fs in ("image7", "shape") for kind in ("linear", "mlp")]
        for run, feature_set, kind, flags in cases:
            cols = [0] + [header.index(n)
                          for n in FEATURE_COLUMNS[feature_set]]
            cell_csv = tmp_path / f"{feature_set}.csv"
            cell_csv.write_text("\n".join(
                ",".join(r[c] for c in cols) for r in [header] + rows) + "\n")
            train_dir = tmp_path / f"train_{feature_set}_{kind}"
            assert main(["train", "--features", str(cell_csv),
                         "--metadata", str(out / "metadata.csv"),
                         "--predictor", kind, "--seed", "0",
                         "--out", str(train_dir)] + flags) == 0
            cell_dir = dirs[run] / f"{feature_set}__{kind}"
            for name in ("model.json", "grid_report.json"):
                want = cell_dir / name
                got = train_dir / name
                assert got.exists() == want.exists(), got
                if want.exists():
                    assert got.read_bytes() == want.read_bytes(), want

    @pytest.mark.parametrize("run,eval_filter,dataset",
                             [("file", "GTR", "eval"),
                              ("file_all", "all", "all")])
    def test_predict_evaluate_reproduce_eval_row(self, phantom_dir,
                                                 experiments, tmp_path, run,
                                                 eval_filter, dataset):
        _, out = phantom_dir
        _, dirs = experiments
        pred_csv = tmp_path / "predictions.csv"
        assert main(["predict",
                     "--model", str(dirs[run] / "image7__rfr" / "model.json"),
                     "--features", str(out / "features.csv"),
                     "--out", str(pred_csv)]) == 0
        assert main(["evaluate", "--predictions", str(pred_csv),
                     "--metadata", str(out / "metadata.csv"),
                     "--eval-filter", eval_filter,
                     "--out", str(tmp_path / "eval")]) == 0
        header, rows = read_csv(str(tmp_path / "eval" / "metrics.csv"))
        got = dict(zip(header, rows[0]))
        header, rows = read_csv(str(dirs[run] / "metrics_eval.csv"))
        want = dict(zip(header, next(r for r in rows if r[1] == "image7")))
        assert got["dataset"] == dataset
        assert got["n"] == want["n"]
        assert got["accuracy"] == want["accuracy"]
        for key in ("mse", "median_se", "std_se", "spearman_r"):
            assert float(got[key]) == pytest.approx(float(want[key]),
                                                    rel=1e-9)
