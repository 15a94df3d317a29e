"""The CLI's settings table and the boundary checks of its commands.

The ``--help`` texts and the ``resolved_config.json`` files of all seven
commands are pinned by digests recorded before the settings moved into one
table, so the table must give the same flags, help and defaults byte for
byte.
"""

import argparse
import ast
import copy
import errno
import hashlib
import json
import os
import pathlib
import re
import sys

import numpy as np
import pytest

from radsurv import cli, phantoms
from radsurv.cli import COMMANDS, build_parser, main
from radsurv.cohort import load_cohort
from radsurv.prognosis import FEATURE_SETS
from radsurv.radiomics import FEATURE_COLUMNS
from radsurv.regressors import (PREDICTOR_KINDS, load_model, save_model,
                                train_model)
from radsurv.regressors.gridsearch import resolve_grid
from radsurv.util import read_csv, read_json
from radsurv.volumeio import load_mask, load_nifti

# sha256 of the --help text at COLUMNS=80; argparse lays help out a little
# differently across Python versions, so these hold for the recorded one
HELP_PYTHON = (3, 11)
HELP_DIGESTS = {
    "":
        "208346da9ad4d3e8ab61faac2c1a7781e4c183e035d70710caf9ace0fbc00ddb",
    "extract":
        "5b835e5b89fe01ed73e2ea106acf430caa869ccebe66c8c5fc37c62f5130bc74",
    "rfe":
        "b3fe1ed0f30edf63c5c63cd30027ae28306d6bb6ecc3c0abc8b0d749cc90bed0",
    "train":
        "66ce6265480ab7f1fb54c20a66655f8b91c220d8db4207b50ed4c50ba3218a15",
    "predict":
        "e3a855d798ea990028bcf0753b92119720d4546dff7b35c3f015b12d2f31f4ad",
    "evaluate":
        "61be07d4b5b459dbf252009555bfdfd356fd180ff2117f765604d205dd36534a",
    "experiment":
        "0cb5de33eb790b4a4ce2ca685268bb3927272865c324b6b1a9c63b2af4eb3c32",
    "phantom":
        "55a442780956647c22750fc0fc534e6c7ada70fef5c88c9480494744c26fa0f3",
}

# sha256 of each command's resolved_config.json in the run below
CONFIG_DIGESTS = {
    "ph":
        "67ac6f3e1c079716b561f9856eebe3150568714fbc7045fbe1a28b1abbc10e8d",
    "ext":
        "5833e45bcc50892626ba1c4997ae17f66bff311618676a17cedb1daca1572999",
    "rfe":
        "836f6b6297d6e64e694c971a3bbff60647abe79689c14ed1734b13f56b03b4bc",
    "train":
        "36c24b6f51c4735cf7ea0ca7eb6a9bc42140ea8625436d6bb68f205984a48c5c",
    "pred":
        "960bc14974a14d6d1aa3f39541c2bc054994f2f67809cfadbfc6f8229e17fab2",
    "eval":
        "270b0ff59566beab14198bbc2db994cbd8be61b13eeda23a6cf2a571db47fe56",
    "exp":
        "5631b0862b0d2ddff7caf408de5f6cd36d3cd8eb5293c8b4c25b5ee4c4e47df3",
}

SPEC = {"seed": 1,
        "masks": [{"name": "sph", "shape": "sphere", "params": [5.0],
                   "center": [8, 8, 8], "label_fill": 2, "dims": [18, 18, 18]}],
        "cohort": {"n_subjects": 8, "seed": 5,
                   "link": {"shape.mesh_volume": 0.1, "meta.age": 2.0},
                   "noise_std": 5.0}}


# valid JSON nested deeper than json.load can read
NESTED = "[" * 100_000 + "]" * 100_000


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def help_text(command, capsys, monkeypatch) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def run_pipeline(root) -> dict:
    """All seven commands on a small phantom cohort, run from ``root`` with
    relative paths; each output directory's resolved_config.json bytes."""
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "subjects.csv").write_text("ID,mask\nsph,ph/sph_mask.nii.gz\n")
    (root / "meta.csv").write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                                   "sph,50,300,GTR\n")
    # a config-only key, and a key that the flag then overrides
    (root / "rfe.json").write_text(json.dumps(
        {"estimator_params": {"penalty": "l2", "lam": 2.0}, "n_keep": 9}))
    data = ["--features", "ph/features.csv", "--metadata", "ph/metadata.csv"]
    for argv in (
            ["phantom", "--spec", "spec.json", "--out", "ph"],
            ["extract", "--subjects", "subjects.csv", "--metadata",
             "meta.csv", "--features", "image7", "--out", "ext/img.csv"],
            ["rfe", "--config", "rfe.json", *data, "--estimator", "linear",
             "--n-keep", "4", "--step", "50", "--out", "rfe"],
            ["train", *data, "--predictor", "linear", "--params",
             '{"penalty": "l2", "lam": 1.0}', "--out", "train"],
            ["predict", "--model", "train/model.json", "--features",
             "ph/features.csv", "--out", "pred/p.csv"],
            ["evaluate", "--predictions", "pred/p.csv", "--metadata",
             "ph/metadata.csv", "--eval-filter", "all", "--out", "eval"],
            ["experiment", *data, "--feature-sets", "image7",
             "--predictors", "linear", "--params", '{"penalty": "l2", "lam": 1.0}',
             "--eval-filter", "all", "--t-hi", "480", "--out", "exp"]):
        assert main(argv) == 0, argv
    return {name: (root / name / "resolved_config.json").read_bytes()
            for name in CONFIG_DIGESTS}


class TestSettingsTable:
    @pytest.mark.skipif(sys.version_info[:2] != HELP_PYTHON,
                        reason="help layout recorded on another Python")
    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS),
                             ids=lambda c: c or "radsurv")
    def test_help_text_is_unchanged(self, command, capsys, monkeypatch):
        text = help_text(command, capsys, monkeypatch)
        assert _sha(text.encode()) == HELP_DIGESTS[command], text

    def test_resolved_configs_are_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        configs = run_pipeline(tmp_path)
        assert {name: _sha(data) for name, data in configs.items()} == \
            CONFIG_DIGESTS, configs
        rfe = json.loads(configs["rfe"])
        assert rfe["estimator_params"]["lam"] == 2.0     # config file only
        assert rfe["n_keep"] == 4                        # flag over file

    def test_every_flag_is_a_setting_of_its_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMANDS)
        for name, parser in sub.choices.items():
            settings = COMMANDS[name][2]
            dests = [a.dest for a in parser._actions
                     if a.dest not in ("help", "config")]
            assert set(dests) <= set(settings), name
            flagged = [key for key, (_, flag) in settings.items()
                       if flag is not None]
            assert dests == flagged, name


# each command's required settings, with values that complete its command
# line; none of the files exists, so a command that read one would fail
COMPLETE = {
    "phantom": {"spec": "spec.json", "out": "ph"},
    "extract": {"subjects": "subjects.csv", "metadata": "meta.csv",
                "out": "ext/f.csv"},
    "rfe": {"features": "f.csv", "metadata": "m.csv", "out": "o"},
    "train": {"features": "f.csv", "metadata": "m.csv", "out": "o",
              "predictor": "linear"},
    "predict": {"model": "model.json", "features": "f.csv", "out": "p/p.csv"},
    "evaluate": {"predictions": "p.csv", "metadata": "m.csv", "out": "o"},
    "experiment": {"features": "f.csv", "metadata": "m.csv", "out": "o"},
}
REQUIRED_CASES = [(command, key) for command, given in COMPLETE.items()
                  for key in given]


def _flags(given: dict) -> list:
    return [token for key, value in given.items()
            for token in ("--" + key, value)]


class TestRequiredSettings:
    def test_required_settings_are_marked_in_the_table(self):
        assert {name: [key for key, (default, _) in settings.items()
                       if default is cli.REQUIRED]
                for name, (_, _, settings) in COMMANDS.items()} == \
            {name: list(given) for name, given in COMPLETE.items()}

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize("command,key", REQUIRED_CASES)
    def test_missing_setting_is_named_before_any_file_is_read(
            self, tmp_path, monkeypatch, command, key, via):
        """A setting missing from both the flags and the config file stops
        the command before it reads, makes or writes anything."""
        monkeypatch.chdir(tmp_path)
        given = {k: v for k, v in COMPLETE[command].items() if k != key}
        argv = [command, *_flags(given)]
        if via == "config":
            (tmp_path / "cfg.json").write_text(json.dumps(given))
            argv = [command, "--config", "cfg.json"]
        with pytest.raises(SystemExit, match=re.escape(
                f"radsurv {command} needs --{key} or the config key "
                f"'{key}'")):
            main(argv)
        assert os.listdir(tmp_path) == ([] if via == "flags"
                                        else ["cfg.json"])

    @pytest.mark.parametrize("command,key", REQUIRED_CASES)
    def test_config_null_for_a_required_setting_is_rejected(
            self, tmp_path, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: None}))
        given = {k: v for k, v in COMPLETE[command].items() if k != key}
        with pytest.raises(SystemExit, match=re.escape(
                f"cfg.json: {key} must be ")):
            main([command, "--config", "cfg.json", *_flags(given)])
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestPhantomSpec:
    def test_origin_resection_mix_and_thresholds_are_used(self, tmp_path):
        spec = {"masks": [{"name": "m", "shape": "cuboid", "params": [2, 2, 2],
                           "center": [8, 4, 4], "dims": [8, 8, 8],
                           "origin": [5, 0, 0]}],
                "cohort": {"n_subjects": 6, "seed": 2,
                           "resection_mix": [1.0, 0.0, 0.0],
                           "thresholds": [100, 200]}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["phantom", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 0
        assert load_mask(str(out / "m_mask.nii.gz")).origin == (5.0, 0.0, 0.0)
        report = json.loads((out / "cohort_report.json").read_text())
        assert report["thresholds"] == [100, 200]
        header, rows = read_csv(str(out / "metadata.csv"))
        status = header.index("Extent_of_Resection")
        assert {row[status] for row in rows} == {"GTR"}

    @pytest.mark.parametrize("spec,key", [
        ({"masks": [{"shape": "sphere", "params": [2], "center": [4, 4, 4],
                     "bogus": 1}]}, "masks[0].bogus"),
        ({"cohort": {"n_subjects": 4, "seed": 0, "noise": 1.0}},
         "cohort.noise"),
        ({"mask": []}, "mask")])
    def test_unknown_key_is_rejected_by_its_path(self, tmp_path, spec, key):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit, match=re.escape(
                f"{path}: unknown phantom spec key {key}")):
            main(["phantom", "--spec", str(path),
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out" / "resolved_config.json").exists()

    def test_mutated_specs_write_loadable_files_or_name_the_spec(
            self, tmp_path):
        """A seeded fuzz of spec values, missing keys and whole entries:
        each case exits 0 with every file it wrote loadable and inside
        --out, or exits with a message that names the spec file (and, for
        a value, the key path)."""
        rng = np.random.default_rng(1818)
        for case in range(300):
            part = "cohort" if case % 3 == 0 else "masks"
            spec = copy.deepcopy(FUZZ_BASES[part])
            entry = spec["cohort"] if part == "cohort" else spec["masks"][0]
            if rng.random() < 0.1:
                entry = spec
            keys = sorted({"seed", "masks", "cohort"} if entry is spec else
                          FUZZ_KEYS[part])
            for _ in range(int(rng.integers(1, 3))):
                key = keys[int(rng.integers(len(keys)))]
                pool = FUZZ_COUNTS if key in ("n_subjects", "n_distractors") \
                    else FUZZ_VALUES
                if rng.random() < 0.15:
                    entry.pop(key, None)
                else:
                    entry[key] = copy.deepcopy(
                        pool[int(rng.integers(len(pool)))])
            root = tmp_path / f"case{case}"
            root.mkdir()
            path, out = root / "spec.json", root / "out"
            path.write_text(json.dumps(spec))
            try:
                assert main(["phantom", "--spec", str(path),
                             "--out", str(out)]) == 0, spec
            except SystemExit as exc:
                assert str(path) in str(exc), (spec, str(exc))
                continue
            except Exception as exc:
                pytest.fail(f"{spec}: {type(exc).__name__}: {exc}")
            assert sorted(os.listdir(root)) == ["out", "spec.json"], spec
            _load_phantom_outputs(out)

    def test_fuzzed_mask_entries_load_back_cropped_or_name_the_entry(
            self, tmp_path, monkeypatch):
        """A seeded fuzz of the spec's mask entries through ``cli.main``,
        in the style of ``test_number_rule.py``'s fuzz: values replaced,
        keys, entries or the whole list dropped, entries repeated. A run
        either writes every entry's mask, which loads back, held as its
        box, to the labels ``gen_mask`` made for it; or exits naming the
        spec file and a mutated entry (or ``masks``)."""
        made = []
        monkeypatch.setattr(cli, "gen_mask", lambda spec: made.append(
            phantoms.gen_mask(spec)) or made[-1])
        rng = np.random.default_rng(3636)
        outcomes = {"written": 0, "rejected": 0}
        for trial in range(150):
            spec = copy.deepcopy(MASK_FUZZ_BASE)
            entries = spec["masks"]
            mutated = set()
            for _ in range(int(rng.integers(1, 3))):
                pick = rng.random()
                if pick < 0.1 and entries:
                    del entries[int(rng.integers(len(entries)))]
                elif pick < 0.2 and entries:
                    entries.append(copy.deepcopy(
                        entries[int(rng.integers(len(entries)))]))
                    mutated.add(id(entries[-1]))
                elif pick < 0.25:
                    spec["masks"] = FUZZ_VALUES[int(rng.integers(
                        len(FUZZ_VALUES)))]
                    mutated.add("masks")
                elif entries:
                    entry = entries[int(rng.integers(len(entries)))]
                    key = FUZZ_KEYS["masks"][int(rng.integers(
                        len(FUZZ_KEYS["masks"])))]
                    if rng.random() < 0.15:
                        entry.pop(key, None)
                    else:
                        entry[key] = copy.deepcopy(FUZZ_VALUES[int(
                            rng.integers(len(FUZZ_VALUES)))])
                    mutated.add(id(entry))
            named = {"masks"} & mutated | {
                f"masks[{i}]" for i, entry in enumerate(entries)
                if id(entry) in mutated}
            path, out = tmp_path / f"s{trial}.json", tmp_path / f"o{trial}"
            path.write_text(json.dumps(spec))
            made.clear()
            try:
                assert main(["phantom", "--spec", str(path),
                             "--out", str(out)]) == 0
            except SystemExit as exc:
                message = str(exc)
                assert str(path) in message, (trial, message)
                assert any(name in message for name in named), \
                    (trial, named, message)
                outcomes["rejected"] += 1
                continue
            names = [entry.get("name", f"phantom{i:03d}")
                     for i, entry in enumerate(spec["masks"])]
            assert len(made) == len(names), trial
            for name, entry, generated in zip(names, spec["masks"], made):
                mask = load_mask(str(out / f"{name}_mask.nii.gz"))
                box = mask.box
                assert mask.corner == tuple(b.start for b in box), trial
                assert np.array_equal(mask.labels, generated.labels[box])
                outside = generated.labels.copy()
                outside[box] = 0
                assert not outside.any(), (trial, name)
                if entry.get("with_volume"):
                    vol = load_nifti(str(out / f"{name}_vol.nii.gz"))
                    assert np.isfinite(vol.region(...)).all(), (trial, name)
            outcomes["written"] += 1
        assert outcomes["written"] >= 20 and outcomes["rejected"] >= 40, \
            outcomes

    def test_repeated_mask_name_is_rejected_before_any_file(self, tmp_path):
        """Each name names its entry's files, so a repeat, given or by
        default, would let the later entry overwrite the earlier one."""
        cases = ([{"name": "m"}, {"name": "m"}],
                 [{}, {"name": "phantom000"}])
        for n, names in enumerate(cases):
            spec = {"masks": [{"shape": "sphere", "params": [2],
                               "center": [4, 4, 4], "dims": [9, 9, 9],
                               **entry} for entry in names]}
            path, out = tmp_path / f"dup{n}.json", tmp_path / f"o{n}"
            path.write_text(json.dumps(spec))
            name = names[1]["name"]
            with pytest.raises(SystemExit, match=re.escape(
                    f"{path}: masks[1].name {name!r} is also the name of "
                    "masks[0]")):
                main(["phantom", "--spec", str(path), "--out", str(out)])
            assert not out.exists()


def _load_phantom_outputs(out):
    for name in os.listdir(out):
        if name.endswith("_mask.nii.gz"):
            load_mask(str(out / name))
        elif name.endswith("_vol.nii.gz"):
            assert np.isfinite(load_nifti(str(out / name)).region(...)).all()
        elif name.endswith(".json"):
            read_json(str(out / name), "output")
        else:
            assert name in ("features.csv", "metadata.csv"), name
    if (out / "features.csv").exists():
        load_cohort(str(out / "features.csv"), str(out / "metadata.csv"))


FUZZ_BASES = {
    "masks": {"seed": 1, "masks": [{
        "name": "m", "shape": "ellipsoid", "params": [3, 2.5, 2],
        "center": [5, 5, 5], "label_fill": 2, "dims": [11, 11, 11],
        "spacing": [1, 1, 1], "origin": [0, 0, 0], "with_volume": True}]},
    "cohort": {"seed": 1, "cohort": {
        "n_subjects": 1, "seed": 3, "link": {"meta.age": 2.0},
        "intercept": 10.0, "noise_std": 5.0, "n_distractors": 1,
        "class_mix": None, "resection_mix": [0.5, 0.25, 0.25],
        "thresholds": [100, 200]}},
}
# two mask entries, the second named by default and touching three faces
MASK_FUZZ_BASE = {"masks": [
    {"name": "a", "shape": "ellipsoid", "params": [3, 2.5, 2],
     "center": [5, 5, 5], "label_fill": 2, "dims": [11, 11, 11],
     "with_volume": True},
    {"shape": "cuboid", "params": [2, 3, 2], "center": [0.5, 1.25, 0.5],
     "label_fill": 4, "dims": [9, 10, 8], "spacing": [1, 0.5, 2],
     "origin": [0, 0, 0]}]}
FUZZ_KEYS = {
    "masks": ("name", "shape", "params", "center", "label_fill", "dims",
              "spacing", "origin", "with_volume"),
    "cohort": ("n_subjects", "seed", "link", "intercept", "noise_std",
               "n_distractors", "class_mix", "resection_mix", "thresholds"),
}
FUZZ_VALUES = [
    None, True, False, 0, 1, 2, -1, 2.5, float("inf"), float("nan"), -1e300,
    1e300, 10**400, 32767, 32768, "", "x", "sphere", "single_voxel", "../x",
    "a/b", "..", "m2", [], [2], [3, 2, 2], [2, 1], [1, 1, 1], [0.5, 1, 2],
    [4, 4, 4], [12, 12, 12], [5, 5.5, 5], [None, 7, 6], [1, float("inf"), 0.9],
    [1, 1, 1e300], [1e-50, 1, 1], [-1, 1, 1], [0, 1, 1], [1, "a", 1],
    [True, 1, 1], [32767, 2, 2], [1.5, 2, 2], [0.3, 0.3, 0.4], [1.0, 0.0, 0.0],
    [0.2, 0.2, 0.2], {}, {"meta.age": 1.0}, {"meta.age": "x"},
    {"meta.age": float("inf")}, {"img.vol_wt": 1e308}, {"nope": 1.0},
    {"a": [1]}, [{"shape": "sphere"}], ["x"],
]
# the subject and distractor counts draw no large valid count, so every
# generated cohort stays small
FUZZ_COUNTS = [None, True, -1, 0, 1, 2, 2.5, "1", float("inf"), 10**400,
               [1]]


class TestJsonInputs:
    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("params,why", [
        ("{bad", "not valid JSON"), ("[1]", "must be a JSON object, not list"),
        ('{"lam": NaN}', "lam: nan is not a finite number"),
        ('{"w": [1, -Infinity]}', "w[1]: -inf is not a finite number")])
    def test_bad_params_flag_is_a_usage_error(self, tmp_path, capsys,
                                              command, params, why):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--features", "f.csv", "--metadata", "m.csv",
                  "--params", params, "--out", str(tmp_path / "o")])
        assert exit_info.value.code == 2
        assert f"argument --params: {why}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "experiment"])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_reversed_thresholds_are_rejected_before_any_input(
            self, tmp_path, monkeypatch, command, via):
        """``evaluate --t-lo 500 --t-hi 300`` used to exit 0 with every
        subject short or long, none intermediate."""
        monkeypatch.chdir(tmp_path)
        argv = [command, *_flags(COMPLETE[command])]
        if via == "flags":
            argv += ["--t-lo", "500", "--t-hi", "300"]
        else:
            (tmp_path / "cfg.json").write_text('{"t_lo": 500, "t_hi": 300}')
            argv += ["--config", "cfg.json"]
        with pytest.raises(SystemExit, match=re.escape(
                "t_lo 500") + ".* is above " + re.escape("t_hi 300")):
            main(argv)
        assert os.listdir(tmp_path) == ([] if via == "flags" else
                                        ["cfg.json"])

    def test_reversed_spec_thresholds_are_rejected_before_any_mask(
            self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"masks": [{"shape": "sphere", "params": [2], "center": [4, 4, 4]}],
             "cohort": {"n_subjects": 2, "seed": 0,
                        "thresholds": [500, 300]}}))
        with pytest.raises(SystemExit, match=re.escape(
                f"{spec}: cohort.thresholds[0] 500 is above "
                "cohort.thresholds[1] 300")):
            main(["phantom", "--spec", str(spec),
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", [
        ("extract", "--bin-width"), ("evaluate", "--t-lo"),
        ("evaluate", "--t-hi"), ("experiment", "--t-lo"),
        ("experiment", "--t-hi")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_float_flag_must_be_finite(self, tmp_path, monkeypatch, capsys,
                                       command, flag, value):
        """As in a config file. Such values used to run: ``evaluate --t-lo
        nan`` to an accuracy of 1, ``extract --bin-width inf`` to a single
        gray level."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([command, *_flags(COMPLETE[command]), f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert (f"argument {flag}: '{value}' is not a finite number"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command,key", [
        ("train", "params"), ("experiment", "params"),
        ("rfe", "estimator_params")])
    def test_config_object_setting_must_be_an_object(self, tmp_path, command,
                                                     key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: '{"lam": 1.0}'}))
        with pytest.raises(SystemExit, match=re.escape(
                f"{config}: {key} must be a JSON object")):
            main([command, "--config", str(config), "--features", "f.csv",
                  "--metadata", "m.csv", "--out", str(tmp_path / "o")])

    def test_config_file_that_is_not_json_names_the_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"seed": 1,')
        with pytest.raises(SystemExit, match=re.escape(
                f"{config}: config file is not valid JSON")):
            main(["rfe", "--config", str(config), "--features", "f.csv",
                  "--metadata", "m.csv", "--out", str(tmp_path / "o")])


    def test_spec_file_that_is_not_json_names_the_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": ')
        with pytest.raises(SystemExit, match=re.escape(
                f"{spec}: spec file is not valid JSON")):
            main(["phantom", "--spec", str(spec),
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", [
        ("rfe", "--config"), ("phantom", "--spec")])
    def test_file_nested_too_deeply_names_the_file(self, tmp_path, command,
                                                   flag):
        path = tmp_path / "deep.json"
        path.write_text(NESTED)
        with pytest.raises(SystemExit, match=re.escape(
                f"{path}: nested too deeply to read")):
            main([command, flag, str(path), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("text,message", [
        ('[{"n_trees": ', "grid file is not valid JSON"),
        ('{"n_trees": 3}', "grid file must hold a JSON array, not dict"),
        (NESTED, "nested too deeply to read"),
        ("[]", "grid file must hold a non-empty array of JSON objects"),
        ('[{"n_trees": 3}, "n_trees"]',
         "grid file must hold a non-empty array of JSON objects"),
        ('[{"n_trees": 3}, {"max_depth": NaN}]',
         "[1].max_depth: nan is not a finite number"),
        (None, "no grid file of that name ('default' is the stock grid)"),
        ("", "no grid file of that name ('default' is the stock grid)")],
        ids=["invalid", "object", "nested", "empty", "not-objects",
             "non-finite", "missing", "directory"])
    def test_bad_grid_file_names_the_file(self, tmp_path, text, message):
        """``text`` None writes no file, and "" makes a directory."""
        grid = tmp_path / "grid.json"
        if text:
            grid.write_text(text)
        elif text == "":
            grid.mkdir()
        with pytest.raises(ValueError, match=re.escape(f"{grid}: {message}")):
            resolve_grid(str(grid), "rfr")

    @pytest.mark.parametrize("command,key,value", [
        ("rfe", "seed", "true"), ("rfe", "n_keep", "120.7"),
        ("rfe", "seed", '"abc"'), ("rfe", "step", "[1]"),
        ("rfe", "estimator", '"mlp"'), ("rfe", "features", "1"),
        ("evaluate", "eval_filter", '"x"'), ("evaluate", "t_lo", "true"),
        ("extract", "roi", "null"), ("rfe", "estimator_params", '{"a": NaN}'),
        ("train", "params", '{"w": [1, Infinity]}')])
    def test_config_value_is_checked_as_its_flag(self, tmp_path, command,
                                                 key, value):
        """Such values used to run (a seed of true as 1, 120.7 features
        as 120, an estimator the flag's choices refuse) or to fail with a
        bare ValueError or TypeError."""
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"{key}": {value}}}')
        with pytest.raises(SystemExit, match=re.escape(f"{config}: {key}")):
            main([command, "--config", str(config),
                  "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("token", [
        "true", "false", '"1"', "null", "[]", "{}", "NaN", "Infinity",
        "1e999", pytest.param(str(10 ** 400), id="10**400")])
    @pytest.mark.parametrize("document", ["spec", "config", "model"])
    def test_bad_number_is_rejected_by_file_and_key(self, tmp_path, token,
                                                    document):
        """The same values at a spec number key, a config integer key and
        a model.json number key, each checked by ``util.numbers``."""
        path = tmp_path / f"{document}.json"
        if document == "model":
            rng = np.random.default_rng(3)
            x = rng.standard_normal((8, 2))
            save_model(train_model("linear", x, x[:, 0] + 100.0, {}, 0),
                       str(path))
            doc, key = json.loads(path.read_text()), "parameters.intercept"
            doc["parameters"]["intercept"] = "@@"
        elif document == "spec":
            doc = {"cohort": {"n_subjects": 2, "seed": 0, "noise_std": "@@"}}
            key = "cohort.noise_std"
        else:
            doc, key = {"seed": "@@"}, "seed"
        path.write_text(json.dumps(doc).replace('"@@"', token))
        out = str(tmp_path / "out")
        with pytest.raises((ValueError, SystemExit), match=re.escape(
                f"{path}: {key}")):
            if document == "model":
                load_model(str(path))
            else:
                main(["phantom", "--spec", str(path), "--out", out]
                     if document == "spec" else
                     ["rfe", "--config", str(path), "--out", out])

    def test_unknown_config_key_names_the_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1, "seed": 2}))
        with pytest.raises(SystemExit, match=re.escape(
                f"{config}: config file has unknown keys: ['bogus']")):
            main(["rfe", "--config", str(config), "--features", "f.csv",
                  "--metadata", "m.csv", "--out", str(tmp_path / "o")])


class TestConfigEcho:
    """A command's resolved_config.json is a config file for the same
    command; its schema, version and command keys select nothing. They
    were rejected as unknown keys."""

    def test_each_command_reruns_from_its_echo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_pipeline(tmp_path)
        for name in CONFIG_DIGESTS:
            config = f"{name}/resolved_config.json"
            echo = read_json(config, "config file")
            out = name + "2" + echo["out"][len(name):]
            assert main([echo["command"], "--config", config,
                         "--out", out]) == 0, name
            first = sorted(p.relative_to(name) for p in
                           pathlib.Path(name).rglob("*") if p.is_file())
            again = sorted(p.relative_to(name + "2") for p in
                           pathlib.Path(name + "2").rglob("*") if p.is_file())
            assert first == again, name
            for rel in first:
                if rel.name != "resolved_config.json":
                    assert (pathlib.Path(name, rel).read_bytes()
                            == pathlib.Path(name + "2", rel).read_bytes()), \
                        (name, rel)
            assert read_json(f"{name}2/resolved_config.json", "echo") == \
                {**echo, "out": out}, name

    @pytest.mark.parametrize("key,value,message", [
        ("command", "train", "command must be one of ['rfe'], not 'train'"),
        ("schema", "radsurv-config/2", "schema must be one of "
         "['radsurv-config/1'], not 'radsurv-config/2'"),
        ("version", 1, "version must be a JSON string, not int")],
        ids=["command", "schema", "version"])
    def test_echo_of_another_run_is_rejected(self, tmp_path, key, value,
                                             message):
        """A train echo given to rfe, another schema, a version that is not
        a string: one line naming the file and the key."""
        config = tmp_path / "cfg.json"
        echo = {"schema": "radsurv-config/1", "version": "0.1.0",
                "command": "rfe", "seed": 0, key: value}
        if key == "command":       # a train echo holds train's settings
            echo.update(predictor="linear", params={}, grid=None)
        config.write_text(json.dumps(echo))
        with pytest.raises(SystemExit) as exc:
            main(["rfe", "--config", str(config), "--features", "f.csv",
                  "--metadata", "m.csv", "--out", str(tmp_path / "o")])
        assert str(exc.value) == f"{config}: {message}"


class TestBoundaryChecks:
    @pytest.fixture()
    def cohort_dir(self, tmp_path):
        spec = {"cohort": {"n_subjects": 6, "seed": 4}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["phantom", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "ph")]) == 0
        return tmp_path / "ph"

    @pytest.mark.parametrize("setting,names,bad", [
        ("feature_sets", "image7,bogus", "'bogus'"),
        ("predictors", "linear,bogus", "'bogus'"),
        ("feature_sets", "abc", "'abc'"), ("predictors", "xgb", "'xgb'"),
        ("feature_sets", ",", "''"), ("predictors", "", "''"),
        ("feature_sets", "image7,image7", None),
        ("predictors", "linear,gbr,linear", None)],
        ids=["bogus-set", "bogus-predictor", "abc", "xgb", "comma", "empty",
             "repeated-set", "repeated-predictor"])
    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_experiment_checks_every_name_before_any_input(
            self, tmp_path, setting, names, bad, by):
        """An empty list used to run no cell and exit 0, a repeated name
        to run its cells twice, and an unknown one to end in a bare
        ValueError; the feature and metadata files here do not exist."""
        choices = {"feature_sets": FEATURE_SETS,
                   "predictors": PREDICTOR_KINDS}[setting]
        message = (f"radsurv experiment: {setting} must be one of "
                   f"{list(choices)}, not {bad}" if bad else
                   f"radsurv experiment: {setting} names "
                   f"{names.split(',')[0]!r} twice")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({setting: names} if by == "config"
                                     else {}))
        flag = ["--" + setting.replace("_", "-"), names] if by == "flag" \
            else []
        out = tmp_path / "exp"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--features", str(tmp_path / "f.csv"),
                  "--metadata", str(tmp_path / "m.csv"),
                  "--config", str(config), *flag, "--out", str(out)])
        assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("grid,message", [
        ("defualt", "defualt: no grid file of that name ('default' is the "
                    "stock grid)"),
        ("grid.json", "grid.json: grid file is not valid JSON: "),
        (".", ".: no grid file of that name")],
        ids=["misspelt", "invalid-json", "directory"])
    def test_bad_grid_exits_before_any_input(self, tmp_path, monkeypatch,
                                             command, grid, message):
        """Such grids used to end in a FileNotFoundError traceback, or in
        a ValueError once the cohort was read; the feature and metadata
        files here do not exist."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.json").write_text('[{"n_trees": ')
        (tmp_path / "config.json").write_text(json.dumps({"grid": grid}))
        argv = ["--predictor", "rfr"] if command == "train" else [
            "--predictors", "linear,rfr"]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--features", "f.csv", "--metadata",
                  "m.csv", "--config", "config.json", "--out", "out"])
        assert str(exc.value).startswith(f"radsurv {command}: grid: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,config,message", [
        (["train", "--predictor", "gbr", "--params", '{"n_estimators": -3}'],
         {}, "radsurv train: params: n_estimators must be an integer >= 0, "
         "got -3"),
        (["train", "--predictor", "mlp", "--params", '{"batch_size": 0}'],
         {}, "radsurv train: params: batch_size must be an integer >= 1, "
         "got 0"),
        (["experiment", "--predictors", "linear,gbr", "--params",
          '{"n_estimators": -3}'], {},
         "radsurv experiment: params: n_estimators must be an integer "
         ">= 0, got -3"),
        (["rfe"], {"estimator_params": {"n_trees": 2.5}},
         "radsurv rfe: estimator_params: n_trees must be an integer >= 1, "
         "got 2.5")], ids=["train", "train-mlp", "experiment", "rfe"])
    def test_bad_hyperparameter_names_the_command_and_setting(
            self, cohort_dir, tmp_path, argv, config, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--features", str(cohort_dir / "features.csv"),
                         "--metadata", str(cohort_dir / "metadata.csv"),
                         "--config", str(config_path), "--out", str(out)])
        assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rfe", "--n-keep", "4", "--step", "50"],
        ["train", "--predictor", "linear"],
        ["experiment", "--feature-sets", "image7", "--predictors", "linear"],
        ["experiment", "--feature-sets", "rfe20", "--predictors", "linear"]],
        ids=["rfe", "train", "experiment", "experiment-rfe20"])
    def test_unknown_survival_names_the_subject_and_file(self, cohort_dir,
                                                         tmp_path, argv):
        """Every command that fits to survival rejects a blank one through
        ``Cohort.known_survival``; rfe20 does so before its RFE runs."""
        meta = cohort_dir / "metadata.csv"
        lines = meta.read_text().splitlines()
        row = lines[5].split(",")
        assert row[0] == "SYN-0004"
        lines[5] = ",".join([*row[:2], "", *row[3:]])
        meta.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{meta}: subject 'SYN-0004' has no Survival_days")):
            main([*argv, "--features", str(cohort_dir / "features.csv"),
                  "--metadata", str(meta), "--out", str(out)])
        assert not (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("row,message", [
        ("SYN-0001,abc", "subject 'SYN-0001' column 'predicted_days' holds "
                         "a non-numeric value 'abc'"),
        ("SYN-0001", "subject 'SYN-0001' has 1 cells, the header has 2"),
        ("TYPO-9999,300", "subject 'TYPO-9999' has no metadata row in ")])
    def test_evaluate_names_a_bad_prediction_row(self, cohort_dir, tmp_path,
                                                 row, message):
        preds = tmp_path / "p.csv"
        preds.write_text(f"subject_id,predicted_days\nSYN-0000,300\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{preds}: {message}")):
            main(["evaluate", "--predictions", str(preds), "--metadata",
                  str(cohort_dir / "metadata.csv"), "--out",
                  str(tmp_path / "ev")])

    @pytest.mark.parametrize("manifest,message", [
        ("ID,mask\nS1,m.nii.gz\n\n", "subject '' has 0 cells, the header "
                                     "has 2"),
        ("ID,mask\nS1\n", "subject 'S1' has 1 cells, the header has 2")],
        ids=["blank-line", "short-row"])
    def test_extract_names_a_bad_manifest_row(self, tmp_path, manifest,
                                              message):
        subjects = tmp_path / "subjects.csv"
        subjects.write_text(manifest)
        with pytest.raises(ValueError, match=re.escape(
                f"{subjects}: {message}")):
            main(["extract", "--subjects", str(subjects), "--metadata",
                  str(tmp_path / "meta.csv"), "--out",
                  str(tmp_path / "f.csv"), "--features", "image7"])

    def test_extract_names_the_metadata_file_of_a_missing_row(self, tmp_path,
                                                              caplog):
        subjects = tmp_path / "subjects.csv"
        subjects.write_text("ID,mask\nS9,m.nii.gz\n")
        meta = tmp_path / "meta.csv"
        meta.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        "S1,50,200,GTR\n")
        assert main(["extract", "--subjects", str(subjects), "--metadata",
                     str(meta), "--out", str(tmp_path / "f.csv"),
                     "--features", "image7"]) == 1
        assert f"{meta}: no metadata row for subject 'S9'" in caplog.text


# each command on the files ``run_pipeline`` leaves, and its path settings
PATH_RUNS = {
    "extract": (["--subjects", "subjects.csv", "--metadata", "meta.csv",
                 "--features", "image7", "--out", "ext/img.csv"],
                ["subjects", "metadata"]),
    "rfe": (["--features", "ph/features.csv", "--metadata", "ph/metadata.csv",
             "--estimator", "rfr", "--n-keep", "4", "--step", "50",
             "--out", "rfe"], ["features", "metadata"]),
    "train": (["--features", "ph/features.csv", "--metadata",
               "ph/metadata.csv", "--predictor", "linear", "--params",
               '{"penalty": "l2", "lam": 1.0}', "--out", "train"],
              ["features", "metadata"]),
    "predict": (["--model", "train/model.json", "--features",
                 "ph/features.csv", "--out", "pred/p.csv"],
                ["model", "features"]),
    "evaluate": (["--predictions", "pred/p.csv", "--metadata",
                  "ph/metadata.csv", "--eval-filter", "all", "--out", "eval"],
                 ["predictions", "metadata"]),
    "experiment": (["--features", "ph/features.csv", "--metadata",
                    "ph/metadata.csv", "--feature-sets", "image7",
                    "--predictors", "linear", "--eval-filter", "all",
                    "--t-hi", "480", "--out", "exp"],
                   ["features", "metadata"]),
    "phantom": (["--spec", "spec.json", "--out", "ph"], ["spec"]),
}
# a path to no file, a directory, and a file where --out names a directory
PATH_FAULTS = {"missing": ("nope", errno.ENOENT),
               "directory": ("adir", errno.EISDIR),
               "file": ("afile", errno.EEXIST)}


def _path_cases():
    for command, (argv, inputs) in PATH_RUNS.items():
        for setting in [*inputs, "config"]:
            for fault in ("missing", "directory"):
                yield command, setting, fault
        # --out is made where missing; it fails as a directory where it
        # names a file, and as a file where it names a directory
        yield command, "out", ("directory" if COMMANDS[command][2]["out"][1]
                               is not cli._OUT_DIR else "file")


class TestPathSettings:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("paths")
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)
            run_pipeline(root)
        (root / "adir").mkdir()
        (root / "afile").write_text("")
        return root

    @pytest.mark.parametrize("command,setting,fault", list(_path_cases()),
                             ids=["-".join(case) for case in _path_cases()])
    def test_unreadable_path_names_the_command_and_setting(
            self, workspace, monkeypatch, command, setting, fault):
        """Each used to end in a bare FileNotFoundError, IsADirectoryError
        or FileExistsError traceback that named the path alone."""
        monkeypatch.chdir(workspace)
        argv = list(PATH_RUNS[command][0])
        path, code = PATH_FAULTS[fault]
        if setting == "config":
            argv += ["--config", path]
        else:
            argv[argv.index("--" + setting) + 1] = path
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert str(exc.value) == (f"radsurv {command}: {setting} {path}: "
                                  f"{os.strerror(code)}")

    def test_other_os_errors_are_raised_unchanged(self, workspace,
                                                  monkeypatch):
        """An OSError for a path that no setting holds, here the model file
        ``train`` writes inside its --out, keeps its type and message."""
        monkeypatch.chdir(workspace)
        argv = list(PATH_RUNS["train"][0])
        argv[argv.index("--out") + 1] = "blocked"
        (workspace / "blocked" / "model.json").mkdir(parents=True)
        with pytest.raises(IsADirectoryError, match="model.json"):
            main(["train", *argv])


def test_input_files_are_read_only_through_util():
    """Every CSV table and JSON file goes through util.read_csv / read_json,
    so no reader can bypass their checks, and every JSON file is written by
    util.write_json, so none bypasses its all-or-nothing write."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for call in ("json.load(", "csv.reader(", "reject_duplicate_ids(",
                     "json.dump(", "json.dumps("):
            assert path.name == "util.py" or call not in text, (path, call)


def test_fits_are_written_only_through_prognosis():
    """``train`` and every experiment cell write model.json and
    grid_report.json through ``prognosis.save_fit``, so the two cannot
    drift apart."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    allowed = {"save_model(": {"prognosis.py", "persist.py"},
               '"grid_report.json"': {"prognosis.py"}}
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for token, files in allowed.items():
            assert path.name in files or token not in text, (path, token)
    persist = package / "regressors" / "persist.py"
    assert persist.read_text(encoding="utf-8").count("save_model(") == 1


def test_resolved_config_is_written_only_by_main():
    """Every command's resolved_config.json is written by ``cli.main``
    after the command returns, so no command can skip or misplace it."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    writers = {(path.name, scope)
               for path in package.rglob("*.py")
               for scope, node in _nodes_by_function(
                   ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant)
               and node.value == "resolved_config.json"}
    assert writers == {("cli.py", "main")}


def _nodes_by_function(node, scope="<module>"):
    """(enclosing function name, node) of every node under ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _nodes_by_function(child, inner)


def _calls_by_function(node):
    """(enclosing function name, called name) of every call under ``node``."""
    for scope, child in _nodes_by_function(node):
        if isinstance(child, ast.Call):
            yield scope, getattr(child.func, "id",
                                 getattr(child.func, "attr", None))


def test_count_textures_is_called_only_by_texture_counts():
    """``texture.count_textures`` is the one walk over the neighbour pairs,
    made once per ROI by ``DiscretizedRoi.texture_counts``, and every
    texture family reads the tables it leaves. ``texture`` builds the pairs
    itself, so it imports nothing from ``discretize`` at run time."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    callers = {(path.name, scope)
               for path in package.rglob("*.py")
               for scope, name in _calls_by_function(
                   ast.parse(path.read_text(encoding="utf-8")))
               if name == "count_textures"}
    assert callers == {("discretize.py", "texture_counts")}
    texture = ast.parse((package / "radiomics" / "texture.py").read_text(
        encoding="utf-8"))
    assert "discretize" not in [node.module for node in texture.body
                                if isinstance(node, ast.ImportFrom)]


def test_imports_are_at_module_level():
    """No module imports inside a function, so an import cycle shows at
    import time. ``regressors/__init__`` imports ``persist`` and
    ``gridsearch`` before its family table is defined, and those two read
    the table, so only they defer their import of it."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    deferred = {path.relative_to(package).as_posix()
                for path in package.rglob("*.py")
                for scope, node in _nodes_by_function(
                    ast.parse(path.read_text(encoding="utf-8")))
                if scope != "<module>"
                and isinstance(node, (ast.Import, ast.ImportFrom))}
    assert deferred == {"regressors/persist.py", "regressors/gridsearch.py"}


def test_feature_rows_are_composed_only_by_extract_row():
    """``radsurv extract`` and the synthetic cohorts build a subject's row
    through ``radiomics.extract_row``, so the columns of a feature group
    and the values under them cannot drift apart."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    extractors = {"extract_image_features", "mask_summary",
                  "extract_radiomics"}
    callers = {(path.name, scope, name)
               for path in package.rglob("*.py")
               for scope, name in _calls_by_function(
                   ast.parse(path.read_text(encoding="utf-8")))
               if name in extractors}
    assert callers == {("__init__.py", "extract_row", name)
                       for name in extractors}


def test_no_module_level_name_is_bound_twice():
    """A second top-level binding of a name replaces the first for every
    later use, as when cli's phantom spec table and its flag keywords both
    bound ``_FLOAT`` and only the code between them saw the first."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    for path in package.rglob("*.py"):
        names = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [(alias.asname or alias.name).split(".")[0]
                          for alias in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names += [name.id for target in targets
                          for name in ast.walk(target)
                          if isinstance(name, ast.Name)
                          and isinstance(name.ctx, ast.Store)]
        assert len(set(names)) == len(names), (path.name, sorted(
            {name for name in names if names.count(name) > 1}))


def test_each_feature_column_name_is_declared_once():
    """Every feature column name is typed once in the package, in its
    family's name tuple or dataclass, so a family's values, CSV headers
    and model feature lists cannot drift apart."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "radsurv"
    columns = set(FEATURE_COLUMNS["all"])
    typed = [(node.value, path.name)
             for path in package.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and node.value in columns]
    names = [name for name, _ in typed]
    assert sorted({(name, file) for name, file in typed
                   if names.count(name) > 1}) == []
