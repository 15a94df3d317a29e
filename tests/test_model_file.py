"""The checks ``load_model`` makes on a model.json.

Every file here is a saved model edited by hand or by seeded byte
mutations: loading it either raises a ValueError that names the file or
gives a model whose predictions are finite.
"""

import json
import pathlib
import re

import numpy as np
import pytest

from radsurv.regressors import load_model, predict, save_model, train_model


def _saved(kind, tmp_path, params=None) -> pathlib.Path:
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 3))
    y = 200.0 + 40.0 * x[:, 0] + rng.standard_normal(30)
    params = params or {"linear": {}, "mlp": {"epochs": 2},
                        "gbr": {"n_estimators": 3, "max_depth": 2},
                        "rfr": {"n_trees": 3, "max_depth": 3}}[kind]
    path = tmp_path / f"{kind}.json"
    save_model(train_model(kind, x, y, params, 0, ["a", "b", "c"]), str(path))
    return path


def _edit(path: pathlib.Path, keys, value) -> None:
    """Set the entry at ``keys`` of the file's document to ``value``, a
    JSON text written in place as it is."""
    doc = json.loads(path.read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "@@"
    path.write_text(json.dumps(doc).replace('"@@"', value))


@pytest.mark.parametrize("token", ["1e999", "NaN", "-Infinity"])
@pytest.mark.parametrize("kind,keys,shown", [
    ("linear", ["parameters", "coefficients", 0], "parameters.coefficients[0]"),
    ("linear", ["parameters", "intercept"], "parameters.intercept"),
    ("mlp", ["parameters", "weights", 0, 1, 2], "parameters.weights[0][1][2]"),
    ("mlp", ["parameters", "y_scale"], "parameters.y_scale"),
    ("gbr", ["parameters", "trees", 1, "threshold", 0],
     "parameters.trees[1].threshold[0]"),
    ("gbr", ["imputation", 1], "imputation[1]"),
    ("rfr", ["parameters", "trees", 2, "value", 3],
     "parameters.trees[2].value[3]"),
])
def test_non_finite_parameter_rejected(kind, keys, shown, token, tmp_path):
    path = _saved(kind, tmp_path)
    _edit(path, keys, token)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {shown}: ")
                       + ".* is not a finite number"):
        load_model(str(path))


@pytest.mark.parametrize("kind", ["gbr", "rfr"])
def test_v1_tree_file_rejected(kind, tmp_path):
    """A radsurv-model/1 tree, nested one object per level, is no longer
    read: its file is rejected by the key path of its first tree."""
    path = _saved(kind, tmp_path)
    doc = json.loads(path.read_text())
    doc["schema"] = "radsurv-model/1"
    doc["parameters"]["trees"][0] = {
        "feature": 0, "threshold": 0.5, "gain": 1.0, "value": 2.0, "n": 2,
        "left": {"value": 1.0, "n": 1}, "right": {"value": 3.0, "n": 1}}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: parameters.trees[0]: expected an object of the ")):
        load_model(str(path))


@pytest.mark.parametrize("key", ["model_type", "feature_names", "parameters",
                                 "hyperparameters", "imputation", "seed"])
def test_missing_top_level_key_named(key, tmp_path):
    path = _saved("linear", tmp_path)
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: model file lacks the key {key!r}")):
        load_model(str(path))


def test_imputation_of_the_wrong_length_named(tmp_path):
    path = _saved("mlp", tmp_path)
    doc = json.loads(path.read_text())
    doc["imputation"].append(0.0)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: imputation: holds 4 values for 3 features")):
        load_model(str(path))


@pytest.mark.parametrize("kind,keys,change,shown", [
    ("linear", ["coefficients"], lambda v: v + [1.0],
     "coefficients: holds 4 values for 3 features"),
    ("linear", ["x_mean"], lambda v: v[:2],
     "x_mean: holds 2 values for 3 features"),
    ("linear", ["x_scale", 1], lambda v: 0.0,
     "x_scale[1]: 0.0 is not a finite positive number"),
    ("mlp", ["widths"], lambda v: v[:4], "widths: expected five positive"),
    ("mlp", ["widths", 2], lambda v: 0, "widths: expected five positive"),
    ("mlp", ["widths", 4], lambda v: v + 1,
     "weights[4]: expected shape (12, 9), got (12, 8)"),
    ("mlp", ["weights", 0], lambda v: v + v[:1],
     "weights[0]: expected shape (3, 32), got (4, 32)"),
    ("mlp", ["weights"], lambda v: v[:5], "weights: expected 6 layers, got 5"),
    ("mlp", ["biases", 0], lambda v: v[:1],
     "biases[0]: expected shape (32,), got (1,)"),
    ("mlp", ["x_mean"], lambda v: v[:2],
     "x_mean: holds 2 values for 3 features"),
    ("mlp", ["x_scale", 0], lambda v: 0.0,
     "x_scale[0]: 0.0 is not a finite positive number"),
])
def test_parameter_of_the_wrong_shape_named(kind, keys, change, shown,
                                            tmp_path):
    """Such a file used to load and then predict wrong numbers, NaN or a
    bare numpy error."""
    path = _saved(kind, tmp_path)
    doc = json.loads(path.read_text())
    target = doc["parameters"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = change(target[keys[-1]])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: parameters.{shown}")):
        load_model(str(path))


@pytest.mark.parametrize("kind,keys,value,shown", [
    ("linear", ["parameters", "coefficients", 0], "true",
     "parameters.coefficients: expected numbers"),
    ("mlp", ["parameters", "weights", 0, 0, 0], "true",
     "parameters.weights[0]: expected numbers"),
    ("gbr", ["parameters", "trees", 0, "feature", 0], "true",
     "parameters.trees[0].feature: expected integers"),
    ("linear", ["bogus"], "1", "unknown key bogus"),
    ("rfr", ["parameters", "bogus"], "1", "unknown key parameters.bogus"),
    ("gbr", ["seed"], '"x"', "seed: expected an integer"),
    ("gbr", ["seed"], "1.0", "seed: expected an integer"),
    ("mlp", ["hyperparameters"], "[]",
     "hyperparameters must be a JSON object, not list"),
    ("linear", ["feature_names", 1], "2",
     "feature_names: expected a list of strings"),
])
def test_value_of_the_wrong_json_type_or_key_named(kind, keys, value, shown,
                                                   tmp_path):
    """Each such file used to load (true as 1, and the unknown keys, seed
    and hyperparameters written back by save_model)."""
    path = _saved(kind, tmp_path)
    _edit(path, keys, value)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {shown}")):
        load_model(str(path))


@pytest.mark.parametrize("keys,value,message", [
    (["feature", 0], "3", r"trees\[1\]\.feature\[0\]: outside -1\.\.2"),
    (["feature", 0], "1.0", r"trees\[1\]\.feature: expected integers"),
    (["left", 0], "0", r"trees\[1\]\.left\[0\]: a split node's child"),
    (["right", 0], "99", r"trees\[1\]\.right\[0\]: a split node's child"),
    (["left", 0], "2", r"trees\[1\]\.n\[1\]: this node is not the child "
                       "of one split node"),
    (["n"], "[1]", r"trees\[1\]: expected an object of the non-empty, "
                   "equal-length arrays"),
    (["gain"], '"x"', r"trees\[1\]: expected an object"),
    (["left", 0], "1.0", r"trees\[1\]\.left: expected integers \(1-d\)"),
    (["n", 2], "true", r"trees\[1\]\.n: expected integers \(1-d\)"),
    (["right", 0], "true", r"trees\[1\]\.right: expected integers"),
])
def test_malformed_tree_named(keys, value, message, tmp_path):
    path = _saved("gbr", tmp_path)
    _edit(path, ["parameters", "trees", 1] + keys, value)
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameters.")
                       + message):
        load_model(str(path))


@pytest.mark.parametrize("keys,value,message", [
    (["threshold", 1], "1e999", r"trees\[7\]\.threshold\[1\]: inf is not"),
    (["feature", 2], "-2", r"trees\[7\]\.feature\[2\]: outside -1\.\.2"),
    (["value", 0], "false", r"trees\[7\]\.value: expected numbers \(1-d\)"),
    (["right", 0], "1", r"trees\[7\]\.n\[1\]: this node is not the child"),
])
def test_bad_cell_in_a_later_tree_named(keys, value, message, tmp_path):
    """A rejection in a later tree names that tree and its node."""
    path = _saved("gbr", tmp_path, {"n_estimators": 9, "max_depth": 2})
    _edit(path, ["parameters", "trees", 7] + keys, value)
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameters.")
                       + message):
        load_model(str(path))


def test_empty_forest_rejected(tmp_path):
    path = _saved("rfr", tmp_path)
    _edit(path, ["parameters", "trees"], "[]")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: parameters.trees: a forest holds at least one tree")):
        load_model(str(path))


INSERTS = [b",", b"]", b"-1", b"1e999"]


def _mutate(rng, blob: bytes) -> bytes:
    """1 or 2 seeded byte flips, deletions or insertions of INSERTS, three
    in four of them at a digit, where most mutations leave valid JSON."""
    blob = bytearray(blob)
    for _ in range(int(rng.integers(1, 3))):
        digits = [i for i, b in enumerate(blob) if 48 <= b <= 57]
        at = int(digits[int(rng.integers(0, len(digits)))]
                 if rng.random() < 0.75 else rng.integers(0, len(blob)))
        how = int(rng.integers(0, 3))
        if how == 0:
            blob[at] ^= 1 << int(rng.integers(0, 8))
        elif how == 1:
            del blob[at]
        else:
            blob[at:at] = INSERTS[int(rng.integers(0, len(INSERTS)))]
    return bytes(blob)


def test_mutated_tree_files_raise_named_errors_or_predict_finite(tmp_path):
    bases = [_saved("gbr", tmp_path, {"n_estimators": 4, "max_depth": 3}),
             _saved("rfr", tmp_path, {"n_trees": 3, "max_depth": 3})]
    blobs = [path.read_bytes() for path in bases]
    rng = np.random.default_rng(1642)
    outcomes = {"loaded": 0, "not JSON": 0, "rejected": 0}
    for trial in range(800):
        path = tmp_path / f"t{trial}.json"
        path.write_bytes(_mutate(rng, blobs[trial % 2]))
        try:
            model = load_model(str(path))
        except ValueError as exc:
            assert str(path) in str(exc), (trial, str(exc))
            outcomes["not JSON" if "is not valid JSON" in str(exc)
                     else "rejected"] += 1
            continue
        x = np.random.default_rng(3).standard_normal((20, model.n_features))
        assert np.isfinite(predict(model, x * 3.0)).all(), trial
        outcomes["loaded"] += 1
    assert outcomes["loaded"] >= 150 and outcomes["rejected"] >= 80, outcomes
