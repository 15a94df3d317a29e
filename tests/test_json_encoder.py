"""``util.write_json`` against ``json.dumps(sort_keys=True, indent=1)``
(``indent=None`` for model.json), its errors and the all-or-nothing write,
and tree files of any depth.

Random documents cover every kind json writes plus numpy arrays; the files
the commands write (every family's model.json and grid_report.json, the
resolved configs and the cohort report) must equal what json.dump writes
for the same document, compact for model.json and with a one-space indent
for the others, and the ones without paths in them are pinned by digests:
those of model.json recorded when it became compact text (each document
unchanged since its digest was first recorded), the others with json.dump
as the writer. A model.json written with the one-space indent, as before,
loads and predicts the same bits.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from radsurv.cli import main
from radsurv.regressors import (TreeArrays, load_model, predict, save_model,
                                train_model)
from radsurv.util import UnencodableValueError, write_json


def encode_json(doc) -> str:
    """The text write_json writes for ``doc``, without its final newline."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "doc.json")
        write_json(path, doc)
        with open(path, encoding="utf-8") as fh:
            return fh.read()[:-1]

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-7,
                  0.1, 123456789.125, float("nan"), float("inf"),
                  float("-inf"), np.float64(-3.5e-310), np.float64(2.0 / 3.0)]


def _reference(doc, indent=1) -> str:
    """json.dumps with arrays as lists and no NaN or infinity."""
    return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False,
                      default=lambda value: value.tolist())


def assert_written_as_reference(doc):
    """write_json writes ``_reference(doc)``, or, where that rejects a
    number that is not finite, raises a ValueError naming it."""
    try:
        expected = _reference(doc)
    except ValueError:
        with pytest.raises(ValueError, match=r"is not a finite number$"):
            encode_json(doc)
    else:
        assert encode_json(doc) == expected


def _random_text(rng) -> str:
    alphabet = ["a", "z", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
                "\x7f", "é", "ß", "☃", "中", "\U0001f600", "\ud800"]
    return "".join(rng.choice(alphabet, size=int(rng.integers(0, 6))))


def _random_scalar(rng):
    pick = int(rng.integers(0, 7))
    if pick == 0:
        return SPECIAL_FLOATS[int(rng.integers(len(SPECIAL_FLOATS)))]
    if pick == 1:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    if pick == 2:
        return int(rng.integers(-2**62, 2**62)) * int(rng.integers(1, 4)) ** 40
    if pick == 3:
        return [None, True, False][int(rng.integers(3))]
    if pick == 4:
        return _random_text(rng)
    if pick == 5:
        shape = tuple(int(d) for d in rng.integers(0, 4, rng.integers(1, 3)))
        array = rng.standard_normal(shape)
        if array.size and rng.random() < 0.3:
            array.flat[0] = [np.nan, np.inf, -0.0][int(rng.integers(3))]
        return array if rng.random() < 0.8 else rng.integers(-9, 9, shape)
    return np.float64(rng.standard_normal())


def _random_document(rng, depth=0):
    if depth >= 5 or rng.random() < 0.3:
        return _random_scalar(rng)
    size = int(rng.integers(0, 5))
    kind = int(rng.integers(3))
    children = [_random_document(rng, depth + 1) for _ in range(size)]
    if kind == 0:
        return {_random_text(rng) + str(i): child
                for i, child in enumerate(children)}
    return children if kind == 1 else tuple(children)


@pytest.mark.parametrize("seed", range(40))
def test_random_documents_match_json_dumps(seed):
    rng = np.random.default_rng(seed)
    doc = _random_document(rng)
    assert_written_as_reference(doc)
    assert_written_as_reference({"top": doc, "": [doc, {}]})


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[[[]]]], "",
    "é☃\U0001f600", None, True, False, 0, -1, 10**30, -0.0, 5e-324,
    1e16, float("nan"), float("inf"), float("-inf"), np.float64(0.1),
    {"z": 1, "a": 2, "m": {"y": None, "b": False}},
    np.zeros((2, 0)), np.array(3.5), np.array([[1.0, np.nan], [2.0, 3.0]]),
    np.arange(4), np.array([True, False]),
], ids=repr)
def test_edge_documents_match_json_dumps(doc):
    assert_written_as_reference(doc)
    assert_written_as_reference([doc])


@pytest.mark.parametrize("doc,where", [
    ({"a": [1, {"b": np.array([[1.0, 2.0], [np.nan, 0.0]])}]},
     r"^a\[1\]\.b\[1\]\[0\]: nan"),
    ({"x": {"y": -np.inf}}, r"^x\.y: -inf"), ([0.5, np.inf], r"^\[1\]: inf"),
    (np.float64("nan"), r"^the document: nan")], ids=repr)
def test_non_finite_number_names_its_path_and_writes_nothing(tmp_path, doc,
                                                              where):
    """A strict JSON reader rejects NaN and infinity, which json.dumps
    writes by default."""
    with pytest.raises(ValueError, match=where + " is not a finite number"):
        write_json(str(tmp_path / "doc.json"), doc)
    assert os.listdir(tmp_path) == []


def test_tree_nodes_save_as_level_order_arrays(tmp_path):
    """The ensemble's arrays hold a 5-node tree and then a leaf; the file
    holds each tree's slice."""
    model = _gbr({"n_estimators": 2})
    model.trees = TreeArrays({
        "feature": [0, 1, -1, -1, -1, -1],
        "threshold": [-1.0, 0.25, 0.0, 0.0, 0.0, 0.0],
        "gain": [3.0, 7.0, 0.0, 0.0, 0.0, 0.0],
        "left": [1, 3, -1, -1, -1, -1], "right": [2, 4, -1, -1, -1, -1],
        "value": [2.0, -0.0, -3.0, 1.5, 1e16, 1.5],
        "n": [9, 5, 4, 2, 3, 2]}, [5, 1])
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    assert doc["schema"] == "radsurv-model/2"
    assert doc["parameters"]["trees"] == [
        {"feature": [0, 1, -1, -1, -1], "threshold": [-1.0, 0.25, 0.0, 0.0, 0.0],
         "gain": [3.0, 7.0, 0.0, 0.0, 0.0], "left": [1, 3, -1, -1, -1],
         "right": [2, 4, -1, -1, -1], "value": [2.0, -0.0, -3.0, 1.5, 1e16],
         "n": [9, 5, 4, 2, 3]},
        {"feature": [-1], "threshold": [0.0], "gain": [0.0], "left": [-1],
         "right": [-1], "value": [1.5], "n": [2]}]


def test_unencodable_value_names_its_path_and_type():
    doc = {"a": [1, {"b": np.int64(3)}]}
    with pytest.raises(UnencodableValueError,
                       match=r"a\[1\]\.b: .*numpy\.int64") as err:
        encode_json(doc)
    assert err.value.path == "a[1].b"
    assert isinstance(err.value, TypeError)
    with pytest.raises(UnencodableValueError,
                       match=r"^x\[0\]: cannot encode a key of type int"):
        encode_json({"x": [{"a": 1, 2: 0}]})


def test_circular_reference_rejected():
    loop = [1]
    loop.append(loop)
    with pytest.raises(ValueError, match=r"circular reference"):
        encode_json({"loop": loop})
    shared = [1.0, 2.0]
    assert encode_json([shared, shared]) == _reference([shared, shared])


def _gbr(params):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    return train_model("gbr", x, x[:, 0] * 10.0 + 100.0, params, 0)


def test_failed_save_writes_no_file(tmp_path):
    model = _gbr({"n_estimators": np.int64(3)})
    path = tmp_path / "model.json"
    with pytest.raises(UnencodableValueError,
                       match=r"hyperparameters\.n_estimators: .*numpy\.int64"):
        save_model(model, str(path))
    assert os.listdir(tmp_path) == []


def test_failed_save_leaves_an_existing_file_unchanged(tmp_path):
    path = tmp_path / "model.json"
    save_model(_gbr({"n_estimators": 3}), str(path))
    before = path.read_bytes()
    with pytest.raises(UnencodableValueError):
        save_model(_gbr({"n_estimators": np.int64(3)}), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def _deep_tree(depth):
    """The node arrays of a chain of ``depth`` splits, each with a leaf on
    its left."""
    levels = range(depth - 1, -1, -1)
    pairs = {
        "feature": [(0, -1) for _ in levels],
        "threshold": [(-float(level), 0.0) for level in levels],
        "gain": [(1.0, 0.0) for _ in levels],
        "left": [(2 * j + 1, -1) for j in range(depth)],
        "right": [(2 * j + 2, -1) for j in range(depth)],
        "value": [(float(level), -1.0) for level in levels],
        "n": [(level + 2, 1) for level in levels]}
    last = {"feature": -1, "threshold": 0.0, "gain": 0.0, "left": -1,
            "right": -1, "value": 0.5, "n": 1}
    return {key: [x for pair in column for x in pair] + [last[key]]
            for key, column in pairs.items()}


def test_tree_deeper_than_the_recursion_limit_saves_whole(tmp_path):
    expected = _deep_tree(sys.getrecursionlimit() + 500)
    model = _gbr({"n_estimators": 1})
    model.trees = TreeArrays.join([expected])
    path = tmp_path / "model.json"
    save_model(model, str(path))
    text = path.read_text()
    doc = json.loads(text)
    assert doc["parameters"]["trees"] == [expected]
    assert text == _reference(doc, indent=None) + "\n"


def test_tree_deeper_than_the_recursion_limit_round_trips(tmp_path):
    depth = sys.getrecursionlimit() + 500
    model = _gbr({"n_estimators": 1})
    model.trees = TreeArrays.join([_deep_tree(depth)])
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    x = np.random.default_rng(2).uniform(-depth - 2.0, 1.0, (200, 3))
    assert np.array_equal(predict(loaded, x), predict(model, x))
    again = tmp_path / "again.json"
    save_model(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# files written by the commands

GRIDS = {
    "linear": [{"penalty": "l2", "lam": 0.5}, {"penalty": "none"}],
    "rfr": [{"n_trees": 3, "max_depth": 3}, {"n_trees": 2}],
    "gbr": [{"n_estimators": 6, "max_depth": 2}, {"n_estimators": 4}],
    "mlp": [{"epochs": 4}, {"epochs": 3, "optimizer": "sgd", "lr": 0.01}],
}

# sha256 of the files: model.json as first written as compact text,
# linear/grid_report.json as first written with null for the failed
# combination's mean and std (and its error reworded to name lam > 0),
# the others as json.dump wrote them
DIGESTS = {
    "cohort/cohort_report.json":
        "a47afe55f5b38c1b71bf6316851b3f79ed8238f6048dac6a770dfadff0e904c9",
    "gbr/grid_report.json":
        "6f8f0a2a483491c8c5d47d7cba40c8dc087ee977a16171839bd1be777f320bec",
    "gbr/model.json":
        "59ea3f9cfe74e29228e8552678208138dc8c70072d7e0532742a23b6fbb82421",
    "linear/grid_report.json":
        "bc0a124d2bc50702319e0a9e22c033c1e1af0830db0c52ec9749530b6d7351e3",
    "linear/model.json":
        "be0ab96a9bd9916574fbc61f171cd1d3bd34a99be0c744ed48937de83cb9cec8",
    "mlp/grid_report.json":
        "3b254e73e9cc1f03ed5c44f399dde3a5444b88c43b4270cb34e2849deabc689b",
    "mlp/model.json":
        "f759265006a3a197b49d8749edd84ba6423a8388f1319a94f0faf770a7b11ea2",
    "rfr/grid_report.json":
        "351034bc0b35284cf44923a04fd46a5bc35a8c04fbe880d573febc12dc748186",
    "rfr/model.json":
        "5d9bf55b95a5b900cff246fd83b78e271e6c3aa8f9d176a18296a3586177a233",
}


@pytest.fixture(scope="module")
def command_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("encoder")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"seed": 2, "cohort": {
        "n_subjects": 24, "seed": 5, "noise_std": 20.0, "n_distractors": 2,
        "link": {"shape.mesh_volume": 0.2, "meta.age": 1.5}}}))
    cohort = root / "cohort"
    assert main(["phantom", "--spec", str(spec), "--out", str(cohort)]) == 0
    outputs = {"cohort": cohort}
    for kind, grid in GRIDS.items():
        grid_path = root / f"{kind}_grid.json"
        grid_path.write_text(json.dumps(grid))
        outputs[kind] = root / kind
        assert main(["train", "--features", str(cohort / "features.csv"),
                     "--metadata", str(cohort / "metadata.csv"),
                     "--predictor", kind, "--grid", str(grid_path),
                     "--cv-folds", "3", "--seed", "3",
                     "--out", str(outputs[kind])]) == 0
    return outputs


def _written(command_outputs):
    yield "cohort/cohort_report.json", \
        command_outputs["cohort"] / "cohort_report.json"
    yield "cohort/resolved_config.json", \
        command_outputs["cohort"] / "resolved_config.json"
    for kind in GRIDS:
        for name in ("model.json", "grid_report.json", "resolved_config.json"):
            yield f"{kind}/{name}", command_outputs[kind] / name


def test_command_files_match_json_dump(command_outputs):
    for name, path in _written(command_outputs):
        text = path.read_text(encoding="utf-8")
        indent = None if name.endswith("model.json") else 1
        assert text == _reference(json.loads(text), indent) + "\n", path


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_indented_model_file_loads_and_predicts_the_same(
        command_outputs, kind, tmp_path):
    """model.json as written before it became compact: one-space indent."""
    path = command_outputs[kind] / "model.json"
    indented = tmp_path / "model.json"
    indented.write_text(_reference(json.loads(path.read_text())) + "\n")
    x = np.random.default_rng(6).standard_normal(
        (40, load_model(str(path)).n_features))
    assert predict(load_model(str(indented)), x).tobytes() == \
        predict(load_model(str(path)), x).tobytes()


def test_command_files_match_recorded_digests(command_outputs):
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in _written(command_outputs)
           if not name.endswith("resolved_config.json")}
    assert got == DIGESTS


def test_write_json_replaces_in_one_step(tmp_path):
    path = tmp_path / "sub" / "doc.json"
    write_json(str(path), {"b": [1, 2], "a": 0.5})
    assert path.read_text() == _reference({"a": 0.5, "b": [1, 2]}) + "\n"
    with pytest.raises(UnencodableValueError):
        write_json(str(path), {"b": object()})
    assert json.loads(path.read_text()) == {"a": 0.5, "b": [1, 2]}
    assert os.listdir(tmp_path / "sub") == ["doc.json"]
