"""Model persistence as self-describing JSON (schema radsurv-model/2).

A file records the model type, hyperparameters, seed, feature order,
imputation vector and learned parameters, written by ``util.write_json``
through float repr as compact text (no indent: json's C encoder), so
load(save(m)) predicts bit for bit; files written with the one-space
indent of other JSON outputs hold the same document and load the same. A
tree is one object of its slices of the node arrays of the model's
``tree.TreeArrays``, nodes in level order: ``feature`` (-1 for a leaf),
``threshold``, ``gain``, ``left`` and ``right`` (child indices, -1 for a
leaf), ``value`` and ``n``; no depth limits save or load, and load joins
the checked arrays with no per-node object. Linear and MLP
files, the same in both schemas, keep the name radsurv-model/1.
``load_model`` walks the file's keys and
its family's ``parameters`` with ``util.fields`` and checks every number
with ``util.numbers``: a file that lacks a key or holds an unknown one, a
value of the wrong JSON type (true is not a number, 1.0 not an index), a
non-finite number, a malformed tree or a linear or MLP array of the wrong
shape is a ValueError naming the file and key path, e.g.
``parameters.trees[3].threshold[17]``.
"""

from __future__ import annotations

import numpy as np

from ..util import (POSITIVE, fields, numbers, of_type, one_of, read_json,
                    write_json)
from .tree import COLUMNS, TreeArrays

SCHEMA_V1 = "radsurv-model/1"
SCHEMA = "radsurv-model/2"


def as_vector(value, where: str, n_features: int, low=None) -> np.ndarray:
    """One number per feature (each at least ``low``)."""
    vector = np.asarray(numbers(value, where, shape=(None,), low=low), float)
    if vector.size != n_features:
        raise ValueError(f"{where}: holds {vector.size} values for "
                         f"{n_features} features")
    return vector


def as_scales(value, where: str, n_features: int) -> np.ndarray:
    """Standardization scales: training stores none at or below 0, and a 0
    would predict NaN."""
    return as_vector(value, where, n_features, POSITIVE)


def as_real(value, where: str, n_features: int) -> float:
    return float(numbers(value, where, shape=()))


def as_arrays(value, where: str, n_features: int) -> list[np.ndarray]:
    return [np.asarray(numbers(item, f"{where}[{i}]"), dtype=np.float64)
            for i, item in enumerate(of_type(list)(value, where))]


def as_counts(value, where: str, n_features: int) -> tuple[int, ...]:
    return tuple(numbers(value, where, "i", (None,)).tolist())


def _check_layers(kwargs: dict, n_features: int) -> None:
    """MLP weights that chain the features through five positive widths to
    one output, and biases as wide as the output of their layer."""
    widths = kwargs["widths"]
    if len(widths) != 5 or min(widths) < 1:
        raise ValueError("parameters.widths: expected five positive integers")
    sizes = [n_features, *widths, 1]
    for key, shapes in (("weights", list(zip(sizes, sizes[1:]))),
                        ("biases", [(width,) for width in sizes[1:]])):
        if len(kwargs[key]) != len(shapes):
            raise ValueError(f"parameters.{key}: expected {len(shapes)} "
                             f"layers, got {len(kwargs[key])}")
        for i, (array, shape) in enumerate(zip(kwargs[key], shapes)):
            if array.shape != shape:
                raise ValueError(f"parameters.{key}[{i}]: expected shape "
                                 f"{shape}, got {array.shape}")


def as_trees(docs, where: str, n_features: int) -> TreeArrays:
    return TreeArrays.join(_tree(doc, f"{where}[{t}]", n_features)
                           for t, doc in enumerate(of_type(list)(docs, where)))


def as_forest(docs, where: str, n_features: int) -> TreeArrays:
    if docs == []:
        raise ValueError(f"{where}: a forest holds at least one tree")
    return as_trees(docs, where, n_features)


def _tree(doc, where: str, n_features: int) -> dict[str, np.ndarray]:
    """The node arrays ``doc`` holds, once each node but the first is
    checked to be the child of one earlier split node."""
    if not (isinstance(doc, dict) and all(isinstance(doc.get(key), list)
                                          for key in COLUMNS)
            and len({len(doc[key]) for key in COLUMNS}) == 1
            and doc["n"]):
        raise ValueError(f"{where}: expected an object of the non-empty, "
                         f"equal-length arrays {', '.join(COLUMNS)}")
    columns = {key: numbers(doc[key], f"{where}.{key}", "if" if key in (
        "threshold", "gain", "value") else "i", (None,))
        for key in COLUMNS}
    feature, left, right = map(columns.get, ("feature", "left", "right"))
    index, split = np.arange(feature.size), feature >= 0

    def reject(key: str, bad: np.ndarray, why: str) -> None:
        if bad.any():
            raise ValueError(f"{where}.{key}[{bad.argmax()}]: {why}")

    reject("feature", (feature < -1) | (feature >= n_features),
           f"outside -1..{n_features - 1}")
    for key, child in (("left", left), ("right", right)):
        reject(key, np.where(split, (child <= index) | (child >= index.size),
                             child != -1),
               "a split node's child is a later node, a leaf's is -1")
    parents = np.bincount(np.concatenate([left[split], right[split]]),
                          minlength=index.size)
    reject("n", parents != (index > 0),
           "this node is not the child of one split node")
    return columns


def save_model(model, path: str) -> None:
    from . import FAMILIES, model_kind

    kind = model_kind(model)
    parameters = {name: getattr(model, name)
                  for name in FAMILIES[kind].fields}
    if "trees" in parameters:
        trees = parameters["trees"]
        parameters["trees"] = [trees.tree(t) for t in range(len(trees))]
    write_json(path, {
        "schema": SCHEMA if "trees" in parameters else SCHEMA_V1,
        "model_type": kind,
        "feature_names": list(model.feature_names),
        "imputation": model.imputation,
        "hyperparameters": model.params,
        "seed": getattr(model, "seed", None),
        "parameters": parameters,
    }, indent=None)


def _names(value, where: str) -> list:
    if not all(isinstance(name, str) for name in of_type(list)(value, where)):
        raise ValueError(f"{where}: expected a list of strings")
    return value


def load_model(path: str):
    from . import FAMILIES

    doc = read_json(path, "model file")
    top = {"schema": one_of((SCHEMA, SCHEMA_V1)),
           "model_type": one_of(FAMILIES), "feature_names": _names,
           "imputation": lambda value, where: value,   # checked below
           "hyperparameters": of_type(dict), "parameters": of_type(dict),
           "seed": lambda value, where: value if value is None
           else numbers(value, where, "i", ()).item()}
    try:
        doc = fields(doc, top, required=top,
                     missing="model file lacks the key {key!r}")
        kind, params, names = (doc["model_type"], doc["parameters"],
                               doc["feature_names"])
        family = FAMILIES[kind]
        imputation = as_vector(doc["imputation"], "imputation", len(names))
        kwargs = fields(params, family.fields, "parameters", len(names),
                        required=family.fields,
                        missing=f"{kind} model lacks parameters {{keys}}")
        if "weights" in kwargs:
            _check_layers(kwargs, len(names))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if "seed" in family.model_class.__dataclass_fields__:
        kwargs["seed"] = doc["seed"]
    return family.model_class(params=doc["hyperparameters"],
                              feature_names=names, imputation=imputation,
                              **kwargs)
