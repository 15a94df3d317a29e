"""Model persistence as self-describing JSON (schema radsurv-model/1).

Floats are serialized through Python's float repr, which round-trips every
finite float64 bit-exactly, so load(save(m)) reproduces predictions to the
bit. Files record the model type, hyperparameters, seed, feature order,
imputation vector and all learned parameters.

``save_model`` writes through ``util.write_json``, which encodes trees
straight from their TreeNode roots and arrays as nested lists:

* the bytes are the ones ``json.dump(doc, sort_keys=True, indent=1)``
  wrote for the same model before the package had its own encoder;
* the write is all-or-nothing: the whole text is encoded before the file
  is opened and then moved into place, so a failed save leaves no file
  behind and an existing file unchanged;
* a value that cannot be encoded, such as a numpy integer among the
  hyperparameters, is rejected with an UnencodableValueError (a TypeError)
  that names its key path and type.
"""

from __future__ import annotations

import numpy as np

from ..util import read_json, write_json

SCHEMA = "radsurv-model/1"


def save_model(model, path: str) -> None:
    from . import FAMILIES, model_kind

    kind = model_kind(model)
    doc = {
        "schema": SCHEMA,
        "model_type": kind,
        "feature_names": list(model.feature_names),
        "imputation": model.imputation,
        "hyperparameters": model.params,
        "seed": getattr(model, "seed", None),
        "parameters": {name: getattr(model, name)
                       for name in FAMILIES[kind].fields},
    }
    write_json(path, doc)


def load_model(path: str):
    from . import FAMILIES

    doc = read_json(path, "model file")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unknown model schema {doc.get('schema')!r}")
    family = FAMILIES.get(doc["model_type"])
    if family is None:
        raise ValueError(f"{path}: unknown model type {doc['model_type']!r}")
    params = doc["parameters"]
    missing = [name for name in family.fields if name not in params]
    if missing:
        raise ValueError(f"{path}: {doc['model_type']} model lacks "
                         f"parameters {missing}")
    kwargs = {name: decode(params[name])
              for name, decode in family.fields.items()}
    if "seed" in family.model_class.__dataclass_fields__:
        kwargs["seed"] = doc["seed"]
    return family.model_class(
        params=doc["hyperparameters"],
        feature_names=list(doc["feature_names"]),
        imputation=np.asarray(doc["imputation"], dtype=np.float64), **kwargs)
