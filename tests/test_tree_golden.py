"""Golden digests of the tree ensembles whose bits must never move.

Gradient boosting and ``max_features="all"`` forests draw no feature
subsets, so their fitted trees depend only on the split search. For each
case below, the sha256 of the predictions on held-out rows and of the
normalized importances is compared with a digest recorded before the tree
grower was rewritten for speed, and that of the saved ``model.json`` bytes
with one recorded when model.json became compact text (its document the
same as when trees were first saved as node arrays, radsurv-model/2); an
RFE ranking driven by boosting is pinned the same way.
"""

import hashlib
import json

import numpy as np
import pytest

from radsurv.featselect import EstimatorSpec, importance, rfe
from radsurv.regressors import predict, save_model, train_model


def _problem():
    """70 training and 30 held-out rows over 7 columns: two coarse integer
    columns with many tied values, one constant column, four continuous."""
    rng = np.random.default_rng(20260)
    n = 100
    x = np.column_stack([
        rng.integers(0, 5, n).astype(float),
        rng.standard_normal(n),
        np.full(n, 3.25),
        rng.integers(0, 3, n).astype(float),
        rng.random(n) * 40.0,
        rng.standard_normal(n),
        rng.gamma(2.0, 1.5, n),
    ])
    y = (300.0 + 80.0 * x[:, 0] + 60.0 * np.sin(x[:, 1]) - 0.5 * x[:, 4] ** 2
         + 40.0 * x[:, 3] * x[:, 5] + 25.0 * rng.standard_normal(n))
    return x[:70], y[:70], x[70:]


CASES = {
    "gbr_defaults": ("gbr", {}),
    "gbr_subsample": ("gbr", {"subsample": 0.7, "max_depth": 4}),
    "rfr_all_bootstrap": ("rfr", {"n_trees": 7, "max_features": "all"}),
    "rfr_all_no_bootstrap": ("rfr", {"n_trees": 3, "max_features": "all",
                                     "bootstrap": False, "max_depth": 5}),
}

DIGESTS = {
    "gbr_defaults": {
        "model":
            "299fb0bc0a536e7b9614124ec685b1b2afb76a14cf71257b3fed0cda485bf2ba",
        "predictions":
            "2c3839c55c82fc488bb3e4541391d5624b68d57e4d8e57bb523f513e80f2c8b8",
        "importances":
            "d0720cd8ec4f8b513bc6d3a197bc3e8ba58b25ecab3f1f23f8d7417c91dcf90e",
    },
    "gbr_subsample": {
        "model":
            "35fe20b4ccc392809b0998eb16a67714e784c4cf6513758ff619eb99ac2c2b7c",
        "predictions":
            "dbad3242df695349d7740b90cb1971a863cb1e84fa74c80db57eea7de35632e4",
        "importances":
            "02d59dfad10d1c048c6d4a4d50b474e9f9f7d67fd4f0992006bc74039c0e6aec",
    },
    "rfr_all_bootstrap": {
        "model":
            "711334fc23fa9336255e3eb394072a87137e247d6a46a126e8d2eb00a1f47911",
        "predictions":
            "2640a34beda757988131e3d3544af27cded1255de8dc87cda89e16f4a15fd277",
        "importances":
            "175c6a7094cd9b20f601c43473a26957a20bb07139f5eb996a9418d3741a1ecc",
    },
    "rfr_all_no_bootstrap": {
        "model":
            "92d6efdd58f26608afc0487b5d8a14a874825626de3c11b170772c28fd8bca76",
        "predictions":
            "a3be46da696b5e8958674ae98eadf0b8514bfea972a940a6eb85c70f107a6551",
        "importances":
            "69728da3ea923a9eef5756cd0abb7b3575f7c94ff9bd9f38fdd4ace475a32397",
    },
}

RFE_DIGEST = (
    "1c149aaa1de263fa0481fc4934d8fc6204caccd49836e7ae76ba0059e278a496")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_predictions_importances_unchanged(case, tmp_path):
    kind, params = CASES[case]
    x, y, x_new = _problem()
    names = [f"c{j}" for j in range(x.shape[1])]
    model = train_model(kind, x, y, params, 5, names)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    got = {
        "model": _sha(path.read_bytes()),
        "predictions": _sha(predict(model, x_new).tobytes()),
        "importances": _sha(importance(model).tobytes()),
    }
    assert got == DIGESTS[case]


def test_gbr_rfe_ranking_unchanged():
    x, y, _ = _problem()
    names = [f"c{j}" for j in range(x.shape[1])]
    ranking = rfe(x, y, names, EstimatorSpec("gbr", {"n_estimators": 30}),
                  n_keep=2, step=1, seed=9)
    doc = {"ranks": ranking.ranks, "kept": ranking.kept,
           "trace": [[name, it, score.hex()]
                     for name, it, score in ranking.trace]}
    assert _sha(json.dumps(doc, sort_keys=True).encode()) == RFE_DIGEST
