"""Golden digests of the perceptron and linear models whose bits must never
move.

For each case below, the sha256 of the predictions on held-out rows is
compared with a digest recorded before the optimizer step was rewritten to
update one flat parameter vector and before model.json got its own
encoder, and that of the saved ``model.json`` bytes with one recorded when
model.json became compact text (its document unchanged since those first
digests). The cases cover Adam and SGD, 7 and
107 columns, and batches that leave a partial last batch (32 on 100 rows)
or hold every row at once.
"""

import hashlib

import numpy as np
import pytest

from radsurv.regressors import predict, save_model, train_model

N_TRAIN = 100


def _problem(p: int):
    """100 training and 30 held-out rows over ``p`` columns: one coarse
    integer column, the rest continuous, and two missing training values
    that imputation fills; past 7 columns, column 1 is constant."""
    rng = np.random.default_rng(7100 + p)
    n = N_TRAIN + 30
    x = rng.standard_normal((n, p))
    x[:, 0] = rng.integers(0, 5, n)
    if p > 7:
        x[:, 1] = 3.25
    x[:, 2] = rng.gamma(2.0, 1.5, n)
    y = (400.0 + 60.0 * x[:, 0] + 45.0 * np.sin(x[:, 3]) - 8.0 * x[:, 2] ** 2
         + 30.0 * x[:, 4] * x[:, 5] + 20.0 * rng.standard_normal(n))
    x[5, 3] = np.nan
    x[17, 6] = np.nan
    return x[:N_TRAIN], y[:N_TRAIN], x[N_TRAIN:]


CASES = {
    "mlp_adam_p7_b32": ("mlp", 7, {"epochs": 40}),
    "mlp_sgd_p7_b32": ("mlp", 7, {"epochs": 40, "optimizer": "sgd",
                                  "lr": 1e-2}),
    "mlp_adam_p7_ball": ("mlp", 7, {"epochs": 40, "batch_size": N_TRAIN}),
    "mlp_adam_p107_b32": ("mlp", 107, {"epochs": 15, "lr": 3e-3}),
    "mlp_sgd_p107_ball": ("mlp", 107, {"epochs": 40, "optimizer": "sgd",
                                       "lr": 1e-2, "batch_size": 128}),
    "linear_none_p7": ("linear", 7, {}),
    "linear_l1_p7": ("linear", 7, {"penalty": "l1", "lam": 5.0}),
    "linear_l2_p107": ("linear", 107, {"penalty": "l2", "lam": 1.0}),
}

DIGESTS = {
    "linear_l1_p7": {
        "model":
            "6e4b6a02f0c41402ca30a38974f61b5a6500eaf0220aaf8cccffdeea66935a5d",
        "predictions":
            "d97007fec0b656a4f9cefd706fb677d6867e92f591dbeaf733da65e6b7068d1d",
    },
    "linear_l2_p107": {
        "model":
            "b7f4e1b4c53bb861dda51939c7bd290436eecfdce211355b09f67fbc6954b40a",
        "predictions":
            "5ab32c60f74b018ca8412a903bfb39f9d24fb7ac600513d78e9c19a505867b52",
    },
    "linear_none_p7": {
        "model":
            "5c51d0d7ac8bf7cd39b094031eddb622d2650821b57cd3d861a3079ad8e7cfca",
        "predictions":
            "942edd8c19b89210c6f317d57ca97cd51400e10459e44e6472fbbe3628eb8da6",
    },
    "mlp_adam_p107_b32": {
        "model":
            "3695d2383e42091f182ba954c27910c35cb1dae9cebfc55f9d8d14304fb6703f",
        "predictions":
            "13d5211ba28226cdde83f744f77fd0a77e0e9b7c7115457a73897af90bbde885",
    },
    "mlp_adam_p7_b32": {
        "model":
            "0a9ace4cb759d70c1a4df7bed47200edc8ae42fc3502b4ff4b7d2b8ce3ed083e",
        "predictions":
            "369282d43452946aefc768df2239384df1f29a0d24dfd895c1aab2d64a57749e",
    },
    "mlp_adam_p7_ball": {
        "model":
            "c84bc3d8505432e60590db9e447c8075287582ab69b0136e95dd22118361ac7c",
        "predictions":
            "69598460f2cc6dd6865e7bff6cbbca759516a0fba5ea0de2db50b06ad558a166",
    },
    "mlp_sgd_p107_ball": {
        "model":
            "28ee44ebde6381bf2787ea9391310dc814b2f329a74bf4dc5b32f632bc82c3fb",
        "predictions":
            "d769204fc11fcdf26c35e16473fb53269ddaddcbf865e29e0f4a2535e7a0d1e3",
    },
    "mlp_sgd_p7_b32": {
        "model":
            "6612108838813027814bd014a3618c27e0bb2b2f4df1ddc0c50f5e303d0ab06b",
        "predictions":
            "e5c36f2904de81548401915f51c64232a54ef283c833b85f57edc3d3854e151d",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_and_predictions_unchanged(case, tmp_path):
    kind, p, params = CASES[case]
    x, y, x_new = _problem(p)
    names = [f"c{j}" for j in range(p)]
    model = train_model(kind, x, y, params, 11, names)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    got = {
        "model": _sha(path.read_bytes()),
        "predictions": _sha(predict(model, x_new).tobytes()),
    }
    assert got == DIGESTS[case]
