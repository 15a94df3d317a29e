"""Golden digests of the perceptron and linear models whose bits must never
move.

For each case below, the sha256 of the saved ``model.json`` bytes and of
the predictions on held-out rows is compared with a digest recorded before
the optimizer step was rewritten to update one flat parameter vector and
before model.json got its own encoder. The cases cover Adam and SGD, 7 and
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
            "6418ea5c39e1a0d97e57442addc609097251424bcaaa6dc17232cf49975f548f",
        "predictions":
            "d97007fec0b656a4f9cefd706fb677d6867e92f591dbeaf733da65e6b7068d1d",
    },
    "linear_l2_p107": {
        "model":
            "9ca9b46501645889b684e5edcbab5dad2fff7e97dbcc1860220eee00633e8774",
        "predictions":
            "5ab32c60f74b018ca8412a903bfb39f9d24fb7ac600513d78e9c19a505867b52",
    },
    "linear_none_p7": {
        "model":
            "65d2102d42654385038241a477bdf369e27b4a7626c494221ee6f77ff5eaf5e7",
        "predictions":
            "942edd8c19b89210c6f317d57ca97cd51400e10459e44e6472fbbe3628eb8da6",
    },
    "mlp_adam_p107_b32": {
        "model":
            "d1d98c54f7aa8272dd13ea00333aeb8129fd2f3d5f825b6c74d715e5aae905c6",
        "predictions":
            "13d5211ba28226cdde83f744f77fd0a77e0e9b7c7115457a73897af90bbde885",
    },
    "mlp_adam_p7_b32": {
        "model":
            "df0bb5aa186128298891b534d2bf03162cab4c337cd58630f2552f0c6abc4425",
        "predictions":
            "369282d43452946aefc768df2239384df1f29a0d24dfd895c1aab2d64a57749e",
    },
    "mlp_adam_p7_ball": {
        "model":
            "3d7868dee0ca4b307fa747ad8f758dbd149f3b0c898dc13ddf167874d0302ef8",
        "predictions":
            "69598460f2cc6dd6865e7bff6cbbca759516a0fba5ea0de2db50b06ad558a166",
    },
    "mlp_sgd_p107_ball": {
        "model":
            "8be49de193d2fd64cecdf453a7be848d28e95e5dc59ba8ae867d77eab059a824",
        "predictions":
            "d769204fc11fcdf26c35e16473fb53269ddaddcbf865e29e0f4a2535e7a0d1e3",
    },
    "mlp_sgd_p7_b32": {
        "model":
            "efdb24a08eee0fb2908219cced4bdb6f92ffcd274ee7fa9d1d83cbafd5517327",
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
