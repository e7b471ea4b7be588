"""Golden anchor: SHA-256 of results.csv for four tiny deterministic sweeps.

A change that alters any output bit changes one of these hashes. Such a
change must be deliberate and logged in CHANGES.md together with the new
hashes. The hashes depend on the floating-point stack as well as on
gendisc: they were recorded with numpy 2.4.6, scipy 1.17.1 and
scipy-openblas 0.3.31 (Haswell kernels) on x86-64.
"""

import hashlib
import json

import pytest

from gendisc.cli import main

# 3 SNR points x 20 trials on the linear model, default estimator set.
LINEAR_CONFIG = {
    "snr_grid": [0.1, 1.0, 10.0],
    "nt_grid": [100],
    "mc_trials": 20,
    "seed": 1729,
}

# The misspecified path: mismatched side information, tanh measurements, one
# frozen H, and the vanishing-noise estimators.
MISSPEC_CONFIG = {
    "snr_grid": [1.0, 100.0, 10000.0],
    "nt_grid": [100],
    "mc_trials": 20,
    "seed": 4242,
    "prior_mode": "identity_mismatch",
    "h_mode": "fixed_once",
    "nonlinearity": {"kind": "tanh", "scale": 1.0},
    "estimator_set": [
        "generative",
        "discriminative",
        "generative_high_snr",
        "discriminative_high_snr",
    ],
}

# The distorted map under the estimators that need its population moments:
# cubic measurements, a fresh H per trial, and the oracle.
CUBIC_CONFIG = {
    "snr_grid": [0.1, 1.0, 10.0],
    "nt_grid": [100],
    "mc_trials": 20,
    "seed": 1729,
    "h_mode": "per_trial",
    "nonlinearity": {"kind": "cubic", "alpha": 0.1},
}

# The sample-count sweep on the linear model. At n_t = 20 <= N_x every
# learned rule fails on every trial, which pins the integer sweep_value and
# the empty mean/SE fields of an all-failed cell.
NT_CONFIG = {
    "snr_grid": [10.0],
    "nt_grid": [20, 40, 100],
    "mc_trials": 20,
    "seed": 1729,
}

GOLDEN = {
    "linear": (
        LINEAR_CONFIG,
        "e4c9c97fae15c58bc05ef076a7bab3ab17348c34978c9fc804c612d505613a9e",
    ),
    "misspec": (
        MISSPEC_CONFIG,
        "4010ef3bf94d18ae415d9e8fae5e3f5acdb6f98e3ed8cbbe9c8ddd1aad042ba4",
    ),
    "cubic": (
        CUBIC_CONFIG,
        "b79864ebe36305e6685cce6cf12b9ab083c53c83ff36e5f3cfd4f95782a1034b",
    ),
    "nt": (
        NT_CONFIG,
        "8fb2d0d0ede68159898ba0ea6992113c9a152e2c4111cb2a2dfe55208cb69c14",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_hash(name, tmp_path):
    config, expected = GOLDEN[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    digest = hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()
    assert digest == expected


def test_nt_small_cell_failure_reasons(tmp_path):
    # At n_t = 20 <= N_x both sample covariances are singular on every trial;
    # the manifest names the failing matrix and the first trial to replay.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(NT_CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    cells = json.loads((out_dir / "manifest.json").read_text())["cells"]
    assert cells[0]["sweep_value"] == 20
    assert cells[0]["failures"] == {"generative": 20, "discriminative": 20}
    assert cells[0]["failure_reasons"] == {
        "generative": {"target sample covariance": {"count": 20, "first_trial": 0}},
        "discriminative": {"input sample covariance": {"count": 20, "first_trial": 0}},
    }
    assert all(cell["failure_reasons"] == {} for cell in cells[1:])
