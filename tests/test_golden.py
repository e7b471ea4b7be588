"""Golden anchor: SHA-256 of results.csv for three tiny deterministic sweeps.

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

GOLDEN = {
    "linear": (
        LINEAR_CONFIG,
        "f645d243e61c8e2202977e3198f58a85b37fa1ac2eada68198135cb6377a5e8b",
    ),
    "misspec": (
        MISSPEC_CONFIG,
        "4010ef3bf94d18ae415d9e8fae5e3f5acdb6f98e3ed8cbbe9c8ddd1aad042ba4",
    ),
    "cubic": (
        CUBIC_CONFIG,
        "b79864ebe36305e6685cce6cf12b9ab083c53c83ff36e5f3cfd4f95782a1034b",
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
