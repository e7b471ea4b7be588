"""Golden anchor: SHA-256 of results.csv for seven tiny deterministic sweeps.

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

# The first cell of LINEAR_CONFIG swept alone. Its rows do not depend on
# the other SNRs of a grid, which share each trial's draws.
LINEAR_ONE_SNR_CONFIG = dict(LINEAR_CONFIG, snr_grid=[0.1])

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

# Two learned rules near the precision limit: at SNR 1e14 the discriminative
# rule fails in 8 of 20 trials, which pins the mean and SE of a partly failed
# cell, reduced over the trials that were scored, in trial order.
PARTIAL_FAILURE_CONFIG = {
    "n_x": 6,
    "n_y": 3,
    "snr_grid": [1e12, 1e14],
    "nt_grid": [30],
    "mc_trials": 20,
    "seed": 1729,
    "estimator_set": ["generative", "discriminative"],
}

# The large-sample limits beside the rules they are the limits of, under
# mismatched side information: the generative asymptote reads the identity
# prior the generative rule is given, and the oracle is the discriminative
# rule's limit. With n_y > n_x both generative rules take the direct gain form.
ASYMPTOTES_CONFIG = {
    "n_x": 3,
    "n_y": 5,
    "snr_grid": [0.1, 1.0, 1e4, 1e12],
    "nt_grid": [12],
    "mc_trials": 20,
    "seed": 1729,
    "prior_mode": "identity_mismatch",
    "estimator_set": ["generative", "oracle_lmmse", "generative_asymptote"],
}

GOLDEN = {
    "linear": (
        LINEAR_CONFIG,
        "fef7a1129e3abfad7c0bb4068b5515e0ca58c8072d1ab183ef69e2772a092298",
    ),
    "linear_one_snr": (
        LINEAR_ONE_SNR_CONFIG,
        "18d789b366dced7285af71365dd2e99a39d7eed0cd18aca7242ebf1966c5effe",
    ),
    "misspec": (
        MISSPEC_CONFIG,
        "3a34de3a21572872d379e10e2f19ba38e68d44b25c1800940cf2ec819cb180a9",
    ),
    "cubic": (
        CUBIC_CONFIG,
        "95788efeef88ce46dcd2afb4c00d26d1e1c268807414ba39a57e7773e7bb92d9",
    ),
    "nt": (
        NT_CONFIG,
        "15f08ef4cb62ebee19079c9a69a07f42295415b6ee109c39d35e1b179d18ef9e",
    ),
    "partial_failure": (
        PARTIAL_FAILURE_CONFIG,
        "e222ea93290f5c446561f96f89b520ad7c1d398a68727ca4eeb80ff9db12ef71",
    ),
    "asymptotes": (
        ASYMPTOTES_CONFIG,
        "2d8df2b89938dfa2aaa6a7cb6c4c356961696f13ef5598b4b8ee11141ad92488",
    ),
}


def _results_csv(config, tmp_path) -> bytes:
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    return (out_dir / "results.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_hash(name, tmp_path):
    config, expected = GOLDEN[name]
    digest = hashlib.sha256(_results_csv(config, tmp_path)).hexdigest()
    assert digest == expected


def test_snr_rows_do_not_depend_on_the_grid_around_them(tmp_path):
    # Every SNR cell of a trial is scored on the same draws, so an SNR's rows
    # are the same bytes whether it is swept alone, in a grid, or in a
    # reversed grid.
    grid = LINEAR_CONFIG["snr_grid"]
    grids = [grid, grid[::-1]] + [[snr] for snr in grid]
    rows_by_snr: dict[str, set] = {}
    for i, snr_grid in enumerate(grids):
        csv = _results_csv(dict(LINEAR_CONFIG, snr_grid=snr_grid), tmp_path / str(i))
        header, *lines = csv.decode().splitlines()
        for line in lines:
            rows_by_snr.setdefault(line.split(",")[1], set()).add(line)
    assert len(rows_by_snr) == len(grid)
    # Each SNR has one row per estimator, identical across the five sweeps.
    assert all(len(rows) == 3 for rows in rows_by_snr.values())


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
