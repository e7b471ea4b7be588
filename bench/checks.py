"""Correctness checks on a sweep's results.csv, made apart from gendisc.

The references are computed here with plain numpy and this module's own
random draws; nothing from gendisc is imported. Every check is a property
any correct method must have (a closed-form expectation, the paper's
ordering and misspecification claims, an affine risk floor), so a change
of seeding or scoring that keeps the method correct still passes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Draws of H behind the oracle risk reference; its Monte Carlo error is
# carried into every comparison as a standard error of its own.
REFERENCE_DRAWS = 4000


def exp_decay_covariance(n_y: int, length_scale: float = 5.0) -> np.ndarray:
    """The prior covariance of the paper's geometry: exp(-|i - j| / length_scale)."""
    idx = np.arange(n_y)
    return np.exp(-np.abs(idx[:, None] - idx[None, :]) / length_scale)


class OracleRisk:
    """R(sigma2) = E_H[tr C - tr(C H^T (H C H^T + sigma2 I)^-1 H C)] over i.i.d. N(0, 1) H.

    One eigendecomposition H C H^T = U diag(lam) U^T per draw gives every
    sigma2 at once: the explained part is sum_k |(U^T H C)_k|^2 / (lam_k + sigma2).
    """

    def __init__(self, C: np.ndarray, n_x: int, rng: np.random.Generator):
        H = rng.standard_normal((REFERENCE_DRAWS, n_x, C.shape[0]))
        HC = H @ C
        self.lam, U = np.linalg.eigh(HC @ H.transpose(0, 2, 1))
        B = U.transpose(0, 2, 1) @ HC
        self.weight = (B * B).sum(axis=-1)
        self.trace = float(np.trace(C))

    def __call__(self, sigma2: float) -> tuple[float, float]:
        """The risk and the standard error of its Monte Carlo estimate."""
        risk = self.trace - (self.weight / (self.lam + sigma2)).sum(axis=-1)
        return float(risk.mean()), float(risk.std(ddof=1) / math.sqrt(risk.size))


def ols_risk_factor(n_t: int, n_x: int) -> float:
    """Expected test risk of least squares with an intercept over the best affine risk.

    Exact under a Gaussian design with n_t samples and n_x inputs.
    """
    return (1.0 + 1.0 / n_t) * (n_t - 2.0) / (n_t - n_x - 2.0)


def read_results(path) -> dict:
    """Rows of results.csv keyed by (sweep value, estimator)."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            mean = float(row["mean_mse"]) if row["mean_mse"] else math.nan
            se = float(row["std_err"]) if row["std_err"] else math.nan
            rows[(float(row["sweep_value"]), row["estimator"])] = {
                "mean": mean,
                "se": se,
                "ok": int(row["trials_ok"]),
                "failed": int(row["trials_failed"]),
            }
    return rows


def pool(tables: list[dict]) -> dict:
    """Merge results of sweeps with equal trial counts on disjoint seeds into one."""
    pooled = {}
    for key in tables[0]:
        rows = [t[key] for t in tables]
        pooled[key] = {
            "mean": sum(r["mean"] for r in rows) / len(rows),
            "se": math.sqrt(sum(r["se"] ** 2 for r in rows)) / len(rows),
            "ok": sum(r["ok"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
        }
    return pooled


def _combined(*ses: float) -> float:
    return math.sqrt(sum(s * s for s in ses))


def check_sweep(rows: dict, spec: dict, seed: int) -> list[str]:
    """Every violated property of one workload's results, empty when all hold."""
    problems = []
    sweep_values = spec["snr_grid"] if spec["sweep"] == "snr" else spec["nt_grid"]
    for value in sweep_values:
        for name in spec["estimator_set"]:
            row = rows.get((float(value), name))
            if row is None:
                problems.append(f"no row for {name} at {value}")
            elif row["failed"] or row["ok"] != spec["mc_trials"]:
                problems.append(f"{name} at {value}: {row['failed']} failed, {row['ok']} ok")
    if problems:
        return problems

    n_x = spec["n_x"]
    C = exp_decay_covariance(spec["n_y"])
    oracle = OracleRisk(C, n_x, np.random.default_rng([seed, 0x5EED]))
    for value in sweep_values:
        snr = float(value) if spec["sweep"] == "snr" else spec["snr_grid"][0]
        n_t = spec["nt_grid"][0] if spec["sweep"] == "snr" else int(value)
        cell = {name: rows[(float(value), name)] for name in spec["estimator_set"]}
        where = f"{spec['sweep']}={value}"
        if spec["nonlinearity"]["kind"] == "linear":
            risk, risk_se = oracle(1.0 / snr)
            o, d, g = cell["oracle_lmmse"], cell["discriminative"], cell["generative"]
            if abs(o["mean"] - risk) > 4 * _combined(o["se"], risk_se):
                problems.append(f"{where}: oracle_lmmse {o['mean']:.5g} +- {o['se']:.2g} "
                                f"is not the oracle risk {risk:.5g}")
            f = ols_risk_factor(n_t, n_x)
            if abs(d["mean"] - f * risk) > 4 * _combined(d["se"], f * risk_se):
                problems.append(f"{where}: discriminative {d['mean']:.5g} +- {d['se']:.2g} "
                                f"is not the least-squares risk {f * risk:.5g}")
            if g["mean"] > d["mean"] + 2 * _combined(g["se"], d["se"]):
                problems.append(f"{where}: generative {g['mean']:.5g} exceeds "
                                f"discriminative {d['mean']:.5g}")
        else:
            scale = spec["nonlinearity"]["scale"]
            floor = float(np.trace(C)) * (1.0 - n_x * scale**2 * snr)
            for name, row in cell.items():
                if row["mean"] < floor - 4 * row["se"]:
                    problems.append(f"{where}: {name} {row['mean']:.5g} is below "
                                    f"the affine risk floor {floor:.5g}")
            g, d = cell["generative"], cell["discriminative"]
            if snr >= 10.0 and not g["mean"] - d["mean"] > 3 * _combined(g["se"], d["se"]):
                problems.append(f"{where}: discriminative {d['mean']:.5g} does not beat "
                                f"generative {g['mean']:.5g} under misspecification")
    return problems
