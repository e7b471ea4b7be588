"""File formats used by the command-line frontend.

Experiment configs and prior files are JSON; datasets and sweep results
are CSV. Every CSV carries a one-line header (dimensions for
data files, column names for results), numbers are parsed as decimal
floating point, and results are written with shortest round-trip float
formatting so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from .estimators import KnownStatistics
from .harness import ExperimentConfig, MseReport
from .moments import Dataset
from .synth import Cubic, GaussianPrior, Linear, Nonlinearity, Seed, Tanh

RESULTS_COLUMNS = (
    "sweep_name",
    "sweep_value",
    "estimator",
    "mean_mse",
    "std_err",
    "trials_ok",
    "trials_failed",
)

class ConfigError(ValueError):
    """A config field failed validation; the message names the field."""


def _format_float(x: float) -> str:
    return repr(float(x))


def nonlinearity_from_dict(value) -> Nonlinearity:
    """Parse a nonlinearity entry: a kind string or {"kind": ..., params}."""
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError("nonlinearity: expected a kind string or an object with a 'kind' key")
    kind = value["kind"]
    extra = set(value) - {"kind", "scale", "alpha"}
    if extra:
        raise ConfigError(f"nonlinearity: unknown keys {sorted(extra)}")
    try:
        if kind == "linear":
            return Linear()
        if kind == "tanh":
            return Tanh(scale=float(value.get("scale", 1.0)))
        if kind == "cubic":
            return Cubic(alpha=float(value.get("alpha", 0.1)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"nonlinearity: {exc}") from None
    raise ConfigError(f"nonlinearity: unknown kind {kind!r} (expected linear, tanh or cubic)")


def nonlinearity_to_dict(nl: Nonlinearity) -> dict:
    if isinstance(nl, Linear):
        return {"kind": "linear"}
    if isinstance(nl, Tanh):
        return {"kind": "tanh", "scale": nl.scale}
    if isinstance(nl, Cubic):
        return {"kind": "cubic", "alpha": nl.alpha}
    raise ValueError(f"unknown nonlinearity {nl!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict, filling defaults.

    Unknown keys and fields of the wrong type raise :class:`ConfigError`
    naming the field; rule-level problems (empty grids, bad modes) are left
    to ``ExperimentConfig.violations`` so a validator can list them all.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = {**_CONFIG_DEFAULTS, **raw}

    def _int(fieldname):
        value = merged[fieldname]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{fieldname}: expected an integer, got {value!r}")
        return value

    def _num_list(fieldname, caster, expected="numbers"):
        value = merged[fieldname]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{fieldname}: expected a list, got {value!r}")
        try:
            return tuple(caster(v) for v in value)
        except (TypeError, ValueError):
            raise ConfigError(f"{fieldname}: entries must be {expected}, got {value!r}") from None

    def _exact_int(v):
        if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
            raise ValueError(v)
        return int(v)

    try:
        seed = Seed(_int("seed"))
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from None
    estimators = merged["estimator_set"]
    if not isinstance(estimators, (list, tuple)) or not all(
        isinstance(e, str) for e in estimators
    ):
        raise ConfigError(f"estimator_set: expected a list of names, got {estimators!r}")
    try:
        ridge = float(merged["ridge"])
    except (TypeError, ValueError):
        raise ConfigError(f"ridge: expected a number, got {merged['ridge']!r}") from None

    return ExperimentConfig(
        n_x=_int("n_x"),
        n_y=_int("n_y"),
        snr_grid=_num_list("snr_grid", float),
        nt_grid=_num_list("nt_grid", _exact_int, expected="integers"),
        mc_trials=_int("mc_trials"),
        seed=seed,
        prior_mode=str(merged["prior_mode"]),
        h_mode=str(merged["h_mode"]),
        nonlinearity=nonlinearity_from_dict(merged["nonlinearity"]),
        estimator_set=tuple(estimators),
        ridge=ridge,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved JSON-ready echo of a config; feeding it back reproduces the run."""
    return {
        "n_x": cfg.n_x,
        "n_y": cfg.n_y,
        "snr_grid": list(cfg.snr_grid),
        "nt_grid": list(cfg.nt_grid),
        "mc_trials": cfg.mc_trials,
        "seed": cfg.seed.master,
        "prior_mode": cfg.prior_mode,
        "h_mode": cfg.h_mode,
        "nonlinearity": nonlinearity_to_dict(cfg.nonlinearity),
        "estimator_set": list(cfg.estimator_set),
        "ridge": cfg.ridge,
    }


_CONFIG_DEFAULTS = config_to_dict(ExperimentConfig())


def write_dataset_csv(path, data: Dataset) -> None:
    """Write paired samples as CSV: header `n_t,n_x,n_y`, then x-then-y rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{data.n_t},{data.n_x},{data.n_y}\n")
        for x, y in zip(data.xs, data.ys):
            fh.write(",".join(_format_float(v) for v in np.concatenate([x, y])) + "\n")


def read_dataset_csv(path) -> Dataset:
    """Read paired samples written by :func:`write_dataset_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            n_t, n_x, n_y = (int(tok) for tok in header.split(","))
        except ValueError:
            raise ValueError(
                f"{path}: first line must be 'n_t,n_x,n_y', got {header!r}"
            ) from None
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) != n_t:
        raise ValueError(f"{path}: header promises {n_t} samples, found {len(rows)}")
    table = np.array([[float(tok) for tok in line.split(",")] for line in rows])
    if table.shape != (n_t, n_x + n_y):
        raise ValueError(
            f"{path}: header promises {n_x}+{n_y} columns, rows have {table.shape[1]}"
        )
    return Dataset(xs=table[:, :n_x], ys=table[:, n_x:])


def read_prior_json(path) -> KnownStatistics:
    """Read generative side information: {"mu_y": [...], "C_yy": [[...]], "sigma2": s}."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for fieldname in ("mu_y", "C_yy", "sigma2"):
        if fieldname not in raw:
            raise ValueError(f"prior file {path} is missing field {fieldname!r}")
    try:
        prior = GaussianPrior(mu_y=np.asarray(raw["mu_y"], dtype=float),
                              C_yy=np.asarray(raw["C_yy"], dtype=float))
    except ValueError as exc:
        raise ValueError(f"prior file {path}: {exc}") from None
    try:
        return KnownStatistics(prior=prior, sigma2=float(raw["sigma2"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"prior file {path}: sigma2: {exc}") from None


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def write_results_csv(path, report: MseReport) -> None:
    """Write the sweep rows in the fixed column order, deterministically."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for row in report.rows:
            sweep_value = int(row.sweep_value) if row.sweep_name == "nt" else row.sweep_value
            writer.writerow(
                [
                    row.sweep_name,
                    _format_cell(sweep_value),
                    row.estimator,
                    _format_cell(row.mean_mse),
                    _format_cell(row.std_err),
                    row.trials_ok,
                    row.trials_failed,
                ]
            )


def read_results_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_json_atomic(path, payload: dict) -> None:
    """Write JSON via a temp file and rename, so a crash never leaves a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.chmod(tmp_path, 0o644)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render MSE curves from the results.csv sitting next to this script.

The CSV-to-curves step, ``load_curves``, needs only the standard library;
matplotlib is imported when ``main`` renders the figure.
"""

import csv
import os

HERE = os.path.dirname(os.path.abspath(__file__))

STYLES = {
    "oracle_lmmse": {"color": "black", "marker": "s", "linestyle": "--"},
    "generative": {"color": "tab:blue", "marker": "o"},
    "discriminative": {"color": "tab:red", "marker": "^"},
}
X_LABELS = {"snr": "SNR (1 / noise variance)", "nt": "training samples"}


def load_curves(path):
    """Read results.csv as (sweep_name, {estimator: [(x, mean, std_err), ...]}).

    Points are sorted by x; cells in which every trial failed are dropped.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SystemExit("results.csv holds no rows")
    curves = {}
    for row in rows:
        if row["mean_mse"] == "":
            continue  # all trials failed in this cell
        curves.setdefault(row["estimator"], []).append(
            (float(row["sweep_value"]), float(row["mean_mse"]), float(row["std_err"]))
        )
    for pts in curves.values():
        pts.sort()
    return rows[0]["sweep_name"], curves


def main():
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    sweep_name, curves = load_curves(os.path.join(HERE, "results.csv"))
    fig, ax = plt.subplots(figsize=(7.0, 4.8))
    for name, pts in curves.items():
        xs = [p[0] for p in pts]
        means = [p[1] for p in pts]
        errs = [p[2] for p in pts]
        ax.errorbar(xs, means, yerr=errs, label=name, capsize=2,
                    **STYLES.get(name, {}))
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel(X_LABELS.get(sweep_name, sweep_name))
    ax.set_ylabel("mean squared error")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    out = os.path.join(HERE, "mse_curves.png")
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
'''


def write_plot_script(path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(PLOT_SCRIPT)
    os.chmod(path, 0o755)
