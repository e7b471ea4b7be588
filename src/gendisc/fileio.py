"""File formats used by the command-line frontend.

Experiment configs and the run manifest are JSON; sweep results are CSV,
with a one-line header of column names. Results are written with shortest
round-trip float formatting so identical runs produce byte-identical files.
Each format takes its fields from the dataclass it serializes: the config
keys from :class:`~gendisc.harness.ExperimentConfig`, the result columns
from :class:`~gendisc.harness.MseRow` and the measurement-map kinds from
:data:`~gendisc.synth.Nonlinearity`. A config is checked by
``ExperimentConfig.violations`` alone, once this module has found it to be a
JSON object with no unknown key.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import fields

from .harness import ExperimentConfig, MseReport, MseRow
from .synth import nonlinearity_to_dict

RESULTS_COLUMNS = tuple(f.name for f in fields(MseRow))


class ConfigError(ValueError):
    """A config is not a JSON object, or has a key that is not an ExperimentConfig field."""


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict; a missing field takes its default.

    A value that is not a JSON object, or a key that names no field, raises
    :class:`ConfigError`; every field, its type and the nonlinearity's form
    included, is checked by ``ExperimentConfig.violations``, so that a
    validator can list every problem at once.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved JSON-ready echo of a config; feeding it back reproduces the run."""
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    echo.update(seed=cfg.seed.master, nonlinearity=nonlinearity_to_dict(cfg.nonlinearity))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in echo.items()}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round trip, also for numpy scalars
    return str(value)


def write_results_csv(path, report: MseReport) -> None:
    """Write the sweep rows in the fixed column order, deterministically."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for row in report.rows:
            writer.writerow([_format_cell(getattr(row, column)) for column in RESULTS_COLUMNS])


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
