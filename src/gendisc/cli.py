"""Command-line frontend: run sweeps, validate configs, fit estimators on files.

`gendisc run CONFIG` executes the sweep described by a JSON config and
writes results.csv, manifest.json and a standalone plot script into the
output directory. `gendisc validate CONFIG` checks a config and prints the
fully-resolved version, or every problem it finds. `gendisc replay CONFIG --cell i --trial k` re-runs
one trial of the sweep and prints its per-estimator risks and failure
reasons as JSON. `gendisc estimate` fits an estimator on a dataset file and
prints its coefficients. Two configs ship with the package
(`mse_vs_snr`, `mse_vs_nt`) and can be named in place of a path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from importlib import resources

import numpy as np
import scipy

from . import __version__
from .estimators import discriminative_estimator, fit_ml, generative_estimator
from .fileio import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    read_dataset_csv,
    read_prior_json,
    write_json_atomic,
    write_plot_script,
    write_results_csv,
)
from .harness import run_trial, sweep, sweep_points
from .moments import SingularMatrixError, compute_moments

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

# Thread-count variables of the common BLAS builds; byte identity depends on the BLAS.
_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _bundled_config_path(name: str):
    candidate = resources.files("gendisc").joinpath("configs", f"{name}.json")
    return candidate if candidate.is_file() else None


def _load_config_dict(ref: str) -> dict:
    """Load a config by path, or by bundled name when no such file exists."""
    if not os.path.exists(ref):
        bundled = _bundled_config_path(ref)
        if bundled is None:
            raise FileNotFoundError(f"no config file or bundled config named {ref!r}")
        return json.loads(bundled.read_text(encoding="utf-8"))
    with open(ref, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _print_matrix(name: str, arr) -> None:
    rows = np.atleast_2d(np.asarray(arr, dtype=float))
    print(f"{name} =")
    for row in rows:
        print("  " + ", ".join(repr(float(v)) for v in row))


def _environment(workers: int) -> dict:
    """The interpreter, library versions, BLAS build and CPU resources of this process.

    ``workers`` is the number of processes the sweep's trials ran in.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 cannot report its build as a dict
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_ENV_VARS},
    }


def _resolved_config(args):
    """``(config, None)`` for the config named on the command line, overrides applied,
    or ``(None, exit code)`` after printing why it cannot be run."""
    try:
        raw = _load_config_dict(args.config)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    if isinstance(raw, dict):  # config_from_dict rejects any other JSON value
        if getattr(args, "trials", None) is not None:
            raw["mc_trials"] = args.trials
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
    try:
        cfg = config_from_dict(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_INVALID
    problems = cfg.violations()
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return (None, EXIT_INVALID) if problems else (cfg, None)


def cmd_run(args) -> int:
    cfg, code = _resolved_config(args)
    if cfg is None:
        return code

    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.perf_counter()
    try:
        report = sweep(cfg)
    except RuntimeError as exc:  # a worker process failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    duration = time.perf_counter() - start

    results_path = os.path.join(out_dir, "results.csv")
    plot_path = os.path.join(out_dir, "plot_results.py")
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        write_results_csv(results_path, report)
        write_plot_script(plot_path)
        manifest = {
            "version": __version__,
            "config": config_to_dict(cfg),
            "master_seed": cfg.seed.master,
            "sweep": report.metadata["sweep"],
            "duration_seconds": duration,
            "environment": _environment(report.workers),
            "cells": report.metadata["cells"],
            "outputs": {
                "results": os.path.abspath(results_path),
                "plot_script": os.path.abspath(plot_path),
            },
        }
        write_json_atomic(manifest_path, manifest)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(report.rows)} rows to {results_path}")
    print(f"wrote {manifest_path} and {plot_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg, code = _resolved_config(args)
    if cfg is None:
        return code
    print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg, code = _resolved_config(args)
    if cfg is None:
        return code
    sweep_name, points = sweep_points(cfg)
    if not 0 <= args.cell < len(points):
        print(f"error: --cell must be in [0, {len(points)}), got {args.cell}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.trial < cfg.mc_trials:
        print(f"error: --trial must be in [0, {cfg.mc_trials}), got {args.trial}", file=sys.stderr)
        return EXIT_USAGE
    point = points[args.cell]
    outcome = run_trial(cfg, point, args.trial)
    record = {
        "sweep": sweep_name,
        "cell": args.cell,
        "sweep_value": point.n_t if sweep_name == "nt" else point.snr,
        "trial": args.trial,
        "errors": outcome.errors,
        "failures": outcome.failures,
        "condition_warnings": outcome.warning_count,
    }
    print(json.dumps(record, indent=2))
    return EXIT_OK


def cmd_estimate(args) -> int:
    if not 0.0 <= args.ridge < np.inf:
        print(f"error: --ridge must be finite and nonnegative, got {args.ridge}", file=sys.stderr)
        return EXIT_USAGE
    try:
        data = read_dataset_csv(args.data)
    except (OSError, ValueError) as exc:
        print(f"error: data file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            moments = compute_moments(data)
    except ValueError as exc:  # finite data whose moments overflow
        print(f"error: the data's sample moments are not finite: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        if args.method == "discriminative":
            est = discriminative_estimator(moments, ridge=args.ridge)
        else:
            if args.prior is None:
                print("error: --method generative requires --prior", file=sys.stderr)
                return EXIT_USAGE
            try:
                known = read_prior_json(args.prior)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"error: prior file: {exc}", file=sys.stderr)
                return EXIT_USAGE
            if known.prior.n_y != data.n_y:
                print(
                    f"error: prior dimension mismatch: mu_y/C_yy describe {known.prior.n_y} "
                    f"target entries but the dataset ys have {data.n_y}",
                    file=sys.stderr,
                )
                return EXIT_INVALID
            fitted = fit_ml(moments, ridge=args.ridge)
            _print_matrix("H_hat", fitted.H_hat)
            _print_matrix("mu_hat", fitted.mu_hat)
            est = generative_estimator(fitted, known, moments)
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    _print_matrix("A", est.A)
    _print_matrix("b", est.b)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gendisc",
        description="Benchmark generative vs. discriminative linear estimators.",
    )
    parser.add_argument("--version", action="version", version=f"gendisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and write results")
    run_p.add_argument("config", help="config file path or bundled name (mse_vs_snr, mse_vs_nt)")
    run_p.add_argument("--out", default="results", help="output directory (default: results)")
    run_p.add_argument("--trials", type=int, default=None, help="override mc_trials")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored: a sweep splits its trials "
        "across one process per usable CPU",
    )
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check a config and print it fully resolved")
    val_p.add_argument("config", help="config file path or bundled name")
    val_p.set_defaults(func=cmd_validate)

    rep_p = sub.add_parser("replay", help="re-run one trial of a sweep and print its scores")
    rep_p.add_argument("config", help="config file path or bundled name")
    rep_p.add_argument("--cell", type=int, required=True, help="cell index in the swept grid")
    rep_p.add_argument("--trial", type=int, required=True, help="trial index within the cell")
    rep_p.add_argument("--trials", type=int, default=None, help="override mc_trials, as for run")
    rep_p.add_argument("--seed", type=int, default=None, help="override the master seed, as for run")
    rep_p.set_defaults(func=cmd_replay)

    est_p = sub.add_parser("estimate", help="fit an estimator on a dataset file")
    est_p.add_argument("--data", required=True, help="dataset CSV (header n_t,n_x,n_y)")
    est_p.add_argument("--prior", default=None, help="prior JSON (mu_y, C_yy, sigma2)")
    est_p.add_argument(
        "--method", required=True, choices=("generative", "discriminative"), help="estimator"
    )
    est_p.add_argument("--ridge", type=float, default=0.0, help="diagonal loading for sample covariances")
    est_p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
