"""Seeded Monte Carlo engine for MSE-versus-SNR and MSE-versus-sample-size sweeps.

Each trial draws a fresh measurement matrix (unless frozen by ``h_mode``), a
fresh training set, and fits every requested estimator. Each fitted rule is
scored by its exact risk under the true data distribution
(:func:`~gendisc.estimators.affine_risk`), whatever the measurement map, so
no test pair is drawn and a cell's standard error covers only the training
draws and H. The risk rests on the noise-free population moments of the map
(:func:`~gendisc.estimators.measurement_moments`), computed once per trial,
or once per sweep when H is frozen. Trials are independent work items whose
randomness is derived from counter-based child seeds, so results are
bit-identical under any parallel schedule; construction failures (singular
sample covariances at small sample counts) are recorded per cell rather than
aborting the sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimators import (
    KnownStatistics,
    MeasurementMoments,
    Provenance,
    affine_risk,
    discriminative_asymptote,
    discriminative_estimator,
    discriminative_highsnr,
    fit_ml,
    generative_asymptote,
    generative_estimator,
    generative_highsnr,
    measurement_moments,
    oracle_lmmse,
    population_moments,
)
from .moments import SingularMatrixError, compute_moments, condition_events
from .synth import (
    GaussianPrior,
    Linear,
    Nonlinearity,
    Seed,
    TrueModel,
    exp_decay_prior,
    random_measurement_matrix,
    sample_pairs,
)

PRIOR_MODES = ("true_prior", "identity_mismatch")
H_MODES = ("per_trial", "fixed_once")
DEFAULT_ESTIMATORS = (
    Provenance.GENERATIVE.value,
    Provenance.DISCRIMINATIVE.value,
    Provenance.ORACLE_LMMSE.value,
)
# 13 half-decade points: SNR = 10^(k/2) for k = -4..8.
DEFAULT_SNR_GRID = tuple(10.0 ** (k / 2.0) for k in range(-4, 9))
DEFAULT_NT_GRID = (40, 60, 100, 200, 500, 1000, 5000)

# Seed stream namespaces under the master seed.
_NS_TRIAL = 0
_NS_FIXED_H = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep experiment.

    ``snr_grid`` holds signal-to-noise ratios (SNR = 1 / sigma2). Exactly one
    of ``snr_grid`` / ``nt_grid`` may hold more than one value; the other
    supplies the fixed parameter. ``prior_mode == "identity_mismatch"``
    replaces the prior covariance by the identity inside the side information
    handed to the generative estimator, never in data generation.
    """

    n_x: int = 28
    n_y: int = 30
    snr_grid: tuple[float, ...] = DEFAULT_SNR_GRID
    nt_grid: tuple[int, ...] = (100,)
    mc_trials: int = 10_000
    seed: Seed = field(default_factory=lambda: Seed(1729))
    prior_mode: str = "true_prior"
    h_mode: str = "per_trial"
    nonlinearity: Nonlinearity = field(default_factory=Linear)
    estimator_set: tuple[str, ...] = DEFAULT_ESTIMATORS
    ridge: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "snr_grid", tuple(float(s) for s in self.snr_grid))
        object.__setattr__(self, "nt_grid", tuple(int(n) for n in self.nt_grid))
        object.__setattr__(self, "estimator_set", tuple(str(e) for e in self.estimator_set))

    def violations(self) -> list[str]:
        """All violated invariants, empty when the config is runnable."""
        problems = []
        if self.n_x < 1:
            problems.append(f"n_x must be >= 1, got {self.n_x}")
        if self.n_y < 1:
            problems.append(f"n_y must be >= 1, got {self.n_y}")
        if not self.snr_grid:
            problems.append("snr_grid must be nonempty")
        elif any(not (0.0 < s < float("inf")) for s in self.snr_grid):
            problems.append("snr_grid entries must be finite and positive")
        elif any(1.0 / s == float("inf") for s in self.snr_grid):
            problems.append("snr_grid entries must be large enough that 1/snr is finite")
        if not self.nt_grid:
            problems.append("nt_grid must be nonempty")
        elif any(n < 1 for n in self.nt_grid):
            problems.append("nt_grid entries must be >= 1")
        if self.mc_trials < 1:
            problems.append(f"mc_trials must be >= 1, got {self.mc_trials}")
        if not isinstance(self.seed, Seed):
            problems.append("seed must be a Seed")
        if self.prior_mode not in PRIOR_MODES:
            problems.append(f"prior_mode must be one of {PRIOR_MODES}, got {self.prior_mode!r}")
        if self.h_mode not in H_MODES:
            problems.append(f"h_mode must be one of {H_MODES}, got {self.h_mode!r}")
        valid_names = {p.value for p in Provenance}
        if not self.estimator_set:
            problems.append("estimator_set must be nonempty")
        else:
            unknown = [e for e in self.estimator_set if e not in valid_names]
            if unknown:
                problems.append(f"unknown estimators in estimator_set: {unknown}")
            if len(set(self.estimator_set)) != len(self.estimator_set):
                problems.append("estimator_set contains duplicates")
        if not isinstance(self.nonlinearity, Nonlinearity):
            problems.append(f"nonlinearity must be Linear, Tanh or Cubic, got {self.nonlinearity!r}")
        if not (np.isfinite(self.ridge) and self.ridge >= 0.0):
            problems.append(f"ridge must be finite and nonnegative, got {self.ridge}")
        return problems

    def validate(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("invalid experiment config: " + "; ".join(problems))


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep: a grid position with its SNR and sample count."""

    index: int
    snr: float
    n_t: int

    @property
    def sigma2(self) -> float:
        return 1.0 / self.snr


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial record: squared error or failure reason per estimator."""

    errors: dict[str, float]
    failures: dict[str, str]
    warning_count: int = 0


@dataclass(frozen=True)
class MseRow:
    sweep_name: str
    sweep_value: float
    estimator: str
    mean_mse: Optional[float]
    std_err: Optional[float]
    trials_ok: int
    trials_failed: int


@dataclass(frozen=True)
class MseReport:
    """Sweep results plus run metadata.

    ``metadata`` holds the sweep name, the worker count actually used, and
    per-cell condition-warning and failure counts.
    """

    rows: tuple[MseRow, ...]
    metadata: dict


def compute_mse(errors) -> Optional[tuple[float, float]]:
    """Mean and standard error of a list of squared errors.

    Returns ``None`` for an empty list; the standard error is the sample
    standard deviation (n-1 normalization) over sqrt(n), defined as 0.0 for
    a single observation.
    """
    errs = np.asarray(list(errors), dtype=float)
    if errs.size == 0:
        return None
    mean = float(errs.mean())
    se = 0.0 if errs.size == 1 else float(errs.std(ddof=1) / np.sqrt(errs.size))
    return mean, se


def run_single_trial(
    prior: GaussianPrior,
    model: TrueModel,
    known: Optional[KnownStatistics],
    n_t: int,
    estimator_names,
    seed: Seed,
    ridge: float = 0.0,
    measurement: Optional[MeasurementMoments] = None,
) -> TrialOutcome:
    """Fit the requested estimators on one fresh training set and score each rule.

    ``known`` supplies the generative side information and may be ``None``
    when no estimator needs it. A construction failure (singular sample
    covariance) is recorded under the estimator's name; remaining estimators
    still run. Training data is drawn from ``seed.child(0)``, the only draw
    a trial makes. A rule's error is its exact risk under ``prior`` and
    ``model``, the true data distribution, from ``measurement``: the
    :func:`~gendisc.estimators.measurement_moments` of ``model``, computed
    here when omitted.
    """
    estimator_names = tuple(estimator_names)
    if Provenance.GENERATIVE.value in estimator_names and known is None:
        raise ValueError("the generative estimator needs KnownStatistics")
    needs_data = {
        Provenance.GENERATIVE.value,
        Provenance.DISCRIMINATIVE.value,
        Provenance.GENERATIVE_HIGH_SNR.value,
        Provenance.DISCRIMINATIVE_HIGH_SNR.value,
    }
    if measurement is None:
        measurement = measurement_moments(prior, model.H, model.nonlinearity)
    errors: dict[str, float] = {}
    failures: dict[str, str] = {}

    with condition_events() as events:
        moments = None
        if needs_data & set(estimator_names):
            train = sample_pairs(prior, model, n_t, seed.child(0))
            moments = compute_moments(train)

        fitted = None
        pop = None
        for name in estimator_names:
            try:
                if name == Provenance.GENERATIVE.value:
                    if fitted is None:
                        fitted = fit_ml(moments, ridge=ridge)
                    est = generative_estimator(fitted, known, moments)
                elif name == Provenance.DISCRIMINATIVE.value:
                    est = discriminative_estimator(moments, ridge=ridge)
                elif name == Provenance.ORACLE_LMMSE.value:
                    est = oracle_lmmse(prior, model, measurement)
                elif name == Provenance.GENERATIVE_ASYMPTOTE.value:
                    if pop is None:
                        pop = population_moments(prior, model, measurement)
                    est = generative_asymptote(prior, pop, model.sigma2)
                elif name == Provenance.DISCRIMINATIVE_ASYMPTOTE.value:
                    if pop is None:
                        pop = population_moments(prior, model, measurement)
                    est = discriminative_asymptote(prior, pop)
                elif name == Provenance.GENERATIVE_HIGH_SNR.value:
                    est = generative_highsnr(known.prior if known else prior, model.H, moments)
                elif name == Provenance.DISCRIMINATIVE_HIGH_SNR.value:
                    est = discriminative_highsnr(model.H, moments)
                else:
                    raise ValueError(f"unknown estimator name {name!r}")
            except (SingularMatrixError, np.linalg.LinAlgError) as exc:
                failures[name] = str(exc)
                continue
            errors[name] = affine_risk(est, prior, model, measurement)

    return TrialOutcome(errors=errors, failures=failures, warning_count=len(events))


def sweep_constants(cfg: ExperimentConfig) -> tuple:
    """Trial inputs fixed for a whole sweep: ``(prior, known_prior, fixed_H, fixed_moments)``.

    ``prior`` generates the data, ``known_prior`` is the generative side
    information, ``fixed_H`` is the frozen measurement matrix under
    ``h_mode == "fixed_once"`` and ``fixed_moments`` its noise-free
    :func:`~gendisc.estimators.measurement_moments` (both ``None`` otherwise).
    """
    prior = exp_decay_prior(cfg.n_y)
    if cfg.prior_mode == "identity_mismatch":
        known_prior = GaussianPrior(mu_y=np.zeros(cfg.n_y), C_yy=np.eye(cfg.n_y))
    else:
        known_prior = prior
    fixed_H = fixed_moments = None
    if cfg.h_mode == "fixed_once":
        fixed_H = random_measurement_matrix(cfg.n_x, cfg.n_y, cfg.seed.child(_NS_FIXED_H))
        fixed_moments = measurement_moments(prior, fixed_H, cfg.nonlinearity)
    return prior, known_prior, fixed_H, fixed_moments


def run_trial(
    cfg: ExperimentConfig, point: SweepPoint, trial_index: int, constants: Optional[tuple] = None
) -> TrialOutcome:
    """Run one Monte Carlo trial at the given sweep cell.

    Deterministic in (cfg, point, trial_index): the trial's randomness comes
    from the child stream (master, 0, cell index, trial index), with the
    frozen measurement matrix (when ``h_mode == "fixed_once"``) drawn once
    from (master, 1). ``constants`` is ``sweep_constants(cfg)``, built here
    when omitted.
    """
    prior, known_prior, H, measurement = constants or sweep_constants(cfg)
    trial_seed = cfg.seed.child(_NS_TRIAL, point.index, trial_index)
    if H is None:
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, trial_seed.child(2))
    model = TrueModel(
        H=H, mu_w=np.zeros(cfg.n_x), sigma2=point.sigma2, nonlinearity=cfg.nonlinearity
    )
    known = KnownStatistics(prior=known_prior, sigma2=point.sigma2)
    return run_single_trial(
        prior, model, known, point.n_t, cfg.estimator_set, trial_seed, cfg.ridge, measurement
    )


def _sweep_points(cfg: ExperimentConfig, sweep_name: str) -> list[SweepPoint]:
    if sweep_name == "snr":
        n_t = cfg.nt_grid[0]
        return [SweepPoint(index=i, snr=s, n_t=n_t) for i, s in enumerate(cfg.snr_grid)]
    snr = cfg.snr_grid[0]
    return [SweepPoint(index=i, snr=snr, n_t=n) for i, n in enumerate(cfg.nt_grid)]


def _sweep_value(point: SweepPoint, sweep_name: str) -> float:
    return point.snr if sweep_name == "snr" else point.n_t


def _run_sweep(cfg: ExperimentConfig, sweep_name: str, threads: int) -> MseReport:
    cfg.validate()
    points = _sweep_points(cfg, sweep_name)
    tasks = [(point, trial) for point in points for trial in range(cfg.mc_trials)]
    constants = sweep_constants(cfg)

    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda pt: run_trial(cfg, pt[0], pt[1], constants), tasks))
    else:
        results = [run_trial(cfg, point, trial, constants) for point, trial in tasks]
    outcomes = {(pt.index, trial): out for (pt, trial), out in zip(tasks, results)}

    rows: list[MseRow] = []
    cells_meta: list[dict] = []
    for point in points:
        cell = [outcomes[(point.index, trial)] for trial in range(cfg.mc_trials)]
        value = _sweep_value(point, sweep_name)
        fail_counts: dict[str, int] = {}
        for name in cfg.estimator_set:
            errs = [out.errors[name] for out in cell if name in out.errors]
            n_failed = cfg.mc_trials - len(errs)
            if n_failed:
                fail_counts[name] = n_failed
            stat = compute_mse(errs)
            mean, se = stat if stat is not None else (None, None)
            rows.append(
                MseRow(
                    sweep_name=sweep_name,
                    sweep_value=value,
                    estimator=name,
                    mean_mse=mean,
                    std_err=se,
                    trials_ok=len(errs),
                    trials_failed=n_failed,
                )
            )
        cells_meta.append(
            {
                "sweep_value": value,
                "condition_warnings": sum(out.warning_count for out in cell),
                "failures": fail_counts,
            }
        )

    metadata = {
        "sweep": sweep_name,
        "threads": workers,
        "cells": cells_meta,
    }
    return MseReport(rows=tuple(rows), metadata=metadata)


def sweep_snr(cfg: ExperimentConfig, threads: int = 1) -> MseReport:
    """MSE of every requested estimator across the SNR grid at fixed n_t."""
    if len(cfg.nt_grid) != 1:
        raise ValueError(f"an SNR sweep needs exactly one nt_grid entry, got {len(cfg.nt_grid)}")
    return _run_sweep(cfg, "snr", threads)


def sweep_nt(cfg: ExperimentConfig, threads: int = 1) -> MseReport:
    """MSE of every requested estimator across the sample-count grid at fixed SNR."""
    if len(cfg.snr_grid) != 1:
        raise ValueError(f"a sample-size sweep needs exactly one snr_grid entry, got {len(cfg.snr_grid)}")
    return _run_sweep(cfg, "nt", threads)
