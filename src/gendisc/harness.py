"""Seeded Monte Carlo engine for MSE-versus-SNR and MSE-versus-sample-size sweeps.

Each trial draws a fresh measurement matrix (unless frozen by ``h_mode``), a
fresh training set, and fits every requested estimator. The training set is
drawn as its sample moments (:func:`~gendisc.synth.sample_moments`): from
their joint Gaussian-Wishart law under the linear map, at a cost that does
not grow with ``n_t``, and from ``n_t`` drawn pairs under tanh and cubic.
Each fitted rule is scored by its exact risk under the true data distribution
(:func:`~gendisc.estimators.affine_risk`), whatever the measurement map, so
no test pair is drawn and a cell's standard error covers only the training
draws and H. The risk rests on the noise-free population moments of the map
(:func:`~gendisc.estimators.measurement_moments`), computed once per trial,
or once per sweep when H is frozen. :func:`sweep` runs the cells in grid
order and each cell's trials in index order, serially. A trial's randomness
comes from a counter-based child seed of (cell, trial), so results do not
depend on the order trials run in; construction failures (singular sample
covariances at small sample counts) are recorded per cell rather than
aborting the sweep. Memory per cell is one float64 score per trial and
estimator, plus failure counts grouped by the failing matrix, each with the
first trial it struck so that it can be replayed with :func:`run_trial`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .estimators import (
    AffineEstimator,
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
from .moments import SampleMoments, SingularMatrixError, condition_events
from .synth import (
    GaussianPrior,
    Linear,
    Nonlinearity,
    Seed,
    TrueModel,
    exp_decay_prior,
    random_measurement_matrix,
    sample_moments,
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

# Seed stream namespaces under the master seed.
_NS_TRIAL = 0
_NS_FIXED_H = 1

# Memory budget of a sweep: one trial's float64 training draw, n_t x (N_x + N_y)
# (drawn as pairs under tanh and cubic), its (N_x + N_y)^2-sized sample and
# population moment matrices, and a cell's float64 scores, one per trial and
# estimator. Configs past it are rejected before anything is allocated.
_BYTE_BUDGET = 2**30


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep experiment.

    ``snr_grid`` holds signal-to-noise ratios (SNR = 1 / sigma2). At most one
    of ``snr_grid`` / ``nt_grid`` may hold more than one value; that grid is
    swept (``snr_grid`` when both hold one) and the other supplies the fixed
    parameter. ``prior_mode == "identity_mismatch"`` replaces the prior
    covariance by the identity inside the side information handed to the
    generative estimator, never in data generation.
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
        elif self.n_x >= 1 and self.n_y >= 1:
            d = self.n_x + self.n_y
            need = 8 * d * (max(self.nt_grid) + d) + 8 * max(self.mc_trials, 0) * len(
                self.estimator_set
            )
            if need > _BYTE_BUDGET:
                problems.append(
                    f"a sweep needs about {need:.3g} bytes for a trial's n_t x (n_x + n_y) "
                    "training draw and (n_x + n_y)^2 moment matrices and a cell's "
                    f"mc_trials x len(estimator_set) scores, over the {_BYTE_BUDGET:.3g} budget"
                )
        if len(self.snr_grid) > 1 and len(self.nt_grid) > 1:
            problems.append(
                "snr_grid/nt_grid: exactly one grid may have multiple entries "
                f"(got {len(self.snr_grid)} SNRs and {len(self.nt_grid)} sample counts)"
            )
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
    """Per-trial record: squared error or failure reason per estimator.

    A failure reason is the name of the matrix that failed to factorize
    (:attr:`~gendisc.moments.SingularMatrixError.name`), or the message of
    any other linear-algebra error.
    """

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

    ``metadata`` holds the sweep name (``"snr"`` or ``"nt"``) and, per cell,
    the condition-warning count, the failure count per estimator and
    ``failure_reasons``: per estimator and reason (see :class:`TrialOutcome`),
    the ``count`` of trials it failed and the ``first_trial`` index among them.
    """

    rows: tuple[MseRow, ...]
    metadata: dict


def compute_mse(errors) -> Optional[tuple[float, float]]:
    """Mean and standard error of a sequence of squared errors.

    Returns ``None`` when it is empty; the standard error is the sample
    standard deviation (n-1 normalization) over sqrt(n), defined as 0.0 for
    a single observation.
    """
    errs = np.asarray(errors, dtype=float)
    if errs.size == 0:
        return None
    mean = float(errs.mean())
    se = 0.0 if errs.size == 1 else float(errs.std(ddof=1) / np.sqrt(errs.size))
    return mean, se


@dataclass
class _TrialInputs:
    """What a rule builder may read in one trial.

    ``moments`` is ``None`` when no requested rule is trained.
    """

    prior: GaussianPrior
    model: TrueModel
    known: Optional[KnownStatistics]
    moments: Optional[SampleMoments]
    ridge: float
    measurement: MeasurementMoments

    @cached_property
    def population(self):
        return population_moments(self.prior, self.model, self.measurement)


class _Rule(NamedTuple):
    trained: bool  # fitted on the trial's training set
    build: Callable[[_TrialInputs], AffineEstimator]


_RULES = {
    Provenance.GENERATIVE: _Rule(
        True, lambda t: generative_estimator(fit_ml(t.moments, ridge=t.ridge), t.known, t.moments)
    ),
    Provenance.DISCRIMINATIVE: _Rule(
        True, lambda t: discriminative_estimator(t.moments, ridge=t.ridge)
    ),
    Provenance.ORACLE_LMMSE: _Rule(False, lambda t: oracle_lmmse(t.prior, t.model, t.measurement)),
    Provenance.GENERATIVE_ASYMPTOTE: _Rule(
        False, lambda t: generative_asymptote(t.prior, t.population, t.model.sigma2)
    ),
    Provenance.DISCRIMINATIVE_ASYMPTOTE: _Rule(
        False, lambda t: discriminative_asymptote(t.prior, t.population)
    ),
    Provenance.GENERATIVE_HIGH_SNR: _Rule(
        True,
        lambda t: generative_highsnr(t.known.prior if t.known else t.prior, t.model.H, t.moments),
    ),
    Provenance.DISCRIMINATIVE_HIGH_SNR: _Rule(
        True, lambda t: discriminative_highsnr(t.model.H, t.moments)
    ),
}


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
    still run. The training set's sample moments are drawn from
    ``seed.child(0)`` by :func:`~gendisc.synth.sample_moments`, the only draw
    a trial makes, and only when a requested rule is trained. A rule's error
    is its exact risk under ``prior`` and ``model``, the true data
    distribution, from ``measurement``: the
    :func:`~gendisc.estimators.measurement_moments` of ``model``, computed
    here when omitted.
    """
    rules = [(name, _RULES[Provenance(name)]) for name in estimator_names]
    if known is None and any(name == Provenance.GENERATIVE.value for name, _ in rules):
        raise ValueError("the generative estimator needs KnownStatistics")
    if measurement is None:
        measurement = measurement_moments(prior, model.H, model.nonlinearity)
    errors: dict[str, float] = {}
    failures: dict[str, str] = {}

    with condition_events() as events:
        moments = None
        if any(rule.trained for _, rule in rules):
            moments = sample_moments(prior, model, n_t, seed.child(0))
        inputs = _TrialInputs(prior, model, known, moments, ridge, measurement)
        for name, rule in rules:
            try:
                est = rule.build(inputs)
            except np.linalg.LinAlgError as exc:
                failures[name] = exc.name if isinstance(exc, SingularMatrixError) else str(exc)
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


def sweep(cfg: ExperimentConfig) -> MseReport:
    """MSE of every requested estimator across the config's swept grid.

    ``nt_grid`` is swept at the single SNR when it has several entries,
    otherwise ``snr_grid`` at the single sample count. Raises ``ValueError``
    listing every violation when the config is not runnable.
    """
    cfg.validate()
    if len(cfg.nt_grid) > 1:
        sweep_name, values = "nt", cfg.nt_grid
        points = [SweepPoint(index=i, snr=cfg.snr_grid[0], n_t=n) for i, n in enumerate(values)]
    else:
        sweep_name, values = "snr", cfg.snr_grid
        points = [SweepPoint(index=i, snr=s, n_t=cfg.nt_grid[0]) for i, s in enumerate(values)]
    constants = sweep_constants(cfg)
    rows: list[MseRow] = []
    cells_meta: list[dict] = []
    for value, point in zip(values, points):
        names = cfg.estimator_set
        # Scores stream into one preallocated row per estimator, in trial order.
        scores = np.empty((len(names), cfg.mc_trials))
        n_ok = [0] * len(names)
        reasons: dict[str, dict[str, dict]] = {}
        warning_count = 0
        for trial in range(cfg.mc_trials):
            out = run_trial(cfg, point, trial, constants)
            warning_count += out.warning_count
            for k, name in enumerate(names):
                if name in out.errors:
                    scores[k, n_ok[k]] = out.errors[name]
                    n_ok[k] += 1
                else:
                    reason = reasons.setdefault(name, {}).setdefault(
                        out.failures[name], {"count": 0, "first_trial": trial}
                    )
                    reason["count"] += 1
        for k, name in enumerate(names):
            stat = compute_mse(scores[k, : n_ok[k]])
            mean, se = stat if stat is not None else (None, None)
            rows.append(
                MseRow(
                    sweep_name=sweep_name,
                    sweep_value=value,
                    estimator=name,
                    mean_mse=mean,
                    std_err=se,
                    trials_ok=n_ok[k],
                    trials_failed=cfg.mc_trials - n_ok[k],
                )
            )
        cells_meta.append(
            {
                "sweep_value": value,
                "condition_warnings": warning_count,
                "failures": {
                    name: cfg.mc_trials - n_ok[k]
                    for k, name in enumerate(names)
                    if n_ok[k] < cfg.mc_trials
                },
                "failure_reasons": reasons,
            }
        )
    return MseReport(rows=tuple(rows), metadata={"sweep": sweep_name, "cells": cells_meta})
