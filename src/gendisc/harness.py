"""Seeded Monte Carlo engine for MSE-versus-SNR and MSE-versus-sample-size sweeps.

Each trial draws a fresh measurement matrix (unless frozen by ``h_mode``), a
fresh training set, and fits every requested estimator at every SNR of the
grid. The training set is drawn as its sample moments
(:func:`~gendisc.synth.draw_training`): from their joint Gaussian-Wishart
law under the linear map, at a cost that does not grow with ``n_t``, and
from ``n_t`` drawn pairs under tanh and cubic. The draw does not depend on
the noise level, so the SNR cells of a trial share it (common random
numbers) and each assembles its moments from it; what else does not depend
on the noise (the target sample covariance's factor, the vanishing-noise
gains) is computed once and shared too, its failures and condition warnings
counted in every cell that uses it. Each fitted rule is scored by its exact
risk under the true data distribution
(:func:`~gendisc.estimators.affine_risk`), whatever the measurement map, so
no test pair is drawn and a cell's standard error covers only the training
draws and H. The risk rests on the noise-free population moments of the map
(:func:`~gendisc.estimators.measurement_moments`), computed once per trial,
or once per sweep when H is frozen. :func:`sweep` runs the sample-count
cells in grid order, each cell's trials in index order and each trial at
every SNR, serially. A trial's randomness comes from a counter-based child
seed of (sample-count cell, trial), so results do not depend on the order
trials run in, nor on which other SNRs share the grid; construction failures
(singular sample covariances at small sample counts) are recorded per cell
rather than aborting the sweep. Memory is one float64 score per trial,
estimator and SNR cell, plus failure counts grouped by the failing matrix,
each with the first trial it struck so that it can be replayed with
:func:`run_trial`, the one-SNR case of the same code.
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
    target_factor,
)
from .moments import (
    SampleMoments,
    SingularMatrixError,
    condition_events,
    gain_direct,
    report_condition,
)
from .synth import (
    GaussianPrior,
    Linear,
    Nonlinearity,
    Seed,
    TrueModel,
    draw_training,
    exp_decay_prior,
    random_measurement_matrix,
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
# population moment matrices, and the float64 scores of every SNR cell, one
# per trial and estimator, held together because each trial is scored at
# every SNR. Configs past it are rejected before anything is allocated.
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
            scores = max(self.mc_trials, 0) * len(self.estimator_set) * len(self.snr_grid)
            need = 8 * d * (max(self.nt_grid) + d) + 8 * scores
            if need > _BYTE_BUDGET:
                problems.append(
                    f"a sweep needs about {need:.3g} bytes for a trial's n_t x (n_x + n_y) "
                    "training draw and (n_x + n_y)^2 moment matrices and the "
                    "mc_trials x len(estimator_set) x len(snr_grid) scores of the SNR cells "
                    f"scored together, over the {_BYTE_BUDGET:.3g} budget"
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


class _Shared:
    """Results that several sweep cells compute from the same inputs, made once.

    ``get(slot, inputs, compute)`` returns ``compute()``, or the linear-algebra
    error it raised, from the last time ``slot`` was computed, if ``inputs``
    equal that time's bit for bit; otherwise it computes anew. The result is
    then exactly what the cell would have computed itself, and so is the
    count: the condition events the computation recorded are recorded again,
    with their warnings, at each later use, and its error is raised again.
    A sweep keeps one for its whole run; ``slot`` names what is computed, and
    ``inputs`` hold every array it reads that can change within the sweep.
    """

    def __init__(self):
        self._slots: dict[str, tuple] = {}

    def get(self, slot: str, inputs: tuple, compute: Callable):
        entry = self._slots.get(slot)
        if entry is not None and all(
            a is b or (a.shape == b.shape and a.tobytes() == b.tobytes())
            for a, b in zip(entry[0], inputs)
        ):
            _, value, error, events = entry
            for name, cond in events:
                report_condition(name, cond)
        else:
            value = error = None
            with condition_events() as events:
                try:
                    value = compute()
                except np.linalg.LinAlgError as exc:
                    error = exc
            self._slots[slot] = (inputs, value, error, events)
        if error is not None:
            raise error.with_traceback(None)
        return value


@dataclass
class _TrialInputs:
    """What a rule builder may read in one sweep cell of a trial.

    ``H`` is the trial's measurement matrix, shared by the models of all its
    cells. ``moments`` is ``None`` when no requested rule is trained.
    """

    prior: GaussianPrior
    H: np.ndarray
    model: TrueModel
    known: Optional[KnownStatistics]
    moments: Optional[SampleMoments]
    ridge: float
    measurement: MeasurementMoments
    shared: _Shared

    @cached_property
    def population(self):
        return population_moments(self.prior, self.model, self.measurement)


def _generative(t: _TrialInputs) -> AffineEstimator:
    factor = t.shared.get(
        "target factor", (t.moments.C_yy,), lambda: target_factor(t.moments, t.ridge)
    )
    return generative_estimator(fit_ml(t.moments, factor=factor), t.known, t.moments)


def _generative_high_snr(t: _TrialInputs) -> AffineEstimator:
    prior = t.known.prior if t.known else t.prior
    gain = t.shared.get(
        "generative high-SNR gain", (t.H, prior.C_yy), lambda: gain_direct(t.H, prior.C_yy, 0.0)
    )
    return generative_highsnr(prior, t.H, t.moments, gain=gain)


def _discriminative_high_snr(t: _TrialInputs) -> AffineEstimator:
    gain = t.shared.get(
        "discriminative high-SNR gain",
        (t.H, t.moments.C_yy),
        lambda: gain_direct(t.H, t.moments.C_yy, 0.0),
    )
    return discriminative_highsnr(t.H, t.moments, gain=gain)


class _Rule(NamedTuple):
    trained: bool  # fitted on the trial's training set
    build: Callable[[_TrialInputs], AffineEstimator]


_RULES = {
    Provenance.GENERATIVE: _Rule(True, _generative),
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
    Provenance.GENERATIVE_HIGH_SNR: _Rule(True, _generative_high_snr),
    Provenance.DISCRIMINATIVE_HIGH_SNR: _Rule(True, _discriminative_high_snr),
}


def _score_cells(
    prior: GaussianPrior,
    models: list[TrueModel],
    knowns: list[Optional[KnownStatistics]],
    n_t: int,
    estimator_names,
    seed: Seed,
    ridge: float,
    measurement: MeasurementMoments,
    shared: _Shared,
) -> list[TrialOutcome]:
    """One trial's outcome in each of its cells, which differ only in the noise level.

    ``models[k]`` and ``knowns[k]`` are cell k's true model and side
    information; the models share ``H``, ``mu_w`` and the measurement map.
    The training randomness is drawn once, from ``seed.child(0)``, and each
    cell's sample moments are assembled from it at the cell's noise level.
    """
    rules = [(name, _RULES[Provenance(name)]) for name in estimator_names]
    draw = None
    if any(rule.trained for _, rule in rules):
        draw = draw_training(prior, models[0], n_t, seed.child(0))
    H = models[0].H
    outcomes = []
    for model, known in zip(models, knowns):
        errors: dict[str, float] = {}
        failures: dict[str, str] = {}
        with condition_events() as events:
            moments = draw.moments(model.sigma2) if draw is not None else None
            inputs = _TrialInputs(prior, H, model, known, moments, ridge, measurement, shared)
            for name, rule in rules:
                try:
                    est = rule.build(inputs)
                except np.linalg.LinAlgError as exc:
                    failures[name] = exc.name if isinstance(exc, SingularMatrixError) else str(exc)
                    continue
                errors[name] = affine_risk(est, prior, model, measurement)
        outcomes.append(TrialOutcome(errors=errors, failures=failures, warning_count=len(events)))
    return outcomes


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
    ``seed.child(0)`` by :func:`~gendisc.synth.draw_training`, the only draw
    a trial makes, and only when a requested rule is trained. A rule's error
    is its exact risk under ``prior`` and ``model``, the true data
    distribution, from ``measurement``: the
    :func:`~gendisc.estimators.measurement_moments` of ``model``, computed
    here when omitted. A sweep scores its trials with the same code, at
    every noise level of the trial at once.
    """
    names = tuple(estimator_names)
    if known is None and Provenance.GENERATIVE.value in names:
        raise ValueError("the generative estimator needs KnownStatistics")
    if measurement is None:
        measurement = measurement_moments(prior, model.H, model.nonlinearity)
    return _score_cells(
        prior, [model], [known], n_t, names, seed, ridge, measurement, _Shared()
    )[0]


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


def sweep_points(cfg: ExperimentConfig) -> tuple[str, list[SweepPoint]]:
    """The swept grid's name (``"snr"`` or ``"nt"``) and its cells, in grid order.

    ``nt_grid`` is swept at the single SNR when it has several entries,
    otherwise ``snr_grid`` at the single sample count.
    """
    if len(cfg.nt_grid) > 1:
        snr = cfg.snr_grid[0]
        return "nt", [SweepPoint(index=i, snr=snr, n_t=n) for i, n in enumerate(cfg.nt_grid)]
    n_t = cfg.nt_grid[0]
    return "snr", [SweepPoint(index=i, snr=s, n_t=n_t) for i, s in enumerate(cfg.snr_grid)]


def _run_trial_cells(
    cfg: ExperimentConfig,
    nt_index: int,
    n_t: int,
    trial_index: int,
    snrs,
    constants: tuple,
    shared: _Shared,
) -> list[TrialOutcome]:
    """Trial ``trial_index`` of sample-count cell ``nt_index``, at each SNR in ``snrs``."""
    prior, known_prior, H, measurement = constants
    trial_seed = cfg.seed.child(_NS_TRIAL, nt_index, trial_index)
    if H is None:
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, trial_seed.child(2))
        measurement = measurement_moments(prior, H, cfg.nonlinearity)
    mu_w = np.zeros(cfg.n_x)
    models = [TrueModel(H, mu_w, 1.0 / snr, cfg.nonlinearity) for snr in snrs]
    knowns = [KnownStatistics(prior=known_prior, sigma2=model.sigma2) for model in models]
    return _score_cells(
        prior, models, knowns, n_t, cfg.estimator_set, trial_seed, cfg.ridge, measurement, shared
    )


def run_trial(
    cfg: ExperimentConfig, point: SweepPoint, trial_index: int, constants: Optional[tuple] = None
) -> TrialOutcome:
    """Run one Monte Carlo trial at the given sweep cell.

    Deterministic in (cfg, point, trial_index), and bitwise equal to the
    outcome :func:`sweep` scored for that cell and trial. The trial's
    randomness comes from the child stream (master, 0, sample-count cell
    index, trial index), the sample-count cell index being ``point.index``
    in a sweep of ``nt_grid`` and 0 in a sweep of ``snr_grid``: every SNR
    cell shares the trial's draws. The frozen measurement matrix (when
    ``h_mode == "fixed_once"``) is drawn once from (master, 1).
    ``constants`` is ``sweep_constants(cfg)``, built here when omitted.
    """
    sweep_name, _ = sweep_points(cfg)
    nt_index = point.index if sweep_name == "nt" else 0
    return _run_trial_cells(
        cfg, nt_index, point.n_t, trial_index, [point.snr],
        constants or sweep_constants(cfg), _Shared(),
    )[0]


def sweep(cfg: ExperimentConfig) -> MseReport:
    """MSE of every requested estimator across the config's swept grid.

    ``nt_grid`` is swept at the single SNR when it has several entries,
    otherwise ``snr_grid`` at the single sample count. Each trial of a
    sample-count cell is drawn once and scored at every SNR, so the SNR
    cells of a trial share its H and training randomness. Raises
    ``ValueError`` listing every violation when the config is not runnable.
    """
    cfg.validate()
    sweep_name, points = sweep_points(cfg)
    constants = sweep_constants(cfg)
    shared = _Shared()
    names = cfg.estimator_set
    n_snr = len(cfg.snr_grid)
    # Scores stream into one preallocated row per SNR cell and estimator, in trial order.
    scores = np.empty((n_snr, len(names), cfg.mc_trials))
    rows: list[MseRow] = []
    cells_meta: list[dict] = []
    for j, n_t in enumerate(cfg.nt_grid):
        n_ok = [[0] * len(names) for _ in range(n_snr)]
        reasons: list[dict[str, dict[str, dict]]] = [{} for _ in range(n_snr)]
        warning_counts = [0] * n_snr
        for trial in range(cfg.mc_trials):
            outs = _run_trial_cells(cfg, j, n_t, trial, cfg.snr_grid, constants, shared)
            for k, out in enumerate(outs):
                warning_counts[k] += out.warning_count
                for e, name in enumerate(names):
                    if name in out.errors:
                        scores[k, e, n_ok[k][e]] = out.errors[name]
                        n_ok[k][e] += 1
                    else:
                        reason = reasons[k].setdefault(name, {}).setdefault(
                            out.failures[name], {"count": 0, "first_trial": trial}
                        )
                        reason["count"] += 1
        for k in range(n_snr):
            point = points[j + k]  # one of the grids has a single entry, so j or k is 0
            value = point.n_t if sweep_name == "nt" else point.snr
            for e, name in enumerate(names):
                stat = compute_mse(scores[k, e, : n_ok[k][e]])
                mean, se = stat if stat is not None else (None, None)
                rows.append(
                    MseRow(
                        sweep_name=sweep_name,
                        sweep_value=value,
                        estimator=name,
                        mean_mse=mean,
                        std_err=se,
                        trials_ok=n_ok[k][e],
                        trials_failed=cfg.mc_trials - n_ok[k][e],
                    )
                )
            cells_meta.append(
                {
                    "sweep_value": value,
                    "condition_warnings": warning_counts[k],
                    "failures": {
                        name: cfg.mc_trials - n_ok[k][e]
                        for e, name in enumerate(names)
                        if n_ok[k][e] < cfg.mc_trials
                    },
                    "failure_reasons": reasons[k],
                }
            )
    return MseReport(rows=tuple(rows), metadata={"sweep": sweep_name, "cells": cells_meta})
