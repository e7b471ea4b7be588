"""Seeded Monte Carlo engine for MSE-versus-SNR and MSE-versus-sample-size sweeps.

Each trial draws a fresh measurement matrix (unless frozen by ``h_mode``) and
a fresh training set, and scores every requested estimator at every SNR of
the grid by its exact risk under the true data distribution
(:func:`~gendisc.estimators.affine_risk`), so no test pair is drawn and a
cell's standard error covers only the training draws and H. The training set
is drawn as its sample moments (:func:`~gendisc.synth.draw_training`), free of
the noise level, so the SNR cells of a trial share it (common random numbers).
A trial is scored on plain arrays, by the formulas the public constructors
use but without their input checks: inputs are checked where they enter (the
config, the public functions), never per cell. What does not depend on the
noise is computed once per trial, or once per sweep when H is frozen, and
shared: the target sample covariance's factor, the vanishing-noise gains, the
population moments of the map and, under a frozen H, each untrained rule; its
failures and condition warnings are counted in every cell that uses it.
:func:`sweep` runs the sample-count cells in grid order, each cell's trials in
index order and each trial at every SNR, serially. A trial's randomness comes
from a counter-based child seed of (sample-count cell, trial), so results do
not depend on the order trials run in, nor on which other SNRs share the grid;
construction failures (singular sample covariances at small sample counts,
non-finite moments) are recorded per cell rather than aborting the sweep.
Memory is one float64 score per trial, estimator and SNR cell, plus failure
counts grouped by reason, each with the first trial it struck so that it can
be replayed with :func:`run_trial`, the one-SNR case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .estimators import (
    KnownStatistics,
    MeasurementMoments,
    Provenance,
    _generative,
    _generative_asymptote,
    _generative_offset,
    _lmmse,
    _oracle,
    _Truth,
    target_factor,
)
from .moments import (
    SingularMatrixError,
    _check_ridge,
    _solve,
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


# Failure reasons of a rule whose inputs overflowed: the measurement moments
# (every rule of the trial), or a cell's sample moments (every trained rule).
NON_FINITE_MEASUREMENT = "non-finite measurement moments"
NON_FINITE_SAMPLE = "non-finite sample moments"
# Rules fitted on the trial's training set.
_TRAINED = {"generative", "discriminative", "generative_high_snr", "discriminative_high_snr"}


class _Once:
    """A result that several sweep cells use, computed at its first use.

    ``get()`` returns ``compute()``, or raises the linear-algebra error it
    raised. Each later call returns or raises the same, and records again,
    with their warnings, the condition events that computing it recorded: a
    cell counts a shared warning or failure as if it had computed the result.
    """

    def __init__(self, compute: Callable):
        self._compute, self._entry = compute, None

    def get(self):
        if self._entry is None:
            value = error = None
            with condition_events() as events:
                try:
                    value = self._compute()
                except np.linalg.LinAlgError as exc:
                    error = exc
            # Dropping compute frees what it holds; it may hold the owner of this object.
            self._entry, self._compute = (value, error, events), None
        else:
            value, error, events = self._entry
            for name, cond in events:
                report_condition(name, cond)
        if error is not None:
            # Raised afresh: a re-raise would chain onto the frames of every earlier use.
            raise error.with_traceback(None)
        return value


class _Channel(_Truth):
    """A trial's measurement map ``x = g(H y) + w`` and what its rules read of it.

    ``known`` is the prior handed to the generative rules. Made once per
    trial, or once per sweep when H is frozen, so that what rests on H alone
    is computed once per H: the truth's products, the generative high-SNR
    gain and, per noise variance, each untrained rule and its risk.
    """

    def __init__(self, prior, known, H, mu_w, nonlinearity, measurement=None):
        super().__init__(prior, H, mu_w, nonlinearity, measurement)
        self.known = known
        self.generative_high_snr_gain = _Once(lambda: gain_direct(H, known.C_yy, 0.0))
        self._untrained: dict[tuple[str, float], _Once] = {}

    def untrained_risk(self, name: str, sigma2: float) -> float:
        key = (name, sigma2)
        if key not in self._untrained:
            self._untrained[key] = _Once(lambda: self.risk(*self._untrained_rule(*key), sigma2))
        return self._untrained[key].get()

    def _untrained_rule(self, name: str, sigma2: float):
        if name == Provenance.ORACLE_LMMSE:
            return _oracle(self, sigma2)
        if name == Provenance.GENERATIVE_ASYMPTOTE:
            return _generative_asymptote(self.prior, self.C_yx, self.mu_x, sigma2)
        return _lmmse(  # the discriminative asymptote
            self.C_xx(sigma2), self.C_yx, self.mu_x, self.prior.mu_y, 0.0,
            "population input covariance",
        )


def _score_cells(
    ch: _Channel, names, ridge: float, n_t: int, seed: Seed, sigma2s, known_sigma2=None
) -> list[TrialOutcome]:
    """One trial's outcome at each noise variance in ``sigma2s``, on plain arrays.

    The training randomness is drawn once, from ``seed.child(0)``, and each
    cell's sample moments are assembled from it at the cell's noise level.
    Their target block is the same bits at every noise level, so its factor
    and the discriminative high-SNR gain are shared by the cells.
    ``known_sigma2`` is the generative rule's noise variance, each cell's own
    when ``None``. The arithmetic is that of the public constructors and
    :func:`~gendisc.estimators.affine_risk`, without their input checks.
    """
    draw = None
    if not _TRAINED.isdisjoint(names):
        draw = draw_training(ch.prior, ch, n_t, seed.child(0))
    factor = None
    outcomes = []
    for sigma2 in sigma2s:
        errors: dict[str, float] = {}
        failures: dict[str, str] = {}
        with condition_events() as events:
            if draw is not None:
                x_bar, y_bar, C_yx, C_yy, C_xx = draw.blocks(sigma2)
                if factor is None:
                    factor = _Once(lambda C_yy=C_yy: target_factor(C_yy, ridge))
                    discriminative_gain = _Once(lambda C_yy=C_yy: gain_direct(ch.H, C_yy, 0.0))
                    targets_finite = np.isfinite(y_bar).all() and np.isfinite(C_yy).all()
                finite = targets_finite and all(np.isfinite(a).all() for a in (x_bar, C_yx, C_xx))
            for name in names:
                if not ch.finite or (name in _TRAINED and not finite):
                    failures[name] = NON_FINITE_SAMPLE if ch.finite else NON_FINITE_MEASUREMENT
                    continue
                try:
                    if name == Provenance.GENERATIVE:
                        H_hat = _solve(factor.get(), C_yx).T  # as fit_ml fits it
                        s2 = sigma2 if known_sigma2 is None else known_sigma2
                        rule = _generative(H_hat, ch.known, s2, x_bar, y_bar)
                    elif name == Provenance.DISCRIMINATIVE:
                        rule = _lmmse(C_xx, C_yx, x_bar, y_bar, ridge, "input sample covariance")
                    elif name == Provenance.GENERATIVE_HIGH_SNR:
                        G = ch.generative_high_snr_gain.get()
                        rule = G, _generative_offset(G, ch.known.mu_y, x_bar, y_bar, ch.H)
                    elif name == Provenance.DISCRIMINATIVE_HIGH_SNR:
                        G = discriminative_gain.get()
                        rule = G, y_bar - G @ x_bar
                    else:
                        errors[name] = ch.untrained_risk(name, sigma2)
                        continue
                    errors[name] = ch.risk(*rule, sigma2)
                except np.linalg.LinAlgError as exc:
                    failures[name] = exc.name if isinstance(exc, SingularMatrixError) else str(exc)
                    exc.with_traceback(None)  # a shared error outlives this frame; unpin it
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
    names = tuple(Provenance(name).value for name in estimator_names)
    if known is None and Provenance.GENERATIVE.value in names:
        raise ValueError("the generative estimator needs KnownStatistics")
    _check_ridge(ridge)
    ch = _Channel(
        prior, known.prior if known else prior, model.H, model.mu_w, model.nonlinearity, measurement
    )
    return _score_cells(ch, names, ridge, n_t, seed, [model.sigma2], known and known.sigma2)[0]


def sweep_constants(cfg: ExperimentConfig) -> tuple:
    """Trial inputs fixed for a whole sweep: ``(prior, known_prior, fixed_channel)``.

    ``prior`` generates the data, ``known_prior`` is the generative side
    information, and ``fixed_channel`` is the frozen measurement map under
    ``h_mode == "fixed_once"``, with what rests on it alone (``None`` otherwise).
    """
    prior = exp_decay_prior(cfg.n_y)
    if cfg.prior_mode == "identity_mismatch":
        known_prior = GaussianPrior(mu_y=np.zeros(cfg.n_y), C_yy=np.eye(cfg.n_y))
    else:
        known_prior = prior
    if cfg.h_mode == "fixed_once":
        return prior, known_prior, _channel(cfg, prior, known_prior, cfg.seed.child(_NS_FIXED_H))
    return prior, known_prior, None


def _channel(cfg: ExperimentConfig, prior, known_prior, seed: Seed) -> _Channel:
    """The channel of a measurement matrix drawn from ``seed``."""
    H = random_measurement_matrix(cfg.n_x, cfg.n_y, seed)
    return _Channel(prior, known_prior, H, np.zeros(cfg.n_x), cfg.nonlinearity)


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
    cfg: ExperimentConfig, nt_index: int, n_t: int, trial_index: int, sigma2s, constants: tuple
) -> list[TrialOutcome]:
    """Trial ``trial_index`` of sample-count cell ``nt_index``, at each variance in ``sigma2s``."""
    prior, known_prior, ch = constants
    trial_seed = cfg.seed.child(_NS_TRIAL, nt_index, trial_index)
    ch = ch or _channel(cfg, prior, known_prior, trial_seed.child(2))
    return _score_cells(ch, cfg.estimator_set, cfg.ridge, n_t, trial_seed, sigma2s)


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
        cfg, nt_index, point.n_t, trial_index, [point.sigma2], constants or sweep_constants(cfg)
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
    sigma2s = [1.0 / snr for snr in cfg.snr_grid]
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
            outs = _run_trial_cells(cfg, j, n_t, trial, sigma2s, constants)
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
