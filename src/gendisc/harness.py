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
noise is computed once and shared through one keyed memo, :func:`_shared`:
a memo of the trial keeps the target sample covariance's factor and the
discriminative vanishing-noise gain, and the ``memo`` of the trial's
channel, made once per sweep when H is frozen, keeps the generative
vanishing-noise gain and each untrained rule per noise variance; the
channel also holds the population moments of the map and the population
fit C_xy C_yy^{-1}, a solve that can neither fail nor warn. A shared
result's failures and condition warnings are counted in every cell that
uses it. The oracle is the population LMMSE under every map, so it is also
the discriminative asymptote, and the two are built once for both. The
generative asymptote is the generative rule built from the population fit
and means, with the generative rule's side information, by the helper its
public constructor uses.
:func:`sweep` runs the sample-count cells in grid order and cuts each cell's
trials into contiguous chunks, one per usable CPU: it scores the first chunk
itself and each other in a worker process, forked once per sweep; each trial
is scored at every SNR. The workers write their scores into memory the
processes share and send back only the failures and condition-warning
counts, which are tallied in trial order, so the report is the same bits
for any number of workers. A trial's randomness comes from a counter-based
child seed of (sample-count cell, trial), so results do not depend on the
order trials run in, nor on which other SNRs share the grid; construction
failures (singular sample covariances at small sample counts, non-finite
moments) are recorded per cell rather than aborting the sweep. Memory is
one float64 score per trial, estimator and SNR cell of one sample-count
cell, kept at the trial's index with NaN for a failure, plus failure counts
grouped by reason, each with the first trial it struck so that it can be
replayed with :func:`run_trial`, the one-SNR case of the same code.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field
from functools import partial
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
# population moment matrices, and the float64 scores of the SNR cells of one
# sample-count cell, one per trial and estimator, scored together. Configs past
# it are rejected before anything is allocated; :func:`sweep` runs no more
# processes, each with a draw in flight, than fit in it beside the scores.
_BYTE_BUDGET = 2**30

# What a forked worker adds to a sweep's wall time, about 10 ms on a 2-CPU VM
# (the fork and pipe round trip, the copy-on-write faults both processes then
# take, the worker's exit), in units of the cheapest work measured: a trial's
# draw or one (rule, cell) pair, at least about 50 us each. Timed there, two
# processes broke even with one at 100 to 250 units a process for linear
# sweeps from 1 x 1 to 28 x 30.
_FORK_COST = 200


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
            need = _draw_bytes(self) + _score_bytes(self)
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


def _draw_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of one trial's training draw and moment matrices at the largest sample count."""
    d = cfg.n_x + cfg.n_y
    return 8 * d * (max(cfg.nt_grid) + d)


def _score_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of the float64 scores of one sample-count cell: per SNR, estimator and trial."""
    return 8 * max(cfg.mc_trials, 0) * len(cfg.estimator_set) * len(cfg.snr_grid)


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
    ``workers`` is the number of processes the trials were split across;
    ``rows`` and ``metadata`` do not depend on it.
    """

    rows: tuple[MseRow, ...]
    metadata: dict
    workers: int = 1


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


def _shared(memo: dict, key, compute: Callable):
    """``compute()`` at the first use of ``key`` in ``memo``, shared by its later uses.

    Returns the result, or raises the linear-algebra error computing it
    raised. ``memo`` keeps ``(value, error, events)``, never ``compute``, so
    it pins nothing that computing the result read. Each later use returns
    or raises the same, and records again, with their warnings, the
    condition events that computing it recorded: a cell counts a shared
    warning or failure as if it had computed the result.
    """
    if key not in memo:
        value = error = None
        with condition_events() as events:
            try:
                value = compute()
            except np.linalg.LinAlgError as exc:
                error = exc
        memo[key] = value, error, events
    else:
        value, error, events = memo[key]
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
    is computed once per H: the truth's products, the population fit among
    them, and, kept in ``memo`` by :func:`_shared`, the generative high-SNR
    gain and, per noise variance, each untrained rule.
    """

    def __init__(self, prior, known, H, mu_w, nonlinearity, measurement=None):
        super().__init__(prior, H, mu_w, nonlinearity, measurement)
        self.known = known
        self.memo: dict = {}


def _score_cells(
    ch: _Channel, names, ridge: float, n_t: int, seed: Seed, sigma2s, out, known_sigma2=None
) -> list[tuple[dict[str, str], int]]:
    """Score one trial at each noise variance in ``sigma2s``, on plain arrays.

    Writes the risk of rule ``names[e]`` at ``sigma2s[k]`` to ``out[k, e]``,
    NaN when the rule failed, and returns each cell's failure reasons (see
    :class:`TrialOutcome`) and condition-warning count. The training
    randomness is drawn once, from ``seed.child(0)``, and each cell's sample
    moments are assembled from it at the cell's noise level. Their target
    block is the same bits at every noise level, so it is checked for
    overflow once, and its factor and the discriminative high-SNR gain are
    kept, by :func:`_shared`, in a memo of the trial that its cells share.
    ``known_sigma2`` is the noise variance the generative rule and its
    asymptote are built at, each cell's own when ``None``. The arithmetic is
    that of the public constructors and
    :func:`~gendisc.estimators.affine_risk`, without their input checks.
    """
    draw = None
    if not _TRAINED.isdisjoint(names):
        draw = draw_training(ch.prior, ch, n_t, seed.child(0))
    memo: dict = {}
    cells = []
    for k, sigma2 in enumerate(sigma2s):
        s2 = sigma2 if known_sigma2 is None else known_sigma2  # the generative rules' noise
        failures: dict[str, str] = {}
        with condition_events() as events:
            if draw is not None:
                x_bar, y_bar, C_yx, C_yy, C_xx = draw.blocks(sigma2)
                if k == 0:
                    targets_finite = np.isfinite(y_bar).all() and np.isfinite(C_yy).all()
                finite = targets_finite and all(np.isfinite(a).all() for a in (x_bar, C_yx, C_xx))
            out[k] = np.nan
            for e, name in enumerate(names):
                if not ch.finite or (name in _TRAINED and not finite):
                    failures[name] = NON_FINITE_SAMPLE if ch.finite else NON_FINITE_MEASUREMENT
                    continue
                try:
                    if name == Provenance.GENERATIVE:
                        factor = _shared(memo, "target factor", lambda: target_factor(C_yy, ridge))
                        H_hat = _solve(factor, C_yx).T  # as fit_ml fits it
                        rule = _generative(H_hat, ch.known, s2, x_bar, y_bar)
                    elif name == Provenance.DISCRIMINATIVE:
                        rule = _lmmse(C_xx, C_yx, x_bar, y_bar, ridge, "input sample covariance")
                    elif name == Provenance.GENERATIVE_HIGH_SNR:
                        G = _shared(ch.memo, name, lambda: gain_direct(ch.H, ch.known.C_yy, 0.0))
                        rule = G, _generative_offset(G, ch.known.mu_y, x_bar, y_bar, ch.H)
                    elif name == Provenance.DISCRIMINATIVE_HIGH_SNR:
                        G = _shared(memo, name, lambda: gain_direct(ch.H, C_yy, 0.0))
                        rule = G, y_bar - G @ x_bar
                    elif name == Provenance.GENERATIVE_ASYMPTOTE:
                        rule = _shared(
                            ch.memo, (name, s2), lambda: _generative_asymptote(ch, ch.known, s2)
                        )
                    else:  # oracle_lmmse and discriminative_asymptote: one population LMMSE rule
                        key = "population LMMSE", sigma2
                        rule = _shared(ch.memo, key, lambda: _oracle(ch, sigma2))
                    out[k, e] = ch.risk(*rule, sigma2)
                except np.linalg.LinAlgError as exc:
                    failures[name] = exc.name if isinstance(exc, SingularMatrixError) else str(exc)
                    exc.with_traceback(None)  # a shared error outlives this frame; unpin it
        cells.append((failures, len(events)))
    return cells


def _outcome(
    ch: _Channel, names, ridge: float, n_t: int, seed: Seed, sigma2: float, known_sigma2=None
) -> TrialOutcome:
    """:func:`_score_cells` at the one noise variance ``sigma2``, as a :class:`TrialOutcome`."""
    out = np.empty((1, len(names)))
    ((failures, warning_count),) = _score_cells(
        ch, names, ridge, n_t, seed, [sigma2], out, known_sigma2
    )
    errors = {name: float(r) for name, r in zip(names, out[0]) if name not in failures}
    return TrialOutcome(errors=errors, failures=failures, warning_count=warning_count)


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

    ``known`` supplies the generative rules' side information, prior and
    noise variance, and may be ``None`` when the generative estimator is not
    requested; the generative asymptote then reads the data's prior and
    noise variance. A construction failure (singular sample covariance) is
    recorded under the estimator's name; remaining estimators still run.
    The training set's sample moments are drawn from ``seed.child(0)`` by
    :func:`~gendisc.synth.draw_training`, the only draw a trial makes, and
    only when a requested rule is trained. A rule's error is its exact risk
    under ``prior`` and ``model``, the true data distribution, from
    ``measurement``: the :func:`~gendisc.estimators.measurement_moments` of
    ``model``, computed here when omitted. A sweep scores its trials with the same code, at
    every noise level of the trial at once.
    """
    names = tuple(Provenance(name).value for name in estimator_names)
    if known is None and Provenance.GENERATIVE.value in names:
        raise ValueError("the generative estimator needs KnownStatistics")
    _check_ridge(ridge)
    ch = _Channel(
        prior, known.prior if known else prior, model.H, model.mu_w, model.nonlinearity, measurement
    )
    return _outcome(ch, names, ridge, n_t, seed, model.sigma2, known and known.sigma2)


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


def _trial(cfg: ExperimentConfig, nt_index: int, trial_index: int, constants) -> tuple:
    """The channel and seed of trial ``trial_index`` of sample-count cell ``nt_index``."""
    prior, known_prior, ch = constants
    seed = cfg.seed.child(_NS_TRIAL, nt_index, trial_index)
    return ch or _channel(cfg, prior, known_prior, seed.child(2)), seed


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
    ch, seed = _trial(cfg, nt_index, trial_index, constants or sweep_constants(cfg))
    return _outcome(ch, cfg.estimator_set, cfg.ridge, point.n_t, seed, point.sigma2)


def _worker_count(cfg: ExperimentConfig) -> int:
    """How many processes to split each sample-count cell's trials across.

    One per usable CPU, but few enough that each share of the sweep costs
    more than a fork (:data:`_FORK_COST`); 1 where ``os.fork`` is missing,
    or while another thread runs, since a fork copies only the calling thread.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    work = len(cfg.nt_grid) * cfg.mc_trials * (1 + len(cfg.snr_grid) * len(cfg.estimator_set))
    return max(1, min(cpus or 1, work // _FORK_COST))


def _score_trials(
    cfg: ExperimentConfig, constants, j: int, sigma2s, scores, start, stop, parent=None
) -> tuple[list[int], list[list]]:
    """Score trials ``start`` to ``stop - 1`` of sample-count cell ``j`` into ``scores``.

    Trial ``t`` is scored by :func:`_score_cells` into ``scores[:, :, t]``.
    Returns the SNR cells' condition-warning counts and their failures as
    runs ``(k, failures, first_trial, count)``, in trial order: ``count``
    failing trials of SNR cell ``k`` with the failure reasons ``failures``
    (see :class:`TrialOutcome`), the first of them ``first_trial``. A trial
    failing as the run before it at ``k`` did extends that run, so a cell
    that fails the same way in every trial costs one run. With ``parent``, a
    worker's, raises ``RuntimeError`` before any trial once that process is
    no longer its parent.
    """
    warning_counts = [0] * len(sigma2s)
    runs: list[list] = []
    last: list = [None] * len(sigma2s)  # each SNR cell's latest run
    for trial in range(start, stop):
        if parent is not None and os.getppid() != parent:
            raise RuntimeError("the sweep's parent process exited")
        ch, seed = _trial(cfg, j, trial, constants)
        cells = _score_cells(
            ch, cfg.estimator_set, cfg.ridge, cfg.nt_grid[j], seed, sigma2s, scores[:, :, trial]
        )
        for k, (failures, warning_count) in enumerate(cells):
            warning_counts[k] += warning_count
            if not failures:
                continue
            if last[k] is not None and last[k][1] == failures:
                last[k][3] += 1
            else:
                last[k] = [k, failures, trial, 1]
                runs.append(last[k])
    return warning_counts, runs


def _work(score: Callable, cells: int, go: int, results: int) -> None:
    """Run a forked worker: send ``score(j)`` for each sample-count cell ``j``, then exit.

    Sends ``(True, score(j))`` over the pipe ``results``, and before each
    cell but the first waits for a byte on the pipe ``go``, stopping at its
    end. On an exception it sends ``(False, traceback)`` instead. Leaves
    only through ``os._exit``, so the worker never returns into its caller,
    flushes no buffer it inherited and runs no exit hook. SIGINT, blocked
    across the fork, is unblocked only inside the ``try``.
    """
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        with os.fdopen(results, "wb") as pipe:
            try:
                for j in range(cells):
                    if j and not os.read(go, 1):
                        break  # the sweep ended early
                    pickle.dump((True, score(j)), pipe)
                    pipe.flush()
                code = 0
            except BaseException:
                pickle.dump((False, traceback.format_exc()), pipe)
    finally:
        os._exit(code)


def _score_split(cfg: ExperimentConfig, constants, sigma2s, scores, workers: int, take) -> None:
    """Score the sweep's sample-count cells in grid order, each split across ``workers`` processes.

    Each cell's trials are cut into ``workers`` contiguous chunks. This
    process scores the first; ``workers - 1`` workers, forked once, score
    the others into ``scores``, which must be backed by shared memory. Once
    every chunk of cell ``j`` is scored, ``take(j, chunks)`` is called with
    the chunks' :func:`_score_trials` results in chunk order, and the
    workers wait for it to return before they overwrite ``scores`` with the
    next cell. Every worker is reaped before this returns or raises; a
    worker that fails or dies raises ``RuntimeError`` here.
    """
    bounds = [cfg.mc_trials * c // workers for c in range(workers + 1)]
    parent = os.getpid()
    procs: list = []  # (pid, results pipe, go pipe) of each worker, in chunk order
    try:
        for c in range(1, workers):
            score = partial(
                _score_trials, cfg, constants, sigma2s=sigma2s, scores=scores,
                start=bounds[c], stop=bounds[c + 1], parent=parent,
            )
            # SIGINT is blocked until every pipe end is owned or closed, so
            # that an interrupt can leak neither a pipe end nor a worker.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            ends: list[int] = []  # pipe ends that this process closes below
            results = None
            try:
                ends += os.pipe()  # the worker's results, read here
                ends += os.pipe()  # its go-ahead for each cell, written here
                results = os.fdopen(ends[0], "rb")
                del ends[0]
                results_w, go_r, go_w = ends
                pid = os.fork()
                if pid == 0:
                    for _, pipe, go in procs + [(pid, results, go_w)]:
                        pipe.close()
                        os.close(go)
                    _work(score, len(cfg.nt_grid), go_r, results_w)
                procs.append((pid, results, go_w))
                results = None
                ends.remove(go_w)
            finally:  # in this process only: a worker leaves _work through os._exit
                for fd in ends:
                    os.close(fd)
                if results is not None:
                    results.close()
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for j in range(len(cfg.nt_grid)):
            if j:
                for _, _, go in procs:
                    with contextlib.suppress(BrokenPipeError):  # a dead worker is reported below
                        os.write(go, b"\0")
            chunks = [_score_trials(cfg, constants, j, sigma2s, scores, bounds[0], bounds[1])]
            for c, (_, results, _) in enumerate(procs, start=1):
                try:
                    ok, message = pickle.load(results)
                except EOFError:
                    ok, message = False, "it exited without a result"
                if not ok:
                    raise RuntimeError(
                        f"sweep worker for trials {bounds[c]} to {bounds[c + 1] - 1} of "
                        f"sample-count cell {j} failed: {message}"
                    )
                chunks.append(message)
            take(j, chunks)
    finally:
        for pid, results, go in procs:
            os.kill(pid, signal.SIGKILL)
            results.close()
            os.close(go)
            os.waitpid(pid, 0)


def sweep(cfg: ExperimentConfig) -> MseReport:
    """MSE of every requested estimator across the config's swept grid.

    ``nt_grid`` is swept at the single SNR when it has several entries,
    otherwise ``snr_grid`` at the single sample count. Each trial of a
    sample-count cell is drawn once and scored at every SNR, so the SNR
    cells of a trial share its H and training randomness. Each sample-count
    cell's trials are split across processes, one per usable CPU when the
    work pays for the forks (:func:`_worker_count`) and no more than the
    memory budget holds with a training draw in flight in each; the result
    is the same bits for any number of them. Raises ``ValueError`` listing
    every violation when the config is not runnable, and ``RuntimeError``
    when a worker process fails.
    """
    cfg.validate()
    sweep_name, points = sweep_points(cfg)
    constants = sweep_constants(cfg)
    sigma2s = [1.0 / snr for snr in cfg.snr_grid]
    names = cfg.estimator_set
    draws_in_budget = (_BYTE_BUDGET - _score_bytes(cfg)) // _draw_bytes(cfg)
    workers = max(1, min(_worker_count(cfg), cfg.mc_trials, draws_in_budget))
    # Each trial's scores go to its own index of one row per SNR cell and
    # estimator, NaN where the rule failed, in memory the workers share.
    shape = (len(sigma2s), len(names), cfg.mc_trials)
    scores = np.frombuffer(mmap.mmap(-1, _score_bytes(cfg)), dtype=float).reshape(shape)
    rows: list[MseRow] = []
    cells_meta: list[dict] = []

    def take(j: int, chunks: list) -> None:
        """Tally sample-count cell ``j``'s chunks in trial order and summarize its SNR cells."""
        reasons: list[dict[str, dict[str, dict]]] = [{} for _ in sigma2s]
        warning_counts = [0] * len(sigma2s)
        for chunk_warnings, runs in chunks:
            for k, count in enumerate(chunk_warnings):
                warning_counts[k] += count
            for k, failures, first_trial, count in runs:
                for name, why in failures.items():
                    reason = reasons[k].setdefault(name, {}).setdefault(
                        why, {"count": 0, "first_trial": first_trial}
                    )
                    reason["count"] += count
        for k in range(len(sigma2s)):
            point = points[j + k]  # one of the grids has a single entry, so j or k is 0
            value = point.n_t if sweep_name == "nt" else point.snr
            failed = {}
            for e, name in enumerate(names):
                row = scores[k, e]
                ok = row[~np.isnan(row)]
                stat = compute_mse(ok)
                mean, se = stat if stat is not None else (None, None)
                if ok.size < cfg.mc_trials:
                    failed[name] = cfg.mc_trials - ok.size
                rows.append(
                    MseRow(
                        sweep_name=sweep_name,
                        sweep_value=value,
                        estimator=name,
                        mean_mse=mean,
                        std_err=se,
                        trials_ok=ok.size,
                        trials_failed=cfg.mc_trials - ok.size,
                    )
                )
            cells_meta.append(
                {
                    "sweep_value": value,
                    "condition_warnings": warning_counts[k],
                    "failures": failed,
                    "failure_reasons": reasons[k],
                }
            )

    _score_split(cfg, constants, sigma2s, scores, workers, take)
    metadata = {"sweep": sweep_name, "cells": cells_meta}
    return MseReport(rows=tuple(rows), metadata=metadata, workers=workers)
