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
:func:`sweep` cuts the trials into contiguous chunks, one per usable CPU,
with the same cut in every sample-count cell: it scores the first chunk of
every cell itself and each other chunk in a worker process, forked once per
sweep; each trial is scored at every SNR. The workers write their scores
into memory the processes share and, once they have scored every cell,
send back in one message only each cell's tally: its condition-warning
count and its failure count per rule and reason. The tallies are merged
in trial order, so the report is the same bits for any number of
workers. A trial's randomness comes from a counter-based child seed of
(sample-count cell, trial), so results do not depend on the order
trials run in, nor on which other SNRs share the grid; construction
failures (singular sample covariances at small sample counts, non-finite
moments) are recorded per cell rather than aborting the sweep. Memory is
one float64 score per trial, estimator and cell of the sweep, kept at the
trial's index with NaN for a failure, plus failure counts grouped by
reason, each with the first trial it struck so that it can be replayed
with :func:`run_trial`, the one-SNR case of the same code.
"""

from __future__ import annotations

import contextlib
import itertools
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
    _is_int,
    _is_real,
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
# population moment matrices, and the float64 scores of every cell of the sweep,
# one per trial and estimator, held together until it ends. Configs past
# it are rejected before anything is allocated; :func:`sweep` runs no more
# processes, each with a draw in flight, than fit in it beside the scores.
# The failure tallies are left out: per cell they hold a count per rule and
# failure reason, however many trials fail.
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
    generative estimator, never in data generation. Construction never
    raises: a field of the wrong type is kept as given, and
    :meth:`violations` names it with every other problem.
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
        # Lists become tuples, and entries and values of the types violations()
        # asks for take one canonical type; anything else is left for it to name.
        for name, ok, cast in (("snr_grid", _is_real, float), ("nt_grid", _is_count, int)):
            value = getattr(self, name)
            if isinstance(value, (list, tuple, range)):
                object.__setattr__(self, name, tuple(cast(v) if ok(v) else v for v in value))
        if isinstance(self.estimator_set, list):
            object.__setattr__(self, "estimator_set", tuple(self.estimator_set))
        if _is_real(self.ridge):
            object.__setattr__(self, "ridge", float(self.ridge))
        if not isinstance(self.seed, Seed):
            with contextlib.suppress(ValueError):
                object.__setattr__(self, "seed", Seed(self.seed))

    def violations(self) -> list[str]:
        """All violated invariants, types included, empty when the config is runnable.

        Never raises, whatever the fields hold.
        """
        problems = []
        for name in ("n_x", "n_y", "mc_trials"):
            value = getattr(self, name)
            if not _is_int(value):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif value < 1:
                problems.append(f"{name} must be >= 1, got {value}")
        snr_ok = _entries_are(self.snr_grid, _is_real)
        if not snr_ok:
            problems.append(f"snr_grid must be a list of numbers, got {self.snr_grid!r}")
        elif not self.snr_grid:
            problems.append("snr_grid must be nonempty")
        elif any(not (0.0 < s < float("inf")) for s in self.snr_grid):
            problems.append("snr_grid entries must be finite and positive")
        elif any(1.0 / s == float("inf") for s in self.snr_grid):
            problems.append("snr_grid entries must be large enough that 1/snr is finite")
        names_ok = _entries_are(self.estimator_set, lambda e: isinstance(e, str))
        if not names_ok:
            problems.append(f"estimator_set must be a list of names, got {self.estimator_set!r}")
        elif not self.estimator_set:
            problems.append("estimator_set must be nonempty")
        else:
            valid_names = {p.value for p in Provenance}
            unknown = [e for e in self.estimator_set if e not in valid_names]
            if unknown:
                problems.append(f"unknown estimators in estimator_set: {unknown}")
            if len(set(self.estimator_set)) != len(self.estimator_set):
                problems.append("estimator_set contains duplicates")
        sizes_ok = all(_is_int(v) for v in (self.n_x, self.n_y, self.mc_trials))
        nt_ok = _entries_are(self.nt_grid, _is_count)
        if not nt_ok:
            problems.append(f"nt_grid must be a list of integers, got {self.nt_grid!r}")
        elif not self.nt_grid:
            problems.append("nt_grid must be nonempty")
        elif any(n < 1 for n in self.nt_grid):
            problems.append("nt_grid entries must be >= 1")
        elif sizes_ok and snr_ok and names_ok and min(self.n_x, self.n_y) >= 1:
            need = _draw_bytes(self) + _score_bytes(self)
            if need > _BYTE_BUDGET:
                problems.append(
                    # capped so that an integer past the float range still formats
                    f"a sweep needs about {min(need, 1e300):.3g} bytes for a trial's n_t x "
                    "(n_x + n_y) training draw and (n_x + n_y)^2 moment matrices and the "
                    "mc_trials x len(estimator_set) x len(snr_grid) x len(nt_grid) scores of "
                    f"every cell, over the {_BYTE_BUDGET:.3g} budget"
                )
        if snr_ok and nt_ok and len(self.snr_grid) > 1 and len(self.nt_grid) > 1:
            problems.append(
                "snr_grid/nt_grid: exactly one grid may have multiple entries "
                f"(got {len(self.snr_grid)} SNRs and {len(self.nt_grid)} sample counts)"
            )
        if not isinstance(self.seed, Seed):
            problems.append(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (isinstance(self.prior_mode, str) and self.prior_mode in PRIOR_MODES):
            problems.append(f"prior_mode must be one of {PRIOR_MODES}, got {self.prior_mode!r}")
        if not (isinstance(self.h_mode, str) and self.h_mode in H_MODES):
            problems.append(f"h_mode must be one of {H_MODES}, got {self.h_mode!r}")
        if not isinstance(self.nonlinearity, Nonlinearity):
            problems.append(f"nonlinearity must be Linear, Tanh or Cubic, got {self.nonlinearity!r}")
        if not _is_real(self.ridge):
            problems.append(f"ridge must be a number, got {self.ridge!r}")
        elif not (np.isfinite(self.ridge) and self.ridge >= 0.0):
            problems.append(f"ridge must be finite and nonnegative, got {self.ridge}")
        return problems

    def validate(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("invalid experiment config: " + "; ".join(problems))


def _entries_are(values, check: Callable[[object], bool]) -> bool:
    """Whether ``values`` is a tuple whose every entry passes ``check``."""
    return isinstance(values, tuple) and all(check(v) for v in values)


def _is_count(n) -> bool:
    """Whether ``n`` is an integer, or a float with an integral value such as ``1e3``."""
    return _is_int(n) or (isinstance(n, float) and n.is_integer())


def _draw_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of one trial's training draw and moment matrices at the largest sample count."""
    d = cfg.n_x + cfg.n_y
    return 8 * d * (max(cfg.nt_grid) + d)


def _score_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of the float64 scores of a sweep: per sample count, SNR, estimator and trial."""
    trials = max(cfg.mc_trials, 0)
    return 8 * trials * len(cfg.estimator_set) * len(cfg.snr_grid) * len(cfg.nt_grid)


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

    def __init__(self, prior, known, H, mu_w, nonlinearity):
        super().__init__(prior, H, mu_w, nonlinearity)
        self.known = known
        self.memo: dict = {}


def _score_cells(
    ch: _Channel, names, ridge: float, n_t: int, seed: Seed, sigma2s, out
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
    The generative rule and its asymptote are built at the cell's own noise
    variance. The arithmetic is that of the public constructors and
    :func:`~gendisc.estimators.affine_risk`, without their input checks.
    """
    draw = None
    if not _TRAINED.isdisjoint(names):
        draw = draw_training(ch.prior, ch, n_t, seed.child(0))
    memo: dict = {}
    cells = []
    for k, sigma2 in enumerate(sigma2s):
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
                        rule = _generative(H_hat, ch.known, sigma2, x_bar, y_bar)
                    elif name == Provenance.DISCRIMINATIVE:
                        rule = _lmmse(C_xx, C_yx, x_bar, y_bar, ridge, "input sample covariance")
                    elif name == Provenance.GENERATIVE_HIGH_SNR:
                        G = _shared(ch.memo, name, lambda: gain_direct(ch.H, ch.known.C_yy, 0.0))
                        rule = G, _generative_offset(G, ch.known.mu_y, x_bar, y_bar, ch.H)
                    elif name == Provenance.DISCRIMINATIVE_HIGH_SNR:
                        G = _shared(memo, name, lambda: gain_direct(ch.H, C_yy, 0.0))
                        rule = G, y_bar - G @ x_bar
                    elif name == Provenance.GENERATIVE_ASYMPTOTE:
                        key = name, sigma2
                        build = partial(_generative_asymptote, ch, ch.known, sigma2)
                        rule = _shared(ch.memo, key, build)
                    else:  # oracle_lmmse and discriminative_asymptote: one population LMMSE rule
                        key = "population LMMSE", sigma2
                        rule = _shared(ch.memo, key, lambda: _oracle(ch, sigma2))
                    out[k, e] = ch.risk(*rule, sigma2)
                except np.linalg.LinAlgError as exc:
                    failures[name] = exc.name if isinstance(exc, SingularMatrixError) else str(exc)
                    exc.with_traceback(None)  # a shared error outlives this frame; unpin it
        cells.append((failures, len(events)))
    return cells


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
    Raises ``ValueError`` listing every violation when the config is not
    runnable.
    """
    cfg.validate()
    sweep_name, _ = sweep_points(cfg)
    nt_index = point.index if sweep_name == "nt" else 0
    ch, seed = _trial(cfg, nt_index, trial_index, constants or sweep_constants(cfg))
    names = cfg.estimator_set
    out = np.empty((1, len(names)))
    ((failures, warning_count),) = _score_cells(
        ch, names, cfg.ridge, point.n_t, seed, [point.sigma2], out
    )
    errors = {name: float(r) for name, r in zip(names, out[0]) if name not in failures}
    return TrialOutcome(errors=errors, failures=failures, warning_count=warning_count)


def _worker_count(cfg: ExperimentConfig) -> int:
    """How many processes to split every sample-count cell's trials across.

    One per usable CPU, but few enough that each share of the sweep costs
    more than a fork (:data:`_FORK_COST`); 1 where ``os.fork`` is missing,
    or while another thread runs, since a fork copies only the calling thread.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    work = len(cfg.nt_grid) * cfg.mc_trials * (1 + len(cfg.snr_grid) * len(cfg.estimator_set))
    return max(1, min(cpus or 1, work // _FORK_COST))


def _count(reasons: dict, name: str, why: str, count: int, first_trial: int) -> None:
    """Add ``count`` failures of rule ``name`` for reason ``why`` to a tally's ``reasons``.

    ``first_trial`` is kept only by the first count of the reason, so counts
    added in trial order keep the first trial it struck.
    """
    seen = reasons.setdefault(name, {}).setdefault(why, {"count": 0, "first_trial": first_trial})
    seen["count"] += count


def _score_trials(
    cfg: ExperimentConfig, constants, j: int, sigma2s, scores, start, stop, parent=None
) -> list[dict]:
    """Score trials ``start`` to ``stop - 1`` of sample-count cell ``j`` into ``scores``.

    Trial ``t`` is scored by :func:`_score_cells` into ``scores[:, :, t]``.
    Returns each SNR cell's tally as the manifest prints it: its
    ``condition_warnings`` count and its ``failure_reasons``, per rule and
    reason (see :class:`TrialOutcome`) the ``count`` of failing trials and
    the ``first_trial`` among them, so that its size does not grow with the
    trials. With ``parent``, a worker's, raises ``RuntimeError`` before any
    trial once that process is no longer its parent.
    """
    tallies = [{"condition_warnings": 0, "failure_reasons": {}} for _ in sigma2s]
    for trial in range(start, stop):
        if parent is not None and os.getppid() != parent:
            raise RuntimeError("the sweep's parent process exited")
        ch, seed = _trial(cfg, j, trial, constants)
        cells = _score_cells(
            ch, cfg.estimator_set, cfg.ridge, cfg.nt_grid[j], seed, sigma2s, scores[:, :, trial]
        )
        for tally, (failures, warning_count) in zip(tallies, cells):
            tally["condition_warnings"] += warning_count
            for name, why in failures.items():
                _count(tally["failure_reasons"], name, why, 1, trial)
    return tallies


def _work(score: Callable, cells: int, results: int) -> None:
    """Run a forked worker: score each sample-count cell, send one message, then exit.

    Sends ``(True, [score(j) for j in range(cells)])``, each cell's SNR
    tallies, over the pipe ``results`` once every cell is scored or, when
    cell ``j`` raises, ``(False, (j, traceback))``. Leaves only through
    ``os._exit``, so the worker never returns into its caller, flushes no
    buffer it inherited and runs no exit hook. SIGINT, blocked across the fork, is unblocked
    only inside the ``try``.
    """
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        with os.fdopen(results, "wb") as pipe:
            done: list = []
            try:
                for j in range(cells):
                    done.append(score(j))
                message = True, done
            except BaseException:
                message = False, (len(done), traceback.format_exc())
            pickle.dump(message, pipe)
            code = 0 if message[0] else 1
    finally:
        os._exit(code)


def _score_split(cfg: ExperimentConfig, constants, sigma2s, scores, workers: int) -> list[list]:
    """Score every sample-count cell's trials, each cell split across ``workers`` processes.

    Each cell's trials are cut into the same ``workers`` contiguous chunks.
    This process scores the first chunk of every cell; ``workers - 1``
    workers, forked once, score the others into ``scores[j]``, which must be
    backed by shared memory, and each sends its :func:`_score_trials`
    tallies once, when it has scored every cell. They are added, by
    :func:`_count`, to this process's own in chunk order, which is trial
    order. Returns, per sample-count cell in grid order, its merged SNR
    tallies. Every worker is reaped before this returns or raises; a worker
    that fails or dies raises ``RuntimeError`` here, once this process has
    scored its own chunk.
    """
    bounds = [cfg.mc_trials * c // workers for c in range(workers + 1)]
    cells = len(cfg.nt_grid)
    parent = os.getpid()

    def score(c: int, j: int, parent=None) -> list[dict]:
        """Chunk ``c`` of sample-count cell ``j``, by :func:`_score_trials`."""
        return _score_trials(
            cfg, constants, j, sigma2s, scores[j], bounds[c], bounds[c + 1], parent=parent
        )

    procs: list = []  # (pid, results pipe) of each worker, in chunk order
    try:
        for c in range(1, workers):
            # SIGINT is blocked until both pipe ends are owned or closed, so
            # that an interrupt can leak neither a pipe end nor a worker.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            ends: list[int] = []  # pipe ends that this process closes below
            results = None
            try:
                ends += os.pipe()  # the worker's results, read here
                results = os.fdopen(ends[0], "rb")
                del ends[0]
                pid = os.fork()
                if pid == 0:
                    for _, pipe in procs + [(pid, results)]:
                        pipe.close()
                    _work(partial(score, c, parent=parent), cells, ends[0])
                procs.append((pid, results))
                results = None
            finally:  # in this process only: a worker leaves _work through os._exit
                for fd in ends:
                    os.close(fd)
                if results is not None:
                    results.close()
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        tallies = [score(0, j) for j in range(cells)]
        for c, (_, results) in enumerate(procs, start=1):
            try:
                ok, message = pickle.load(results)
            except EOFError:
                ok, message = False, (None, "it exited without a result")
            if not ok:
                j, why = message
                where = "" if j is None else f" of sample-count cell {j}"  # None: it died
                raise RuntimeError(
                    f"sweep worker for trials {bounds[c]} to {bounds[c + 1] - 1}{where} "
                    f"failed: {why}"
                )
            for theirs, ours in zip(itertools.chain(*message), itertools.chain(*tallies)):
                ours["condition_warnings"] += theirs["condition_warnings"]
                for name, whys in theirs["failure_reasons"].items():
                    for why, seen in whys.items():
                        _count(ours["failure_reasons"], name, why, **seen)
        return tallies
    finally:
        for pid, results in procs:
            os.kill(pid, signal.SIGKILL)
            results.close()
            os.waitpid(pid, 0)


def sweep(cfg: ExperimentConfig) -> MseReport:
    """MSE of every requested estimator across the config's swept grid.

    ``nt_grid`` is swept at the single SNR when it has several entries,
    otherwise ``snr_grid`` at the single sample count. Each trial of a
    sample-count cell is drawn once and scored at every SNR, so the SNR
    cells of a trial share its H and training randomness. The trials of
    every sample-count cell are split across processes, one per usable CPU
    when the work pays for the forks (:func:`_worker_count`) and no more
    than the memory budget holds with a training draw in flight in each;
    once all are scored, each cell's tallies are merged in trial order, so
    the result is the same bits for any number of them. Raises ``ValueError``
    listing every violation when the config is not runnable, and
    ``RuntimeError`` when a worker process fails.
    """
    cfg.validate()
    sweep_name, points = sweep_points(cfg)
    constants = sweep_constants(cfg)
    sigma2s = [1.0 / snr for snr in cfg.snr_grid]
    names = cfg.estimator_set
    draws_in_budget = (_BYTE_BUDGET - _score_bytes(cfg)) // _draw_bytes(cfg)
    workers = max(1, min(_worker_count(cfg), cfg.mc_trials, draws_in_budget))
    # Each trial's scores go to its own index of one row per sample-count
    # cell, SNR cell and estimator, NaN where the rule failed, in memory the
    # workers share.
    shape = (len(cfg.nt_grid), len(sigma2s), len(names), cfg.mc_trials)
    scores = np.frombuffer(mmap.mmap(-1, _score_bytes(cfg)), dtype=float).reshape(shape)
    tallies = _score_split(cfg, constants, sigma2s, scores, workers)
    rows: list[MseRow] = []
    cells_meta: list[dict] = []
    for j, cell_tallies in enumerate(tallies):
        for k, tally in enumerate(cell_tallies):
            point = points[j + k]  # one of the grids has a single entry, so j or k is 0
            value = point.n_t if sweep_name == "nt" else point.snr
            failed = {}
            for e, name in enumerate(names):
                row = scores[j, k, e]
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
                    "condition_warnings": tally["condition_warnings"],
                    "failures": failed,
                    "failure_reasons": tally["failure_reasons"],
                }
            )
    metadata = {"sweep": sweep_name, "cells": cells_meta}
    return MseReport(rows=tuple(rows), metadata=metadata, workers=workers)
