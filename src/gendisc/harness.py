"""Seeded Monte Carlo engine for MSE-versus-SNR and MSE-versus-sample-size sweeps.

Each trial draws a fresh measurement matrix (unless frozen by ``h_mode``)
and a fresh training set per sample-count cell, and scores every requested
estimator at every SNR of the grid by its exact risk under the true data
distribution (:func:`~gendisc.estimators.affine_risk`), so no test pair is
drawn and a cell's standard error covers only the training draws and H. The
training set is drawn as its sample moments
(:func:`~gendisc.synth.draw_training`), free of the noise level, so the SNR
cells of a trial share it, and its sample-count cells share its H (common
random numbers).
A trial is scored on plain arrays, by the formulas the public constructors
use but without their input checks: inputs are checked where they enter (the
config, the public functions), never per cell. What does not depend on the
noise is computed once and shared through one keyed memo, :func:`_shared`: a
memo of the trial keeps the target sample covariance's factor and the
discriminative vanishing-noise gain, and the ``memo`` of the trial's channel
keeps the generative vanishing-noise gain and each untrained rule's score
per noise variance; the channel also holds the population moments of the map
and the population fit C_xy C_yy^{-1}, a solve that can neither fail nor
warn. A shared result's failures and condition warnings are counted in every
cell that uses it. The oracle is the population LMMSE under every map, so it
is also the discriminative rule's large-sample limit. The generative
asymptote is the generative rule built from the population fit and means,
with the generative rule's side information, by the helper its public
constructor uses.
A sweep names a cell by one flat index, ``j * len(snr_grid) + k`` for
sample-count cell ``j`` and SNR cell ``k``, and takes every trial's channel
from one source, :func:`_channels`, built once per sweep: a channel is made
per trial, or once per sweep when H is frozen.
:func:`sweep` cuts the trials into contiguous chunks, one per usable CPU: it
scores the first chunk itself and each other chunk in a worker process,
forked once per sweep; each trial is scored in every cell. The workers write
their scores into memory the processes share and, once they have scored
their chunk, send back in one message only each cell's tally: its
condition-warning count and its failure count per rule and reason. The
tallies are merged in trial order, so the report is the same bits for any
number of workers. A trial's randomness comes from counter-based child
seeds, of (sample-count cell 0, trial) for H and of (sample-count cell,
trial) for a training draw, so results do not depend on the order trials run
in, nor on which other SNRs share the grid; construction failures (singular
sample covariances at small sample counts, non-finite moments) are recorded
per cell rather than aborting the sweep. Memory is one float64 score per
trial, estimator and cell of the sweep, kept at the trial's index with NaN
for a failure, plus failure counts grouped by reason, each with the first
trial it struck so that it can be replayed with :func:`run_trial`, the
one-cell case of the same code. :func:`swept_grid` alone decides which grid
a sweep runs along and labels the report's rows; since one of the grids has
a single entry, the flat cell index is the index of the swept grid's entry.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal
import threading
import traceback
import warnings
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
    IllConditionedWarning,
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
    nonlinearity_from_dict,
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
    of ``snr_grid`` / ``nt_grid`` may hold more than one value, and neither
    repeats an entry; that grid is swept (:func:`swept_grid`) and the other
    supplies the fixed parameter. ``prior_mode == "identity_mismatch"``
    replaces the prior covariance by the identity inside the side
    information handed to the generative estimator, never in data
    generation. ``nonlinearity`` may be given as a map or in its JSON form,
    a kind string or a dict (see
    :func:`~gendisc.synth.nonlinearity_from_dict`), which is parsed; an
    integer ``seed`` becomes a :class:`~gendisc.synth.Seed`. Construction
    never raises: a field of the wrong type, or a map that does not parse,
    is kept as given, and :meth:`violations` names it with every other
    problem. This is the one place a config is checked; a config file adds
    only the checks that it is a JSON object and that it has no unknown key.
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
        if not isinstance(self.nonlinearity, Nonlinearity):
            with contextlib.suppress(ValueError):
                object.__setattr__(self, "nonlinearity", nonlinearity_from_dict(self.nonlinearity))

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
        elif len(set(self.snr_grid)) != len(self.snr_grid):
            problems.append("snr_grid contains duplicates")
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
            if "discriminative_asymptote" in unknown:
                problems.append("discriminative_asymptote is retired: list oracle_lmmse, the same rule")
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
        elif len(set(self.nt_grid)) != len(self.nt_grid):
            problems.append("nt_grid contains duplicates")
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
            try:
                nonlinearity_from_dict(self.nonlinearity)
            except ValueError as exc:
                problems.append(str(exc))
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
    sweep_value: float | int
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
    trial for all its sample-count cells, or once per sweep when H is
    frozen, so that what rests on H alone is computed once per H: the
    truth's products, the population fit among them, and, kept in ``memo``
    by :func:`_shared`, the generative high-SNR gain and, per noise
    variance, each untrained rule's score.
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
    variance; each untrained rule is scored once per channel and noise
    variance, in ``ch.memo``. The arithmetic is that of the public
    constructors and :func:`~gendisc.estimators.affine_risk`, without their
    input checks.
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
                        build = partial(_generative_asymptote, ch, ch.known)
                    else:
                        build = partial(_oracle, ch)
                    if name in _TRAINED:
                        out[k, e] = ch.risk(*rule, sigma2)
                    else:  # an untrained rule is scored once per channel and noise variance
                        key = (name, sigma2)
                        out[k, e] = _shared(ch.memo, key, lambda: ch.risk(*build(sigma2), sigma2))
                except np.linalg.LinAlgError as exc:
                    failures[name] = exc.name if isinstance(exc, SingularMatrixError) else str(exc)
                    exc.with_traceback(None)  # a shared error outlives this frame; unpin it
        cells.append((failures, len(events)))
    return cells


def _channels(cfg: ExperimentConfig) -> Callable[[int], _Channel]:
    """A sweep's channel source: the map from a trial index to that trial's :class:`_Channel`.

    Built once per sweep. Every channel shares the data prior and the
    generative side information ``known``, the identity under
    ``prior_mode == "identity_mismatch"``. Trial ``t``'s measurement matrix
    is drawn from (master, 0, 0, t, 2), sample-count cell 0's stream, or,
    when ``h_mode == "fixed_once"``, one channel, drawn here from (master,
    1), serves every trial.
    """
    prior = exp_decay_prior(cfg.n_y)
    if cfg.prior_mode == "identity_mismatch":
        known = GaussianPrior(mu_y=np.zeros(cfg.n_y), C_yy=np.eye(cfg.n_y))
    else:
        known = prior

    def channel(seed: Seed) -> _Channel:
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, seed)
        return _Channel(prior, known, H, np.zeros(cfg.n_x), cfg.nonlinearity)

    if cfg.h_mode == "fixed_once":
        fixed = channel(cfg.seed.child(_NS_FIXED_H))
        return lambda trial: fixed
    return lambda trial: channel(cfg.seed.child(_NS_TRIAL, 0, trial, 2))


def swept_grid(cfg: ExperimentConfig) -> tuple[str, tuple]:
    """The swept grid's name and entries, a cell index naming an entry.

    ``("nt", cfg.nt_grid)``, swept at the single SNR, when ``nt_grid`` has
    several entries, otherwise ``("snr", cfg.snr_grid)`` at the single sample
    count.
    """
    return ("nt", cfg.nt_grid) if len(cfg.nt_grid) > 1 else ("snr", cfg.snr_grid)


def run_trial(cfg: ExperimentConfig, cell: int, trial_index: int) -> TrialOutcome:
    """Run one Monte Carlo trial at cell ``cell`` of the swept grid (:func:`swept_grid`).

    Deterministic in (cfg, cell, trial_index), and bitwise equal to the
    outcome :func:`sweep` scored for that cell and trial. The cell is the
    flat index ``j * len(snr_grid) + k`` of sample-count cell ``j`` and SNR
    cell ``k``; one of the grids has a single entry, so it is the index of
    the swept grid's entry. The trial's training draw comes from the child
    stream (master, 0, j, trial index), so every SNR cell shares the trial's
    draws, and its channel from :func:`_channels`. Raises ``ValueError``
    listing every violation when the config is not runnable, or naming
    ``cell`` or ``trial`` when it is not an index of the swept grid or of the
    config's ``mc_trials`` trials.
    """
    cfg.validate()
    cells = len(cfg.nt_grid) * len(cfg.snr_grid)
    for name, index, count in (("cell", cell, cells), ("trial", trial_index, cfg.mc_trials)):
        if not (_is_int(index) and 0 <= index < count):
            raise ValueError(f"{name} must be an integer in [0, {count}), got {index!r}")
    j, k = divmod(cell, len(cfg.snr_grid))
    seed = cfg.seed.child(_NS_TRIAL, j, trial_index)
    names = cfg.estimator_set
    ch = _channels(cfg)(trial_index)
    out = np.empty((1, len(names)))
    ((failures, warning_count),) = _score_cells(
        ch, names, cfg.ridge, cfg.nt_grid[j], seed, [1.0 / cfg.snr_grid[k]], out
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
    cfg: ExperimentConfig, channels, sigma2s, scores, start, stop, parent=None
) -> list[dict]:
    """Score trials ``start`` to ``stop - 1`` of every cell into ``scores``.

    Trial ``t`` takes its channel from ``channels`` (:func:`_channels`), on
    which each sample-count cell ``j`` scores it by :func:`_score_cells`
    into ``scores[j*K:(j+1)*K, :, t]``, ``K`` the number of SNR cells.
    Returns each cell's tally, in flat cell order, as the manifest prints
    it: its ``condition_warnings`` count and its ``failure_reasons``, per
    rule and reason (see :class:`TrialOutcome`) the ``count`` of failing
    trials and the ``first_trial`` among them, so that its size does not
    grow with the trials. An error raised in sample-count cell ``j`` gets
    ``j`` as its ``cell`` attribute. With ``parent``, a worker's, raises
    ``RuntimeError`` before any trial once that process is no longer its
    parent.
    """
    names, ridge, K = cfg.estimator_set, cfg.ridge, len(sigma2s)
    tallies = [{"condition_warnings": 0, "failure_reasons": {}} for _ in scores]
    for trial in range(start, stop):
        if parent is not None and os.getppid() != parent:
            raise RuntimeError("the sweep's parent process exited")
        ch = channels(trial)
        for j, n_t in enumerate(cfg.nt_grid):
            seed = cfg.seed.child(_NS_TRIAL, j, trial)
            cells = slice(j * K, (j + 1) * K)
            try:
                scored = _score_cells(ch, names, ridge, n_t, seed, sigma2s, scores[cells, :, trial])
            except BaseException as exc:
                exc.cell = j
                raise
            for tally, (failures, warning_count) in zip(tallies[cells], scored):
                tally["condition_warnings"] += warning_count
                for name, why in failures.items():
                    _count(tally["failure_reasons"], name, why, 1, trial)
    return tallies


def _work(score: Callable, results: int) -> None:
    """Run a forked worker: score its chunk of trials, send one message, then exit.

    Sends ``(True, score())``, each cell's tally, over the pipe ``results``
    or, when scoring raises, ``(False, (j, traceback))`` with ``j`` the
    error's sample-count ``cell``, 0 if it has none (a trial's channel is
    drawn from sample-count cell 0's stream). Leaves only through
    ``os._exit``, so the worker never returns into its caller, flushes no
    buffer it inherited and runs no exit hook. SIGINT, blocked across the
    fork, is unblocked only inside the ``try``.
    """
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        with os.fdopen(results, "wb") as pipe:
            try:
                message = True, score()
            except BaseException as exc:
                message = False, (getattr(exc, "cell", 0), traceback.format_exc())
            pickle.dump(message, pipe)
            code = 0 if message[0] else 1
    finally:
        os._exit(code)


def _score_split(cfg: ExperimentConfig, channels, sigma2s, scores, workers: int) -> list[dict]:
    """Score every cell's trials, split across ``workers`` processes.

    The trials are cut into ``workers`` contiguous chunks, each scored in
    every cell by :func:`_score_trials` on the channels of ``channels``
    (:func:`_channels`). This process scores the first chunk; ``workers -
    1`` workers, forked once, score the others into ``scores``, which must
    be backed by shared memory, and each sends its tallies once, when it has
    scored its chunk. They are added, by :func:`_count`, to this process's
    own in chunk order, which is trial order. Returns each cell's merged
    tally, in flat cell order. Every worker is reaped before this returns or
    raises. A worker that cannot be started (no pipe or no process to be
    had) raises ``RuntimeError`` naming its chunk at once; one that fails,
    dies or sends a truncated message raises it once this process has
    scored its own chunk.
    """
    bounds = [cfg.mc_trials * c // workers for c in range(workers + 1)]
    parent = os.getpid()

    def score(c: int, parent=None) -> list[dict]:
        """Chunk ``c`` of every cell, by :func:`_score_trials`."""
        return _score_trials(cfg, channels, sigma2s, scores, *bounds[c : c + 2], parent=parent)

    def worker(c: int) -> str:
        """What an error calls the worker of chunk ``c``."""
        return f"sweep worker for trials {bounds[c]} to {bounds[c + 1] - 1}"

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
                    _work(partial(score, c, parent=parent), ends[0])
                procs.append((pid, results))
                results = None
            except OSError as exc:  # os.pipe or os.fork, e.g. at a process limit
                raise RuntimeError(f"{worker(c)} could not start: {exc}") from exc
            finally:  # in this process only: a worker leaves _work through os._exit
                for fd in ends:
                    os.close(fd)
                if results is not None:
                    results.close()
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        tallies = score(0)
        for c, (_, results) in enumerate(procs, start=1):
            try:
                ok, message = pickle.load(results)
            except (EOFError, pickle.UnpicklingError):  # it died, perhaps mid-message
                ok, message = False, (None, "it exited without a result")
            if not ok:
                j, why = message
                where = "" if j is None else f" of sample-count cell {j}"  # None: it died
                raise RuntimeError(f"{worker(c)}{where} failed: {why}")
            for theirs, ours in zip(message, tallies):
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

    Cell ``i`` is the flat index ``j * len(snr_grid) + k`` of sample-count
    cell ``j`` and SNR cell ``k``, the index :func:`run_trial` takes. Its
    rows are labelled with entry ``i`` of :func:`swept_grid`'s grid,
    ``nt_grid`` at the single SNR when it has several entries and
    ``snr_grid`` at the single sample count otherwise. Each trial takes its
    channel from one :func:`_channels`; in each sample-count cell it is drawn
    once and scored at every SNR, so the SNR cells of a trial share its H and
    training randomness, and its sample-count cells share its H. The trials
    are split across processes, one per usable CPU when the work pays for
    the forks (:func:`_worker_count`) and no more than the memory budget
    holds with a training draw in flight in each; once all are scored, each
    cell's tallies are merged in trial order, so the result is the same bits
    for any number of them. Ill-conditioned factors are counted in each cell's
    ``condition_warnings`` and emit no :class:`IllConditionedWarning`; the
    caller's warning filters are restored afterwards. Raises ``ValueError``
    listing every violation when the config is not runnable, and
    ``RuntimeError`` when a worker process cannot start or fails.
    """
    cfg.validate()
    sweep_name, grid = swept_grid(cfg)
    channels = _channels(cfg)
    sigma2s = [1.0 / snr for snr in cfg.snr_grid]
    names = cfg.estimator_set
    draws_in_budget = (_BYTE_BUDGET - _score_bytes(cfg)) // _draw_bytes(cfg)
    workers = max(1, min(_worker_count(cfg), cfg.mc_trials, draws_in_budget))
    # Each trial's scores go to its own index of one row per cell, flat
    # (sample-count cell, SNR cell), and estimator, NaN where the rule
    # failed, in memory the workers share.
    shape = (len(cfg.nt_grid) * len(sigma2s), len(names), cfg.mc_trials)
    scores = np.frombuffer(mmap.mmap(-1, _score_bytes(cfg)), dtype=float).reshape(shape)
    with warnings.catch_warnings():
        # Counted per cell in the report instead: a warning per factor would
        # flood stderr, and grow the caller's warning registry with the trials.
        # Set before the fork, so the workers inherit it.
        warnings.simplefilter("ignore", IllConditionedWarning)
        tallies = _score_split(cfg, channels, sigma2s, scores, workers)
    rows: list[MseRow] = []
    cells_meta: list[dict] = []
    # One of the grids has a single entry, so the flat cells are the swept grid's.
    for value, tally, cell_scores in zip(grid, tallies, scores):
        failed = {}
        for name, row in zip(names, cell_scores):
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
