import collections
import errno
import functools
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gendisc import estimators, harness, moments, synth
from gendisc.estimators import (
    AffineEstimator,
    FittedModel,
    KnownStatistics,
    Provenance,
    affine_risk,
    discriminative_estimator,
    discriminative_highsnr,
    fit_ml,
    generative_asymptote,
    generative_estimator,
    generative_highsnr,
    oracle_lmmse,
)
from gendisc.fileio import config_from_dict
from gendisc.harness import (
    H_MODES,
    PRIOR_MODES,
    ExperimentConfig,
    compute_mse,
    run_trial,
    sweep,
    swept_grid,
)
from gendisc.moments import (
    IllConditionedWarning,
    SampleMoments,
    SingularMatrixError,
    condition_events,
)
from gendisc.synth import (
    Cubic,
    GaussianPrior,
    Linear,
    Seed,
    Tanh,
    TrueModel,
    draw_training,
    exp_decay_prior,
    random_measurement_matrix,
)


def _force_workers(monkeypatch, workers: int) -> None:
    """Make every sweep ask for ``workers`` processes, whatever its size and the CPUs."""
    monkeypatch.setattr(harness, "_worker_count", lambda cfg: workers)


def _small_config(**overrides):
    base = dict(
        n_x=4,
        n_y=5,
        snr_grid=(1.0, 10.0),
        nt_grid=(60,),
        mc_trials=40,
        seed=Seed(101),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


ALL_RULES = tuple(p.value for p in Provenance)


class TestComputeMse:
    def test_constant_errors(self):
        assert compute_mse([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_point_standard_error(self):
        # sd = sqrt(((0-1)^2 + (2-1)^2) / 1) = sqrt(2); se = sqrt(2)/sqrt(2) = 1.
        mean, se = compute_mse([0.0, 2.0])
        assert mean == pytest.approx(1.0)
        assert se == pytest.approx(1.0)

    def test_empty_is_absent(self):
        assert compute_mse([]) is None

    def test_single_observation(self):
        assert compute_mse([3.0]) == (3.0, 0.0)


class TestTrialScores:
    def test_oracle_error_matches_closed_form_trace(self):
        # Under a frozen H every trial scores the oracle by its exact risk,
        # tr(C_yy - A H C_yy) with A = C_yy H^T (H C_yy H^T + sigma2 I)^{-1},
        # even with a single training pair.
        cfg = _small_config(
            n_x=2, n_y=2, snr_grid=(1.0,), nt_grid=(1,), h_mode="fixed_once",
            estimator_set=("oracle_lmmse",),
        )
        H = random_measurement_matrix(2, 2, cfg.seed.child(1))
        C = exp_decay_prior(2).C_yy
        A = C @ H.T @ np.linalg.inv(H @ C @ H.T + np.eye(2))
        for t in range(3):
            out = run_trial(cfg, 0, t)
            assert out.errors["oracle_lmmse"] == pytest.approx(np.trace(C - A @ H @ C), rel=1e-12)

    def test_nearly_noiseless_square_channel(self):
        # At SNR 1e300 every rule that exists without noise reproduces the
        # target on a square channel: the high-SNR forms stand in for the
        # finite-SNR generative rule, which needs a positive noise variance.
        names = ("discriminative", "oracle_lmmse", "generative_high_snr", "discriminative_high_snr")
        cfg = _small_config(n_x=3, n_y=3, snr_grid=(1e300,), nt_grid=(50,), estimator_set=names)
        for t in range(3):
            out = run_trial(cfg, 0, t)
            assert not out.failures
            for name in names:
                assert out.errors[name] <= 1e-6

    def test_failures_recorded_without_aborting(self):
        # n_t = 5 < N_y = 8 leaves the target sample covariance singular: the
        # generative fit fails, the others still produce errors.
        cfg = _small_config(
            n_x=3, n_y=8, snr_grid=(1.0,), nt_grid=(5,),
            estimator_set=("generative", "discriminative", "oracle_lmmse"),
        )
        out = run_trial(cfg, 0, 0)
        assert set(out.failures) == {"generative"}
        assert "target sample covariance" in out.failures["generative"]
        assert set(out.errors) == {"discriminative", "oracle_lmmse"}

    def test_unknown_estimator_name_rejected(self):
        cfg = _small_config(estimator_set=("oracle_lmmse", "bogus"))
        with pytest.raises(ValueError, match="bogus"):
            run_trial(cfg, 0, 0)

    def test_all_provenances_constructible(self):
        cfg = _small_config(
            n_x=3, n_y=4, snr_grid=(2.0,), nt_grid=(100,), estimator_set=ALL_RULES
        )
        out = run_trial(cfg, 0, 0)
        assert not out.failures
        assert set(out.errors) == set(ALL_RULES)


class TestScoring:
    @staticmethod
    def _count_draws(monkeypatch):
        """Record the seed of every ``draw_training`` call the harness makes."""
        seeds = []

        def counting(prior, model, n, seed):
            seeds.append(seed)
            return draw_training(prior, model, n, seed)

        monkeypatch.setattr(harness, "draw_training", counting)
        return seeds

    def test_linear_trial_scores_exact_risk_under_data_prior(self, monkeypatch):
        # The generative rule gets mismatched side information, but every
        # rule's risk is taken under the prior that generated the data.
        cfg = _small_config(
            snr_grid=(2.0,), prior_mode="identity_mismatch",
            estimator_set=("generative", "discriminative", "oracle_lmmse"),
        )
        seeds = self._count_draws(monkeypatch)
        out = run_trial(cfg, 0, 3)
        assert seeds == [cfg.seed.child(0, 0, 3).child(0)]
        assert out.errors == _public_outcome(cfg, 0, 3)[0]

    def test_tanh_trial_scores_exact_risk(self, monkeypatch):
        cfg = _small_config(
            snr_grid=(2.0,), nonlinearity=Tanh(scale=1.0),
            estimator_set=("generative", "discriminative"),
        )
        seeds = self._count_draws(monkeypatch)
        out = run_trial(cfg, 0, 4)
        assert seeds == [cfg.seed.child(0, 0, 4).child(0)]
        assert out.errors == _public_outcome(cfg, 0, 4)[0]

    def test_generative_rule_tends_to_its_asymptote_under_a_mismatched_prior(self):
        # The asymptote reads the generative rule's side information, the
        # identity prior here, so at a large n_t each trial's generative risk
        # is close to its asymptote's.
        cfg = _small_config(
            n_x=6, n_y=4, snr_grid=(0.5, 5.0, 50.0), nt_grid=(10**6,), mc_trials=5,
            prior_mode="identity_mismatch", estimator_set=("generative", "generative_asymptote"),
        )
        for cell in range(len(cfg.snr_grid)):
            for trial in range(cfg.mc_trials):
                errors = run_trial(cfg, cell, trial).errors
                gen, asym = errors["generative"], errors["generative_asymptote"]
                assert gen == pytest.approx(asym, rel=0.01)

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_oracle_bounds_every_rule_under_distortion(self, nonlinearity):
        # The oracle is the best affine rule under the true map, so in every
        # trial its exact risk is at most that of any other rule scored.
        cfg = _small_config(
            snr_grid=(5.0,), mc_trials=5, nonlinearity=nonlinearity, estimator_set=ALL_RULES
        )
        for t in range(cfg.mc_trials):
            out = run_trial(cfg, 0, t)
            assert not out.failures
            oracle = out.errors["oracle_lmmse"]
            for name, err in out.errors.items():
                assert oracle <= err * (1.0 + 1e-12), name


class TestRunTrial:
    def test_deterministic_per_trial(self):
        cfg = _small_config()
        a = run_trial(cfg, 1, 7)
        b = run_trial(cfg, 1, 7)
        assert a.errors == b.errors
        assert a.failures == b.failures

    def test_distinct_trials_differ(self):
        cfg = _small_config()
        assert run_trial(cfg, 0, 0).errors != run_trial(cfg, 0, 1).errors

    def test_matches_manual_assembly_per_trial_h(self):
        cfg = _small_config(h_mode="per_trial")
        out = run_trial(cfg, 0, 3)
        trial_seed = cfg.seed.child(0, 0, 3)
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, trial_seed.child(2))
        prior = exp_decay_prior(cfg.n_y)
        model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=1.0)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        expected, _ = _public_scores(prior, model, known, 60, cfg.estimator_set, trial_seed)
        assert out.errors == expected

    def test_a_trial_has_one_h_in_every_sample_count_cell(self, monkeypatch):
        # Trial t's H is drawn once, from the stream (master, 0, 0, t, 2) of
        # sample-count cell 0, and each sample-count cell scores the trial on
        # that one channel; only the training draw comes from the cell's own
        # stream (master, 0, j, t). run_trial draws the same H in every cell.
        channels = collections.defaultdict(list)
        real = harness._score_cells

        def recorded(ch, names, ridge, n_t, seed, *args):
            channels[seed].append(ch)
            return real(ch, names, ridge, n_t, seed, *args)

        monkeypatch.setattr(harness, "_score_cells", recorded)
        _force_workers(monkeypatch, 1)  # a worker's calls are not recorded here
        cfg = _small_config(snr_grid=(10.0,), nt_grid=(8, 20, 60), mc_trials=4)
        sweep(cfg)
        cells = range(len(cfg.nt_grid))
        for j in cells:
            for t in range(cfg.mc_trials):
                run_trial(cfg, j, t)
        assert len(channels) == len(cells) * cfg.mc_trials
        for t in range(cfg.mc_trials):
            H = random_measurement_matrix(cfg.n_x, cfg.n_y, cfg.seed.child(0, 0, t, 2))
            in_sweep, alone = zip(*(channels[cfg.seed.child(0, j, t)] for j in cells))
            assert all(ch is in_sweep[0] for ch in in_sweep)  # built once for the trial
            for ch in in_sweep + alone:
                assert np.array_equal(ch.H, H)
        H0, H1 = (channels[cfg.seed.child(0, 0, t)][0].H for t in (0, 1))
        assert not np.array_equal(H0, H1)

    def test_fixed_once_draws_h_from_reserved_stream(self):
        cfg = _small_config(h_mode="fixed_once")
        out = run_trial(cfg, 0, 3)
        trial_seed = cfg.seed.child(0, 0, 3)
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, cfg.seed.child(1))
        prior = exp_decay_prior(cfg.n_y)
        model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=1.0)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        expected, _ = _public_scores(prior, model, known, 60, cfg.estimator_set, trial_seed)
        assert out.errors == expected

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_fixed_once_moments_are_the_trial_moments(self, nonlinearity):
        # The sweep-constant moments of the frozen H score exactly as the
        # moments the public constructors compute for the trial.
        cfg = _small_config(
            h_mode="fixed_once", nonlinearity=nonlinearity, estimator_set=ALL_RULES
        )
        out = run_trial(cfg, 0, 3)
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, cfg.seed.child(1))
        prior = exp_decay_prior(cfg.n_y)
        model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=1.0, nonlinearity=nonlinearity)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        trial_seed = cfg.seed.child(0, 0, 3)
        expected = _public_scores(prior, model, known, 60, cfg.estimator_set, trial_seed)
        assert (out.errors, out.failures) == expected
        assert not out.failures

    def test_identity_mismatch_changes_only_generative(self):
        cfg_true = _small_config(prior_mode="true_prior")
        cfg_mis = _small_config(prior_mode="identity_mismatch")
        out_true = run_trial(cfg_true, 0, 0)
        out_mis = run_trial(cfg_mis, 0, 0)
        # Same data streams: the prior-free estimators are untouched.
        assert out_true.errors["discriminative"] == out_mis.errors["discriminative"]
        assert out_true.errors["oracle_lmmse"] == out_mis.errors["oracle_lmmse"]
        assert out_true.errors["generative"] != out_mis.errors["generative"]

    def test_the_swept_grid_is_the_grid_with_several_entries(self):
        assert swept_grid(_small_config()) == ("snr", (1.0, 10.0))
        assert swept_grid(_small_config(snr_grid=(10.0,))) == ("snr", (10.0,))
        nt_cfg = _small_config(snr_grid=(10.0,), nt_grid=(20, 60))
        assert swept_grid(nt_cfg) == ("nt", (20, 60))

    @pytest.mark.parametrize(
        "grids", [dict(snr_grid=(1.0, 10.0, 100.0)), dict(snr_grid=(10.0,), nt_grid=(20, 60))],
        ids=["snr", "nt"],
    )
    @pytest.mark.parametrize(
        "cell, trial, named",
        [(-1, 0, "cell"), ("len", 0, "cell"), (True, 0, "cell"), (0, -1, "trial"),
         (0, "mc_trials", "trial")],
    )
    def test_a_cell_or_trial_outside_the_sweep_is_named(self, grids, cell, trial, named):
        # The cell indexes the swept grid and the trial the config's trials;
        # anything else is a ValueError that names it, before any scoring.
        cfg = _small_config(mc_trials=5, **grids)
        grid = swept_grid(cfg)[1]
        cell = len(grid) if cell == "len" else cell
        trial = cfg.mc_trials if trial == "mc_trials" else trial
        count = len(grid) if named == "cell" else cfg.mc_trials
        given = cell if named == "cell" else trial
        message = f"{named} must be an integer in [0, {count}), got {given!r}"
        with pytest.raises(ValueError) as excinfo:
            run_trial(cfg, cell, trial)
        assert str(excinfo.value) == message
        assert run_trial(cfg, len(grid) - 1, cfg.mc_trials - 1).errors


class TestSweeps:
    def test_schedule_independence(self):
        # A trial depends only on its (cell, trial) coordinates, so the sweep's
        # rows equal those aggregated from trials run in reverse order.
        cfg = _small_config(mc_trials=6)
        report = sweep(cfg)
        tasks = [(cell, t) for cell in range(len(cfg.snr_grid)) for t in range(cfg.mc_trials)]
        outcomes = {(cell, t): run_trial(cfg, cell, t) for cell, t in reversed(tasks)}
        for row in report.rows:
            i = cfg.snr_grid.index(row.sweep_value)
            errs = [outcomes[(i, t)].errors[row.estimator] for t in range(cfg.mc_trials)]
            assert (row.mean_mse, row.std_err) == compute_mse(errs)

    def test_a_sweep_counts_condition_warnings_without_emitting_them(self, monkeypatch):
        # A warning per ill-conditioned factor would flood stderr and, one
        # registry entry per distinct message, grow with the trials; the
        # report counts them per cell instead. run_trial keeps them.
        _force_workers(monkeypatch, 1)
        cfg = _small_config(
            n_x=6, n_y=3, snr_grid=(1e10, 1e12, 1e14), nt_grid=(8,), mc_trials=6, seed=Seed(3),
            estimator_set=("generative", "discriminative", "oracle_lmmse"),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            report = sweep(cfg)
            assert warnings.filters == filters
            assert caught == []
            replayed = [
                [run_trial(cfg, cell, t).warning_count for t in range(cfg.mc_trials)]
                for cell in range(len(cfg.snr_grid))
            ]
        counts = [cell["condition_warnings"] for cell in report.metadata["cells"]]
        assert counts == [sum(cell) for cell in replayed]
        assert sum(counts) > 0
        assert len(caught) == sum(counts)
        assert all(issubclass(w.category, IllConditionedWarning) for w in caught)

    def test_row_layout_and_counts(self):
        cfg = _small_config(mc_trials=10)
        report = sweep(cfg)
        assert len(report.rows) == len(cfg.snr_grid) * len(cfg.estimator_set)
        for row in report.rows:
            assert row.sweep_name == "snr"
            assert row.trials_ok + row.trials_failed == cfg.mc_trials
            assert row.mean_mse >= 0.0
        values = [row.sweep_value for row in report.rows[:: len(cfg.estimator_set)]]
        assert values == list(cfg.snr_grid)

    def test_snr_sweep_requires_single_nt(self):
        cfg = _small_config(nt_grid=(40, 80))
        with pytest.raises(ValueError, match="exactly one grid may have multiple entries"):
            sweep(cfg)

    def test_nt_sweep_requires_single_snr(self):
        # A multi-entry nt_grid is swept at the single SNR.
        cfg = _small_config(snr_grid=(10.0,), nt_grid=(40, 80), mc_trials=3)
        report = sweep(cfg)
        assert report.metadata["sweep"] == "nt"
        assert {row.sweep_name for row in report.rows} == {"nt"}
        for row in report.rows:
            index = cfg.nt_grid.index(row.sweep_value)
            errs = [run_trial(cfg, index, t).errors[row.estimator] for t in range(3)]
            assert (row.mean_mse, row.std_err) == compute_mse(errs)

    def test_invalid_config_rejected(self):
        cfg = _small_config(mc_trials=0)
        with pytest.raises(ValueError, match="mc_trials"):
            sweep(cfg)

    def test_all_failed_cell_reports_absent_mean(self):
        # n_t = 5 < N_y guarantees a singular target covariance every trial.
        cfg = _small_config(
            n_x=3, n_y=8, nt_grid=(5,), snr_grid=(1.0,), mc_trials=8,
            estimator_set=("generative",),
        )
        report = sweep(cfg)
        (row,) = report.rows
        assert row.mean_mse is None
        assert row.std_err is None
        assert row.trials_ok == 0
        assert row.trials_failed == 8
        assert report.metadata["cells"][0]["failures"] == {"generative": 8}
        assert report.metadata["cells"][0]["failure_reasons"] == {
            "generative": {"target sample covariance": {"count": 8, "first_trial": 0}}
        }

    def test_oracle_dominates_learned_estimators(self):
        cfg = _small_config(mc_trials=300, snr_grid=(0.5, 5.0), seed=Seed(202))
        report = sweep(cfg)
        by_cell = {}
        for row in report.rows:
            by_cell.setdefault(row.sweep_value, {})[row.estimator] = row
        for cell in by_cell.values():
            oracle = cell["oracle_lmmse"]
            for name in ("generative", "discriminative"):
                other = cell[name]
                slack = 2.0 * np.hypot(oracle.std_err, other.std_err)
                assert oracle.mean_mse <= other.mean_mse + slack

    def test_discriminative_mse_nonincreasing_in_sample_count(self):
        cfg = _small_config(
            snr_grid=(5.0,), nt_grid=(30, 100, 300, 1000), mc_trials=300, seed=Seed(203),
            estimator_set=("discriminative",),
        )
        rows = sweep(cfg).rows
        for prev, nxt in zip(rows, rows[1:]):
            slack = 2.0 * np.hypot(prev.std_err, nxt.std_err)
            assert nxt.mean_mse <= prev.mean_mse + slack

    def test_doubling_trials_keeps_means_within_three_se(self):
        cfg_a = _small_config(mc_trials=200, snr_grid=(2.0,))
        cfg_b = _small_config(mc_trials=400, snr_grid=(2.0,))
        rows_a = {r.estimator: r for r in sweep(cfg_a).rows}
        rows_b = {r.estimator: r for r in sweep(cfg_b).rows}
        for name, row_a in rows_a.items():
            row_b = rows_b[name]
            slack = 3.0 * np.hypot(row_a.std_err, row_b.std_err)
            assert abs(row_a.mean_mse - row_b.mean_mse) <= slack

    def test_square_geometry_closes_the_high_snr_gap(self):
        # With as many observations as targets, both learned estimators land
        # within a minor gap of the oracle at high SNR (no null space is left
        # for the discriminative limit to miss).
        cfg = _small_config(
            n_x=10, n_y=10, snr_grid=(1e6,), mc_trials=400, nt_grid=(100,), seed=Seed(77)
        )
        rows = {r.estimator: r for r in sweep(cfg).rows}
        oracle = rows["oracle_lmmse"].mean_mse
        for name in ("generative", "discriminative"):
            assert rows[name].mean_mse <= 1.5 * oracle + 2.0 * rows[name].std_err

    def test_vanishing_snr_runs_without_warnings(self):
        # At SNR 1e-300 the noise variance is 1e300; no norm in the symmetry
        # guards may overflow, and every trial still completes.
        cfg = _small_config(snr_grid=(1e-300,), nt_grid=(20,), mc_trials=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sweep(cfg)
        for row in report.rows:
            assert row.trials_ok == 2
            assert np.isfinite(row.mean_mse)

    def test_nonlinear_sweep_runs(self):
        from gendisc.synth import Tanh

        cfg = _small_config(
            mc_trials=10, snr_grid=(2.0,), nonlinearity=Tanh(scale=1.0),
            estimator_set=("generative", "discriminative"),
        )
        report = sweep(cfg)
        assert all(row.trials_ok == 10 for row in report.rows)


# Configs whose cells record failures and condition warnings, some of them in
# results shared by the SNR cells of a trial or by the whole sweep.
SHARED_RESULT_CONFIGS = {
    # N_x > N_y: both high-SNR gains are singular (the generative one is
    # shared by the whole sweep under a frozen H); the finite-SNR rules warn
    # at high SNR, and the input sample covariance fails at the highest.
    "singular high-SNR gains": dict(
        n_x=6, n_y=3, snr_grid=(1.0, 1e10, 1e12, 3e13), nt_grid=(12,), mc_trials=5,
        seed=Seed(11), h_mode="fixed_once", estimator_set=tuple(p.value for p in Provenance),
    ),
    # n_t - 1 < N_y: a tiny ridge leaves the target sample covariance
    # factorizable but ill-conditioned, so its shared factor warns in each cell.
    "ill-conditioned target factor": dict(
        n_x=3, n_y=5, snr_grid=(0.5, 5.0, 50.0), nt_grid=(4,), mc_trials=4, seed=Seed(12),
        ridge=1e-13, estimator_set=("generative", "discriminative", "discriminative_high_snr"),
    ),
    # A sample-count sweep: each trial's H, and what rests on it alone, is
    # shared by its sample-count cells. N_x > N_y: the high-SNR gains are
    # singular (the generative one shared by the cells of a trial), and at
    # SNR 1e12 the population input covariance warns in every cell.
    "singular high-SNR gains across sample counts": dict(
        n_x=6, n_y=3, snr_grid=(1e12,), nt_grid=(8, 12, 30), mc_trials=5, seed=Seed(11),
        estimator_set=tuple(p.value for p in Provenance),
    ),
}


class TestSharedDraws:
    @pytest.mark.parametrize("name", sorted(SHARED_RESULT_CONFIGS))
    def test_each_cell_equals_its_replayed_trials(self, name):
        # Every (cell, trial) that the sweep scored together with the other
        # SNR cells is scored bit for bit alike by run_trial, alone; so are
        # the per-cell failure and condition-warning counts.
        cfg = ExperimentConfig(**SHARED_RESULT_CONFIGS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = sweep(cfg)
            outcomes = [
                [run_trial(cfg, cell, t) for t in range(cfg.mc_trials)]
                for cell in range(len(swept_grid(cfg)[1]))
            ]
        cells = report.metadata["cells"]
        assert all(c["condition_warnings"] > 0 for c in cells[1:])
        assert all(c["failures"] for c in cells) == name.startswith("singular")
        names = cfg.estimator_set
        for i, (cell, outs) in enumerate(zip(cells, outcomes)):
            assert cell["condition_warnings"] == sum(o.warning_count for o in outs)
            reasons: dict = {}
            for t, out in enumerate(outs):
                for est, reason in out.failures.items():
                    entry = reasons.setdefault(est, {}).setdefault(
                        reason, {"count": 0, "first_trial": t}
                    )
                    entry["count"] += 1
            assert cell["failure_reasons"] == reasons
            assert cell["failures"] == {
                est: sum(r["count"] for r in by.values()) for est, by in reasons.items()
            }
            for row in report.rows[i * len(names) : (i + 1) * len(names)]:
                errs = [o.errors[row.estimator] for o in outs if row.estimator in o.errors]
                stat = compute_mse(errs)
                assert (row.mean_mse, row.std_err) == (stat if stat else (None, None))
                assert row.trials_ok == len(errs)

    def test_sigma_free_results_are_computed_once(self, monkeypatch):
        # One draw, one target factor and one high-SNR discriminative gain per
        # trial, whatever the number of SNR cells; under a frozen H one
        # high-SNR generative gain per sweep.
        calls = {"draw": 0, "factor": 0, "gain": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        _force_workers(monkeypatch, 1)  # a worker's calls are not counted here
        monkeypatch.setattr(harness, "draw_training", counted("draw", harness.draw_training))
        monkeypatch.setattr(harness, "target_factor", counted("factor", harness.target_factor))
        monkeypatch.setattr(harness, "gain_direct", counted("gain", harness.gain_direct))
        cfg = _small_config(
            snr_grid=(0.5, 5.0, 50.0), mc_trials=6, h_mode="fixed_once",
            estimator_set=("generative", "generative_high_snr", "discriminative_high_snr"),
        )
        report = sweep(cfg)
        assert all(row.trials_ok == 6 for row in report.rows)
        assert calls == {"draw": 6, "factor": 6, "gain": 1 + 6}

    def test_noise_loaded_factors_skip_the_condition_screen(self, monkeypatch):
        # A trial of the bundled SNR sweep (28 x 30, 13 SNRs) factors 40
        # matrices. The 26 loaded with the noise variance, the generative
        # rule's innovation covariance and the oracle's input covariance at
        # each SNR, are certified from it; only the target sample covariance
        # and the 13 input sample covariances pay LAPACK's condition estimate.
        bundled = resources.files("gendisc").joinpath("configs", "mse_vs_snr.json")
        cfg = config_from_dict({**json.loads(bundled.read_text()), "mc_trials": 3})
        calls = []
        dpocon = moments.dpocon
        monkeypatch.setattr(moments, "dpocon", lambda *a, **k: calls.append(1) or dpocon(*a, **k))
        _force_workers(monkeypatch, 1)  # a worker's calls are not counted here
        report = sweep(cfg)
        assert all(row.trials_ok == 3 for row in report.rows)
        assert len(calls) == 14 * 3

    def test_shared_warning_counts_in_every_use(self):
        M = np.diag([1.0, 1e-13])
        memo: dict = {}
        probe = functools.partial(moments._factor, M, 0.0, "probe")
        for _ in range(3):
            with condition_events() as events:
                with pytest.warns(IllConditionedWarning):
                    factor = harness._shared(memo, "probe", probe)
            assert [name for name, _ in events] == ["probe"]
        assert np.allclose(moments._solve(factor, np.ones(2)), [1.0, 1e13], rtol=1e-12)

    def test_shared_failure_is_raised_in_every_use(self):
        M = np.diag([1.0, 0.0])
        memo: dict = {}
        errors = []
        for _ in range(2):
            with pytest.raises(SingularMatrixError) as excinfo:
                harness._shared(memo, "probe", lambda: moments._factor(M, 0.0, "probe"))
            errors.append(excinfo.value)
        assert errors[0] is errors[1]
        assert errors[0].name == "probe"

    def test_shared_failure_carries_only_the_frames_of_its_last_use(self):
        # Re-raising one exception object chains its traceback onto the
        # frames of every earlier use; each use must start it afresh.
        M = np.diag([1.0, 0.0])
        memo: dict = {}
        depths = []
        for _ in range(5):
            with pytest.raises(SingularMatrixError) as excinfo:
                harness._shared(memo, "probe", lambda: moments._factor(M, 0.0, "probe"))
            depths.append(len(traceback.extract_tb(excinfo.value.__traceback__)))
        assert len(set(depths)) == 1

    def test_shared_failure_pins_no_trial_under_a_frozen_h(self):
        # With n_x > n_y the high-SNR gains fail in every trial, the
        # generative one from a result shared by the whole sweep. What a
        # trial held (its n_t x (n_y + 2 n_x) tanh draw among it) must be
        # freed when the trial ends, without waiting for the cyclic collector.
        n_t = 2000
        cfg = _small_config(
            n_x=5, n_y=4, nt_grid=(n_t,), h_mode="fixed_once", nonlinearity=Tanh(),
            estimator_set=("generative_high_snr", "discriminative_high_snr", "oracle_lmmse"),
        )
        channels = harness._channels(cfg)
        sigma2s = [1.0 / snr for snr in cfg.snr_grid]
        scores = np.empty((len(sigma2s), len(cfg.estimator_set), 21))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            tallies = harness._score_trials(cfg, channels, sigma2s, scores, 0, 1)
            before = tracemalloc.get_traced_memory()[0]
            for trial in range(1, 21):
                harness._score_trials(cfg, channels, sigma2s, scores, trial, trial + 1)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        high_snr = {"generative_high_snr", "discriminative_high_snr"}
        assert all(set(tally["failure_reasons"]) == high_snr for tally in tallies)
        assert grown < n_t * (cfg.n_y + 2 * cfg.n_x) * 8  # less than one trial's draw

    def test_untrained_rules_are_built_once_per_cell_under_a_frozen_h(self, monkeypatch):
        # Under a frozen H the untrained rules do not depend on the trial: each
        # is built and scored once per SNR cell of the sweep, and its
        # condition warnings still count in every trial. The generative
        # asymptote is the generative rule at the population fit, which is
        # solved once per sweep.
        calls = {"oracle": 0, "population fit": 0, "generative asymptote": 0, "risk": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        _force_workers(monkeypatch, 1)  # a worker's calls are not counted here
        monkeypatch.setattr(harness, "_oracle", counted("oracle", harness._oracle))
        fit = functools.cached_property(
            counted("population fit", estimators._Truth.population_fit.func)
        )
        fit.__set_name__(estimators._Truth, "population_fit")
        monkeypatch.setattr(estimators._Truth, "population_fit", fit)
        monkeypatch.setattr(
            harness,
            "_generative_asymptote",
            counted("generative asymptote", harness._generative_asymptote),
        )
        monkeypatch.setattr(estimators._Truth, "risk", counted("risk", estimators._Truth.risk))
        cfg = ExperimentConfig(
            n_x=6, n_y=3, snr_grid=(1.0, 1e12, 3e13), nt_grid=(12,), mc_trials=4, seed=Seed(11),
            h_mode="fixed_once",
            estimator_set=("oracle_lmmse", "generative_asymptote"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = sweep(cfg)
            built = dict(calls)
            alone = [run_trial(cfg, cell, 0) for cell in range(len(cfg.snr_grid))]
        assert built == {
            "oracle": 3, "population fit": 1, "generative asymptote": 3, "risk": 2 * 3
        }
        assert any(out.warning_count for out in alone)
        cells = report.metadata["cells"]
        assert [c["condition_warnings"] for c in cells] == [4 * o.warning_count for o in alone]
        for row in report.rows:
            assert row.trials_ok == 4 and row.std_err == 0.0

    def test_untrained_scores_are_the_same_bits_in_every_sample_count_cell(self, monkeypatch):
        # The sample-count cells of a trial share its H, so a rule that reads
        # no training set scores the same bits in each of them, in the sweep
        # and in run_trial; a trained rule does not.
        scored = {}
        real = harness._score_cells

        def recorded(ch, names, ridge, n_t, seed, sigma2s, out):
            cells = real(ch, names, ridge, n_t, seed, sigma2s, out)
            scored[seed] = out.copy()
            return cells

        monkeypatch.setattr(harness, "_score_cells", recorded)
        _force_workers(monkeypatch, 1)  # a worker's calls are not recorded here
        cfg = _small_config(
            snr_grid=(10.0,), nt_grid=(8, 20, 60), mc_trials=5,
            estimator_set=("generative", "oracle_lmmse", "generative_asymptote"),
        )
        report = sweep(cfg)
        nt_cells = range(len(cfg.nt_grid))
        assert len(scored) == len(nt_cells) * cfg.mc_trials
        for t in range(cfg.mc_trials):
            cells = [scored[cfg.seed.child(0, j, t)][0] for j in nt_cells]
            alone = [run_trial(cfg, j, t).errors for j in nt_cells]
            for e, name in enumerate(cfg.estimator_set):
                column = {cell[e].tobytes() for cell in cells}
                assert len(column) == (len(nt_cells) if name == "generative" else 1), name
                assert [cell[e] for cell in cells] == [errors[name] for errors in alone]
        for name in ("oracle_lmmse", "generative_asymptote"):
            rows = [row for row in report.rows if row.estimator == name]
            assert len({(row.mean_mse, row.std_err) for row in rows}) == 1

    def test_linear_oracle_is_scored_at_the_lowest_snr(self):
        # At SNR 1e-308 the noise variance is 1e308: the population input
        # covariance is finite, and the oracle, which all but ignores x, has
        # the prior's risk tr C_yy.
        cfg = _small_config(snr_grid=(1e-308, 1.0), mc_trials=3, estimator_set=("oracle_lmmse",))
        report = sweep(cfg)
        assert report.metadata["cells"][0]["failures"] == {}
        trace = np.trace(exp_decay_prior(cfg.n_y).C_yy)
        assert report.rows[0].mean_mse == pytest.approx(trace, rel=1e-12)

    @pytest.mark.parametrize("nonlinearity", [Linear(), Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_generative_asymptote_is_scored_at_the_lowest_snr(self, nonlinearity):
        # At SNR 1e-308 the noise variance is 1e308. With n_y > n_x the
        # asymptote, like the generative rule, inverts the finite innovation
        # covariance H C_yy H^T + sigma2 I, and all but ignores x: it has the
        # prior's risk tr C_yy.
        cfg = ExperimentConfig(
            n_x=3, n_y=7, snr_grid=(1e-308, 1.0), nt_grid=(20,), mc_trials=2, seed=Seed(1729),
            nonlinearity=nonlinearity, estimator_set=("generative_asymptote",),
        )
        report = sweep(cfg)
        assert [cell["failures"] for cell in report.metadata["cells"]] == [{}, {}]
        trace = np.trace(exp_decay_prior(cfg.n_y).C_yy)
        assert trace == 7.0
        assert report.rows[0].mean_mse == pytest.approx(trace, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sample_moments_fail_the_trained_rules(self):
        # At SNR 1e-308 the noise scatter overflows: every trained rule of that
        # cell fails for that reason, while the other cell is scored.
        names = ("generative", "discriminative", "generative_high_snr", "discriminative_high_snr")
        cfg = _small_config(
            snr_grid=(1e-308, 1.0), nt_grid=(20,), mc_trials=3, estimator_set=names
        )
        cells = sweep(cfg).metadata["cells"]
        reason = {harness.NON_FINITE_SAMPLE: {"count": 3, "first_trial": 0}}
        assert cells[0]["failure_reasons"] == {name: reason for name in names}
        assert cells[1]["failures"] == {}


def _public_outcome(cfg, cell, trial):
    """A trial's errors and failure reasons at cell ``cell`` of the swept grid, by
    :func:`_public_scores`.

    The cell is sample-count cell ``j`` at SNR cell ``k``: ``(cell, 0)`` when
    ``nt_grid`` has several entries, else ``(0, cell)``. H is drawn as
    ``run_trial`` draws it: from the trial's stream of sample-count cell 0,
    whatever the cell, or from the sweep's stream. The generative rules read
    the identity prior under ``identity_mismatch``.
    """
    prior = exp_decay_prior(cfg.n_y)
    if cfg.prior_mode == "identity_mismatch":
        known_prior = GaussianPrior(mu_y=np.zeros(cfg.n_y), C_yy=np.eye(cfg.n_y))
    else:
        known_prior = prior
    j, k = (cell, 0) if len(cfg.nt_grid) > 1 else (0, cell)
    sigma2 = 1.0 / cfg.snr_grid[k]
    seed = cfg.seed.child(0, j, trial)
    fixed = cfg.h_mode == "fixed_once"
    H_seed = cfg.seed.child(1) if fixed else cfg.seed.child(0, 0, trial, 2)
    H = random_measurement_matrix(cfg.n_x, cfg.n_y, H_seed)
    model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=sigma2, nonlinearity=cfg.nonlinearity)
    known = KnownStatistics(prior=known_prior, sigma2=sigma2)
    return _public_scores(prior, model, known, cfg.nt_grid[j], cfg.estimator_set, seed, cfg.ridge)


def _public_scores(prior, model, known, n_t, names, seed, ridge=0.0):
    """Each rule's exact risk and failure reason, from the public constructors and affine_risk.

    The trained rules are fitted on the sample moments at ``model.sigma2`` of
    ``draw_training(prior, model, n_t, seed.child(0))``, the draw of the trial
    whose stream is ``seed``; ``known`` is the generative rules' side information.
    """
    m = draw_training(prior, model, n_t, seed.child(0)).moments(model.sigma2)
    build = {
        "generative": lambda: generative_estimator(fit_ml(m, ridge), known, m),
        "discriminative": lambda: discriminative_estimator(m, ridge),
        "oracle_lmmse": lambda: oracle_lmmse(prior, model),
        "generative_asymptote": lambda: generative_asymptote(prior, model, known),
        "generative_high_snr": lambda: generative_highsnr(known.prior, model.H, m),
        "discriminative_high_snr": lambda: discriminative_highsnr(model.H, m),
    }
    errors, failures = {}, {}
    for name in names:
        try:
            errors[name] = affine_risk(build[name](), prior, model)
        except SingularMatrixError as exc:
            failures[name] = exc.name
    return errors, failures


class TestOnePath:
    @pytest.mark.filterwarnings("ignore::gendisc.moments.IllConditionedWarning")
    @pytest.mark.parametrize("prior_mode", PRIOR_MODES)
    @pytest.mark.parametrize("h_mode", H_MODES)
    @pytest.mark.parametrize("nonlinearity", [Linear(), Tanh(scale=1.0), Cubic(alpha=0.1)])
    @pytest.mark.parametrize("n_x, n_y", [(5, 4), (4, 5)])
    def test_trial_scores_equal_the_public_constructors(
        self, n_x, n_y, nonlinearity, h_mode, prior_mode
    ):
        # Every rule the sweep scores on plain arrays has the risk, bit for bit,
        # and the failure reason of the public constructor fed the same draw.
        # The grids reach far enough (n_t = 5, SNR 1e15) that some rules fail.
        n_failures = 0
        for grids in (dict(snr_grid=(0.5, 1e15), nt_grid=(8,)), dict(snr_grid=(2.0,), nt_grid=(5, 30))):
            cfg = ExperimentConfig(
                n_x=n_x, n_y=n_y, mc_trials=3, seed=Seed(31), h_mode=h_mode,
                prior_mode=prior_mode, nonlinearity=nonlinearity, estimator_set=ALL_RULES,
                **grids,
            )
            for cell in range(len(swept_grid(cfg)[1])):
                for trial in range(cfg.mc_trials):
                    out = run_trial(cfg, cell, trial)
                    errors, failures = _public_outcome(cfg, cell, trial)
                    assert out.errors == errors
                    assert out.failures == failures
                    n_failures += len(failures)
        assert n_failures > 0


class TestBoundary:
    @pytest.mark.filterwarnings("ignore::gendisc.moments.IllConditionedWarning")
    @pytest.mark.parametrize(
        "nonlinearity, h_mode", [(Linear(), "per_trial"), (Tanh(scale=1.0), "fixed_once")]
    )
    def test_sweep_loop_validates_and_constructs_nothing(self, monkeypatch, nonlinearity, h_mode):
        # Inputs are checked where they enter; once _channels has returned, a
        # 13-SNR sweep builds none of the public, validating objects and makes
        # no array check, so validation cannot creep back into the per-cell loop.
        counts = collections.Counter()
        armed = []
        real_channels = harness._channels

        def channels(cfg):
            out = real_channels(cfg)
            armed.append(True)
            return out

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if armed:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        _force_workers(monkeypatch, 1)  # a worker's calls are not counted here
        monkeypatch.setattr(harness, "_channels", channels)
        for cls in (SampleMoments, FittedModel, AffineEstimator, TrueModel, KnownStatistics):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        for module in (moments, estimators, synth, harness):
            if hasattr(module, "_as_float_array"):
                wrapped = counted("_as_float_array", module._as_float_array)
                monkeypatch.setattr(module, "_as_float_array", wrapped)
        cfg = ExperimentConfig(
            n_x=4, n_y=5, nt_grid=(30,), mc_trials=3, seed=Seed(41), nonlinearity=nonlinearity,
            h_mode=h_mode, estimator_set=ALL_RULES,
        )
        assert len(cfg.snr_grid) == 13
        report = sweep(cfg)
        assert armed and all(row.trials_ok == 3 for row in report.rows)
        assert counts == {}
        # The counters do see the public boundary.
        discriminative_estimator(draw_training(
            exp_decay_prior(2), TrueModel(np.eye(2), np.zeros(2), 1.0), 10, Seed(1)
        ).moments(1.0))
        assert counts["SampleMoments"] == counts["AffineEstimator"] == 1
        assert counts["_as_float_array"] > 0


# At N_x > N_y and vanishing noise, the innovation covariance of both
# vanishing-noise rules is singular, and the discriminative rule and the
# oracle fail in some trials and not in others.
INTERLEAVED_5X3 = dict(
    n_x=5, n_y=3, snr_grid=(1e12, 1e14), nt_grid=(6,), seed=Seed(1729),
    estimator_set=(
        "generative", "discriminative", "oracle_lmmse", "generative_high_snr",
        "discriminative_high_snr",
    ),
)

# Configs whose reports must not depend on the number of worker processes.
WORKER_CONFIGS = {
    # The partial_failure golden config: at SNR 1e14 the discriminative rule
    # fails in some trials, not all.
    "partial_failure": dict(
        n_x=6, n_y=3, snr_grid=(1e12, 1e14), nt_grid=(30,), mc_trials=20, seed=Seed(1729),
        estimator_set=("generative", "discriminative"),
    ),
    # One frozen H under tanh, mismatched side information, the lemma gain form.
    "fixed_once_tanh": dict(
        n_x=5, n_y=3, snr_grid=(0.1, 1.0, 1e4, 1e12), nt_grid=(12,), mc_trials=7,
        seed=Seed(1729), h_mode="fixed_once", prior_mode="identity_mismatch",
        nonlinearity=Tanh(scale=1.0), estimator_set=ALL_RULES,
    ),
    # A sample-count sweep whose smallest cell fails every learned rule, so
    # chunks start and end inside cells with failures to tally.
    "nt_smallest_cell_fails": dict(
        n_x=6, n_y=4, snr_grid=(10.0,), nt_grid=(3, 5, 10, 30), mc_trials=5, seed=Seed(1729),
        estimator_set=ALL_RULES,
    ),
    # Rules that fail in some trials and not in others. The oracle first
    # fails at SNR 1e14 in trial 21, so that reason first strikes in a
    # worker's chunk at every worker count above 1.
    "interleaved_5x3": dict(INTERLEAVED_5X3, mc_trials=30),
    # The extreme SNR grid, where rules fail on non-finite moments and warn.
    "extreme_snr_3x7": dict(
        n_x=3, n_y=7, snr_grid=(1e-308, 1e-12, 1.0, 1e15, 1e300), nt_grid=(20,), mc_trials=4,
        seed=Seed(1729), estimator_set=ALL_RULES,
    ),
}


class TestWorkers:
    @pytest.mark.filterwarnings("ignore::gendisc.moments.IllConditionedWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at SNR 1e-308
    @pytest.mark.parametrize("name", sorted(WORKER_CONFIGS))
    def test_report_is_the_same_bits_for_any_worker_count(self, monkeypatch, name):
        cfg = ExperimentConfig(**WORKER_CONFIGS[name])
        reports = {}
        for workers in (1, 2, 3, cfg.mc_trials + 5):
            _force_workers(monkeypatch, workers)
            reports[workers] = sweep(cfg)
            assert reports[workers].workers == min(workers, cfg.mc_trials)
        serial = reports.pop(1)
        assert any(cell["failures"] for cell in serial.metadata["cells"])
        for report in reports.values():
            # repr keeps every float's bits and every dict's order
            assert repr(report.rows) == repr(serial.rows)
            assert repr(report.metadata) == repr(serial.metadata)

    @pytest.mark.parametrize("n_t, fit", [(30_000_000, 2), (60_000_000, 1)])
    def test_workers_and_the_scores_fit_the_byte_budget(self, monkeypatch, n_t, fit):
        # Each worker holds a training draw in flight: at 16 * n_t bytes each,
        # two fit in the 1 GiB budget with the scores at 30 million samples,
        # and one at 60 million. The linear map draws moments, not pairs, so
        # the draws themselves stay small here.
        cfg = ExperimentConfig(
            n_x=1, n_y=1, snr_grid=(1.0,), nt_grid=(n_t,), mc_trials=6, seed=Seed(3)
        )
        assert cfg.violations() == []
        _force_workers(monkeypatch, 6)
        report = sweep(cfg)
        assert report.workers == fit
        draw, scores = harness._draw_bytes(cfg), harness._score_bytes(cfg)
        assert fit * draw + scores <= harness._BYTE_BUDGET < (fit + 1) * draw + scores
        assert all(row.trials_ok == 6 for row in report.rows)

    def test_affinity_work_threads_and_fork_bound_the_worker_count(self, monkeypatch):
        # 2 sample-count cells of 500 trials, each a draw and 3 rules at 1 SNR.
        cfg = _small_config(snr_grid=(1.0,), nt_grid=(60, 80), mc_trials=500)
        cpus = len(os.sched_getaffinity(0))
        assert harness._worker_count(cfg) == min(cpus, 2 * 500 * 4 // harness._FORK_COST)
        one_trial = _small_config(snr_grid=(1.0,), mc_trials=1)
        assert harness._worker_count(one_trial) == 1  # a trial does not pay for a fork
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert harness._worker_count(cfg) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert harness._worker_count(cfg) == 1

    def test_a_cell_failing_alike_in_every_trial_sends_one_reason_per_rule(self):
        # What a worker sends does not grow with the trials that fail alike.
        cfg = ExperimentConfig(**WORKER_CONFIGS["nt_smallest_cell_fails"])
        sigma2s = [1.0 / s for s in cfg.snr_grid]
        scores = np.empty((len(cfg.nt_grid) * len(sigma2s), len(cfg.estimator_set), cfg.mc_trials))
        channels = harness._channels(cfg)
        tally = harness._score_trials(cfg, channels, sigma2s, scores, 1, cfg.mc_trials)[0]
        reasons = tally["failure_reasons"]
        assert set(reasons) == harness._TRAINED
        for whys in reasons.values():
            ((why, seen),) = whys.items()
            assert seen == {"count": cfg.mc_trials - 1, "first_trial": 1}

    @pytest.mark.filterwarnings("ignore::gendisc.moments.IllConditionedWarning")
    def test_interleaved_failures_send_a_tally_that_does_not_grow_with_the_trials(self):
        # At SNR 1e14 the trials that fail alike come in many short stretches.
        # From 500 to 1,500 trials no count passes 255, where pickle widens
        # an integer by a byte, so the tallies must pickle to the same size.
        cfg = ExperimentConfig(**dict(INTERLEAVED_5X3, snr_grid=(1e14,)))
        channels = harness._channels(cfg)
        sizes = []
        for trials in (500, 1500):
            scores = np.empty((1, len(cfg.estimator_set), trials))
            (tally,) = harness._score_trials(
                cfg, channels, [1.0 / cfg.snr_grid[0]], scores, 0, trials
            )
            sizes.append(len(pickle.dumps(tally)))
        assert sizes[0] == sizes[1]
        # One entry per rule and reason, counting each of the rule's failures.
        reasons = tally["failure_reasons"]
        for e, name in enumerate(cfg.estimator_set):
            failed = np.flatnonzero(np.isnan(scores[0, e]))
            assert len(reasons.get(name, {})) == (failed.size > 0)
            for why, seen in reasons.get(name, {}).items():
                assert seen == {"count": failed.size, "first_trial": failed[0]}
                assert run_trial(cfg, 0, int(failed[0])).failures[name] == why
        # The discriminative rule and the oracle fail in some trials, not all.
        assert 0 < reasons["discriminative"]["input sample covariance"]["count"] < 1500
        assert 0 < reasons["oracle_lmmse"]["population input covariance"]["count"] < 1500

    @pytest.mark.parametrize(
        "where",
        [
            "worker raises", "worker dies", "parent raises", "parent interrupted",
            "worker message truncated", "second fork fails",
        ],
    )
    def test_a_failed_chunk_raises_and_leaves_no_child(self, monkeypatch, where):
        cfg = _small_config(snr_grid=(1.0,), nt_grid=(60, 80), mc_trials=6)
        real = harness._score_cells
        real_fork = os.fork
        forks = []

        def truncated(message, pipe):  # as if the worker were killed mid-write
            pipe.write(pickle.dumps(message)[:5])

        def fork():
            forks.append(True)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        # In the last chunk of the second sample-count cell.
        last = cfg.seed.child(harness._NS_TRIAL, 1, cfg.mc_trials - 1)

        def failing(ch, names, ridge, n_t, seed, *args):
            first = seed == cfg.seed.child(harness._NS_TRIAL, 0, 0)  # in the parent's chunk
            if where == "parent raises" and first:
                raise ValueError("boom in trial 0")
            if where == "parent interrupted" and first:
                raise KeyboardInterrupt
            if where == "worker raises" and seed == last:
                raise ValueError("boom in the last trial")
            if where == "worker dies" and seed == last:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(ch, names, ridge, n_t, seed, *args)

        monkeypatch.setattr(harness, "_score_cells", failing)
        if where == "worker message truncated":
            monkeypatch.setattr(pickle, "dump", truncated)
        if where == "second fork fails":
            monkeypatch.setattr(os, "fork", fork)
        _force_workers(monkeypatch, 3)
        expected = {
            "worker raises": (RuntimeError, "boom in the last trial"),
            "worker dies": (RuntimeError, "failed"),
            "parent raises": (ValueError, "boom in trial 0"),
            "parent interrupted": (KeyboardInterrupt, None),
            "worker message truncated": (
                RuntimeError, "trials 2 to 3 failed: it exited without a result"
            ),
            "second fork fails": (
                RuntimeError,
                r"sweep worker for trials 4 to 5 could not start: .*Resource temporarily",
            ),
        }[where]
        with pytest.raises(expected[0], match=expected[1]):
            sweep(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_worker_names_the_sample_count_cell_it_failed_in(self, monkeypatch):
        # A worker reports once, after its last cell, so its message must
        # carry the cell it failed in.
        cfg = _small_config(snr_grid=(1.0,), nt_grid=(60, 80, 100), mc_trials=6)
        real = harness._score_cells
        # The worker's trials, 3 to 5, of cell 1.
        in_cell_1 = {cfg.seed.child(harness._NS_TRIAL, 1, t) for t in range(3, 6)}

        def failing(ch, names, ridge, n_t, seed, *args):
            if seed in in_cell_1:
                raise ValueError("boom in cell 1")
            return real(ch, names, ridge, n_t, seed, *args)

        monkeypatch.setattr(harness, "_score_cells", failing)
        _force_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError) as info:
            sweep(cfg)
        assert "sweep worker for trials 3 to 5 of sample-count cell 1 failed" in str(info.value)
        assert "ValueError: boom in cell 1" in str(info.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_orphaned_worker_exits_within_a_trial(self, tmp_path):
        # Kill a sweep's parent process; its worker must notice before its
        # next trial and exit, rather than finish its chunk.
        if not os.path.isdir("/proc/self"):
            pytest.skip("reads process states from /proc")
        log = tmp_path / "pids"
        script = (
            "import os, sys\n"
            "from gendisc import harness\n"
            "real = harness._score_cells\n"
            "def logged(*args):\n"
            "    with open(sys.argv[1], 'a') as fh:\n"
            "        fh.write(f'{os.getpid()}\\n')\n"
            "    return real(*args)\n"
            "harness._score_cells = logged\n"
            "harness._worker_count = lambda cfg: 2\n"
            "harness.sweep(harness.ExperimentConfig(\n"
            "    n_x=2, n_y=2, snr_grid=(1.0,), nt_grid=(10,), mc_trials=10**6))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(harness.__file__).parent.parent), os.environ.get("PYTHONPATH")
        ])))
        proc = subprocess.Popen([sys.executable, "-c", script, str(log)], env=env)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while worker is None and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = set(log.read_text().split()) if log.exists() else set()
                worker = next((int(p) for p in pids if int(p) != proc.pid), None)
            assert worker is not None, "the sweep started no worker"
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestConfigValidation:
    def test_default_config_is_valid(self):
        assert ExperimentConfig().violations() == []

    def test_violations_are_collected_not_raised(self):
        cfg = ExperimentConfig(
            n_x=0, mc_trials=0, ridge=-1.0, prior_mode="bogus", snr_grid=(10.0, 10.0)
        )
        problems = cfg.violations()
        assert len(problems) == 5
        joined = " ".join(problems)
        for token in ("n_x", "mc_trials", "ridge", "prior_mode", "snr_grid contains duplicates"):
            assert token in joined

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nt_grid", (40.7,)),
            ("mc_trials", 2.5),
            ("mc_trials", True),
            ("n_x", 2.0),
            ("ridge", "0.1"),
            ("snr_grid", (True, 10.0)),
            ("seed", 1.5),
            ("estimator_set", ("generative", 3)),
            ("prior_mode", ["true_prior"]),
        ],
    )
    def test_wrong_type_is_a_violation_and_sweep_raises_value_error(self, field, value):
        cfg = _small_config(**{field: value})
        (problem,) = cfg.violations()
        assert problem.startswith(field)
        with pytest.raises(ValueError, match=field):
            sweep(cfg)

    def test_accepted_numbers_take_one_type(self):
        names = ["generative"]
        cfg = _small_config(
            snr_grid=[1, np.float64(10)], nt_grid=[1e3], ridge=0, seed=7, estimator_set=names
        )
        assert cfg.violations() == []
        canonical = dict(snr_grid=(1.0, 10.0), nt_grid=(1000,), ridge=0.0, seed=Seed(7))
        assert cfg == _small_config(**canonical, estimator_set=tuple(names))
        assert [type(s) for s in cfg.snr_grid] == [float, float]
        assert type(cfg.nt_grid[0]) is int and type(cfg.ridge) is float

    def test_unknown_estimator_flagged(self):
        cfg = ExperimentConfig(estimator_set=("generative", "nope"))
        assert any("nope" in p for p in cfg.violations())

    def test_budget_counts_the_training_draw_and_the_cell_scores(self):
        # Each term alone fits in the 1 GiB budget; together they do not.
        draw = dict(n_x=28, n_y=30, nt_grid=(1_000_000,))  # 8 * 58 * (1e6 + 58) B = 0.46 GiB
        scores = dict(mc_trials=2_300_000)  # 8 * 2.3e6 * 3 * 13 B = 0.67 GiB
        assert ExperimentConfig(**draw).violations() == []
        assert ExperimentConfig(**scores).violations() == []
        (problem,) = ExperimentConfig(**draw, **scores).violations()
        assert "budget" in problem

    def test_budget_counts_the_scores_of_every_snr_cell(self):
        # 10^7 trials of three estimators: 0.24 GB of scores per SNR cell, and
        # every SNR cell of a trial is held at once.
        assert ExperimentConfig(mc_trials=10**7, snr_grid=(1.0,)).violations() == []
        (problem,) = ExperimentConfig(mc_trials=10**7).violations()
        assert "len(snr_grid)" in problem

    def test_budget_counts_the_scores_of_every_sample_count_cell(self):
        # 0.24 GB of scores per sample-count cell, 1.2 GB for five; every
        # cell's scores are held until the sweep ends.
        assert ExperimentConfig(mc_trials=10**7, snr_grid=(1.0,), nt_grid=(40,)).violations() == []
        cfg = ExperimentConfig(mc_trials=10**7, snr_grid=(1.0,), nt_grid=(40, 60, 100, 200, 500))
        (problem,) = cfg.violations()
        assert "budget" in problem and "len(nt_grid)" in problem

    @pytest.mark.parametrize(
        "given, parsed", [("tanh", Tanh()), ({"kind": "cubic", "alpha": 0.2}, Cubic(alpha=0.2))]
    )
    def test_nonlinearity_given_in_its_json_form_is_parsed(self, given, parsed):
        cfg = ExperimentConfig(nonlinearity=given)
        assert cfg.violations() == []
        assert cfg == ExperimentConfig(nonlinearity=parsed)

    def test_nonlinear_maps_accept_every_estimator(self):
        cfg = ExperimentConfig(
            nonlinearity=Cubic(alpha=0.1), estimator_set=tuple(p.value for p in Provenance)
        )
        assert cfg.violations() == []
