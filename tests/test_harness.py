import warnings

import numpy as np
import pytest

from gendisc import harness
from gendisc.estimators import (
    KnownStatistics,
    Provenance,
    affine_risk,
    discriminative_estimator,
    fit_ml,
    generative_estimator,
    oracle_lmmse,
)
from gendisc.harness import (
    ExperimentConfig,
    SweepPoint,
    compute_mse,
    run_single_trial,
    run_trial,
    sweep,
)
from gendisc.synth import (
    Cubic,
    GaussianPrior,
    Seed,
    Tanh,
    TrueModel,
    exp_decay_prior,
    random_measurement_matrix,
    sample_moments,
)


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


class TestRunSingleTrial:
    def test_oracle_error_matches_closed_form_trace(self):
        # For H = I, C_yy = I, sigma2 = 1 in two dimensions the oracle error
        # covariance is C_yy - A H C_yy = I/2, whose trace is 1.0; each trial
        # scores the oracle by its exact risk, so every trial gives 1.0.
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        model = TrueModel(H=np.eye(2), mu_w=np.zeros(2), sigma2=1.0)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        seed = Seed(55)
        for t in range(3):
            out = run_single_trial(prior, model, known, 1, ("oracle_lmmse",), seed.child(t))
            assert out.errors["oracle_lmmse"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_square_identity_channel(self):
        # Noiseless test mode: every constructible estimator reproduces the
        # target exactly. The finite-SNR generative constructor requires
        # sigma2 > 0 so the high-SNR forms stand in for it here.
        n = 3
        prior = exp_decay_prior(n)
        model = TrueModel(H=np.eye(n), mu_w=np.zeros(n), sigma2=0.0)
        names = (
            "discriminative",
            "oracle_lmmse",
            "generative_high_snr",
            "discriminative_high_snr",
        )
        out = run_single_trial(prior, model, None, 50, names, Seed(56))
        assert not out.failures
        for name in names:
            assert out.errors[name] <= 1e-6

    def test_failures_recorded_without_aborting(self):
        # n_t = 5 < N_y = 8 leaves the target sample covariance singular: the
        # generative fit fails, the others still produce errors.
        prior = exp_decay_prior(8)
        model = TrueModel(H=random_measurement_matrix(3, 8, Seed(4)), mu_w=np.zeros(3), sigma2=1.0)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        out = run_single_trial(
            prior, model, known, 5, ("generative", "discriminative", "oracle_lmmse"), Seed(57)
        )
        assert set(out.failures) == {"generative"}
        assert "target sample covariance" in out.failures["generative"]
        assert set(out.errors) == {"discriminative", "oracle_lmmse"}

    def test_unknown_estimator_name_rejected(self):
        prior = exp_decay_prior(2)
        model = TrueModel(H=np.eye(2), mu_w=np.zeros(2), sigma2=1.0)
        with pytest.raises(ValueError, match="bogus"):
            run_single_trial(prior, model, None, 10, ("oracle_lmmse", "bogus"), Seed(63))

    def test_all_provenances_constructible(self):
        prior = exp_decay_prior(4)
        model = TrueModel(H=random_measurement_matrix(3, 4, Seed(5)), mu_w=np.zeros(3), sigma2=0.5)
        known = KnownStatistics(prior=prior, sigma2=0.5)
        names = tuple(p.value for p in Provenance)
        out = run_single_trial(prior, model, known, 100, names, Seed(58))
        assert not out.failures
        assert set(out.errors) == set(names)


class TestScoring:
    @staticmethod
    def _count_draws(monkeypatch):
        """Record the seed of every ``sample_moments`` call the harness makes."""
        seeds = []

        def counting(prior, model, n, seed):
            seeds.append(seed)
            return sample_moments(prior, model, n, seed)

        monkeypatch.setattr(harness, "sample_moments", counting)
        return seeds

    @staticmethod
    def _rules(prior, model, known, n_t, seed):
        """The learned rules a trial fits, rebuilt from its training stream."""
        moments = sample_moments(prior, model, n_t, seed.child(0))
        return {
            "generative": generative_estimator(fit_ml(moments), known, moments),
            "discriminative": discriminative_estimator(moments),
        }

    def test_linear_trial_scores_exact_risk_under_data_prior(self, monkeypatch):
        # The generative rule gets mismatched side information, but every
        # rule's risk is taken under the prior that generated the data.
        prior = exp_decay_prior(5)
        model = TrueModel(H=random_measurement_matrix(4, 5, Seed(6)), mu_w=np.zeros(4), sigma2=0.5)
        known = KnownStatistics(prior=GaussianPrior(np.zeros(5), np.eye(5)), sigma2=0.5)
        seed = Seed(59)
        seeds = self._count_draws(monkeypatch)
        out = run_single_trial(
            prior, model, known, 60, ("generative", "discriminative", "oracle_lmmse"), seed
        )
        assert seeds == [seed.child(0)]
        rules = self._rules(prior, model, known, 60, seed)
        rules["oracle_lmmse"] = oracle_lmmse(prior, model)
        assert out.errors == {name: affine_risk(est, prior, model) for name, est in rules.items()}

    def test_tanh_trial_scores_exact_risk(self, monkeypatch):
        prior = exp_decay_prior(5)
        model = TrueModel(
            H=random_measurement_matrix(4, 5, Seed(6)), mu_w=np.zeros(4), sigma2=0.5,
            nonlinearity=Tanh(scale=1.0),
        )
        known = KnownStatistics(prior=prior, sigma2=0.5)
        seed = Seed(60)
        seeds = self._count_draws(monkeypatch)
        out = run_single_trial(prior, model, known, 60, ("generative", "discriminative"), seed)
        assert seeds == [seed.child(0)]
        rules = self._rules(prior, model, known, 60, seed)
        assert out.errors == {name: affine_risk(est, prior, model) for name, est in rules.items()}

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_oracle_bounds_every_rule_under_distortion(self, nonlinearity):
        # The oracle is the best affine rule under the true map, so in every
        # trial its exact risk is at most that of any other rule scored.
        prior = exp_decay_prior(5)
        names = tuple(p.value for p in Provenance)
        for t in range(5):
            H = random_measurement_matrix(4, 5, Seed(61, (t,)))
            model = TrueModel(H=H, mu_w=np.zeros(4), sigma2=0.2, nonlinearity=nonlinearity)
            known = KnownStatistics(prior=prior, sigma2=0.2)
            out = run_single_trial(prior, model, known, 60, names, Seed(62, (t,)))
            assert not out.failures
            oracle = out.errors["oracle_lmmse"]
            for name, err in out.errors.items():
                assert oracle <= err * (1.0 + 1e-12), name


class TestRunTrial:
    def test_deterministic_per_trial(self):
        cfg = _small_config()
        point = SweepPoint(index=1, snr=10.0, n_t=60)
        a = run_trial(cfg, point, 7)
        b = run_trial(cfg, point, 7)
        assert a.errors == b.errors
        assert a.failures == b.failures

    def test_distinct_trials_differ(self):
        cfg = _small_config()
        point = SweepPoint(index=0, snr=1.0, n_t=60)
        assert run_trial(cfg, point, 0).errors != run_trial(cfg, point, 1).errors

    def test_matches_manual_assembly_per_trial_h(self):
        cfg = _small_config(h_mode="per_trial")
        point = SweepPoint(index=0, snr=1.0, n_t=60)
        out = run_trial(cfg, point, 3)
        trial_seed = cfg.seed.child(0, 0, 3)
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, trial_seed.child(2))
        prior = exp_decay_prior(cfg.n_y)
        model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=1.0)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        expected = run_single_trial(prior, model, known, 60, cfg.estimator_set, trial_seed)
        assert out.errors == expected.errors

    def test_fixed_once_draws_h_from_reserved_stream(self):
        cfg = _small_config(h_mode="fixed_once")
        point = SweepPoint(index=0, snr=1.0, n_t=60)
        out = run_trial(cfg, point, 3)
        trial_seed = cfg.seed.child(0, 0, 3)
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, cfg.seed.child(1))
        prior = exp_decay_prior(cfg.n_y)
        model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=1.0)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        expected = run_single_trial(prior, model, known, 60, cfg.estimator_set, trial_seed)
        assert out.errors == expected.errors

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_fixed_once_moments_are_the_trial_moments(self, nonlinearity):
        # The sweep-constant moments of the frozen H score exactly as the
        # moments a trial computes for itself.
        cfg = _small_config(
            h_mode="fixed_once", nonlinearity=nonlinearity,
            estimator_set=tuple(p.value for p in Provenance),
        )
        point = SweepPoint(index=0, snr=1.0, n_t=60)
        out = run_trial(cfg, point, 3)
        H = random_measurement_matrix(cfg.n_x, cfg.n_y, cfg.seed.child(1))
        prior = exp_decay_prior(cfg.n_y)
        model = TrueModel(H=H, mu_w=np.zeros(cfg.n_x), sigma2=1.0, nonlinearity=nonlinearity)
        known = KnownStatistics(prior=prior, sigma2=1.0)
        expected = run_single_trial(
            prior, model, known, 60, cfg.estimator_set, cfg.seed.child(0, 0, 3)
        )
        assert out.errors == expected.errors
        assert not out.failures

    def test_identity_mismatch_changes_only_generative(self):
        cfg_true = _small_config(prior_mode="true_prior")
        cfg_mis = _small_config(prior_mode="identity_mismatch")
        point = SweepPoint(index=0, snr=1.0, n_t=60)
        out_true = run_trial(cfg_true, point, 0)
        out_mis = run_trial(cfg_mis, point, 0)
        # Same data streams: the prior-free estimators are untouched.
        assert out_true.errors["discriminative"] == out_mis.errors["discriminative"]
        assert out_true.errors["oracle_lmmse"] == out_mis.errors["oracle_lmmse"]
        assert out_true.errors["generative"] != out_mis.errors["generative"]


class TestSweeps:
    def test_schedule_independence(self):
        # A trial depends only on its (cell, trial) coordinates, so the sweep's
        # rows equal those aggregated from trials run in reverse order.
        cfg = _small_config(mc_trials=6)
        report = sweep(cfg)
        points = [SweepPoint(index=i, snr=s, n_t=60) for i, s in enumerate(cfg.snr_grid)]
        tasks = [(point, t) for point in points for t in range(cfg.mc_trials)]
        outcomes = {(p.index, t): run_trial(cfg, p, t) for p, t in reversed(tasks)}
        for row in report.rows:
            i = cfg.snr_grid.index(row.sweep_value)
            errs = [outcomes[(i, t)].errors[row.estimator] for t in range(cfg.mc_trials)]
            assert (row.mean_mse, row.std_err) == compute_mse(errs)

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
            point = SweepPoint(index=index, snr=10.0, n_t=row.sweep_value)
            errs = [run_trial(cfg, point, t).errors[row.estimator] for t in range(3)]
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


class TestConfigValidation:
    def test_default_config_is_valid(self):
        assert ExperimentConfig().violations() == []

    def test_violations_are_collected_not_raised(self):
        cfg = ExperimentConfig(n_x=0, mc_trials=0, ridge=-1.0, prior_mode="bogus")
        problems = cfg.violations()
        assert len(problems) == 4
        joined = " ".join(problems)
        for token in ("n_x", "mc_trials", "ridge", "prior_mode"):
            assert token in joined

    def test_unknown_estimator_flagged(self):
        cfg = ExperimentConfig(estimator_set=("generative", "nope"))
        assert any("nope" in p for p in cfg.violations())

    def test_budget_counts_the_training_draw_and_the_cell_scores(self):
        # Each term alone fits in the 1 GiB budget; together they do not.
        draw = dict(n_x=28, n_y=30, nt_grid=(1_000_000,))  # 8 * 58 * (1e6 + 58) B = 0.46 GiB
        scores = dict(mc_trials=30_000_000)  # 8 * 30e6 * 3 B = 0.67 GiB
        assert ExperimentConfig(**draw).violations() == []
        assert ExperimentConfig(**scores).violations() == []
        (problem,) = ExperimentConfig(**draw, **scores).violations()
        assert "budget" in problem

    def test_nonlinear_maps_accept_every_estimator(self):
        cfg = ExperimentConfig(
            nonlinearity=Cubic(alpha=0.1), estimator_set=tuple(p.value for p in Provenance)
        )
        assert cfg.violations() == []
