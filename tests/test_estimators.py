import dataclasses
import re

import numpy as np
import pytest

from gendisc import estimators
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
    measurement_moments,
    oracle_lmmse,
)
from gendisc.moments import (
    Dataset,
    IllConditionedWarning,
    SampleMoments,
    SingularMatrixError,
    compute_moments,
    condition_events,
    gain_direct,
    gain_lemma,
    spd_solve,
    woodbury_invert,
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
    sample_pairs,
)

from conftest import affine_rel_diff, random_spd

WORKED = Dataset(xs=[3.0, 5.0, 7.0], ys=[1.0, 2.0, 3.0])


def _zero_mean_moments(n_x, n_y, C_yy=None, C_yx=None, C_xx=None, n_t=100):
    """Moments object with explicit fields, defaulting to identity covariances."""
    return SampleMoments(
        x_bar=np.zeros(n_x),
        y_bar=np.zeros(n_y),
        C_yx=np.zeros((n_y, n_x)) if C_yx is None else C_yx,
        C_yy=np.eye(n_y) if C_yy is None else C_yy,
        C_xx=np.eye(n_x) if C_xx is None else C_xx,
        n_t=n_t,
    )


def _noiseless_linear_data(n_x, n_y, n_t, seed, mu_w=None):
    prior = exp_decay_prior(n_y)
    H = random_measurement_matrix(n_x, n_y, seed.child(0))
    model = TrueModel(
        H=H, mu_w=np.zeros(n_x) if mu_w is None else mu_w, sigma2=0.0
    )
    return prior, model, sample_pairs(prior, model, n_t, seed.child(1))


class TestFitMl:
    def test_worked_scalar_dataset(self):
        fit = fit_ml(WORKED)
        assert fit.H_hat[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert fit.mu_hat[0] == pytest.approx(1.0, abs=1e-12)

    def test_accepts_precomputed_moments(self):
        fit = fit_ml(compute_moments(WORKED))
        assert fit.H_hat[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_recovers_noiseless_model(self):
        prior, model, data = _noiseless_linear_data(4, 3, 200, Seed(30), mu_w=np.array([1.0, -2.0, 0.5, 3.0]))
        fit = fit_ml(data)
        assert np.allclose(fit.H_hat, model.H, atol=1e-10)
        assert np.allclose(fit.mu_hat, model.mu_w, atol=1e-10)

    def test_constant_targets_raise_named_error(self):
        data = Dataset(xs=[[1.0], [2.0], [3.0]], ys=[[5.0], [5.0], [5.0]])
        with pytest.raises(SingularMatrixError, match="target sample covariance"):
            fit_ml(data)

    def test_ridge_fits_constant_targets(self):
        # C_yy = 0 and C_yx = 0, so the loaded solve gives H_hat = 0 and
        # leaves the input mean as the noise mean.
        data = Dataset(xs=[[1.0], [2.0], [3.0]], ys=[[5.0], [5.0], [5.0]])
        fit = fit_ml(data, ridge=0.5)
        assert np.array_equal(fit.H_hat, [[0.0]])
        assert fit.mu_hat == pytest.approx([2.0], abs=1e-15)

    def test_ridge_loads_the_target_covariance(self):
        rng = np.random.default_rng(38)
        data = Dataset(xs=rng.standard_normal((30, 4)), ys=rng.standard_normal((30, 3)))
        m = compute_moments(data)
        H_hat = np.linalg.solve(m.C_yy + 0.3 * np.eye(3), m.C_yx).T
        fit = fit_ml(m, ridge=0.3)
        assert np.allclose(fit.H_hat, H_hat, rtol=1e-12, atol=1e-14)
        assert np.allclose(fit.mu_hat, m.x_bar - H_hat @ m.y_bar, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            fit_ml(WORKED, ridge=ridge)


class TestDiscriminativeEstimator:
    def test_worked_scalar_dataset(self):
        est = discriminative_estimator(compute_moments(WORKED))
        assert est.A[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert est.b[0] == pytest.approx(-0.5, abs=1e-12)
        assert est.estimate(np.array([5.0]))[0] == pytest.approx(2.0, abs=1e-12)
        assert est.provenance is Provenance.DISCRIMINATIVE

    def test_interpolates_noiseless_linear_data(self):
        prior, model, data = _noiseless_linear_data(3, 3, 100, Seed(31))
        est = discriminative_estimator(compute_moments(data))
        for x, y in zip(data.xs[:20], data.ys[:20]):
            assert np.allclose(est.estimate(x), y, atol=1e-8)

    def test_degenerate_sample_count_raises(self):
        # n_t = N_x leaves the input sample covariance rank deficient; the
        # estimator must refuse rather than take a pseudo-inverse.
        rng = np.random.default_rng(32)
        data = Dataset(xs=rng.standard_normal((4, 4)), ys=rng.standard_normal((4, 2)))
        with pytest.raises(SingularMatrixError, match="input sample covariance"):
            discriminative_estimator(compute_moments(data))

    def test_degenerate_input_covariance_suggests_the_ridge(self):
        # Two samples of two inputs: the centred inputs span one direction.
        data = Dataset(xs=[[1.0, 0.0], [0.0, 1.0]], ys=[[1.0], [2.0]])
        with pytest.raises(SingularMatrixError, match="input sample covariance") as exc:
            discriminative_estimator(compute_moments(data))
        assert "ridge" in str(exc.value)

    def test_suggested_ridge_fits_the_degenerate_inputs(self):
        # C_xx = 0.25 [[1, -1], [-1, 1]] and C_yx = 0.25 [-1, 1]: C_yx lies
        # along C_xx's eigenvector of eigenvalue 0.5, so A = 0.25 / (0.5 + r)
        # [-1, 1], and the loaded rule nearly interpolates both samples.
        data = Dataset(xs=[[1.0, 0.0], [0.0, 1.0]], ys=[[1.0], [2.0]])
        est = discriminative_estimator(compute_moments(data), ridge=1e-3)
        assert est.A[0] == pytest.approx([-0.25 / 0.501, 0.25 / 0.501], abs=1e-12)
        assert est.b == pytest.approx([1.5], abs=1e-12)
        assert np.abs(data.xs @ est.A.T + est.b - data.ys).max() < 2e-3

    def test_ridge_loads_the_input_covariance(self):
        rng = np.random.default_rng(39)
        data = Dataset(xs=rng.standard_normal((30, 4)), ys=rng.standard_normal((30, 3)))
        m = compute_moments(data)
        A = np.linalg.solve(m.C_xx + 0.3 * np.eye(4), m.C_yx.T).T
        est = discriminative_estimator(m, ridge=0.3)
        assert np.allclose(est.A, A, rtol=1e-12, atol=1e-14)
        assert np.allclose(est.b, m.y_bar - A @ m.x_bar, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            discriminative_estimator(compute_moments(WORKED), ridge=ridge)

    def test_prior_invariance_bitwise(self):
        # The discriminative route never sees KnownStatistics: rebuilding it
        # under different priors must give bit-identical coefficients.
        rng = np.random.default_rng(33)
        data = Dataset(xs=rng.standard_normal((50, 3)), ys=rng.standard_normal((50, 2)))
        moments = compute_moments(data)
        baseline = discriminative_estimator(moments)
        for seed in range(5):
            prior = GaussianPrior(
                mu_y=np.full(2, float(seed)), C_yy=random_spd(np.random.default_rng(seed), 2)
            )
            KnownStatistics(prior=prior, sigma2=0.1 + seed)
            again = discriminative_estimator(moments)
            assert np.array_equal(again.A, baseline.A)
            assert np.array_equal(again.b, baseline.b)

    def test_erm_local_optimality(self):
        # Any 1e-3-step perturbation of (A, b) in a random direction cannot
        # lower the empirical squared-error risk of the fitted rule.
        rng = np.random.default_rng(34)
        data = Dataset(xs=rng.standard_normal((80, 3)), ys=rng.standard_normal((80, 2)))
        est = discriminative_estimator(compute_moments(data))

        def risk(A, b):
            residual = data.ys - data.xs @ A.T - b
            return float(np.mean(np.sum(residual**2, axis=1)))

        base = risk(est.A, est.b)
        for _ in range(100):
            dA = rng.standard_normal(est.A.shape)
            db = rng.standard_normal(est.b.shape)
            scale = np.sqrt(np.sum(dA**2) + np.sum(db**2))
            assert risk(est.A + 1e-3 * dA / scale, est.b + 1e-3 * db / scale) >= base


class TestGenerativeEstimator:
    def test_worked_scalar_dataset(self):
        # H_hat = 2 and mu_hat = 1; under the unit prior at sigma2 = 1 the gain
        # is 2 / (4 + 1) and the offset -G (x_bar - H_hat y_bar) = -0.4.
        moments = compute_moments(WORKED)
        known = KnownStatistics(prior=GaussianPrior([0.0], [[1.0]]), sigma2=1.0)
        est = generative_estimator(fit_ml(moments), known, moments)
        assert est.A[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert est.b[0] == pytest.approx(-0.4, abs=1e-12)

    def test_identity_shrinkage(self):
        fit = FittedModel(H_hat=np.eye(2), mu_hat=np.zeros(2))
        known = KnownStatistics(prior=GaussianPrior(np.zeros(2), np.eye(2)), sigma2=1.0)
        est = generative_estimator(fit, known, _zero_mean_moments(2, 2))
        assert np.allclose(est.A, 0.5 * np.eye(2), atol=1e-14)
        assert np.allclose(est.b, 0.0, atol=1e-14)
        assert est.provenance is Provenance.GENERATIVE

    def test_auto_picks_matching_form(self):
        # The gain inverts the smaller matrix: the lemma form's N_y x N_y one
        # when N_y <= N_x, the direct form's N_x x N_x one otherwise.
        rng = np.random.default_rng(36)
        for n_x, n_y, gain in [(5, 3, gain_lemma), (3, 5, gain_direct), (4, 4, gain_lemma)]:
            fit = FittedModel(H_hat=rng.standard_normal((n_x, n_y)), mu_hat=np.zeros(n_x))
            prior = GaussianPrior(np.zeros(n_y), random_spd(rng, n_y))
            known = KnownStatistics(prior=prior, sigma2=0.5)
            est = generative_estimator(fit, known, _zero_mean_moments(n_x, n_y))
            assert np.array_equal(est.A, gain(fit.H_hat, prior.C_yy, 0.5))

    def test_matches_highsnr_form_on_noiseless_fit(self):
        # With a noiseless fit (H_hat == H) and vanishing sigma2, the plug-in
        # estimator reduces to the closed-form high-SNR limit.
        prior, model, data = _noiseless_linear_data(3, 4, 300, Seed(37))
        moments = compute_moments(data)
        fit = fit_ml(moments)
        known = KnownStatistics(prior=prior, sigma2=1e-12)
        est = generative_estimator(fit, known, moments)
        limit = generative_highsnr(prior, model.H, moments)
        assert affine_rel_diff(est, limit) <= 1e-6

    def test_built_at_the_known_noise_variance(self):
        # The side information may state a noise variance other than the
        # data's: the rule is built at the stated one, and scored under the
        # data's it differs from the rule built at the data's.
        prior = exp_decay_prior(5)
        model = TrueModel(H=random_measurement_matrix(4, 5, Seed(6)), mu_w=np.zeros(4), sigma2=0.5)
        moments = draw_training(prior, model, 60, Seed(64)).moments(model.sigma2)
        fit = fit_ml(moments)
        stated = generative_estimator(fit, KnownStatistics(prior=prior, sigma2=2.0), moments)
        at_data = generative_estimator(fit, KnownStatistics(prior=prior, sigma2=0.5), moments)
        assert np.array_equal(stated.A, gain_direct(fit.H_hat, prior.C_yy, 2.0))
        assert affine_risk(stated, prior, model) != affine_risk(at_data, prior, model)

    def test_sigma2_must_be_positive(self):
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="sigma2"):
            KnownStatistics(prior=prior, sigma2=0.0)
        with pytest.raises(ValueError, match="sigma2"):
            KnownStatistics(prior=prior, sigma2=-1.0)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf])
    def test_sigma2_must_be_finite(self, sigma2):
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            KnownStatistics(prior=prior, sigma2=sigma2)

    def test_integer_prior_reads_as_floats(self):
        moments = compute_moments(WORKED)
        fit = fit_ml(moments)
        as_floats = KnownStatistics(prior=GaussianPrior([0.0], [[1.0]]), sigma2=1.0)
        integers = KnownStatistics(prior=GaussianPrior([0], [[1]]), sigma2=1)
        assert type(integers.sigma2) is float
        a = generative_estimator(fit, as_floats, moments)
        b = generative_estimator(fit, integers, moments)
        assert a.A.tobytes() == b.A.tobytes() and a.b.tobytes() == b.b.tobytes()

    def test_prior_of_another_dimension_than_the_targets_is_named(self):
        # Scalar targets under a two-dimensional prior.
        moments = compute_moments(WORKED)
        known = KnownStatistics(prior=GaussianPrior(np.zeros(2), np.eye(2)), sigma2=1.0)
        with pytest.raises(ValueError, match="prior dimension 2 does not match fitted H_hat columns 1"):
            generative_estimator(fit_ml(moments), known, moments)

    def test_rejects_mismatched_dimensions(self):
        fit = FittedModel(H_hat=np.ones((2, 3)), mu_hat=np.zeros(2))
        known = KnownStatistics(prior=GaussianPrior(np.zeros(2), np.eye(2)), sigma2=1.0)
        with pytest.raises(ValueError, match="prior dimension"):
            generative_estimator(fit, known, _zero_mean_moments(2, 3))
        known3 = KnownStatistics(prior=GaussianPrior(np.zeros(3), np.eye(3)), sigma2=1.0)
        with pytest.raises(ValueError, match="moments dimensions"):
            generative_estimator(fit, known3, _zero_mean_moments(4, 3))


class TestFitOnOwnData:
    """The README's route for fitting a rule on one's own data: a Dataset built from text columns."""

    @staticmethod
    def _fit(data, method):
        moments = compute_moments(data)
        if method == "discriminative":
            return discriminative_estimator(moments)
        known = KnownStatistics(prior=exp_decay_prior(2), sigma2=0.5)
        return generative_estimator(fit_ml(moments), known, moments)

    @pytest.mark.parametrize("method", ["generative", "discriminative"])
    def test_text_file_columns_fit_like_the_arrays(self, tmp_path, method):
        # One sample per line, the 3 inputs then the 2 targets; 17 significant
        # digits read back every float exactly.
        rng = np.random.default_rng(40)
        xs, ys = rng.standard_normal((25, 3)), rng.standard_normal((25, 2))
        path = tmp_path / "pairs.txt"
        np.savetxt(path, np.hstack([xs, ys]), fmt="%.17g")
        table = np.loadtxt(path)
        loaded = self._fit(Dataset(xs=table[:, :3], ys=table[:, 3:]), method)
        direct = self._fit(Dataset(xs=xs, ys=ys), method)
        assert loaded.A.tobytes() == direct.A.tobytes()
        assert loaded.b.tobytes() == direct.b.tobytes()
        assert loaded.provenance is Provenance(method)


class TestOracleLmmse:
    def test_identity_case(self):
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        model = TrueModel(H=np.eye(2), mu_w=np.zeros(2), sigma2=1.0)
        est = oracle_lmmse(prior, model)
        assert np.allclose(est.A, 0.5 * np.eye(2), atol=1e-14)
        assert np.allclose(est.b, 0.0, atol=1e-14)

    def test_huge_noise_returns_prior_mean(self):
        mu = np.array([1.0, -2.0])
        prior = GaussianPrior(mu, np.eye(2))
        model = TrueModel(H=np.eye(2), mu_w=np.zeros(2), sigma2=1e12)
        est = oracle_lmmse(prior, model)
        assert np.allclose(est.A, 0.0, atol=1e-9)
        assert np.allclose(est.b, mu, atol=1e-9)

    def test_non_finite_measurement_moments_are_rejected(self):
        # A valid cubic map whose moments overflow: a clear input error, not a factorization one.
        prior = exp_decay_prior(5)
        H = random_measurement_matrix(4, 5, Seed(40))
        model = TrueModel(H=H, mu_w=np.zeros(4), sigma2=1.0, nonlinearity=Cubic(alpha=1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                oracle_lmmse(prior, model)

    def test_linear_oracle_factors_without_the_symmetry_guard(self, monkeypatch):
        # B B^T + sigma2 I is one syrk plus a diagonal: equal to its transpose
        # bit for bit, so it is factored as given.
        from gendisc.moments import _symmetry_defect as guard

        calls = []

        def counted(M):
            calls.append(1)
            return guard(M)

        monkeypatch.setattr("gendisc.moments._symmetry_defect", counted)
        prior = exp_decay_prior(6)
        H = random_measurement_matrix(5, 6, Seed(36))
        oracle_lmmse(prior, TrueModel(H=H, mu_w=np.zeros(5), sigma2=0.3))
        assert calls == []

    def test_discriminative_converges_to_oracle(self):
        prior = exp_decay_prior(6)
        H = random_measurement_matrix(5, 6, Seed(38))
        model = TrueModel(H=H, mu_w=np.zeros(5), sigma2=0.25)
        oracle = oracle_lmmse(prior, model)
        data = sample_pairs(prior, model, 100_000, Seed(39))
        learned = discriminative_estimator(compute_moments(data))
        assert np.linalg.norm(learned.A - oracle.A) / np.linalg.norm(oracle.A) <= 0.02


class TestAsymptotes:
    def test_generative_asymptote_coincides_with_oracle_for_linear_model(self):
        prior = exp_decay_prior(6)
        H = random_measurement_matrix(4, 6, Seed(40))
        model = TrueModel(H=H, mu_w=np.full(4, 0.3), sigma2=0.5)
        asym = generative_asymptote(prior, model)
        oracle = oracle_lmmse(prior, model)
        assert affine_rel_diff(asym, oracle) <= 1e-8

    def test_generative_asymptote_factors_the_prior_once(self):
        # The population fit C_xy C_yy^{-1} is solved with the prior's kept
        # factor, so an ill-conditioned prior warns once per rule built, in
        # the lemma form's inverse of C_yy, as the generative rule's does.
        prior = GaussianPrior(np.zeros(2), np.diag([1.0, 1e-13]))
        model = TrueModel(H=np.eye(2), mu_w=np.zeros(2), sigma2=0.5)
        with condition_events() as events:
            with pytest.warns(IllConditionedWarning):
                generative_asymptote(prior, model)
        assert [name for name, _ in events] == ["prior covariance", "lemma inner matrix"]

    def test_asymptotes_read_the_measurement_moments_they_are_given(self, monkeypatch):
        # Given the model's measurement moments, the generative asymptote and
        # the oracle (the discriminative rule's limit) are the same rules bit
        # for bit, and one tanh quadrature serves both rules and their risks.
        prior = exp_decay_prior(5)
        H = 2.0 * random_measurement_matrix(6, 5, Seed(43))
        model = TrueModel(H=H, mu_w=np.zeros(6), sigma2=0.3, nonlinearity=Tanh(scale=1.0))
        known = KnownStatistics(GaussianPrior(np.zeros(5), np.eye(5)), 0.5)
        builds = {
            "generative": lambda m=None: generative_asymptote(prior, model, known, m),
            "oracle": lambda m=None: oracle_lmmse(prior, model, m),
        }
        alone = {name: build() for name, build in builds.items()}
        calls = []
        quadrature = estimators._hermite_moments
        monkeypatch.setattr(
            estimators, "_hermite_moments", lambda *a, **k: calls.append(1) or quadrature(*a, **k)
        )
        m = measurement_moments(prior, H, model.nonlinearity)
        for name, build in builds.items():
            est = build(m)
            assert np.array_equal(est.A, alone[name].A) and np.array_equal(est.b, alone[name].b)
            affine_risk(est, prior, model, m)
        assert len(calls) == 1

    def test_zero_noise_reduces_to_inverse_of_square_channel(self):
        # sigma2 = 0 with consistent linear moments gives the direct-form
        # gain at H_hat = H; for a square invertible channel that is H^{-1}.
        prior = exp_decay_prior(4)
        H = random_measurement_matrix(4, 4, Seed(42))
        model = TrueModel(H=H, mu_w=np.zeros(4), sigma2=0.0)
        asym = generative_asymptote(prior, model)
        direct = gain_direct(H, prior.C_yy, 0.0)
        assert np.allclose(asym.A, direct, atol=1e-8)
        assert np.allclose(asym.A @ H, np.eye(4), atol=1e-8)

    def test_nonlinear_model_separates_the_asymptotes(self):
        # Under tanh saturation the plug-in limit no longer matches the
        # population LMMSE gain, the oracle that the discriminative rule
        # tends to; the gap is the asymptotic price of the model mismatch.
        prior = exp_decay_prior(5)
        H = 2.0 * random_measurement_matrix(6, 5, Seed(43))
        model = TrueModel(H=H, mu_w=np.zeros(6), sigma2=0.25, nonlinearity=Tanh(scale=1.0))
        gen = generative_asymptote(prior, model)
        disc = oracle_lmmse(prior, model)
        assert disc.provenance is Provenance.ORACLE_LMMSE
        assert np.linalg.norm(gen.A - disc.A) > 1e-3

    @pytest.mark.parametrize("asymptote", [generative_asymptote, oracle_lmmse])
    def test_asymptotes_check_their_inputs(self, asymptote):
        prior = exp_decay_prior(5)
        H = random_measurement_matrix(4, 5, Seed(40))
        with pytest.raises(ValueError, match="prior dimension"):
            asymptote(exp_decay_prior(4), TrueModel(H=H, mu_w=np.zeros(4), sigma2=1.0))
        overflow = TrueModel(H=H, mu_w=np.zeros(4), sigma2=1.0, nonlinearity=Cubic(alpha=1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                asymptote(prior, overflow)

    def test_generative_asymptote_is_built_at_the_known_noise_variance(self):
        # The asymptote is the generative rule's limit, so it too reads the
        # stated noise variance: for a linear model it is the generative rule
        # at H built at 2, not the data's 0.5, and so risks more than the
        # oracle, which the asymptote at the data's noise variance is.
        prior = exp_decay_prior(5)
        model = TrueModel(H=random_measurement_matrix(4, 5, Seed(6)), mu_w=np.zeros(4), sigma2=0.5)
        stated = generative_asymptote(prior, model, KnownStatistics(prior=prior, sigma2=2.0))
        assert np.allclose(stated.A, gain_direct(model.H, prior.C_yy, 2.0), rtol=1e-10, atol=1e-12)
        oracle = affine_risk(oracle_lmmse(prior, model), prior, model)
        assert affine_risk(stated, prior, model) > oracle * (1.0 + 1e-3)

    def test_generative_asymptote_rejects_a_mismatched_known_prior(self):
        prior = exp_decay_prior(5)
        model = TrueModel(H=random_measurement_matrix(4, 5, Seed(40)), mu_w=np.zeros(4), sigma2=1.0)
        known = KnownStatistics(prior=exp_decay_prior(4), sigma2=1.0)
        with pytest.raises(ValueError, match="known prior dimension"):
            generative_asymptote(prior, model, known)

    def test_tanh_generative_asymptote_pays_for_the_mismatch(self):
        # The generative limit fits the linear model to tanh data, so its
        # exact risk exceeds the best affine rule's.
        prior = exp_decay_prior(5)
        H = random_measurement_matrix(6, 5, Seed(45))
        model = TrueModel(H=H, mu_w=np.zeros(6), sigma2=0.25, nonlinearity=Tanh(scale=1.0))
        gen = affine_risk(generative_asymptote(prior, model), prior, model)
        oracle = affine_risk(oracle_lmmse(prior, model), prior, model)
        assert gen > oracle * (1.0 + 1e-3)


class TestHighSnrLimits:
    def test_generative_gain_is_oblique_projection(self):
        prior = exp_decay_prior(5)
        H = random_measurement_matrix(3, 5, Seed(45))
        moments = _zero_mean_moments(3, 5)
        est = generative_highsnr(prior, H, moments)
        AH = est.A @ H
        assert np.allclose(AH @ AH, AH, atol=1e-10)
        assert np.allclose(H @ est.A, np.eye(3), atol=1e-10)

    def test_scalar_channel(self):
        prior = GaussianPrior(np.zeros(1), np.eye(1))
        est = generative_highsnr(prior, np.array([[2.0]]), _zero_mean_moments(1, 1))
        assert est.A[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_generative_matches_finite_snr_at_tiny_noise(self):
        prior = exp_decay_prior(6)
        H = random_measurement_matrix(4, 6, Seed(46))
        sigma2 = 1e-10
        model = TrueModel(H=H, mu_w=np.zeros(4), sigma2=sigma2)
        moments = compute_moments(sample_pairs(prior, model, 500, Seed(47)))
        est = generative_estimator(
            fit_ml(moments), KnownStatistics(prior=prior, sigma2=sigma2), moments
        )
        limit = generative_highsnr(prior, H, moments)
        assert affine_rel_diff(est, limit) <= 1e-5

    def test_discriminative_matches_finite_snr_at_tiny_noise(self):
        prior = exp_decay_prior(6)
        H = random_measurement_matrix(4, 6, Seed(48))
        model = TrueModel(H=H, mu_w=np.zeros(4), sigma2=1e-10)
        moments = compute_moments(sample_pairs(prior, model, 500, Seed(49)))
        est = discriminative_estimator(moments)
        limit = discriminative_highsnr(H, moments)
        assert affine_rel_diff(est, limit) <= 1e-5

    def test_limits_coincide_at_true_sample_statistics(self):
        # Swapping the empirical target mean/covariance for the true ones
        # makes the two limit estimators identical.
        prior = exp_decay_prior(5)
        H = random_measurement_matrix(3, 5, Seed(50))
        model = TrueModel(H=H, mu_w=np.zeros(3), sigma2=1e-8)
        moments = compute_moments(sample_pairs(prior, model, 200, Seed(51)))
        pinned = dataclasses.replace(moments, y_bar=prior.mu_y, C_yy=prior.C_yy)
        gen = generative_highsnr(prior, H, pinned)
        disc = discriminative_highsnr(H, pinned)
        assert affine_rel_diff(gen, disc) <= 1e-6

    def test_discriminative_scalar_worked_example(self):
        # ys = [1,2,3] through H = [2] without noise: xs = [2,4,6], so the
        # limit estimator maps x = 4 to y = 2.
        data = Dataset(xs=[2.0, 4.0, 6.0], ys=[1.0, 2.0, 3.0])
        est = discriminative_highsnr(np.array([[2.0]]), compute_moments(data))
        assert est.estimate(np.array([4.0]))[0] == pytest.approx(2.0, abs=1e-12)

    def test_high_snr_shapes_checked(self):
        prior = exp_decay_prior(5)
        with pytest.raises(ValueError, match="inconsistent"):
            generative_highsnr(prior, np.ones((3, 4)), _zero_mean_moments(3, 5))
        with pytest.raises(ValueError, match="moments dimensions"):
            discriminative_highsnr(np.ones((3, 4)), _zero_mean_moments(3, 5))

    def test_monotone_convergence_as_noise_vanishes(self):
        # With shared randomness across noise levels, the gap to the limit
        # estimator shrinks at every step of sigma2 in {1e-2, ..., 1e-10}.
        prior = exp_decay_prior(4)
        H = random_measurement_matrix(3, 4, Seed(52))
        gen_gaps, disc_gaps = [], []
        for sigma2 in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            model = TrueModel(H=H, mu_w=np.zeros(3), sigma2=sigma2)
            moments = compute_moments(sample_pairs(prior, model, 500, Seed(53)))
            gen = generative_estimator(
                fit_ml(moments), KnownStatistics(prior=prior, sigma2=sigma2), moments
            )
            gen_gaps.append(affine_rel_diff(gen, generative_highsnr(prior, H, moments)))
            disc = discriminative_estimator(moments)
            disc_gaps.append(affine_rel_diff(disc, discriminative_highsnr(H, moments)))
        assert all(a > b for a, b in zip(gen_gaps, gen_gaps[1:])), gen_gaps
        assert all(a > b for a, b in zip(disc_gaps, disc_gaps[1:])), disc_gaps


class TestAffineEstimator:
    def test_constant_rule_returns_offset(self):
        mu = np.array([1.0, 2.0])
        est = AffineEstimator(A=np.zeros((2, 3)), b=mu, provenance=Provenance.ORACLE_LMMSE)
        assert np.array_equal(est.estimate(np.array([9.0, -4.0, 0.1])), mu)

    def test_identity_rule(self):
        est = AffineEstimator(A=np.eye(3), b=np.zeros(3), provenance=Provenance.DISCRIMINATIVE)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(est.estimate(x), x)

    def test_scalar_worked_example(self):
        est = AffineEstimator(
            A=np.array([[0.5]]), b=np.array([-0.5]), provenance=Provenance.DISCRIMINATIVE
        )
        assert est.estimate(np.array([5.0]))[0] == pytest.approx(2.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        est = AffineEstimator(A=np.eye(2), b=np.zeros(2), provenance=Provenance.GENERATIVE)
        with pytest.raises(ValueError, match="length"):
            est.estimate(np.array([1.0, 2.0, 3.0]))


class TestAffineRisk:
    @staticmethod
    def _offset_model(sigma2=0.4):
        """Small linear model with nonzero target and noise means."""
        rng = np.random.default_rng(61)
        prior = GaussianPrior(mu_y=np.array([0.5, -1.0, 2.0, 0.0]), C_yy=random_spd(rng, 4))
        H = random_measurement_matrix(3, 4, Seed(62))
        model = TrueModel(H=H, mu_w=np.array([1.0, 0.0, -0.5]), sigma2=sigma2)
        return prior, model

    def test_agrees_with_test_pair_average(self):
        # An arbitrary fixed rule: the exact risk must lie within 4 SE of the
        # mean squared error over 200k fresh pairs.
        prior, model = self._offset_model()
        rng = np.random.default_rng(63)
        est = AffineEstimator(
            A=rng.standard_normal((4, 3)), b=rng.standard_normal(4),
            provenance=Provenance.DISCRIMINATIVE,
        )
        data = sample_pairs(prior, model, 200_000, Seed(64))
        errs = np.sum((data.ys - data.xs @ est.A.T - est.b) ** 2, axis=1)
        se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(affine_risk(est, prior, model) - errs.mean()) <= 4.0 * se

    def test_oracle_risk_is_the_lmmse_error_trace(self):
        prior, model = self._offset_model()
        oracle = oracle_lmmse(prior, model)
        C = prior.C_yy
        expected = np.trace(C) - np.trace(oracle.A @ model.H @ C)
        assert affine_risk(oracle, prior, model) == pytest.approx(expected, rel=1e-10)
        # Criterion 3 as a risk identity: the generative asymptote is the oracle.
        asym = generative_asymptote(prior, model)
        assert affine_risk(asym, prior, model) == pytest.approx(expected, rel=1e-10)

    def test_oracle_risk_bounds_learned_rules(self):
        prior, model = self._offset_model()
        known = KnownStatistics(prior=prior, sigma2=model.sigma2)
        oracle_risk = affine_risk(oracle_lmmse(prior, model), prior, model)
        for t in range(5):
            moments = compute_moments(sample_pairs(prior, model, 20, Seed(65, (t,))))
            for est in (
                generative_estimator(fit_ml(moments), known, moments),
                discriminative_estimator(moments),
            ):
                assert 0.0 <= oracle_risk <= affine_risk(est, prior, model)

    def test_noiseless_exact_rule_has_zero_risk(self):
        prior = exp_decay_prior(3)
        model = TrueModel(H=np.eye(3), mu_w=np.zeros(3), sigma2=0.0)
        est = AffineEstimator(A=np.eye(3), b=np.zeros(3), provenance=Provenance.ORACLE_LMMSE)
        assert affine_risk(est, prior, model) == 0.0

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_distorted_risk_agrees_with_a_million_test_pairs(self, nonlinearity):
        # Nonzero target and noise means exercise every term of the risk.
        prior, linear = self._offset_model()
        model = dataclasses.replace(linear, nonlinearity=nonlinearity)
        rng = np.random.default_rng(66)
        est = AffineEstimator(
            A=rng.standard_normal((4, 3)), b=rng.standard_normal(4),
            provenance=Provenance.DISCRIMINATIVE,
        )
        errs = np.concatenate([
            np.sum((d.ys - d.xs @ est.A.T - est.b) ** 2, axis=1)
            for d in (sample_pairs(prior, model, 250_000, Seed(67, (c,))) for c in range(4))
        ])
        se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(affine_risk(est, prior, model) - errs.mean()) <= 4.0 * se

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_sum_of_squares_is_the_moment_form(self, nonlinearity):
        # tr C_yy - 2 <A, C_yx> + <A C_xx, A> + ||bias||^2 expands the same risk.
        prior, linear = self._offset_model()
        model = dataclasses.replace(linear, nonlinearity=nonlinearity)
        m = measurement_moments(prior, model.H, nonlinearity)
        mu_x = m.mu_g + model.mu_w
        C_yx = prior.L_yy @ m.B.T
        C_xx = m.B @ m.B.T + m.Q + model.sigma2 * np.eye(3)
        rng = np.random.default_rng(68)
        A, b = rng.standard_normal((4, 3)), rng.standard_normal(4)
        est = AffineEstimator(A=A, b=b, provenance=Provenance.GENERATIVE)
        bias = prior.mu_y - A @ mu_x - b
        expected = (
            np.trace(prior.C_yy) - 2.0 * np.vdot(A, C_yx) + np.vdot(A @ C_xx, A) + bias @ bias
        )
        assert affine_risk(est, prior, model) == pytest.approx(expected, rel=1e-12)

    def test_rejects_mismatched_rule(self):
        prior = exp_decay_prior(2)
        model = TrueModel(H=np.eye(2), mu_w=np.zeros(2), sigma2=1.0)
        est = AffineEstimator(A=np.eye(3), b=np.zeros(3), provenance=Provenance.GENERATIVE)
        with pytest.raises(ValueError, match="inconsistent"):
            affine_risk(est, prior, model)


class TestMeasurementMoments:
    @staticmethod
    def _bench_geometry(seed=7):
        """The benchmark's 28 x 30 geometry: the moments of u = H y, y ~ N(0, C_yy)."""
        prior = exp_decay_prior(30)
        H = random_measurement_matrix(28, 30, Seed(seed))
        HL = H @ prior.L_yy
        return prior, H, H @ prior.mu_y, HL @ HL.T

    def test_linear_moments_reproduce_the_linear_closed_forms(self):
        # mu_x = H mu_y + mu_w, C_yx = L_yy B^T = C_yy H^T and
        # C_xx = B B^T + sigma2 I = H C_yy H^T + sigma2 I.
        rng = np.random.default_rng(70)
        prior = GaussianPrior(mu_y=rng.standard_normal(5), C_yy=random_spd(rng, 5))
        H = random_measurement_matrix(4, 5, Seed(71))
        m = measurement_moments(prior, H, Linear())
        assert m.Q is None
        assert np.allclose(m.mu_g, H @ prior.mu_y, rtol=0, atol=1e-12)
        # The closed forms in H and C_yy, independent of the factor L_yy.
        assert np.allclose(prior.L_yy @ m.B.T, prior.C_yy @ H.T, rtol=0, atol=1e-12)
        assert np.allclose(m.B @ m.B.T, H @ prior.C_yy @ H.T, rtol=0, atol=1e-12)

    def test_cubic_matches_isserlis(self):
        # Zero mean: d = 1 + 3 alpha S_ii and Q = 6 alpha^2 S∘S∘S.
        prior, H, _, S = self._bench_geometry()
        alpha = 0.1
        m = measurement_moments(prior, H, Cubic(alpha=alpha))
        d = 1.0 + 3.0 * alpha * np.diag(S)
        assert np.allclose(m.B, d[:, None] * (H @ prior.L_yy), rtol=1e-12, atol=0)
        assert np.allclose(m.Q, 6.0 * alpha**2 * S**3, rtol=1e-12, atol=0)
        assert np.allclose(m.mu_g, 0.0, rtol=0, atol=1e-12)

    def test_quadrature_reproduces_the_cubic_closed_form(self):
        # A cubic has b_k = 0 beyond k = 3, so the series path must land on
        # the closed form, mean terms included.
        rng = np.random.default_rng(72)
        prior = GaussianPrior(mu_y=rng.standard_normal(5), C_yy=random_spd(rng, 5))
        H = random_measurement_matrix(4, 5, Seed(73))
        HL = H @ prior.L_yy
        cubic = Cubic(alpha=0.2)
        exact = measurement_moments(prior, H, cubic)
        mu_g, d, Q, tail = estimators._hermite_moments(cubic.apply, H @ prior.mu_y, HL @ HL.T)
        assert np.allclose(mu_g, exact.mu_g, rtol=1e-12, atol=1e-12)
        assert np.allclose(d[:, None] * HL, exact.B, rtol=1e-12, atol=1e-12)
        assert np.allclose(Q, exact.Q, rtol=1e-10, atol=1e-12 * np.abs(exact.Q).max())

    def test_tanh_series_meets_its_bounds_on_bench_geometry(self, monkeypatch):
        prior, H, m, S = self._bench_geometry()
        s = np.sqrt(np.diag(S))
        rho = S / np.outer(s, s)
        np.fill_diagonal(rho, 0.0)
        assert np.abs(rho).max() <= estimators._SERIES_RHO_MAX  # the series covers every pair
        g = Tanh(scale=1.0).apply
        mu_g, d, Q, tail = estimators._hermite_moments(g, m, S)
        var = np.diag(Q) + (d * s) ** 2  # Var g(u_i) = Q_ii + b_1(i)^2
        tol = estimators._SERIES_RTOL * var.max()
        assert tail <= tol
        # The quadrature has converged: three times the nodes agree.
        fine = estimators._hermite_moments(g, m, S, nodes=3 * estimators._QUAD_NODES - 2)
        assert np.allclose(fine[2], Q, rtol=0, atol=1e-13)
        assert np.allclose(fine[1], d, rtol=0, atol=1e-14)
        # The truncation error obeys the tail bound: the series summed to
        # the maximal order moves no entry by more than the tolerance.
        monkeypatch.setattr(estimators, "_SERIES_RTOL", 0.0)
        full = estimators._hermite_moments(g, m, S)[2]
        assert np.abs(full - Q).max() <= tol
        # Parseval: the residual left on the diagonal is the variance the
        # orders k >= 2 carry, so it is nonnegative and below Var g.
        assert np.all(np.diag(Q) >= 0.0) and np.all(np.diag(Q) < var)

    def test_collinear_rows_are_integrated_in_two_dimensions(self, monkeypatch):
        # Rows 1 and 2 repeat and negate row 0 (|rho| = 1, where the series
        # would not converge); row 3 has |rho| = 0.95 with row 0.
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        c = 0.95
        H = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [c, np.sqrt(1 - c * c)]])
        tanh = Tanh(scale=0.5)
        m = measurement_moments(prior, H, tanh)
        assert m.Q[0, 1] == pytest.approx(m.Q[0, 0], rel=1e-12)
        assert m.Q[0, 2] == pytest.approx(-m.Q[0, 0], rel=1e-12)
        # The 0.95 pair against the series alone, carried far enough to converge.
        monkeypatch.setattr(estimators, "_SERIES_RHO_MAX", 0.99)
        monkeypatch.setattr(estimators, "_SERIES_MAX_ORDER", 1500)
        series = estimators._hermite_moments(tanh.apply, np.zeros(4), H @ H.T)[2]
        assert m.Q[0, 3] == pytest.approx(series[0, 3], rel=1e-10)


_PRIOR_2 = GaussianPrior(mu_y=np.zeros(2), C_yy=np.eye(2))
_MOMENTS_2 = dict(x_bar=np.zeros(2), y_bar=np.zeros(2), C_yx=np.eye(2), C_yy=np.eye(2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FittedModel(H_hat=np.ones((2, 2)), mu_hat=np.zeros(3)),
         "mu_hat length 3 does not match H_hat rows 2"),
        (lambda: KnownStatistics(prior=np.eye(2), sigma2=1.0), "prior must be a GaussianPrior"),
        (lambda: AffineEstimator(np.ones((2, 2)), np.zeros(3), Provenance.GENERATIVE),
         "b length 3 does not match A rows 2"),
        (lambda: measurement_moments(_PRIOR_2, np.ones((3, 4)), Linear()),
         "H shape (3, 4) does not match prior dimension 2"),
        (lambda: TrueModel(H=np.ones((3, 2)), mu_w=np.zeros(2), sigma2=1.0),
         "mu_w length 2 does not match H rows 3"),
        (lambda: TrueModel(H=np.ones((3, 2)), mu_w=np.zeros(3), sigma2=-1.0),
         "sigma2 must be finite and nonnegative, got -1.0"),
        (lambda: TrueModel(H=np.ones((3, 2)), mu_w=np.zeros(3), sigma2=1.0, nonlinearity="tanh"),
         "unknown nonlinearity 'tanh'"),
        (lambda: exp_decay_prior(0), "n_y must be at least 1, got 0"),
        (lambda: exp_decay_prior(3, length_scale=0), "length_scale must be positive, got 0"),
        (lambda: random_measurement_matrix(0, 3, Seed(1)),
         "dimensions must be at least 1, got (0, 3)"),
        (lambda: SampleMoments(**_MOMENTS_2, C_xx=np.eye(3), n_t=5), "inconsistent moment shapes"),
        (lambda: SampleMoments(**_MOMENTS_2, C_xx=np.eye(2), n_t=0),
         "n_t must be at least 1, got 0"),
        (lambda: spd_solve(np.ones((2, 3)), np.ones(2)), "matrix must be square, got shape (2, 3)"),
        (lambda: woodbury_invert(np.ones((3, 2)), np.eye(3), 1.0),
         "shape mismatch: H is (3, 2), C is (3, 3)"),
    ],
)
def test_public_constructor_rejects_malformed_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
