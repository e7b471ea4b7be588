import warnings

import numpy as np
import pytest

from gendisc.estimators import affine_risk, discriminative_estimator, oracle_lmmse
from gendisc.moments import compute_moments
from gendisc.synth import (
    Cubic,
    GaussianPrior,
    Linear,
    Seed,
    Tanh,
    TrueModel,
    _standard_scatter_root,
    draw_training,
    exp_decay_prior,
    random_measurement_matrix,
    sample_pairs,
    sample_targets,
)


class TestSeed:
    def test_same_stream_reproduces(self):
        s = Seed(42).child(3, 7)
        a = s.generator().standard_normal(5)
        b = s.generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_children_are_distinct_streams(self):
        s = Seed(42)
        a = s.child(0).generator().standard_normal(5)
        b = s.child(1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_master_range_checked(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(2**64)
        Seed(2**64 - 1)  # max value is fine

    @pytest.mark.parametrize("master", [1.5, 7.0, "7", True, None])
    def test_master_that_is_not_an_integer_rejected(self, master):
        with pytest.raises(ValueError, match="master seed"):
            Seed(master)

    @pytest.mark.parametrize("index", [1.5, 2.0, "2", True])
    def test_child_index_that_is_not_an_integer_rejected(self, index):
        with pytest.raises(ValueError, match="stream indices"):
            Seed(42).child(0, index)
        with pytest.raises(ValueError, match="stream indices"):
            Seed(42, (index,))

    def test_numpy_integers_accepted_as_python_ints(self):
        seed = Seed(np.uint64(42)).child(np.int64(3), np.int32(7))
        assert seed == Seed(42).child(3, 7)
        assert type(seed.master) is int and all(type(i) is int for i in seed.stream)


class TestGaussianPrior:
    def test_rejects_non_pd_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianPrior(mu_y=np.zeros(2), C_yy=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianPrior(mu_y=np.zeros(2), C_yy=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_asymmetric_covariance_near_float_range(self):
        # At 1e200 the squared entries overflow; the check must still see the asymmetry.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symmetric"):
                GaussianPrior(mu_y=np.zeros(2), C_yy=1e200 * np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianPrior(mu_y=np.zeros(3), C_yy=np.eye(2))


class TestSampleTargets:
    def test_empirical_mean_standard_normal(self):
        prior = GaussianPrior(mu_y=np.zeros(4), C_yy=np.eye(4))
        ys = sample_targets(prior, 100_000, Seed(11))
        assert np.max(np.abs(ys.mean(axis=0))) < 0.02

    def test_shift_equivariance(self):
        c = np.array([3.0, -1.5, 0.25])
        prior = GaussianPrior(mu_y=c, C_yy=np.eye(3))
        ys = sample_targets(prior, 100_000, Seed(12))
        assert np.max(np.abs(ys.mean(axis=0) - c)) < 0.02

    def test_exp_decay_prior_empirical_covariance(self):
        prior = exp_decay_prior(30)
        ys = sample_targets(prior, 100_000, Seed(13))
        emp = ys.T @ ys / ys.shape[0]
        assert emp[0, 1] == pytest.approx(np.exp(-1.0 / 5.0), abs=0.01)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_targets(exp_decay_prior(2), 0, Seed(0))


class TestExpDecayPrior:
    def test_unit_diagonal(self):
        prior = exp_decay_prior(30)
        assert np.array_equal(np.diag(prior.C_yy), np.ones(30))
        assert np.array_equal(prior.mu_y, np.zeros(30))

    def test_off_diagonal_formula(self):
        prior = exp_decay_prior(30)
        assert prior.C_yy[0, 5] == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert prior.C_yy[0, 1] == pytest.approx(np.exp(-0.2), rel=1e-15)

    def test_cholesky_succeeds(self):
        np.linalg.cholesky(exp_decay_prior(30).C_yy)  # would raise if not PD


class TestSamplePairs:
    def test_noiseless_identity_channel(self):
        prior = exp_decay_prior(3)
        model = TrueModel(H=np.eye(3), mu_w=np.zeros(3), sigma2=0.0)
        data = sample_pairs(prior, model, 20, Seed(14))
        assert np.array_equal(data.xs, data.ys)

    def test_noiseless_affine_map(self):
        # sigma2 = 0 collapses the noise to mu_w, so every sample satisfies
        # x = 2 y + 1 exactly.
        prior = GaussianPrior(mu_y=np.array([3.0]), C_yy=np.eye(1))
        model = TrueModel(H=np.array([[2.0]]), mu_w=np.array([1.0]), sigma2=0.0)
        data = sample_pairs(prior, model, 50, Seed(15))
        assert np.allclose(data.xs, 2.0 * data.ys + 1.0, atol=1e-12)

    def test_determinism_bitwise(self):
        prior = exp_decay_prior(5)
        model = TrueModel(
            H=random_measurement_matrix(4, 5, Seed(1)), mu_w=np.zeros(4), sigma2=0.5
        )
        d1 = sample_pairs(prior, model, 100, Seed(16).child(2))
        d2 = sample_pairs(prior, model, 100, Seed(16).child(2))
        assert np.array_equal(d1.xs, d2.xs)
        assert np.array_equal(d1.ys, d2.ys)

    def test_dimension_mismatch_rejected(self):
        prior = exp_decay_prior(4)
        model = TrueModel(H=np.eye(3), mu_w=np.zeros(3), sigma2=1.0)
        with pytest.raises(ValueError, match="dimension"):
            sample_pairs(prior, model, 5, Seed(0))

    def test_shared_noise_across_sigma2(self):
        # Same seed, different sigma2: identical targets, noise merely rescaled.
        prior = exp_decay_prior(3)
        H = random_measurement_matrix(3, 3, Seed(2))
        d1 = sample_pairs(prior, TrueModel(H=H, mu_w=np.zeros(3), sigma2=1.0), 10, Seed(17))
        d2 = sample_pairs(prior, TrueModel(H=H, mu_w=np.zeros(3), sigma2=4.0), 10, Seed(17))
        assert np.array_equal(d1.ys, d2.ys)
        noise1 = d1.xs - d1.ys @ H.T
        noise2 = d2.xs - d2.ys @ H.T
        assert np.allclose(noise2, 2.0 * noise1, rtol=1e-12)

    def test_population_identities_of_linear_model(self):
        # Under x = H y + w: C_xy = H C_yy and C_xx = H C_yy H^T + sigma2 I,
        # checked against sample moments at n = 1e5 within 5% Frobenius.
        from gendisc.moments import compute_moments

        prior = exp_decay_prior(6)
        H = random_measurement_matrix(5, 6, Seed(3))
        sigma2 = 0.49
        model = TrueModel(H=H, mu_w=np.zeros(5), sigma2=sigma2)
        m = compute_moments(sample_pairs(prior, model, 100_000, Seed(18)))
        target_xy = H @ prior.C_yy
        assert np.linalg.norm(m.C_xy - target_xy) / np.linalg.norm(target_xy) <= 0.05
        target_xx = H @ prior.C_yy @ H.T + sigma2 * np.eye(5)
        assert np.linalg.norm(m.C_xx - target_xx) / np.linalg.norm(target_xx) <= 0.05

    def test_noise_independent_of_targets(self):
        prior = exp_decay_prior(6)
        H = random_measurement_matrix(5, 6, Seed(4))
        model = TrueModel(H=H, mu_w=np.zeros(5), sigma2=1.0)
        data = sample_pairs(prior, model, 100_000, Seed(19))
        w = data.xs - data.ys @ H.T
        wc = w - w.mean(axis=0)
        yc = data.ys - data.ys.mean(axis=0)
        cross = wc.T @ yc / data.n_t
        assert np.linalg.norm(cross) <= 0.05 * np.sqrt(5 * 6)


class TestSampleMoments:
    @pytest.mark.parametrize("dof", [3, 12])
    def test_standard_scatter_moments(self, dof):
        # W = G G^T ~ Wishart(dof, I_d): E W = dof I and Var W_ij = dof (1 + delta_ij).
        # dof < d takes the Z^T root and dof >= d the Bartlett triangle.
        d, draws = 4, 20_000
        rng = np.random.default_rng(20)
        W = np.empty((draws, d, d))
        for k in range(draws):
            G = _standard_scatter_root(rng, dof, d)
            W[k] = G @ G.T
        eye = np.eye(d)
        mean = W.mean(axis=0)
        assert np.all(np.abs(mean - dof * eye) <= 4 * W.std(axis=0, ddof=1) / np.sqrt(draws))
        dev2 = (W - mean) ** 2
        var = dev2.sum(axis=0) / (draws - 1)
        var_se = dev2.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(var - dof * (1 + eye)) <= 4 * var_se)

    def test_bartlett_root_is_lower_triangular(self):
        G = _standard_scatter_root(np.random.default_rng(21), 10, 5)
        assert np.array_equal(G, np.tril(G))
        assert np.all(np.diag(G) > 0)

    @pytest.mark.parametrize("n", [40, 100])
    def test_discriminative_risk_law(self, n):
        # The least-squares rule with intercept, fitted on n Gaussian pairs, has
        # mean risk R (1 + 1/n)(n - 2)/(n - N_x - 2), R the oracle risk. On the
        # paper's 28 x 30 geometry n = 40 takes the Z^T branch (n - 1 < 58)
        # and n = 100 the Bartlett one.
        prior = exp_decay_prior(30)
        model = TrueModel(
            H=random_measurement_matrix(28, 30, Seed(22)), mu_w=np.zeros(28), sigma2=0.09
        )
        risks = np.array([
            affine_risk(
                discriminative_estimator(
                    draw_training(prior, model, n, Seed(23, (n, k))).moments(model.sigma2)
                ),
                prior, model,
            )
            for k in range(3000)
        ])
        law = affine_risk(oracle_lmmse(prior, model), prior, model)
        law *= (1 + 1 / n) * (n - 2) / (n - 28 - 2)
        assert abs(risks.mean() - law) <= 4 * risks.std(ddof=1) / np.sqrt(risks.size)

    @pytest.mark.parametrize("nonlinearity", [Tanh(scale=1.0), Cubic(alpha=0.1)])
    def test_distorted_maps_draw_pairs(self, nonlinearity):
        prior = exp_decay_prior(5)
        model = TrueModel(
            H=random_measurement_matrix(4, 5, Seed(24)), mu_w=np.ones(4), sigma2=0.5,
            nonlinearity=nonlinearity,
        )
        # The draw centres the signals and the noise apart, so the input
        # moments agree with those of the pairs to rounding; the targets'
        # are the same bits.
        got = draw_training(prior, model, 50, Seed(25)).moments(model.sigma2)
        want = compute_moments(sample_pairs(prior, model, 50, Seed(25)))
        for field in ("y_bar", "C_yy"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for field in ("x_bar", "C_yx", "C_xx"):
            a, b = getattr(got, field), getattr(want, field)
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), field
        assert got.n_t == want.n_t

    def test_single_pair_has_zero_scatter(self):
        prior = exp_decay_prior(5)
        model = TrueModel(H=random_measurement_matrix(4, 5, Seed(26)), mu_w=np.zeros(4), sigma2=1.0)
        m = draw_training(prior, model, 1, Seed(27)).moments(model.sigma2)
        assert m.n_t == 1
        for C in (m.C_yx, m.C_yy, m.C_xx):
            assert not C.any()

    def test_noiseless_means_follow_the_map(self):
        prior = GaussianPrior(mu_y=np.array([3.0, -1.0]), C_yy=np.eye(2))
        H = np.array([[2.0, 0.0], [1.0, 1.0]])
        model = TrueModel(H=H, mu_w=np.array([1.0, 0.5]), sigma2=0.0)
        m = draw_training(prior, model, 200, Seed(28)).moments(model.sigma2)
        assert np.allclose(m.x_bar, H @ m.y_bar + model.mu_w, atol=1e-12)
        assert np.allclose(m.C_yx, m.C_yy @ H.T, atol=1e-12)
        assert np.allclose(m.C_xx, H @ m.C_yy @ H.T, atol=1e-12)

    def test_determinism_and_input_checks(self):
        prior = exp_decay_prior(5)
        model = TrueModel(H=random_measurement_matrix(4, 5, Seed(29)), mu_w=np.zeros(4), sigma2=1.0)
        a = draw_training(prior, model, 100, Seed(30)).moments(model.sigma2)
        b = draw_training(prior, model, 100, Seed(30)).moments(model.sigma2)
        assert np.array_equal(a.C_xx, b.C_xx) and np.array_equal(a.x_bar, b.x_bar)
        with pytest.raises(ValueError, match="at least 1"):
            draw_training(prior, model, 0, Seed(30))
        with pytest.raises(ValueError, match="dimension"):
            draw_training(exp_decay_prior(3), model, 10, Seed(30))


class TestDrawTraining:
    @pytest.mark.parametrize("nonlinearity", [Linear(), Tanh(scale=1.0), Cubic(alpha=0.1)])
    @pytest.mark.parametrize("n", [4, 100])
    def test_moments_at_each_noise_level_are_the_sample_moments(self, nonlinearity, n):
        # One draw assembled at any noise level gives, bit for bit, the sample
        # moments of a fresh draw for a model at that level. n = 4 takes the
        # Z^T scatter root under the linear map and n = 100 Bartlett's.
        prior = exp_decay_prior(5)
        H = random_measurement_matrix(4, 5, Seed(31))
        mu_w = np.linspace(-1.0, 1.0, 4)
        # The draw does not read the model's own noise level.
        draw = draw_training(
            prior, TrueModel(H=H, mu_w=mu_w, sigma2=7.0, nonlinearity=nonlinearity), n, Seed(32)
        )
        for sigma2 in (0.0, 0.01, 1.0, 100.0):
            model = TrueModel(H=H, mu_w=mu_w, sigma2=sigma2, nonlinearity=nonlinearity)
            want = draw_training(prior, model, n, Seed(32)).moments(model.sigma2)
            got = draw.moments(sigma2)
            for field in ("x_bar", "y_bar", "C_yx", "C_yy", "C_xx"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert got.n_t == n

    @pytest.mark.parametrize("nonlinearity", [Linear(), Tanh(scale=1.0)])
    @pytest.mark.parametrize("n", [40, 100])
    def test_target_moments_are_the_same_bits_at_every_noise_level(self, nonlinearity, n):
        # The target block of F F^T / n does not involve the noise rows, so a
        # sweep's SNR cells share one target sample covariance and its factor.
        prior = exp_decay_prior(30)
        model = TrueModel(
            H=random_measurement_matrix(28, 30, Seed(33)), mu_w=np.zeros(28), sigma2=1.0,
            nonlinearity=nonlinearity,
        )
        draw = draw_training(prior, model, n, Seed(34))
        first = draw.moments(1e-4)
        for k in range(-4, 9):
            m = draw.moments(10.0 ** (-k / 2.0))
            assert m.C_yy.tobytes() == first.C_yy.tobytes()
            assert m.y_bar.tobytes() == first.y_bar.tobytes()

    @pytest.mark.parametrize("sigma2", [-1.0, np.inf, np.nan])
    def test_invalid_noise_level_rejected(self, sigma2):
        prior = exp_decay_prior(3)
        model = TrueModel(H=np.eye(3), mu_w=np.zeros(3), sigma2=1.0)
        for draw in (
            draw_training(prior, model, 10, Seed(35)),
            draw_training(prior, TrueModel(np.eye(3), np.zeros(3), 1.0, Tanh()), 10, Seed(35)),
        ):
            with pytest.raises(ValueError, match="sigma2"):
                draw.moments(sigma2)


class TestNonlinearities:
    def test_tanh_approaches_linear(self):
        # Taylor oracle: |s tanh(u/s) - u| = u^3/(3 s^2) + O(u^5/s^4); at
        # s = 1e6 and |u| <= 10 the bound is 10^3/(3e12) ~ 3.34e-10.
        s = 1e6
        u = np.linspace(-10.0, 10.0, 2001)
        dev = np.abs(Tanh(scale=s).apply(u) - u)
        assert dev.max() <= 10.0**3 / (3.0 * s**2) * (1.0 + 1e-6)

    def test_cubic_reduces_to_linear_at_zero_alpha(self):
        u = np.linspace(-3.0, 3.0, 101)
        assert np.array_equal(Cubic(alpha=0.0).apply(u), u)

    def test_cubic_distortion_formula(self):
        u = np.array([0.5, -2.0])
        assert np.allclose(Cubic(alpha=0.1).apply(u), u + 0.1 * u**3)

    def test_nonlinear_branch_used_by_sample_pairs(self):
        prior = GaussianPrior(mu_y=np.zeros(2), C_yy=np.eye(2))
        H = np.array([[2.0, 0.0], [0.0, 2.0]])
        model = TrueModel(H=H, mu_w=np.zeros(2), sigma2=0.0, nonlinearity=Tanh(scale=1.0))
        data = sample_pairs(prior, model, 40, Seed(20))
        assert np.allclose(data.xs, np.tanh(2.0 * data.ys), atol=1e-12)

    def test_tanh_scale_positive(self):
        with pytest.raises(ValueError):
            Tanh(scale=0.0)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_tanh_scale_finite(self, scale):
        # An infinite scale would make every draw inf * tanh(u / inf), which is NaN.
        with pytest.raises(ValueError, match="tanh scale must be a finite positive number"):
            Tanh(scale=scale)

    @pytest.mark.parametrize("value", [True, False, "1", None, [1.0]])
    def test_parameter_that_is_not_a_number_rejected(self, value):
        with pytest.raises(ValueError, match="tanh scale"):
            Tanh(scale=value)
        with pytest.raises(ValueError, match="cubic alpha"):
            Cubic(alpha=value)

    def test_parameters_stored_as_floats(self):
        assert type(Tanh(scale=2).scale) is float and Tanh(scale=2) == Tanh(scale=2.0)
        assert type(Cubic(alpha=np.float32(0.5)).alpha) is float
        # An integer past int64 but within the float range, as JSON may give it.
        assert Cubic(alpha=10**300) == Cubic(alpha=1e300)


class TestRandomMeasurementMatrix:
    def test_determinism(self):
        a = random_measurement_matrix(4, 6, Seed(21))
        b = random_measurement_matrix(4, 6, Seed(21))
        assert np.array_equal(a, b)

    def test_distinct_trial_streams(self):
        a = random_measurement_matrix(4, 6, Seed(21).child(0))
        b = random_measurement_matrix(4, 6, Seed(21).child(1))
        assert not np.array_equal(a, b)

    def test_entry_moments(self):
        H = random_measurement_matrix(28, 30, Seed(22))
        assert abs(H.var() - 1.0) < 0.2
        assert abs(H.mean()) < 0.2
