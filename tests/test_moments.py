import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf

from gendisc import moments
from gendisc.estimators import AffineEstimator, FittedModel, measurement_moments
from gendisc.moments import (
    CONDITION_WARN_THRESHOLD,
    Dataset,
    IllConditionedWarning,
    SampleMoments,
    SingularMatrixError,
    compute_moments,
    condition_estimate,
    condition_events,
    spd_solve,
    woodbury_invert,
)
from gendisc.synth import GaussianPrior, Linear, TrueModel, exp_decay_prior

from conftest import random_spd

WORKED = Dataset(xs=[3.0, 5.0, 7.0], ys=[1.0, 2.0, 3.0])


class TestComputeMoments:
    def test_worked_scalar_dataset(self):
        # Hand evaluation of the three-term sums with 1/n normalization:
        # y_bar = 2, x_bar = 5, C_yy = ((-1)^2 + 0 + 1^2)/3 = 2/3,
        # C_yx = ((-1)(-2) + 0 + (1)(2))/3 = 4/3, C_xx = (4 + 0 + 4)/3 = 8/3.
        m = compute_moments(WORKED)
        assert m.y_bar == pytest.approx([2.0], abs=1e-12)
        assert m.x_bar == pytest.approx([5.0], abs=1e-12)
        assert m.C_yy[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.C_yx[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert m.C_xx[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert m.n_t == 3

    def test_single_sample_gives_zero_covariances(self):
        m = compute_moments(Dataset(xs=[[1.0, 2.0]], ys=[[3.0]]))
        assert np.array_equal(m.x_bar, [1.0, 2.0])
        assert np.array_equal(m.y_bar, [3.0])
        assert np.all(m.C_xx == 0.0)
        assert np.all(m.C_yy == 0.0)
        assert np.all(m.C_yx == 0.0)

    def test_constant_targets_zero_out_target_covariances(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((10, 3))
        ys = np.full((10, 2), 1.5)
        m = compute_moments(Dataset(xs=xs, ys=ys))
        assert np.allclose(m.C_yy, 0.0, atol=1e-15)
        assert np.allclose(m.C_yx, 0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "xs, ys, moment",
        [([1e308, -1e308], [2.0, 3.0], "C_xx"), ([1e200, -1e200], [1e200, -1e200], "C_yx")],
        ids=["C_xx", "C_yx"],
    )
    def test_finite_data_whose_moments_overflow_is_named(self, xs, ys, moment):
        data = Dataset(xs=xs, ys=ys)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"{moment} .*non-finite"):
            compute_moments(data)

    def test_finite_moments_whose_sums_would_overflow_are_computed(self):
        # The sum of squared deviations, 2e308, is out of range; the 1/n
        # scatter, 2e308 / 3, is not.
        m = compute_moments(Dataset(xs=[[1e154], [-1e154], [0.5]], ys=[[1.0], [2.0], [3.0]]))
        assert m.C_xx[0, 0] == pytest.approx(2 / 3 * 1e308, rel=1e-14)
        assert m.C_yx[0, 0] == pytest.approx(-1e154 / 3, rel=1e-14)
        assert m.C_yy[0, 0] == pytest.approx(2 / 3, rel=1e-14)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset(xs=np.empty((0, 2)), ys=np.empty((0, 3)))

    @pytest.mark.parametrize("n_x, n_y", [(0, 1), (1, 0)])
    def test_zero_width_dataset_rejected(self, n_x, n_y):
        with pytest.raises(ValueError, match="at least one column"):
            Dataset(xs=np.ones((3, n_x)), ys=np.ones((3, n_y)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            Dataset(xs=[[1.0], [2.0]], ys=[[1.0]])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["xs", "ys"])
    def test_non_finite_entry_is_named(self, field, entry):
        arrays = {"xs": [[1.0, 2.0], [3.0, 4.0]], "ys": [[1.0], [2.0]]}
        arrays[field][1][0] = entry
        with pytest.raises(ValueError, match=f"{field} contains non-finite entries"):
            Dataset(**arrays)

    def test_three_dimensional_arrays_rejected(self):
        with pytest.raises(ValueError, match="1- or 2-dimensional"):
            Dataset(xs=np.ones((2, 2, 2)), ys=np.ones((2, 1)))

    def test_one_dimensional_arrays_are_columns(self):
        as_columns = Dataset(xs=[[3.0], [5.0], [7.0]], ys=[[1.0], [2.0], [3.0]])
        assert WORKED.xs.shape == (3, 1) and WORKED.ys.shape == (3, 1)
        assert WORKED.xs.tobytes() == as_columns.xs.tobytes()
        assert WORKED.ys.tobytes() == as_columns.ys.tobytes()

    def test_integer_data_reads_as_floats(self):
        data = Dataset(xs=[3, 5, 7], ys=[1, 2, 3])
        assert data.xs.dtype == np.float64 and data.ys.dtype == np.float64
        m, m_float = compute_moments(data), compute_moments(WORKED)
        for name in ("x_bar", "y_bar", "C_yx", "C_yy", "C_xx"):
            assert getattr(m, name).tobytes() == getattr(m_float, name).tobytes()

    def test_cxy_is_transpose_of_cyx(self):
        rng = np.random.default_rng(1)
        m = compute_moments(Dataset(xs=rng.standard_normal((20, 4)), ys=rng.standard_normal((20, 3))))
        assert np.array_equal(m.C_xy, m.C_yx.T)

    def test_covariances_are_psd(self):
        # v^T C v >= -1e-10 ||v||^2 for random datasets and directions.
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = rng.integers(1, 30)
            dx, dy = rng.integers(1, 8, size=2)
            m = compute_moments(
                Dataset(xs=rng.standard_normal((n, dx)), ys=rng.standard_normal((n, dy)))
            )
            v = rng.standard_normal(dx)
            assert v @ m.C_xx @ v >= -1e-10 * (v @ v)
            w = rng.standard_normal(dy)
            assert w @ m.C_yy @ w >= -1e-10 * (w @ w)

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            xs = rng.standard_normal((n, 5))
            ys = rng.standard_normal((n, 4))
            perm = rng.permutation(n)
            m1 = compute_moments(Dataset(xs=xs, ys=ys))
            m2 = compute_moments(Dataset(xs=xs[perm], ys=ys[perm]))
            for a, b in [
                (m1.x_bar, m2.x_bar),
                (m1.y_bar, m2.y_bar),
                (m1.C_yx, m2.C_yx),
                (m1.C_yy, m2.C_yy),
                (m1.C_xx, m2.C_xx),
            ]:
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_symmetry_within_tolerance(self):
        rng = np.random.default_rng(4)
        m = compute_moments(
            Dataset(xs=rng.standard_normal((50, 6)), ys=rng.standard_normal((50, 7)))
        )
        for C in (m.C_xx, m.C_yy):
            assert np.linalg.norm(C - C.T) <= 1e-12 * np.linalg.norm(C)

    def test_arrays_are_immutable(self):
        m = compute_moments(WORKED)
        with pytest.raises(ValueError):
            m.C_yy[0, 0] = 9.0
        with pytest.raises(ValueError):
            WORKED.xs[0, 0] = 9.0


class TestSpdSolve:
    def test_identity(self):
        assert np.allclose(spd_solve(np.eye(2), np.eye(2)), np.eye(2))

    def test_rank_deficient_raises_with_condition(self):
        with pytest.raises(SingularMatrixError) as excinfo:
            spd_solve(np.array([[2.0, 0.0], [0.0, 0.0]]), np.eye(2))
        assert excinfo.value.condition == np.inf
        assert "singular" in str(excinfo.value)

    def test_two_by_two_hand_inverse(self):
        # [[2,1],[1,2]]^{-1} [1,1]^T = [1/3, 1/3]^T by the adjugate formula.
        x = spd_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        assert x == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-14)

    def test_ridge_matches_explicit_loading(self):
        rng = np.random.default_rng(5)
        M = random_spd(rng, 4)
        B = rng.standard_normal((4, 2))
        expected = np.linalg.solve(M + 0.3 * np.eye(4), B)
        assert np.allclose(spd_solve(M, B, ridge=0.3), expected, rtol=1e-12)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            spd_solve(np.eye(2), np.eye(2), ridge=-1.0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="finite"):
            spd_solve(np.eye(2), np.eye(2), ridge=ridge)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))

    def test_symmetry_guard_is_overflow_free(self):
        # Entries near the float range: the guard neither overflows nor lets
        # a large asymmetry through.
        huge = 1e300 * np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = spd_solve(huge, np.ones(2))
            assert np.all(np.isfinite(x))
            with pytest.raises(ValueError, match="symmetric"):
                spd_solve(1e300 * np.array([[2.0, 1.0], [-1.0, 2.0]]), np.ones(2))

    def test_singular_to_working_precision_raises(self):
        # A rank-2 scatter of order 4 factorizes in some draws by rounding
        # alone; its reciprocal condition estimate is then below epsilon.
        rng = np.random.default_rng(8)
        for _ in range(200):
            F = rng.standard_normal((4, 2))
            M = F @ F.T
            if dpotrf(M, lower=1)[1] == 0:
                break
        else:
            pytest.fail("no rank-deficient draw factorized")
        with pytest.raises(SingularMatrixError, match="singular") as excinfo:
            spd_solve(M, np.eye(4), name="rank-2 scatter")
        assert excinfo.value.name == "rank-2 scatter"
        assert excinfo.value.condition > 1.0 / np.finfo(float).eps

    def test_extreme_condition_warns_and_is_recorded(self):
        M = np.diag([1.0, 1e-13])
        with condition_events() as events:
            with pytest.warns(IllConditionedWarning):
                spd_solve(M, np.eye(2), name="test matrix")
        assert len(events) == 1
        name, cond = events[0]
        assert name == "test matrix"
        assert cond > CONDITION_WARN_THRESHOLD

    def test_vector_rhs_keeps_shape(self):
        x = spd_solve(np.eye(3) * 2.0, np.ones(3))
        assert x.shape == (3,)
        assert np.allclose(x, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("ridge", [0.0, 0.25])
    def test_bitwise_equal_to_scipy_cholesky(self, n, ridge):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n + 5, n))
        M = X.T @ X
        A = 0.5 * (M + M.T) + ridge * np.eye(n)
        factor = cho_factor(A, lower=True)
        for B in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            assert np.array_equal(spd_solve(M, B, ridge=ridge), cho_solve(factor, B))

    @pytest.mark.parametrize("n", [5, 30])
    def test_warning_fires_exactly_above_spectral_threshold(self, n):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for target in np.logspace(10, 14, 17):
            M = (Q * np.logspace(0, np.log10(target), n)) @ Q.T
            M = 0.5 * (M + M.T)
            spectral = condition_estimate(M)
            with warnings.catch_warnings(record=True) as caught, condition_events() as events:
                warnings.simplefilter("always")
                spd_solve(M, np.ones(n), name="probe")
            fired = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
            if spectral > CONDITION_WARN_THRESHOLD:
                assert len(fired) == 1
                assert events == [("probe", spectral)]
            else:
                assert fired == [] and events == []

    def test_well_conditioned_solve_skips_spectral_estimate(self, monkeypatch):
        calls = []
        exact = moments.condition_estimate
        monkeypatch.setattr(moments, "condition_estimate", lambda M: calls.append(1) or exact(M))
        rng = np.random.default_rng(3)
        for n in (1, 4, 30):
            spd_solve(random_spd(rng, n), np.ones(n))
            spd_solve(random_spd(rng, n, eig_low=1e-6), np.ones(n), ridge=0.1)
        assert calls == []
        with pytest.raises(SingularMatrixError):
            spd_solve(np.diag([1.0, 0.0]), np.ones(2))
        assert calls == [1]

    def test_exactly_symmetric_input_skips_the_symmetry_guard(self, monkeypatch):
        calls = []
        guard = moments._symmetry_defect
        monkeypatch.setattr(moments, "_symmetry_defect", lambda M: calls.append(1) or guard(M))
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 5))
        M = X.T @ X  # one syrk: equal to its transpose bit for bit
        B = rng.standard_normal((5, 2))
        assert np.array_equal(spd_solve(M, B), cho_solve(cho_factor(M, lower=True), B))
        assert calls == []
        # One ulp of asymmetry takes the guard, and is symmetrized as before.
        M_ulp = M.copy()
        M_ulp[0, 1] = np.nextafter(M_ulp[0, 1], np.inf)
        A = 0.5 * (M_ulp + M_ulp.T)
        assert np.array_equal(spd_solve(M_ulp, B), cho_solve(cho_factor(A, lower=True), B))
        assert calls == [1]
        M_far = M.copy()
        M_far[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            spd_solve(M_far, B)

    def test_checks_run_once_per_solve_whatever_the_right_hand_sides(self, monkeypatch):
        # Several right-hand sides share one factor, so one condition check,
        # one warning and one recorded event, and each column is solved
        # with the factor that a one-column solve uses.
        rng = np.random.default_rng(10)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        M = (Q * np.logspace(0, 13, 4)) @ Q.T
        M = 0.5 * (M + M.T)
        B = rng.standard_normal((4, 3))
        with pytest.warns(IllConditionedWarning):
            columns = [spd_solve(M, b, name="probe") for b in B.T]
        calls = []
        estimate = moments.condition_estimate
        monkeypatch.setattr(moments, "condition_estimate", lambda A: calls.append(1) or estimate(A))
        with condition_events() as events, pytest.warns(IllConditionedWarning) as caught:
            X = spd_solve(M, B, name="probe")
        assert calls == [1] and len(caught) == 1
        assert [name for name, _ in events] == ["probe"]
        assert np.allclose(X, np.column_stack(columns), rtol=1e-12, atol=0)

    def test_right_hand_side_shape_checked(self):
        with pytest.raises(ValueError, match="right-hand side shape"):
            spd_solve(np.eye(3), np.ones(2), name="probe")
        with pytest.raises(ValueError, match="right-hand side shape"):
            spd_solve(np.eye(3), np.ones((3, 2, 1)), name="probe")

    def test_nested_condition_events_reach_the_enclosing_context(self):
        M = np.diag([1.0, 1e-13])
        with condition_events() as outer:
            with condition_events() as inner, pytest.warns(IllConditionedWarning):
                spd_solve(M, np.ones(2), name="inner")
            with pytest.warns(IllConditionedWarning):
                spd_solve(M, np.ones(2), name="outer")
        assert [name for name, _ in inner] == ["inner"]
        assert [name for name, _ in outer] == ["inner", "outer"]


class TestConditionEstimate:
    def test_diagonal_matrix(self):
        assert condition_estimate(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_indefinite_is_inf(self):
        assert condition_estimate(np.diag([1.0, -1.0])) == np.inf

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_inf(self, entry):
        assert condition_estimate(np.array([[1.0, 0.0], [0.0, entry]])) == np.inf

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)], ids=["2x3", "1-d", "3-d"])
    def test_a_matrix_that_is_not_square_and_2d_is_named(self, shape):
        with pytest.raises(ValueError, match="^matrix must be square and 2-dimensional") as exc:
            condition_estimate(np.ones(shape))
        assert str(exc.value).endswith(f"got shape {shape}")

    def test_entries_near_the_float_range_do_not_overflow(self):
        # M + M^T overflows here; halving each side first does not.
        M = np.array([[1e308, 1e307], [np.nextafter(1e307, np.inf), 1e308]])
        assert condition_estimate(M) == pytest.approx(1.1e308 / 0.9e308, rel=1e-12)
        L = np.tril(moments._factor(M, 0.0, "probe"))
        assert np.allclose(L @ L.T, M, rtol=1e-14, atol=0)


class TestWoodburyInvert:
    def test_identity_shrinkage(self):
        a, b = woodbury_invert(np.eye(3), np.eye(3), sigma2=1.0)
        assert np.allclose(a, 0.5 * np.eye(3), atol=1e-14)
        assert np.allclose(b, 0.5 * np.eye(3), atol=1e-14)

    def test_scalar_zero_noise(self):
        a, b = woodbury_invert(np.array([[2.0]]), np.array([[1.0]]), sigma2=0.0)
        assert np.allclose(a, [[0.5]], atol=1e-14)
        assert np.allclose(b, [[0.5]], atol=1e-14)

    def test_rectangular_agreement(self):
        rng = np.random.default_rng(6)
        H = rng.standard_normal((3, 2))
        a, b = woodbury_invert(H, np.eye(2), sigma2=0.1)
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-10

    def test_agreement_whenever_well_conditioned(self):
        # Forms agree to 1e-8 relative whenever every factorized matrix has
        # condition below 1e7, where backward-error growth (~0.2 * cond * eps
        # observed) leaves a ~20x margin. Near cond 1e10 the two routes can
        # legitimately drift to ~cond * eps ~ 1e-6, so that regime is out.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(100):
            n_x = int(rng.integers(1, 12))
            n_y = int(rng.integers(1, 12))
            H = rng.standard_normal((n_x, n_y))
            C = random_spd(rng, n_y, eig_low=10.0 ** rng.uniform(-6, 0), eig_high=2.0)
            sigma2 = 10.0 ** rng.uniform(-8, 1)
            cond_a = np.linalg.cond(H @ C @ H.T + sigma2 * np.eye(n_x))
            C_inv = np.linalg.inv(C)
            cond_b = max(np.linalg.cond(H.T @ H + sigma2 * C_inv), np.linalg.cond(C))
            if cond_a >= 1e7 or cond_b >= 1e7:
                continue
            a, b = woodbury_invert(H, C, sigma2)
            assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-8
            checked += 1
        assert checked >= 50  # the generator must actually exercise the property

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            woodbury_invert(np.eye(2), np.eye(2), sigma2=-0.5)

    def test_singular_inner_matrix_raises(self):
        # N_y > N_x and sigma2 = 0 leaves the lemma-side inner matrix rank
        # deficient.
        H = np.array([[1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            woodbury_invert(H, np.eye(2), sigma2=0.0)


def _given_arrays():
    """Per value type: a builder and the float arrays it is given, by field name."""
    return {
        "Dataset": (Dataset, dict(xs=np.array([[1.0, 2.0], [3.0, 5.0]]), ys=np.array([1.0, 4.0]))),
        "SampleMoments": (
            lambda **a: SampleMoments(**a, n_t=3),
            dict(
                x_bar=np.array([1.0, 2.0]), y_bar=np.array([3.0]), C_yx=np.array([[0.5, 0.25]]),
                C_yy=np.array([[2.0]]), C_xx=np.array([[1.0, 0.5], [0.5, 1.0]]),
            ),
        ),
        "FittedModel": (FittedModel, dict(H_hat=np.array([[1.0, 2.0]]), mu_hat=np.array([0.5]))),
        "AffineEstimator": (
            lambda **a: AffineEstimator(**a, provenance="generative"),
            dict(A=np.array([[1.0, 2.0]]), b=np.array([0.5])),
        ),
        "GaussianPrior": (
            GaussianPrior, dict(mu_y=np.array([1.0, 2.0]), C_yy=np.array([[2.0, 0.5], [0.5, 1.0]]))
        ),
        "TrueModel": (
            lambda **a: TrueModel(**a, sigma2=0.5),
            dict(H=np.array([[1.0, 2.0]]), mu_w=np.array([0.5])),
        ),
    }


class TestArrayFields:
    @pytest.mark.parametrize("kind", sorted(_given_arrays()))
    def test_array_fields_are_read_only_float_copies(self, kind):
        build, given = _given_arrays()[kind]
        obj = build(**given)
        kept = {name: getattr(obj, name).copy() for name in given}
        for array in given.values():
            array += 1.0  # an edit of the caller's array does not reach the field
        arrays = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
        assert set(given) <= set(arrays)
        for name, field in arrays.items():
            assert field.dtype == np.float64, name
            assert np.array_equal(field, kept.get(name, field)), name
            with pytest.raises(ValueError, match="read-only"):
                field[(0,) * field.ndim] = 7.0

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Dataset(xs=[10**400, 1], ys=[1, 2]), "xs"),
            (lambda: GaussianPrior(mu_y=[0.0], C_yy=[[10**400]]), "C_yy"),
            (lambda: spd_solve([[10**400]], [1.0]), "matrix"),
            (lambda: Dataset(xs={"a": 1}, ys=[1]), "xs"),
            (lambda: Dataset(xs=["a", "b"], ys=[1, 2]), "xs"),
            (lambda: Dataset(xs=[1.0, 2.0], ys=[[1.0, 2.0], [3.0]]), "ys"),
            (lambda: Dataset(xs=np.array([1 + 5j, 2, 3]), ys=[1.0, 2.0, 3.0]), "xs"),
            (lambda: GaussianPrior(mu_y=np.zeros(2, dtype=complex), C_yy=np.eye(2)), "mu_y"),
            (lambda: spd_solve(np.eye(2) * (1 + 0j), [1.0, 2.0]), "matrix"),
            (lambda: condition_estimate(np.eye(2) * (1 + 0j)), "matrix"),
            (lambda: measurement_moments(
                exp_decay_prior(2), np.eye(2) * (1 + 0j), Linear()), "H"),
        ],
        ids=["int-past-float-range", "prior-int-past-float-range", "solve-int-past-float-range",
             "dict", "strings", "ragged", "complex-array", "prior-complex-array",
             "solve-complex-array", "condition-complex-array", "measurement-complex-array"],
    )
    def test_an_array_that_does_not_convert_is_named(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} is not an array of real numbers"):
            build()
