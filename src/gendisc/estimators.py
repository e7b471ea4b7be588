"""Closed-form affine estimator constructions for the linear Gaussian model.

Two learning routes are implemented. The generative route fits the missing
measurement parameters (H, noise mean) by maximum likelihood and plugs them,
together with the known prior and noise variance, into the optimal affine
estimator under the fitted model. The discriminative route minimizes the
empirical squared error directly over all affine maps, which lands on the
sample-LMMSE estimator. Alongside them live the oracle estimator, the
population LMMSE built from the true moments under any measurement map and
so also the discriminative route's large-sample limit, which has no name of
its own; the generative route's large-sample limit, its own plug-in rule at
the population fit C_xy C_yy^{-1}; and the closed-form vanishing-noise limit
estimators used as analytical reference points. The oracle and the
generative limit take the data's prior and true model, ``(prior, model)``,
as :func:`affine_risk` does, and read the true moments from them.

All estimators share one output type, :class:`AffineEstimator`, so they can
be evaluated and compared uniformly, by their exact risk
(:func:`affine_risk`) under the true measurement map. For the distorted maps
that risk rests on Gaussian population moments of ``g(H y)``
(:func:`measurement_moments`): closed forms for the linear and cubic maps, a
Hermite expansion evaluated by quadrature for tanh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .moments import (
    Dataset,
    SampleMoments,
    _as_float_array,
    _check_ridge,
    _factor,
    _freeze,
    _frozen,
    _solve,
    compute_moments,
    gain_direct,
    gain_lemma,
)
from .synth import Cubic, GaussianPrior, Linear, Nonlinearity, TrueModel


class Provenance(str, enum.Enum):
    """Which construction produced an estimator; doubles as its report label."""

    GENERATIVE = "generative"
    DISCRIMINATIVE = "discriminative"
    ORACLE_LMMSE = "oracle_lmmse"
    GENERATIVE_ASYMPTOTE = "generative_asymptote"
    GENERATIVE_HIGH_SNR = "generative_high_snr"
    DISCRIMINATIVE_HIGH_SNR = "discriminative_high_snr"


@dataclass(frozen=True)
class FittedModel:
    """Maximum likelihood estimates of the measurement matrix and noise mean."""

    H_hat: np.ndarray
    mu_hat: np.ndarray

    def __post_init__(self):
        H, mu = _freeze(self, H_hat=2, mu_hat=1)
        if mu.shape[0] != H.shape[0]:
            raise ValueError(f"mu_hat length {mu.shape[0]} does not match H_hat rows {H.shape[0]}")


@dataclass(frozen=True)
class KnownStatistics:
    """Side information available to the generative route: prior and noise level.

    The noise variance is treated as known; only the measurement matrix and
    noise mean are learned from data.
    """

    prior: GaussianPrior
    sigma2: float

    def __post_init__(self):
        if not isinstance(self.prior, GaussianPrior):
            raise ValueError("prior must be a GaussianPrior")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2}")
        object.__setattr__(self, "sigma2", float(self.sigma2))


@dataclass(frozen=True)
class AffineEstimator:
    """An affine inference rule x -> A x + b with a record of its construction."""

    A: np.ndarray
    b: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        A, b = _freeze(self, A=2, b=1)
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b length {b.shape[0]} does not match A rows {A.shape[0]}")
        object.__setattr__(self, "provenance", Provenance(self.provenance))

    @property
    def n_x(self) -> int:
        return self.A.shape[1]

    @property
    def n_y(self) -> int:
        return self.A.shape[0]

    def estimate(self, x) -> np.ndarray:
        """Evaluate the rule on a single observation vector."""
        x = _as_float_array(x, "x", ndim=1)
        if x.shape[0] != self.n_x:
            raise ValueError(f"x has length {x.shape[0]}, estimator expects {self.n_x}")
        return self.A @ x + self.b


# Trapezoid rule for E f(Z), Z ~ N(0, 1): equispaced nodes on [-_Z_MAX, _Z_MAX].
# For an integrand analytic in a strip it converges geometrically; the mass
# beyond 12 standard deviations is below 1e-32.
_Z_MAX = 12.0
_QUAD_NODES = 801
# Pairs correlated beyond this are integrated in two dimensions: their Mehler
# series would converge too slowly (not at all when |rho| = 1).
_SERIES_RHO_MAX = 0.9
# The series stops once its tail bound is below this fraction of max Var g(u_i).
_SERIES_RTOL = 1e-13
# 0.9^285 < 1e-13, so the tail bound is met before this order whatever g is.
_SERIES_MAX_ORDER = 300
# Orders summed per step of the series.
_SERIES_BLOCK = 16


@dataclass(frozen=True)
class MeasurementMoments:
    """Population moments of g(u), u = H y ~ N(H mu_y, S), S = H C_yy H^T, free of the noise.

    ``B = diag(d) H L_yy`` with ``d = E g'(u)``, so that Cov(y, g(u)) =
    L_yy B^T by Stein's lemma; ``mu_g = E g(u)``; and ``Q = Cov(g(u)) - B
    B^T``, the covariance of the part of g(u) uncorrelated with y, which is
    positive semidefinite. ``Q`` is ``None`` under the linear map, where it
    vanishes.
    """

    B: np.ndarray
    mu_g: np.ndarray
    Q: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "B", _frozen(self.B))
        object.__setattr__(self, "mu_g", _frozen(self.mu_g))
        if self.Q is not None:
            object.__setattr__(self, "Q", _frozen(self.Q))


def _hermite_moments(g, m, S, nodes: int = _QUAD_NODES):
    """``(mu_g, d, Q, tail)`` of an elementwise map g at u ~ N(m, S), by quadrature.

    With u_i = m_i + s_i Z and h_k = He_k / sqrt(k!), Mehler's formula gives
    Cov(g(u_i), g(u_j)) = sum_{k>=1} rho_ij^k b_k(i) b_k(j), where b_k(i) =
    E[g(u_i) h_k(Z)] and rho is the correlation of u. The k = 1 term is d_i
    d_j S_ij (Stein: b_1(i) = s_i d_i), so Q_ij sums the orders k >= 2; it
    stops, pair by pair, once the bound |rho_ij|^(K+1) sqrt(R_i R_j) on the
    rest, with R_i = Var g(u_i) - sum_{k<=K} b_k(i)^2 the Parseval residual,
    is below ``_SERIES_RTOL * max Var g``. Pairs with |rho_ij| >
    ``_SERIES_RHO_MAX`` are integrated over u_j given u_i instead, and Q_ii =
    Var g(u_i) - b_1(i)^2.
    ``tail`` is the largest tail bound left on any pair.
    """
    s = np.sqrt(np.diag(S))
    z = np.linspace(-_Z_MAX, _Z_MAX, nodes)
    w = np.exp(-0.5 * z * z)
    w /= w.sum()
    G = g(m[:, None] + s[:, None] * z)
    mu_g = G @ w
    G -= mu_g[:, None]
    var = (G * G) @ w
    b1 = G @ (w * z)
    d = np.divide(b1, s, out=np.zeros_like(b1), where=s > 0)

    scale = np.outer(s, s)
    rho = np.divide(S, scale, out=np.zeros_like(S), where=scale > 0)
    np.fill_diagonal(rho, 0.0)
    near = np.abs(rho) > _SERIES_RHO_MAX
    rho[near] = 0.0
    Q = np.zeros_like(S)
    power = rho * rho
    resid = var - b1 * b1
    tol = _SERIES_RTOL * var.max()
    tail = 0.0
    # Rows w h_k of one block of orders, from h_k = (z h_{k-1} - sqrt(k-1)
    # h_{k-2}) / sqrt(k); rho^k for the same orders.
    rows = np.empty((_SERIES_BLOCK, z.size))
    powers = np.empty((_SERIES_BLOCK,) + S.shape)
    f_prev, f = w, w * z
    k = 1
    while k < _SERIES_MAX_ORDER:
        for row in rows:
            k += 1
            np.multiply(z, f, out=row)
            row -= np.sqrt(k - 1.0) * f_prev
            row /= np.sqrt(k)
            f_prev, f = f, row
        b = rows @ G.T
        powers[0] = power
        powers[1:] = rho
        np.cumprod(powers, axis=0, out=powers)
        Q += np.einsum("kij,ki,kj->ij", powers, b, b)
        power = powers[-1] * rho
        resid -= np.einsum("ki,ki->i", b, b)
        r = np.sqrt(np.maximum(resid, 0.0))
        bound = np.abs(power) * np.outer(r, r)
        # A pair leaves the series once its own tail bound is met, before its
        # powers of rho decay into slow subnormal arithmetic.
        done = bound <= tol
        tail = max(tail, float(np.max(bound, where=done, initial=0.0)))
        rho[done] = power[done] = 0.0
        if not power.any():
            break

    Q[np.diag_indices_from(Q)] = var - b1 * b1
    for i, j in zip(*np.nonzero(np.triu(near))):
        c = S[i, j] / scale[i, j]
        # E[g(u_j) | u_i = m_i + s_i z] at every node z, then the outer integral.
        inner = g(m[j] + s[j] * (c * z[:, None] + np.sqrt(max(1.0 - c * c, 0.0)) * z)) @ w
        Q[i, j] = Q[j, i] = (G[i] * inner) @ w - d[i] * d[j] * S[i, j]
    return mu_g, d, Q, tail


def measurement_moments(prior: GaussianPrior, H, nonlinearity: Nonlinearity) -> MeasurementMoments:
    """Noise-free population moments of ``g(H y)`` for y drawn from ``prior``.

    Under the linear map they are set directly: ``B = H L_yy``, ``mu_g = H
    mu_y`` and no ``Q``. Under the cubic map g(u) = u + alpha u^3 Isserlis'
    theorem gives them in closed form: with v = diag S, d = 1 + 3 alpha (m^2
    + v), mu_g = m + alpha m (m^2 + 3 v) and, with powers taken elementwise,
    Q = 6 alpha^2 S^3 + 18 alpha^2 (m m^T) S^2. Under tanh they come from the
    Hermite series of :func:`_hermite_moments`.
    """
    H = _as_float_array(H, "H")
    if H.ndim != 2 or H.shape[1] != prior.n_y:
        raise ValueError(f"H shape {H.shape} does not match prior dimension {prior.n_y}")
    return _measurement_moments(prior, H, nonlinearity)


def _measurement_moments(prior: GaussianPrior, H: np.ndarray, nonlinearity) -> MeasurementMoments:
    """:func:`measurement_moments` without its input checks."""
    HL = H @ prior.L_yy
    m = H @ prior.mu_y
    if isinstance(nonlinearity, Linear):
        return MeasurementMoments(B=HL, mu_g=m)
    S = HL @ HL.T
    if isinstance(nonlinearity, Cubic):
        a = nonlinearity.alpha
        v = np.diag(S)
        mu_g = m + a * m * (m * m + 3.0 * v)
        d = 1.0 + 3.0 * a * (m * m + v)
        Q = 6.0 * a * a * S * S * S + 18.0 * a * a * np.outer(m, m) * S * S
    else:
        mu_g, d, Q, _ = _hermite_moments(nonlinearity.apply, m, S)
    return MeasurementMoments(B=d[:, None] * HL, mu_g=mu_g, Q=Q)


class _Truth:
    """What the rules and their risk read of the data ``x = g(H y) + w``, free of the noise.

    ``measurement`` is the :func:`measurement_moments` of ``g(H y)``, computed
    when omitted: ``mu_x = mu_g + mu_w``, ``C_yx = L_yy B^T`` and ``C_xx = B
    B^T + Q + sigma2 I`` under every map, the linear one being the map with no
    ``Q``. Inputs are not checked; ``finite`` tells whether the measurement
    moments overflowed.
    """

    def __init__(self, prior: GaussianPrior, H, mu_w, nonlinearity, measurement=None):
        if measurement is None:
            measurement = _measurement_moments(prior, H, nonlinearity)
        self.prior, self.H, self.mu_w, self.nonlinearity = prior, H, mu_w, nonlinearity
        self.measurement = measurement
        self.mu_x = measurement.mu_g + mu_w
        arrays = (measurement.B, self.mu_x, measurement.Q)
        self.finite = all(np.isfinite(a).all() for a in arrays if a is not None)

    @cached_property
    def C_yx(self) -> np.ndarray:
        return self.prior.L_yy @ self.measurement.B.T

    @cached_property
    def C_xx_signal(self) -> np.ndarray:
        """``C_xx - sigma2 I``."""
        B, Q = self.measurement.B, self.measurement.Q
        return B @ B.T if Q is None else B @ B.T + Q

    def C_xx(self, sigma2: float) -> np.ndarray:
        C = self.C_xx_signal.copy()
        C.flat[:: C.shape[0] + 1] += sigma2
        return C

    @cached_property
    def population_fit(self) -> np.ndarray:
        """The ML fit's large-sample limit ``C_xy C_yy^{-1}``, solved with the prior's factor."""
        return _solve(self.prior.L_yy, self.C_yx).T

    def risk(self, A: np.ndarray, b: np.ndarray, sigma2: float) -> float:
        """:func:`affine_risk` of the rule ``x -> A x + b`` at noise variance ``sigma2``."""
        m, prior = self.measurement, self.prior
        spread = prior.L_yy - A @ m.B
        bias = prior.mu_y - A @ self.mu_x - b
        risk = np.vdot(spread, spread) + sigma2 * np.vdot(A, A) + bias @ bias
        if m.Q is not None:
            risk += np.vdot(A @ m.Q, A)
        return float(risk)


def affine_risk(
    est: AffineEstimator,
    prior: GaussianPrior,
    model: TrueModel,
    measurement: Optional[MeasurementMoments] = None,
) -> float:
    """Expected squared error E||y - A x - b||^2 of an affine rule under the true model.

    With x = g(H y) + w, write g(u) - mu_g = diag(d) H (y - mu_y) + r, where
    the residual r is uncorrelated with y and has covariance Q. The error
    then splits into uncorrelated parts, (I - A diag(d) H)(y - mu_y), -A r,
    -A (w - mu_w) and the bias, so the risk is the sum of squares
    ||L_yy - A B||_F^2 + <A Q, A> + sigma2 ||A||_F^2 + ||mu_y - A mu_x - b||^2
    with mu_x = mu_g + mu_w and B, mu_g, Q from ``measurement``
    (:func:`measurement_moments` of the model, computed when omitted). Under
    the linear map B = H L_yy, mu_g = H mu_y and the Q term is absent.
    """
    if est.A.shape != (model.n_y, model.n_x) or prior.n_y != model.n_y:
        raise ValueError(
            f"rule shape {est.A.shape}, prior dimension {prior.n_y} and model shape "
            f"{model.H.shape} are inconsistent"
        )
    truth = _Truth(prior, model.H, model.mu_w, model.nonlinearity, measurement)
    return truth.risk(est.A, est.b, model.sigma2)


# The rule formulas below take arrays that their callers built or checked: the
# public constructors after them, and the sweep. Each returns the pair (A, b).


def target_factor(C_yy: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of the target sample covariance plus ``ridge``, for :func:`fit_ml`."""
    return _factor(C_yy, ridge, "target sample covariance")


def _generative_offset(G, mu_y, x_bar, y_bar, H) -> np.ndarray:
    # estimate(x) = mu_y + G (x - x_bar - H (mu_y - y_bar))
    return mu_y - G @ (x_bar + H @ (mu_y - y_bar))


def _generative(H, prior: GaussianPrior, sigma2: float, x_bar, y_bar):
    """The plug-in rule of :func:`generative_estimator` for fitted ``H``."""
    # The smaller inverse: N_y <= N_x puts it on the target side.
    G = (gain_lemma if H.shape[1] <= H.shape[0] else gain_direct)(H, prior.C_yy, sigma2)
    return G, _generative_offset(G, prior.mu_y, x_bar, y_bar, H)


def _lmmse(C_xx, C_yx, mu_x, mu_y, ridge: float, name: str, floor: float = 0.0):
    """A = C_yx C_xx^{-1}, b = mu_y - A mu_x, solving with ``C_xx`` named ``name``.

    ``floor`` bounds the smallest eigenvalue of ``C_xx + ridge*I`` from below
    (see :func:`~gendisc.moments._factor`).
    """
    A = _solve(_factor(C_xx, ridge, name, floor), C_yx.T).T
    return A, mu_y - A @ mu_x


def _oracle(truth: _Truth, sigma2: float):
    """The population LMMSE rule under every map: the oracle, the discriminative rule's limit."""
    C_xx, mu_y = truth.C_xx(sigma2), truth.prior.mu_y
    # C_xx is sigma2 I loaded on a covariance, so sigma2 bounds its spectrum.
    return _lmmse(C_xx, truth.C_yx, truth.mu_x, mu_y, 0.0, "population input covariance", sigma2)


def _generative_asymptote(truth: _Truth, known: GaussianPrior, sigma2: float):
    """The generative rule at the population fit and true means, with ``known`` at ``sigma2``."""
    return _generative(truth.population_fit, known, sigma2, truth.mu_x, truth.prior.mu_y)


def fit_ml(data: Dataset | SampleMoments, ridge: float = 0.0) -> FittedModel:
    """Maximum likelihood fit of the measurement matrix and noise mean.

    The estimates are H_hat = C_xy C_yy^{-1} and mu_hat = x_bar - H_hat y_bar,
    computed from the sample moments; the target sample covariance must be
    nonsingular.

    Parameters
    ----------
    data : Dataset or SampleMoments
        Training pairs, or their precomputed moments.
    ridge : float, optional
        Diagonal loading on the target sample covariance before inversion.

    Raises
    ------
    SingularMatrixError
        If the target sample covariance is not positive definite after the
        ridge (e.g. constant targets, or n_t <= N_y).
    """
    m = data if isinstance(data, SampleMoments) else compute_moments(data)
    _check_ridge(ridge)
    # H_hat^T = C_yy^{-1} C_yx, using C_yy symmetry.
    H_hat = _solve(target_factor(m.C_yy, ridge), m.C_yx).T
    return FittedModel(H_hat=H_hat, mu_hat=m.x_bar - H_hat @ m.y_bar)


def generative_estimator(
    fit: FittedModel, known: KnownStatistics, moments: SampleMoments
) -> AffineEstimator:
    """Plug-in optimal estimator under the fitted measurement model.

    The rule is mu_y + G (x - x_bar - H_hat (mu_y - y_bar)) where the gain G
    is C_yy H_hat^T (H_hat C_yy H_hat^T + sigma2 I)^{-1} (:func:`gain_direct`)
    when N_y > N_x, and otherwise its matrix-inversion-lemma equivalent
    (H_hat^T H_hat + sigma2 C_yy^{-1})^{-1} H_hat^T (:func:`gain_lemma`),
    which inverts the smaller matrix, on the target side.

    Parameters
    ----------
    fit : FittedModel
        ML estimates of the measurement parameters.
    known : KnownStatistics
        True prior and (positive) noise variance.
    moments : SampleMoments
        Supplies the sample means appearing in the offset term.
    """
    H = fit.H_hat
    n_x, n_y = H.shape
    if known.prior.n_y != n_y:
        raise ValueError(
            f"prior dimension {known.prior.n_y} does not match fitted H_hat columns {n_y}"
        )
    if (moments.n_x, moments.n_y) != (n_x, n_y):
        raise ValueError(
            f"moments dimensions ({moments.n_x}, {moments.n_y}) do not match "
            f"fitted H_hat shape {H.shape}"
        )
    A, b = _generative(H, known.prior, known.sigma2, moments.x_bar, moments.y_bar)
    return AffineEstimator(A=A, b=b, provenance=Provenance.GENERATIVE)


def discriminative_estimator(moments: SampleMoments, ridge: float = 0.0) -> AffineEstimator:
    """Empirical-risk minimizer over affine rules, i.e. the sample-LMMSE estimator.

    Solves A = C_yx C_xx^{-1}, b = y_bar - A x_bar. The input sample
    covariance must be nonsingular; no pseudo-inverse fallback is attempted.

    Raises
    ------
    SingularMatrixError
        If the input sample covariance is singular (typically n_t <= N_x);
        add samples or pass a ridge.
    """
    _check_ridge(ridge)
    A, b = _lmmse(
        moments.C_xx, moments.C_yx, moments.x_bar, moments.y_bar, ridge, "input sample covariance"
    )
    return AffineEstimator(A=A, b=b, provenance=Provenance.DISCRIMINATIVE)


def _truth(
    prior: GaussianPrior, model: TrueModel, measurement: Optional[MeasurementMoments] = None
) -> _Truth:
    """The :class:`_Truth` of ``model``, checked for the constructors of the untrained rules."""
    if prior.n_y != model.n_y:
        raise ValueError(
            f"prior dimension {prior.n_y} does not match model target dimension {model.n_y}"
        )
    truth = _Truth(prior, model.H, model.mu_w, model.nonlinearity, measurement)
    if not truth.finite:
        raise ValueError("the measurement moments contain non-finite entries")
    return truth


def oracle_lmmse(
    prior: GaussianPrior, model: TrueModel, measurement: Optional[MeasurementMoments] = None
) -> AffineEstimator:
    """Optimal affine estimator with full knowledge of the true model: the population LMMSE.

    Under every measurement map it is the best affine rule A = C_yx
    C_xx^{-1}, b = mu_y - A mu_x, at the true moments mu_x = mu_g + mu_w,
    C_yx = L_yy B^T and C_xx = B B^T + Q + sigma2 I, with B, mu_g and Q from
    ``measurement`` (:func:`measurement_moments` of the model, computed when
    omitted). It is therefore also the large-sample limit of the
    discriminative estimator; that limit has no constructor of its own. Under
    the linear map A = C_yy H^T (H C_yy H^T + sigma2 I)^{-1}, computed as L_yy
    B^T (B B^T + sigma2 I)^{-1} with B = H L_yy; for the jointly Gaussian
    linear model it is the minimum-MSE estimator, and with sigma2 == 0 it
    needs a nonsingular H C_yy H^T.
    """
    A, b = _oracle(_truth(prior, model, measurement), model.sigma2)
    return AffineEstimator(A=A, b=b, provenance=Provenance.ORACLE_LMMSE)


def generative_asymptote(
    prior: GaussianPrior,
    model: TrueModel,
    known: Optional[KnownStatistics] = None,
    measurement: Optional[MeasurementMoments] = None,
) -> AffineEstimator:
    """Large-sample limit of the generative estimator on data drawn from ``prior`` and ``model``.

    As n_t grows the ML fit tends to the population fit H = C_xy C_yy^{-1},
    and the sample means to mu_x and mu_y, so the limit is the rule of
    :func:`generative_estimator` built from them with ``known`` as the side
    information: its gain form, failures and warnings are that rule's. The
    side information defaults to the data's prior at ``model.sigma2``, 0
    included. H is solved with the data prior's kept Cholesky factor, so it
    factors nothing. When the data truly follow the linear model and
    ``known`` is the truth, this coincides with :func:`oracle_lmmse`; under a
    distorted measurement map or a mismatched prior it does not, and the
    excess of its :func:`affine_risk` over the oracle's is the asymptotic
    cost of the modeling mismatch. ``measurement`` is as for
    :func:`oracle_lmmse`.
    """
    side, sigma2 = (prior, model.sigma2) if known is None else (known.prior, known.sigma2)
    if side.n_y != prior.n_y:
        raise ValueError(
            f"known prior dimension {side.n_y} does not match prior dimension {prior.n_y}"
        )
    A, b = _generative_asymptote(_truth(prior, model, measurement), side, sigma2)
    return AffineEstimator(A=A, b=b, provenance=Provenance.GENERATIVE_ASYMPTOTE)


def generative_highsnr(prior: GaussianPrior, H, moments: SampleMoments) -> AffineEstimator:
    """Vanishing-noise limit of the generative estimator.

    mu_y + C_yy H^T (H C_yy H^T)^{-1} (x - x_bar - H (mu_y - y_bar)), using
    the true measurement matrix (which the ML fit recovers in this limit).
    Requires H C_yy H^T nonsingular, for which N_y >= N_x is necessary.
    """
    H = _as_float_array(H, "H", ndim=2)
    if H.shape != (moments.n_x, moments.n_y) or prior.n_y != moments.n_y:
        raise ValueError(
            f"H shape {H.shape}, prior dimension {prior.n_y} and moments dimensions "
            f"({moments.n_x}, {moments.n_y}) are inconsistent"
        )
    G = gain_direct(H, prior.C_yy, 0.0)
    b = _generative_offset(G, prior.mu_y, moments.x_bar, moments.y_bar, H)
    return AffineEstimator(A=G, b=b, provenance=Provenance.GENERATIVE_HIGH_SNR)


def discriminative_highsnr(H, moments: SampleMoments) -> AffineEstimator:
    """Vanishing-noise limit of the discriminative estimator.

    y_bar + C_yy_hat H^T (H C_yy_hat H^T)^{-1} (x - x_bar): the same
    transformation as the generative limit with the true target mean and
    covariance replaced by their sample counterparts.
    """
    H = _as_float_array(H, "H", ndim=2)
    if H.shape != (moments.n_x, moments.n_y):
        raise ValueError(
            f"H shape {H.shape} does not match moments dimensions "
            f"({moments.n_x}, {moments.n_y})"
        )
    G = gain_direct(H, moments.C_yy, 0.0)
    return AffineEstimator(
        A=G, b=moments.y_bar - G @ moments.x_bar, provenance=Provenance.DISCRIMINATIVE_HIGH_SNR
    )
