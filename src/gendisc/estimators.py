"""Closed-form affine estimator constructions for the linear Gaussian model.

Two learning routes are implemented. The generative route fits the missing
measurement parameters (H, noise mean) by maximum likelihood and plugs them,
together with the known prior and noise variance, into the optimal affine
estimator under the fitted model. The discriminative route minimizes the
empirical squared error directly over all affine maps, which lands on the
sample-LMMSE estimator. Alongside them live the oracle estimator built from
the true parameters and the closed-form large-sample / vanishing-noise limit
estimators used as analytical reference points.

All estimators share one output type, :class:`AffineEstimator`, so they can
be evaluated and compared uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .moments import (
    Dataset,
    SampleMoments,
    _as_float_array,
    _frozen,
    compute_moments,
    gain_direct,
    gain_lemma,
    spd_solve,
)
from .synth import GaussianPrior, Linear, TrueModel


class Provenance(str, enum.Enum):
    """Which construction produced an estimator; doubles as its report label."""

    GENERATIVE = "generative"
    DISCRIMINATIVE = "discriminative"
    ORACLE_LMMSE = "oracle_lmmse"
    GENERATIVE_ASYMPTOTE = "generative_asymptote"
    DISCRIMINATIVE_ASYMPTOTE = "discriminative_asymptote"
    GENERATIVE_HIGH_SNR = "generative_high_snr"
    DISCRIMINATIVE_HIGH_SNR = "discriminative_high_snr"


@dataclass(frozen=True)
class FittedModel:
    """Maximum likelihood estimates of the measurement matrix and noise mean."""

    H_hat: np.ndarray
    mu_hat: np.ndarray

    def __post_init__(self):
        H = _as_float_array(self.H_hat, "H_hat", ndim=2)
        mu = _as_float_array(self.mu_hat, "mu_hat", ndim=1)
        if mu.shape[0] != H.shape[0]:
            raise ValueError(f"mu_hat length {mu.shape[0]} does not match H_hat rows {H.shape[0]}")
        object.__setattr__(self, "H_hat", _frozen(H))
        object.__setattr__(self, "mu_hat", _frozen(mu))


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
        A = _as_float_array(self.A, "A", ndim=2)
        b = _as_float_array(self.b, "b", ndim=1)
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b length {b.shape[0]} does not match A rows {A.shape[0]}")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "b", _frozen(b))
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


@dataclass(frozen=True)
class PopulationMoments:
    """True moments of the data distribution used by the asymptotic estimators."""

    mu_x: np.ndarray
    C_yx: np.ndarray
    C_xx: np.ndarray

    def __post_init__(self):
        mu_x = _as_float_array(self.mu_x, "mu_x", ndim=1)
        C_yx = _as_float_array(self.C_yx, "C_yx", ndim=2)
        C_xx = _as_float_array(self.C_xx, "C_xx", ndim=2)
        n_x = mu_x.shape[0]
        if C_yx.shape[1] != n_x or C_xx.shape != (n_x, n_x):
            raise ValueError(
                f"inconsistent shapes: mu_x {mu_x.shape}, C_yx {C_yx.shape}, C_xx {C_xx.shape}"
            )
        object.__setattr__(self, "mu_x", _frozen(mu_x))
        object.__setattr__(self, "C_yx", _frozen(C_yx))
        object.__setattr__(self, "C_xx", _frozen(C_xx))

    @classmethod
    def from_samples(cls, moments: SampleMoments) -> "PopulationMoments":
        """Treat large-sample moments as population values."""
        return cls(mu_x=moments.x_bar, C_yx=moments.C_yx, C_xx=moments.C_xx)


def linear_population_moments(prior: GaussianPrior, model: TrueModel) -> PopulationMoments:
    """Exact population moments induced by the linear measurement model.

    Under x = H y + w: mu_x = H mu_y + mu_w, C_yx = C_yy H^T and
    C_xx = H C_yy H^T + sigma2 I.
    """
    if not isinstance(model.nonlinearity, Linear):
        raise ValueError("closed-form population moments exist only for the linear model")
    H = model.H
    C = prior.C_yy
    return PopulationMoments(
        mu_x=H @ prior.mu_y + model.mu_w,
        C_yx=C @ H.T,
        C_xx=H @ C @ H.T + model.sigma2 * np.eye(model.n_x),
    )


def affine_risk(est: AffineEstimator, prior: GaussianPrior, model: TrueModel) -> float:
    """Expected squared error E||y - A x - b||^2 of an affine rule under the linear model.

    With x = H y + w, the error splits into three uncorrelated parts:
    (I - A H)(y - mu_y), -A (w - mu_w) and the bias mu_y - A mu_x - b, where
    mu_x = H mu_y + mu_w. The risk is therefore
    ||(I - A H) L_yy||_F^2 + sigma2 ||A||_F^2 + ||mu_y - A mu_x - b||^2 with
    L_yy the Cholesky factor of C_yy, a sum of squares that cannot cancel.
    """
    if not isinstance(model.nonlinearity, Linear):
        raise ValueError("the closed-form risk exists only for the linear measurement model")
    if est.A.shape != (model.n_y, model.n_x) or prior.n_y != model.n_y:
        raise ValueError(
            f"rule shape {est.A.shape}, prior dimension {prior.n_y} and model shape "
            f"{model.H.shape} are inconsistent"
        )
    A = est.A
    spread = prior.L_yy - A @ (model.H @ prior.L_yy)
    bias = prior.mu_y - A @ (model.H @ prior.mu_y + model.mu_w) - est.b
    return float(np.vdot(spread, spread) + model.sigma2 * np.vdot(A, A) + bias @ bias)


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
    # H_hat^T = C_yy^{-1} C_yx, using C_yy symmetry.
    H_hat = spd_solve(m.C_yy, m.C_yx, ridge=ridge, name="target sample covariance").T
    mu_hat = m.x_bar - H_hat @ m.y_bar
    return FittedModel(H_hat=H_hat, mu_hat=mu_hat)


def _generative_from_gain(G, mu_y, x_bar, y_bar, H, provenance) -> AffineEstimator:
    # estimate(x) = mu_y + G (x - x_bar - H (mu_y - y_bar))
    b = mu_y - G @ (x_bar + H @ (mu_y - y_bar))
    return AffineEstimator(A=G, b=b, provenance=provenance)


def generative_estimator(
    fit: FittedModel,
    known: KnownStatistics,
    moments: SampleMoments,
    form: str = "auto",
) -> AffineEstimator:
    """Plug-in optimal estimator under the fitted measurement model.

    The rule is mu_y + G (x - x_bar - H_hat (mu_y - y_bar)) where the gain G
    is C_yy H_hat^T (H_hat C_yy H_hat^T + sigma2 I)^{-1} (form ``"a"``), or
    the matrix-inversion-lemma equivalent (H_hat^T H_hat + sigma2
    C_yy^{-1})^{-1} H_hat^T (form ``"b"``). Form ``"auto"`` picks "b" when
    N_y <= N_x, where the smaller inverse lives on the target side.

    Parameters
    ----------
    fit : FittedModel
        ML estimates of the measurement parameters.
    known : KnownStatistics
        True prior and (positive) noise variance.
    moments : SampleMoments
        Supplies the sample means appearing in the offset term.
    form : {"a", "b", "auto"}, optional
    """
    if form not in ("a", "b", "auto"):
        raise ValueError(f"form must be 'a', 'b' or 'auto', got {form!r}")
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
    C = known.prior.C_yy
    if form == "auto":
        form = "b" if n_y <= n_x else "a"
    gain = gain_direct if form == "a" else gain_lemma
    G = gain(H, C, known.sigma2)
    return _generative_from_gain(
        G, known.prior.mu_y, moments.x_bar, moments.y_bar, H, Provenance.GENERATIVE
    )


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
    A = spd_solve(moments.C_xx, moments.C_xy, ridge=ridge, name="input sample covariance").T
    b = moments.y_bar - A @ moments.x_bar
    return AffineEstimator(A=A, b=b, provenance=Provenance.DISCRIMINATIVE)


def oracle_lmmse(prior: GaussianPrior, model: TrueModel) -> AffineEstimator:
    """Optimal affine estimator with full knowledge of the linear model.

    A = C_yy H^T (H C_yy H^T + sigma2 I)^{-1} and b = mu_y - A mu_x; for the
    jointly Gaussian linear model this coincides with the minimum-MSE
    estimator. Requires the linear measurement map (no closed form exists
    under the distortions) and, when sigma2 == 0, a nonsingular H C_yy H^T.
    """
    if not isinstance(model.nonlinearity, Linear):
        raise ValueError("the oracle closed form exists only for the linear measurement model")
    if prior.n_y != model.n_y:
        raise ValueError(
            f"prior dimension {prior.n_y} does not match model target dimension {model.n_y}"
        )
    A = gain_direct(model.H, prior.C_yy, model.sigma2)
    mu_x = model.H @ prior.mu_y + model.mu_w
    b = prior.mu_y - A @ mu_x
    return AffineEstimator(A=A, b=b, provenance=Provenance.ORACLE_LMMSE)


def generative_asymptote(
    prior: GaussianPrior, pop: PopulationMoments, sigma2: float
) -> AffineEstimator:
    """Large-sample limit of the generative estimator, at population moments.

    The gain is (C_yy^{-1} C_yx C_xy C_yy^{-1} + sigma2 C_yy^{-1})^{-1}
    C_yy^{-1} C_yx and the rule is mu_y + gain (x - mu_x). When the data
    truly follow the linear model this coincides with the optimal affine
    estimator; under a distorted measurement map it does not, which is the
    asymptotic cost of the modeling mismatch.
    """
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if pop.C_yx.shape[0] != prior.n_y:
        raise ValueError(
            f"population C_yx rows {pop.C_yx.shape[0]} do not match prior dimension {prior.n_y}"
        )
    C = prior.C_yy
    W = spd_solve(C, pop.C_yx, name="prior covariance")  # C_yy^{-1} C_yx
    inner = W @ W.T
    if sigma2:
        inner = inner + sigma2 * spd_solve(C, np.eye(prior.n_y), name="prior covariance")
    A = spd_solve(inner, W, name="asymptotic inner matrix")
    b = prior.mu_y - A @ pop.mu_x
    return AffineEstimator(A=A, b=b, provenance=Provenance.GENERATIVE_ASYMPTOTE)


def discriminative_asymptote(prior: GaussianPrior, pop: PopulationMoments) -> AffineEstimator:
    """Large-sample limit of the discriminative estimator: the population LMMSE.

    A = C_yx C_xx^{-1}, b = mu_y - A mu_x, with true moments of whatever
    distribution actually generated the data.
    """
    if pop.C_yx.shape[0] != prior.n_y:
        raise ValueError(
            f"population C_yx rows {pop.C_yx.shape[0]} do not match prior dimension {prior.n_y}"
        )
    A = spd_solve(pop.C_xx, pop.C_yx.T, name="population input covariance").T
    b = prior.mu_y - A @ pop.mu_x
    return AffineEstimator(A=A, b=b, provenance=Provenance.DISCRIMINATIVE_ASYMPTOTE)


def generative_highsnr(
    prior: GaussianPrior, H, moments: SampleMoments
) -> AffineEstimator:
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
    return _generative_from_gain(
        G, prior.mu_y, moments.x_bar, moments.y_bar, H, Provenance.GENERATIVE_HIGH_SNR
    )


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
    b = moments.y_bar - G @ moments.x_bar
    return AffineEstimator(A=G, b=b, provenance=Provenance.DISCRIMINATIVE_HIGH_SNR)
