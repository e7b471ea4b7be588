"""Ground-truth data generation for the linear Gaussian measurement model.

Targets are drawn from a known Gaussian prior and pushed through
``x = g(H y) + w`` with isotropic Gaussian noise. The measurement map is
linear by default; tanh saturation and cubic distortion variants are
provided to generate data that a linear model misspecifies, each reducing
to the linear map in a parameter limit.

Randomness is counter-based: a :class:`Seed` names a stream by its master
value plus a tuple of child indices, so any parallel schedule that assigns
disjoint child indices to its work items reproduces draws bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .moments import Dataset, _as_float_array, _frozen

_MASTER_MAX = 2**64


@dataclass(frozen=True)
class Seed:
    """A named deterministic random stream.

    ``master`` is a 64-bit unsigned integer; ``stream`` is a tuple of child
    indices. The generator is seeded from ``SeedSequence((master, *stream))``,
    whose documented entropy mixing guarantees that distinct index tuples
    yield statistically independent streams while identical tuples reproduce
    identical draws.
    """

    master: int
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.master) < _MASTER_MAX):
            raise ValueError(f"master seed must be a 64-bit unsigned integer, got {self.master}")
        object.__setattr__(self, "master", int(self.master))
        object.__setattr__(self, "stream", tuple(int(i) for i in self.stream))

    def child(self, *indices: int) -> "Seed":
        """Derive the sub-stream named by appending ``indices``."""
        return Seed(self.master, self.stream + indices)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.master, *self.stream)))


@dataclass(frozen=True)
class Linear:
    """Identity measurement map: g(u) = u."""

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u


@dataclass(frozen=True)
class Tanh:
    """Saturating map g(u) = scale * tanh(u / scale); linear as scale -> inf."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"tanh scale must be positive, got {self.scale}")

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.scale * np.tanh(u / self.scale)


@dataclass(frozen=True)
class Cubic:
    """Polynomial distortion g(u) = u + alpha * u^3; linear as alpha -> 0."""

    alpha: float = 0.1

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError(f"cubic alpha must be finite, got {self.alpha}")

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u + self.alpha * u**3


Nonlinearity = Linear | Tanh | Cubic


@dataclass(frozen=True)
class GaussianPrior:
    """Known target statistics: y ~ N(mu_y, C_yy) with C_yy strictly PD.

    ``L_yy`` is the lower Cholesky factor of ``C_yy``, kept from validation
    for drawing samples.
    """

    mu_y: np.ndarray
    C_yy: np.ndarray
    L_yy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = _as_float_array(self.mu_y, "mu_y", ndim=1)
        C = _as_float_array(self.C_yy, "C_yy", ndim=2)
        if C.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError(f"C_yy shape {C.shape} does not match mu_y length {mu.shape[0]}")
        if np.linalg.norm(C - C.T) > 1e-10 * max(np.linalg.norm(C), 1e-300):
            raise ValueError("C_yy must be symmetric")
        try:
            L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            raise ValueError("C_yy must be positive definite (Cholesky failed)") from None
        object.__setattr__(self, "mu_y", _frozen(mu))
        object.__setattr__(self, "C_yy", _frozen(C))
        object.__setattr__(self, "L_yy", _frozen(L))

    @property
    def n_y(self) -> int:
        return self.mu_y.shape[0]


@dataclass(frozen=True)
class TrueModel:
    """Ground-truth measurement parameters: x = g(H y) + w, w ~ N(mu_w, sigma2 I).

    ``sigma2 == 0`` is the noiseless test mode (w collapses to mu_w); the
    finite-SNR estimator constructors reject it, but data generation and the
    dedicated high-SNR estimators accept it.
    """

    H: np.ndarray
    mu_w: np.ndarray
    sigma2: float
    nonlinearity: Nonlinearity = Linear()

    def __post_init__(self):
        H = _as_float_array(self.H, "H", ndim=2)
        mu = _as_float_array(self.mu_w, "mu_w", ndim=1)
        if mu.shape[0] != H.shape[0]:
            raise ValueError(f"mu_w length {mu.shape[0]} does not match H rows {H.shape[0]}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        if not isinstance(self.nonlinearity, (Linear, Tanh, Cubic)):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        object.__setattr__(self, "H", _frozen(H))
        object.__setattr__(self, "mu_w", _frozen(mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def n_x(self) -> int:
        return self.H.shape[0]

    @property
    def n_y(self) -> int:
        return self.H.shape[1]


def sample_targets(prior: GaussianPrior, n: int, seed: Seed) -> np.ndarray:
    """Draw ``n`` i.i.d. targets from the prior, one per row.

    Draws are mu_y + L z with L the lower Cholesky factor of C_yy and z
    standard normal, so a fixed seed pins the exact output.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    z = seed.generator().standard_normal((n, prior.n_y))
    return prior.mu_y + z @ prior.L_yy.T


def sample_pairs(prior: GaussianPrior, model: TrueModel, n: int, seed: Seed) -> Dataset:
    """Draw ``n`` i.i.d. (x, y) pairs: y from the prior, x = g(H y) + w.

    The noise is materialized as mu_w + sqrt(sigma2) * z with z standard
    normal, so datasets drawn under the same seed but different sigma2 share
    the same underlying randomness (the noise is merely rescaled).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if prior.n_y != model.n_y:
        raise ValueError(
            f"prior dimension {prior.n_y} does not match model target dimension {model.n_y}"
        )
    rng = seed.generator()
    ys = prior.mu_y + rng.standard_normal((n, prior.n_y)) @ prior.L_yy.T
    noise = rng.standard_normal((n, model.n_x))
    xs = model.nonlinearity.apply(ys @ model.H.T) + model.mu_w + np.sqrt(model.sigma2) * noise
    return Dataset(xs=xs, ys=ys)


def exp_decay_prior(n_y: int, length_scale: float = 5.0) -> GaussianPrior:
    """Zero-mean prior whose covariance decays exponentially with index distance.

    Entry (i, j) of the covariance is exp(-|i - j| / length_scale), a
    spatial-decay correlation structure.
    """
    if n_y < 1:
        raise ValueError(f"n_y must be at least 1, got {n_y}")
    if not length_scale > 0:
        raise ValueError(f"length_scale must be positive, got {length_scale}")
    idx = np.arange(n_y)
    C = np.exp(-np.abs(idx[:, None] - idx[None, :]) / length_scale)
    return GaussianPrior(mu_y=np.zeros(n_y), C_yy=C)


def random_measurement_matrix(n_x: int, n_y: int, seed: Seed) -> np.ndarray:
    """Random measurement matrix with i.i.d. standard normal entries."""
    if n_x < 1 or n_y < 1:
        raise ValueError(f"dimensions must be at least 1, got ({n_x}, {n_y})")
    return seed.generator().standard_normal((n_x, n_y))
