"""Ground-truth data generation for the linear Gaussian measurement model.

Targets are drawn from a known Gaussian prior and pushed through
``x = g(H y) + w`` with isotropic Gaussian noise. The measurement map is
linear by default; tanh saturation and cubic distortion variants are
provided to generate data that a linear model misspecifies, each reducing
to the linear map in a parameter limit.

Estimators read a training set only through its sample means and scatter,
:class:`~gendisc.moments.SampleMoments`. :func:`sample_moments` draws those
directly. Under the linear map ``(y, x)`` is jointly Gaussian, so the sample
means and the scatter are independent, with laws ``N(mu, Sigma/n)`` and
``Wishart(n - 1, Sigma)``; they are drawn from those laws at a cost that does
not grow with ``n`` (Bartlett's decomposition, Smith & Hocking, *Applied
Statistics* AS 53, 1972). Under tanh and cubic maps ``x`` is not Gaussian, so
the moments are computed from ``n`` drawn pairs.

Randomness is counter-based: a :class:`Seed` names a stream by its master
value plus a tuple of child indices, so any parallel schedule that assigns
disjoint child indices to its work items reproduces draws bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .moments import (
    _SYMMETRY_RTOL,
    Dataset,
    SampleMoments,
    _as_float_array,
    _frozen,
    _symmetry_defect,
)

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
        if _symmetry_defect(C) > _SYMMETRY_RTOL:
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


def _check_draw(prior: GaussianPrior, model: TrueModel, n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if prior.n_y != model.H.shape[1]:
        raise ValueError(
            f"prior dimension {prior.n_y} does not match model target dimension {model.H.shape[1]}"
        )


def sample_pairs(prior: GaussianPrior, model: TrueModel, n: int, seed: Seed) -> Dataset:
    """Draw ``n`` i.i.d. (x, y) pairs: y from the prior, x = g(H y) + w.

    The noise is materialized as mu_w + sqrt(sigma2) * z with z standard
    normal, so datasets drawn under the same seed but different sigma2 share
    the same underlying randomness (the noise is merely rescaled).
    """
    draw = _PairDraw(prior, model, n, seed)
    return Dataset(xs=draw.xs(model.sigma2), ys=draw.ys)


def _standard_scatter_root(rng: np.random.Generator, dof: int, d: int) -> np.ndarray:
    """A square root ``G`` of a ``Wishart(dof, I_d)`` scatter: ``G @ G.T ~ W(dof, I_d)``.

    When ``dof >= d``, ``G`` is Bartlett's lower triangle, drawn as the ``d``
    diagonal entries ``sqrt(chi2(dof - i))`` for ``i = 0..d-1``, then the
    standard normals below the diagonal in row-major order. Otherwise ``G``
    is ``Z.T`` for a ``(dof, d)`` standard-normal ``Z``, the scatter of
    ``dof`` centred draws, which is singular.
    """
    if dof < d:
        return rng.standard_normal((dof, d)).T
    G = np.diag(np.sqrt(rng.chisquare(dof - np.arange(d))))
    np.put(G, _strict_lower(d), rng.standard_normal(d * (d - 1) // 2))
    return G


@lru_cache(maxsize=8)
def _strict_lower(d: int) -> np.ndarray:
    """Flat row-major indices of the entries below the diagonal of a ``d x d`` matrix."""
    idx = np.flatnonzero(np.tri(d, k=-1, dtype=bool))
    idx.flags.writeable = False
    return idx


class _Draw:
    """The training randomness of :func:`draw_training`, free of the noise level."""

    def moments(self, sigma2: float) -> SampleMoments:
        """The sample moments at noise variance ``sigma2``: the fields of :meth:`blocks`."""
        if not (np.isfinite(sigma2) and sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2}")
        return SampleMoments(*self.blocks(sigma2), n_t=self.n)


class _PairDraw(_Draw):
    """``n`` pairs of :func:`sample_pairs` with the noise left unscaled.

    From ``seed.generator()`` come, in this order, the standard normals of
    the targets ``ys`` and of the noise. ``x = (g(H y) + mu_w) + sqrt(sigma2)
    * noise`` for any ``sigma2``; the target moments are computed once, on
    first use. The moments at ``sigma2`` are ``compute_moments(Dataset(xs=
    self.xs(sigma2), ys=self.ys))``, bit for bit.
    """

    def __init__(self, prior: GaussianPrior, model: TrueModel, n: int, seed: Seed):
        _check_draw(prior, model, n)
        rng = seed.generator()
        self.n = n
        self.ys = prior.mu_y + rng.standard_normal((n, prior.n_y)) @ prior.L_yy.T
        self.noise = rng.standard_normal((n, model.H.shape[0]))
        self.signal = model.nonlinearity.apply(self.ys @ model.H.T) + model.mu_w

    @cached_property
    def _targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The target mean, the centred targets and their 1/n scatter."""
        y_bar = self.ys.mean(axis=0)
        yc = self.ys - y_bar
        return y_bar, yc, yc.T @ yc / self.n

    def xs(self, sigma2: float) -> np.ndarray:
        return self.signal + np.sqrt(sigma2) * self.noise

    def blocks(self, sigma2: float) -> tuple[np.ndarray, ...]:
        """``x_bar, y_bar, C_yx, C_yy, C_xx``, with ``sigma2`` unchecked."""
        y_bar, yc, C_yy = self._targets
        xs = self.xs(sigma2)
        x_bar = xs.mean(axis=0)
        xc = xs - x_bar
        return x_bar, y_bar, yc.T @ xc / self.n, C_yy, xc.T @ xc / self.n


class _MomentDraw(_Draw):
    """The noise-free part of a linear-model training set's moments, drawn from their law.

    From ``seed.generator()`` come, in this order, the standard-normal mean
    ``z ~ N(0, I_d)`` with ``d = N_y + N_x`` (target coordinates first, then
    noise) and the scatter root ``G`` of :func:`_standard_scatter_root` with
    ``n - 1`` degrees of freedom. What does not involve the noise level is
    computed here: ``F_y = L_yy G[:N_y]``, ``H F_y``,
    ``y_bar = mu_y + L_yy z_y / sqrt(n)`` and ``H y_bar + mu_w``.
    """

    def __init__(self, prior: GaussianPrior, model: TrueModel, n: int, seed: Seed):
        _check_draw(prior, model, n)
        self.n, self.n_y = n, prior.n_y
        rng = seed.generator()
        self.z = rng.standard_normal(prior.n_y + model.H.shape[0])
        self.G = _standard_scatter_root(rng, n - 1, prior.n_y + model.H.shape[0])
        self.F_y = prior.L_yy @ self.G[: self.n_y]
        self.HF_y = model.H @ self.F_y
        self.y_bar = prior.mu_y + prior.L_yy @ self.z[: self.n_y] / np.sqrt(n)
        self.signal_bar = model.H @ self.y_bar + model.mu_w

    def blocks(self, sigma2: float) -> tuple[np.ndarray, ...]:
        """``x_bar, y_bar, C_yx, C_yy, C_xx`` (``sigma2`` unchecked): ``F_x = H F_y + sigma
        G[N_y:]``, ``C = F F^T / n`` for ``F = [F_y; F_x]`` split into its blocks, and
        ``x_bar = (H y_bar + mu_w) + sigma z_w / sqrt(n)``."""
        n, n_y = self.n, self.n_y
        sigma = np.sqrt(sigma2)
        F = np.empty(self.G.shape)
        F[:n_y] = self.F_y
        F[n_y:] = self.HF_y + sigma * self.G[n_y:]
        C = F @ F.T / n
        x_bar = self.signal_bar + sigma * self.z[n_y:] / np.sqrt(n)
        return x_bar, self.y_bar, C[:n_y, n_y:], C[:n_y, :n_y], C[n_y:, n_y:]


def draw_training(prior: GaussianPrior, model: TrueModel, n: int, seed: Seed) -> _Draw:
    """The randomness of a training set of ``n`` pairs, free of the noise level.

    Its ``moments(sigma2)`` method gives the sample moments of the set at
    noise variance ``sigma2``, and ``blocks(sigma2)`` their fields as plain
    arrays, with ``sigma2`` unchecked. ``H``, ``mu_w`` and the measurement
    map ``nonlinearity`` are read from ``model``: a :class:`TrueModel`, whose
    own ``sigma2`` is not read, or any object with those three. The draws do
    not depend on ``sigma2``: sets at several noise levels share them and
    differ only in how far the noise is scaled. Under a :class:`Linear` map
    the moments are drawn from their joint law and no pair is materialized;
    under tanh and cubic maps the ``n`` pairs of :func:`sample_pairs` are
    drawn and reduced as by :func:`~gendisc.moments.compute_moments`.
    """
    if isinstance(model.nonlinearity, Linear):
        return _MomentDraw(prior, model, n, seed)
    return _PairDraw(prior, model, n, seed)


def sample_moments(prior: GaussianPrior, model: TrueModel, n: int, seed: Seed) -> SampleMoments:
    """The sample moments of ``n`` i.i.d. (x, y) pairs drawn as by :func:`sample_pairs`.

    ``draw_training(prior, model, n, seed).moments(model.sigma2)``. Under a
    :class:`Linear` map they are drawn from their joint law, with no pair
    materialized: the mean from ``N(0, I_d)`` and the scatter from
    ``Wishart(n - 1, I_d)``, ``d = N_y + N_x``, both mapped through
    ``[[L_yy, 0], [H L_yy, sigma I]]`` (see :class:`_MomentDraw`). The cost is
    O(d^3) whatever ``n`` is. Under tanh and cubic maps this is
    ``compute_moments(sample_pairs(prior, model, n, seed))``, bit for bit.
    """
    return draw_training(prior, model, n, seed).moments(model.sigma2)


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
