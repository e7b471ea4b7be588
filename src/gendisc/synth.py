"""Ground-truth data generation for the linear Gaussian measurement model.

Targets are drawn from a known Gaussian prior and pushed through
``x = g(H y) + w`` with isotropic Gaussian noise. The measurement map is
linear by default; tanh saturation and cubic distortion variants are
provided to generate data that a linear model misspecifies, each reducing
to the linear map in a parameter limit.

Estimators read a training set only through its sample means and scatter,
:class:`~gendisc.moments.SampleMoments`, and
``draw_training(prior, model, n, seed).moments(sigma2)`` draws those
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

import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np
import numpy.random  # imported with the package, not on the first draw inside a sweep

from .moments import (
    _SYMMETRY_RTOL,
    Dataset,
    SampleMoments,
    _centred,
    _freeze,
    _frozen,
    _pair_blocks,
    _symmetry_defect,
)

_MASTER_MAX = 2**64


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a float, or an integer that converts to one, and not a bool."""
    return isinstance(value, (float, np.floating)) or (
        _is_int(value) and abs(value) <= sys.float_info.max
    )


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
        if not (_is_int(self.master) and 0 <= self.master < _MASTER_MAX):
            raise ValueError(f"master seed must be a 64-bit unsigned integer, got {self.master!r}")
        if not all(map(_is_int, self.stream)):
            raise ValueError(f"seed stream indices must be integers, got {self.stream!r}")
        object.__setattr__(self, "master", int(self.master))
        object.__setattr__(self, "stream", tuple(map(int, self.stream)))

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
        if not (_is_real(self.scale) and 0 < self.scale < np.inf):
            raise ValueError(f"tanh scale must be a finite positive number, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.scale * np.tanh(u / self.scale)


@dataclass(frozen=True)
class Cubic:
    """Polynomial distortion g(u) = u + alpha * u^3; linear as alpha -> 0."""

    alpha: float = 0.1

    def __post_init__(self):
        if not (_is_real(self.alpha) and np.isfinite(float(self.alpha))):
            raise ValueError(f"cubic alpha must be a finite number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u + self.alpha * u**3


Nonlinearity = Linear | Tanh | Cubic
_KINDS = {cls.__name__.lower(): cls for cls in Nonlinearity.__args__}


def nonlinearity_from_dict(value) -> Nonlinearity:
    """Parse a measurement map given as a kind string or ``{"kind": ..., params}``.

    The kinds are the lower-cased names of the :data:`Nonlinearity` classes,
    and each takes its own fields as optional parameters (tanh ``scale``,
    cubic ``alpha``); a parameter of another kind is an error, not dropped.
    Anything malformed raises ``ValueError``, with a message that starts
    ``nonlinearity:``.
    """
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict) or "kind" not in value:
        raise ValueError("nonlinearity: expected a kind string or an object with a 'kind' key")
    params = dict(value)
    kind = params.pop("kind")
    extra = set(params) - {f.name for cls in _KINDS.values() for f in fields(cls)}
    if extra:
        raise ValueError(f"nonlinearity: unknown keys {sorted(extra, key=str)}")
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(f"nonlinearity: unknown kind {kind!r} (expected one of {list(_KINDS)})")
    cls = _KINDS[kind]
    foreign = set(params) - {f.name for f in fields(cls)}
    if foreign:
        raise ValueError(f"nonlinearity: {kind} takes no {sorted(foreign)}")
    try:
        return cls(**params)
    except ValueError as exc:
        raise ValueError(f"nonlinearity: {exc}") from None


def nonlinearity_to_dict(nl: Nonlinearity) -> dict:
    """The JSON form of a measurement map, which :func:`nonlinearity_from_dict` reads back."""
    return {"kind": type(nl).__name__.lower(), **asdict(nl)}


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
        mu, C = _freeze(self, mu_y=1, C_yy=2)
        if C.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError(f"C_yy shape {C.shape} does not match mu_y length {mu.shape[0]}")
        if _symmetry_defect(C) > _SYMMETRY_RTOL:
            raise ValueError("C_yy must be symmetric")
        try:
            L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            raise ValueError("C_yy must be positive definite (Cholesky failed)") from None
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
        H, mu = _freeze(self, H=2, mu_w=1)
        if mu.shape[0] != H.shape[0]:
            raise ValueError(f"mu_w length {mu.shape[0]} does not match H rows {H.shape[0]}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        if not isinstance(self.nonlinearity, Nonlinearity):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
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
    * noise`` for any ``sigma2``. The pairs are reduced by the routine of
    :func:`~gendisc.moments.compute_moments`, with the target block (mean,
    centred rows and scatter) computed once, on first use, and reused at
    every ``sigma2``; so the moments at ``sigma2`` are
    ``compute_moments(Dataset(xs=self.xs(sigma2), ys=self.ys))``, bit for bit.
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
        """The target mean, the centred targets over sqrt(n) and their 1/n scatter."""
        return _centred(self.ys)

    def xs(self, sigma2: float) -> np.ndarray:
        return self.signal + np.sqrt(sigma2) * self.noise

    def blocks(self, sigma2: float) -> tuple[np.ndarray, ...]:
        """``x_bar, y_bar, C_yx, C_yy, C_xx``, with ``sigma2`` unchecked."""
        return _pair_blocks(self._targets, self.xs(sigma2))


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
    drawn and reduced by the routine of
    :func:`~gendisc.moments.compute_moments`, which scales the centred rows
    by ``1/sqrt(n)`` before their products, so that a covariance overflows
    only where its own value is out of the float range.
    """
    if isinstance(model.nonlinearity, Linear):
        return _MomentDraw(prior, model, n, seed)
    return _PairDraw(prior, model, n, seed)


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
