"""Sample moments and numerically safe symmetric-positive-definite linear algebra.

Every matrix inverse in the estimator formulas is routed through
:func:`spd_solve`, which factorizes via Cholesky, screens the condition
number from the factor, and fails loudly (no silent pseudo-inverses) when
the matrix is not positive definite after optional ridge regularization.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

# Condition estimates above this trigger an IllConditionedWarning rather than
# an error, so sweeps can chart the degradation regime near n_t ~ N_x.
CONDITION_WARN_THRESHOLD = 1e12

# The exact spectral estimate is skipped only when the 1-norm estimate read
# from the Cholesky factor stays this far below the threshold. For symmetric
# A the spectral condition never exceeds the 1-norm one, and the LAPACK
# estimate of the latter is almost always within a factor of 3 of it.
_SCREEN_MARGIN = 10.0

# A factor whose reciprocal 1-norm condition estimate is below machine epsilon
# marks its matrix singular to working precision, as LAPACK's xPOSVX reports.
# Rank-deficient sample covariances (n_t <= N_x) factorize in some draws by
# rounding alone, with such estimates.
_SINGULAR_RCOND = np.finfo(float).eps

_SYMMETRY_RTOL = 1e-10


class SingularMatrixError(np.linalg.LinAlgError):
    """A symmetric matrix failed its positive-definite factorization.

    Attributes
    ----------
    name : str
        Human-readable name of the offending matrix.
    condition : float
        Condition estimate of the matrix (``inf`` when an eigenvalue is
        nonpositive).
    """

    def __init__(self, name: str, condition: float, hint: str = ""):
        self.name = name
        self.condition = condition
        msg = f"{name} is singular or not positive definite (condition estimate {condition:.3e})"
        if hint:
            msg += f"; {hint}"
        super().__init__(msg)


class IllConditionedWarning(UserWarning):
    """Emitted when a matrix factorizes but its condition estimate is extreme."""


# Optional per-context sink for ill-conditioning events. The Monte Carlo
# harness counts them per trial through it; recording warnings instead would
# mean changing the process-wide warning filters.
_condition_sink: ContextVar[list | None] = ContextVar("gendisc_condition_sink", default=None)


@contextmanager
def condition_events():
    """Collect (name, condition estimate) pairs for ill-conditioned solves.

    Events are recorded for every :func:`spd_solve` call in the enclosing
    context whose condition estimate exceeds ``CONDITION_WARN_THRESHOLD``;
    the matching :class:`IllConditionedWarning` is still emitted.
    """
    sink: list[tuple[str, float]] = []
    token = _condition_sink.set(sink)
    try:
        yield sink
    finally:
        _condition_sink.reset(token)


def _as_float_array(a, name: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Paired training samples, one row per sample.

    ``xs`` has shape ``(n_t, N_x)`` and ``ys`` shape ``(n_t, N_y)``.
    One-dimensional inputs are promoted to column form, so scalar problems
    can be written as ``Dataset(xs=[3, 5, 7], ys=[1, 2, 3])``.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = _as_float_array(self.xs, "xs")
        ys = _as_float_array(self.ys, "ys")
        if xs.ndim == 1:
            xs = xs[:, None]
        if ys.ndim == 1:
            ys = ys[:, None]
        if xs.ndim != 2 or ys.ndim != 2:
            raise ValueError("xs and ys must be 1- or 2-dimensional")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"xs and ys must pair up: got {xs.shape[0]} inputs and {ys.shape[0]} targets"
            )
        if xs.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        object.__setattr__(self, "xs", _frozen(xs))
        object.__setattr__(self, "ys", _frozen(ys))

    @property
    def n_t(self) -> int:
        return self.xs.shape[0]

    @property
    def n_x(self) -> int:
        return self.xs.shape[1]

    @property
    def n_y(self) -> int:
        return self.ys.shape[1]


@dataclass(frozen=True)
class SampleMoments:
    """Sample means and 1/n-normalized sample (cross-)covariances.

    ``C_xy`` is exposed only as the transpose of ``C_yx``; there is no
    independently stored copy to drift out of sync.
    """

    x_bar: np.ndarray
    y_bar: np.ndarray
    C_yx: np.ndarray
    C_yy: np.ndarray
    C_xx: np.ndarray
    n_t: int

    def __post_init__(self):
        x_bar = _as_float_array(self.x_bar, "x_bar", ndim=1)
        y_bar = _as_float_array(self.y_bar, "y_bar", ndim=1)
        C_yx = _as_float_array(self.C_yx, "C_yx", ndim=2)
        C_yy = _as_float_array(self.C_yy, "C_yy", ndim=2)
        C_xx = _as_float_array(self.C_xx, "C_xx", ndim=2)
        n_x, n_y = x_bar.shape[0], y_bar.shape[0]
        if C_yx.shape != (n_y, n_x) or C_yy.shape != (n_y, n_y) or C_xx.shape != (n_x, n_x):
            raise ValueError(
                f"inconsistent moment shapes: x_bar {x_bar.shape}, y_bar {y_bar.shape}, "
                f"C_yx {C_yx.shape}, C_yy {C_yy.shape}, C_xx {C_xx.shape}"
            )
        if self.n_t < 1:
            raise ValueError(f"n_t must be at least 1, got {self.n_t}")
        object.__setattr__(self, "x_bar", _frozen(x_bar))
        object.__setattr__(self, "y_bar", _frozen(y_bar))
        object.__setattr__(self, "C_yx", _frozen(C_yx))
        object.__setattr__(self, "C_yy", _frozen(C_yy))
        object.__setattr__(self, "C_xx", _frozen(C_xx))
        object.__setattr__(self, "n_t", int(self.n_t))

    @property
    def C_xy(self) -> np.ndarray:
        return self.C_yx.T

    @property
    def n_x(self) -> int:
        return self.x_bar.shape[0]

    @property
    def n_y(self) -> int:
        return self.y_bar.shape[0]


def compute_moments(data: Dataset) -> SampleMoments:
    """Compute sample means and covariances of a paired dataset.

    Covariances use the 1/n_t normalization (not the unbiased 1/(n_t-1)),
    matching the estimator formulas built on top of them.

    Parameters
    ----------
    data : Dataset
        Paired samples; must contain at least one pair (enforced by the
        Dataset constructor).

    Returns
    -------
    SampleMoments
    """
    n = data.n_t
    x_bar = data.xs.mean(axis=0)
    y_bar = data.ys.mean(axis=0)
    xc = data.xs - x_bar
    yc = data.ys - y_bar
    return SampleMoments(
        x_bar=x_bar,
        y_bar=y_bar,
        C_yx=yc.T @ xc / n,
        C_yy=yc.T @ yc / n,
        C_xx=xc.T @ xc / n,
        n_t=n,
    )


def _symmetry_defect(M: np.ndarray) -> float:
    """Relative asymmetry ||M - M^T||_F / ||M||_F.

    BLAS ``dnrm2`` scales as it sums, so the norms stay finite for entries
    near the float range, where squaring them would overflow.
    """
    scale = dnrm2(M.ravel()) if M.size else 0.0
    if scale == 0.0:
        return 0.0
    return float(dnrm2((M - M.T).ravel()) / scale)


def condition_estimate(M: np.ndarray) -> float:
    """Spectral condition estimate of a symmetric matrix.

    Returns ``inf`` when the smallest eigenvalue is not strictly positive,
    i.e. when the matrix has no SPD factorization.
    """
    M = np.asarray(M, dtype=float)
    evals = np.linalg.eigvalsh(0.5 * (M + M.T))
    lo, hi = evals[0], evals[-1]
    if lo <= 0.0:
        return float("inf")
    return float(hi / lo)


def spd_solve(M, B, ridge: float = 0.0, name: str = "matrix") -> np.ndarray:
    """Solve ``(M + ridge*I) X = B`` for symmetric positive definite ``M``.

    Uses a Cholesky factorization; the input is symmetrized after a
    relative-asymmetry guard of 1e-10. The condition of ``M + ridge*I`` is
    screened with the LAPACK 1-norm estimate from the factor, and the exact
    spectral :func:`condition_estimate` is computed only when the screen
    cannot rule out ``CONDITION_WARN_THRESHOLD``. Spectral values above the
    threshold emit an :class:`IllConditionedWarning`. A failed
    factorization, or one whose 1-norm estimate marks the matrix singular to
    working precision (reciprocal condition below machine epsilon), raises
    :class:`SingularMatrixError` carrying the spectral estimate.

    Parameters
    ----------
    M : (n, n) array_like
        Symmetric matrix.
    B : (n,) or (n, k) array_like
        Right-hand side.
    ridge : float, optional
        Finite, nonnegative diagonal loading added before factorization.
    name : str, optional
        Name used in error and warning messages.

    Returns
    -------
    ndarray
        Solution with the same shape as ``B``.
    """
    M = _as_float_array(M, name, ndim=2)
    B = _as_float_array(B, "right-hand side")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if B.ndim not in (1, 2) or B.shape[0] != M.shape[0]:
        raise ValueError(
            f"right-hand side shape {B.shape} does not match {name} of shape {M.shape}"
        )
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")
    if _symmetry_defect(M) > _SYMMETRY_RTOL:
        raise ValueError(f"{name} is not symmetric (relative asymmetry exceeds {_SYMMETRY_RTOL:g})")

    A = 0.5 * (M + M.T)
    if ridge:
        A = A + ridge * np.eye(A.shape[0])

    # The same LAPACK calls as scipy's cho_factor/cho_solve, so bitwise equal.
    factor, info = dpotrf(A, lower=1, clean=0)
    if info != 0:
        raise SingularMatrixError(
            name, condition_estimate(A), hint="increase the ridge or supply more samples"
        )
    rcond, info = dpocon(factor, np.abs(A).sum(axis=0).max(), uplo="L")
    if info == 0 and rcond < _SINGULAR_RCOND:
        raise SingularMatrixError(
            name, condition_estimate(A), hint="increase the ridge or supply more samples"
        )
    if not (info == 0 and rcond * CONDITION_WARN_THRESHOLD > _SCREEN_MARGIN):
        cond = condition_estimate(A)
        if cond > CONDITION_WARN_THRESHOLD:
            sink = _condition_sink.get()
            if sink is not None:
                sink.append((name, cond))
            warnings.warn(
                f"{name} condition estimate {cond:.3e} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
                "results may be inaccurate",
                IllConditionedWarning,
                stacklevel=2,
            )
    return dpotrs(factor, B, lower=1)[0]


def woodbury_invert(H, C, sigma2: float, ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Compute the estimator gain ``C H^T (H C H^T + sigma2 I)^{-1}`` two ways.

    Form (a) inverts the ``N_x x N_x`` innovation matrix directly; form (b)
    applies the matrix inversion lemma to get the algebraically equal
    ``(H^T H + sigma2 C^{-1})^{-1} H^T``, which inverts an ``N_y x N_y``
    matrix instead and is cheaper when ``N_y < N_x``.

    Parameters
    ----------
    H : (N_x, N_y) array_like
    C : (N_y, N_y) array_like
        Symmetric positive definite.
    sigma2 : float
        Nonnegative noise variance. With ``sigma2 == 0`` each form exists
        only where its inner matrix stays invertible.
    ridge : float, optional
        Diagonal loading forwarded to both inner solves.

    Returns
    -------
    (form_a_gain, form_b_gain) : pair of (N_y, N_x) ndarrays
    """
    H = _as_float_array(H, "H", ndim=2)
    C = _as_float_array(C, "C", ndim=2)
    if sigma2 < 0.0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if C.shape[0] != C.shape[1] or C.shape[0] != H.shape[1]:
        raise ValueError(f"shape mismatch: H is {H.shape}, C is {C.shape}")
    return (
        gain_direct(H, C, sigma2, ridge=ridge),
        gain_lemma(H, C, sigma2, ridge=ridge),
    )


def gain_direct(H, C, sigma2: float, ridge: float = 0.0) -> np.ndarray:
    """Gain via the N_x-sized inverse: ``C H^T (H C H^T + sigma2 I)^{-1}``."""
    H = np.asarray(H, dtype=float)
    C = np.asarray(C, dtype=float)
    HC = H @ C
    S = HC @ H.T + sigma2 * np.eye(H.shape[0])
    # C symmetric: C H^T S^{-1} = (S^{-1} H C)^T
    return spd_solve(S, HC, ridge=ridge, name="innovation covariance").T


def gain_lemma(H, C, sigma2: float, ridge: float = 0.0) -> np.ndarray:
    """Gain via the N_y-sized inverse: ``(H^T H + sigma2 C^{-1})^{-1} H^T``."""
    H = np.asarray(H, dtype=float)
    C = np.asarray(C, dtype=float)
    n_y = C.shape[0]
    C_inv = spd_solve(C, np.eye(n_y), ridge=ridge, name="prior covariance")
    M = H.T @ H + sigma2 * C_inv
    return spd_solve(M, H.T, ridge=ridge, name="lemma inner matrix")
