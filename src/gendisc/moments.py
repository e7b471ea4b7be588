"""Sample moments and numerically safe symmetric-positive-definite linear algebra.

Every matrix inverse in the estimator formulas is routed through one Cholesky
routine, public as :func:`spd_factor` (and :func:`spd_solve`, which factors
and solves once), which screens the condition number from the factor and
fails loudly (no silent pseudo-inverses) when the matrix is not positive
definite after optional ridge regularization. The public functions check
their inputs, then call the same unchecked routine the sweep calls.
"""

from __future__ import annotations

import warnings
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


class condition_events:
    """Collect (name, condition estimate) pairs for ill-conditioned solves.

    ``with condition_events() as events:`` records in the list ``events``
    every :func:`spd_factor` call in the block whose condition estimate
    exceeds ``CONDITION_WARN_THRESHOLD``; the matching
    :class:`IllConditionedWarning` is still emitted. A nested block's events
    are also added to the enclosing block's list when it exits.
    """

    def __enter__(self) -> list[tuple[str, float]]:
        self._events: list[tuple[str, float]] = []
        self._token = _condition_sink.set(self._events)
        return self._events

    def __exit__(self, *exc_info) -> None:
        _condition_sink.reset(self._token)
        outer = _condition_sink.get()
        if outer is not None:
            outer.extend(self._events)


def report_condition(name: str, cond: float) -> None:
    """Record an ill-conditioning event and emit its :class:`IllConditionedWarning`.

    :func:`spd_factor` calls it for a matrix whose spectral condition
    estimate ``cond`` exceeds ``CONDITION_WARN_THRESHOLD``; a caller that
    reuses a factor, or a result solved with one, calls it again for each
    use that should count as a solve of its own.
    """
    sink = _condition_sink.get()
    if sink is not None:
        sink.append((name, cond))
    warnings.warn(
        f"{name} condition estimate {cond:.3e} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
        "results may be inaccurate",
        IllConditionedWarning,
        stacklevel=3,
    )


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


class SpdFactor:
    """Lower Cholesky factor of a symmetric positive definite ``M + ridge*I``.

    Made by :func:`spd_factor`, which has already screened the matrix;
    :meth:`solve` is one LAPACK ``dpotrs`` per call.
    """

    def __init__(self, lower: np.ndarray, name: str):
        self.lower = lower
        self.name = name

    def solve(self, B) -> np.ndarray:
        """Solve ``(M + ridge*I) X = B``; ``B`` is ``(n,)`` or ``(n, k)``, as is the result."""
        B = _as_float_array(B, "right-hand side")
        n = self.lower.shape[0]
        if B.ndim not in (1, 2) or B.shape[0] != n:
            raise ValueError(
                f"right-hand side shape {B.shape} does not match {self.name} of shape {(n, n)}"
            )
        return _solve(self.lower, B)


def _check_ridge(ridge: float) -> None:
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")


def spd_factor(M, ridge: float = 0.0, name: str = "matrix") -> SpdFactor:
    """Cholesky factor of ``M + ridge*I`` for symmetric positive definite ``M``.

    A matrix equal to its transpose bit for bit (every ``F @ F.T`` product)
    is factored as given; any other is checked against a relative-asymmetry
    guard of 1e-10 and symmetrized. The condition of ``M + ridge*I`` is
    screened with the LAPACK 1-norm estimate from the factor, and the exact
    spectral :func:`condition_estimate` is computed only when the screen
    cannot rule out ``CONDITION_WARN_THRESHOLD``. Spectral values above the
    threshold emit an :class:`IllConditionedWarning` (see
    :func:`report_condition`). A failed factorization, or one whose 1-norm
    estimate marks the matrix singular to working precision (reciprocal
    condition below machine epsilon), raises :class:`SingularMatrixError`
    carrying the spectral estimate. Every check runs once per factor,
    however many right-hand sides it then solves.

    Parameters
    ----------
    M : (n, n) array_like
        Symmetric matrix.
    ridge : float, optional
        Finite, nonnegative diagonal loading added before factorization.
    name : str, optional
        Name used in error and warning messages.
    """
    M = _as_float_array(M, name, ndim=2)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    _check_ridge(ridge)
    return SpdFactor(_factor(M, ridge, name), name)


def _factor(M: np.ndarray, ridge: float, name: str) -> np.ndarray:
    """The lower factor of :func:`spd_factor`, with all its checks but those of its inputs."""
    if M.tobytes() == M.T.tobytes():
        A = M
    elif _symmetry_defect(M) > _SYMMETRY_RTOL:
        raise ValueError(f"{name} is not symmetric (relative asymmetry exceeds {_SYMMETRY_RTOL:g})")
    else:
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
            report_condition(name, cond)
    return factor


def _solve(lower: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve with a lower factor of :func:`_factor`, as :meth:`SpdFactor.solve` does."""
    return dpotrs(lower, B, lower=1)[0]


def spd_solve(M, B, ridge: float = 0.0, name: str = "matrix") -> np.ndarray:
    """Solve ``(M + ridge*I) X = B`` for symmetric positive definite ``M``.

    ``spd_factor(M, ridge, name).solve(B)``: see :func:`spd_factor` for the
    checks, warnings and errors. ``B`` is ``(n,)`` or ``(n, k)``, and the
    solution has the same shape.
    """
    return spd_factor(M, ridge, name).solve(B)


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
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2}")
    if C.shape[0] != C.shape[1] or C.shape[0] != H.shape[1]:
        raise ValueError(f"shape mismatch: H is {H.shape}, C is {C.shape}")
    _check_ridge(ridge)
    return (
        gain_direct(H, C, sigma2, ridge=ridge),
        gain_lemma(H, C, sigma2, ridge=ridge),
    )


# The gains take float arrays that their callers checked or built, and check nothing.


def gain_direct(H, C, sigma2: float, ridge: float = 0.0) -> np.ndarray:
    """Gain via the N_x-sized inverse: ``C H^T (H C H^T + sigma2 I)^{-1}``."""
    HC = H @ C
    S = HC @ H.T + sigma2 * np.eye(H.shape[0])
    # C symmetric: C H^T S^{-1} = (S^{-1} H C)^T
    return _solve(_factor(S, ridge, "innovation covariance"), HC).T


def gain_lemma(H, C, sigma2: float, ridge: float = 0.0) -> np.ndarray:
    """Gain via the N_y-sized inverse: ``(H^T H + sigma2 C^{-1})^{-1} H^T``."""
    C_inv = _solve(_factor(C, ridge, "prior covariance"), np.eye(C.shape[0]))
    M = H.T @ H + sigma2 * C_inv
    return _solve(_factor(M, ridge, "lemma inner matrix"), H.T)
