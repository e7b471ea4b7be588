"""Sample moments and numerically safe symmetric-positive-definite linear algebra.

Every matrix inverse in the estimator formulas is routed through one Cholesky
routine, public as :func:`spd_solve`, which screens the condition number from
the factor, or certifies it from an eigenvalue floor that the caller proves,
and fails loudly (no silent pseudo-inverses) when the matrix is not positive
definite after optional ridge regularization. The public functions
check their inputs, then call the same unchecked routine the sweep calls.

Every training set, drawn or given as pairs, is reduced to its covariances
alike: its centred columns scaled by ``1/sqrt(n)`` form a root ``F``, targets
first, and the three blocks are split from the one symmetric product
``F F^T`` (:func:`_covariances`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np


def _scipy_extension(name: str, directory: str):
    """scipy.linalg's compiled module ``name``, or ``None`` when ``directory`` lacks its file.

    The module already imported under ``scipy.linalg.<name>`` is reused;
    otherwise the file is loaded from ``directory`` under that name, so that
    a later ``import scipy.linalg`` finds and shares it.
    """
    qualname = f"scipy.linalg.{name}"
    module = sys.modules.get(qualname)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(qualname, [directory])
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualname] = module
    return module


def _linalg_routines(directory: str) -> tuple:
    """scipy's LAPACK ``dpotrf``, ``dpotrs``, ``dpocon`` and BLAS ``dnrm2``.

    They are bound from scipy.linalg's compiled ``_flapack`` and ``_fblas``
    modules in ``directory``, without importing ``scipy.linalg``: that
    import also loads array-API, f2py, testing and masked-array modules
    that no routine here uses, and more than doubles the time to import
    gendisc. Where either file is missing they come from
    ``scipy.linalg.lapack`` and ``scipy.linalg.blas``; either way they are
    scipy's own objects. Every scipy release this package supports ships
    both files, so the fallback only guards against scipy renaming or
    moving these private modules.
    """
    flapack = _scipy_extension("_flapack", directory)
    fblas = _scipy_extension("_fblas", directory)
    if flapack is None or fblas is None:
        from scipy.linalg.blas import dnrm2
        from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

        return dpotrf, dpotrs, dpocon, dnrm2
    return flapack.dpotrf, flapack.dpotrs, flapack.dpocon, fblas.dnrm2


dpotrf, dpotrs, dpocon, dnrm2 = _linalg_routines(
    importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
)

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

# A factor is certified without the screen when a caller's eigenvalue floor
# proves n * cond_2 at most _CERTIFIED_COND: the screen's reciprocal estimate
# is then at least its inverse, ten times the bar of its skip. Floors outside
# _CERTIFIED_FLOORS keep the screen: there the estimate's inverse vectors, up
# to 2 sqrt(n) / floor in size, could overflow LAPACK's scaling and read 0.
_CERTIFIED_COND = CONDITION_WARN_THRESHOLD / _SCREEN_MARGIN / 10.0
_CERTIFIED_FLOORS = (1e-280, 1e280)


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
    every Cholesky factorization in the block (see :func:`spd_solve`) whose
    condition estimate exceeds ``CONDITION_WARN_THRESHOLD``; the matching
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

    Each Cholesky factorization (see :func:`spd_solve`) calls it for a
    matrix whose spectral condition estimate ``cond`` exceeds
    ``CONDITION_WARN_THRESHOLD``; a caller that reuses a factor, or a result
    solved with one, calls it again for each use that should count as a
    solve of its own.
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


def _as_float_array(a, name: str, ndim: int | None = None, finite: bool = True) -> np.ndarray:
    """``a`` as a float array, or a ``ValueError`` naming ``name`` for anything malformed.

    Non-finite entries are malformed unless ``finite`` is false.
    """
    try:
        arr = np.asarray(a)
        if arr.dtype.kind == "c":  # a cast to float would drop the imaginary part
            raise TypeError(f"dtype {arr.dtype} is complex")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} is not an array of real numbers ({exc})") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _freeze(obj, **ndims: int | None) -> list[np.ndarray]:
    """Check the named array fields of ``obj`` and store a read-only float copy of each.

    Each field is read in keyword order by :func:`_as_float_array` at its
    ``ndim`` (``None`` for any), so a malformed field raises the
    ``ValueError`` that names it, and its frozen copy replaces it on the
    frozen dataclass ``obj``. Returns the copies, in the same order.
    """
    for name, ndim in ndims.items():
        object.__setattr__(obj, name, _frozen(_as_float_array(getattr(obj, name), name, ndim)))
    return [getattr(obj, name) for name in ndims]


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
        xs, ys = (a[:, None] if a.ndim == 1 else a for a in _freeze(self, xs=None, ys=None))
        if xs.ndim != 2 or ys.ndim != 2:
            raise ValueError("xs and ys must be 1- or 2-dimensional")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"xs and ys must pair up: got {xs.shape[0]} inputs and {ys.shape[0]} targets"
            )
        if xs.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if xs.shape[1] == 0 or ys.shape[1] == 0:
            raise ValueError(f"xs and ys must have at least one column, got {xs.shape}, {ys.shape}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

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
        x_bar, y_bar, C_yx, C_yy, C_xx = _freeze(self, x_bar=1, y_bar=1, C_yx=2, C_yy=2, C_xx=2)
        n_x, n_y = x_bar.shape[0], y_bar.shape[0]
        if C_yx.shape != (n_y, n_x) or C_yy.shape != (n_y, n_y) or C_xx.shape != (n_x, n_x):
            raise ValueError(
                f"inconsistent moment shapes: x_bar {x_bar.shape}, y_bar {y_bar.shape}, "
                f"C_yx {C_yx.shape}, C_yy {C_yy.shape}, C_xx {C_xx.shape}"
            )
        if self.n_t < 1:
            raise ValueError(f"n_t must be at least 1, got {self.n_t}")
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


def _centred(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column means of the rows ``a`` and their root: the centred columns over sqrt(n).

    The root has one row per column of ``a``. Scaled before any product, the
    roots of a training set give its 1/n scatter through :func:`_covariances`
    without the n-fold sum that overflows where the scatter itself is finite.
    """
    mean = a.mean(axis=0)
    root = np.subtract(a.T, mean[:, None], order="C")
    root /= np.sqrt(a.shape[0])
    return mean, root


def _covariances(F: np.ndarray, n_y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``C_yx, C_yy, C_xx``: the blocks of ``F F^T`` for the root ``F``, target rows first.

    The one reduction of a training set to its covariances. ``F F^T`` is one
    symmetric product (BLAS ``syrk``), whose blocks read the same bits under
    one and two OpenBLAS threads at ``n`` up to 5000 (a general product for
    the cross block did not), and, for a root of a given shape, the target
    block's bits do not depend on the input rows.
    """
    C = F @ F.T
    return C[:n_y, n_y:], C[:n_y, :n_y], C[n_y:, n_y:]


def compute_moments(data: Dataset) -> SampleMoments:
    """Compute sample means and covariances of a paired dataset.

    Covariances use the 1/n_t normalization (not the unbiased 1/(n_t-1)),
    matching the estimator formulas built on top of them. The centred
    targets and inputs are scaled by 1/sqrt(n_t) (:func:`_centred`) and
    stacked, targets first, into the root whose one symmetric product
    :func:`_covariances` splits into the three blocks, the reduction of every
    training draw of :func:`~gendisc.synth.draw_training`. So a covariance
    overflows only where its value is out of the float range, not where its
    n_t-fold sum would be.

    Parameters
    ----------
    data : Dataset
        Paired samples; must contain at least one pair (enforced by the
        Dataset constructor).

    Returns
    -------
    SampleMoments
    """
    y_bar, R_y = _centred(data.ys)
    x_bar, R_x = _centred(data.xs)
    blocks = _covariances(np.vstack((R_y, R_x)), data.n_y)
    return SampleMoments(x_bar, y_bar, *blocks, n_t=data.n_t)


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
    i.e. when the matrix has no SPD factorization, and when an entry is not
    finite, so that the matrix has no eigenvalues to read. A matrix that is
    not real, square, 2-dimensional and nonempty raises ``ValueError``.
    """
    M = _as_float_array(M, "matrix", finite=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square and 2-dimensional, got shape {M.shape}")
    _check_nonempty(M, "matrix")
    if not np.isfinite(M).all():
        return float("inf")
    evals = np.linalg.eigvalsh(0.5 * M + 0.5 * M.T)  # halved first, so no overflow near 1e308
    return float(evals[-1] / evals[0]) if evals[0] > 0.0 else float("inf")


def _check_nonempty(M: np.ndarray, name: str) -> None:
    if M.size == 0:
        raise ValueError(f"{name} is empty, got shape {M.shape}")


def _check_ridge(ridge: float) -> None:
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")


def _factor(M: np.ndarray, ridge: float, name: str, floor: float = 0.0) -> np.ndarray:
    """The lower factor of :func:`spd_solve`, with all its checks but those of its inputs.

    ``floor`` is a lower bound on the smallest eigenvalue of ``M + ridge*I``
    that the caller can prove, such as the noise variance loaded on a
    positive semidefinite matrix (0: unknown). When it certifies the
    factor, that is ``n**2 * max(diag) <= 1e10 * floor`` with ``floor`` in
    ``[1e-280, 1e280]``, the factor is returned without the LAPACK 1-norm
    screen. That bound gives lambda_max / lambda_min <= n * max(diag) /
    floor, so n * cond_2 <= 1e10, and the screen's reciprocal estimate,
    which is at least 1 / (n * cond_2), would pass both its singularity and
    its warning bars: the screen could only have returned the same factor
    with no warning. A floor that overstates the smallest eigenvalue by a
    factor below 10, as rounding in a computed ``X + floor*I`` does, is
    still covered by the screen's margin.
    """
    if M.tobytes() == M.T.tobytes():
        A = M
    elif _symmetry_defect(M) > _SYMMETRY_RTOL:
        raise ValueError(f"{name} is not symmetric (relative asymmetry exceeds {_SYMMETRY_RTOL:g})")
    else:
        A = 0.5 * M + 0.5 * M.T  # halved first, as condition_estimate does
    if ridge:
        A = A + ridge * np.eye(A.shape[0])

    # The same LAPACK calls as scipy's cho_factor/cho_solve, so bitwise equal.
    factor, info = dpotrf(A, lower=1, clean=0)
    if info != 0:
        raise SingularMatrixError(
            name, condition_estimate(A), hint="increase the ridge or supply more samples"
        )
    n = A.shape[0]
    low, high = _CERTIFIED_FLOORS
    if low <= floor <= high and n * n * float(A.diagonal().max()) <= _CERTIFIED_COND * floor:
        return factor  # a Python float product: an overflow reads inf and fails
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
    """Solve with a lower factor of :func:`_factor`: one LAPACK ``dpotrs``."""
    return dpotrs(lower, B, lower=1)[0]


def spd_solve(M, B, ridge: float = 0.0, name: str = "matrix") -> np.ndarray:
    """Solve ``(M + ridge*I) X = B`` for symmetric positive definite ``M``.

    ``M`` is ``(n, n)`` and ``B`` is ``(n,)`` or ``(n, k)``, and the solution
    has the shape of ``B``; ``ridge`` is a finite, nonnegative diagonal
    loading and ``name`` names ``M`` in errors and warnings. A matrix equal
    to its transpose bit for bit (every ``F @ F.T`` product) is factored as
    given; any other is checked against a relative-asymmetry guard of 1e-10
    and symmetrized. The condition of ``M + ridge*I`` is screened with the
    LAPACK 1-norm estimate from its Cholesky factor, and the exact spectral
    :func:`condition_estimate` is computed only when the screen cannot rule
    out ``CONDITION_WARN_THRESHOLD``. Spectral values above the threshold
    emit an :class:`IllConditionedWarning` (see :func:`report_condition`). A
    failed factorization, or one whose 1-norm estimate marks the matrix
    singular to working precision (reciprocal condition below machine
    epsilon), raises :class:`SingularMatrixError` carrying the spectral
    estimate. An empty ``M`` raises ``ValueError``.

    This function screens every factor. The estimators' noise-loaded
    matrices, the innovation covariance of :func:`gain_direct` and the
    oracle's population input covariance, skip the screen where their noise
    variance proves that it would pass them without a warning, so their
    outcomes are the same.
    """
    M = _as_float_array(M, name, ndim=2)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    _check_nonempty(M, name)
    _check_ridge(ridge)
    B = _as_float_array(B, "right-hand side")
    if B.ndim not in (1, 2) or B.shape[0] != M.shape[0]:
        raise ValueError(
            f"right-hand side shape {B.shape} does not match {name} of shape {M.shape}"
        )
    return _solve(_factor(M, ridge, name), B)


def woodbury_invert(H, C, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Compute the estimator gain ``C H^T (H C H^T + sigma2 I)^{-1}`` two ways.

    Form (a) inverts the ``N_x x N_x`` innovation matrix directly; form (b)
    applies the matrix inversion lemma to get the algebraically equal
    ``(H^T H + sigma2 C^{-1})^{-1} H^T``, which inverts an ``N_y x N_y``
    matrix instead and is cheaper when ``N_y < N_x``. The generative
    estimator uses form (b) when ``N_y <= N_x`` and form (a) otherwise.

    Parameters
    ----------
    H : (N_x, N_y) array_like
        Nonempty.
    C : (N_y, N_y) array_like
        Symmetric positive definite.
    sigma2 : float
        Nonnegative noise variance. With ``sigma2 == 0`` each form exists
        only where its inner matrix stays invertible.

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
    _check_nonempty(H, "H")
    return gain_direct(H, C, sigma2), gain_lemma(H, C, sigma2)


# The gains take float arrays that their callers checked or built, and check nothing.


def gain_direct(H, C, sigma2: float) -> np.ndarray:
    """Gain via the N_x-sized inverse: ``C H^T (H C H^T + sigma2 I)^{-1}``.

    The innovation covariance is loaded with ``sigma2`` on its diagonal and
    symmetrized as :func:`_factor` would symmetrize it (halving is exact, so
    a product already equal to its transpose is unchanged), and its factor
    is certified from ``sigma2``: with ``H C H^T`` positive semidefinite,
    ``sigma2`` bounds its smallest eigenvalue, and where that bound alone
    rules out ``CONDITION_WARN_THRESHOLD`` the condition screen, which could
    only pass it without a warning, is skipped. With ``sigma2 == 0``, as in
    the high-SNR rules, the factor is screened in full.
    """
    HC = H @ C
    S = HC @ H.T
    S.flat[:: S.shape[0] + 1] += sigma2
    S = 0.5 * S + 0.5 * S.T  # as _factor would symmetrize it, without its guard
    # C symmetric: C H^T S^{-1} = (S^{-1} H C)^T
    return _solve(_factor(S, 0.0, "innovation covariance", floor=sigma2), HC).T


def gain_lemma(H, C, sigma2: float) -> np.ndarray:
    """Gain via the N_y-sized inverse: ``(H^T H + sigma2 C^{-1})^{-1} H^T``."""
    C_inv = _solve(_factor(C, 0.0, "prior covariance"), np.eye(C.shape[0]))
    M = H.T @ H + sigma2 * C_inv
    return _solve(_factor(M, 0.0, "lemma inner matrix"), H.T)
