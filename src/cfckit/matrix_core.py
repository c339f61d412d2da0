"""Dense complex matrices: coercion, adjoint, norms and the one scale rule,
the element predicates' report and failures (eigen decides them), and
star-subalgebra machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalars import DEFAULT_TOL

# Floor for relative residuals so the zero matrix passes every predicate exactly.
EPS_FLOOR = 1e-300

# Where the Arnoldi chain of C*(a) breaks down: a residual this small relative
# to its candidate (the rounding of diagonal inputs, which commutes with a), or
# a unit direction whose commutator with a exceeds this times ||a||_F.  On
# random-unitary conjugates up to n = 64 the rounding direction at breakdown
# measured 0.017-0.32 ||a||_F, and true directions stay below 1e-6 ||a||_F up
# to about 45 distinct eigenvalues on a line or disk; past that the chain
# stops short, inside C*(a).
CHAIN_RESIDUAL_REL = 1e-12
CHAIN_COMMUTATOR_REL = 1e-6

# Subalgebra membership is decided within max(tol, MEMBERSHIP_FLOOR): an
# element built by the calculus or a basis built by a chain carries rounding
# relative to its norm, and a caller's tol may be 0.
MEMBERSHIP_FLOOR = 1e-8


class DimensionMismatch(ValueError):
    pass


class PredicateFailure(ValueError):
    """An element predicate does not hold for the input."""

    def __init__(self, report):
        self.report = report
        super().__init__(report)  # args == (report,): pickled as cls(report)

    def __str__(self) -> str:
        # formatted when shown: a junk plan keeps the failure and never shows it
        r = self.report
        return f"predicate '{r.predicate}' fails (residual {r.residual:.3e}, tol {r.tol_used:.3e})"


class NotNormal(PredicateFailure):
    pass


class NotSelfadjoint(PredicateFailure):
    pass


class NotInSubalgebra(ValueError):
    pass


def as_matrix(a) -> np.ndarray:
    """Coerce to a square array, rejecting non-finite entries: float64 for
    bool, integer and real floating input, so that real matrices stay in
    real arithmetic, and complex128 for anything else."""
    m = _as_square(a)
    _require_finite(m)
    return m


def _as_square(a) -> np.ndarray:
    """as_matrix without its finiteness pass: the dtype and shape rules."""
    m = np.asarray(a)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    return m


def _require_finite(m) -> None:
    """as_matrix's finiteness pass over a float64 or complex128 array."""
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError("matrix entries must be finite")


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zeros(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def fro_norm(a) -> float:
    """Frobenius norm; where the plain sum of squares overflows or underflows,
    c ||b||_F for a = c b, as _rescaled takes it of a cast to float64 or
    complex128."""
    a = np.asarray(a)
    nrm = math.sqrt(np.vdot(a, a).real)
    if 1e-150 <= nrm < math.inf or not np.count_nonzero(a):
        return nrm
    _, nrm, c = _rescaled(a.astype(np.result_type(a.dtype, np.float64), copy=False))
    return c * nrm


def operator_norm(a) -> float:
    """Largest singular value, c times that of b for a = c b as _rescaled
    takes it, from one singular-value solve of b (no vectors), so that the
    result overflows only where the norm itself lies beyond the float range.
    a is coerced as as_matrix does, its finiteness read off the scale."""
    _, b, _, c = _coerced_rescaled(a)
    return c * float(np.linalg.svd(b, compute_uv=False)[0])


def _coerced_rescaled(a):
    """(as_matrix(a), *_rescaled of it), with as_matrix's finiteness read off
    the norm _rescaled takes: that is finite iff every entry is, so the
    isfinite pass runs only where it is inf or NaN."""
    a = _as_square(a)
    b, scale, c = _rescaled(a)
    if not scale < math.inf:
        _require_finite(a)
    return a, b, scale, c


def _rescaled(a):
    """(b, ||b||_F, c) with a = c b, for a float64 or complex128 a: the one
    scale rule of the package (safe scaling, Anderson, ACM TOMS 44, 2017).
    b = a unless ||a||_F lies outside [1e-100, 1e100], where products of a
    leave the float range; then c = 2^(e-1) for max(|re a_ij|, |im a_ij|) =
    m 2^e, 1/2 <= m < 1, so that the entries of b are exact (bar those that
    fall below the normal range of b) with their largest part in [1, 2).  The
    parts are divided as reals: numpy divides a complex array by a float
    through its reciprocal, which overflows for a subnormal c, and |a_ij|
    itself overflows for entries such as 1.5e308 + 1.5e308j."""
    scale = math.sqrt(np.vdot(a, a).real)
    if 1e-100 <= scale <= 1e100:
        return a, scale, 1.0
    # ravel() makes the float64 view valid for any strides, a.T included
    parts = a.ravel().view(np.float64)
    peak = float(np.abs(parts).max())
    if not 0.0 < peak < math.inf:
        return a, scale, 1.0
    c = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    b = (parts / c).view(a.dtype).reshape(a.shape)
    return b, fro_norm(b), c


@dataclass(slots=True)
class PredicateReport:
    predicate: str
    holds: bool
    residual: float
    tol_used: float


@dataclass(frozen=True, eq=False)
class StarSubalgebra:
    """A star- and multiplication-closed subspace of M_n, carried by an
    orthonormal (Frobenius) basis, kept as the rows of one (dim, n^2) array.
    `unital` records whether I was adjoined.
    """

    ambient_dim: int
    rows: np.ndarray
    unital: bool

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> np.ndarray:
        """The basis elements, a (dim, n, n) view of the rows."""
        return self.rows.reshape(self.dim, self.ambient_dim, self.ambient_dim)

    def project(self, x) -> np.ndarray:
        """sum of trace(b* x) b over the basis elements b, the coordinates
        taken as conj(rows conj(x))."""
        n = self.ambient_dim
        return (np.conj(self.rows @ np.conj(np.ravel(x))) @ self.rows).reshape(n, n)

    def contains(self, x, tol: float = DEFAULT_TOL):
        """(membership, relative projection residual), taken of x rescaled
        by _rescaled: x is in the subalgebra iff x / c is."""
        _, x, scale, _ = _coerced_rescaled(x)
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"element is {x.shape[0]}x{x.shape[0]}, subalgebra ambient "
                f"dimension is {self.ambient_dim}"
            )
        residual = fro_norm(x - self.project(x)) / max(scale, EPS_FLOOR)
        return residual <= tol, residual

    def require(self, x, tol: float = DEFAULT_TOL, failure: str = "element not in subalgebra"):
        """NotInSubalgebra(failure) unless x lies in the subalgebra within
        max(tol, MEMBERSHIP_FLOOR)."""
        inside, residual = self.contains(x, max(tol, MEMBERSHIP_FLOOR))
        if not inside:
            raise NotInSubalgebra(f"{failure} (residual {residual:.3e})")


def _reorthogonalized(cand, q) -> np.ndarray:
    """cand, flattened, minus its components along the orthonormal rows of
    q: Gram-Schmidt run twice, which keeps the result orthogonal to q to
    working precision even when most of cand lies in its span.  The
    coefficients q^* r are taken as conj(q conj(r)), so no row of q is
    conjugated.  Against no rows the passes are skipped: they would
    subtract the zero vector, which changes no bit."""
    r = cand.astype(np.complex128).ravel()
    for _ in range(2 if len(q) else 0):
        r -= np.conj(q @ np.conj(r)) @ q
    return r


def _elemental_chain(a, unital: bool) -> StarSubalgebra:
    """eigen.elemental_subalgebra's chain, for a coerced a whose normality its
    caller has decided, run on b = a / c as _rescaled takes it: C*(a) =
    C*(b), and the powers of b stay in the float range."""
    a, scale, _ = _rescaled(a)
    n = a.shape[0]
    q = np.empty((min(n, 4), n * n), dtype=np.complex128)
    k = 0
    cand = identity(n) if unital else a
    while k < n:
        r = _reorthogonalized(cand, q[:k])
        nrm = fro_norm(r)
        if nrm <= CHAIN_RESIDUAL_REL * fro_norm(cand):
            break
        if k == len(q):
            grown = np.empty((min(2 * k, n), n * n), dtype=np.complex128)
            grown[:k] = q
            q = grown
        np.divide(r, nrm, out=q[k])
        qk = q[k].reshape(n, n)
        cand = qk @ a
        # I / sqrt(n) commutes with a exactly: its two products with a round alike
        if (k or not unital) and fro_norm(cand - a @ qk) > CHAIN_COMMUTATOR_REL * scale:
            break
        k += 1
    return StarSubalgebra(ambient_dim=n, rows=q[:k].copy(), unital=unital)  # frees the spare rows


def subalgebra_from_matrices(mats, unital: bool = False, tol: float = DEFAULT_TOL) -> StarSubalgebra:
    """Orthonormalize an explicit spanning set (CLI basis files)."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("subalgebra basis must contain at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != n:
            raise DimensionMismatch("basis matrices have mixed dimensions")
    rank_tol = max(tol, 1e-12) * max(max(fro_norm(m) for m in mats), EPS_FLOOR)
    q = np.empty((len(mats), n * n), dtype=np.complex128)
    k = 0
    for m in mats:
        r = _reorthogonalized(m, q[:k])
        nrm = fro_norm(r)
        if nrm > rank_tol:
            np.divide(r, nrm, out=q[k])
            k += 1
    return StarSubalgebra(ambient_dim=n, rows=q[:k], unital=unital)
