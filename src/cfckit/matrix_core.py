"""Dense complex matrices: adjoint, operator norm, the three element
predicates (normal / selfadjoint / nonnegative) and star-subalgebra machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalars import DEFAULT_TOL, ScalarRing

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
        super().__init__(
            f"predicate '{report.predicate}' fails (residual {report.residual:.3e}, "
            f"tol {report.tol_used:.3e})"
        )


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
    m = np.asarray(a)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError("matrix entries must be finite")
    return m


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
    """Largest singular value, via the Hermitian eigenproblem for a* a, taken
    of a rescaled as _rescaled says, so that a* a stays in the float range."""
    a, _, c = _rescaled(as_matrix(a))
    gram = adjoint(a) @ a
    gram = (gram + adjoint(gram)) / 2
    w = np.linalg.eigvalsh(gram)
    return c * float(np.sqrt(max(w[-1], 0.0)))


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


def _predicate_report(a, ah, s, tol: float, scale: float) -> PredicateReport:
    """The selfadjoint report of a from its adjoint ah when s is None, else
    the normal one from s = a + a* too; scale = ||a||_F, in the range
    _rescaled keeps.  With a = h + i k, a*a - aa* = 2i (hk - (hk)*) and
    s (a - a*) = 4i hk, so one product p decides normality: 2 ||hk - (hk)*||_F
    = ||p + p*||_F / 2.  a - a* is freed before p + p* is formed."""
    if s is None:
        residual = fro_norm(a - ah) / max(scale, EPS_FLOOR)
        return PredicateReport("selfadjoint", residual <= tol, residual, tol)
    p = s @ (a - ah)
    p += p.conj().T
    residual = fro_norm(p) / 2 / max(scale ** 2, EPS_FLOOR)
    return PredicateReport("normal", residual <= tol, residual, tol)


def nonneg_report(sa: PredicateReport, lam, scale: float) -> PredicateReport:
    """The nonneg rule, from the selfadjoint report of a, the ascending
    eigenvalues lam of its Hermitian part h and ||a||_F: the selfadjoint
    residual and the backward error beta_+ = hypot(||a - a*||_F / 2,
    ||min(lam, 0)||_2) / ||a||_F of u diag(max(lam, 0)) u*, which drops a's
    skew part and clamps h's negative eigenvalues, both within tol."""
    residual = sa.residual
    if lam[0] < 0:
        negative = fro_norm(lam[lam < 0]) / max(scale, EPS_FLOOR)
        residual = max(residual, math.hypot(residual / 2, negative))
    return PredicateReport("nonneg", residual <= sa.tol_used, residual, sa.tol_used)


def predicate_for_ring(a, ring: ScalarRing, tol: float = DEFAULT_TOL) -> PredicateReport:
    """The element predicate a scalar ring demands of its calculus inputs,
    taken of a rescaled by _rescaled."""
    a, scale, _ = _rescaled(as_matrix(a))
    ah = adjoint(a)
    if ring is ScalarRing.COMPLEX:
        return _predicate_report(a, ah, a + ah, tol, scale)
    sa = _predicate_report(a, ah, None, tol, scale)
    if ring is ScalarRing.REAL:
        return sa
    lam = np.linalg.eigvalsh((a + ah) / 2) if sa.holds else np.zeros(1)
    return nonneg_report(sa, lam, scale)


def is_star_normal(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Does a commute with its adjoint?  Residual ||a*a - aa*||_F / ||a||_F^2.
    A plan over C asks more: its backward error must be within tol too
    (eigen._decompose)."""
    return predicate_for_ring(a, ScalarRing.COMPLEX, tol)


def is_selfadjoint(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Is a = a*?  Residual ||a - a*||_F / ||a||_F."""
    return predicate_for_ring(a, ScalarRing.REAL, tol)


def is_nonneg(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Selfadjoint with spectrum in [0, inf); equivalent to a = b* b in M_n."""
    return predicate_for_ring(a, ScalarRing.NNREAL, tol)


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
        x, scale, _ = _rescaled(as_matrix(x))
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


def elemental_subalgebra(a, unital: bool = True, tol: float = DEFAULT_TOL) -> StarSubalgebra:
    """Orthonormal basis of the star-subalgebra generated by a normal element.

    For normal a, C*(a) is the polynomials in a (with p(0) = 0 when not
    unital), so a* is never needed: one Arnoldi chain x_0 = I (or a),
    x_{k+1} = q_k a, each step orthogonalised twice, spans it.  The chain
    ends at n elements, at a residual of rounding size, or at a unit
    direction that does not commute with a, which is rounding noise.  For k
    distinct eigenvalues the unital dimension is k; the non-unital one drops
    to k - 1 when 0 is an eigenvalue.  The basis is built in place, one row
    of n^2 entries per element, in an array whose rows double as needed.
    """
    a = as_matrix(a)
    report = is_star_normal(a, tol)
    if not report.holds:
        raise NotNormal(report)
    return _elemental_chain(a, unital)


def _elemental_chain(a, unital: bool) -> StarSubalgebra:
    """elemental_subalgebra's chain, for a coerced a whose normality its
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
        if fro_norm(cand - a @ qk) > CHAIN_COMMUTATOR_REL * scale:
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
