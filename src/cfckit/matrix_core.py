"""Dense complex matrices: adjoint, operator norm, the three element
predicates (normal / selfadjoint / nonnegative) and star-subalgebra machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Frobenius norm, recomputed on a / max|a_ij| when the plain sum of
    squares overflows or underflows."""
    a = np.asarray(a)
    nrm = math.sqrt(np.vdot(a, a).real)
    if 1e-150 <= nrm < math.inf or not np.count_nonzero(a):
        return nrm
    mag = np.abs(a)
    peak = float(np.max(mag))
    if not math.isfinite(peak):
        return nrm
    b = mag / peak  # real: a complex division by a subnormal peak overflows
    return peak * math.sqrt(np.vdot(b, b))


def operator_norm(a) -> float:
    """Largest singular value, via the Hermitian eigenproblem for a* a, taken
    of a rescaled as _rescaled says, so that a* a stays in the float range."""
    a, _, c = _rescaled(as_matrix(a))
    gram = adjoint(a) @ a
    gram = (gram + adjoint(gram)) / 2
    w = np.linalg.eigvalsh(gram)
    return c * float(np.sqrt(max(w[-1], 0.0)))


def _rescaled(a):
    """(b, ||b||_F, c) with a = c b, for a coerced a: the one scale rule of the
    package (safe scaling, Anderson, ACM TOMS 44, 2017).  b = a unless ||a||_F
    lies outside [1e-100, 1e100], where products of a leave the float range;
    then c = ||a||_F, or max(|re a_ij|, |im a_ij|) if ||a||_F overflows."""
    scale = fro_norm(a)
    if scale == 0.0 or 1e-100 <= scale <= 1e100:
        return a, scale, 1.0
    c = scale if scale < math.inf else float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    b = a / c
    return b, fro_norm(b), c


@dataclass(frozen=True)
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


def nonneg_report(sa: PredicateReport, lam_min: float, scale: float) -> PredicateReport:
    """The nonneg rule, from the selfadjoint report of a, the least
    eigenvalue of its Hermitian part and ||a||_F."""
    residual = max(sa.residual, max(-lam_min, 0.0) / max(scale, EPS_FLOOR))
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
    lam_min = np.linalg.eigvalsh((a + ah) / 2)[0] if sa.holds else 0.0
    return nonneg_report(sa, float(lam_min), scale)


def is_star_normal(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Does a commute with its adjoint?  Residual ||a*a - aa*||_F / ||a||_F^2."""
    return predicate_for_ring(a, ScalarRing.COMPLEX, tol)


def is_selfadjoint(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Is a = a*?  Residual ||a - a*||_F / ||a||_F."""
    return predicate_for_ring(a, ScalarRing.REAL, tol)


def is_nonneg(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Selfadjoint with spectrum in [0, inf); equivalent to a = b* b in M_n."""
    return predicate_for_ring(a, ScalarRing.NNREAL, tol)


@dataclass(frozen=True)
class StarSubalgebra:
    """A star- and multiplication-closed subspace of M_n, carried by an
    orthonormal (Frobenius) basis.  `unital` records whether I was adjoined.
    """

    ambient_dim: int
    basis: tuple
    unital: bool

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _rows(self) -> np.ndarray:
        """The basis as the rows of one (dim, n^2) array."""
        return np.array(self.basis, dtype=np.complex128).reshape(self.dim, self.ambient_dim ** 2)

    def coordinates(self, x) -> np.ndarray:
        """trace(b* x) for each basis element b, taken as conj(rows conj(x))."""
        return np.conj(self._rows @ np.conj(np.ravel(x)))

    def project(self, x) -> np.ndarray:
        n = self.ambient_dim
        return (self.coordinates(x) @ self._rows).reshape(n, n)

    def contains(self, x, tol: float = DEFAULT_TOL):
        """(membership, relative projection residual)."""
        x = as_matrix(x)
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"element is {x.shape[0]}x{x.shape[0]}, subalgebra ambient "
                f"dimension is {self.ambient_dim}"
            )
        residual = fro_norm(x - self.project(x)) / max(fro_norm(x), EPS_FLOOR)
        return residual <= tol, residual


def _reorthogonalized(cand, q) -> np.ndarray:
    """cand, flattened, minus its components along the orthonormal rows of
    q: Gram-Schmidt run twice, which keeps the result orthogonal to q to
    working precision even when most of cand lies in its span.  The
    coefficients q^* r are taken as conj(q conj(r)), so no row of q is
    conjugated."""
    r = cand.astype(np.complex128).ravel()
    for _ in range(2):
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
    scale = fro_norm(a)
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
    basis = q[:k].reshape(k, n, n).copy()  # frees the spare rows with q
    return StarSubalgebra(ambient_dim=n, basis=tuple(basis), unital=unital)


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
    return StarSubalgebra(ambient_dim=n, basis=tuple(q[:k].reshape(k, n, n)), unital=unital)
