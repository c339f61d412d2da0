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
    """Coerce to a square complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zeros(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def frobenius_inner(x, y) -> complex:
    """trace(x* y), the Frobenius inner product."""
    return complex(np.vdot(x, y))


def fro_norm(a) -> float:
    """Frobenius norm, recomputed on a / max|a_ij| when the plain sum of
    squares overflows or underflows."""
    a = np.asarray(a)
    nrm = math.sqrt(np.vdot(a, a).real)
    if 1e-150 <= nrm < math.inf:
        return nrm
    peak = float(np.max(np.abs(a), initial=0.0))
    if peak == 0.0 or not math.isfinite(peak):
        return nrm
    b = a / peak
    return peak * math.sqrt(np.vdot(b, b).real)


def operator_norm(a) -> float:
    """Largest singular value, via the Hermitian eigenproblem for a* a."""
    a = as_matrix(a)
    gram = adjoint(a) @ a
    gram = (gram + adjoint(gram)) / 2
    w = np.linalg.eigvalsh(gram)
    return float(np.sqrt(max(w[-1], 0.0)))


@dataclass(frozen=True)
class PredicateReport:
    predicate: str
    holds: bool
    residual: float
    tol_used: float


def is_star_normal(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Does a commute with its adjoint?  Residual relative to ||a||^2,
    taken of a / max|a_ij| when the products would overflow or underflow."""
    a = as_matrix(a)
    scale = fro_norm(a)
    if scale > 0.0 and not 1e-100 <= scale <= 1e100:  # products may leave the float range
        a = a / np.max(np.abs(a))
        scale = fro_norm(a)
    ah = adjoint(a)
    residual = fro_norm(ah @ a - a @ ah) / max(scale ** 2, EPS_FLOOR)
    return PredicateReport("normal", residual <= tol, residual, tol)


def is_selfadjoint(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    a = as_matrix(a)
    residual = fro_norm(a - adjoint(a)) / max(fro_norm(a), EPS_FLOOR)
    return PredicateReport("selfadjoint", residual <= tol, residual, tol)


def nonneg_report(sa: PredicateReport, lam_min: float, scale: float) -> PredicateReport:
    """The nonneg rule, from the selfadjoint report of a, the least
    eigenvalue of its Hermitian part and ||a||_F."""
    residual = max(sa.residual, max(-lam_min, 0.0) / max(scale, EPS_FLOOR))
    return PredicateReport("nonneg", residual <= sa.tol_used, residual, sa.tol_used)


def is_nonneg(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Selfadjoint with spectrum in [0, inf); equivalent to a = b* b in M_n."""
    a = as_matrix(a)
    sa = is_selfadjoint(a, tol)
    lam_min = np.linalg.eigvalsh((a + adjoint(a)) / 2)[0] if sa.holds else 0.0
    return nonneg_report(sa, float(lam_min), fro_norm(a))


def predicate_for_ring(a, ring: ScalarRing, tol: float = DEFAULT_TOL) -> PredicateReport:
    """The element predicate a scalar ring demands of its calculus inputs."""
    if ring is ScalarRing.COMPLEX:
        return is_star_normal(a, tol)
    if ring is ScalarRing.REAL:
        return is_selfadjoint(a, tol)
    return is_nonneg(a, tol)


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

    def coordinates(self, x) -> np.ndarray:
        return np.array([frobenius_inner(b, x) for b in self.basis])

    def project(self, x) -> np.ndarray:
        out = zeros(self.ambient_dim)
        for c, b in zip(self.coordinates(x), self.basis):
            out += c * b
        return out

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


def subalgebra_contains(B: StarSubalgebra, x, tol: float = DEFAULT_TOL):
    return B.contains(x, tol)


def _reorthogonalized(cand, basis) -> np.ndarray:
    """cand minus its components along the orthonormal `basis`: Gram-Schmidt
    run twice, which keeps the result orthogonal to the basis to working
    precision even when most of cand lies in its span."""
    r = cand.astype(np.complex128).ravel()
    if basis:
        q = np.array(basis).reshape(len(basis), -1)
        for _ in range(2):
            r -= (q.conj() @ r) @ q
    return r.reshape(cand.shape)


def _orthonormalize(candidates, rank_tol: float):
    """Gram-Schmidt, twice per candidate, with a relative rank cutoff."""
    basis = []
    scale = max((fro_norm(c) for c in candidates), default=0.0)
    for cand in candidates:
        r = _reorthogonalized(cand, basis)
        nrm = fro_norm(r)
        if nrm > rank_tol * max(scale, fro_norm(cand), EPS_FLOOR):
            basis.append(r / nrm)
    return basis


def elemental_subalgebra(a, unital: bool = True, tol: float = DEFAULT_TOL) -> StarSubalgebra:
    """Orthonormal basis of the star-subalgebra generated by a normal element.

    Built by closing the span of words in a and a* under right multiplication
    by the generators (every word extends a shorter one).  For a normal with
    k distinct eigenvalues the unital dimension is k; the non-unital one drops
    to k - 1 when 0 is an eigenvalue.
    """
    a = as_matrix(a)
    report = is_star_normal(a, tol)
    if not report.holds:
        raise NotNormal(report)
    n = a.shape[0]
    ah = adjoint(a)
    rank_tol = max(tol, 1e-12)
    seeds = [identity(n)] if unital else [a, ah]
    basis = _orthonormalize(seeds, rank_tol)
    frontier = list(basis)
    for _ in range(n * n):
        new = []
        for b in frontier:
            for cand in (b @ a, b @ ah):
                r = _reorthogonalized(cand, basis + new)
                nrm = fro_norm(r)
                if nrm > rank_tol * max(fro_norm(cand), EPS_FLOOR):
                    new.append(r / nrm)
        if not new:
            break
        basis.extend(new)
        frontier = new
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
    basis = _orthonormalize(mats, max(tol, 1e-12))
    return StarSubalgebra(ambient_dim=n, basis=tuple(basis), unital=unital)
