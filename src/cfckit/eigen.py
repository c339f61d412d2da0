"""Spectral decompositions: one path for every scalar ring (a Hermitian
eigensolve, extended to normal matrices by simultaneous diagonalization of
the commuting Hermitian parts), and eigenvalue clustering.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matrix_core import (
    EPS_FLOOR,
    NotNormal,
    NotSelfadjoint,
    PredicateFailure,
    PredicateReport,
    _predicate_report,
    _rescaled,
    adjoint,
    as_matrix,
    fro_norm,
    nonneg_report,
)
from .scalars import DEFAULT_TOL, ScalarRing

# Clusters are cut at this fraction of ||a|| unless the caller overrides.
DEFAULT_CLUSTER_REL = 1e-8

# A cluster of h's eigenvalues on which a's compression is diagonal to within
# this fraction of ||a||_F is left as h's eigensolver returned it: the cluster
# is one eigenspace of a, which any orthonormal basis diagonalizes.  With
# exact multiplicities the off-diagonal rounding measured at most 7.2 eps
# ||a||_F (n = 4 to 512, up to 256-fold), so the cut has about 9x headroom;
# distinct eigenvalues sharing a real part leave an off-diagonal of the order
# of their distance.  A skipped cluster adds at most the cut to the residual.
DIAGONAL_CUT_REL = 64 * sys.float_info.epsilon


class NoConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """a = u . diag(lam) . u*  with u unitary (real orthogonal when a is real
    symmetric), together with the predicate report checked on the way."""

    u: np.ndarray
    lam: np.ndarray
    a: np.ndarray = field(repr=False)
    report: PredicateReport

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.lam) @ adjoint(self.u)

    @cached_property
    def residual(self) -> float:
        """||a - u diag(lam) u*|| / ||a||, computed on first access."""
        return fro_norm(self.a - self.reconstruct()) / max(fro_norm(self.a), EPS_FLOOR)


@dataclass(frozen=True)
class ClusteredSpectrum:
    points: tuple
    multiplicities: tuple
    cluster_tol: float

    @property
    def size(self) -> int:
        return len(self.points)


def _eigh(h):
    """np.linalg.eigh, in real arithmetic when h has no imaginary part."""
    try:
        if not np.count_nonzero(h.imag):
            return np.linalg.eigh(h.real)
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _repeated_runs(sorted_reals, cluster_tol):
    """Slices of the runs of two or more entries of an ascending real
    sequence, split at gaps > cluster_tol."""
    xs = sorted_reals.tolist()
    runs, start = [], 0
    for i in range(1, len(xs) + 1):
        if i == len(xs) or xs[i] - xs[i - 1] > cluster_tol:
            if i - start > 1:
                runs.append(slice(start, i))
            start = i
    return runs


def _decompose(a, ring, tol, cluster_tol, scale) -> SpectralDecomposition:
    """a's decomposition for the calculus over `ring`, its predicate checked
    once on the way (PredicateFailure, NoConvergence); a is coerced and
    rescaled by _rescaled, scale = ||a||_F.  a - a* decides selfadjointness
    (R, R>=0), s (a - a*) with s = a + a* normality (C), and s / 2 = h gets
    the one Hermitian eigensolve, whose least eigenvalue decides R>=0.  Over
    C, each cluster of h's eigenvalues (gaps <= cluster_tol) on which a's
    compression c = u_c* a u_c is not diagonal gets one more, of
    (c - c*) / 2i.  Eigenvalues come back sorted by (re, im)."""
    ah = a.conj().T
    s = a + ah
    report = _predicate_report(a, ah, s if ring is ScalarRing.COMPLEX else None, tol, scale)
    del ah  # the peak holds a, h and the eigensolve's output, no more
    if not report.holds:
        raise (NotNormal if ring is ScalarRing.COMPLEX else NotSelfadjoint)(report)
    s /= 2
    wh, u = _eigh(s)
    del s
    if ring is not ScalarRing.COMPLEX:
        if ring is ScalarRing.NNREAL:
            report = nonneg_report(report, float(wh[0]), scale)
            if not report.holds:
                raise PredicateFailure(report)
        return SpectralDecomposition(u=u, lam=wh, a=a, report=report)
    u = u.astype(np.complex128, copy=False)
    au = a @ u
    cut = DIAGONAL_CUT_REL * scale
    for cols in _repeated_runs(wh, cluster_tol):
        c = adjoint(u[:, cols]) @ au[:, cols]
        off = c.copy()
        off.flat[:: len(c) + 1] = 0.0
        if fro_norm(off) <= cut:
            continue
        _, v = _eigh((c - adjoint(c)) / 2j)
        u[:, cols] = u[:, cols] @ v
        au[:, cols] = au[:, cols] @ v
    lam = (np.conj(u) * au).sum(0)
    if np.count_nonzero(lam[1:] < lam[:-1]):  # complex order is (re, im)
        order = np.lexsort((lam.imag, lam.real))
        u, lam = u[:, order], lam[order]
    return SpectralDecomposition(u=u, lam=lam, a=a, report=report)


def _scaled_back(dec, c, a) -> SpectralDecomposition:
    """dec, of a / c, as the decomposition of a; NoConvergence when the
    modulus of an eigenvalue of a lies beyond the float range."""
    with np.errstate(over="ignore"):
        lam = dec.lam * c
        if np.count_nonzero(np.isinf(np.abs(lam))):
            raise NoConvergence("an eigenvalue lies beyond the float range")
    return SpectralDecomposition(dec.u, lam, a, dec.report)


def _rescaled_decomposition(a, ring, tol, cluster_tol):
    """_decompose of any input under the scale rule of _rescaled."""
    a = as_matrix(a)
    b, scale, c = _rescaled(a)
    if cluster_tol is None:
        cluster_tol = DEFAULT_CLUSTER_REL * scale * c
    dec = _decompose(b, ring, tol, cluster_tol / c, scale)
    return dec if c == 1.0 else _scaled_back(dec, c, a)


def hermitian_eigen(h, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a selfadjoint h: lam ascending, u real if h is."""
    return _rescaled_decomposition(h, ScalarRing.REAL, tol, None)


def normal_spectral_decomposition(
    a, tol: float = DEFAULT_TOL, cluster_tol: float | None = None
) -> SpectralDecomposition:
    """Unitary diagonalization of a normal matrix, eigenvalues sorted by
    (re, im); cluster_tol defaults to DEFAULT_CLUSTER_REL * ||a||_F."""
    return _rescaled_decomposition(a, ScalarRing.COMPLEX, tol, cluster_tol)


def cluster_with_labels(lam, cluster_tol: float):
    """Single-linkage clustering of eigenvalues in the complex plane.

    Returns the clustered spectrum (representatives = cluster means, sorted
    by (re, im)) together with a label array mapping each input eigenvalue
    to its cluster.  Sort-and-sweep: in real-part order, each eigenvalue is
    compared only with those whose real part lies within cluster_tol, which
    loses no pair since |re(x - y)| <= |x - y|.
    """
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be nonnegative")
    lam = np.asarray(lam, dtype=np.complex128)
    zs = lam.tolist()
    m = len(zs)
    by_re = np.argsort(lam.real, kind="stable").tolist()
    re = [zs[i].real for i in by_re]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in range(m):
        i = by_re[p]
        zi, ri = zs[i], find(i)
        for q in range(p + 1, m):
            if re[q] - re[p] > cluster_tol:
                break
            j = by_re[q]
            if abs(zi - zs[j]) <= cluster_tol:
                parent[find(j)] = ri

    roots = {}
    labels = np.array([roots.setdefault(find(i), len(roots)) for i in range(m)], dtype=np.intp)
    k = len(roots)
    points = np.zeros(k, dtype=np.complex128)
    np.add.at(points, labels, lam)
    mults = np.bincount(labels, minlength=k)
    points /= mults
    order = np.lexsort((points.imag, points.real))
    remap = np.empty(k, dtype=np.intp)
    remap[order] = np.arange(k)
    spec = ClusteredSpectrum(
        points=tuple(complex(z) for z in points[order]),
        multiplicities=tuple(int(c) for c in mults[order]),
        cluster_tol=float(cluster_tol),
    )
    return spec, remap[labels]
