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
    adjoint,
    fro_norm,
    nonneg_report,
)
from .scalars import ScalarRing

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
    sequence, split at gaps > cluster_tol.  A run may be wider than
    cluster_tol: a split at a gap g would leave eigenvector errors of order
    eps ||a|| / g."""
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


def cluster_with_labels(lam, cluster_tol: float) -> ClusteredSpectrum:
    """Eigenvalues grouped into clusters of diameter <= cluster_tol, whose
    means are the points, sorted by (re, im).

    One greedy sweep in real-part order: each eigenvalue joins the first live
    cluster whose members all lie within cluster_tol of it, else opens a new
    one.  A cluster stops being live once its first member's real part lies
    more than cluster_tol behind, since |re(x - y)| <= |x - y|.
    """
    if not cluster_tol >= 0:
        raise ValueError("cluster_tol must be nonnegative")
    clusters, live = [], 0
    for z in sorted(np.asarray(lam, dtype=np.complex128).tolist(), key=lambda z: z.real):
        while live < len(clusters) and z.real - clusters[live][0].real > cluster_tol:
            live += 1
        for c in clusters[live:]:
            # the first member alone rules out most clusters
            if abs(z - c[0]) <= cluster_tol and all(abs(z - w) <= cluster_tol for w in c):
                c.append(z)
                break
        else:
            clusters.append([z])
    means = sorted(((sum(c) / len(c), len(c)) for c in clusters),
                   key=lambda p: (p[0].real, p[0].imag))
    return ClusteredSpectrum(tuple(z for z, _ in means), tuple(k for _, k in means))
