"""Spectral decompositions: Hermitian eigensolver, its extension to normal
matrices via simultaneous diagonalization of the commuting Hermitian parts,
and eigenvalue clustering.
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
    PredicateReport,
    _coerced,
    adjoint,
    fro_norm,
    is_selfadjoint,
    is_star_normal,
)
from .scalars import DEFAULT_TOL

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
        if not h.imag.any():
            return np.linalg.eigh(h.real)
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_eigen(h, tol: float = DEFAULT_TOL, *, _scale=None) -> SpectralDecomposition:
    """Eigendecomposition of a selfadjoint matrix; eigenvalues real, ascending.

    Real symmetric input stays in real arithmetic: u comes back real.
    """
    h, scale = _coerced(h, _scale)
    report = is_selfadjoint(h, tol, _scale=scale)
    if not report.holds:
        raise NotSelfadjoint(report)
    w, u = _eigh((h + adjoint(h)) / 2)
    return SpectralDecomposition(u=u, lam=w, a=h, report=report)


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


def normal_spectral_decomposition(
    a, tol: float = DEFAULT_TOL, cluster_tol: float | None = None, *, _scale=None
) -> SpectralDecomposition:
    """Unitary diagonalization of a normal matrix.

    Writes a = h + i k with commuting Hermitian parts and diagonalizes h.  On
    each eigenvalue cluster of h it compresses a to c = u_c* a u_c and, unless
    c is already diagonal (the cluster is one eigenspace of a), diagonalizes
    (c - c*) / 2i, k's compression: one eigensolve plus one per cluster of h
    on which a is not already diagonal.  Eigenvalues come back sorted
    lexicographically by (re, im).  The default cluster_tol is
    DEFAULT_CLUSTER_REL * ||a||_F.
    """
    a, scale = _coerced(a, _scale)
    report = is_star_normal(a, tol, _scale=scale)
    if not report.holds:
        raise NotNormal(report)
    n = a.shape[0]
    if n == 1:
        return SpectralDecomposition(
            u=np.eye(1, dtype=np.complex128), lam=a[0].copy(), a=a, report=report
        )
    if cluster_tol is None:
        cluster_tol = DEFAULT_CLUSTER_REL * scale
    wh, u = _eigh((a + adjoint(a)) / 2)
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
    lam = np.sum(np.conj(u) * au, axis=0)
    order = np.lexsort((lam.imag, lam.real))
    return SpectralDecomposition(u=u[:, order], lam=lam[order], a=a, report=report)


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
