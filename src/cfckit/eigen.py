"""Spectral decompositions: Hermitian eigensolver, its extension to normal
matrices via simultaneous diagonalization of the commuting Hermitian parts,
and eigenvalue clustering.
"""

from __future__ import annotations

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


def _contiguous_clusters(sorted_reals, cluster_tol):
    """Index groups of an ascending real sequence, split at gaps > cluster_tol."""
    groups = [[0]]
    for i in range(1, len(sorted_reals)):
        if sorted_reals[i] - sorted_reals[i - 1] <= cluster_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def normal_spectral_decomposition(
    a, tol: float = DEFAULT_TOL, cluster_tol: float | None = None, *, _scale=None
) -> SpectralDecomposition:
    """Unitary diagonalization of a normal matrix.

    Writes a = h + i k with commuting Hermitian parts, diagonalizes h, then
    diagonalizes k = (a - a*) / 2i compressed to each eigenvalue cluster of
    h.  Eigenvalues come back sorted lexicographically by (re, im).  The
    default cluster_tol is DEFAULT_CLUSTER_REL * ||a||_F.
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
    for idx in _contiguous_clusters(wh, cluster_tol):
        if len(idx) == 1:
            continue
        cols = u[:, idx]
        c = adjoint(cols) @ a @ cols
        _, v = _eigh((c - adjoint(c)) / 2j)
        u[:, idx] = cols @ v
    lam = np.sum(np.conj(u) * (a @ u), axis=0)
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
