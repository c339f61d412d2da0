"""Spectral decompositions: one path for every scalar ring (a Hermitian
eigensolve, extended to normal matrices by simultaneous diagonalization of
the commuting Hermitian parts), and eigenvalue clustering.
"""

from __future__ import annotations

import sys

import numpy as np

from .matrix_core import (
    NotNormal,
    NotSelfadjoint,
    PredicateFailure,
    _predicate_report,
    adjoint,
    fro_norm,
    nonneg_report,
)
from .scalars import ScalarRing

# Clusters are cut at this fraction of ||a||_F, the one cluster scale.
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


def _eigh(h):
    """np.linalg.eigh, in real arithmetic when h is real: a float64 h goes
    to it as it is, a complex h with no imaginary part as its real part."""
    try:
        if h.dtype.kind == "c" and not np.count_nonzero(h.imag):
            h = h.real
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _repeated_runs(sorted_reals, cut):
    """Slices of the runs of two or more entries of an ascending real
    sequence, split at gaps > cut.  A run may be wider than cut: a split at
    a gap g would leave eigenvector errors of order eps ||a|| / g."""
    xs = sorted_reals.tolist()
    runs, start = [], 0
    for i in range(1, len(xs) + 1):
        if i == len(xs) or xs[i] - xs[i - 1] > cut:
            if i - start > 1:
                runs.append(slice(start, i))
            start = i
    return runs


def _decompose(a, ring, tol, scale):
    """(u, lam, report) with a = u diag(lam) u*, u unitary (real orthogonal
    when a is real symmetric), for the calculus over `ring`, its predicate
    checked once on the way (PredicateFailure, NoConvergence); a is coerced
    and rescaled by _rescaled, scale = ||a||_F.  A float64 a stays real up
    to the eigensolve (a.conj() is a itself), so a*, s and h are float64
    and u and lam too over R and R>=0.  a - a* decides
    selfadjointness (R, R>=0), s (a - a*) with s = a + a* normality (C), and
    s / 2 = h gets the one Hermitian eigensolve, whose least eigenvalue
    decides R>=0.  Over C, each cluster of h's eigenvalues (gaps <=
    DEFAULT_CLUSTER_REL * scale) on which a's compression c = u_c* a u_c is
    not diagonal gets one more, of (c - c*) / 2i.  Eigenvalues come back
    sorted by (re, im)."""
    ah = a.conj().T
    s = a + ah
    report = _predicate_report(a, ah, s if ring is ScalarRing.COMPLEX else None, tol, scale)
    del ah  # the peak holds a, h and the eigensolve's output, no more
    if not report.holds:
        raise (NotNormal if ring is ScalarRing.COMPLEX else NotSelfadjoint)(report)
    if s.dtype.kind == "f":
        s += 0.0  # -0.0 to +0.0, as s /= 2 does to a complex s: h must not depend on the dtype
    s /= 2
    wh, u = _eigh(s)
    del s
    if ring is not ScalarRing.COMPLEX:
        if ring is ScalarRing.NNREAL:
            report = nonneg_report(report, float(wh[0]), scale)
            if not report.holds:
                raise PredicateFailure(report)
        return u, wh, report
    u = u.astype(np.complex128, copy=False)
    au = a @ u
    cut = DIAGONAL_CUT_REL * scale
    for cols in _repeated_runs(wh, DEFAULT_CLUSTER_REL * scale):
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
    return u, lam, report


def cluster_with_labels(lam, diameter: float):
    """(points, multiplicities): lam grouped into clusters whose members lie
    within `diameter` of each other, their means as the points, sorted by
    (re, im), in a complex array (bench/spans.py reads the cluster count as
    its size), and the cluster sizes as a tuple.

    One greedy sweep in real-part order: each eigenvalue joins the first live
    cluster whose members all lie within diameter of it, else opens a new
    one.  A cluster stops being live once its first member's real part lies
    more than diameter behind, since |re(x - y)| <= |x - y|.
    """
    if not diameter >= 0:
        raise ValueError("diameter must be nonnegative")
    clusters, live = [], 0
    for z in sorted(np.asarray(lam, dtype=np.complex128).tolist(), key=lambda z: z.real):
        while live < len(clusters) and z.real - clusters[live][0].real > diameter:
            live += 1
        for c in clusters[live:]:
            # the first member alone rules out most clusters
            if abs(z - c[0]) <= diameter and all(abs(z - w) <= diameter for w in c):
                c.append(z)
                break
        else:
            clusters.append([z])
    means = sorted(((_mean(c), len(c)) for c in clusters),
                   key=lambda p: (p[0].real, p[0].imag))
    return (np.array([z for z, _ in means], dtype=np.complex128),
            tuple(k for _, k in means))


def _mean(c):
    """The mean of a cluster as its first member plus the mean offset of the
    others, which stays finite where sum(c) overflows: the members lie within
    the cluster diameter of each other.  A singleton z, the common case, is
    z + 0.0, as sum(c) / 1 was (a -0.0 part becomes +0.0)."""
    z0 = c[0]
    if len(c) == 1:
        return z0 + 0.0
    return z0 + sum([z - z0 for z in c[1:]]) / len(c)
