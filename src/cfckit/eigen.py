"""Spectral decompositions: one path for every scalar ring (a Hermitian
eigensolve, extended to normal matrices by simultaneous diagonalization of
the commuting Hermitian parts), and eigenvalue clustering.
"""

from __future__ import annotations

import cmath
import sys

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

# Clusters are cut at this fraction of ||a||_F, the one cluster scale.
DEFAULT_CLUSTER_REL = 1e-8

# A cluster of h's eigenvalues on which a's compression is diagonal to within
# this fraction of ||a||_F is left as h's eigensolver returned it: the cluster
# is one eigenspace of a, which any orthonormal basis diagonalizes.  With
# exact multiplicities the off-diagonal rounding measured at most 7.2 eps
# ||a||_F (n = 4 to 512, up to 256-fold), so the cut has about 9x headroom;
# distinct eigenvalues sharing a real part leave an off-diagonal of the order
# of their distance.  A skipped cluster adds at most the cut to the residual.
# The residual ||a u_R - u_R diag(lam_R)||_F bounds that off-diagonal, so a
# run whose residual is at most half the cut skips the compression: the other
# half covers the rounding in which the computed bound and the computed
# off-diagonal differ, so the skip never changes the test's outcome.  On 200
# runs of 4x4 inputs with two double eigenvalues the residual measured at
# most 3.6 eps ||a||_F; a run next to a close eigenvalue of h reads more
# (eigenvector leakage of order eps ||a||^2 / gap) and takes the exact test.
# Over C the same cut marks the columns _refined takes, and a residual ||d||_F
# within half of it skips the runs and the refinement.  On Haar conjugates of
# uniform spectra in the unit square (40 inputs each at n = 4, 16 and 64, 8 at
# n = 256) a column read 0.07-0.12 cuts in the median at n >= 16; 1, 8, 32
# and 8 inputs had columns above the cut (up to 1.1, 5.1, 28 and 53 cuts,
# where two eigenvalues of h lie close), which the refinement brought to at
# most 1.24 cuts.
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
    and u and lam too over R and R>=0.  a - a* decides selfadjointness (R,
    R>=0), and h = (a + a*) / 2 gets the one Hermitian eigensolve, whose
    negative eigenvalues, with a's skew part, give the backward error that
    decides R>=0 (matrix_core.nonneg_report).

    Over C, lam = diag(u* a u) and d = a u - u diag(lam) come from the
    one product a u.  Where ||d||_F exceeds half the diagonal cut
    (DIAGONAL_CUT_REL * scale), each run R of h's eigenvalues (gaps <=
    DEFAULT_CLUSTER_REL * scale) whose columns d does not clear and on
    which a's compression c = u_R* a u_R is not diagonal gets one more
    eigensolve, of (c - c*) / 2i.  Then beta = ||d||_F / scale is a
    backward error: a lies within ||d||_F of the normal matrix u diag(lam)
    u* (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 1.5).
    With a = N + E, N normal and ||N||_F <= ||a||_F, the commutator
    residual of is_star_normal is at most 4 beta + 2 beta^2, so it is
    formed only where that bound exceeds tol, and a failure there is raised
    as it is: no input the commutator rejects is sound, and such an input
    pays one eigensolve, a u and the commutator, and no refinement.  The
    columns j with ||d_j|| above the cut then get one refinement
    (_refined), and the plan is sound iff beta <= tol after it; the
    report carries that beta against tol.  Eigenvalues come back sorted by
    (re, im)."""
    ah = a.conj().T
    s = a + ah
    if ring is not ScalarRing.COMPLEX:
        report = _predicate_report(a, ah, None, tol, scale)
        if not report.holds:
            raise NotSelfadjoint(report)
    del ah  # the peak holds a, h and the eigensolve's output, no more
    if s.dtype.kind == "f":
        s += 0.0  # -0.0 to +0.0, as s /= 2 does to a complex s: h must not depend on the dtype
    s /= 2
    wh, u = _eigh(s)
    del s
    if ring is not ScalarRing.COMPLEX:
        if ring is ScalarRing.NNREAL:
            report = nonneg_report(report, wh, scale)
            if not report.holds:
                raise PredicateFailure(report)
        return u, wh, report
    u = u.astype(np.complex128, copy=False)
    au = a @ u
    lam = (np.conj(u) * au).sum(0)
    d = au - u * lam
    cut = DIAGONAL_CUT_REL * scale
    err = fro_norm(d)
    if err > cut / 2:
        rotated = False
        for cols in _repeated_runs(wh, DEFAULT_CLUSTER_REL * scale):
            if fro_norm(d[:, cols]) <= cut / 2:
                continue
            c = adjoint(u[:, cols]) @ au[:, cols]
            off = c.copy()
            off.flat[:: len(c) + 1] = 0.0
            if fro_norm(off) <= cut:
                continue
            _, v = _eigh((c - c.conj().T) / 2j)  # one adjoint() per compression
            u[:, cols] = u[:, cols] @ v
            au[:, cols] = au[:, cols] @ v
            rotated = True
        if rotated:
            lam = (np.conj(u) * au).sum(0)
            d = au - u * lam
            err = fro_norm(d)
    beta = err / max(scale, EPS_FLOOR)
    if 4 * beta + 2 * beta * beta > tol:
        ah = a.conj().T
        report = _predicate_report(a, ah, a + ah, tol, scale)
        if not report.holds:
            raise NotNormal(report)
    if err > cut:
        beta = _refined(u, au, lam, d, cut) / max(scale, EPS_FLOOR)
    report = PredicateReport("normal", beta <= tol, beta, tol)
    if not report.holds:
        raise NotNormal(report)
    if np.count_nonzero(lam[1:] < lam[:-1]):  # complex order is (re, im)
        order = np.lexsort((lam.imag, lam.real))
        u, lam = u[:, order], lam[order]
    return u, lam, report


def _refined(u, au, lam, d, cut):
    """||d||_F after refining, in place, the columns F of u (au, lam, d)
    with ||d_j|| > cut: one compression c = u_F* a u_F, then for each group
    G of columns that c links (an off-diagonal entry above cut / 2) one
    eigensolve of the Hermitian part of e^(-i theta) c_G, theta the
    direction in which lam_G spreads most, whose eigenvectors a normal c_G
    shares (a Jacobi-like sweep for normal matrices, Goldstine and Horwitz,
    J. ACM 6, 1959).  theta = pi / 2 alone fails where linked eigenvalues
    share an imaginary part, and one theta for all of F where two unrelated
    columns project onto one value.  A group's refinement is kept only if
    it lowers its part of ||d||_F."""
    cols = np.flatnonzero(_column_norms2(d) > cut * cut)
    if len(cols) > 1:
        uf, auf = u[:, cols], au[:, cols]
        c = adjoint(uf) @ auf
        groups = _linked_groups(np.abs(c) > cut / 2)
        v = np.eye(len(cols), dtype=np.complex128)
        for g in groups:
            w = lam[cols[g]]
            w = w - w.sum() / len(w)
            # rotates sum(w^2) onto the positive real axis
            cg = c[np.ix_(g, g)] * cmath.exp(-0.5j * cmath.phase(complex(w @ w)))
            v[np.ix_(g, g)] = _eigh((cg + cg.conj().T) / 2)[1]
        uf, auf = uf @ v, auf @ v
        lf = (np.conj(uf) * auf).sum(0)
        df = auf - uf * lf
        new, old = _column_norms2(df), _column_norms2(d[:, cols])
        keep = np.zeros(len(cols), dtype=bool)
        for g in groups:
            keep[g] = new[g].sum() < old[g].sum()
        f = cols[keep]
        u[:, f], au[:, f], lam[f], d[:, f] = uf[:, keep], auf[:, keep], lf[keep], df[:, keep]
    return fro_norm(d)


def _column_norms2(x):
    """The squared 2-norms of the columns of x, in the range that
    _rescaled keeps."""
    return (x.real ** 2 + x.imag ** 2).sum(0)


def _linked_groups(link):
    """The index arrays of the connected components of two or more nodes of
    the graph whose adjacency (made symmetric here) is the boolean matrix
    link: each node takes the least label among its own and its neighbours',
    then the label of that label, until nothing changes."""
    link = link | link.T
    m = len(link)
    label = np.arange(m)
    while True:
        new = np.minimum(np.where(link, label, m).min(1), label)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    groups = (np.flatnonzero(label == k) for k in np.flatnonzero(label == np.arange(m)))
    return [g for g in groups if len(g) > 1]


def cluster_with_labels(lam, diameter: float):
    """(points, multiplicities): lam grouped into clusters whose members lie
    within `diameter` of each other, their means as the points, in the order
    of tie_sorted, in a complex array (bench/spans.py reads the cluster count as
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
    means = tie_sorted([(_mean(c), len(c)) for c in clusters], diameter)
    return (np.array([z for z, _ in means], dtype=np.complex128),
            tuple(k for _, k in means))


def tie_sorted(pairs, diameter):
    """(point, multiplicity) pairs sorted by the point's real part, where
    the points whose real parts lie within `diameter` of the least one not
    yet placed tie and go by imaginary part: real parts that agree
    mathematically differ by rounding, which the scale of a changes, so a
    plain (re, im) order would follow the rounding."""
    pairs = sorted(pairs, key=lambda p: p[0].real)
    out, start = [], 0
    for i in range(1, len(pairs) + 1):
        if i == len(pairs) or pairs[i][0].real - pairs[start][0].real > diameter:
            out += sorted(pairs[start:i], key=lambda p: (p[0].imag, p[0].real))
            start = i
    return out


def _mean(c):
    """The mean of a cluster as its first member plus the mean offset of the
    others, which stays finite where sum(c) overflows: the members lie within
    the cluster diameter of each other.  A singleton z, the common case, is
    z + 0.0, as sum(c) / 1 was (a -0.0 part becomes +0.0)."""
    z0 = c[0]
    if len(c) == 1:
        return z0 + 0.0
    return z0 + sum([z - z0 for z in c[1:]]) / len(c)
