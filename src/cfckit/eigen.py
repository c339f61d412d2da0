"""Spectral decompositions: one path for every scalar ring (a Hermitian
eigensolve, extended to normal matrices by simultaneous diagonalization of
the commuting Hermitian parts), the element predicates each ring demands,
read off that path's verdict, and eigenvalue clustering.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys

import numpy as np

from .matrix_core import (
    EPS_FLOOR,
    NotNormal,
    NotSelfadjoint,
    PredicateFailure,
    PredicateReport,
    StarSubalgebra,
    _elemental_chain,
    _rescaled,
    adjoint,
    as_matrix,
    fro_norm,
)
from .scalars import DEFAULT_TOL, ScalarRing

# Clusters are cut at this fraction of ||a||_F, the one cluster scale.
DEFAULT_CLUSTER_REL = 1e-8

# Over C the columns j of d = a u - u diag(lam) with ||d_j|| above this
# fraction of ||a||_F are refined (_refined), and a residual ||d||_F within
# it skips the refinement.  A cluster of h's eigenvalues that one eigenspace
# of a fills is left as h's eigensolver returned it, since any orthonormal
# basis diagonalizes it: with exact multiplicities the residual of such a
# cluster's columns measured at most 3.6 eps ||a||_F (200 4x4 inputs with
# two double eigenvalues) and the off-diagonal of a's compression on it at
# most 7.2 eps ||a||_F (n = 4 to 512, up to 256-fold): about 18x below the
# cut and 4x below its half, the link test of _refined; distinct eigenvalues
# sharing a real part leave a residual of the order of their distance, and a
# column next to a close eigenvalue of h reads eigenvector leakage of order
# eps ||a||^2 / gap.  On Haar conjugates of uniform spectra in the unit
# square (40 inputs each at n = 4, 16 and 64, 8 at n = 256) a column read
# 0.07-0.12 cuts in the median at n >= 16; 1, 8, 32 and 8 inputs had columns
# above the cut (up to 1.1, 5.1, 28 and 53 cuts, where two eigenvalues of h
# lie close), which the refinement brought to at most 1.24 cuts.
DIAGONAL_CUT_REL = 64 * sys.float_info.epsilon


class NoConvergence(RuntimeError):
    pass


def _eigh(h):
    """np.linalg.eigh, in real arithmetic when h is real: a float64 h goes
    to it as it is, a complex h with no imaginary part as its real part
    (h[-1, 0] is read first: a complex input seldom has a real corner)."""
    try:
        if h.dtype.kind == "c" and not h[-1, 0].imag and not np.count_nonzero(h.imag):
            h = h.real
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _predicate_report(a, ah, tol: float, scale: float) -> PredicateReport:
    """The selfadjoint report of a from its adjoint ah: ||a - a*||_F /
    ||a||_F, scale = ||a||_F in the range _rescaled keeps.  It reads 0.0
    exactly where a = a* (_decompose relies on it), which one count of
    a - a* decides with no norm formed; a nonzero skew part whose quotient
    rounds to zero reads the least subnormal."""
    skew = a - ah
    residual = 0.0
    if np.count_nonzero(skew):
        residual = fro_norm(skew) / max(scale, EPS_FLOOR) or 5e-324
    return PredicateReport("selfadjoint", residual <= tol, residual, tol)


def _commutator_residual(a, scale: float) -> float:
    """||a*a - aa*||_F / ||a||_F^2, scale = ||a||_F in the range _rescaled
    keeps.  With a = h + i k, a*a - aa* = 2i (hk - (hk)*) and s (a - a*) =
    4i hk for s = a + a*, so one product p decides it: 2 ||hk - (hk)*||_F =
    ||p + p*||_F / 2.  a - a* is freed before p + p* is formed."""
    ah = a.conj().T
    p = (a + ah) @ (a - ah)
    p += p.conj().T
    return fro_norm(p) / 2 / max(scale ** 2, EPS_FLOOR)


def _decompose(a, ring, tol, scale):
    """(u, lam, report) with a = u diag(lam) u*, u unitary (real orthogonal
    when a is real symmetric), for the calculus over `ring`, its predicate
    checked once on the way (PredicateFailure, NoConvergence); a is coerced
    and rescaled by _rescaled, scale = ||a||_F.  A float64 a stays real up
    to the eigensolve (a.conj() is a itself), so a*, s and h are float64
    and u and lam too over R and R>=0.  a - a* decides selfadjointness (R,
    R>=0) before anything else is formed, and h = (a + a*) / 2 gets the one
    Hermitian eigensolve; an exactly symmetric float64 a (selfadjoint
    residual 0.0) takes h = a + 0.0, which is ((a + a*) + 0.0) / 2 to the
    bit, -0.0 and subnormals included.  A complex a always forms a + a*:
    complex division by 2 rewrites signs of zero that a + 0.0 keeps.  Over
    R>=0 the nonneg report reads the selfadjoint residual and the backward
    error beta_+ = hypot(||a - a*||_F / 2, ||min(lam, 0)||_2) / ||a||_F of
    u diag(max(lam, 0)) u*, which drops a's skew part and clamps h's
    negative eigenvalues, each within tol where the other may not be.

    Over C, lam = diag(u* a u) and d = a u - u diag(lam) come from the
    one product a u, and beta = ||d||_F / scale is a backward error: a
    lies within ||d||_F of the normal matrix u diag(lam) u* (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 1.5), and beta
    alone decides soundness.  Where ||d||_F exceeds the diagonal cut
    (DIAGONAL_CUT_REL * scale), one refinement (_refined) splits the
    clusters of h that a does not fill with one eigenspace, and the plan is
    sound iff beta <= tol after it; every report, failed or not, carries
    that beta against tol.  With a = N + E, N normal and ||N||_F <=
    ||a||_F, the commutator residual ||a*a - aa*||_F / ||a||_F^2 is at most
    4 beta + 2 beta^2 for every u diag(lam) u* the refinement can reach, so
    where h's own eigenvectors leave beta > tol a commutator above 4 tol +
    2 tol^2 certifies that no refinement can succeed: such an input pays
    one eigensolve, a u and the commutator, and is rejected with that beta.
    Eigenvalues come back sorted by (re, im)."""
    ah = a.conj().T
    if ring is not ScalarRing.COMPLEX:
        report = _predicate_report(a, ah, tol, scale)
        if not report.holds:
            raise NotSelfadjoint(report)
    if ring is not ScalarRing.COMPLEX and report.residual == 0.0 and a.dtype.kind == "f":
        s = a + 0.0
    else:
        s = a + ah
        if s.dtype.kind == "f":
            s += 0.0  # -0.0 to +0.0, as s /= 2 does to a complex s: h must not depend on the dtype
        s /= 2
    del ah  # the peak holds a, h and the eigensolve's output, no more
    wh, u = _eigh(s)
    del s
    if ring is not ScalarRing.COMPLEX:
        if ring is ScalarRing.NNREAL:
            residual = report.residual
            if wh[0] < 0:
                negative = fro_norm(wh[wh < 0]) / max(scale, EPS_FLOOR)
                residual = max(residual, math.hypot(residual / 2, negative))
            report = PredicateReport("nonneg", residual <= tol, residual, tol)
            if not report.holds:
                raise PredicateFailure(report)
        return u, wh, report
    u = u.astype(np.complex128, copy=False)
    au = a @ u
    lam = (np.conj(u) * au).sum(0)
    d = au - u * lam
    cut = DIAGONAL_CUT_REL * scale
    err = fro_norm(d)
    beta = err / max(scale, EPS_FLOOR)
    if beta > tol and _commutator_residual(a, scale) > 4 * tol + 2 * tol * tol:
        raise NotNormal(PredicateReport("normal", False, beta, tol))
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
    with ||d_j|| > cut, the one step that splits a cluster of h: one
    compression c = u_F* a u_F; F cut into the smallest intervals, in h's
    eigenvalue order, that no link |c_ij| > cut / 2 crosses; and for each
    interval G of two or more columns one eigensolve of the Hermitian part
    of e^(-i theta) w, w = c_G - (tr c_G / |G|) I, whose eigenvectors a
    normal c_G shares (a Jacobi-like sweep for normal matrices, Goldstine
    and Horwitz, J. ACM 6, 1959).  theta = phase(tr w^2) / 2 turns the sum
    of the squared centred eigenvalues of c_G onto the positive real axis,
    the direction in which they spread most, and does not depend on the
    basis: distinct eigenvalues sharing a real part give +-pi / 2 (the skew
    part), a near-repeat of h under a rounding-size skew part about 0 (h's
    own eigenvectors).  The centring shifts the Hermitian part by a real
    multiple of I, which moves no eigenvector and shrinks its norm.  A
    group's refinement is kept only if it lowers its part of ||d||_F; v is
    the identity on a single column, which the product leaves as it was."""
    norms2 = _column_norms2(d)
    cols = np.flatnonzero(norms2 > cut * cut)
    m = len(cols)
    if m < 2:
        return fro_norm(d)
    f = slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] == m - 1 else cols
    uf, auf = u[:, f], au[:, f]
    c = adjoint(uf) @ auf
    link = np.abs(c) > cut / 2
    link |= link.T
    link.flat[:: m + 1] = True  # each column reaches itself at least
    # an interval closes where the farthest column linked so far is its last
    bounds, end = [0], 0
    for k, r in enumerate((m - 1 - link[:, ::-1].argmax(1)).tolist()):
        end = max(end, r)
        if end == k:
            bounds.append(k + 1)
    v = np.eye(m, dtype=np.complex128)
    for i, j in zip(bounds, bounds[1:]):
        if j - i > 1:
            w = c[i:j, i:j]
            w.flat[:: j - i + 1] -= w.trace() / (j - i)
            w = w * cmath.exp(-0.5j * cmath.phase(complex((w * w.T).sum())))
            w += w.conj().T
            v[i:j, i:j] = _eigh(w)[1]
    uf, auf = uf @ v, auf @ v
    lf = (np.conj(uf) * auf).sum(0)
    df = auf - uf * lf
    keep = np.add.reduceat(_column_norms2(df) - norms2[f], bounds[:-1]) < 0
    if not keep.all():
        keep = np.repeat(keep, np.diff(bounds))
        f, uf, auf, lf, df = cols[keep], uf[:, keep], auf[:, keep], lf[keep], df[:, keep]
    u[:, f], au[:, f], lam[f], d[:, f] = uf, auf, lf, df
    return fro_norm(d)


def _column_norms2(x):
    """The squared 2-norms of the columns of x, in the range that
    _rescaled keeps."""
    return (x.real ** 2 + x.imag ** 2).sum(0)


def predicate_for_ring(a, ring: ScalarRing, tol: float = DEFAULT_TOL) -> PredicateReport:
    """The report of the plan of a over the ring, or its PredicateFailure's:
    _decompose of a rescaled by _rescaled, NoConvergence where its
    eigensolve fails.  Over R that report is the plan's first step, the
    selfadjoint residual, and no eigensolve runs."""
    a, scale, _ = _rescaled(as_matrix(a))
    if ring is ScalarRing.REAL:
        return _predicate_report(a, a.conj().T, tol, scale)
    try:
        return _decompose(a, ring, tol, scale)[2]
    except PredicateFailure as exc:
        return exc.report


def is_star_normal(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Is a normal?  The plan's report over C: its backward error beta =
    ||a u - u diag(lam)||_F / ||a||_F against tol, which a commutator
    residual within tol does not bound (_decompose)."""
    return predicate_for_ring(a, ScalarRing.COMPLEX, tol)


def is_selfadjoint(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Is a = a*?  Residual ||a - a*||_F / ||a||_F."""
    return predicate_for_ring(a, ScalarRing.REAL, tol)


def is_nonneg(a, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Selfadjoint with spectrum in [0, inf); equivalent to a = b* b in M_n.
    The plan's report over R>=0: selfadjoint where that fails, else nonneg."""
    return predicate_for_ring(a, ScalarRing.NNREAL, tol)


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
    NotNormal unless the plan over C accepts a (is_star_normal).
    """
    a = as_matrix(a)
    report = is_star_normal(a, tol)
    if not report.holds:
        raise NotNormal(report)
    return _elemental_chain(a, unital)


def cluster_with_labels(lam, diameter: float):
    """(points, multiplicities): lam grouped into clusters whose members lie
    within `diameter` of each other, their means as the points, in the order
    of tie_sorted, in a complex array (bench/spans.py reads the cluster count as
    its size), and the cluster sizes as a tuple.  lam is an array or a
    sequence of Python numbers (a plan's values), read as they are.

    One greedy sweep in real-part order: each eigenvalue joins the first live
    cluster whose members all lie within diameter of it, else opens a new
    one.  A cluster stops being live once its first member's real part lies
    more than diameter behind, since |re(x - y)| <= |x - y|.  Each cluster
    keeps its radius r about its first member w0, so a z with |z - w0| + r
    <= diameter (1 - 8 eps) - 8 tiny joins with no member loop: then |z - w|
    <= |z - w0| + |w0 - w| for every member w, and the margin covers the
    rounding of the three moduli and their sum, relative or, below the
    normal range, on the grid of tiny = 2^-1074, so the loop would have let
    z join.  A k-fold eigenvalue then costs k comparisons, not k (k - 1) / 2.
    Where no value has an imaginary part the sweep runs in ascending order,
    so w0 is a cluster's least member and z its greatest, and since rounding
    is monotone |z - w0| <= diameter bounds |z - w| for every member w: the
    first member alone decides, and every cluster costs O(k).
    """
    if not diameter >= 0:
        raise ValueError("diameter must be nonnegative")
    clusters, radii, live = [], [], 0
    inner = diameter * (1.0 - 8.0 * sys.float_info.epsilon) - 8 * 5e-324
    if isinstance(lam, np.ndarray):
        lam = lam.astype(np.complex128, copy=False).tolist()
    real = not any(map(operator.attrgetter("imag"), lam))
    for z in sorted(lam, key=lambda z: z.real):
        while live < len(clusters) and z.real - clusters[live][0].real > diameter:
            live += 1
        for j in range(live, len(clusters)):
            c = clusters[j]
            # the first member alone rules out most clusters
            d0 = abs(z - c[0])
            if d0 <= diameter and (real or d0 + radii[j] <= inner
                                   or all(abs(z - w) <= diameter for w in c[1:])):
                c.append(z)
                radii[j] = max(radii[j], d0)
                break
        else:
            clusters.append([z])
            radii.append(0.0)
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
