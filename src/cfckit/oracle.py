"""Independent ground truth for the calculus: interpolation on the finite
spectrum in Newton form at Leja-ordered nodes, evaluated on a by direct
matrix arithmetic (no eigendecomposition), the law-check harness, and the
polynomials in z and conj(z) that function specs name.

On a finite spectrum the interpolant in z alone already agrees with f at every
spectral point, so exact interpolation stands in for a density argument; this
is the one place the finite-dimensional setting is strictly stronger than the
general theory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .cfc import ScalarFunction, _eval_row, plan
from .matrix_core import (
    MEMBERSHIP_FLOOR,
    _elemental_chain,
    _rescaled,
    adjoint,
    fro_norm,
    identity,
    operator_norm,
)
from .scalars import COMPLEX, DEFAULT_TOL, NNREAL, ScalarRing

# Interpolation is skipped when two nodes are closer than this, relative to
# the spectrum's diameter: divided differences over such gaps would test
# floating point, not mathematics.
GAP_GUARD_REL = 1e-6
F_FAILS = "f fails at a point of the spectrum"
# The spacing of the floats below the normal range, math.ulp(0.0)
SUBNORMAL_SPACING = 2.0 ** -1074


class OracleSkipped(RuntimeError):
    """The spectrum is too ill-conditioned for the interpolation oracle."""


@dataclass(frozen=True)
class StarPolynomial:
    """sum of c * z^k * conj(z)^m over terms (k, m, c)."""

    terms: tuple

    def __post_init__(self):
        pairs = [(k, m) for k, m, _ in self.terms]
        if len(pairs) != len(set(pairs)):
            raise ValueError("term exponent pairs must be distinct")

    def as_function(self, ring: ScalarRing = ScalarRing.COMPLEX) -> ScalarFunction:
        def evaluate(x):
            z = complex(x)
            return sum(c * z**k * z.conjugate() ** m for k, m, c in self.terms)

        return ScalarFunction(evaluate, ring, "poly")


def cfc_oracle(
    f: ScalarFunction, a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Uniqueness oracle: interpolate f on the clustered spectrum of a, then
    evaluate the interpolant on a by plain matrix arithmetic.  Only the
    interpolation nodes come from an eigensolve, and f is read at them by
    the calculus's rule; raises OracleSkipped when they are too close
    together or f fails at one of them."""
    p = plan(a, ring, tol)
    points = p.points()
    return _interpolate(p.a, points, _eval_row(map(f.eval, points), len(points), f.ring, tol))


def _interpolate(a: np.ndarray, points, values: Optional[list]) -> np.ndarray:
    """p(a) with no eigensolve, p of degree < k through the k pairs
    (points[i], values[i]) in Newton form at the points x in Leja order.
    For a = s a' as _rescaled takes it, p(a) is q(a') with q through the
    nodes x / s, so a and x stand for a' and x / s below: p(a) = d_0 + (a/c
    - y_0)(d_1 + (a/c - y_1)(...)) in k - 1 products, with y = x / c, c =
    diameter / 4 (a segment's capacity) and d the divided differences at y.
    values None (f failed at a point) raises OracleSkipped after the gap
    guard, whose note comes first.  One point (the gap guard cannot fire)
    gives the constant values[0] I with no rescale, order or product."""
    if len(points) == 1:
        if values is None:
            raise OracleSkipped(F_FAILS)
        return complex(values[0]) * identity(a.shape[0])
    a, _, s = _rescaled(a)
    x = np.array(points, dtype=np.complex128)
    if s != 1.0:
        # divided as reals: numpy divides a complex array by a float through
        # its reciprocal, which overflows for a subnormal s
        x = (x.view(np.float64) / s).view(np.complex128)
    k, n = len(x), a.shape[0]
    dist = np.abs(x[:, None] - x)
    diameter = dist.max()
    dist.reshape(-1)[:: k + 1] = math.inf
    gap = dist.min()
    if gap < GAP_GUARD_REL * diameter:
        raise OracleSkipped(f"minimum spectral gap {float(gap) * s:.3e} below guard "
                            f"({GAP_GUARD_REL:.0e} of diameter {float(diameter) * s:.3e})")
    if values is None:
        raise OracleSkipped(F_FAILS)
    c = float(diameter) / 4 or 1.0
    # Leja order: the node of largest modulus first, then each time the node
    # with the largest product of distances to those already taken (ties to
    # the lowest index); O(k^2) scalar steps, in Python arithmetic since k is
    # small next to the k - 1 products with a
    xs, rows = x.tolist(), dist.tolist()
    order = [max(range(k), key=lambda i: abs(xs[i]))]
    reach = [1.0] * k
    for _ in range(k - 1):
        reach = [r * (d / c) for r, d in zip(reach, rows[order[-1]])]
        for i in order:
            reach[i] = -1.0
        order.append(max(range(k), key=reach.__getitem__))
    y = [xs[i] / c for i in order]
    d = [complex(values[i]) for i in order]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (y[i] - y[i - j])
    b = a / c
    out = d[-1] * identity(n)
    for dj, yj in zip(reversed(d[:-1]), reversed(y[:-1])):
        out = b @ out - yj * out
        out.reshape(-1)[:: n + 1] += dj  # out is a fresh product, so this is a view
    return out


@dataclass(slots=True)
class LawEntry:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: Optional[str] = None


@dataclass(slots=True)
class LawReport:
    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed or e.skipped for e in self.entries)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "laws": [asdict(e) for e in self.entries]}

    def table(self) -> str:
        lines = [f"{'law':<22} {'residual':>12} {'tolerance':>12}  status"]
        for e in self.entries:
            status = "SKIP" if e.skipped else ("pass" if e.passed else "FAIL")
            lines.append(
                f"{e.name:<22} {e.residual:>12.3e} {e.tolerance:>12.3e}  {status}"
            )
        return "\n".join(lines)


def _within(name: str, residual: float, scale: float, tol: float,
            floor: float = 0.0) -> LawEntry:
    """The law's absolute residual against tol * scale, its one scale, plus
    floor, its rounding below the normal range (_subnormal_floors); skipped
    with a note where that scale overflows, so that no tolerance is
    infinite."""
    if not scale < math.inf:
        return _skipped(name, f"the scale of the {name} law overflows")
    bound = tol * scale + floor
    return LawEntry(name, residual, bound, residual <= bound)


def _subnormal_floors(n: int, norm_f: float, norm_g: float) -> tuple:
    """(k R + 2) 2^-1074 for k = 1, 2, 3, with R = sqrt(2) n (n + sqrt(2n)):
    a bound on the absolute rounding below the normal range of a residual
    that compares k values u diag(F) u* at n, where tol times the law's
    scale underflows; and the mul law's, (R (norm_f + norm_g) + 2 R +
    sqrt(2n) + 2) 2^-1074, with norm_f and norm_g the Frobenius norms of
    f(a) and g(a).
    There a product lands on the subnormal grid, off by up to half a spacing
    whatever its size, and a sum is exact: fl(x op y) = (x op y)(1 + d) + e
    with |e| <= 2^-1075, and e = 0 for a sum (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 2.1); the relative part d
    stays with tol * scale.  A part of u_ik F_k is the sum of two products,
    off by one spacing; a part of its product with conj(u_jk) carries that
    times |re u_jk| + |im u_jk| <= sqrt(2) |u_jk| and one spacing of its own
    two products; over the n terms of an entry, with sum_k |u_jk| <= sqrt(n)
    on a unit row of u, that is n + sqrt(2n) spacings a part, and R in
    Frobenius norm over the 2 n^2 parts of the value (a real reconstruction
    has half the products).  The 2 spacings are the last rounding of each
    side of the comparison: a norm c ||b|| (or a distance to C*(a) times
    it), a modulus |x|, or an eigenvalue lam c.
    mul compares (f g)(a) with the product f(a) g(a), in which each factor's
    R spacings are multiplied by the other factor's norm, whatever its
    size; the product's 2n products a part are off by n spacings, sqrt(2)
    n^2 <= R in Frobenius norm; and (f g)(a) carries R of its own and
    sqrt(2) spacings of each value f(x) g(x), sqrt(2n) over the row."""
    r = math.sqrt(2.0) * n * (n + math.sqrt(2.0 * n))
    # R (norm_f + norm_g) spacings in two steps of 2^-537, so that it
    # neither overflows nor reaches the subnormal grid before the last one
    spread = math.ldexp(r * math.ldexp(norm_f + norm_g, -537), -537)
    return (*((k * r + 2.0) * SUBNORMAL_SPACING for k in (1, 2, 3)),
            spread + (2.0 * r + math.sqrt(2.0 * n) + 2.0) * SUBNORMAL_SPACING)


def _skipped(name: str, note: Optional[str] = None) -> LawEntry:
    return LawEntry(name, 0.0, 0.0, True, skipped=True, note=note)


def _vanishing(roots):
    """x -> |prod (x - p)| over the roots p: with the plan's values as roots,
    the congruence law's perturbation of f, 0 at every eigenvalue the
    calculus evaluates f at; 0 at an exact root before any product, which
    may overflow (inf * 0 is nan) where the spectrum is wide."""
    roots = [complex(p) for p in roots]
    exact = frozenset(roots)

    def vanish(x):
        z = complex(x)
        if z in exact:
            return 0.0
        prod = 1.0 + 0.0j
        for p in roots:
            prod *= z - p
        return abs(prod)

    return vanish


def _hausdorff(xs, ys) -> float:
    """Of two finite sets of ring scalars (floats or complex numbers)."""
    d1 = max([min([abs(x - y) for y in ys]) for x in xs])
    d2 = max([min([abs(x - y) for x in xs]) for y in ys])
    return max(d1, d2)


def check_laws(
    a, f: ScalarFunction, g: ScalarFunction, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL,
) -> LawReport:
    """Evaluate the derived-law suite for one matrix and one function pair.

    Laws whose hypotheses fail (ring predicate, inner junk, f + g or f g
    beyond the float range, oracle guard) are reported as skipped; junk
    totality is checked unconditionally.  One plan of a serves every law on
    a and the oracle's nodes, one of f(a) spectral mapping and staged
    composition, one of -a negation.  f and g are read once each at the
    eigenvalues of a, and the other seven rows on the plan of a are built
    from those values (g at f's values for direct composition), each read
    by the calculus's rule and rebuilt with f's and g's in one stacked
    reconstruction; f's row serves spectral mapping, isometry and the
    oracle's slope, and the range law trusts its ring check.  Negation,
    staged composition and the oracle read f or g at their own points.

    Each law compares an absolute residual with tol times one scale, the
    norm of its own operands: max(||f(a)||, ||g(a)||) for add, their product
    for mul, ||f(a)|| for star and congruence, ||a|| for id, 1 for const
    (|c| >= 2), and max |f| for isometry, whose two sides (the operator
    norm of f(a), from one singular-value solve, and max |f|) are both of
    that size, and for spectral mapping (at max(tol, 1e-8)), whose
    eigenvalues of f(a) carry rounding relative to the largest of them.
    Where f's values lie below the normal range tol times those scales
    underflows, and add, mul, star, congruence, spectral mapping, isometry
    and range (which compares its distance r ||f(a)||_F from C*(a)) add the
    floor _subnormal_floors of the values they compare.
    Negation and composition read a second eigensolve, whose rounding f or
    g carries into the value whatever its norm: they keep a floor, max(1,
    norm).  The oracle interpolates f at cluster means, each within the
    cluster scale 1e-8 ||a|| of its eigenvalues, which moves f and the
    interpolant by up to L 1e-8 ||a|| each at an eigenvalue, L the steepest
    difference quotient of f between two eigenvalues within that scale of
    each other: it meets 1e-8 max(1 + max |f|, 2 sqrt(n) L ||a||).  A law
    whose scale overflows is skipped with a note.
    """
    fring, gring = f.ring, g.ring
    pa = plan(a, ring, tol)
    a, xs = pa.a, pa.values
    n = a.shape[0]
    c = 2.0 if ring is not COMPLEX else 2.0 + 0.5j

    try:
        fx, gx = [f.eval(x) for x in xs], [g.eval(x) for x in xs]
    except Exception:  # _eval_row's rule, for the raw values the rows are built from
        fx = gx = None
    rows = [None, None] if fx is None else [
        _eval_row(fx, n, fring, tol), _eval_row(gx, n, gring, tol)]
    if None not in rows:  # the laws' rows; none is read where f or g fails
        conj = map(complex.conjugate, map(complex, fx)) if fring is COMPLEX else fx
        rows += [_eval_row(values, n, vring, tol) for values, vring in (
            (map(operator.add, fx, gx), fring), (map(operator.mul, fx, gx), fring),
            (conj, fring), (xs, ring), ([c] * n, ring),
            (map(operator.add, fx, map(_vanishing(xs), xs)), fring), (map(g.eval, fx), fring))]
    out_f, out_g, *outs = pa._rebuild(rows)
    junk_ok = not (out_f.junk or out_g.junk) or all(
        (not o.junk) or np.all(o.value == 0) for o in (out_f, out_g)
    )
    entries = [LawEntry("junk_totality", 0.0 if junk_ok else 1.0, 0.5, junk_ok)]

    if out_f.junk or out_g.junk:  # a failed ring predicate makes both junk
        entries.extend(map(_skipped, (
            "add", "mul", "star", "id", "const", "congruence", "spectral_mapping",
            "composition", "negation", "isometry", "range", "oracle")))
        return LawReport(tuple(entries))

    out_sum, out_prod, out_conj, out_id, out_c, out_cong, out_comp_direct = outs
    scale_a = pa.scale * pa.c
    scale_f = fro_norm(out_f.value)
    scale_g = fro_norm(out_g.value)
    floor1, floor2, floor3, floor_mul = _subnormal_floors(n, scale_f, scale_g)

    for name, out, op, expr, scale, floor in (
            ("add", out_sum, operator.add, "f + g", max(scale_f, scale_g), floor3),
            ("mul", out_prod, operator.matmul, "f g", scale_f * scale_g, floor_mul)):
        if out.junk:  # out_f and out_g are sound: expr overflowed at an eigenvalue
            entries.append(_skipped(name, f"{expr} fails at a point of the spectrum"))
        else:
            r = fro_norm(out.value - op(out_f.value, out_g.value))
            entries.append(_within(name, r, scale, tol, floor))

    entries.append(_within("star", fro_norm(out_conj.value - adjoint(out_f.value)), scale_f, tol,
                           floor2))
    entries.append(_within("id", fro_norm(out_id.value - a), scale_a, tol))
    diff = out_c.value.copy()
    diff.reshape(-1)[:: n + 1] -= c
    entries.append(_within("const", fro_norm(diff), 1.0, tol))  # |c| >= 2: tol is the stricter
    entries.append(_within("congruence", fro_norm(out_cong.value - out_f.value), scale_f, tol,
                           floor2))

    # f's row on the plan of a: spectral mapping compares it with the
    # eigenvalues of f(a), unclustered, since f may split a cluster of a or
    # merge two
    frow = rows[0]
    fmax = max(map(abs, frow), default=0.0)
    # f's steepest difference quotient between two eigenvalues within the
    # cluster scale of each other, which the oracle's nodes do not tell apart
    # (the values ascend in real part)
    vals, cut, slope = pa.values, pa.cluster_tol, 0.0
    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            if vals[i].real - vals[j].real > cut:
                break
            e = abs(vals[i] - vals[j])
            if 0.0 < e <= cut:
                slope = max(slope, abs(frow[i] - frow[j]) / e)
    pf = plan(out_f.value, ring, max(tol, 1e-7))
    if pf.error is not None:  # f(a) fails the hypotheses of both laws
        note = f"f(a) is junk over {ring.value} ({pf.reason}): {pf.error}"
        entries.extend(_skipped(nm, note) for nm in ("spectral_mapping", "composition"))
    else:
        entries.append(_within("spectral_mapping", _hausdorff(pf.values, frow), fmax,
                               max(tol, 1e-8), floor1))
        out_comp_staged = pf._apply(g.eval, gring)
        if out_comp_staged.junk:
            entries.append(_skipped("composition", "inner value fails the staged hypotheses"))
        else:
            scale_comp = max(1.0, fro_norm(out_comp_direct.value))
            r = fro_norm(out_comp_direct.value - out_comp_staged.value)
            entries.append(_within("composition", r, scale_comp, tol))

    if ring is NNREAL:
        # -a leaves the ring, so negation transport has no NNReal instance
        entries.append(_skipped("negation", "not applicable over nnreal"))
    else:
        # 0.0 - x keeps the +0.0 imaginary part of a real eigenvalue of -a,
        # which -x would make -0.0, taking f to the other side of a cut
        out_neg = plan(-a, ring, tol)._apply(lambda x: f.eval(0.0 - x), fring)
        r = fro_norm(out_neg.value - out_f.value)
        entries.append(_within("negation", r, max(1.0, scale_f), tol))

    r = abs(operator_norm(out_f.value) - fmax)
    entries.append(_within("isometry", r, fmax, tol, floor1))

    # the distance r ||f(a)||_F from C*(a) against t ||f(a)||_F plus the
    # floor, divided by ||f(a)||_F: r is relative
    t = max(tol, MEMBERSHIP_FLOOR)
    _, r = _elemental_chain(a, unital=True).contains(out_f.value, t)
    t_range = t + floor1 / scale_f if scale_f else t
    entries.append(LawEntry("range", r, t_range, r <= t_range))

    # the oracle's nodes are the spectrum's points (cluster means); f may
    # fail at a mean where it holds at every eigenvalue
    points = pa.points()
    try:
        ref = _interpolate(a, points, _eval_row(map(f.eval, points), len(points), fring, tol))
    except OracleSkipped as exc:
        entries.append(_skipped("oracle", str(exc)))
    else:
        entries.append(_within("oracle", fro_norm(out_f.value - ref),
                               max(1.0 + fmax, 2.0 * math.sqrt(n) * slope * scale_a), 1e-8))

    return LawReport(tuple(entries))
