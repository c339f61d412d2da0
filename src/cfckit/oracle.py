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

from .cfc import ScalarFunction, cfc, constant_function, identity_function, plan
from .matrix_core import (
    MEMBERSHIP_FLOOR,
    _elemental_chain,
    _rescaled,
    adjoint,
    fro_norm,
    identity,
    operator_norm,
)
from .scalars import DEFAULT_TOL, ScalarRing, restrict_scalar

# Interpolation is skipped when two nodes are closer than this, relative to
# the spectrum's diameter: divided differences over such gaps would test
# floating point, not mathematics.
GAP_GUARD_REL = 1e-6


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
    interpolation nodes come from an eigensolve; raises OracleSkipped when
    they are too close together, before f is evaluated."""
    p = plan(a, ring, tol)
    points = p.points()
    values = (complex(restrict_scalar(f.eval(x), f.ring, tol)) for x in points)
    return _interpolate(p.a, points, values)


def _interpolate(a: np.ndarray, points, values) -> np.ndarray:
    """p(a) with no eigensolve, p of degree < k through the k pairs
    (points[i], values[i]) in Newton form at the points x in Leja order.
    For a = s a' as _rescaled takes it, p(a) is q(a') with q through the
    nodes x / s, so a and x stand for a' and x / s below: p(a) = d_0 + (a/c
    - y_0)(d_1 + (a/c - y_1)(...)) in k - 1 products, with y = x / c, c =
    diameter / 4 (a segment's capacity) and d the divided differences at y.
    values, maybe lazy, is read after the gap guard."""
    a, _, s = _rescaled(a)
    # divided as reals: numpy divides a complex array by a float through its
    # reciprocal, which overflows for a subnormal s
    x = (np.array(points, dtype=np.complex128).view(np.float64) / s).view(np.complex128)
    k, n = len(x), a.shape[0]
    dist = np.abs(x[:, None] - x)
    diameter = dist.max()
    dist.reshape(-1)[:: k + 1] = math.inf
    gap = dist.min()
    if gap < GAP_GUARD_REL * diameter:
        raise OracleSkipped(f"minimum spectral gap {float(gap) * s:.3e} below guard "
                            f"({GAP_GUARD_REL:.0e} of diameter {float(diameter) * s:.3e})")
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
    vals = [complex(v) for v in values]
    d = [vals[i] for i in order]
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


def _rel(diff, *scales) -> float:
    return fro_norm(diff) / max((1.0, *scales))


_MISSING = object()


def _memoised(f: ScalarFunction) -> ScalarFunction:
    """f keeping its values and the exceptions it raised.  A repeat of an
    argument object is one lookup by its id (the object is kept alive, so its
    id is not reused); any other argument is looked up by a key that tells
    2.0 from 2+0j and 0.0 from -0.0."""
    feval = f.eval
    by_id, kept, by_key, raised = {}, [], {}, {}
    copysign = math.copysign

    def evaluate(x):
        try:
            return by_id[id(x)]
        except KeyError:
            pass
        try:
            key = (type(x), x, copysign(1.0, x.real), copysign(1.0, x.imag))
            value = by_key.get(key, _MISSING)
        except (AttributeError, TypeError):  # not a hashable number
            return feval(x)
        if value is _MISSING:
            if key in raised:
                raise raised[key]
            try:
                by_key[key] = value = feval(x)
            except Exception as exc:
                raised[key] = exc
                raise
        by_id[id(x)] = value
        kept.append(x)
        return value

    return ScalarFunction(evaluate, f.ring, f.name)


def _compose(g: ScalarFunction, f: ScalarFunction) -> ScalarFunction:
    geval, feval = g.eval, f.eval
    return ScalarFunction(lambda x: geval(feval(x)), f.ring, "g.f")


def _pointwise(op, f: ScalarFunction, g: ScalarFunction, name) -> ScalarFunction:
    feval, geval = f.eval, g.eval
    return ScalarFunction(lambda x: op(feval(x), geval(x)), f.ring, name)


def _conj(f: ScalarFunction) -> ScalarFunction:
    if f.ring is ScalarRing.COMPLEX:
        return ScalarFunction(lambda x: complex(f.eval(x)).conjugate(), f.ring, "conj f")
    return f


def _hausdorff(xs, ys) -> float:
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    d1 = max([min([abs(x - y) for y in ys]) for x in xs])
    d2 = max([min([abs(x - y) for x in xs]) for y in ys])
    return max(d1, d2)


def check_laws(
    a, f: ScalarFunction, g: ScalarFunction, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL,
) -> LawReport:
    """Evaluate the derived-law suite for one matrix and one function pair.

    Laws whose hypotheses fail (ring predicate, inner junk, oracle guard) are
    reported as skipped; junk totality is checked unconditionally.  One plan
    of a serves every law on a and the oracle's nodes (its nine values in one
    apply_all; the range law trusts its ring check), one of f(a) spectral
    mapping and staged composition; negation keeps its own cfc on -a.  f and
    g are evaluated once per distinct argument per trial, raising ones too.
    """
    f, g = _memoised(f), _memoised(g)
    pa = plan(a, ring, tol)
    a = pa.a
    n = a.shape[0]
    c = 2.0 if ring is not ScalarRing.COMPLEX else 2.0 + 0.5j

    # congruence: perturb f by |vanishing polynomial|, which is 0 at every
    # eigenvalue the calculus evaluates f at
    roots = [complex(p) for p in pa.values]

    def vanish(x):
        z = complex(x)
        prod = 1.0 + 0.0j
        for p in roots:
            prod *= z - p
        return abs(prod)

    (out_f, out_g, out_sum, out_prod, out_conj, out_id, out_c, out_cong,
     out_comp_direct) = pa.apply_all([
        f, g, _pointwise(operator.add, f, g, "f+g"),
        _pointwise(operator.mul, f, g, "f*g"), _conj(f), identity_function(ring),
        constant_function(c, ring),
        ScalarFunction(lambda x: f.eval(x) + vanish(x), f.ring, "f+vanish"), _compose(g, f)])
    junk_ok = all(
        (not o.junk) or np.all(o.value == 0) for o in (out_f, out_g)
    )
    entries = [LawEntry("junk_totality", 0.0 if junk_ok else 1.0, 0.5, junk_ok)]

    if out_f.junk or out_g.junk:  # a failed ring predicate makes both junk
        skipped = [
            "add", "mul", "star", "id", "const", "congruence", "spectral_mapping",
            "composition", "negation", "isometry", "range", "oracle",
        ]
        entries.extend(LawEntry(nm, 0.0, 0.0, True, skipped=True) for nm in skipped)
        return LawReport(tuple(entries))

    scale_a = pa.scale * pa.c
    scale_f = fro_norm(out_f.value)
    scale_g = fro_norm(out_g.value)
    tol_h = tol * max(1.0, scale_a, scale_f, scale_g, scale_f * scale_g)

    r = _rel(out_sum.value - (out_f.value + out_g.value))
    entries.append(LawEntry("add", r, tol_h, r <= tol_h))

    r = _rel(out_prod.value - out_f.value @ out_g.value)
    entries.append(LawEntry("mul", r, tol_h, r <= tol_h))

    r = _rel(out_conj.value - adjoint(out_f.value))
    entries.append(LawEntry("star", r, tol_h, r <= tol_h))

    r = _rel(out_id.value - a, scale_a)
    entries.append(LawEntry("id", r, tol * max(1.0, scale_a), r <= tol * max(1.0, scale_a)))

    r = _rel(out_c.value - c * identity(n))
    entries.append(LawEntry("const", r, tol, r <= tol))

    r = _rel(out_cong.value - out_f.value, scale_f)
    entries.append(LawEntry("congruence", r, tol_h, r <= tol_h))

    # the spectrum's points (cluster means) serve spectral mapping and the
    # oracle's nodes; the isometry reads f where the calculus evaluated it
    points = pa.points()
    fpoints = [complex(restrict_scalar(f.eval(x), f.ring, tol)) for x in points]
    pf = plan(out_f.value, ring, max(tol, 1e-7))
    if pf.error is not None:  # f(a) fails the hypotheses of both laws
        note = f"f(a) is junk over {ring.value} ({pf.reason}): {pf.error}"
        entries.extend(LawEntry(nm, 0.0, 0.0, True, skipped=True, note=note)
                       for nm in ("spectral_mapping", "composition"))
    else:
        mapped = sorted(fpoints, key=lambda z: (z.real, z.imag))
        diam = max([abs(p - q) for p in mapped for q in mapped], default=0.0)
        hd = _hausdorff(pf.points(), mapped)
        tol_map = max(tol, 1e-8) * max(1.0, diam)
        entries.append(LawEntry("spectral_mapping", hd, tol_map, hd <= tol_map))
        out_comp_staged = pf.apply(g)
        if out_comp_staged.junk:
            entries.append(LawEntry("composition", 0.0, 0.0, True, skipped=True,
                                    note="inner value fails the staged hypotheses"))
        else:
            scale_comp = fro_norm(out_comp_direct.value)
            r = _rel(out_comp_direct.value - out_comp_staged.value, scale_comp)
            t = tol * max(1.0, scale_comp)
            entries.append(LawEntry("composition", r, t, r <= t))

    if ring is ScalarRing.NNREAL:
        # -a leaves the ring, so negation transport has no NNReal instance
        entries.append(LawEntry("negation", 0.0, 0.0, True, skipped=True,
                                note="not applicable over nnreal"))
    else:
        out_neg = cfc(ScalarFunction(lambda x: f.eval(-x), f.ring, "f(-x)"),
                      -a, ring, tol)
        r = _rel(out_neg.value - out_f.value, scale_f)
        entries.append(LawEntry("negation", r, tol_h, r <= tol_h))

    fmax = max((abs(restrict_scalar(f.eval(x), f.ring, tol)) for x in pa.values),
               default=0.0)
    r = abs(operator_norm(out_f.value) - fmax) / max(1.0, fmax)
    entries.append(LawEntry("isometry", r, tol, r <= tol))

    t = max(tol, MEMBERSHIP_FLOOR)
    inside, r = _elemental_chain(a, unital=True).contains(out_f.value, t)
    entries.append(LawEntry("range", r, t, inside))

    try:
        ref = _interpolate(a, points, fpoints)
    except OracleSkipped as exc:
        entries.append(LawEntry("oracle", 0.0, 0.0, True, skipped=True, note=str(exc)))
    else:
        t = 1e-8 * max(1.0, 1.0 + fmax, scale_a)
        r = fro_norm(out_f.value - ref) / max(1.0, (1.0 + fmax) * max(scale_a, 1.0))
        entries.append(LawEntry("oracle", r, t, r <= t))

    return LawReport(tuple(entries))
