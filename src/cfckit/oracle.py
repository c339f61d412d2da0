"""Independent ground truth for the calculus: polynomials in z and conj(z)
evaluated by direct matrix arithmetic (no eigendecomposition), interpolation
on the finite spectrum in Newton form at Leja-ordered nodes, and the
law-check harness.

On a finite spectrum the interpolant in z alone already agrees with f at every
spectral point, so exact interpolation stands in for a density argument; this
is the one place the finite-dimensional setting is strictly stronger than the
general theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cfc import ScalarFunction, cfc, identity_function, plan
from .matrix_core import (
    NotNormal,
    adjoint,
    as_matrix,
    elemental_subalgebra,
    fro_norm,
    identity,
    is_star_normal,
    operator_norm,
    zeros,
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


def poly_eval(p: StarPolynomial, a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate p on a normal matrix by direct products, a* substituted for conj(z)."""
    a = as_matrix(a)
    report = is_star_normal(a, tol)
    if not report.holds:
        raise NotNormal(report)
    n = a.shape[0]
    max_k = max((k for k, _, _ in p.terms), default=0)
    max_m = max((m for _, m, _ in p.terms), default=0)
    pow_a = [identity(n)]
    for _ in range(max_k):
        pow_a.append(pow_a[-1] @ a)
    ah = adjoint(a)
    pow_ah = [identity(n)]
    for _ in range(max_m):
        pow_ah.append(pow_ah[-1] @ ah)
    out = zeros(n)
    for k, m, c in p.terms:
        out += complex(c) * (pow_a[k] @ pow_ah[m])
    return out


def cfc_oracle(
    f: ScalarFunction, a, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL, cluster_tol: float | None = None,
) -> np.ndarray:
    """Uniqueness oracle: interpolate f on the clustered spectrum of a, then
    evaluate the interpolant on a by plain matrix arithmetic.  Only the
    interpolation nodes come from an eigensolve; raises OracleSkipped when
    they are too close together, before f is evaluated."""
    p = plan(a, ring, tol, cluster_tol)
    points = p.points()
    values = (complex(restrict_scalar(f.eval(x), f.ring, tol)) for x in points)
    return _interpolate(p.a, points, values)


def _interpolate(a: np.ndarray, points, values) -> np.ndarray:
    """p(a) with no eigensolve, p of degree < k through the k pairs
    (points[i], values[i]) in Newton form at the points x in Leja order:
    p(a) = d_0 + (a/c - y_0)(d_1 + (a/c - y_1)(...)) in k - 1 products, with
    y = x / c, c = diameter / 4 (a segment's capacity) and d the divided
    differences at y.  values, maybe lazy, is read after the gap guard."""
    x = np.array(points, dtype=np.complex128)
    k, n = len(x), a.shape[0]
    dist = np.abs(x[:, None] - x)
    gap, diameter = dist[np.triu_indices(k, 1)].min(initial=math.inf), dist.max()
    if gap < GAP_GUARD_REL * diameter:
        raise OracleSkipped(f"minimum spectral gap {gap:.3e} below guard "
                            f"({GAP_GUARD_REL:.0e} of diameter {diameter:.3e})")
    c = diameter / 4 or 1.0
    # Leja order: the node of largest modulus first, then each time the node
    # with the largest product of distances to those already taken
    order = [int(np.argmax(np.abs(x)))]
    reach = np.ones(k)
    for _ in range(k - 1):
        reach *= dist[order[-1]] / c
        reach[order] = -1.0
        order.append(int(np.argmax(reach)))
    y = x[order] / c
    d = np.array(list(values), dtype=np.complex128)[order]
    for j in range(1, k):
        d[j:] = (d[j:] - d[j - 1:-1]) / (y[j:] - y[:-j])
    b = a / c
    out = d[-1] * identity(n)
    for dj, yj in zip(d[-2::-1], y[-2::-1]):
        out = b @ out - yj * out
        out.flat[:: n + 1] += dj
    return out


@dataclass(frozen=True)
class LawEntry:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: Optional[str] = None


@dataclass(frozen=True)
class LawReport:
    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed or e.skipped for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "laws": [
                {
                    "name": e.name,
                    "residual": e.residual,
                    "tolerance": e.tolerance,
                    "passed": e.passed,
                    "skipped": e.skipped,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }

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


def _memoised(f: ScalarFunction) -> ScalarFunction:
    """f keeping its values; the keys tell 2.0 from 2+0j and 0.0 from -0.0."""
    cache = {}

    def evaluate(x):
        try:
            key = (type(x), x, math.copysign(1.0, x.real), math.copysign(1.0, x.imag))
            return cache[key]
        except KeyError:
            cache[key] = value = f.eval(x)
            return value
        except (AttributeError, TypeError):  # not a hashable number
            return f.eval(x)

    return ScalarFunction(evaluate, f.ring, f.name)


def _compose(g: ScalarFunction, f: ScalarFunction) -> ScalarFunction:
    return ScalarFunction(lambda x: g.eval(f.eval(x)), f.ring, "g.f")


def _pointwise(op, f: ScalarFunction, g: ScalarFunction, name) -> ScalarFunction:
    return ScalarFunction(lambda x: op(f.eval(x), g.eval(x)), f.ring, name)


def _conj(f: ScalarFunction) -> ScalarFunction:
    if f.ring is ScalarRing.COMPLEX:
        return ScalarFunction(lambda x: complex(f.eval(x)).conjugate(), f.ring, "conj f")
    return f


def _hausdorff(xs, ys) -> float:
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    if not xs or not ys:
        return float("inf")
    d1 = max(min(abs(x - y) for y in ys) for x in xs)
    d2 = max(min(abs(x - y) for x in xs) for y in ys)
    return max(d1, d2)


def check_laws(
    a, f: ScalarFunction, g: ScalarFunction, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL, cluster_tol: float | None = None,
) -> LawReport:
    """Evaluate the derived-law suite for one matrix and one function pair.

    Laws whose hypotheses fail (ring predicate, inner junk, oracle guard) are
    reported as skipped; junk totality is checked unconditionally.  One plan
    of a serves every law on a and the oracle's nodes, one of f(a) spectral
    mapping and staged composition; negation keeps its own cfc on -a.  f and
    g are evaluated once per distinct argument for the whole trial.
    """
    f, g = _memoised(f), _memoised(g)
    pa = plan(a, ring, tol, cluster_tol)
    a = pa.a
    n = a.shape[0]
    entries = []

    out_f = pa.apply(f)
    out_g = pa.apply(g)
    junk_ok = all(
        (not o.junk) or np.all(o.value == 0) for o in (out_f, out_g)
    )
    entries.append(LawEntry("junk_totality", 0.0 if junk_ok else 1.0, 0.5, junk_ok))

    if out_f.junk or out_g.junk:  # a failed ring predicate makes both junk
        skipped = [
            "add", "mul", "star", "id", "const", "congruence", "spectral_mapping",
            "composition", "negation", "isometry", "range", "oracle",
        ]
        entries.extend(LawEntry(nm, 0.0, 0.0, True, skipped=True) for nm in skipped)
        return LawReport(tuple(entries))

    scale_a = pa.scale
    scale_f = fro_norm(out_f.value)
    scale_g = fro_norm(out_g.value)
    tol_h = tol * max(1.0, scale_a, scale_f, scale_g, scale_f * scale_g)

    out_sum = pa.apply(_pointwise(lambda x, y: x + y, f, g, "f+g"))
    r = _rel(out_sum.value - (out_f.value + out_g.value))
    entries.append(LawEntry("add", r, tol_h, r <= tol_h))

    out_prod = pa.apply(_pointwise(lambda x, y: x * y, f, g, "f*g"))
    r = _rel(out_prod.value - out_f.value @ out_g.value)
    entries.append(LawEntry("mul", r, tol_h, r <= tol_h))

    out_conj = pa.apply(_conj(f))
    r = _rel(out_conj.value - adjoint(out_f.value))
    entries.append(LawEntry("star", r, tol_h, r <= tol_h))

    out_id = pa.apply(identity_function(ring))
    r = _rel(out_id.value - a, scale_a)
    entries.append(LawEntry("id", r, tol * max(1.0, scale_a), r <= tol * max(1.0, scale_a)))

    c = 2.0 if ring is not ScalarRing.COMPLEX else 2.0 + 0.5j
    out_c = pa.apply(ScalarFunction(lambda x: c, ring, "const"))
    r = _rel(out_c.value - c * identity(n))
    entries.append(LawEntry("const", r, tol, r <= tol))

    # congruence: perturb f by |vanishing polynomial|, which is 0 at every
    # eigenvalue the calculus evaluates f at
    def vanish(x):
        z = complex(x)
        prod = 1.0 + 0.0j
        for p in pa.values:
            prod *= z - complex(p)
        return abs(prod)

    out_cong = pa.apply(
        ScalarFunction(lambda x: f.eval(x) + vanish(x), f.ring, "f+vanish"))
    r = _rel(out_cong.value - out_f.value, scale_f)
    entries.append(LawEntry("congruence", r, tol_h, r <= tol_h))

    # the spectrum's points (cluster means) serve spectral mapping and the
    # oracle's nodes; the isometry reads f where the calculus evaluated it
    points = pa.points()
    fpoints = [complex(restrict_scalar(f.eval(x), f.ring, tol)) for x in points]
    mapped = sorted(fpoints, key=lambda z: (z.real, z.imag))
    pf = plan(out_f.value, ring, max(tol, 1e-7), cluster_tol)
    diam = max(
        (abs(complex(p) - complex(q)) for p in mapped for q in mapped), default=0.0
    )
    hd = _hausdorff(pf.points(), mapped)
    tol_map = max(tol, 1e-8) * max(1.0, diam)
    entries.append(LawEntry("spectral_mapping", hd, tol_map, hd <= tol_map))

    out_comp_direct = pa.apply(_compose(g, f))
    out_comp_staged = pf.apply(g)
    if out_comp_staged.junk:
        entries.append(LawEntry("composition", 0.0, 0.0, True, skipped=True,
                                note="inner value fails the staged hypotheses"))
    else:
        r = _rel(out_comp_direct.value - out_comp_staged.value,
                 fro_norm(out_comp_direct.value))
        t = tol * max(1.0, fro_norm(out_comp_direct.value))
        entries.append(LawEntry("composition", r, t, r <= t))

    if ring is ScalarRing.NNREAL:
        # -a leaves the ring, so negation transport has no NNReal instance
        entries.append(LawEntry("negation", 0.0, 0.0, True, skipped=True,
                                note="not applicable over nnreal"))
    else:
        out_neg = cfc(ScalarFunction(lambda x: f.eval(-x), f.ring, "f(-x)"),
                      -a, ring, tol, cluster_tol)
        r = _rel(out_neg.value - out_f.value, scale_f)
        entries.append(LawEntry("negation", r, tol_h, r <= tol_h))

    fmax = max((abs(restrict_scalar(f.eval(x), f.ring, tol)) for x in pa.values),
               default=0.0)
    r = abs(operator_norm(out_f.value) - fmax) / max(1.0, fmax)
    entries.append(LawEntry("isometry", r, tol, r <= tol))

    B = elemental_subalgebra(a, unital=True, tol=tol)
    inside, r = B.contains(out_f.value, max(tol, 1e-8))
    entries.append(LawEntry("range", r, max(tol, 1e-8), inside))

    try:
        ref = _interpolate(a, points, fpoints)
    except OracleSkipped as exc:
        entries.append(LawEntry("oracle", 0.0, 0.0, True, skipped=True, note=str(exc)))
    else:
        t = 1e-8 * max(1.0, 1.0 + fmax, scale_a)
        r = fro_norm(out_f.value - ref) / max(1.0, (1.0 + fmax) * max(scale_a, 1.0))
        entries.append(LawEntry("oracle", r, t, r <= t))

    return LawReport(tuple(entries))
