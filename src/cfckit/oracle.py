"""Independent ground truth for the calculus: polynomials in z and conj(z)
evaluated by direct matrix arithmetic (no eigendecomposition), exact Lagrange
interpolation on the finite spectrum, and the law-check harness.

On a finite spectrum the interpolant in z alone already agrees with f at every
spectral point, so exact interpolation stands in for a density argument; this
is the one place the finite-dimensional setting is strictly stronger than the
general theory.
"""

from __future__ import annotations

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
    subalgebra_contains,
    zeros,
)
from .scalars import DEFAULT_TOL, ScalarRing, restrict_scalar
from .spectrum import spectrum

# Interpolation is skipped when the spectrum is this close to degenerate,
# relative to its diameter: Lagrange weights would test floating point,
# not mathematics.
GAP_GUARD_REL = 1e-6


class DuplicatePoints(ValueError):
    pass


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


def lagrange_interpolant(points, values) -> StarPolynomial:
    """The unique degree < k polynomial in z through the given nodes,
    assembled from the Lagrange basis in monomial coefficients."""
    points = [complex(p) for p in points]
    values = [complex(v) for v in values]
    if len(points) != len(values):
        raise ValueError("points and values must have equal length")
    k = len(points)
    for i in range(k):
        for j in range(i + 1, k):
            if points[i] == points[j]:
                raise DuplicatePoints(f"repeated interpolation node {points[i]}")
    coeffs = np.zeros(k, dtype=np.complex128)
    for j in range(k):
        basis = np.array([1.0 + 0.0j])
        denom = 1.0 + 0.0j
        for i in range(k):
            if i == j:
                continue
            basis = np.convolve(basis, np.array([-points[i], 1.0 + 0.0j]))
            denom *= points[j] - points[i]
        coeffs[: len(basis)] += values[j] * basis / denom
    return StarPolynomial(tuple((d, 0, complex(c)) for d, c in enumerate(coeffs)))


def interpolation_residual(p: StarPolynomial, points, values) -> float:
    f = p.as_function()
    return max(
        (abs(f.eval(z) - complex(v)) for z, v in zip(points, values)), default=0.0
    )


def cfc_oracle(
    f: ScalarFunction, a, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL, cluster_tol: float | None = None,
) -> np.ndarray:
    """Uniqueness oracle: interpolate f on the clustered spectrum of a, then
    evaluate the interpolant on a by plain matrix arithmetic.  Only the
    interpolation nodes come from an eigensolve; raises OracleSkipped when
    they are too close together."""
    return _interpolate_on(f, a, spectrum(a, ring, tol, cluster_tol).points, tol)


def _interpolate_on(f: ScalarFunction, a, points, tol: float) -> np.ndarray:
    """p(a) for the Lagrange interpolant p of f on the nodes `points`."""
    nodes = [complex(z) for z in points]
    if len(nodes) > 1:
        gaps = [abs(p - q) for i, p in enumerate(nodes) for q in nodes[i + 1:]]
        diameter = max(gaps)
        if min(gaps) < GAP_GUARD_REL * diameter:
            raise OracleSkipped(
                f"minimum spectral gap {min(gaps):.3e} below guard "
                f"({GAP_GUARD_REL:.0e} of diameter {diameter:.3e})"
            )
    fvals = [complex(restrict_scalar(f.eval(x), f.ring, tol)) for x in points]
    interp = lagrange_interpolant(nodes, fvals)
    return poly_eval(interp, a, tol)


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
    mapping and staged composition; negation keeps its own cfc on -a.
    """
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
    entries.append(LawEntry(
        "add", _rel(out_sum.value - (out_f.value + out_g.value)), tol_h,
        _rel(out_sum.value - (out_f.value + out_g.value)) <= tol_h))

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

    # congruence: perturb f by |vanishing polynomial|, which is 0 on the spectrum
    points = pa.points()

    def vanish(x):
        z = complex(x)
        prod = 1.0 + 0.0j
        for p in points:
            prod *= z - complex(p)
        return abs(prod)

    out_cong = pa.apply(
        ScalarFunction(lambda x: f.eval(x) + vanish(x), f.ring, "f+vanish"))
    r = _rel(out_cong.value - out_f.value, scale_f)
    entries.append(LawEntry("congruence", r, tol_h, r <= tol_h))

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

    fmax = max((abs(z) for z in fpoints), default=0.0)
    r = abs(operator_norm(out_f.value) - fmax) / max(1.0, fmax)
    entries.append(LawEntry("isometry", r, tol, r <= tol))

    B = elemental_subalgebra(a, unital=True, tol=tol)
    inside, r = subalgebra_contains(B, out_f.value, max(tol, 1e-8))
    entries.append(LawEntry("range", r, max(tol, 1e-8), inside))

    try:
        ref = _interpolate_on(f, a, points, tol)
    except OracleSkipped as exc:
        entries.append(LawEntry("oracle", 0.0, 0.0, True, skipped=True, note=str(exc)))
    else:
        t = 1e-8 * max(1.0, 1.0 + fmax, scale_a)
        r = fro_norm(out_f.value - ref) / max(1.0, (1.0 + fmax) * max(scale_a, 1.0))
        entries.append(LawEntry("oracle", r, t, r <= t))

    return LawReport(tuple(entries))
