"""The functional calculus itself: the `SpectralPlan` of an element (ring
predicate checked, decomposed and clustered once, then applied to any number
of functions), unital `cfc` over each scalar ring with junk-value semantics
(failed predicate or unevaluable function yields the zero matrix, never an
exception), the non-unital `cfc_n` with its f(0) = 0 guard, and named derived
constructions (sqrt, abs, exp, log, inv, powers, positive/negative parts).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .eigen import (
    DEFAULT_CLUSTER_REL,
    NoConvergence,
    SpectralDecomposition,
    cluster_with_labels,
    hermitian_eigen,
    normal_spectral_decomposition,
)
from .matrix_core import (
    EPS_FLOOR,
    NotInSubalgebra,
    PredicateFailure,
    StarSubalgebra,
    adjoint,
    as_matrix,
    fro_norm,
    nonneg_report,
    predicate_for_ring,
    zeros,
)
from .scalars import DEFAULT_TOL, RestrictionFailure, ScalarRing, restrict_scalar


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function together with its ring discipline.

    `eval` may raise at points outside its domain (e.g. log at 0); on a finite
    spectrum that is the only way the continuity hypothesis can fail.
    """

    eval: Callable
    ring: ScalarRing = ScalarRing.COMPLEX
    name: Optional[str] = None

    def __call__(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class CfcOutcome:
    value: np.ndarray
    junk: bool
    # predicate_failed | eval_failed | zero_condition_failed | decomposition_failed
    reason: Optional[str] = None


class _EvalFailed(Exception):
    pass


def _junk(n: int, reason: str) -> CfcOutcome:
    return CfcOutcome(value=zeros(n), junk=True, reason=reason)


def ring_decomposition(
    a, ring: ScalarRing, tol: float = DEFAULT_TOL, cluster_tol: float | None = None
) -> SpectralDecomposition:
    """Spectral decomposition of a for the calculus over `ring`, checking the
    ring's predicate exactly once on the way: the normal decomposition over
    C, the Hermitian one over R, whose least eigenvalue decides R>=0.

    Raises PredicateFailure when the predicate fails and NoConvergence when
    the eigensolver does.
    """
    if ring is ScalarRing.COMPLEX:
        return normal_spectral_decomposition(a, tol, cluster_tol)
    dec = hermitian_eigen(a, tol)
    if ring is ScalarRing.NNREAL:
        report = nonneg_report(dec.report, float(dec.lam[0]), fro_norm(dec.a))
        if not report.holds:
            raise PredicateFailure(report)
    return dec


def _eval_at(f: ScalarFunction, x, tol: float):
    """f(x) restricted to f's ring within tol; any failure (an exception from
    f, a non-finite value, a value off the ring) raises _EvalFailed."""
    try:
        out = complex(f.eval(x))
        if not (math.isfinite(out.real) and math.isfinite(out.imag)):
            raise ValueError(f"non-finite value at {x!r}")
        return restrict_scalar(out, f.ring, tol)
    except Exception as exc:  # domain errors are data, not bugs
        raise _EvalFailed(str(exc)) from exc


@dataclass(slots=True)
class SpectralPlan:
    """a with its ring predicate checked, decomposed, clustered and its
    clustered spectrum restricted to the ring once, for any number of
    functions.  If the predicate, the eigensolver or the restriction failed,
    `error` holds the failure and every apply is junk."""

    a: np.ndarray
    ring: ScalarRing
    tol: float
    cluster_tol: float
    scale: float
    dec: Optional[SpectralDecomposition] = None
    # cluster representatives restricted to the ring, sorted by (re, im)
    ring_points: tuple = ()
    multiplicities: tuple = ()
    labels: Optional[np.ndarray] = None
    error: Optional[Exception] = None

    @property
    def reason(self) -> Optional[str]:
        """The junk reason of every apply, or None for a sound plan."""
        if self.error is None:
            return None
        if isinstance(self.error, NoConvergence):
            return "decomposition_failed"
        return "predicate_failed"

    @property
    def zero_cut(self) -> float:
        """A point is 0 when its modulus is at most this: cluster_tol, which
        scales with ||a||, floored so that an exact 0 always is."""
        return max(self.cluster_tol, EPS_FLOOR)

    def points(self) -> tuple:
        """The clustered spectrum restricted to the ring; raises the stored
        PredicateFailure, NoConvergence or RestrictionFailure."""
        if self.error is not None:
            raise self.error
        return self.ring_points

    def apply(self, f: ScalarFunction, zero_to_zero: bool = False) -> CfcOutcome:
        """u diag(f(lam)) u*, f evaluated once per cluster, or junk with its
        reason; with zero_to_zero, points at 0 map to 0 unevaluated."""
        n = self.a.shape[0]
        if self.error is not None:
            return _junk(n, self.reason)
        cut = self.zero_cut if zero_to_zero else -1.0  # moduli are never negative
        fvals = []
        try:
            for x in self.ring_points:
                fvals.append(0.0 if abs(x) <= cut else _eval_at(f, x, self.tol))
        except _EvalFailed:
            return _junk(n, "eval_failed")
        fvals = np.array(fvals, dtype=np.complex128)[self.labels]
        u = self.dec.u
        if np.isrealobj(u) and not fvals.imag.any():
            value = ((u * fvals.real) @ u.T).astype(np.complex128)
        else:
            value = (u * fvals) @ adjoint(u)
        return CfcOutcome(value=value, junk=False)


def plan(
    a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
    cluster_tol: float | None = None,
) -> SpectralPlan:
    """Check the ring predicate, decompose and cluster a and restrict its
    clustered spectrum to the ring (within tol * max(1, ||a||_F)), once; the
    default cluster_tol is DEFAULT_CLUSTER_REL * ||a||_F."""
    a = as_matrix(a)
    scale = fro_norm(a)
    if cluster_tol is None:
        cluster_tol = DEFAULT_CLUSTER_REL * scale
    try:
        dec = ring_decomposition(a, ring, tol, cluster_tol)
        spec, labels = cluster_with_labels(dec.lam, cluster_tol)
        rtol = tol * max(1.0, scale)
        points = tuple(map(restrict_scalar, spec.points, repeat(ring), repeat(rtol)))
    except (PredicateFailure, NoConvergence, RestrictionFailure) as exc:
        return SpectralPlan(a, ring, tol, cluster_tol, scale, error=exc)
    return SpectralPlan(a, ring, tol, cluster_tol, scale, dec, points,
                        spec.multiplicities, labels)


def cfc(
    f: ScalarFunction, a, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL, cluster_tol: float | None = None,
) -> CfcOutcome:
    """Apply f to a through the spectral decomposition: u diag(f(lam)) u*.

    Total: if the ring predicate fails, the eigensolver fails, or f fails to
    evaluate at some spectral point, the outcome is the zero matrix flagged
    as junk.
    """
    return plan(a, ring, tol, cluster_tol).apply(f)


def cfc_n(
    f: ScalarFunction, a, B: StarSubalgebra | None = None,
    ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
    cluster_tol: float | None = None,
) -> CfcOutcome:
    """Non-unital calculus: additionally requires f(0) = 0 (within tol),
    since 0 always belongs to the quasispectrum.  A failed ring predicate
    takes precedence over a failed f(0) condition.

    When a subalgebra B is supplied, membership of a is a precondition and
    membership of the result is asserted (range containment).
    """
    if B is not None:
        inside, residual = B.contains(a, max(tol, 1e-8))
        if not inside:
            raise NotInSubalgebra(f"element not in subalgebra (residual {residual:.3e})")
    try:
        f0 = _eval_at(f, 0.0 if ring is not ScalarRing.COMPLEX else 0.0 + 0.0j, tol)
        reason = "zero_condition_failed" if abs(f0) > tol else None
    except _EvalFailed:
        reason = "eval_failed"
    if reason is not None:
        a = as_matrix(a)
        if not predicate_for_ring(a, ring, tol).holds:
            reason = "predicate_failed"
        return _junk(a.shape[0], reason)
    out = plan(a, ring, tol, cluster_tol).apply(f, zero_to_zero=True)
    if B is not None and not out.junk:
        inside, residual = B.contains(out.value, max(tol, 1e-8))
        if not inside:
            raise NotInSubalgebra(
                f"calculus value escaped the subalgebra (residual {residual:.3e})"
            )
    return out


def pos_part(a, tol: float = DEFAULT_TOL) -> CfcOutcome:
    f = ScalarFunction(lambda x: max(x, 0.0), ScalarRing.REAL, "pos")
    return cfc_n(f, a, None, ScalarRing.REAL, tol)


def neg_part(a, tol: float = DEFAULT_TOL) -> CfcOutcome:
    f = ScalarFunction(lambda x: max(-x, 0.0), ScalarRing.REAL, "neg")
    return cfc_n(f, a, None, ScalarRing.REAL, tol)


def identity_function(ring: ScalarRing = ScalarRing.COMPLEX) -> ScalarFunction:
    return ScalarFunction(lambda x: x, ring, "id")


def constant_function(c, ring: ScalarRing = ScalarRing.COMPLEX) -> ScalarFunction:
    return ScalarFunction(lambda x: c, ring, f"const {c}")


_BUILTIN_NAMES = ("sqrt", "abs", "exp", "log", "inv", "pow", "rpow", "id")


def builtin_function(name: str, ring: ScalarRing = ScalarRing.COMPLEX,
                     k: int | None = None, t: float | None = None) -> ScalarFunction:
    """Named scalar functions shared by the library and the CLI."""
    real = ring is not ScalarRing.COMPLEX
    if name == "id":
        fn = lambda x: x
    elif name == "sqrt":
        fn = (lambda x: math.sqrt(x)) if real else cmath.sqrt
    elif name == "abs":
        fn = abs
    elif name == "exp":
        fn = math.exp if real else cmath.exp
    elif name == "log":
        if real:
            fn = math.log
        else:
            def fn(x):
                if x == 0:
                    raise ValueError("log of zero")
                return cmath.log(x)
    elif name == "inv":
        fn = lambda x: 1.0 / x
    elif name == "pow":
        if k is None:
            raise ValueError("builtin 'pow' requires integer exponent k")
        kk = int(k)
        fn = lambda x: x ** kk
    elif name == "rpow":
        if t is None:
            raise ValueError("builtin 'rpow' requires real exponent t")
        tt = float(t)
        if real:
            def fn(x):
                if x < 0:
                    raise ValueError("rpow of a negative real")
                if x == 0 and tt < 0:
                    raise ZeroDivisionError("rpow at zero with negative exponent")
                return x ** tt
        else:
            def fn(x):
                if x == 0 and tt < 0:
                    raise ZeroDivisionError("rpow at zero with negative exponent")
                return x ** tt
    else:
        raise ValueError(f"unknown builtin {name!r} (expected one of {_BUILTIN_NAMES})")
    return ScalarFunction(fn, ring, name)


def cfc_builtin(name: str, a, ring: ScalarRing = ScalarRing.COMPLEX,
                tol: float = DEFAULT_TOL, k: int | None = None,
                t: float | None = None) -> CfcOutcome:
    return cfc(builtin_function(name, ring, k=k, t=t), a, ring, tol)


def loewner_le(f: ScalarFunction, g: ScalarFunction, a,
               ring: ScalarRing = ScalarRing.REAL, tol: float = DEFAULT_TOL) -> bool:
    """Forward direction of the order law: f <= g pointwise on the spectrum
    implies cfc(g, a) - cfc(f, a) is nonnegative."""
    from .matrix_core import is_nonneg

    p = plan(a, ring, tol)
    lhs, rhs = p.apply(f), p.apply(g)
    if lhs.junk or rhs.junk:
        return False
    return is_nonneg(rhs.value - lhs.value, max(tol, 1e-8) * 100).holds
