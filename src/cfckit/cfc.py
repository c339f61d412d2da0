"""The functional calculus itself: the `SpectralPlan` of an element (ring
predicate checked and decomposed once, then applied to any number of
functions), unital `cfc` over each scalar ring with junk-value semantics
(failed predicate or unevaluable function yields the zero matrix, never an
exception), the non-unital `cfc_n` with its f(0) = 0 guard, and named derived
constructions (sqrt, abs, exp, log, inv, powers, positive/negative parts).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .eigen import DEFAULT_CLUSTER_REL, NoConvergence, _decompose, cluster_with_labels
from .matrix_core import (
    EPS_FLOOR,
    PredicateFailure,
    PredicateReport,
    StarSubalgebra,
    _rescaled,
    adjoint,
    as_matrix,
    fro_norm,
    is_nonneg,
    zeros,
)
from .scalars import DEFAULT_TOL, ScalarRing, embed, restrict_scalar


# Over C, an imaginary part at most this times ||a||_F is rounding of an
# exactly real eigenvalue: the largest measured (Haar-unitary conjugates,
# a neighbour's real part just beyond the cluster scale) was 7.1 eps
# ||a||_F at n = 2, falling with n to 0.03 eps ||a||_F at n = 512.
REAL_SNAP_REL = 64 * sys.float_info.epsilon


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function together with its ring discipline.

    `eval` may raise at points outside its domain (e.g. log at 0); on a finite
    spectrum that is the only way the continuity hypothesis can fail.
    """

    eval: Callable
    ring: ScalarRing = ScalarRing.COMPLEX
    name: Optional[str] = None


@dataclass(slots=True)
class CfcOutcome:
    value: np.ndarray
    junk: bool
    # predicate_failed | eval_failed | zero_condition_failed | decomposition_failed
    reason: Optional[str] = None


class _EvalFailed(Exception):
    pass


def _junk(n: int, reason: str) -> CfcOutcome:
    return CfcOutcome(value=zeros(n), junk=True, reason=reason)


def _eval_row(f: ScalarFunction, xs, tol: float) -> list:
    """[f(x) for x in xs], each value restricted to f's ring within tol; any
    failure (an exception from f, a non-finite value, a value off the ring)
    raises _EvalFailed, since it makes the whole row junk.  A finite Python
    float already in f's real ring is kept as it is; any other value is
    complex(f(x)), which restriction to C leaves alone and which
    restrict_scalar takes to a real ring."""
    feval, ring = f.eval, f.ring
    over_c, over_r = ring is ScalarRing.COMPLEX, ring is ScalarRing.REAL
    isfinite = math.isfinite
    row = []
    append = row.append
    try:
        for x in xs:
            out = feval(x)
            if type(out) is float and not over_c and isfinite(out) and (out >= 0.0 or over_r):
                append(out)
                continue
            out = complex(out)
            if not (isfinite(out.real) and isfinite(out.imag)):
                raise ValueError(f"non-finite value at {x!r}")
            append(out if over_c else restrict_scalar(out, ring, tol))
    except Exception as exc:  # domain errors are data, not bugs
        raise _EvalFailed(str(exc)) from exc
    return row


@dataclass(slots=True)
class SpectralPlan:
    """a with its ring predicate checked and decomposed once, for any number
    of functions: a = u diag(lam) u*, u unitary (real orthogonal when a is
    real symmetric), with the predicate report checked on the way.
    ||a||_F is kept as scale * c, with a = c b and scale = ||b||_F
    (matrix_core._rescaled), so that the cluster scale stays finite where
    ||a||_F overflows.  If the predicate or the eigensolver failed, `error`
    holds the failure, u, lam and report are None and every apply is junk."""

    a: np.ndarray
    ring: ScalarRing
    tol: float
    scale: float
    c: float
    u: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    report: Optional[PredicateReport] = None
    # the eigenvalues restricted to the ring, in the order of u's columns
    values: tuple = ()
    error: Optional[Exception] = None
    _clusters: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def cluster_tol(self) -> float:
        """The cluster scale, DEFAULT_CLUSTER_REL * ||a||_F: points() has
        clusters of diameter at most this, and a point is 0 when its modulus
        is at most this."""
        return DEFAULT_CLUSTER_REL * self.scale * self.c

    def residual(self) -> float:
        """||a - u diag(values) u*||_F / ||a||_F, the backward error of the
        reconstruction every apply uses, taken as ||b - u diag(values/c)
        u*||_F / scale for a = c b, so that it stays relative where ||a||_F
        leaves the normal range; raises the stored error.  The values are
        divided as reals, since numpy divides a complex array by a float
        through 1/c, which overflows for a subnormal c."""
        if self.error is not None:
            raise self.error
        b = _rescaled(self.a)[0]
        lam = np.array(self.values, dtype=self.lam.dtype)
        lam = (lam.view(np.float64) / self.c).view(lam.dtype)
        return fro_norm(b - (self.u * lam) @ adjoint(self.u)) / max(self.scale, EPS_FLOOR)

    @property
    def reason(self) -> Optional[str]:
        """The junk reason of every apply, or None for a sound plan."""
        if self.error is None:
            return None
        if isinstance(self.error, NoConvergence):
            return "decomposition_failed"
        return "predicate_failed"

    def points(self) -> tuple:
        """The means of clusters of diameter <= cluster_tol of the plan's
        values, which are ring scalars already, sorted by (re, im),
        clustered on first use and kept; raises the stored PredicateFailure
        or NoConvergence."""
        if self.error is not None:
            raise self.error
        if self._clusters is None:
            points, multiplicities = cluster_with_labels(self.values, self.cluster_tol)
            points = points.tolist() if self.ring is ScalarRing.COMPLEX else points.real.tolist()
            self._clusters = (tuple(points), multiplicities)
        return self._clusters[0]

    @property
    def multiplicities(self) -> tuple:
        """The cluster sizes, in the order of points()."""
        self.points()
        return self._clusters[1]

    def apply(self, f: ScalarFunction) -> CfcOutcome:
        """u diag(f(lam)) u*, f evaluated at each eigenvalue, or junk with its
        reason.  With a real u the values stay float64 when every one is a
        float, and the value is one real product u diag(f(lam)) u^T; the
        outcome's value is complex128 either way."""
        n = self.a.shape[0]
        if self.error is not None:
            return _junk(n, self.reason)
        try:
            fvals = _eval_row(f, self.values, self.tol)
        except _EvalFailed:
            return _junk(n, "eval_failed")
        fvals = np.array(fvals, dtype=None if self.u.dtype.kind == "f" else np.complex128)
        return CfcOutcome(value=_reconstruct(self.u, fvals), junk=False)

    def apply_all(self, fs) -> list:
        """[apply(f) for f in fs], bit for bit: a failing f is its own eval_failed
        junk, and the value rows are stacked for one reconstruction (rebuilt one
        by one, as apply does, where u is real and some row is not)."""
        n = self.a.shape[0]
        if self.error is not None:
            return [_junk(n, self.reason) for _ in fs]
        rows = []
        for f in fs:
            try:
                rows.append(_eval_row(f, self.values, self.tol))
            except _EvalFailed:
                rows.append(None)
        real = self.u.dtype.kind == "f"
        fvals = np.array([r for r in rows if r is not None], dtype=None if real else np.complex128)
        if real and fvals.dtype != np.float64 and np.count_nonzero(fvals.imag):
            values = iter([_reconstruct(self.u, row) for row in fvals])
        else:
            values = iter(_reconstruct(self.u, fvals) if len(fvals) else ())
        return [_junk(n, "eval_failed") if r is None else CfcOutcome(next(values), False)
                for r in rows]


def _reconstruct(u, fvals):
    """u diag(F) u* for each row F of fvals, (n,) or (k, n), in one product."""
    if u.dtype.kind == "f" and (fvals.dtype == np.float64 or not np.count_nonzero(fvals.imag)):
        return ((u * fvals.real[..., None, :]) @ u.T).astype(np.complex128)
    return (u * fvals[..., None, :]) @ adjoint(u)


def plan(a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL) -> SpectralPlan:
    """Check the ring predicate and decompose a once, keeping its eigenvalues
    as ring scalars: clamped to >= 0 over R>=0, and over C with an imaginary
    part within REAL_SNAP_REL * ||a||_F of 0 set to +0.0, so that sqrt and
    log take the principal branch (Complex.arg in (-pi, pi]) whatever the
    sign of the rounding.  The clustered points are built only when asked
    for, at the cluster scale DEFAULT_CLUSTER_REL * ||a||_F.  a = c b is
    decomposed as b = _rescaled(a), and the eigenvalues and the snap cut are
    multiplied back by c, finite where ||a||_F is not.  Since |lam_b| <=
    ||b||_F, the product lam_b c is finite whenever 2 ||b||_F c is, and then
    needs no check; past that (entries near the float max) an eigenvalue
    whose modulus lies beyond the float range makes the plan NoConvergence."""
    a = as_matrix(a)
    b, scale, c = _rescaled(a)
    try:
        u, lam, report = _decompose(b, ring, tol, scale)
        if c != 1.0 and 2.0 * scale * c < math.inf:
            lam = lam * c
        elif c != 1.0:
            with np.errstate(over="ignore"):
                lam = lam * c
                if np.count_nonzero(np.isinf(np.abs(lam))):
                    raise NoConvergence("an eigenvalue lies beyond the float range")
    except (PredicateFailure, NoConvergence) as exc:
        return SpectralPlan(a, ring, tol, scale, c, error=exc)
    values = lam.tolist()
    if ring is ScalarRing.NNREAL:
        values = [max(x, 0.0) for x in values]
    elif ring is ScalarRing.COMPLEX:  # +0.0: a negative real eigenvalue has arg pi
        cut = REAL_SNAP_REL * scale * c
        values = [complex(z.real) if abs(z.imag) <= cut else z for z in values]
    return SpectralPlan(a, ring, tol, scale, c, u, lam, report, tuple(values))


def cfc(
    f: ScalarFunction, a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
) -> CfcOutcome:
    """Apply f to a through the spectral decomposition: u diag(f(lam)) u*.

    Total: if the ring predicate fails, the eigensolver fails, or f fails to
    evaluate at some spectral point, the outcome is the zero matrix flagged
    as junk.
    """
    return plan(a, ring, tol).apply(f)


def cfc_n(
    f: ScalarFunction, a, B: StarSubalgebra | None = None,
    ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
) -> CfcOutcome:
    """Non-unital calculus: the unital one of f cut at zero (eigenvalues of
    modulus at most the plan's cluster scale map to 0 unevaluated), guarded
    by f(0) = 0 (within tol), since 0 always belongs to the quasispectrum.
    The plan's ring check comes first: a failed predicate takes precedence
    over a failed f(0) condition, which takes precedence over a failed
    decomposition.

    When a subalgebra B is supplied, membership of a is a precondition and
    membership of the result is asserted (range containment).
    """
    if B is not None:
        B.require(a, tol)
    p = plan(a, ring, tol)
    if p.reason != "predicate_failed":
        try:
            if abs(_eval_row(f, (embed(0.0, ring),), tol)[0]) > tol:
                return _junk(p.a.shape[0], "zero_condition_failed")
        except _EvalFailed:
            return _junk(p.a.shape[0], "eval_failed")
    cut, feval = p.cluster_tol, f.eval
    out = p.apply(ScalarFunction(lambda x: 0.0 if abs(x) <= cut else feval(x), f.ring, f.name))
    if B is not None and not out.junk:
        B.require(out.value, tol, "calculus value escaped the subalgebra")
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


@lru_cache(maxsize=len(_BUILTIN_NAMES) * len(ScalarRing))
def builtin_function(name: str, ring: ScalarRing = ScalarRing.COMPLEX,
                     k: int | None = None, t: float | None = None) -> ScalarFunction:
    """Named scalar functions shared by the library and the CLI, built once
    per name, ring and parameters while they fit the bounded cache."""
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
        fn = math.log if real else cmath.log  # both raise ValueError at 0
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

        def fn(x):
            if real and x < 0:
                raise ValueError("rpow of a negative real")
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
    lhs, rhs = plan(a, ring, tol).apply_all((f, g))
    if lhs.junk or rhs.junk:
        return False
    return is_nonneg(rhs.value - lhs.value, max(tol, 1e-8) * 100).holds
