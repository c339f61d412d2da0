"""Seeded benchmark inputs in plain numpy: Haar unitaries combined with chosen
eigenvalues, and the scalar functions applied to them.

Nothing here calls cfckit; the program only ever sees the matrices and
functions built below.  Every function also carries a vectorized form, used
for the reference result and for the floor, and a Lipschitz bound on a given
spectrum, used for the check tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

COMPLEX, REAL, NNREAL = "complex", "real", "nnreal"
RINGS = (COMPLEX, REAL, NNREAL)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream per (seed, tags), so op i is the same whichever
    ops ran before it."""
    return np.random.default_rng([seed, *tags])


def haar(rng: np.random.Generator, n: int, complex_: bool) -> np.ndarray:
    """Haar-distributed unitary (or orthogonal): QR with the phases of R fixed."""
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def with_spectrum(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """u diag(lam) u*, made exactly Hermitian when lam is real."""
    a = (u * lam) @ u.conj().T
    if np.isrealobj(lam):
        a = (a + a.conj().T) / 2
    return a


def jittered(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """`count` ascending values in [lo, hi], one per equal cell, so neighbours
    stay at least half a cell apart: far beyond the clustering tolerance."""
    h = (hi - lo) / count
    return lo + (np.arange(count) + rng.uniform(0.25, 0.75, count)) * h


def eigenvalues(rng, n: int, ring: str, distinct: int, lo: float, hi: float):
    """n eigenvalues with `distinct` different values, repeated as evenly as
    possible.  Complex values get distinct real parts and an imaginary part
    in [-1, 1].  Returns (eigenvalues, the distinct values, multiplicities)."""
    values = jittered(rng, distinct, lo, hi)
    if ring == COMPLEX:
        values = values + 1j * rng.uniform(-1.0, 1.0, distinct)
    mults = np.full(distinct, n // distinct)
    mults[: n % distinct] += 1
    return np.repeat(values, mults), values, mults


GRID = np.linspace(-1.0, 1.0, 9)


def grid_eigenvalues(rng, n: int, ring: str, distinct: int) -> np.ndarray:
    """n eigenvalues with up to `distinct` different values on a grid of
    spacing 0.25 (imaginary parts on the same grid over C), so interpolation
    on the spectrum stays well conditioned."""
    grid = GRID[GRID >= 0.0] if ring == NNREAL else GRID
    distinct = min(distinct, len(grid))
    values = rng.choice(grid, size=distinct, replace=False)
    if ring == COMPLEX:
        values = values + 1j * rng.choice(GRID, size=distinct)
    return values[np.arange(n) % distinct]


def nonnormal(rng, n: int) -> np.ndarray:
    """A complex Gaussian matrix: not normal, far beyond any tolerance."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@dataclass(frozen=True)
class Fn:
    """A scalar function: a cfckit builtin name or a user callable, its
    vectorized form and its Lipschitz bound on a spectrum."""

    name: str
    vec: Callable[[np.ndarray], np.ndarray]
    lip: Callable[[np.ndarray], float]
    scalar: Optional[Callable] = None  # user functions only
    spec: Optional[dict] = None        # CLI function spec


# sqrt and log are only ever checked on positive spectra; taking |x| keeps the
# floor free of NaNs when it runs on the junk inputs with negative eigenvalues.
EXP = Fn("exp", np.exp, lambda lam: math.exp(float(np.max(lam.real))),
         spec={"builtin": "exp"})
SQRT = Fn("sqrt", lambda x: np.sqrt(np.abs(x)),
          lambda lam: 0.5 / math.sqrt(float(np.min(lam.real))))
LOG = Fn("log", lambda x: np.log(np.abs(x)), lambda lam: 1.0 / float(np.min(lam.real)))
ABS = Fn("abs", np.abs, lambda lam: 1.0)
POS = Fn("pos", lambda x: np.maximum(x.real, 0.0), lambda lam: 1.0)
NEG = Fn("neg", lambda x: np.maximum(-x.real, 0.0), lambda lam: 1.0)


def poly(terms) -> Fn:
    """sum of c z^k conj(z)^m over terms (k, m, c)."""
    terms = tuple((int(k), int(m), complex(c)) for k, m, c in terms)

    def scalar(x):
        z = complex(x)
        return sum(c * z**k * z.conjugate() ** m for k, m, c in terms)

    real = all(m == 0 and c.imag == 0 for k, m, c in terms)

    def vec(x):
        if real and np.isrealobj(x):
            return sum(c.real * x**k for k, _, c in terms)
        x = np.asarray(x, dtype=np.complex128)
        return sum(c * x**k * np.conj(x) ** m for k, m, c in terms)

    def lip(lam):
        r = float(np.max(np.abs(lam)))
        return sum(abs(c) * (k + m) * r ** max(k + m - 1, 0) for k, m, c in terms)

    spec = {"poly2": [[k, m, c.real, c.imag] for k, m, c in terms]}
    return Fn("poly", vec, lip, scalar=scalar, spec=spec)


def random_poly(rng, ring: str, zero_at_zero: bool = False) -> Fn:
    """Degree-3 polynomial that respects the ring: complex coefficients and
    conj(z) terms over C, real ones over R, nonnegative ones over R>=0."""
    lo = 1 if zero_at_zero else 0
    if ring == COMPLEX:
        pairs = [(k, 0) for k in range(lo, 4)] + [(0, 1), (1, 1)]
        coeffs = rng.uniform(-1, 1, len(pairs)) + 1j * rng.uniform(-1, 1, len(pairs))
    else:
        pairs = [(k, 0) for k in range(lo, 4)]
        coeffs = rng.uniform(0 if ring == NNREAL else -1, 1, len(pairs))
    return poly([(k, m, c) for (k, m), c in zip(pairs, coeffs)])
