"""Seeded random generators for matrices and scalar functions.

Eigenvalues are drawn from a well-spaced grid so randomized law checks probe
the algebra, not the conditioning of nearly colliding spectra.  Everything is
driven by an explicit numpy Generator for reproducibility.
"""

from __future__ import annotations

import numpy as np

from .cfc import ScalarFunction
from .matrix_core import adjoint
from .scalars import ScalarRing

# Grid of admissible eigenvalue real parts in [-1, 1]; spacing 0.25 keeps
# every spectrum far from the oracle's gap guard and clustering tolerance.
_GRID = np.linspace(-1.0, 1.0, 9)


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed R."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def spaced_eigenvalues(rng: np.random.Generator, n: int, ring: ScalarRing,
                       nonzero: bool = False):
    """n eigenvalues on the grid (distinct real parts; repeats are exact).

    Complex ring values get a random imaginary part; real/nnreal values stay
    on the grid.  `nonzero` keeps every value away from 0.
    """
    k = int(rng.integers(1, n + 1))
    grid = _GRID
    if ring is ScalarRing.NNREAL:
        grid = grid[grid >= 0.25] if nonzero else grid[grid >= 0.0]
    elif nonzero:
        grid = grid[np.abs(grid) >= 0.25]
    k = min(k, len(grid))
    reals = rng.choice(grid, size=k, replace=False)
    if ring is ScalarRing.COMPLEX:
        imags = rng.choice(_GRID, size=k, replace=True)
        base = reals + 1j * imags
    else:
        base = reals.astype(np.complex128)
    idx = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    return base[idx]


def random_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    u = random_unitary(rng, len(lam))
    return (u * lam) @ adjoint(u)


def random_normal_matrix(rng: np.random.Generator, n: int,
                         ring: ScalarRing = ScalarRing.COMPLEX,
                         nonzero: bool = False) -> np.ndarray:
    a = random_with_spectrum(rng, spaced_eigenvalues(rng, n, ring, nonzero=nonzero))
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    return a


def random_poly_function(rng: np.random.Generator, ring: ScalarRing) -> ScalarFunction:
    """Random cubic respecting the ring discipline (real coefficients on R,
    nonnegative coefficients on R>=0 so values stay in the semiring)."""
    if ring is ScalarRing.COMPLEX:
        coeffs = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    elif ring is ScalarRing.REAL:
        coeffs = rng.uniform(-1, 1, 4).astype(np.complex128)
    else:
        coeffs = rng.uniform(0, 1, 4).astype(np.complex128)
    coeffs = tuple(complex(c) for c in coeffs)

    def evaluate(x):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * x + c
        if ring is ScalarRing.COMPLEX:
            return acc
        return acc.real

    return ScalarFunction(evaluate, ring, "poly deg 3")
