"""Spectra over each scalar ring, quasiregularity, and the quasispectrum
computed two independent ways (intrinsically in a star-subalgebra, and as the
spectrum of (0, a) in the unitization) so each can serve as the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfc import plan
from .matrix_core import (
    NotInSubalgebra,
    PredicateFailure,  # re-exported: the spectra raise it
    StarSubalgebra,
    as_matrix,
    fro_norm,
    identity,
)
from .scalars import DEFAULT_TOL, ScalarRing, embed
from .unitization import UnitizationElement, uni_represent


@dataclass(frozen=True)
class SpectrumResult:
    ring: ScalarRing
    points: tuple
    multiplicities: tuple
    source: str


@dataclass(frozen=True)
class QuasiregularWitness:
    y: np.ndarray
    residual: float


def spectrum(
    a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
    cluster_tol: float | None = None,
) -> SpectrumResult:
    """Clustered eigenvalues of a, restricted to the scalar ring.

    The ring predicate is checked during the decomposition (PredicateFailure
    when it fails); a restriction failure afterwards signals an inconsistent
    predicate/tolerance interplay and is an error.
    """
    p = plan(a, ring, tol, cluster_tol)
    return SpectrumResult(ring, p.points(), p.multiplicities, "eigen")


def is_quasiregular(B: StarSubalgebra, x, tol: float = DEFAULT_TOL):
    """Does some y in B satisfy x + y + xy = 0 = y + x + yx?

    Solved by least squares over B's basis coordinates, stacking both order
    conditions.  Returns (flag, witness-or-None).
    """
    x = as_matrix(x)
    inside, residual = B.contains(x, max(tol, 1e-8))
    if not inside:
        raise NotInSubalgebra(f"element not in subalgebra (residual {residual:.3e})")
    n = B.ambient_dim
    one_plus = identity(n) + x
    cols = []
    for b in B.basis:
        cols.append(np.concatenate([(one_plus @ b).ravel(), (b @ one_plus).ravel()]))
    system = np.column_stack(cols)
    rhs = np.concatenate([(-x).ravel(), (-x).ravel()])
    coeffs, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    y = np.zeros((n, n), dtype=np.complex128)
    for c, b in zip(coeffs, B.basis):
        y += c * b
    r1 = fro_norm(x + y + x @ y)
    r2 = fro_norm(y + x + y @ x)
    bound = tol * max(1.0, fro_norm(x) ** 2)
    if r1 <= bound and r2 <= bound:
        return True, QuasiregularWitness(y=y, residual=max(r1, r2))
    return False, None


def is_quasiregular_ambient(B: StarSubalgebra, x, tol: float = DEFAULT_TOL) -> bool:
    """Spectral-permanence cross-check: x is quasiregular iff I + x is
    invertible in M_n and (I + x)^-1 - I lies back in B."""
    x = as_matrix(x)
    n = B.ambient_dim
    one_plus = identity(n) + x
    sv_min = float(np.linalg.svd(one_plus, compute_uv=False)[-1])
    if sv_min <= tol * max(1.0, fro_norm(one_plus)):
        return False
    y = np.linalg.inv(one_plus) - identity(n)
    inside, _ = B.contains(y, max(tol, 1e-8))
    return inside


def quasispectrum_intrinsic(
    B: StarSubalgebra, a, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL, cluster_tol: float | None = None,
) -> SpectrumResult:
    """Quasispectrum inside B: 0, plus every nonzero ambient eigenvalue r of a
    for which -(1/r) a fails quasiregularity in B.

    Spectral permanence makes the ambient eigenvalues an exhaustive candidate
    set for matrix subalgebras, so no search over the plane is needed.  The
    points and multiplicities are the plan's; 0 takes the multiplicities of
    the points within its zero cut (1 if there are none).
    """
    a = as_matrix(a)
    inside, residual = B.contains(a, max(tol, 1e-8))
    if not inside:
        raise NotInSubalgebra(f"element not in subalgebra (residual {residual:.3e})")
    p = plan(a, ring, tol, cluster_tol)
    zero_mult = 0
    found = []
    for r, m in zip(p.points(), p.multiplicities):
        if abs(r) <= p.zero_cut:
            zero_mult += m
        elif not is_quasiregular(B, -(1.0 / r) * a, tol)[0]:
            found.append((r, m))
    found.append((embed(0.0, ring), zero_mult or 1))
    points, mults = zip(*sorted(found, key=lambda rm: (rm[0].real, rm[0].imag)))
    return SpectrumResult(ring, points, mults, "intrinsic_quasi")


def quasispectrum_via_unitization(
    a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
    cluster_tol: float | None = None,
) -> SpectrumResult:
    """Quasispectrum as the spectrum of (0, a) in the 2n block representation
    of the minimal unitization; equals sigma(a) union {0} in M_n.  The block
    representation diag(0, a) meets the ring predicate exactly when a does."""
    p = plan(uni_represent(UnitizationElement(0.0, a)), ring, tol, cluster_tol)
    return SpectrumResult(ring, p.points(), p.multiplicities, "unitization_quasi")
