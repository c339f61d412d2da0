"""Spectra over each scalar ring, quasiregularity, and the quasispectrum
computed two independent ways (intrinsically in a star-subalgebra, and as the
spectrum of (0, a) in the unitization) so each can serve as the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfc import plan
from .eigen import cluster_with_labels
from .matrix_core import (
    NotInSubalgebra,
    PredicateFailure,  # re-exported: the spectra raise it
    StarSubalgebra,
    as_matrix,
    fro_norm,
    identity,
)
from .scalars import DEFAULT_TOL, ScalarRing, restrict_scalar
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
    return SpectrumResult(ring, p.points(), p.spec.multiplicities, "eigen")


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


def _quasi_result(points, mults, ring, tol, scale, source, cluster_tol):
    spec, _ = cluster_with_labels(np.asarray(points, dtype=np.complex128), cluster_tol)
    # clustering collapses duplicates; recover multiplicities from the inputs
    out_points = []
    out_mults = []
    for p in spec.points:
        total = 0
        for q, m in zip(points, mults):
            if abs(q - p) <= max(cluster_tol, 1e-300) or q == p:
                total += m
        out_points.append(p)
        out_mults.append(total)
    base = SpectrumResult(ring, tuple(out_points), tuple(out_mults), source)
    rtol = tol * max(1.0, scale)
    restricted = tuple(restrict_scalar(z, ring, rtol) for z in base.points)
    return SpectrumResult(ring, restricted, base.multiplicities, source)


def quasispectrum_intrinsic(
    B: StarSubalgebra, a, ring: ScalarRing = ScalarRing.COMPLEX,
    tol: float = DEFAULT_TOL, cluster_tol: float | None = None,
) -> SpectrumResult:
    """Quasispectrum inside B: 0, plus every nonzero ambient eigenvalue r of a
    for which -(1/r) a fails quasiregularity in B.

    Spectral permanence makes the ambient eigenvalues an exhaustive candidate
    set for matrix subalgebras, so no search over the plane is needed.
    """
    a = as_matrix(a)
    inside, residual = B.contains(a, max(tol, 1e-8))
    if not inside:
        raise NotInSubalgebra(f"element not in subalgebra (residual {residual:.3e})")
    p = plan(a, ring, tol, cluster_tol)
    if p.error is not None:
        raise p.error
    points = [0.0 + 0.0j]
    mults = [1]
    zero_cut = max(p.cluster_tol, 1e-300)
    for r, m in zip(p.spec.points, p.spec.multiplicities):
        if abs(r) <= zero_cut:
            mults[0] = m
            continue
        quasireg, _ = is_quasiregular(B, -(1.0 / r) * a, tol)
        if not quasireg:
            points.append(r)
            mults.append(m)
    return _quasi_result(points, mults, ring, tol, p.scale, "intrinsic_quasi", p.cluster_tol)


def quasispectrum_via_unitization(
    a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
    cluster_tol: float | None = None,
) -> SpectrumResult:
    """Quasispectrum as the spectrum of (0, a) in the 2n block representation
    of the minimal unitization; equals sigma(a) union {0} in M_n.  The block
    representation diag(0, a) meets the ring predicate exactly when a does."""
    p = plan(uni_represent(UnitizationElement(0.0, a)), ring, tol, cluster_tol)
    return SpectrumResult(ring, p.points(), p.spec.multiplicities, "unitization_quasi")
