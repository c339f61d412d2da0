"""Spectra over each scalar ring, quasiregularity, and the quasispectrum
computed two independent ways (intrinsically in a star-subalgebra, and as the
spectrum of (0, a) in the unitization) so each can serve as the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfc import plan
from .eigen import tie_sorted
from .matrix_core import (
    PredicateFailure,  # re-exported: the spectra raise it
    StarSubalgebra,
    _rescaled,
    as_matrix,
    fro_norm,
    identity,
)
from .scalars import DEFAULT_TOL, ScalarRing, embed
from .unitization import UnitizationElement, uni_represent


@dataclass(slots=True)
class SpectrumResult:
    ring: ScalarRing
    points: tuple
    multiplicities: tuple
    source: str


@dataclass(slots=True)
class QuasiregularWitness:
    y: np.ndarray
    residual: float


def spectrum(a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL) -> SpectrumResult:
    """The plan's eigenvalues, ring scalars already, in clusters of diameter
    <= DEFAULT_CLUSTER_REL * ||a||_F, each represented by its mean.

    The ring predicate is checked during the decomposition (PredicateFailure
    when it fails).
    """
    p = plan(a, ring, tol)
    return SpectrumResult(ring, p.points(), p.multiplicities, "eigen")


def is_quasiregular(B: StarSubalgebra, x, tol: float = DEFAULT_TOL):
    """Does some y in B satisfy x + y + xy = 0 = y + x + yx?

    Solved by least squares in B's coordinates conj(rows conj(v)): x lies in
    B and B is closed under products, so (1 + x) b, b (1 + x) and x do for
    each basis element b, and the two order conditions stack to a 2 dim x
    dim system.  The verdict reads the full-matrix residuals of y.  Returns
    (flag, witness-or-None).
    """
    x = as_matrix(x)
    B.require(x, tol)
    n = B.ambient_dim
    one_plus = identity(n) + x

    def coordinates(v):  # column j: the coordinates of the row v[j]
        return np.conj(B.rows @ np.conj(v).T)

    system = np.concatenate([coordinates((one_plus @ B.basis).reshape(B.dim, -1)),
                             coordinates((B.basis @ one_plus).reshape(B.dim, -1))])
    rhs = coordinates(-x.ravel())
    coeffs, *_ = np.linalg.lstsq(system, np.concatenate([rhs, rhs]), rcond=None)
    y = (coeffs @ B.rows).reshape(n, n)
    r1 = fro_norm(x + y + x @ y)
    r2 = fro_norm(y + x + y @ x)
    bound = tol * max(1.0, fro_norm(x) ** 2)
    if r1 <= bound and r2 <= bound:
        return True, QuasiregularWitness(y=y, residual=max(r1, r2))
    return False, None


def quasispectrum_intrinsic(
    B: StarSubalgebra, a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
) -> SpectrumResult:
    """Quasispectrum inside B: 0, plus every nonzero ambient eigenvalue r of a
    for which -(1/r) a fails quasiregularity in B, tested as -b / (r/c) for
    a = c b as _rescaled takes it, which stays in the float range.

    Spectral permanence makes the ambient eigenvalues an exhaustive candidate
    set for matrix subalgebras, so no search over the plane is needed.  The
    points and multiplicities are the plan's; 0 takes the multiplicities of
    the points within the cluster scale of it (1 if there are none).
    """
    p = plan(a, ring, tol)
    B.require(p.a, tol)
    b = _rescaled(p.a)[0]
    zero_mult = 0
    found = []
    for r, m in zip(p.points(), p.multiplicities):
        if abs(r) <= p.cluster_tol:
            zero_mult += m
        elif not is_quasiregular(B, -b / (r / p.c), tol)[0]:
            found.append((r, m))
    found.append((embed(0.0, ring), zero_mult or 1))
    points, mults = zip(*tie_sorted(found, p.cluster_tol))
    return SpectrumResult(ring, points, mults, "intrinsic_quasi")


def quasispectrum_via_unitization(
    a, ring: ScalarRing = ScalarRing.COMPLEX, tol: float = DEFAULT_TOL,
) -> SpectrumResult:
    """Quasispectrum as the spectrum of (0, a) in the 2n block representation
    of the minimal unitization; equals sigma(a) union {0} in M_n.  The block
    representation diag(0, a) meets the ring predicate exactly when a does."""
    p = plan(uni_represent(UnitizationElement(0.0, a)), ring, tol)
    return SpectrumResult(ring, p.points(), p.multiplicities, "unitization_quasi")
