import math
import time
import tracemalloc

import numpy as np
import pytest

from cfckit.matrix_core import (
    DimensionMismatch,
    NotNormal,
    adjoint,
    as_matrix,
    elemental_subalgebra,
    fro_norm,
    is_nonneg,
    is_selfadjoint,
    is_star_normal,
    operator_norm,
)
from cfckit.sampling import random_normal_matrix, random_unitary, rng_from_seed
from cfckit.scalars import ScalarRing

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


def test_adjoint_examples():
    assert np.array_equal(adjoint(NILPOTENT), np.array([[0, 0], [1, 0]]))
    assert np.array_equal(adjoint(np.array([[1j]])), np.array([[-1j]]))
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))


def test_adjoint_is_antimultiplicative_involution(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(adjoint(adjoint(a)), a)
    assert np.allclose(adjoint(a @ b), adjoint(b) @ adjoint(a))


def test_operator_norm_examples():
    assert operator_norm(np.diag([1, -3])) == pytest.approx(3.0)
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    # a* a = diag(0, 4), largest eigenvalue 4, norm sqrt(4) = 2
    assert operator_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)
    # a* a overflows or underflows at these scales unless a is rescaled
    for s in (1e155, 1e-170, 1e-160):
        assert operator_norm(s * np.diag([3.0, 1.0])) == pytest.approx(3.0 * s, rel=1e-12)


def test_cstar_identity_on_random_matrices(rng):
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lhs = operator_norm(adjoint(a) @ a)
        rhs = operator_norm(a) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)


def test_normal_predicate():
    assert is_star_normal(np.diag([1 + 1j, 2])).holds
    assert not is_star_normal(NILPOTENT).holds
    assert is_star_normal(np.zeros((3, 3))).holds  # predicate holds at 0


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e155])
def test_normal_residual_from_one_product_matches_the_commutator(scale):
    """is_star_normal forms h k (a = h + i k) in place of a*a and aa*; its
    residual must be ||a*a - aa*||_F / ||a||_F^2 to rounding, the reference
    taken of a / max|a_ij| so that it cannot overflow."""
    gen = rng_from_seed(21)
    inputs = []
    for n in (1, 2, 4, 7):
        square = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        inputs += [random_normal_matrix(gen, n, ScalarRing.COMPLEX),
                   random_normal_matrix(gen, n, ScalarRing.REAL),
                   square, np.triu(square, 1)]
    for a in inputs:
        a = scale * a
        b = a / max(np.max(np.abs(a)), 1e-300)
        direct = fro_norm(adjoint(b) @ b - b @ adjoint(b)) / max(fro_norm(b) ** 2, 1e-300)
        rep = is_star_normal(a)
        assert abs(rep.residual - direct) <= 1e-14 * max(1.0, direct)
        assert rep.holds == (direct <= rep.tol_used)


def test_normal_predicate_where_the_frobenius_norm_overflows():
    # finite entries whose ||a||_F is inf: the predicate still decides
    assert fro_norm(np.full((3, 3), 1e308)) == math.inf
    rep = is_star_normal(np.triu(np.full((3, 3), 1e308)))
    assert not rep.holds and rep.residual == pytest.approx(0.5773502691896257, rel=1e-12)
    assert is_star_normal(np.diag([1e308, -1e308, 1e308j, 1e308])).holds


def test_selfadjoint_predicate():
    assert is_selfadjoint(np.array([[0, 1], [1, 0]])).holds
    assert not is_selfadjoint(np.array([[0, -1], [1, 0]])).holds
    assert is_selfadjoint(np.zeros((2, 2))).holds


def test_nonneg_predicate(rng):
    assert is_nonneg(np.diag([0, 3])).holds
    assert not is_nonneg(np.diag([1, -1])).holds
    for _ in range(10):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert is_nonneg(adjoint(b) @ b, 1e-9).holds


def test_predicate_chain(rng):
    gen = rng_from_seed(7)
    for _ in range(10):
        a = random_normal_matrix(gen, 5, ScalarRing.NNREAL)
        assert is_nonneg(a).holds
        assert is_selfadjoint(a).holds
        assert is_star_normal(a).holds


def test_predicate_report_fields():
    rep = is_selfadjoint(np.array([[0, -1], [1, 0]]), tol=1e-8)
    assert rep.predicate == "selfadjoint"
    assert rep.tol_used == 1e-8
    assert rep.holds == (rep.residual <= rep.tol_used)


@pytest.mark.parametrize("a, dtype", [
    ([[True, False], [False, True]], np.float64),
    (np.eye(2, dtype=np.int8), np.float64),
    (np.eye(2, dtype=np.uint64), np.float64),
    ([[1, 2], [2, 1]], np.float64),
    (np.eye(2, dtype=np.float32), np.float64),
    (np.eye(2), np.float64),
    ([[1, 2j], [-2j, 1]], np.complex128),
    (np.eye(2, dtype=np.complex64), np.complex128),
    (np.array([[1, 2], [3, 4]], dtype=object), np.complex128),
])
def test_as_matrix_keeps_real_input_real(a, dtype):
    m = as_matrix(a)
    assert m.dtype == dtype
    assert np.array_equal(m, np.asarray(a, dtype=np.complex128))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan]]))


def test_elemental_dimension_examples():
    assert elemental_subalgebra(np.diag([1.0, 2.0]), unital=True).dim == 2
    B = elemental_subalgebra(E11, unital=False)
    assert B.dim == 1
    assert np.allclose(np.abs(B.basis[0]), E11.real)
    assert elemental_subalgebra(3.5 * np.eye(4), unital=True).dim == 1


def test_elemental_dimension_counts_distinct_eigenvalues(rng):
    gen = rng_from_seed(11)
    for lam in ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [2.0, 2.0, 5.0]):
        from cfckit.sampling import random_with_spectrum

        a = random_with_spectrum(gen, lam)
        k = len(set(lam))
        assert elemental_subalgebra(a, unital=True).dim == k
        expected = k - (1 if 0.0 in lam else 0)
        assert elemental_subalgebra(a, unital=False).dim == expected


def _conjugate(seed, spectrum):
    """(generator, lam, u, u diag(lam) u*): lam drawn by `spectrum`, then u
    a random unitary, from one seeded generator."""
    gen = rng_from_seed(seed)
    lam = np.asarray(spectrum(gen), dtype=complex)
    u = random_unitary(gen, len(lam))
    return gen, lam, u, (u * lam) @ adjoint(u)


def _disk(n):
    return lambda gen: np.sqrt(gen.uniform(0, 1, n)) * np.exp(2j * np.pi * gen.uniform(0, 1, n))


def _circle(k, copies=1):
    return lambda gen: np.repeat(np.exp(2j * np.pi * np.arange(k) / k), copies)


def _line(k, copies=1):
    return lambda gen: np.repeat(np.linspace(-1.0, 1.0, k), copies)


def test_elemental_basis_stays_orthonormal_with_many_eigenvalues():
    """Words in diag(0..n-1) are nearly parallel; each is orthogonalised
    twice, so the basis stays orthonormal and spans exactly C*(a).  On
    random-unitary conjugates rounding leaves the diagonal, and the chain
    must end where C*(a) does, not grow into M_n."""
    for n, unital, dim in ((24, False, 23), (32, True, 32)):
        a = np.diag(np.arange(float(n)))
        B = elemental_subalgebra(a, unital=unital)
        assert B.dim == dim
        gram = np.array([[np.vdot(x, y) for y in B.basis] for x in B.basis])
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
        assert B.contains(a)[0]
    near_degenerate = lambda gen: np.concatenate([[0.0, 1.0, 1.0 + 1e-5], np.linspace(2.0, 3.0, 9)])
    spectra = [near_degenerate, _line(26), _circle(26), _line(13, 2), _disk(26),
               _line(32), _circle(32), _line(16, 2), _circle(64), _circle(32, 2)]
    for seed, spectrum in enumerate(spectra):
        gen, lam, u, a = _conjugate(seed, spectrum)
        distinct, label = np.unique(lam, return_inverse=True)
        B = elemental_subalgebra(a, unital=True)
        assert B.dim == len(distinct)
        q = np.array(B.basis).reshape(B.dim, -1)
        assert np.max(np.abs(q.conj() @ q.T - np.eye(B.dim))) <= 1e-12
        values = gen.standard_normal(len(distinct)) + 1j * gen.standard_normal(len(distinct))
        for f in (lam, np.exp(lam), values[label]):
            assert B.contains((u * f) @ adjoint(u), 1e-8)[0]


def test_elemental_chain_stays_inside_c_star_at_n_64():
    """Past about 45 distinct eigenvalues on a line or disk the chain stops
    short of C*(a), but what it keeps commutes with a, holds a and exp(a),
    and is built in well under a second."""
    for seed, spectrum in enumerate((_line(64), _disk(64), _line(32, 2))):
        _, lam, u, a = _conjugate(seed, spectrum)
        start = time.process_time()  # CPU time: other load does not count
        B = elemental_subalgebra(a, unital=True)
        assert time.process_time() - start < 1.0
        assert B.dim <= len(np.unique(lam))
        for b in B.basis:
            assert fro_norm(b @ a - a @ b) <= 1e-6 * fro_norm(a)
        for f in (lam, np.exp(lam)):
            assert B.contains((u * f) @ adjoint(u), 1e-8)[0]


def test_elemental_basis_is_sized_by_its_dimension_not_by_n():
    """A projection's C*(a) has dimension 2 at any n: building it holds a
    few n x n rows, not an (n, n^2) array, and the basis keeps only its own."""
    n = 128
    a = np.diag(np.arange(n) % 2).astype(np.complex128)
    tracemalloc.start()
    try:
        B = elemental_subalgebra(a, unital=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entry = np.dtype(np.complex128).itemsize * n * n
    assert B.dim == 2
    assert peak <= 16 * entry  # n^3 entries would be 128 * entry
    assert held <= 3 * entry


def test_elemental_rejects_non_normal():
    with pytest.raises(NotNormal):
        elemental_subalgebra(NILPOTENT)


def test_subalgebra_closure_invariants(rng):
    gen = rng_from_seed(3)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    B = elemental_subalgebra(a, unital=True, tol=1e-9)
    for b in B.basis:
        assert B.contains(adjoint(b), 1e-8)[0]
        for c in B.basis:
            assert B.contains(b @ c, 1e-8)[0]


def test_subalgebra_contains_examples():
    B = elemental_subalgebra(E11, unital=False)
    assert B.contains(E11)[0]
    assert not B.contains(np.eye(2))[0]
    Bn = elemental_subalgebra(np.diag([1.0, 2.0, 3.0]), unital=False)
    a3 = np.diag([1.0, 8.0, 27.0])
    assert Bn.contains(a3, 1e-8)[0]


def test_subalgebra_contains_dimension_mismatch():
    B = elemental_subalgebra(E11, unital=False)
    with pytest.raises(DimensionMismatch):
        B.contains(np.eye(3))
