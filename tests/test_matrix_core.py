import numpy as np
import pytest

from cfckit.matrix_core import (
    DimensionMismatch,
    NotNormal,
    adjoint,
    as_matrix,
    elemental_subalgebra,
    frobenius_inner,
    is_nonneg,
    is_selfadjoint,
    is_star_normal,
    operator_norm,
    subalgebra_contains,
)
from cfckit.sampling import random_normal_matrix, rng_from_seed
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


def test_elemental_basis_stays_orthonormal_with_many_eigenvalues():
    """Words in diag(0..n-1) are nearly parallel; each is orthogonalised
    twice, so the basis stays orthonormal and spans exactly C*(a)."""
    for n, unital, dim in ((24, False, 23), (32, True, 32)):
        a = np.diag(np.arange(float(n)))
        B = elemental_subalgebra(a, unital=unital)
        assert B.dim == dim
        gram = np.array([[frobenius_inner(x, y) for y in B.basis] for x in B.basis])
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
        assert subalgebra_contains(B, a)[0]


def test_elemental_rejects_non_normal():
    with pytest.raises(NotNormal):
        elemental_subalgebra(NILPOTENT)


def test_subalgebra_closure_invariants(rng):
    gen = rng_from_seed(3)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    B = elemental_subalgebra(a, unital=True, tol=1e-9)
    for b in B.basis:
        assert subalgebra_contains(B, adjoint(b), 1e-8)[0]
        for c in B.basis:
            assert subalgebra_contains(B, b @ c, 1e-8)[0]


def test_subalgebra_contains_examples():
    B = elemental_subalgebra(E11, unital=False)
    assert subalgebra_contains(B, E11)[0]
    assert not subalgebra_contains(B, np.eye(2))[0]
    Bn = elemental_subalgebra(np.diag([1.0, 2.0, 3.0]), unital=False)
    a3 = np.diag([1.0, 8.0, 27.0])
    assert subalgebra_contains(Bn, a3, 1e-8)[0]


def test_subalgebra_contains_dimension_mismatch():
    B = elemental_subalgebra(E11, unital=False)
    with pytest.raises(DimensionMismatch):
        subalgebra_contains(B, np.eye(3))
