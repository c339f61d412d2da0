import cmath
import contextlib
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfckit.cfc import (
    ScalarFunction,
    _eval_row,
    _reconstruct,
    builtin_function,
    cfc,
    cfc_builtin,
    cfc_n,
    loewner_le,
    neg_part,
    plan,
    pos_part,
)
from cfckit.eigen import (
    DEFAULT_CLUSTER_REL,
    elemental_subalgebra,
    is_nonneg,
    is_star_normal,
    predicate_for_ring,
)
from cfckit.matrix_core import NotInSubalgebra, PredicateFailure, adjoint, fro_norm, operator_norm
from cfckit.oracle import check_laws
from cfckit.sampling import (
    random_normal_matrix,
    random_poly_function,
    random_unitary,
    random_with_spectrum,
    rng_from_seed,
    spaced_eigenvalues,
)
from cfckit.scalars import DEFAULT_TOL, ScalarRing, restrict_scalar
from cfckit.spectrum import quasispectrum_intrinsic, spectrum

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_cfc_identity_fixes_the_element():
    gen = rng_from_seed(1)
    for ring in ScalarRing:
        a = random_normal_matrix(gen, 5, ring)
        out = cfc(ScalarFunction(lambda x: x, ring), a, ring)
        assert not out.junk
        assert fro_norm(out.value - a) <= 1e-9 * max(1.0, fro_norm(a))


def test_cfc_sqrt_diagonal():
    out = cfc(builtin_function("sqrt", ScalarRing.NNREAL),
              np.diag([1.0, 4.0]), ScalarRing.NNREAL)
    assert np.allclose(out.value, np.diag([1.0, 2.0]))


def test_cfc_non_normal_is_junk_zero():
    out = cfc(builtin_function("exp"), NILPOTENT, ScalarRing.COMPLEX)
    assert out.junk and out.reason == "predicate_failed"
    assert np.all(out.value == 0)


def test_cfc_polynomial_equals_matrix_square():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = cfc(ScalarFunction(lambda x: x * x, ScalarRing.REAL, "sq"), a, ScalarRing.REAL)
    assert np.allclose(out.value, np.array([[5.0, 4.0], [4.0, 5.0]]))


def test_cfc_eval_failure_is_junk():
    out = cfc_builtin("log", np.diag([0.0, 2.0]), ScalarRing.NNREAL)
    assert out.junk and out.reason == "eval_failed"
    assert np.all(out.value == 0)
    out = cfc_builtin("inv", np.diag([0.0, 2.0]), ScalarRing.COMPLEX)
    assert out.junk and out.reason == "eval_failed"
    # cmath.log itself raises ValueError at 0
    out = cfc_builtin("log", np.diag([0, 1 + 1j]))
    assert out.junk and out.reason == "eval_failed"
    # values that are no complex number are failures of f, not of cfc
    for value in (10**400, "a", None):
        out = cfc(ScalarFunction(lambda x, v=value: v), np.eye(2))
        assert out.junk and out.reason == "eval_failed"


@pytest.mark.parametrize("exc", [ValueError, StopIteration])
def test_an_exception_at_the_second_eigenvalue_fails_the_whole_row(exc):
    """f raising at 2 on diag(1, 2) is eval_failed junk, from every path
    that reads f's row (cfc_n's f(0) too, with f shifted by 2); a
    StopIteration, which would end a map early and leave a row of f(1)
    alone, fails it like any other exception."""
    def f(x):
        if abs(x) > 1.5:
            raise exc("outside the domain")
        return x

    a = np.diag([1.0, 2.0])
    for ring in ScalarRing:
        fn, shifted = ScalarFunction(f, ring), ScalarFunction(lambda x: f(x + 2), ring)
        outs = [cfc(fn, a, ring), cfc_n(fn, np.diag([0.0, 1.0, 2.0]), ring=ring),
                cfc_n(shifted, a, ring=ring), *plan(a, ring).apply_all([fn])]
        for out in outs:
            assert out.junk and out.reason == "eval_failed"
            assert np.all(out.value == 0)


def test_cfc_ring_violation_is_junk():
    # real-ring calculus on a normal-but-not-selfadjoint element
    out = cfc(ScalarFunction(lambda x: x, ScalarRing.REAL), np.diag([1j, 2.0]), ScalarRing.REAL)
    assert out.junk and out.reason == "predicate_failed"


def test_cfc_n_identity_and_zero_condition():
    gen = rng_from_seed(2)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    out = cfc_n(ScalarFunction(lambda x: x), a)
    assert not out.junk
    assert fro_norm(out.value - a) <= 1e-9 * max(1.0, fro_norm(a))

    shifted = ScalarFunction(lambda x: x + 1, ScalarRing.COMPLEX, "x+1")
    out = cfc_n(shifted, a)
    assert out.junk and out.reason == "zero_condition_failed"
    assert np.all(out.value == 0)


def test_cfc_n_zero_rule_is_relative_to_the_norm():
    """A point is 0 only within cluster_tol, a fraction of ||a||: a small a
    keeps its small eigenvalues, in cfc_n as in its quasispectrum."""
    for s in (1.0, 1e-10, 1e-150):
        a = s * np.diag([1.0, 2.0, 0.0])
        out = cfc_n(ScalarFunction(lambda x: x), a)
        assert not out.junk
        assert fro_norm(out.value - a) <= 1e-12 * fro_norm(a)
        quasi = quasispectrum_intrinsic(elemental_subalgebra(a, unital=False), a)
        assert np.allclose(quasi.points, [0.0, s, 2 * s], rtol=1e-12, atol=0.0)
        assert quasi.multiplicities == (1, 1, 1)
    # two clusters within cluster_tol of 0 but not of each other: both are 0
    a = np.diag([1.0, 9e-9, -9e-9])
    assert np.array_equal(cfc_n(ScalarFunction(lambda x: x), a).value, np.diag([1.0, 0.0, 0.0]))
    quasi = quasispectrum_intrinsic(elemental_subalgebra(a, unital=False), a)
    assert quasi.points == (0.0, 1.0) and quasi.multiplicities == (2, 1)


def test_cfc_n_range_containment():
    B = elemental_subalgebra(E11, unital=False)
    out = cfc_n(builtin_function("sqrt", ScalarRing.NNREAL), E11, B, ScalarRing.NNREAL)
    assert not out.junk
    assert np.allclose(out.value, E11)
    assert B.contains(out.value)[0]


def test_cfc_n_membership_is_a_genuine_error():
    B = elemental_subalgebra(E11, unital=False)
    with pytest.raises(NotInSubalgebra):
        cfc_n(ScalarFunction(lambda x: x), np.eye(2), B)


def test_cfc_n_matches_cfc_when_f_vanishes_at_zero():
    gen = rng_from_seed(3)
    a = random_normal_matrix(gen, 5, ScalarRing.REAL)
    f = ScalarFunction(lambda x: x * x * x - x, ScalarRing.REAL, "x^3-x")
    lhs = cfc_n(f, a, None, ScalarRing.REAL).value
    rhs = cfc(f, a, ScalarRing.REAL).value
    assert fro_norm(lhs - rhs) <= 1e-9 * max(1.0, fro_norm(rhs))


def test_pos_neg_parts_diagonal():
    a = np.diag([2.0, -3.0])
    assert np.allclose(pos_part(a).value, np.diag([2.0, 0.0]))
    assert np.allclose(neg_part(a).value, np.diag([0.0, 3.0]))


def test_pos_neg_parts_flip_matrix():
    # hand eigendecomposition: eigenvalues +-1 with projections (I +- flip)/2
    p = pos_part(FLIP).value
    q = neg_part(FLIP).value
    assert np.allclose(p, 0.5 * np.array([[1, 1], [1, 1]]))
    assert np.allclose(q, 0.5 * np.array([[1, -1], [-1, 1]]))
    assert np.allclose(p - q, FLIP)
    assert fro_norm(p @ q) <= 1e-12


def test_pos_neg_parts_zero_and_junk():
    assert np.all(pos_part(np.zeros((3, 3))).value == 0)
    out = pos_part(np.diag([1j, 0.0]))
    assert out.junk and out.reason == "predicate_failed"


def test_pos_neg_parts_properties():
    gen = rng_from_seed(4)
    for _ in range(10):
        a = random_normal_matrix(gen, 6, ScalarRing.REAL)
        p = pos_part(a).value
        q = neg_part(a).value
        assert is_nonneg(p, 1e-9).holds and is_nonneg(q, 1e-9).holds
        assert fro_norm(a - (p - q)) <= 1e-10 * max(fro_norm(a), 1.0)
        assert fro_norm(p @ q) <= 1e-10 * max(fro_norm(a) ** 2, 1.0)


def test_builtin_exp_diagonal():
    out = cfc_builtin("exp", np.diag([0.0, math.log(2.0)]), ScalarRing.REAL)
    assert np.allclose(out.value, np.diag([1.0, 2.0]))


def test_builtin_sqrt_hand_example():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = cfc_builtin("sqrt", a, ScalarRing.NNREAL)
    s3 = math.sqrt(3.0)
    expected = 0.5 * np.array([[1 + s3, s3 - 1], [s3 - 1, 1 + s3]])
    assert np.allclose(out.value, expected)
    assert np.allclose(out.value @ out.value, a)


def test_builtin_inverse():
    out = cfc_builtin("inv", np.diag([2.0, 4.0]), ScalarRing.COMPLEX)
    assert np.allclose(out.value, np.diag([0.5, 0.25]))
    gen = rng_from_seed(5)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX, nonzero=True)
    out = cfc_builtin("inv", a)
    assert np.allclose(out.value @ a, np.eye(4), atol=1e-9)


def test_builtin_pow_and_rpow():
    a = np.diag([1.0, 4.0])
    assert np.allclose(cfc_builtin("pow", a, ScalarRing.REAL, k=3).value,
                       np.diag([1.0, 64.0]))
    assert np.allclose(cfc_builtin("rpow", a, ScalarRing.NNREAL, t=0.5).value,
                       np.diag([1.0, 2.0]))


def test_homomorphism_laws_random():
    gen = rng_from_seed(6)
    for ring in ScalarRing:
        for _ in range(5):
            a = random_normal_matrix(gen, 6, ring)
            f = random_poly_function(gen, ring)
            g = random_poly_function(gen, ring)
            fa = cfc(f, a, ring).value
            ga = cfc(g, a, ring).value
            both = cfc(ScalarFunction(lambda x: f.eval(x) + g.eval(x), ring), a, ring)
            prod = cfc(ScalarFunction(lambda x: f.eval(x) * g.eval(x), ring), a, ring)
            scale = max(1.0, fro_norm(fa), fro_norm(ga), fro_norm(fa) * fro_norm(ga))
            assert fro_norm(both.value - (fa + ga)) <= 1e-9 * scale
            assert fro_norm(prod.value - fa @ ga) <= 1e-9 * scale


def test_star_and_negation_transport():
    gen = rng_from_seed(7)
    a = random_normal_matrix(gen, 5, ScalarRing.COMPLEX)
    f = random_poly_function(gen, ScalarRing.COMPLEX)
    fa = cfc(f, a).value
    conj_out = cfc(ScalarFunction(lambda x: complex(f.eval(x)).conjugate(),
                                  ScalarRing.COMPLEX), a)
    assert fro_norm(conj_out.value - adjoint(fa)) <= 1e-9 * max(1.0, fro_norm(fa))

    lhs = cfc(f, -a).value
    rhs = cfc(ScalarFunction(lambda x: f.eval(-x), ScalarRing.COMPLEX), a).value
    assert fro_norm(lhs - rhs) <= 1e-9 * max(1.0, fro_norm(lhs))

    lhs = cfc(f, adjoint(a)).value
    rhs = cfc(ScalarFunction(lambda x: f.eval(complex(x).conjugate()),
                             ScalarRing.COMPLEX), a).value
    assert fro_norm(lhs - rhs) <= 1e-9 * max(1.0, fro_norm(lhs))


def test_constant_function_gives_scalar_matrix():
    gen = rng_from_seed(8)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    out = cfc(ScalarFunction(lambda x: 2 - 1j), a)
    assert np.allclose(out.value, (2 - 1j) * np.eye(4))


def test_predicate_preservation():
    gen = rng_from_seed(9)
    for ring in ScalarRing:
        a = random_normal_matrix(gen, 5, ring)
        f = random_poly_function(gen, ring)
        out = cfc(f, a, ring)
        assert not out.junk
        assert predicate_for_ring(out.value, ring, 1e-8).holds


def test_isometry_law():
    gen = rng_from_seed(10)
    a = random_normal_matrix(gen, 6, ScalarRing.COMPLEX)
    f = random_poly_function(gen, ScalarRing.COMPLEX)
    out = cfc(f, a)
    sup = max(abs(complex(f.eval(x))) for x in spectrum(a).points)
    assert abs(operator_norm(out.value) - sup) <= 1e-9 * max(1.0, sup)
    for x in spectrum(a).points:
        assert abs(complex(f.eval(x))) <= operator_norm(out.value) + 1e-9


def test_congruence_on_spectrum():
    a = np.diag([1.0, 2.0])
    f = ScalarFunction(lambda x: x, ScalarRing.REAL)
    # g agrees with f on {1, 2} but not elsewhere
    g = ScalarFunction(lambda x: x + (x - 1) * (x - 2), ScalarRing.REAL)
    assert np.allclose(cfc(f, a, ScalarRing.REAL).value,
                       cfc(g, a, ScalarRing.REAL).value)
    # converse: distinct values on the spectrum separate the outputs
    h = ScalarFunction(lambda x: x + 1e-3, ScalarRing.REAL)
    assert fro_norm(cfc(f, a, ScalarRing.REAL).value
                    - cfc(h, a, ScalarRing.REAL).value) > 1e-4


def test_spectral_mapping():
    gen = rng_from_seed(11)
    a = random_normal_matrix(gen, 5, ScalarRing.COMPLEX)
    f = random_poly_function(gen, ScalarRing.COMPLEX)
    out = cfc(f, a)
    mapped = sorted({complex(f.eval(x)) for x in spectrum(a).points},
                    key=lambda z: (z.real, z.imag))
    got = spectrum(out.value, tol=1e-7).points
    assert len(got) == len(mapped)
    for x, y in zip(got, mapped):
        assert abs(x - y) <= 1e-8


def test_inverse_litmus():
    gen = rng_from_seed(12)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX, nonzero=True)
    f = random_poly_function(gen, ScalarRing.COMPLEX)
    a_inv = cfc_builtin("inv", a).value
    lhs = cfc(f, a_inv, tol=1e-8).value
    rhs = cfc(ScalarFunction(lambda x: f.eval(1.0 / x), ScalarRing.COMPLEX), a).value
    assert fro_norm(lhs - rhs) <= 1e-8 * max(1.0, fro_norm(lhs))


def test_range_lies_in_elemental_subalgebra():
    gen = rng_from_seed(13)
    a = random_normal_matrix(gen, 5, ScalarRing.COMPLEX)
    f = random_poly_function(gen, ScalarRing.COMPLEX)
    out = cfc(f, a)
    B = elemental_subalgebra(a, unital=True)
    assert B.contains(out.value, 1e-8)[0]


def test_loewner_forward_direction(decompositions):
    gen = rng_from_seed(14)
    a = random_normal_matrix(gen, 4, ScalarRing.REAL)
    f = ScalarFunction(lambda x: x, ScalarRing.REAL)
    g = ScalarFunction(lambda x: x + 1.0, ScalarRing.REAL)
    assert loewner_le(f, g, a, ScalarRing.REAL)
    assert decompositions[0] == 1  # one plan serves f and g


def test_loewner_le_is_false_where_a_side_is_junk():
    """A junk side (failed predicate, or f failing at a spectral point)
    proves no order."""
    f = ScalarFunction(lambda x: x, ScalarRing.REAL)
    g = ScalarFunction(lambda x: x + 1.0, ScalarRing.REAL)
    assert not loewner_le(f, g, np.array([[0.0, -1.0], [1.0, 0.0]]), ScalarRing.REAL)
    assert not loewner_le(builtin_function("log", ScalarRing.REAL), g, np.diag([0.0, 1.0]),
                          ScalarRing.REAL)


def test_junk_totality_fuzz():
    gen = rng_from_seed(15)
    cases = [
        (builtin_function("exp"), NILPOTENT, ScalarRing.COMPLEX),
        (ScalarFunction(lambda x: x, ScalarRing.REAL), np.diag([1j, 0]), ScalarRing.REAL),
        (builtin_function("sqrt", ScalarRing.NNREAL), np.diag([-1.0, 1.0]),
         ScalarRing.NNREAL),
        (ScalarFunction(lambda x: 1.0 / (x - 1.0), ScalarRing.REAL),
         np.diag([1.0, 2.0]), ScalarRing.REAL),
    ]
    for _ in range(20):
        m = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        cases.append((builtin_function("exp"), m, ScalarRing.COMPLEX))
    for f, a, ring in cases:
        out = cfc(f, a, ring)
        if out.junk:
            assert np.all(out.value == 0)
        out_n = cfc_n(ScalarFunction(lambda x: f.eval(x), ring), a, None, ring)
        if out_n.junk:
            assert np.all(out_n.value == 0)


@pytest.mark.parametrize("ring, lam, eighs", [
    (ScalarRing.COMPLEX, np.arange(8) * 0.25 + 0.5j * (np.arange(8) % 3), 1),
    # real parts 0.5 (twice) and 1.0 (three times): two repeated clusters of h
    (ScalarRing.COMPLEX, [0.5 + 1j, 0.5 - 1j, 1 + 1j, 1 - 1j, 1.0, 2.0, 3.0, 4.0], 3),
    (ScalarRing.REAL, np.arange(8) - 3.5, 1),
    (ScalarRing.NNREAL, np.arange(8) * 0.5, 1),
    # exact multiplicities: each repeated cluster of h is one eigenspace of a
    (ScalarRing.COMPLEX, [0.5 + 1j] * 2 + [1 - 1j] * 3 + [2.0, 3.0, 4.0], 1),
    # one exact multiplicity and one real part shared by distinct eigenvalues
    (ScalarRing.COMPLEX, [0.5 + 1j] * 2 + [1 + 1j, 1 - 1j, 2.0, 3.0, 4.0, 5.0], 2),
])
def test_cfc_checks_the_predicate_once_and_solves_once(work_counts, ring, lam, eighs):
    """One eigensolve, plus one eigensolve per cluster of h that a splits,
    all of them from one compression: a cluster that one eigenspace of a
    fills is cleared by its columns' residual and pays nothing more.  Over
    R and R>=0 the predicate is the selfadjoint residual.  Over C it is the
    backward error of h's eigenvectors, so a normal input forms the
    commutator product only where a cluster of h needs splitting, which
    leaves that backward error above tol before the refinement."""
    a = random_with_spectrum(rng_from_seed(8), np.asarray(lam, dtype=complex))
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    out = cfc_builtin("exp", a, ring)
    assert not out.junk
    split = int(eighs > 1)
    predicates = int(ring is not ScalarRing.COMPLEX) or split
    assert work_counts == {"predicate": predicates, "as_matrix": 1, "eigh": eighs,
                           "eigvalsh": 0, "svd": 0, "compressions": split}


@pytest.mark.parametrize("ring", list(ScalarRing))
def test_cfc_junk_input_pays_its_predicate_and_no_eigensolve(work_counts, ring):
    """Over R and R>=0 the selfadjoint residual rejects a before any
    eigensolve.  Over C the backward error of h's eigenvectors comes first,
    and the commutator product it calls for rejects a: one eigensolve, one
    commutator product and no compression."""
    out = cfc_builtin("exp", NILPOTENT, ring)
    assert out.junk and out.reason == "predicate_failed"
    eighs = int(ring is ScalarRing.COMPLEX)
    assert work_counts == {"predicate": 1, "as_matrix": 1, "eigh": eighs, "eigvalsh": 0,
                           "svd": 0, "compressions": 0}


def test_spectrum_checks_the_predicate_once_and_solves_once(work_counts):
    """One eigensolve per ring; the selfadjoint residual over R and R>=0,
    and over C no commutator product, since the backward error decides."""
    a = random_with_spectrum(rng_from_seed(9), np.arange(8) * 0.5 + 0j)
    for ring in ScalarRing:
        spectrum(a, ring)
    assert work_counts == {"predicate": 2, "as_matrix": 3, "eigh": 3, "eigvalsh": 0,
                           "svd": 0, "compressions": 0}


def test_cfc_n_junk_inputs_pay_no_eigensolve(work_counts):
    """The plan's ring check decides precedence: a sound input pays its one
    eigensolve before f(0) is read, one whose predicate fails pays none."""
    shifted = ScalarFunction(lambda x: x + 1, ScalarRing.REAL, "x+1")
    out = cfc_n(shifted, np.diag([1.0, 2.0]), None, ScalarRing.REAL)
    assert out.junk and out.reason == "zero_condition_failed"
    assert work_counts["eigh"] == 1
    out = cfc_n(shifted, np.diag([1j, 2.0]), None, ScalarRing.REAL)
    assert out.junk and out.reason == "predicate_failed"
    assert work_counts["eigh"] == 1 and work_counts["eigvalsh"] == 0
    assert work_counts["as_matrix"] == 2  # one per call


def _symmetric(lam, seed):
    """An exactly symmetric float64 q diag(lam) q^T, q a random orthogonal."""
    q = np.linalg.qr(rng_from_seed(seed).standard_normal((len(lam), len(lam))))[0]
    a = (q * lam) @ q.T
    return (a + a.T) / 2


@pytest.mark.parametrize("ring", [ScalarRing.REAL, ScalarRing.NNREAL], ids=lambda r: r.value)
def test_a_sound_symmetric_4x4_call_pays_one_eigh_one_rebuild_and_no_norm(
        work_counts, reconstructions, report_norms, monkeypatch, ring):
    """The small-matrix hot path, counted: a sound, exactly symmetric 4x4
    call over R and R>=0 makes one eigensolve and one reconstruction, and
    its selfadjoint report forms no norm, since one count of a - a^T finds
    it exactly symmetric.  pos_part reads f once at 0 and once per
    eigenvalue, with the same counts."""
    a = _symmetric([0.25, 0.5, 1.0, 2.0], 31)
    assert not cfc_builtin("exp", a, ring).junk
    assert (work_counts["eigh"], reconstructions[0], report_norms[0]) == (1, 1, 0)
    reads = []
    monkeypatch.setattr(sys.modules["cfckit.cfc"], "_POS",
                        ScalarFunction(lambda x: reads.append(x) or max(x, 0.0), ScalarRing.REAL))
    b = _symmetric([-1.0, -0.5, 0.5, 2.0], 32)
    want = [0.0, *plan(b, ScalarRing.REAL).values]
    work_counts["eigh"] = reconstructions[0] = 0
    assert not pos_part(b).junk
    assert reads == want
    assert (work_counts["eigh"], reconstructions[0], report_norms[0]) == (1, 1, 0)


def test_cfc_n_nnreal_indefinite_with_f0_nonzero_is_predicate_failed():
    indefinite = random_with_spectrum(rng_from_seed(10), [-1.0, 0.5, 2.0])
    shifted = ScalarFunction(lambda x: x + 1, ScalarRing.NNREAL, "x+1")
    out = cfc_n(shifted, indefinite, None, ScalarRing.NNREAL)
    assert out.junk and out.reason == "predicate_failed"
    assert np.all(out.value == 0)
    failing = ScalarFunction(lambda x: math.log(x), ScalarRing.NNREAL, "log")
    out = cfc_n(failing, indefinite, None, ScalarRing.NNREAL)
    assert out.junk and out.reason == "predicate_failed"
    out = cfc_n(failing, np.diag([1.0, 2.0]), None, ScalarRing.NNREAL)
    assert out.junk and out.reason == "eval_failed"


def test_cfc_n_precedence_follows_the_plan_on_the_nnreal_boundary():
    """Least eigenvalues within 3e-7 (relative) of -tol ||a||_F: a failed
    f(0) yields to a failed predicate exactly where the plan's does."""
    gen = rng_from_seed(62)
    shifted = ScalarFunction(lambda x: x + 1, ScalarRing.NNREAL, "x+1")
    for _ in range(200):
        q = np.linalg.qr(gen.standard_normal((4, 4)))[0]
        lam_min = -DEFAULT_TOL * math.sqrt(14.0) * (1 + gen.uniform(-3e-7, 3e-7))
        a = (q * [lam_min, 1.0, 2.0, 3.0]) @ q.T
        a = (a + a.T) / 2
        failed = plan(a, ScalarRing.NNREAL).reason == "predicate_failed"
        out = cfc_n(shifted, a, None, ScalarRing.NNREAL)
        assert out.reason == ("predicate_failed" if failed else "zero_condition_failed")


def test_cfc_real_input_value_is_complex():
    out = cfc_builtin("exp", np.diag([0.0, 1.0]), ScalarRing.REAL)
    assert out.value.dtype == np.complex128
    assert np.allclose(out.value, np.diag([1.0, math.e]))


def _real_typed_inputs():
    """Symmetric float, int and bool matrices (distinct, repeated and zero
    eigenvalues, definite and indefinite, and at the scales 2^-1030 and
    1e200, which _rescaled rescales) and non-symmetric ones."""
    gen = rng_from_seed(41)
    sym = random_with_spectrum(gen, [-1.0, 0.0, 0.0, 0.5, 2.0]).real
    psd = random_with_spectrum(gen, [0.0, 0.25, 0.25, 3.0]).real
    ints = gen.integers(-4, 5, (5, 5))
    bools = gen.integers(0, 2, (4, 4)).astype(bool)
    return [
        (sym + sym.T) * 0.5e-6, (psd + psd.T) * 5e5, np.diag([1.0, -0.0, 3.0]), np.eye(1),
        -(psd + psd.T) + 0.0 * ints[:4, :4], -np.diag([0.0, 2.0]),
        ints + ints.T, np.diag([0, 2, 2]), bools | bools.T, np.eye(3, dtype=bool),
        (psd + psd.T) * 2.0 ** -1030, (sym + sym.T) * 1e200,
        gen.standard_normal((4, 4)), ints, np.array([[True, True], [False, True]]),
    ]


@pytest.mark.parametrize("ring", [ScalarRing.REAL, ScalarRing.NNREAL])
@pytest.mark.parametrize("dtype", [np.float64, np.int64, bool])
def test_real_plans_stay_float64(ring, dtype):
    a = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 1]]).astype(dtype)
    p = plan(a, ring)
    assert p.error is None
    assert (p.a.dtype, p.u.dtype, p.lam.dtype) == (np.float64,) * 3
    assert plan(a).lam.dtype == np.complex128  # over C the eigenvalues are complex


def _same_bits(x, y):
    assert (x.value.tobytes(), x.value.dtype, x.junk, x.reason) == (
        y.value.tobytes(), y.value.dtype, y.junk, y.reason)


@pytest.mark.parametrize("ring", list(ScalarRing))
def test_real_inputs_give_the_outcomes_of_their_complex_copies(ring):
    """Real arithmetic changes no bit of any outcome, signs of zero included:
    the Hermitian part of a real matrix was real before, and its eigensolve
    ran in real arithmetic."""
    tricky = [
        ScalarFunction(lambda x: x * x, ring, "sq"),
        ScalarFunction(lambda x: -0.0, ring, "-0"),
        ScalarFunction(lambda x: 1 / x, ring, "inv"),
        ScalarFunction(lambda x: np.float64(2.5), ring, "np"),
        ScalarFunction(lambda x: x - 1, ring, "x-1"),
        ScalarFunction(lambda x: math.copysign(1.0, complex(x).real), ring, "sign"),
    ]
    for a in _real_typed_inputs():
        b = a.astype(complex)
        for name in ("sqrt", "abs", "exp", "log", "inv", "id"):
            _same_bits(cfc_builtin(name, a, ring), cfc_builtin(name, b, ring))
        _same_bits(cfc_builtin("pow", a, ring, k=3), cfc_builtin("pow", b, ring, k=3))
        _same_bits(cfc_builtin("rpow", a, ring, t=-0.5), cfc_builtin("rpow", b, ring, t=-0.5))
        for f in tricky:
            _same_bits(cfc(f, a, ring), cfc(f, b, ring))
            _same_bits(cfc_n(f, a, ring=ring), cfc_n(f, b, ring=ring))
        if ring is ScalarRing.REAL:
            _same_bits(pos_part(a), pos_part(b))
            _same_bits(neg_part(a), neg_part(b))
        try:
            expected = spectrum(b, ring)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                spectrum(a, ring)
        else:
            got = spectrum(a, ring)
            assert got == expected
            assert [type(x) for x in got.points] == [type(x) for x in expected.points]


def _restricted_value(f, x, tol=DEFAULT_TOL):
    """f(x) as the calculus took it before real values skipped restriction:
    complex(f(x)), checked finite, restricted to f's ring."""
    out = complex(f.eval(x))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ValueError("non-finite")
    return restrict_scalar(out, f.ring, tol)


@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("value", [
    -0.0, 0.0, -0.5e-9, 2.5, -2.5, 1e300, 3, True, False, np.float64(0.75), np.float64(-1.5),
    math.nan, math.inf, -math.inf, -7.0 + 0j, 1 + 0.5e-9j,
])
def test_real_scalar_values_are_taken_as_before(ring, value):
    """_eval_row keeps every value that restrict_scalar(complex(f(x))) gave,
    type and sign of zero included, and every failure, and the outcome is
    the reconstruction from those values: over R>=0 a tiny negative is
    clamped to +0.0, NaN and +-inf are eval_failed."""
    f = ScalarFunction(lambda x: value, ring)
    out = cfc(f, np.diag([1.0, 2.0]), ring)
    try:
        old = _restricted_value(f, 1.0)
    except ValueError:
        assert out.junk and out.reason == "eval_failed"
        assert _eval_row(map(f.eval, (1.0,)), 1, f.ring, DEFAULT_TOL) is None
        return
    new = _eval_row(map(f.eval, (1.0,)), 1, f.ring, DEFAULT_TOL)[0]
    assert type(new) is type(old) and new == old
    signs = [math.copysign(1.0, part) for z in (new, old) for part in (z.real, z.imag)]
    assert signs[:2] == signs[2:]
    if ring is ScalarRing.NNREAL and value == -0.5e-9:
        assert new == 0.0 and math.copysign(1.0, new) == 1.0
    u = plan(np.diag([1.0, 2.0]), ring).u
    fvals = np.array([old, old], dtype=complex)
    if u.dtype == np.float64:
        ref = ((u * fvals.real) @ u.T).astype(complex)
    else:
        ref = (u * fvals) @ adjoint(u)
    assert not out.junk and out.value.dtype == np.complex128
    assert out.value.tobytes() == ref.tobytes()


def _bits(x):
    """The type and every bit of a scalar, signs of zero included."""
    return type(x), *(float(part).hex() for part in (x.real, x.imag))


@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("value", [
    complex(1.5, 0.0), complex(1.5, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    complex(0.0, -0.0), complex(-2.5, 0.0), complex(-2.5, -0.0),
    complex(-0.5e-9, 0.0), complex(-0.5e-9, -0.0),  # within tol below 0: 0.0 over R>=0
    complex(2.0, 0.5e-9), complex(2.0, -0.5e-9), complex(-0.5e-9, 0.5e-9),  # within tol
    complex(math.nan, 0.0), complex(math.inf, -0.0), complex(-math.inf, 0.0),
    complex(1.0, math.nan), complex(1.0, math.inf), complex(math.nan, math.nan),
])
def test_on_ring_complex_values_read_as_restrict_scalar_reads_them(restrictions, ring, value):
    """A Python complex with a zero imaginary part is read off the ring's
    float path, bit for bit what restrict_scalar returns for it, with no
    call of restrict_scalar where it needs no tolerance test: over R, and
    over R>=0 where its real part is >= 0 (-0.0 included).  A value with a
    NaN or inf part makes the row None on every ring."""
    f = ScalarFunction(lambda x: value, ring)
    row = _eval_row(map(f.eval, (1.0,)), 1, f.ring, DEFAULT_TOL)
    calls = restrictions[0]
    if not cmath.isfinite(value):
        assert row is None and calls == 0
        return
    try:
        want = restrict_scalar(value, ring, DEFAULT_TOL)
    except ValueError:
        assert row is None
    else:
        assert _bits(row[0]) == _bits(want)
    fast = ring is ScalarRing.COMPLEX or value.imag == 0.0 and (
        ring is ScalarRing.REAL or value.real >= 0.0)
    assert calls == (0 if fast else 1)


@pytest.mark.parametrize("ring", [ScalarRing.REAL, ScalarRing.NNREAL])
def test_a_negative_tol_is_junk_before_any_value_is_read(ring):
    """restrict_scalar rejects a negative tol, which the float path never
    sees: the plan's predicate, a residual <= tol, fails first, so every
    cfc, cfc_n and check_laws call is junk and f is never read, even on an
    exactly symmetric input whose residual is 0.0."""
    read = []
    f = ScalarFunction(lambda x: read.append(x) or complex(x), ring, "id")
    a = np.diag([0.0, 1.0, 2.0])
    for tol in (-1e-9, -5e-324):
        report = predicate_for_ring(a, ScalarRing.REAL, tol)
        assert report.residual == 0.0 and not report.holds
        for out in (cfc(f, a, ring, tol), cfc_n(f, a, None, ring, tol)):
            assert out.junk and out.reason == "predicate_failed"
        report = check_laws(a, f, f, ring, tol)
        junk, *laws = report.entries
        assert junk.name == "junk_totality" and junk.passed
        assert laws and all(e.skipped for e in laws)
    assert read == []


def _value_by_the_rule(f, x, tol=DEFAULT_TOL):
    """One value as the calculus takes it, written out per value: a finite
    Python float in f's real ring as it is, anything else complex(f(x)),
    checked finite and restricted to f's ring (ValueError otherwise)."""
    out = f.eval(x)
    if (type(out) is float and f.ring is not ScalarRing.COMPLEX and math.isfinite(out)
            and (out >= 0.0 or f.ring is ScalarRing.REAL)):
        return out
    return _restricted_value(ScalarFunction(lambda _: out, f.ring), x, tol)


def _raise(x):
    raise ValueError(f"outside the domain at {x!r}")


# f's value at the i-th point 0, 1, 2, ...; the first point is 0, which f
# cut at zero (as cfc_n cuts it) maps to 0.0 unevaluated
_ROW_TABLES = {
    "floats": [5.0, 2.5, -0.0, 0.0, 1e300],
    "int and np.float64": [1.0, 3, np.float64(0.75), np.float64(-1.5), True],
    "near-real complex": [1.0, 1 + 0.5e-9j, -0.5e-9 + 0j, 2.0 - 0.5e-9j, -7.0 + 0j],
    "zero imaginary parts": [1.0, complex(-0.0, -0.0), complex(3.0, -0.0), np.complex128(2.5),
                             complex(-1.5, 0.0)],
    "complex off every real ring": [1.0, 2.0, 1 + 1j, 3.0, 4.0],
    "tiny negative": [1.0, -0.5e-9, 2.0, -0.0, 3.0],
    "non-finite": [1.0, 2.0, math.nan, 3.0, 4.0],
    "infinite at the zero point": [math.inf, 2.0, 3.0, -0.0, 4.0],
    "raising": [1.0, 2.0, 3.0, _raise, 4.0],
    "raising at the zero point": [_raise, 2.0, 3.0, 4.0, 5.0],
}


@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("zero_to_zero", [False, True])
@pytest.mark.parametrize("table", list(_ROW_TABLES))
def test_row_loop_equals_the_per_value_rule(ring, zero_to_zero, table):
    """A row is evaluated in one loop with one handler: it equals the
    per-value rule above, type and sign of zero included, or is a failure
    exactly where some value fails it.  apply and apply_all rebuild that
    row, and a single point takes the same rule.  With zero_to_zero, f is
    cut at zero as cfc_n cuts it: its 0.0 at the point 0 is 0j over C."""
    outputs = _ROW_TABLES[table]

    def fn(x):
        out = outputs[round(complex(x).real)]
        return out(x) if callable(out) else out

    p = plan(np.diag(np.arange(float(len(outputs)))), ring)
    cut = p.cluster_tol
    f = ScalarFunction((lambda x: 0.0 if abs(x) <= cut else fn(x)) if zero_to_zero else fn, ring)
    try:
        want = [_value_by_the_rule(f, x) for x in p.values]
    except ValueError:
        want = None
    if want is None:
        assert _eval_row(map(f.eval, p.values), len(p.values), f.ring, DEFAULT_TOL) is None
    else:
        got = _eval_row(map(f.eval, p.values), len(p.values), f.ring, DEFAULT_TOL)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [(complex(v), math.copysign(1.0, complex(v).real), math.copysign(1.0, complex(v).imag))
                for v in got] == \
            [(complex(v), math.copysign(1.0, complex(v).real), math.copysign(1.0, complex(v).imag))
             for v in want]
    outcomes = [p.apply(f)] + p.apply_all([f])
    for out in outcomes:
        if want is None:
            assert out.junk and out.reason == "eval_failed"
            continue
        ref = _reconstruct(p.u, np.array(want, dtype=None if p.u.dtype.kind == "f" else complex))
        assert not out.junk and out.value.tobytes() == ref.tobytes()
    for x in p.values:
        try:
            single = _value_by_the_rule(f, x)
        except ValueError:
            assert _eval_row(map(f.eval, (x,)), 1, f.ring, DEFAULT_TOL) is None
            continue
        got = _eval_row(map(f.eval, (x,)), 1, f.ring, DEFAULT_TOL)[0]
        assert type(got) is type(single) and got == single


@pytest.mark.parametrize("s", [1e-150, 1e150, 1e155])
def test_abs_is_homogeneous_across_scales(s):
    gen = rng_from_seed(11)
    lam = np.array([1 + 1j, -2 + 0.5j, 0.5 - 1j, 3.0])
    u = random_unitary(gen, 4)
    a = (u * lam) @ adjoint(u)
    ref = cfc_builtin("abs", a)
    scaled = cfc_builtin("abs", s * a)
    assert not ref.junk and not scaled.junk
    assert np.all(np.isfinite(scaled.value))
    assert fro_norm(scaled.value / s - ref.value) <= 1e-9 * fro_norm(ref.value)


def test_tiny_non_normal_stays_predicate_failed():
    for s in (1e-160, 1e-200, 1e160):
        out = cfc_builtin("exp", s * NILPOTENT)
        assert out.junk and out.reason == "predicate_failed"


def _close(x, y, rtol=1e-12):
    """|x - y| within rtol of |x| entrywise at its largest, plus a few units
    of the least subnormal, for the rounding of subnormal entries."""
    x, y = np.asarray(x), np.asarray(y)
    return np.abs(x - y).max() <= rtol * np.abs(x).max() + 4 * 2.0 ** -1074


def test_float_and_complex_twins_agree_at_every_scale():
    """2^k a as float64 and as complex128 give the same reasons and values
    from k = -1040 (subnormal entries, a power-of-two scale whose reciprocal
    overflows) to k = 1000, with no floating-point warning on the way."""
    gen = rng_from_seed(61)
    q = np.linalg.qr(gen.standard_normal((4, 4)))[0]
    inputs = [(q * lam) @ q.T for lam in ([0.25, 0.5, 1.0, 3.0], [-1.0, 0.5, 1.0, 2.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in [*range(-1040, -1000), *range(-1000, 1001, 25)]:
            for a in inputs:
                a = np.ldexp(a, k)
                twin = a.astype(np.complex128)
                for ring in ScalarRing:
                    x, y = cfc_builtin("abs", a, ring), cfc_builtin("abs", twin, ring)
                    assert (x.junk, x.reason) == (y.junk, y.reason), (k, ring)
                    assert _close(x.value, y.value), (k, ring)
                    try:
                        sx = spectrum(a, ring)
                    except PredicateFailure:
                        with pytest.raises(PredicateFailure):
                            spectrum(twin, ring)
                        continue
                    sy = spectrum(twin, ring)
                    assert sx.multiplicities == sy.multiplicities
                    assert _close(sx.points, sy.points), (k, ring)
                assert _close(operator_norm(a), operator_norm(twin))
                rx, ry = is_star_normal(a), is_star_normal(twin)
                assert rx.holds and ry.holds and abs(rx.residual - ry.residual) <= 1e-15


def test_eigensolver_failure_is_junk(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    for ring in ScalarRing:
        for out in (cfc_builtin("exp", a, ring),
                    cfc_n(ScalarFunction(lambda x: x, ring), a, None, ring)):
            assert out.junk and out.reason == "decomposition_failed"
            assert np.all(out.value == 0)
        # a failed f(0) = 0 condition takes precedence over a failed decomposition
        out = cfc_n(ScalarFunction(lambda x: x + 1, ring), a, None, ring)
        assert out.junk and out.reason == "zero_condition_failed"


def test_cfc_evaluates_each_eigenvalue_without_clustering(clusterings):
    a = random_with_spectrum(rng_from_seed(12), [0.0, 0.5, 0.5, 1.0])
    for ring in ScalarRing:
        assert not cfc(builtin_function("exp", ring), a, ring).junk
        assert not cfc_n(ScalarFunction(lambda x: x, ring), a, None, ring).junk
        assert not cfc_builtin("sqrt", a, ring).junk
    assert clusterings[0] == 0


def test_chained_clusters_do_not_move_values():
    """399 eigenvalues 0.9 cluster_tol apart chain from end to end, yet
    every cluster spans at most cluster_tol; each value is still f at its
    own eigenvalue."""
    d = 1 + 0.9 * np.arange(399) * DEFAULT_CLUSTER_REL * math.sqrt(399)
    spec = spectrum(np.diag(d), ScalarRing.REAL)
    cluster_tol = DEFAULT_CLUSTER_REL * fro_norm(np.diag(d))
    bounds = np.cumsum((0,) + spec.multiplicities)
    assert all(d[hi - 1] - d[lo] <= cluster_tol for lo, hi in zip(bounds, bounds[1:]))
    out = cfc_builtin("exp", np.diag(d), ScalarRing.REAL)
    ref = np.diag(np.exp(d))
    assert not out.junk
    assert fro_norm(out.value - ref) <= 1e-13 * fro_norm(ref)


@pytest.mark.parametrize("name, fn", [("sqrt", cmath.sqrt), ("log", cmath.log)])
def test_branch_cut_follows_the_exact_eigenvalue(name, fn):
    """A negative real eigenvalue takes the principal branch (arg in
    (-pi, pi]) whatever the sign of the rounding in its computed imaginary
    part."""
    lam = np.array([-0.75, -0.25 - 1j, 0.25 - 1j])
    flam = np.array([fn(complex(z)) for z in lam])
    gen = rng_from_seed(14)
    for _ in range(200):
        u = random_unitary(gen, 3)
        ref = (u * flam) @ adjoint(u)
        out = cfc_builtin(name, (u * lam) @ adjoint(u))
        assert not out.junk
        assert fro_norm(out.value - ref) <= 1e-12 * fro_norm(ref)


def test_branch_cut_with_a_neighbour_just_beyond_cluster_tol():
    """A neighbour whose real part lies just beyond cluster_tol pulls the
    computed eigenvector of -0.75 towards itself, and its imaginary part
    into -0.75's Rayleigh quotient: several eps ||a||_F at n = 2."""
    gen = rng_from_seed(15)
    for _ in range(2000):
        kappa = gen.uniform(-1.0, 1.0)
        gap = 1.001 * DEFAULT_CLUSTER_REL * math.sqrt(2 * 0.75**2 + kappa**2)
        lam = np.array([-0.75, -0.75 + gap + 1j * kappa])
        u = random_unitary(gen, 2)
        ref = (u * np.sqrt(lam)) @ adjoint(u)
        out = cfc_builtin("sqrt", (u * lam) @ adjoint(u))
        assert fro_norm(out.value - ref) <= 1e-6 * fro_norm(ref)


def test_nnreal_eigenvalue_just_below_zero_is_clamped():
    """The R>=0 predicate admits lam_min >= -tol ||a||_F, within the
    restriction band, so the plan cannot fail to restrict its eigenvalues:
    both the value and the point are clamped to 0."""
    a = np.diag([-0.9 * DEFAULT_TOL * math.sqrt(5.0), 1.0, 2.0])
    out = cfc_builtin("sqrt", a, ScalarRing.NNREAL)
    assert not out.junk
    assert np.allclose(out.value, np.diag([0.0, 1.0, math.sqrt(2.0)]), rtol=0, atol=1e-15)
    assert plan(a, ScalarRing.NNREAL).points() == (0.0, 1.0, 2.0)


def _same_outcome(x, y):
    return (x.junk == y.junk and x.reason == y.reason
            and x.value.dtype == y.value.dtype and np.array_equal(x.value, y.value))


def _plan_input(kind, ring, gen, n):
    if kind == "normal":
        return random_normal_matrix(gen, n, ring)
    if kind == "near_degenerate":
        # log-uniform steps of [0.1, 10] * cluster_tol from 1, complex over
        # C: about half of them join a cluster, and clusters may chain
        steps = 10.0 ** gen.uniform(-1, 1, n - 1) * DEFAULT_CLUSTER_REL * math.sqrt(n)
        if ring is ScalarRing.COMPLEX:
            steps = steps * np.exp(2j * np.pi * gen.uniform(size=n - 1))
        return random_with_spectrum(gen, 1 + np.concatenate([[0.0], np.cumsum(steps)]))
    if kind == "non_normal":
        return np.diag(gen.standard_normal(n)) + np.eye(n, k=1)
    # selfadjoint with eigenvalues -1, 0 and 1: indefinite, so junk over R>=0
    return random_with_spectrum(gen, np.arange(n) % 3 - 1.0)


def _plan_functions(ring, gen):
    """Functions applied in turn to one plan, failing ones among them."""
    return [
        builtin_function("exp", ring),
        builtin_function("log", ring),      # eval_failed at 0
        random_poly_function(gen, ring),
        builtin_function("inv", ring),      # eval_failed at 0
        builtin_function("abs", ring),
        ScalarFunction(lambda x: x * x, ring, "sq"),
    ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 3, 4, 5, 6, 24, 64)),
       kind=st.sampled_from(("normal", "near_degenerate", "non_normal", "indefinite")),
       ring=st.sampled_from(list(ScalarRing)), broken_eigh=st.booleans(),
       scale=st.sampled_from((1e-150, 1e-12, 1.0, 1e12, 1e150)))
def test_one_plan_applies_like_separate_cfc_calls(seed, n, kind, ring, broken_eigh, scale):
    gen = rng_from_seed(seed)
    a = scale * _plan_input(kind, ring, gen, n)
    fs = _plan_functions(ring, gen)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with (mock.patch.object(np.linalg, "eigh", no_convergence) if broken_eigh
          else contextlib.nullcontext()):
        p = plan(a, ring)
        for f in fs:
            assert _same_outcome(p.apply(f), cfc(f, a, ring))
        for f in fs[-2:]:  # f(0) = 0, so cfc_n goes on to the plan of f cut at zero
            cut = ScalarFunction(lambda x, f=f: 0.0 if abs(x) <= p.cluster_tol else f.eval(x),
                                 f.ring, f.name)
            assert _same_outcome(p.apply(cut), cfc_n(f, a, None, ring))
    junk_plan = broken_eigh or kind == "non_normal" or (
        kind == "indefinite" and ring is ScalarRing.NNREAL)
    assert (p.reason is not None) == junk_plan
    if kind == "near_degenerate" and not junk_plan:
        # each eigenvalue keeps its own value, even inside a cluster
        out = p.apply(ScalarFunction(lambda x: x, ring))
        assert fro_norm(out.value - p.a) <= 1e-12 * fro_norm(p.a)


def _apply_all_input(kind, ring, gen, n):
    """A real orthogonal conjugate (a real u over R and R>=0), a Hermitian
    or normal unitary conjugate (a complex u), or a junk plan."""
    if kind == "real_u":
        lam = spaced_eigenvalues(gen, n, ScalarRing.NNREAL if ring is ScalarRing.NNREAL
                                 else ScalarRing.REAL).real
        q = np.linalg.qr(gen.standard_normal((n, n)))[0]
        return (q * lam) @ q.T
    if kind == "complex_u":
        return random_normal_matrix(gen, n, ring)
    return np.diag(gen.standard_normal(n)) + np.eye(n, k=1)  # non-normal for n > 1


_APPLY_ALL_FUNCTIONS = (
    ScalarFunction(lambda x: cmath.exp(x).real, ScalarRing.REAL, "re exp"),
    ScalarFunction(lambda x: x + 1j, ScalarRing.COMPLEX, "x+i"),  # complex rows on a real u
    ScalarFunction(lambda x: complex(x), ScalarRing.COMPLEX, "complex id"),  # imaginary part 0
    ScalarFunction(lambda x: 1.0 / (x.real - 0.5) if x.real < 0.4 else math.log(-1.0),
                   ScalarRing.REAL, "fails above 0.4"),
    ScalarFunction(lambda x: -x, ScalarRing.NNREAL, "-x"),  # fails off the ring
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), ring=st.sampled_from(list(ScalarRing)),
       kind=st.sampled_from(("real_u", "complex_u", "junk")),
       picks=st.lists(st.integers(0, len(_APPLY_ALL_FUNCTIONS) + 2), max_size=9))
@example(seed=1, n=5, ring=ScalarRing.REAL, kind="real_u", picks=[1, 0, 2, 3, 5, 6])
def test_apply_all_matches_apply_bit_for_bit(seed, n, ring, kind, picks):
    """apply_all(fs) is [apply(f) for f in fs] in value bytes, dtype, junk
    and reason, for real and complex u, failing functions, junk plans and
    an empty fs."""
    gen = rng_from_seed(seed)
    p = plan(_apply_all_input(kind, ring, gen, n), ring)
    pool = _APPLY_ALL_FUNCTIONS + (builtin_function("log", ring), random_poly_function(gen, ring),
                                   builtin_function("inv", ring))
    fs = [pool[i] for i in picks]
    got, want = p.apply_all(fs), [p.apply(f) for f in fs]
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.junk, x.reason, x.value.dtype, x.value.tobytes()) == \
            (y.junk, y.reason, y.value.dtype, y.value.tobytes())
    assert (p.error is None) == (kind != "junk") or n == 1


@pytest.mark.parametrize("kind", ["real_u", "complex_u"])
@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 64])
def test_apply_all_of_every_function_matches_apply_bit_for_bit(n, ring, kind):
    """The stacked rebuild of a check_laws trial at the sizes it meets: all
    the pool's functions at once, failing ones among them, give apply's
    outcomes byte for byte."""
    gen = rng_from_seed(300 + n)
    p = plan(_apply_all_input(kind, ring, gen, n), ring)
    assert p.error is None
    fs = _APPLY_ALL_FUNCTIONS + (builtin_function("exp", ring), random_poly_function(gen, ring),
                                 ScalarFunction(lambda x: x, ring), builtin_function("inv", ring))
    got, want = p.apply_all(fs), [p.apply(f) for f in fs]
    for x, y in zip(got, want, strict=True):
        assert (x.junk, x.reason, x.value.dtype, x.value.tobytes()) == \
            (y.junk, y.reason, y.value.dtype, y.value.tobytes())
    assert not got[-3].junk and not got[-2].junk


def test_near_degenerate_chain_at_n_64_reconstructs_a():
    """The near_degenerate draw of seed 572 at n = 64 over C, which the
    property test above can draw: apply(id) must reproduce a within 1e-12."""
    gen = rng_from_seed(572)
    a = _plan_input("near_degenerate", ScalarRing.COMPLEX, gen, 64)
    p = plan(a)
    out = p.apply(ScalarFunction(lambda x: x))
    assert fro_norm(out.value - p.a) <= 1e-12 * fro_norm(p.a)


def test_close_real_parts_with_distinct_imaginary_parts_reconstruct_a():
    """Normal inputs with one pair of eigenvalues whose real parts lie 1e-8
    to 1e-4 apart, beyond the cluster scale, and whose imaginary parts
    differ: h's eigenvectors of that pair mix by eps / gap, which a's
    eigenvalues spread into an error of that size unless the pair's columns
    are refined."""
    worst = 0.0
    for seed in range(200):
        gen = rng_from_seed(seed)
        n = int(gen.integers(4, 65))
        lam = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
        lam[1] = lam[0].real + 10.0 ** gen.uniform(-8, -4) + 1j * gen.uniform(-1, 1)
        p = plan(random_with_spectrum(gen, lam))
        worst = max(worst, p.residual())
    assert worst <= 1e-12


def test_cfc_n_takes_the_plans_ring_check_before_the_zero_condition():
    """The barely normal input is junk by the plan's rule: cfc_n reads
    predicate_failed for it whether or not f(0) = 0, since a failed ring
    predicate takes precedence over a failed f(0) condition."""
    a = np.array([[1, 1e-5j], [1e-5j, 1 + 1e-5]])
    for f in (ScalarFunction(lambda z: 1 + z, name="1+z"), ScalarFunction(lambda z: z * z)):
        out = cfc_n(f, a)
        assert out.junk and out.reason == "predicate_failed"
        assert np.all(out.value == 0)
    assert cfc_n(ScalarFunction(lambda z: 1 + z), np.diag([1.0, 2j])).reason == \
        "zero_condition_failed"


def test_abs_where_the_frobenius_norm_overflows():
    """||a||_F = inf with finite entries: the plan decomposes a / 1e308, its
    largest entry part, so |1e308j| = 1e308 is not lost to a + a*
    overflowing to inf."""
    a = np.diag([1e308, -1e308, 1e308, 1e308j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = cfc_builtin("abs", a)
    assert not out.junk
    assert np.allclose(np.diag(out.value), 1e308, rtol=1e-15, atol=0)
    assert fro_norm(out.value - np.diag(np.diag(out.value))) <= 1e-15 * 1e308


def _layouts(m):
    """m as a transposed view, in Fortran order and as a view with negative
    strides: three arrays equal to m, none of them C-contiguous."""
    return (np.ascontiguousarray(m.T).T, np.asfortranarray(m),
            np.ascontiguousarray(m[::-1, ::-1])[::-1, ::-1])


def _outcomes(a, ring):
    """Every public result on a, in bytes and values that compare bitwise."""
    p = plan(a, ring)
    out = [operator_norm(a), is_star_normal(a), predicate_for_ring(a, ring), p.reason]
    for name in ("abs", "id"):
        o = cfc_builtin(name, a, ring)
        out += [o.value.tobytes(), o.junk, o.reason]
    if p.error is None:
        s = spectrum(a, ring)
        out += [p.lam.tobytes(), p.u.tobytes(), p.values, s.points, s.multiplicities]
    return out


@pytest.mark.parametrize("s", [1e-160, 1e155, 1e300])
@pytest.mark.parametrize("ring", [ScalarRing.COMPLEX, ScalarRing.REAL])
def test_strided_inputs_match_their_contiguous_copy(ring, s):
    """An out-of-range input gives the same outcomes, bit for bit, in any
    memory layout, and no exception escapes: the scale rule reads the
    largest entry part of any strided array."""
    gen = rng_from_seed(63)
    lam = gen.uniform(-1, 1, 5) + 1j * gen.uniform(-1, 1, 5)
    a = random_with_spectrum(gen, lam if ring is ScalarRing.COMPLEX else lam.real)
    if ring is ScalarRing.REAL:
        a = ((a + adjoint(a)) / 2).real
    for m in (s * a, np.diag([1.5e308 + 1.5e308j, 1.0, 2.0])):
        ref = _outcomes(m, ring)
        for x in _layouts(m):
            assert not x.flags.c_contiguous
            assert _outcomes(x, ring) == ref


def _equal_outside_subnormals(small, big, k):
    """small * 2^k == big on every part of small outside the subnormal
    range, where scaling loses bits."""
    small, big = np.asarray(small, np.complex128), np.asarray(big, np.complex128)
    for s, b in ((small.real, big.real), (small.imag, big.imag)):
        kept = np.abs(s) >= sys.float_info.min
        if not np.array_equal(np.ldexp(s[kept], k), b[kept]):
            return False
    return True


@pytest.mark.parametrize("seed", range(40))
def test_out_of_range_powers_of_two_commute_exactly(seed):
    """For out-of-range scales 2^j < 2^k, cfc(f, 2^k a) = 2^(k-j) cfc(f, 2^j a)
    bit for bit for f = abs and id, and so do the spectrum's points and the
    operator norm: the scale rule divides by a power of two, which is
    exact, so both scales decompose the same b."""
    gen = rng_from_seed(900 + seed)
    a = random_with_spectrum(gen, gen.uniform(-1, 1, 4) + 1j * gen.uniform(-1, 1, 4))
    j, k = sorted(gen.choice([-1000, -700, -400, 400, 700, 1000], size=2, replace=False).tolist())
    small, big = math.ldexp(1.0, j) * a, math.ldexp(1.0, k) * a
    for name in ("abs", "id"):
        lo, hi = cfc_builtin(name, small), cfc_builtin(name, big)
        assert not lo.junk and not hi.junk
        assert _equal_outside_subnormals(lo.value, hi.value, k - j)
    assert _equal_outside_subnormals(spectrum(small).points, spectrum(big).points, k - j)
    assert math.ldexp(operator_norm(small), k - j) == operator_norm(big)


def test_eigenvalues_near_the_float_max_scale_back_exactly():
    """2 ||b||_F c overflows for diag(1.2e308, -1.2e308), but every eigenvalue
    fits: the guarded scale-back keeps them, exactly, and warns of nothing."""
    a = np.diag([1.2e308, -1.2e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ring in (ScalarRing.COMPLEX, ScalarRing.REAL):
            p = plan(a, ring)
            assert p.error is None
            assert np.array_equal(p.lam, [-1.2e308, 1.2e308])
            out = cfc_builtin("id", a, ring)
            assert not out.junk and np.array_equal(out.value, a)
            out = cfc_builtin("abs", a, ring)
            assert not out.junk and np.array_equal(out.value, np.abs(a))
            assert spectrum(a, ring).points == (-1.2e308, 1.2e308)


def _homogeneous_input(ring, seed):
    """A 4x4 input of the ring with max|a_ij| about 1."""
    gen = rng_from_seed(seed)
    lam = gen.uniform(-1, 1, 4) + 1j * gen.uniform(-1, 1, 4)
    if ring is not ScalarRing.COMPLEX:
        lam = lam.real if ring is ScalarRing.REAL else np.abs(lam)
    a = random_with_spectrum(gen, lam)
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    return a / np.max(np.abs(a))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from(list(ScalarRing)),
       name=st.sampled_from(("abs", "id")), e=st.floats(-300.0, 300.0),
       t=st.one_of(st.none(), st.floats(0.5, 0.9)))
@example(seed=1, ring=ScalarRing.COMPLEX, name="abs", e=0.0, t=0.9)
@example(seed=390895, ring=ScalarRing.COMPLEX, name="id", e=0.0, t=0.5)
def test_homogeneous_functions_commute_with_scaling(seed, ring, name, e, t):
    """cfc(f, s a) = s cfc(f, a) for f(s x) = s f(x), s > 0, at s = 10^e
    from 1e-300 to 1e300, and (t given) at s = t max_float / rho(a), where
    the entries and eigenvalues of s a stay finite but ||s a||_F mostly
    overflows to inf.  Both sides are exact to the accuracy of the
    decomposition, eps ||a|| times max|lambda| over the least gap between
    distinct real parts (the eigenvectors of h = (a + a*) / 2)."""
    a = _homogeneous_input(ring, seed)
    lam = np.linalg.eigvals(a)
    s = 10.0 ** e if t is None else t * sys.float_info.max / np.max(np.abs(lam))
    gap = max(np.min(np.diff(np.sort(lam.real))), DEFAULT_CLUSTER_REL)
    tol = 64 * sys.float_info.epsilon * (1.0 + np.max(np.abs(lam)) / gap)
    ref = cfc_builtin(name, a, ring)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = cfc_builtin(name, s * a, ring)
    assert not ref.junk and not out.junk
    assert np.all(np.isfinite(out.value))
    assert fro_norm(out.value / s - ref.value) <= tol * fro_norm(ref.value)


@pytest.mark.parametrize("a", [
    np.full((2, 2), 1e308),                         # lambda = 2e308
    np.array([[1e308, 0.9e308], [0.9e308, 1e308]]),  # lambda = 1.9e308, 1e307
    np.diag([1.5e308 + 1.5e308j, 1.0]),             # finite parts, |lambda| > max
])
def test_an_eigenvalue_beyond_the_float_range_is_junk(a):
    """Finite entries, an eigenvalue whose modulus is no float: no f(a) is
    trusted, not even inv(a), to which such an eigenvalue would add 0, and
    neither an exception nor a warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in ("abs", "inv", "id"):
            out = cfc_builtin(name, a)
            assert out.junk and out.reason == "decomposition_failed"


def test_the_cluster_scale_stays_finite_where_the_norm_overflows():
    """||a||_F = 2e308 is no float, but its cluster scale 2e300 is: four
    distinct eigenvalues stay four points, and cfc_n of the identity
    evaluates each of them."""
    lam = [1e308, -1e308, 1e308j, -1e308j]
    a = np.diag(lam)
    p = plan(a)
    assert p.cluster_tol == pytest.approx(2e300)
    assert spectrum(a).multiplicities == (1, 1, 1, 1)
    out = cfc_n(ScalarFunction(lambda x: x), a)
    assert not out.junk and np.max(np.abs(out.value - a)) <= 1e-14 * 1e308


def test_builtins_are_built_once_per_name_and_ring():
    """cfc_builtin reuses one ScalarFunction per builtin, ring and
    parameters, from a cache bounded by the names times the rings."""
    assert builtin_function("exp", ScalarRing.REAL) is builtin_function("exp", ScalarRing.REAL)
    assert builtin_function("exp", ScalarRing.REAL) is not builtin_function("exp")
    assert builtin_function.cache_info().maxsize == 8 * len(ScalarRing)
    for k in range(100):
        assert builtin_function("pow", ScalarRing.REAL, k=k).eval(2.0) == 2.0 ** k
    assert builtin_function.cache_info().currsize <= 8 * len(ScalarRing)


NON_FINITE = [math.nan, math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, math.nan),
              complex(1.0, -math.inf)]


def _entry_points(a):
    """Every public way into a plan, over every ring where it takes one."""
    exp = builtin_function("exp")
    calls = [lambda: cfc(exp, a), lambda: cfc_n(ScalarFunction(lambda x: x), a),
             lambda: pos_part(a)]
    for ring in ScalarRing:
        calls += [lambda ring=ring: plan(a, ring), lambda ring=ring: cfc_builtin("exp", a, ring),
                  lambda ring=ring: spectrum(a, ring)]
    return calls


@pytest.mark.parametrize("n", [1, 4, 64])
@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_non_finite_entries_raise_one_value_error_from_every_entry_point(bad, n):
    """A plan reads finiteness off ||a||_F, which is finite only when every
    entry is, and runs as_matrix's isfinite pass where it is not: the same
    ValueError, before any decomposition, wherever the bad entry sits."""
    for i, j in ((0, 0), (n - 1, n // 2), (n // 2, n - 1)):
        a = np.eye(n, dtype=complex if isinstance(bad, complex) else float)
        a[i, j] = bad
        for call in _entry_points(a):
            with pytest.raises(ValueError, match="^matrix entries must be finite$") as info:
                call()
            assert type(info.value) is ValueError


def test_a_plan_runs_the_isfinite_pass_only_where_the_norm_is_not_finite(finiteness_passes):
    """A finite ||a||_F, as _rescaled returns it (entries of 1e155 included),
    proves every entry finite; only an inf or NaN one pays as_matrix's
    isfinite pass."""
    for a in (np.eye(4), np.full((4, 4), 1e155), [[1.5e308 + 1.5e308j]], np.zeros((3, 3))):
        plan(a)
    assert finiteness_passes[0] == 0
    with pytest.raises(ValueError, match="finite"):
        plan([[1.0, math.nan], [0.0, 1.0]])
    assert finiteness_passes[0] == 1


def test_a_wrong_shape_is_reported_before_non_finite_entries():
    for a in (np.full((2, 3), math.nan), np.full(4, math.inf), np.zeros((0, 0))):
        for call in _entry_points(a):
            with pytest.raises(ValueError, match="square matrix|at least 1"):
                call()


@pytest.mark.parametrize("ring", list(ScalarRing))
def test_finite_entries_whose_norm_overflows_still_plan(ring):
    """||a||_F^2 overflows for entries of 1e155 (and |a_ij| for 1.5e308 +
    1.5e308j), which are finite: the plan rescales them, and only an
    eigenvalue beyond the float range fails it, as a decomposition."""
    p = plan(np.full((4, 4), 1e155), ring)
    assert p.error is None
    assert p.values[-1] == pytest.approx(4e155, rel=1e-12)
    assert p.values[0] == pytest.approx(0.0, abs=1e-12 * 4e155)
    p = plan(np.diag([1.5e308 + 1.5e308j, 1.0]))
    assert p.reason == "decomposition_failed"
    assert cfc_builtin("id", [[1e308 + 1e308j]]).value[0, 0] == 1e308 + 1e308j
