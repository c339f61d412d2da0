import numpy as np
import pytest

from cfckit.cfc import ScalarFunction, builtin_function, cfc, identity_function
from cfckit.matrix_core import NotNormal, adjoint, fro_norm
from cfckit.oracle import (
    DuplicatePoints,
    OracleSkipped,
    StarPolynomial,
    cfc_oracle,
    check_laws,
    lagrange_interpolant,
    poly_eval,
)
from cfckit.sampling import (
    random_normal_matrix,
    random_poly_function,
    random_with_spectrum,
    rng_from_seed,
)
from cfckit.scalars import ScalarRing
from cfckit.spectrum import spectrum

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


def test_poly_eval_examples():
    gen = rng_from_seed(1)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    z = StarPolynomial(((1, 0, 1.0),))
    assert np.allclose(poly_eval(z, a), a)
    zzbar = StarPolynomial(((1, 1, 1.0),))
    assert np.allclose(poly_eval(zzbar, a), a @ adjoint(a))
    sq = StarPolynomial(((2, 0, 1.0),))
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(poly_eval(sq, m), np.array([[5.0, 4.0], [4.0, 5.0]]))


def test_poly_eval_requires_normal():
    with pytest.raises(NotNormal):
        poly_eval(StarPolynomial(((1, 0, 1.0),)), NILPOTENT)


def test_star_polynomial_rejects_duplicate_terms():
    with pytest.raises(ValueError):
        StarPolynomial(((1, 0, 1.0), (1, 0, 2.0)))


def test_lagrange_two_point_example():
    # through (1, 1) and (4, 2): p(z) = (z + 2) / 3
    p = lagrange_interpolant([1.0, 4.0], [1.0, 2.0])
    coeffs = {k: c for k, m, c in p.terms}
    assert coeffs[0] == pytest.approx(2.0 / 3.0)
    assert coeffs[1] == pytest.approx(1.0 / 3.0)


def test_lagrange_trivial_cases():
    p = lagrange_interpolant([2.5], [7.0])
    assert p.as_function().eval(123.0) == pytest.approx(7.0)
    p = lagrange_interpolant([0.0, 1.0], [0.0, 1.0])
    f = p.as_function()
    assert f.eval(0.5) == pytest.approx(0.5)


def test_lagrange_duplicate_points():
    with pytest.raises(DuplicatePoints):
        lagrange_interpolant([1.0, 1.0], [1.0, 2.0])


def test_interpolation_exact_at_nodes():
    gen = rng_from_seed(2)
    pts = np.linspace(-1, 1, 6) + 1j * gen.uniform(-1, 1, 6)
    vals = gen.uniform(-1, 1, 6) + 1j * gen.uniform(-1, 1, 6)
    p = lagrange_interpolant(pts, vals)
    f = p.as_function()
    residual = max(abs(f.eval(z) - v) for z, v in zip(pts, vals))
    assert residual <= 1e-12 * max(np.abs(vals))


def test_cfc_oracle_examples():
    out = cfc_oracle(builtin_function("sqrt", ScalarRing.NNREAL),
                     np.diag([1.0, 4.0]), ScalarRing.NNREAL)
    assert np.allclose(out, np.diag([1.0, 2.0]))

    gen = rng_from_seed(3)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    assert np.allclose(cfc_oracle(identity_function(), a), a)
    const = ScalarFunction(lambda x: 2 - 1j, ScalarRing.COMPLEX)
    assert np.allclose(cfc_oracle(const, a), (2 - 1j) * np.eye(4))


def test_oracle_agrees_with_cfc():
    gen = rng_from_seed(4)
    for ring in ScalarRing:
        for _ in range(5):
            a = random_normal_matrix(gen, 5, ring)
            f = random_poly_function(gen, ring)
            direct = cfc(f, a, ring).value
            ref = cfc_oracle(f, a, ring)
            fmax = max(abs(complex(f.eval(x))) for x in spectrum(a, ring).points)
            assert fro_norm(direct - ref) <= 1e-8 * (1.0 + fmax) * max(1.0, fro_norm(a))


def test_oracle_consistency_with_direct_polynomials():
    gen = rng_from_seed(5)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    terms = tuple((k, m, complex(gen.uniform(-1, 1), gen.uniform(-1, 1)))
                  for k in range(3) for m in range(2))
    p = StarPolynomial(terms)
    direct = poly_eval(p, a)
    via_cfc = cfc(p.as_function(), a).value
    assert fro_norm(direct - via_cfc) <= 1e-9 * max(1.0, fro_norm(direct))


def test_oracle_gap_guard():
    def fails(x):
        raise ZeroDivisionError("f is never evaluated on skipped nodes")

    a = random_with_spectrum(rng_from_seed(6), [0.0, 1e-9, 1.0])
    with pytest.raises(OracleSkipped):
        cfc_oracle(identity_function(), a, cluster_tol=1e-12)
    with pytest.raises(OracleSkipped):
        cfc_oracle(ScalarFunction(fails), a, cluster_tol=1e-12)


def test_check_laws_passes_inside_a_cluster_with_spread():
    """3 and 3 + 1e-8 form one cluster: the calculus takes f at each of
    them, and the isometry and congruence laws read the same values."""
    report = check_laws(
        np.diag([1.0, 3.0, 3.0 + 1e-8]),
        builtin_function("exp", ScalarRing.REAL),
        ScalarFunction(lambda x: x * x - x, ScalarRing.REAL),
        ScalarRing.REAL,
    )
    assert report.all_passed
    assert not any(e.skipped for e in report.entries)


def test_check_laws_all_pass_on_good_input():
    report = check_laws(
        np.diag([1.0, 2.0]),
        builtin_function("sqrt", ScalarRing.NNREAL),
        builtin_function("exp", ScalarRing.NNREAL),
        ScalarRing.NNREAL,
    )
    assert report.all_passed
    names = [e.name for e in report.entries]
    assert "add" in names and "oracle" in names and "spectral_mapping" in names


def test_check_laws_skips_on_junk_path():
    f = builtin_function("exp")
    report = check_laws(NILPOTENT, f, f, ScalarRing.COMPLEX)
    assert report.all_passed
    by_name = {e.name: e for e in report.entries}
    assert by_name["junk_totality"].passed and not by_name["junk_totality"].skipped
    assert by_name["add"].skipped


def test_check_laws_zero_matrix():
    f = ScalarFunction(lambda x: x * 3.0, ScalarRing.COMPLEX)
    g = ScalarFunction(lambda x: x * x, ScalarRing.COMPLEX)
    report = check_laws(np.zeros((3, 3)), f, g, ScalarRing.COMPLEX)
    assert report.all_passed


def test_check_laws_report_shapes():
    report = check_laws(
        np.diag([1.0, 3.0]),
        builtin_function("exp", ScalarRing.REAL),
        builtin_function("sqrt", ScalarRing.NNREAL),
        ScalarRing.REAL,
    )
    d = report.to_dict()
    assert set(d) == {"all_passed", "laws"}
    assert "law" in report.table()


@pytest.mark.parametrize("ring, most", [
    (ScalarRing.COMPLEX, 3), (ScalarRing.REAL, 3), (ScalarRing.NNREAL, 2),
])
def test_check_laws_trial_decomposes_at_most_three_times(decompositions, ring, most):
    """One plan of a, one of f(a), and the negation law's cfc on -a (no
    negation law over R>=0)."""
    gen = rng_from_seed(33)
    a = random_with_spectrum(gen, np.arange(6) * 0.25 + (0.5j if ring is ScalarRing.COMPLEX else 0))
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    report = check_laws(a, random_poly_function(gen, ring), random_poly_function(gen, ring), ring)
    assert report.all_passed
    assert not any(e.skipped for e in report.entries if e.name != "negation")
    assert decompositions[0] <= most
