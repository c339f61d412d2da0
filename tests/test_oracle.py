import math
import time

import numpy as np
import pytest

from cfckit.cfc import ScalarFunction, builtin_function, cfc, identity_function
from cfckit.matrix_core import (
    NotNormal,
    adjoint,
    as_matrix,
    fro_norm,
    identity,
    is_star_normal,
    zeros,
)
from cfckit.oracle import OracleSkipped, StarPolynomial, _interpolate, cfc_oracle, check_laws
from cfckit.sampling import (
    random_normal_matrix,
    random_poly_function,
    random_with_spectrum,
    rng_from_seed,
)
from cfckit.scalars import ScalarRing
from cfckit.spectrum import spectrum

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


def poly_eval(p: StarPolynomial, a) -> np.ndarray:
    """Reference evaluation of p on a normal matrix by direct products, a*
    substituted for conj(z)."""
    a = as_matrix(a)
    report = is_star_normal(a)
    if not report.holds:
        raise NotNormal(report)
    n = a.shape[0]
    max_k = max((k for k, _, _ in p.terms), default=0)
    max_m = max((m for _, m, _ in p.terms), default=0)
    pow_a = [identity(n)]
    for _ in range(max_k):
        pow_a.append(pow_a[-1] @ a)
    ah = adjoint(a)
    pow_ah = [identity(n)]
    for _ in range(max_m):
        pow_ah.append(pow_ah[-1] @ ah)
    out = zeros(n)
    for k, m, c in p.terms:
        out += complex(c) * (pow_a[k] @ pow_ah[m])
    return out


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


def test_interpolation_exact_at_nodes():
    gen = rng_from_seed(2)
    pts = np.linspace(-1, 1, 6) + 1j * gen.uniform(-1, 1, 6)
    vals = gen.uniform(-1, 1, 6) + 1j * gen.uniform(-1, 1, 6)
    out = _interpolate(np.diag(pts), pts, vals)
    assert fro_norm(out - np.diag(vals)) <= 1e-12 * max(np.abs(vals))
    # one node gives a constant; through (1, 1) and (4, 2), p(z) = (z + 2) / 3
    assert np.allclose(_interpolate(np.diag([5.0, 6.0]), [2.5], [7.0]), 7.0 * np.eye(2))
    assert np.allclose(_interpolate(np.array([[7.0]]), [1.0, 4.0], [1.0, 2.0]), [[3.0]])


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

    # a gap of 1e-7 lies above the cluster scale 1e-8 ||a||_F and below the
    # guard, 1e-6 of the diameter
    a = random_with_spectrum(rng_from_seed(6), [0.0, 1e-7, 1.0])
    with pytest.raises(OracleSkipped):
        cfc_oracle(identity_function(), a)
    with pytest.raises(OracleSkipped):
        cfc_oracle(ScalarFunction(fails), a)


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


def _law(report, name):
    return next(e for e in report.entries if e.name == name)


SQUARE = ScalarFunction(lambda x: x * x, ScalarRing.REAL, "sq")


def test_oracle_law_holds_on_a_chained_spectrum():
    """20 eigenvalues 0.9 cluster_tol apart: the oracle's nodes are means of
    clusters no wider than cluster_tol, so interpolating f there matches
    f(a) (single-linkage chaining put all 20 in one node and read 1.7e-7)."""
    d = 1 + 0.9 * np.arange(20) * 1e-8 * math.sqrt(20)
    report = check_laws(np.diag(d), builtin_function("exp", ScalarRing.REAL), SQUARE,
                        ScalarRing.REAL)
    oracle = _law(report, "oracle")
    assert not oracle.skipped and oracle.passed
    assert oracle.residual <= 1e-12


@pytest.mark.parametrize("frac", [0.3, 0.6, 0.9, 0.99])
def test_check_laws_passes_on_chained_near_degenerate_spectra(frac):
    """n eigenvalues frac cluster_tol apart for 2 <= n < 40: every law runs
    and passes."""
    exp = builtin_function("exp", ScalarRing.REAL)
    for n in range(2, 40):
        d = 1 + frac * np.arange(n) * 1e-8 * math.sqrt(n)
        report = check_laws(np.diag(d), exp, SQUARE, ScalarRing.REAL)
        assert report.all_passed, (n, report.table())
        assert not _law(report, "oracle").skipped


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


def _family(name, n, gen):
    """n distinct eigenvalues: a grid on [-1, 1], the n-th roots of unity,
    or uniform points in the unit disk."""
    if name == "line":
        return np.linspace(-1.0, 1.0, n)
    if name == "circle":
        return np.exp(2j * np.pi * np.arange(n) / n)
    return np.sqrt(gen.uniform(0, 1, n)) * np.exp(2j * np.pi * gen.uniform(0, 1, n))


@pytest.mark.parametrize("n", [24, 32, 64])
@pytest.mark.parametrize("family", ["line", "circle", "disk"])
def test_oracle_law_holds_on_large_spectra(family, n):
    """Newton interpolation at Leja points keeps the oracle law within its
    bound up to n = 64, where monomial coefficients lose every digit."""
    gen = rng_from_seed(40 + n)
    ring = ScalarRing.REAL if family == "line" else ScalarRing.COMPLEX
    a = random_with_spectrum(gen, _family(family, n, gen))
    if ring is ScalarRing.REAL:
        a = (a + adjoint(a)) / 2
    for f in (builtin_function("exp", ring), random_poly_function(gen, ring)):
        start = time.perf_counter()
        report = check_laws(a, f, random_poly_function(gen, ring), ring)
        elapsed = time.perf_counter() - start
        by_name = {e.name: e for e in report.entries}
        assert report.all_passed, report.table()
        assert not by_name["oracle"].skipped
        assert elapsed < 2.0
        # cfc_oracle against cfc, within the oracle law's bound
        direct, scale = cfc(f, a, ring).value, fro_norm(a)
        fmax = max(abs(complex(f.eval(x))) for x in spectrum(a, ring).points)
        err = fro_norm(direct - cfc_oracle(f, a, ring))
        assert err / max(1.0, (1.0 + fmax) * max(scale, 1.0)) <= 1e-8 * max(1.0, 1.0 + fmax, scale)


SCALE_SPECTRA = {
    ScalarRing.COMPLEX: [-1.0, 1j, 0.5 + 0.5j, -0.5j, 2.0, -1.0 - 1j],
    ScalarRing.REAL: np.linspace(-1.0, 1.0, 6),
    ScalarRing.NNREAL: np.linspace(0.0, 1.0, 6),
}


@pytest.mark.parametrize("s", [1e-160, 1e-150, 1e150, 1e155])
@pytest.mark.parametrize("ring", list(ScalarRing))
def test_oracle_and_laws_hold_at_extreme_scales(ring, s):
    """Nodes scaled by the diameter keep every product of the oracle in
    range at norms where powers of a overflow or underflow."""
    a = random_with_spectrum(rng_from_seed(7), SCALE_SPECTRA[ring])
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    a = s * a
    f = ScalarFunction(lambda x: (x / s) ** 2 + 1, ring, "(x/s)^2+1")
    g = ScalarFunction(lambda x: x / s, ring, "x/s")
    report = check_laws(a, f, g, ring)
    assert report.all_passed, report.table()
    assert not any(e.skipped for e in report.entries if e.name != "negation")
    direct = cfc(f, a, ring).value
    assert fro_norm(cfc_oracle(f, a, ring) - direct) <= 1e-12 * fro_norm(direct)


@pytest.mark.parametrize("ring", list(ScalarRing))
def test_cfc_oracle_coerces_once_and_checks_the_predicate_once(work_counts, ring):
    a = random_with_spectrum(rng_from_seed(34), np.arange(5) * 0.25 + 0j)
    cfc_oracle(builtin_function("exp", ring), a, ring)
    assert work_counts["predicate"] == 1 and work_counts["as_matrix"] == 1


@pytest.mark.xfail(strict=True, reason="a residual of 1.4e-10 passes the normality "
                   "predicate while the decomposition is off by 1e-5 (CHANGES.md, FOUND)")
def test_barely_normal_input_is_junk_or_lawful():
    """a = [[1, 1e-5 i], [1e-5 i, 1 + 1e-5]] passes the predicate over C
    (residual 1.4e-10 <= 1e-9), but its plan's residual is 1e-5 and z^2 of it
    lies 2.8e-5 from a @ a: the calculus must either call the input junk or
    satisfy its laws."""
    a = np.array([[1, 1e-5j], [1e-5j, 1 + 1e-5]])
    f = ScalarFunction(lambda z: z * z)
    out = cfc(f, a)
    assert out.junk or check_laws(a, f, f).all_passed
