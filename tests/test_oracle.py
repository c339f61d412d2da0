import collections
import math
import time

import numpy as np
import pytest

from cfckit.cfc import ScalarFunction, builtin_function, cfc, identity_function, plan
from cfckit.matrix_core import (
    NotNormal,
    adjoint,
    as_matrix,
    elemental_subalgebra,
    fro_norm,
    identity,
    is_nonneg,
    is_star_normal,
    zeros,
)
from cfckit.oracle import (
    OracleSkipped,
    StarPolynomial,
    _interpolate,
    _memoised,
    cfc_oracle,
    check_laws,
)
from cfckit.sampling import (
    random_normal_matrix,
    random_poly_function,
    random_unitary,
    random_with_spectrum,
    rng_from_seed,
)
from cfckit.scalars import ScalarRing
from cfckit.spectrum import quasispectrum_intrinsic, quasispectrum_via_unitization, spectrum

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


# a = h + k with k = -k^T of 4.5e-10: the selfadjoint residual 2 * 4.5e-10
# = 9.0e-10 passes at tol 1e-9, the commutator residual 2 sqrt(2) * 4.5e-10
# = 1.27e-9 does not
BARELY_SYMMETRIC = np.array([[1.0, 4.5e-10], [-4.5e-10, -1.0]])
# h = diag(-9e-10, 1) and a skew part of 5e-10: each alone is within tol, but
# the reconstruction that clamps the one and drops the other is off from a by
# beta_+ = hypot(5e-10, 9e-10) = 1.03e-9, so the R>=0 plan rejects a
BARELY_NONNEG = np.array([[-9e-10, 3.5355339045e-10], [-3.5355339045e-10, 1.0]])


@pytest.mark.parametrize("ring, a", [(ScalarRing.REAL, BARELY_SYMMETRIC)])
def test_check_laws_runs_every_law_on_an_input_its_plan_accepts(ring, a):
    """The plan over R asks a to be selfadjoint, not normal to within tol:
    the range law must not check normality again and raise.  (Over R>=0 no
    input meets both premises beyond rounding: with the skew part and h's
    negative part both inside beta_+ <= tol, the commutator residual is at
    most (1 + tol) tol.)"""
    assert plan(a, ring).error is None and not is_star_normal(a).holds
    sq = ScalarFunction(lambda x: x * x, ring, "sq")
    report = check_laws(a, builtin_function("exp", ring), sq, ring)
    assert report.all_passed, report.table()
    assert _law(report, "range").passed and not _law(report, "range").skipped


def _clamped_family(k, seed=5):
    """q diag(1, -9e-10 repeated k times) q^T, q random orthogonal, then
    symmetrised: every eigenvalue of h but one is clamped by the R>=0 plan,
    and beta_+ = 9e-10 sqrt(k) / ||a||_F."""
    q = np.linalg.qr(rng_from_seed(seed + k).standard_normal((k + 1, k + 1)))[0]
    a = (q * np.array([1.0] + [-9e-10] * k)) @ q.T
    return (a + a.T) / 2


@pytest.mark.parametrize("a, accepted", [(_clamped_family(k), k == 1) for k in (1, 4, 16, 63)]
                         + [(BARELY_NONNEG, False)],
                         ids=["k=1", "k=4", "k=16", "k=63", "barely-nonneg"])
def test_check_laws_over_nnreal_passes_every_law_on_an_input_its_plan_accepts(a, accepted):
    """Over R>=0 the plan is sound iff the backward error beta_+ of the
    reconstruction it uses (h's negative eigenvalues clamped to 0, a's skew
    part dropped) is within tol, so every input it accepts passes the id law
    and every other; is_nonneg reads the same rule, and residual() measures
    the clamped reconstruction.  Each clamped eigenvalue of the family is
    within tol on its own, and the id law read 1.8e-9, 3.6e-9 and 7.1e-9 on
    k = 4, 16 and 63 when the plan accepted them."""
    ring = ScalarRing.NNREAL
    p = plan(a, ring)
    lam = np.linalg.eigvalsh((a + a.T) / 2)
    beta = math.hypot(fro_norm(a - a.T) / 2, fro_norm(np.minimum(lam, 0.0))) / fro_norm(a)
    assert (p.error is None) == accepted == (beta <= 1e-9) == is_nonneg(a).holds
    if not accepted:
        assert p.reason == "predicate_failed" and p.error.report.residual == pytest.approx(beta)
        return
    assert p.report.residual == pytest.approx(beta) and p.residual() == pytest.approx(beta)
    sq = ScalarFunction(lambda x: x * x, ring, "sq")
    report = check_laws(a, builtin_function("exp", ring), sq, ring)
    assert report.all_passed, report.table()


@pytest.mark.parametrize("f, ring", [
    (ScalarFunction(lambda x: x - 5.0, ScalarRing.REAL, "x - 5"), ScalarRing.NNREAL),
    (ScalarFunction(lambda x: 1j * x, ScalarRing.COMPLEX, "i x"), ScalarRing.REAL),
], ids=["f(a) leaves R>=0", "f(a) leaves R"])
def test_check_laws_skips_the_laws_on_f_of_a_where_f_of_a_fails_the_ring(f, ring):
    """Spectral mapping and staged composition take a plan of f(a) over the
    ring; where f(a) fails its predicate, both are skipped with the failure
    as the note, and the other laws still run."""
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    report = check_laws(a, f, builtin_function("exp", ScalarRing.REAL), ring)
    for name in ("spectral_mapping", "composition"):
        entry = _law(report, name)
        assert entry.skipped and "predicate" in entry.note, report.table()
    assert not _law(report, "add").skipped and report.all_passed, report.table()


def test_check_laws_calls_a_failing_f_once_per_argument():
    """A trial evaluates f once per distinct argument, also where f raises:
    every function built on f meets the failure it already met."""
    calls = collections.Counter()

    def f(x):
        calls[x] += 1
        if x > 1.5:
            raise ValueError("outside the domain of f")
        return x * x

    report = check_laws(np.diag([1.0, 2.0, 3.0]), ScalarFunction(f, ScalarRing.REAL), SQUARE,
                        ScalarRing.REAL)
    assert [e.name for e in report.entries if not e.skipped] == ["junk_totality"]
    assert calls and max(calls.values()) == 1


def test_memo_calls_f_once_per_distinct_argument_and_answers_repeats():
    """The memo of a trial tells 0.0 from -0.0 and 2.0 from 2+0j: f runs
    once for each such argument, an equal argument object of its own reads
    the kept value, a repeated object reads it by identity, and a raising
    argument raises again without a call.  Arguments are kept alive, so
    the ids of temporaries are never reused for another value."""
    calls = collections.Counter()

    def f(x):
        if isinstance(x, np.ndarray):
            calls["array"] += 1
            return float(x)
        key = (type(x), x, math.copysign(1.0, x.real), math.copysign(1.0, x.imag))
        calls[key] += 1
        if x == 5:
            raise ValueError("outside the domain of f")
        return key

    m = _memoised(ScalarFunction(f))
    args = [0.0, -0.0, 2.0, 2 + 0j, complex(2.0, -0.0), 2, complex(-0.0, 0.0)]
    for _ in range(3):
        for x in args:
            assert m.eval(x) == (type(x), x, math.copysign(1.0, x.real),
                                 math.copysign(1.0, x.imag))
    assert float("2.5") is not float("2.5")
    assert m.eval(float("2.5")) == m.eval(float("2.5")) == (float, 2.5, 1.0, 1.0)
    assert len(calls) == len(args) + 1 and set(calls.values()) == {1}
    for _ in range(2):
        with pytest.raises(ValueError):
            m.eval(5.0)
    assert calls[(float, 5.0, 1.0, 1.0)] == 1
    for i in range(200):  # temporaries: a freed one would hand its id on
        x = i + 0.25
        assert m.eval(x) == (float, x, 1.0, 1.0)
    unhashable = np.array(1.5)  # no key: f runs on every call
    assert m.eval(unhashable) == m.eval(unhashable) == 1.5
    assert calls["array"] == 2


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


def test_check_laws_skips_the_oracle_and_composition_where_their_hypotheses_fail():
    # a gap of 1e-7 lies below the guard, 1e-6 of the diameter
    exp = builtin_function("exp")
    report = check_laws(np.diag([0.0, 1.0, 1.0 + 1e-7]), exp, exp)
    assert report.all_passed
    assert [e.name for e in report.entries if e.skipped] == ["oracle"]
    assert "below guard" in _law(report, "oracle").note
    # f(a) = diag(0, 1), on which the staged log is junk
    shift = ScalarFunction(lambda x: x - 1, ScalarRing.REAL, "x-1")
    report = check_laws(np.diag([1.0, 2.0]), shift, builtin_function("log", ScalarRing.REAL),
                        ScalarRing.REAL)
    assert report.all_passed
    assert [e.name for e in report.entries if e.skipped] == ["composition"]
    assert _law(report, "composition").note == "inner value fails the staged hypotheses"


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
def test_check_laws_trial_decomposes_at_most_three_times(decompositions, reconstructions,
                                                         work_counts, ring, most):
    """One plan of a, one of f(a), and the negation law's cfc on -a (no
    negation law over R>=0), each rebuilt once: the nine functions the laws
    apply to the plan of a share one stacked reconstruction.  Over R and
    R>=0 each plan checks the predicate once; over C the plans' backward
    errors decide, and the range law trusts the plan of a."""
    gen = rng_from_seed(33)
    a = random_with_spectrum(gen, np.arange(6) * 0.25 + (0.5j if ring is ScalarRing.COMPLEX else 0))
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    report = check_laws(a, random_poly_function(gen, ring), random_poly_function(gen, ring), ring)
    assert report.all_passed
    assert not any(e.skipped for e in report.entries if e.name != "negation")
    assert decompositions[0] <= most
    assert reconstructions[0] == most
    assert work_counts["predicate"] == (0 if ring is ScalarRing.COMPLEX else most)


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
        start = time.process_time()  # CPU time: other load does not count
        report = check_laws(a, f, random_poly_function(gen, ring), ring)
        elapsed = time.process_time() - start
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
    """Over C the plan's backward error decides, with no commutator product."""
    a = random_with_spectrum(rng_from_seed(34), np.arange(5) * 0.25 + 0j)
    cfc_oracle(builtin_function("exp", ring), a, ring)
    predicates = 0 if ring is ScalarRing.COMPLEX else 1
    assert work_counts["predicate"] == predicates and work_counts["as_matrix"] == 1


def test_barely_normal_input_is_junk_or_lawful():
    """a = [[1, 1e-5 i], [1e-5 i, 1 + 1e-5]] passes the commutator test
    (residual 1.4e-10 <= 1e-9), but a decomposition by h's eigenvectors is
    1e-5 off, and z^2 of it lay 2.8e-5 from a @ a: the calculus must either
    call the input junk or satisfy its laws."""
    a = np.array([[1, 1e-5j], [1e-5j, 1 + 1e-5]])
    f = ScalarFunction(lambda z: z * z)
    out = cfc(f, a)
    assert out.junk or check_laws(a, f, f).all_passed


def test_every_layer_reads_the_scale_rule_below_the_normal_range():
    """At 2^-1025 a normal a with eigenvalues {0, 1, 2, 2, 3.5 + i} has a
    sound plan; C*(a), both quasispectra, the laws and the oracle agree with
    it, as at scale 1."""
    u = random_unitary(rng_from_seed(63), 5)
    a = (u * [0.0, 1.0, 2.0, 2.0, 3.5 + 1j]) @ adjoint(u) * 2.0 ** -1025
    assert plan(a).reason is None
    assert elemental_subalgebra(a, unital=True).dim == 4
    B = elemental_subalgebra(a, unital=False)
    assert B.dim == 3
    intrinsic = quasispectrum_intrinsic(B, a)
    via = quasispectrum_via_unitization(a)
    assert intrinsic.multiplicities == (1, 1, 2, 1) and len(via.points) == 4
    cut = 1e-8 * fro_norm(a)
    assert all(abs(p - q) <= cut for p, q in zip(intrinsic.points, via.points))
    f, g = builtin_function("sqrt"), builtin_function("abs")
    report = check_laws(a, f, g)
    assert report.all_passed, report.table()
    assert not any(e.skipped for e in report.entries)
    direct = cfc(f, a).value
    assert fro_norm(cfc_oracle(f, a) - direct) <= 1e-12 * fro_norm(direct)
