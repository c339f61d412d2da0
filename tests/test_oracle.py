import collections
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfckit.cfc import ScalarFunction, builtin_function, cfc, plan
from cfckit.eigen import _commutator_residual, elemental_subalgebra, is_nonneg, is_star_normal
from cfckit.matrix_core import (
    NotNormal, _elemental_chain, _rescaled, adjoint, as_matrix, fro_norm, identity, zeros,
)
from cfckit.oracle import (
    OracleSkipped,
    StarPolynomial,
    _interpolate,
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
    assert np.allclose(cfc_oracle(ScalarFunction(lambda x: x), a), a)
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
        raise ZeroDivisionError("f fails at every node, but the gap is reported first")

    # a gap of 1e-7 lies above the cluster scale 1e-8 ||a||_F and below the
    # guard, 1e-6 of the diameter
    a = random_with_spectrum(rng_from_seed(6), [0.0, 1e-7, 1.0])
    with pytest.raises(OracleSkipped):
        cfc_oracle(ScalarFunction(lambda x: x), a)
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
# = 9.0e-10 and the backward error over C, 4.5e-10, pass at tol 1e-9, the
# commutator residual 2 sqrt(2) * 4.5e-10 = 1.27e-9 does not
BARELY_SYMMETRIC = np.array([[1.0, 4.5e-10], [-4.5e-10, -1.0]])
# h = diag(-9e-10, 1) and a skew part of 5e-10: each alone is within tol, but
# the reconstruction that clamps the one and drops the other is off from a by
# beta_+ = hypot(5e-10, 9e-10) = 1.03e-9, so the R>=0 plan rejects a
BARELY_NONNEG = np.array([[-9e-10, 3.5355339045e-10], [-3.5355339045e-10, 1.0]])


@pytest.mark.parametrize("ring, a", [(ScalarRing.REAL, BARELY_SYMMETRIC),
                                     (ScalarRing.COMPLEX, BARELY_SYMMETRIC)])
def test_check_laws_runs_every_law_on_an_input_its_plan_accepts(ring, a):
    """The plan over R asks a to be selfadjoint, and the one over C that its
    backward error be within tol, not that the commutator be: the range law
    must not check normality again and raise, and over C the input lies in
    the band (tol, 4 tol + 2 tol^2] of commutators that beta alone decides.
    (Over R>=0 no input meets both premises beyond rounding: with the skew
    part and h's negative part both inside beta_+ <= tol, the commutator
    residual is at most (1 + tol) tol.)"""
    assert plan(a, ring).error is None and _commutator_residual(a, fro_norm(a)) > 1e-9
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
    """A trial reads f once at each eigenvalue and stops at the first one
    where f raises: every row built on f's values fails with f's, and no
    law but junk totality reads f again."""
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


@pytest.mark.parametrize("ring", list(ScalarRing))
def test_check_laws_reads_f_and_g_once_each_at_the_eigenvalues(ring):
    """f is read n times at the eigenvalues of a, n times by the negation
    law (not over R>=0) and k times at the oracle's k nodes; g n times at
    the eigenvalues, n times at f's values (direct composition) and n
    times at the eigenvalues of f(a) (staged composition).  Every other row
    on the plan of a is built from those values: 15 reads of f and 15 of g
    at n = k = 5 over C and R."""
    gen = rng_from_seed(33)
    a = random_with_spectrum(gen, np.arange(5) * 0.25 + (0.5j if ring is ScalarRing.COMPLEX else 0))
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    reads = collections.Counter()

    def counted(name, h):
        def evaluate(x):
            reads[name] += 1
            return h.eval(x)
        return ScalarFunction(evaluate, h.ring, name)

    p, q = random_poly_function(gen, ring), random_poly_function(gen, ring)
    report = check_laws(a, counted("f", p), counted("g", q), ring)
    assert report.all_passed, report.table()
    assert not any(e.skipped for e in report.entries if e.name != "negation")
    n, k = 5, len(plan(a, ring).points())
    assert k == n
    assert reads == {"f": n + k + (0 if ring is ScalarRing.NNREAL else n), "g": 3 * n}


_ALL_SKIPPED = ("add", "mul", "star", "id", "const", "congruence", "spectral_mapping",
                "composition", "negation", "isometry", "range", "oracle")


@pytest.mark.parametrize("exc", [ValueError, StopIteration])
@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("where", ["f at an eigenvalue", "g at an eigenvalue",
                                   "g at f's values"])
def test_a_raising_f_or_g_skips_the_laws_that_read_it(ring, where, exc):
    """f = x + 10 and g = x^2 on diag(1, 2, 3), one of them raising: at an
    eigenvalue of a it fails f's or g's row and every row built on it, so
    junk totality passes and every other law is skipped with no note; g
    raising at f's values only (11 to 13) skips composition with its note
    and every other law passes.  A StopIteration is an exception like any
    other: it ends no row early."""
    def raising(fn, cut):
        def evaluate(x):
            if abs(x) > cut:
                raise exc("outside the domain")
            return fn(x)
        return evaluate

    f, g = (lambda x: x + 10.0), (lambda x: x * x)
    if where == "f at an eigenvalue":
        f = raising(f, 1.5)
    else:
        g = raising(g, 1.5 if where == "g at an eigenvalue" else 5.0)
    report = check_laws(np.diag([1.0, 2.0, 3.0]), ScalarFunction(f, ring),
                        ScalarFunction(g, ring), ring)
    got = [(e.name, e.passed, e.skipped, e.note) for e in report.entries]
    if where != "g at f's values":
        assert got == [("junk_totality", True, False, None)] + \
            [(name, True, True, None) for name in _ALL_SKIPPED]
        return
    assert report.all_passed, report.table()
    skipped = {"composition": "inner value fails the staged hypotheses"}
    if ring is ScalarRing.NNREAL:
        skipped["negation"] = "not applicable over nnreal"
    assert {name: note for name, _, was_skipped, note in got if was_skipped} == skipped


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


# f fails at the cluster mean 0 of 1e-10 and -1e-10, where the calculus
# never evaluates it
CLUSTER_AT_ZERO = np.diag([1.0, 1e-10, -1e-10])
F_FAILS = "f fails at a point of the spectrum"


@pytest.mark.parametrize("f, ring", [
    (builtin_function("inv", ScalarRing.REAL), ScalarRing.REAL),
    (builtin_function("log"), ScalarRing.COMPLEX),
], ids=["inv over R", "log over C"])
def test_check_laws_skips_the_laws_that_read_f_where_f_fails_at_a_cluster_mean(f, ring):
    """cfc of f is sound, but f fails at the point 0 of the spectrum: the
    oracle, whose nodes are the points, is skipped with that note, the
    other laws run (spectral mapping reads f at the eigenvalues, as cfc
    does), and cfc_oracle raises OracleSkipped."""
    assert not cfc(f, CLUSTER_AT_ZERO, ring).junk
    report = check_laws(CLUSTER_AT_ZERO, f, builtin_function("id", ring), ring)
    assert [e.name for e in report.entries if e.skipped] == ["oracle"]
    assert _law(report, "oracle").note == F_FAILS
    assert _law(report, "spectral_mapping").passed
    with pytest.raises(OracleSkipped, match=F_FAILS):
        cfc_oracle(f, CLUSTER_AT_ZERO, ring)


def test_spectral_mapping_reads_f_at_the_eigenvalues_where_f_splits_a_cluster():
    """2 and 2 + 2.5e-8 are one point of a, while their cubes, 3e-7 apart,
    are two points of f(a): the law compares the eigenvalues of f(a) with f
    at those of a and passes.  It read 1.5e-7 against 8.0e-8 when it
    compared the points of f(a) with f at the points of a."""
    ring = ScalarRing.REAL
    a = np.diag([2.0, 2.0 + 2.5e-8, 0.1])
    cube = ScalarFunction(lambda x: x ** 3, ring, "cube")
    assert plan(a, ring).multiplicities == (1, 2)
    assert plan(cfc(cube, a, ring).value, ring, 1e-7).multiplicities == (1, 1, 1)
    report = check_laws(a, cube, builtin_function("exp", ring), ring)
    assert report.all_passed, report.table()
    assert _law(report, "spectral_mapping").residual <= 1e-15


def test_add_and_mul_are_skipped_where_f_plus_g_or_f_g_overflows():
    """f = g = id at 1e308: f + g and f g are inf there, so their calculus
    values are eval_failed junk over a sound plan.  add and mul are skipped
    with a note, and no overflow warning is raised on the way; they FAILed
    with residual nan after one."""
    ident = builtin_function("id", ScalarRing.REAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_laws(np.diag([1e308, 1.0]), ident, ident, ScalarRing.REAL)
    assert report.all_passed, report.table()
    assert [e.name for e in report.entries if e.skipped] == ["add", "mul"]
    assert _law(report, "add").note == "f + g fails at a point of the spectrum"
    assert _law(report, "mul").note == "f g fails at a point of the spectrum"


def test_cfc_oracle_skips_where_f_overflows_at_a_point():
    """x x at 1e200 is inf: cfc is eval_failed junk, and the oracle skips
    rather than interpolate a non-finite value."""
    sq = ScalarFunction(lambda x: x * x, ScalarRing.COMPLEX, "sq")
    a = np.diag([1e200, 1.0])
    assert cfc(sq, a).reason == "eval_failed"
    with pytest.raises(OracleSkipped, match=F_FAILS):
        cfc_oracle(sq, a)


def _raise_at(x):
    raise ValueError(f"outside the domain at {x!r}")


# what f does at its failing point; 1j is off both real rings
_FAILURES = {
    "raises": _raise_at,
    "inf": lambda x: math.inf,
    "nan": lambda x: math.nan,
    "off the ring": lambda x: 1j,
    "not a number": lambda x: None,
}


@pytest.mark.parametrize("ring, failure", [
    (ring, failure) for ring in ScalarRing for failure in _FAILURES
    if not (ring is ScalarRing.COMPLEX and failure == "off the ring")  # no value is off C
])
@pytest.mark.parametrize("gap", [False, True], ids=["no gap", "gap"])
def test_a_failing_point_of_the_spectrum_skips_the_laws_that_read_f(ring, failure, gap):
    """f is the identity but at the mean of the cluster {2, 2 + 2e-10}, which
    is no eigenvalue: the calculus is sound, the oracle is skipped with the
    note (the gap guard's note first, where two nodes are also closer than
    it), every other law runs and passes, spectral mapping too, and
    cfc_oracle raises OracleSkipped."""
    a = np.diag(([0.0, 1e-7] if gap else []) + [1.0, 2.0, 2.0 + 2e-10])
    p = plan(a, ring)
    mean, = [x for x in p.points() if x not in p.values]
    fail = _FAILURES[failure]
    f = ScalarFunction(lambda x: fail(x) if x == mean else x, ring, failure)
    assert not cfc(f, a, ring).junk
    report = check_laws(a, f, builtin_function("id", ring), ring)
    skipped = ["negation", "oracle"] if ring is ScalarRing.NNREAL else ["oracle"]
    assert [e.name for e in report.entries if e.skipped] == skipped, report.table()
    assert report.all_passed, report.table()
    oracle_note = _law(report, "oracle").note
    with pytest.raises(OracleSkipped) as exc:
        cfc_oracle(f, a, ring)
    assert str(exc.value) == oracle_note
    assert ("below guard" in oracle_note) if gap else oracle_note == F_FAILS


@pytest.mark.parametrize("name, t", [("sqrt", None), ("log", None), ("rpow", 0.3)])
@pytest.mark.parametrize("spectrum", [[1.0, -1.0], [2.0, -0.5, 1j]])
def test_negation_law_holds_at_the_branch_cut(name, t, spectrum):
    """The plan of -a keeps the imaginary part +0.0 of a real eigenvalue, as
    the plan of a does; f(0.0 - x) keeps it +0.0 where f(-x) would make it
    -0.0 and take sqrt, log and rpow to the other side of the cut."""
    report = check_laws(np.diag(spectrum), builtin_function(name, t=t), builtin_function("exp"))
    assert not _law(report, "negation").skipped
    assert report.all_passed, report.table()


def test_no_exception_but_oracle_skipped_escapes_on_small_normal_inputs():
    """check_laws lets no exception escape, and cfc_oracle only
    OracleSkipped, for builtins that fail on parts of the plane, over
    each ring at n <= 4, some inputs scaled to 1e-9."""
    gen = rng_from_seed(2024)
    names = [("sqrt", None, None), ("log", None, None), ("inv", None, None),
             ("pow", -2, None), ("rpow", None, 0.5), ("rpow", None, -0.5)]
    skips = 0
    for i in range(90):
        ring = list(ScalarRing)[i % 3]
        a = random_normal_matrix(gen, 1 + i % 4, ring) * (1e-9 if i % 5 == 0 else 1.0)
        name, k, t = names[i // 3 % len(names)]  # each name over each ring
        f = builtin_function(name, ring, k, t)
        check_laws(a, f, builtin_function("exp", ring), ring)
        try:
            cfc_oracle(f, a, ring)
        except OracleSkipped:
            skips += 1
    assert skips


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
    negation law over R>=0), each rebuilt once: the nine rows the laws
    apply to the plan of a share one stacked reconstruction.  Over R and
    R>=0 each plan checks the predicate once; over C the plans' backward
    errors decide, and the range law trusts the plan of a.  The plans are
    the trial's only eigensolves, 3 eigh (2 over R>=0); the isometry law's
    operator norm is its one svd."""
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
    assert (work_counts["eigh"], work_counts["eigvalsh"], work_counts["svd"]) == (most, 0, 1)


@pytest.mark.parametrize("ring, rows", [
    (ScalarRing.COMPLEX, 12), (ScalarRing.REAL, 12), (ScalarRing.NNREAL, 11),
])
def test_check_laws_trial_reads_each_row_once_and_builds_no_function(row_reads,
                                                                     function_builds,
                                                                     ring, rows):
    """The nine rows on the plan of a, seven of them built from f's and g's
    values, are read once each and rebuilt together, f's row among them
    serving spectral mapping, isometry and the oracle's slope; g on the
    plan of f(a), f(0 - x) on the plan of -a (not over R>=0) and f at the
    oracle's nodes are one row each.  The trial constructs no
    ScalarFunction."""
    gen = rng_from_seed(33)
    a = random_with_spectrum(gen, np.arange(6) * 0.25 + (0.5j if ring is ScalarRing.COMPLEX else 0))
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    f, g = random_poly_function(gen, ring), random_poly_function(gen, ring)
    built = function_builds[0]
    report = check_laws(a, f, g, ring)
    assert report.all_passed
    assert not any(e.skipped for e in report.entries if e.name != "negation")
    assert row_reads[0] == rows
    assert function_builds[0] == built


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
def test_oracle_law_holds_on_large_spectra(decompositions, reconstructions, family, n):
    """Newton interpolation at Leja points keeps the oracle law within its
    bound up to n = 64, where monomial coefficients lose every digit.  The
    trial's cost is bounded by its work, which no load on the machine
    changes: at most three decompositions, each rebuilt once."""
    gen = rng_from_seed(40 + n)
    ring = ScalarRing.REAL if family == "line" else ScalarRing.COMPLEX
    a = random_with_spectrum(gen, _family(family, n, gen))
    if ring is ScalarRing.REAL:
        a = (a + adjoint(a)) / 2
    for f in (builtin_function("exp", ring), random_poly_function(gen, ring)):
        decompositions[0] = reconstructions[0] = 0
        report = check_laws(a, f, random_poly_function(gen, ring), ring)
        assert decompositions[0] <= 3 and reconstructions[0] == 3
        by_name = {e.name: e for e in report.entries}
        assert report.all_passed, report.table()
        assert not by_name["oracle"].skipped
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


def _newton_reference(a, points, values):
    """_interpolate's general path for any number of points, one included:
    the nodes rescaled with a, put in Leja order, divided differences, and
    Horner's rule with k - 1 products."""
    a, _, s = _rescaled(a)
    x = (np.array(points, dtype=np.complex128).view(np.float64) / s).view(np.complex128)
    k, n = len(x), a.shape[0]
    dist = np.abs(x[:, None] - x)
    c = float(dist.max()) / 4 or 1.0
    dist.reshape(-1)[:: k + 1] = math.inf
    xs, rows = x.tolist(), dist.tolist()
    order = [max(range(k), key=lambda i: abs(xs[i]))]
    reach = [1.0] * k
    for _ in range(k - 1):
        reach = [r * (d / c) for r, d in zip(reach, rows[order[-1]])]
        for i in order:
            reach[i] = -1.0
        order.append(max(range(k), key=reach.__getitem__))
    y = [xs[i] / c for i in order]
    d = [complex(values[i]) for i in order]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (y[i] - y[i - j])
    b = a / c
    out = d[-1] * identity(n)
    for dj, yj in zip(reversed(d[:-1]), reversed(y[:-1])):
        out = b @ out - yj * out
        out.reshape(-1)[:: n + 1] += dj
    return out


@pytest.mark.parametrize("s", [2.0 ** -1025, 1e-150, 1.0, 1e150, 1e300])
@pytest.mark.parametrize("spectrum", [[1.5], [-2.0 + 0.5j] * 4, [0.25, -1.0, 2j, 3.0]],
                         ids=["one-node", "one-node-4-fold", "four-nodes"])
def test_interpolate_equals_the_general_newton_path_bit_for_bit(spectrum, s):
    """The one-node shortcut, f(lambda) I with no rescale or product, is the
    general path's value bit for bit, as is every other interpolant."""
    a = random_with_spectrum(rng_from_seed(70), np.array(spectrum) * s)
    p = plan(a)
    points = p.points()
    values = [complex(z) * (1 - 0.5j) / s + 0.25 for z in points]
    got, want = _interpolate(p.a, points, values), _newton_reference(p.a, points, values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(OracleSkipped, match="f fails"):
        _interpolate(p.a, points, None)


SPOILED = 1.0 + 1e-6
# the positions of the values check_laws rebuilds in its one _rebuild
_REBUILT_ROW = {"mul": 3, "star": 4, "id": 5, "congruence": 7}


@pytest.mark.parametrize("ring", [ScalarRing.COMPLEX, ScalarRing.REAL])
@pytest.mark.parametrize("law", ["id", "star", "congruence", "negation", "oracle"])
def test_a_value_spoiled_by_a_millionth_fails_its_law_at_scale_1e150(monkeypatch, law, ring):
    """Negative controls: each law's scale is its own operands' norm, so at
    ||a|| = 3e150 a value off by 1e-6 relative FAILs where the parent's
    tolerances, scaled twice, read up to 3e142 and let it pass."""
    oracle = importlib.import_module("cfckit.oracle")
    cfc_mod = importlib.import_module("cfckit.cfc")

    def spoil(out):
        out.value = out.value * SPOILED
        return out

    if law in _REBUILT_ROW:
        rebuild = cfc_mod.SpectralPlan._rebuild

        def spoiled_rebuild(self, rows):
            outs = rebuild(self, rows)
            spoil(outs[_REBUILT_ROW[law]])
            return outs
        monkeypatch.setattr(cfc_mod.SpectralPlan, "_rebuild", spoiled_rebuild)
    elif law == "negation":
        apply = cfc_mod.SpectralPlan._apply

        def spoiled_apply(self, feval, ring):  # on the plan of -a only
            out = apply(self, feval, ring)
            return spoil(out) if np.array_equal(self.a, -a) else out
        monkeypatch.setattr(cfc_mod.SpectralPlan, "_apply", spoiled_apply)
    else:
        monkeypatch.setattr(oracle, "_interpolate", lambda *args: _interpolate(*args) * SPOILED)
    s = 1e150
    a = s * random_with_spectrum(rng_from_seed(7), SCALE_SPECTRA[ring])
    if ring is not ScalarRing.COMPLEX:
        a = (a + adjoint(a)) / 2
    f = ScalarFunction(lambda x: (x / s) ** 2 + 1, ring, "(x/s)^2+1")
    g = ScalarFunction(lambda x: x / s, ring, "x/s")
    entry = _law(check_laws(a, f, g, ring), law)
    assert not entry.skipped and not entry.passed, entry
    assert entry.residual > 10 * entry.tolerance


@pytest.mark.parametrize("ring", [ScalarRing.COMPLEX, ScalarRing.REAL])
@pytest.mark.parametrize("s", [1e-150, 1.0, 1e150])
def test_isometry_fails_a_doubled_operator_norm_at_any_scale(monkeypatch, ring, s):
    """Negative control of the isometry law's scale, max |f| with no floor:
    an operator norm of f(a) twice the true one FAILs at every scale, where
    the floor max(1, max |f|) let it pass below unit scale (residual
    1.1e-150 against 1e-9 at s = 1e-150), and the true one passes."""
    oracle = importlib.import_module("cfckit.oracle")
    a = s * random_normal_matrix(rng_from_seed(41), 6, ring)
    f = ScalarFunction(lambda x: x, ring)
    entry = _law(check_laws(a, f, f, ring), "isometry")
    assert entry.passed and not entry.skipped, entry
    norm = oracle.operator_norm
    monkeypatch.setattr(oracle, "operator_norm", lambda x: 2.0 * norm(x))
    entry = _law(check_laws(a, f, f, ring), "isometry")
    assert not entry.skipped and not entry.passed, entry
    assert entry.residual > 10 * entry.tolerance


@pytest.mark.parametrize("s", [1e150, 1e155])
def test_congruence_reads_f_where_the_vanishing_polynomial_overflows(s):
    """At 1e150 the vanishing polynomial's product over six eigenvalues
    overflows, and inf * 0 was nan at an exact root: its row was junk and
    the law compared zeros with f(a).  It is 0 at a root before any product,
    so f + vanish equals f(a) exactly."""
    ring = ScalarRing.COMPLEX
    a = s * random_with_spectrum(rng_from_seed(7), SCALE_SPECTRA[ring])
    f = ScalarFunction(lambda x: (x / s) ** 2 + 1, ring, "(x/s)^2+1")
    entry = _law(check_laws(a, f, ScalarFunction(lambda x: x / s, ring, "x/s"), ring),
                 "congruence")
    assert entry.passed and not entry.skipped and entry.residual == 0.0


@pytest.mark.parametrize("ring", [ScalarRing.COMPLEX, ScalarRing.REAL])
@pytest.mark.parametrize("lam", [[1.0, 2.0], [-1.0, 0.5, 2.0], [0.5, 1.0, 1.5, 3.0]],
                         ids=lambda lam: f"n{len(lam)}")
def test_congruence_fails_where_every_function_is_read_off_the_spectrum(monkeypatch, ring, lam):
    """Negative control of the vanishing polynomial's product: with its
    roots moved off the plan's values by 1e-6 ||a||, no eigenvalue at
    which the trial reads f + vanish is an exact root, so it differs from f
    by the product, about 1e-6 ||a|| times the distances to the other
    eigenvalues, and congruence FAILs far beyond its tolerance."""
    oracle = importlib.import_module("cfckit.oracle")
    vanishing = oracle._vanishing
    a = random_with_spectrum(rng_from_seed(11), np.asarray(lam) * (1.0 + 0.5j))
    if ring is ScalarRing.REAL:
        a = random_with_spectrum(rng_from_seed(11), lam)
        a = (a + adjoint(a)) / 2
    shift = 1e-6 * fro_norm(a)
    monkeypatch.setattr(oracle, "_vanishing", lambda xs: vanishing([x + shift for x in xs]))
    ident = ScalarFunction(lambda x: x, ring)
    entry = _law(check_laws(a, builtin_function("exp", ring), ident, ring), "congruence")
    assert not entry.skipped and not entry.passed, entry
    assert entry.residual > 10 * entry.tolerance


def test_a_law_whose_scale_overflows_is_skipped_with_its_note():
    """||a||_F = 1.5e308 sqrt(2) overflows, so the id law has no finite
    tolerance: it is skipped with its note, and the trial raises nothing."""
    a = np.diag([1.5e308, 1.5e308])
    ring = ScalarRing.REAL
    ident = ScalarFunction(lambda x: x, ring)
    entry = _law(check_laws(a, ident, ident, ring), "id")
    assert entry.skipped and entry.note == "the scale of the id law overflows"


@pytest.mark.parametrize("ring", [ScalarRing.COMPLEX, ScalarRing.REAL])
@pytest.mark.parametrize("n", [1, 2, 5, 6])
@pytest.mark.parametrize("s", [1e-320, 1e-310])
def test_laws_on_subnormal_values_pass_right_ones_and_fail_wrong_ones(monkeypatch, s, n, ring):
    """f = g = s x with f's values below the normal range: tol times a law's
    scale underflows to 0.0 at 1e-320, where add, star, spectral mapping,
    isometry and range failed values right to the subnormal grid.  Each of
    those tolerances is floored at the law's own rounding there, a count of
    spacings 2^-1074, not at the least normal: the true values pass, a
    doubled f(a) FAILs add, star and isometry, and f(a) plus a non-member of
    C*(a) of half its norm FAILs range (for n > 1; at n = 1 C*(a) is M_1).
    At 1e-320 the grid holds f(a) to about 1e-3 relative, so its plan may
    find it not normal (not selfadjoint over R), and the two laws that need
    that plan are skipped with their note."""
    cfc_mod = importlib.import_module("cfckit.cfc")
    a = random_normal_matrix(rng_from_seed(5), n, ring)
    f = ScalarFunction(lambda x: s * x, ring, "s x")
    report = check_laws(a, f, f, ring)
    assert report.all_passed, report.table()
    for e in report.entries:
        assert not e.skipped or (s == 1e-320 and e.note.startswith("f(a) is junk")), e

    rebuild = cfc_mod.SpectralPlan._rebuild

    def spoiled(spoil):
        def spoiled_rebuild(self, rows):
            outs = rebuild(self, rows)
            outs[0].value = spoil(outs[0].value)  # f's value on the plan of a
            return outs
        monkeypatch.setattr(cfc_mod.SpectralPlan, "_rebuild", spoiled_rebuild)
        return check_laws(a, f, f, ring)

    report = spoiled(lambda v: 2.0 * v)
    for law in ("add", "star", "isometry"):
        entry = _law(report, law)
        assert not entry.skipped and not entry.passed, entry
    if n > 1:
        z = rng_from_seed(6).standard_normal((n, n)) + 0j
        z -= _elemental_chain(plan(a, ring).a, unital=True).project(z)
        entry = _law(spoiled(lambda v: v + z * (0.5 * fro_norm(v) / fro_norm(z))), "range")
        assert not entry.skipped and not entry.passed, entry


@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mul_passes_a_product_of_subnormal_and_large_values(ring, n):
    """f = 1e-320 x and g = 1e10 x: f(a) lies on the subnormal grid, off by
    up to R spacings 2^-1074, and f(a) g(a) carries that times ||g(a)||,
    far above tol ||f(a)|| ||g(a)|| (3.7e-313 against 5.8e-319 at n = 5
    over C).  The mul law's floor counts it, as _subnormal_floors says."""
    a = random_normal_matrix(rng_from_seed(5), n, ring)
    f = ScalarFunction(lambda x: 1e-320 * x, ring, "1e-320 x")
    g = ScalarFunction(lambda x: 1e10 * x, ring, "1e10 x")
    entry = _law(check_laws(a, f, g, ring), "mul")
    assert entry.passed and not entry.skipped, entry


@pytest.mark.parametrize("ring", list(ScalarRing))
@pytest.mark.parametrize("s", [1e-320, 1.0])
def test_mul_fails_a_doubled_product_below_and_at_unit_scale(monkeypatch, ring, s):
    """Negative control of the mul law's floor: a value of f g twice the
    true one FAILs at f = 1e-320 x, where the floor is the whole
    tolerance, as at unit scale."""
    cfc_mod = importlib.import_module("cfckit.cfc")
    rebuild = cfc_mod.SpectralPlan._rebuild

    def spoiled_rebuild(self, rows):
        outs = rebuild(self, rows)
        if len(outs) > _REBUILT_ROW["mul"]:  # the plan of a
            outs[_REBUILT_ROW["mul"]].value = 2.0 * outs[_REBUILT_ROW["mul"]].value
        return outs
    monkeypatch.setattr(cfc_mod.SpectralPlan, "_rebuild", spoiled_rebuild)
    a = random_normal_matrix(rng_from_seed(5), 5, ring)
    f = ScalarFunction(lambda x: s * x, ring, "s x")
    g = ScalarFunction(lambda x: 1e10 * x, ring, "1e10 x")
    entry = _law(check_laws(a, f, g, ring), "mul")
    assert not entry.skipped and not entry.passed, entry
    assert entry.residual > 10 * entry.tolerance


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
       ring=st.sampled_from(list(ScalarRing)), exponent=st.floats(-150.0, 150.0))
def test_check_laws_passes_correct_values_at_any_size_and_scale(seed, n, ring, exponent):
    """Every law runs and passes on correct values from n = 1 to 24 at scales
    from 1e-150 to 1e150, with p and q random cubics, f = s p(x / s) and g =
    q(x / s) (so that g reads f's values in range too): the laws' own
    scales hold where the norms are far from 1."""
    gen = rng_from_seed(seed)
    s = 10.0 ** exponent
    a = random_normal_matrix(gen, n, ring) * s
    p, q = random_poly_function(gen, ring), random_poly_function(gen, ring)
    f = ScalarFunction(lambda x: s * p.eval(x / s), ring, "s p(x/s)")
    g = ScalarFunction(lambda x: q.eval(x / s), ring, "q(x/s)")
    report = check_laws(a, f, g, ring)
    assert report.all_passed, report.table()
    skips = {e.name for e in report.entries if e.skipped}
    assert skips <= ({"negation"} if ring is ScalarRing.NNREAL else set()), report.table()
