import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfckit import eigen
from cfckit.cfc import builtin_function, cfc, plan
from cfckit.eigen import (
    DEFAULT_CLUSTER_REL,
    NotSelfadjoint,
    _commutator_residual,
    cluster_with_labels,
    elemental_subalgebra,
    is_selfadjoint,
    is_star_normal,
    predicate_for_ring,
)
from cfckit.matrix_core import (
    NotNormal,
    PredicateReport,
    _rescaled,
    adjoint,
    as_matrix,
    fro_norm,
)
from cfckit.oracle import cfc_oracle
from cfckit.sampling import (
    random_normal_matrix,
    random_unitary,
    random_with_spectrum,
    rng_from_seed,
)
from cfckit.scalars import DEFAULT_TOL, ScalarRing
from cfckit.unitization import UnitizationElement, uni_represent


def _reconstruct(p):
    return (p.u * p.lam) @ adjoint(p.u)


def test_hermitian_diagonal():
    p = plan(np.diag([5.0, 2.0]), ScalarRing.REAL)
    assert np.allclose(p.lam, [2.0, 5.0])
    assert np.allclose(np.abs(p.u), np.array([[0, 1], [1, 0]]))


def test_hermitian_hand_examples():
    # char. poly (2 - x)^2 - 1 => {1, 3}
    p = plan(np.array([[2.0, 1.0], [1.0, 2.0]]), ScalarRing.REAL)
    assert np.allclose(p.lam, [1.0, 3.0])
    # char. poly x^2 - 1 => {-1, 1}
    p = plan(np.array([[0, -1j], [1j, 0]]), ScalarRing.REAL)
    assert np.allclose(p.lam, [-1.0, 1.0])


def test_hermitian_rejects_non_selfadjoint():
    p = plan(np.array([[0, 1], [0, 0]], dtype=complex), ScalarRing.REAL)
    assert isinstance(p.error, NotSelfadjoint)
    with pytest.raises(NotSelfadjoint):
        p.residual()


def test_normal_diagonal_and_rotation():
    p = plan(np.diag([1 + 1j, 2 + 0j]))
    assert sorted(p.lam, key=lambda z: z.real) == pytest.approx([1 + 1j, 2 + 0j])
    # rotation matrix, char. poly x^2 + 1 => {i, -i}
    p = plan(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(p.lam, key=lambda z: z.imag), [-1j, 1j])


def test_normal_rejects_non_normal():
    p = plan(np.array([[0, 1], [0, 0]], dtype=complex))
    assert isinstance(p.error, NotNormal)
    with pytest.raises(NotNormal):
        p.points()


def test_normal_round_trip_random(rng):
    gen = rng_from_seed(21)
    for n in (1, 2, 5, 8, 16):
        lam = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
        u = random_unitary(gen, n)
        a = (u * lam) @ adjoint(u)
        p = plan(a)
        # eigenvalue multiset recovered
        assert np.allclose(
            sorted(p.lam, key=lambda z: (z.real, z.imag)),
            sorted(lam, key=lambda z: (z.real, z.imag)),
            atol=1e-10,
        )
        # reconstruction and unitarity invariants
        assert fro_norm(a - _reconstruct(p)) <= 1e-10 * max(fro_norm(a), 1.0)
        assert fro_norm(adjoint(p.u) @ p.u - np.eye(n)) <= 1e-12 * n


def test_normal_handles_repeated_real_parts(work_counts):
    # distinct eigenvalues sharing a real part force the two-stage split: the
    # residual flags their columns, so they are compressed and rotated
    lam = np.array([1 + 1j, 1 - 1j, 2.0 + 0j])
    gen = rng_from_seed(5)
    u = random_unitary(gen, 3)
    a = (u * lam) @ adjoint(u)
    p = plan(a)
    assert work_counts["compressions"] == 1 and work_counts["eigh"] == 2
    assert p.residual() <= 1e-10


def test_exact_multiplicities_keep_the_hermitian_eigenvectors(work_counts):
    """Each repeated cluster of h is one eigenspace of a: its columns'
    residual clears it without a compression, and u is h's eigenvector
    matrix, bit for bit, with its columns sorted by (re, im) of the
    eigenvalues."""
    lam = np.array([0.5 + 1j] * 3 + [1 - 1j] * 2 + [-0.25 + 0.5j, 2.0])
    a = random_with_spectrum(rng_from_seed(61), lam)
    p = plan(a)
    assert work_counts["compressions"] == 0 and work_counts["eigh"] == 1
    _, v = np.linalg.eigh((a + adjoint(a)) / 2)
    n = len(lam)
    perm = [[i for i in range(n) if np.array_equal(p.u[:, j], v[:, i])] for j in range(n)]
    assert sorted(sum(perm, [])) == list(range(n))
    assert np.allclose(p.lam, np.sort_complex(lam), atol=1e-12)


def test_the_zero_run_of_the_unitization_takes_no_compression(work_counts):
    """diag(0, a) with a's eigenvalues distinct: the cluster of n zeros of
    h is cleared by its own columns' residual, which the distinct half of
    the spectrum does not enter."""
    n = 32
    gen = rng_from_seed(62)
    lam = 0.5 + 0.25 * np.arange(n) + 1j * gen.uniform(-1, 1, n)
    b = uni_represent(UnitizationElement(0.0, random_with_spectrum(gen, lam)))
    p = plan(b)
    assert work_counts["compressions"] == 0 and work_counts["eigh"] == 1
    assert p.multiplicities[0] == n and p.points()[0] == 0
    assert p.residual() <= 1e-12


@pytest.mark.parametrize("n", [6, 16, 64])
def test_normal_exact_multiplicities_agree_with_the_oracle(n):
    # exact multiplicities, which keep h's eigenvectors, and a pair on one
    # real part 1e-13 ||a|| apart, which needs its own eigensolve
    lam = np.resize(np.array([0.5 + 1j, 1 - 1j, -0.25 + 0.5j]), n)
    lam[-2:] = 1.5 + 0.2j
    lam[-1] += 1e-13j * np.linalg.norm(lam)
    a = random_with_spectrum(rng_from_seed(40 + n), lam)
    p = plan(a)
    assert p.residual() <= 1e-10
    assert fro_norm(adjoint(p.u) @ p.u - np.eye(n)) <= 1e-12 * n
    assert np.allclose(p.lam, np.sort_complex(lam), atol=1e-10)
    exp = builtin_function("exp")
    ref = cfc_oracle(exp, a)
    assert fro_norm(cfc(exp, a).value - ref) <= 1e-8 * fro_norm(ref)


def test_selfadjoint_spectrum_is_real(rng):
    gen = rng_from_seed(9)
    for _ in range(10):
        a = random_normal_matrix(gen, 6, ScalarRing.REAL)
        p = plan(a)
        assert np.max(np.abs(p.lam.imag)) <= 1e-12 * max(fro_norm(a), 1.0)


def test_eigenvalues_invariant_under_unitary_conjugation():
    gen = rng_from_seed(13)
    a = random_normal_matrix(gen, 6, ScalarRing.COMPLEX)
    v = random_unitary(gen, 6)
    lam1 = np.sort_complex(plan(a).lam)
    lam2 = np.sort_complex(plan(v @ a @ adjoint(v)).lam)
    assert np.allclose(lam1, lam2, atol=1e-10)


def test_one_by_one_short_circuit():
    p = plan(np.array([[3 - 2j]]))
    assert p.lam[0] == 3 - 2j
    assert p.residual() == 0.0


def test_cluster_examples():
    points, mults = cluster_with_labels([1.0, 1.0 + 1e-14, 2.0], 1e-9)
    assert tuple(points) == pytest.approx((1.0, 2.0))
    assert mults == (2, 1)

    points, mults = cluster_with_labels([3.0], 1.0)
    assert points.tolist() == [3 + 0j]
    assert mults == (1,)

    points, mults = cluster_with_labels([0.0, 1.0, 2.0], 1e-9)
    assert points.size == len(mults) == 3


@pytest.mark.parametrize("diameter", [-1e-300, -1.0, math.nan])
def test_cluster_rejects_a_diameter_that_is_not_nonnegative(diameter):
    with pytest.raises(ValueError, match="diameter must be nonnegative"):
        cluster_with_labels([1.0, 2.0], diameter)


def test_a_cluster_straddling_another_point_in_real_part_stays_whole():
    """The computed real part of i may fall between those of the two 0s of
    {0, 0, i}; the 0s still form one cluster."""
    points, mults = cluster_with_labels([-1e-17, 1j, 1e-17], 1e-8)
    assert points.tolist() == [0j, 1j] and mults == (2, 1)
    gen = rng_from_seed(33)
    straddled = 0
    for _ in range(200):
        lam = plan(random_with_spectrum(gen, np.array([0, 0, 1j]))).lam
        zeros = sorted(z.real for z in lam if abs(z) < 0.5)
        straddled += zeros[0] < lam[np.abs(lam) > 0.5][0].real < zeros[1]
        points, mults = cluster_with_labels(lam, DEFAULT_CLUSTER_REL * np.sqrt(2.0))
        by_size = dict(zip(mults, points))
        assert sorted(by_size) == [1, 2]
        assert abs(by_size[2]) <= 1e-15 and abs(by_size[1] - 1j) <= 1e-14
    assert straddled > 0


def test_cluster_is_nonempty_for_any_matrix():
    gen = rng_from_seed(17)
    for n in range(1, 9):
        a = random_normal_matrix(gen, n, ScalarRing.COMPLEX)
        points, mults = cluster_with_labels(plan(a).lam, 1e-8)
        assert points.size >= 1
        assert sum(mults) == n


def test_hermitian_keeps_real_eigenvectors_real():
    a = random_normal_matrix(rng_from_seed(3), 6, ScalarRing.REAL).real
    p = plan(a, ScalarRing.REAL)
    assert np.isrealobj(p.u) and np.isrealobj(p.lam)
    assert p.residual() <= 1e-12
    assert not np.isrealobj(plan(np.array([[0, -1j], [1j, 0]]), ScalarRing.REAL).u)


def _symmetrized_inputs():
    """Exactly symmetric float64 inputs (n = 1, 4 and 64, -0.0 entries, the
    zero matrix, an indefinite one, and the scales 2^-1030 and 1e200, which
    _rescaled rescales) and three that are not: one ulp off on one
    off-diagonal entry of a 4x4, positive and indefinite, and a subnormal
    skew part whose quotient by ||a||_F rounds to zero."""
    gen = rng_from_seed(53)
    out = []
    for n in (1, 4, 64):
        m = random_with_spectrum(gen, gen.uniform(0.1, 2.0, n)).real
        out.append((m + m.T) * 0.5)
    psd = out[1]
    indefinite = random_with_spectrum(gen, [-1.0, 0.5, 2.0]).real
    m = random_with_spectrum(gen, [-1.0, -0.5, 0.5, 2.0]).real
    off, off_indefinite = psd.copy(), (m + m.T) * 0.5
    for x in (off, off_indefinite):
        x[0, 1] = np.nextafter(x[0, 1], np.inf)
    return out + [
        np.array([[2.0, -0.0, 0.5], [-0.0, -0.0, -0.0], [0.5, -0.0, 3.0]]),
        np.zeros((4, 4)), -np.zeros((2, 2)), indefinite + indefinite.T,
        psd * 2.0 ** -1030, psd * 1e200, off, off_indefinite,
        np.array([[10.0, 0.0], [5e-324, 3.0]]),
    ]


@pytest.mark.parametrize("ring", [ScalarRing.REAL, ScalarRing.NNREAL], ids=lambda r: r.value)
def test_real_plans_decompose_the_symmetrized_input_bit_for_bit(ring, monkeypatch):
    """Over R and R>=0 the one eigensolve of a float64 input reads h = ((a +
    a^T) + 0.0) / 2 bit for bit, whether the plan forms that sum or takes h =
    a + 0.0 for an exactly symmetric a, and the plan's u, lam and report (or
    its failure's) are those of np.linalg.eigh(h).  The selfadjoint residual
    is 0.0 exactly where a = a^T, and else ||a - a^T||_F / ||a||_F, or the
    least subnormal where that quotient rounds to zero."""
    solved = []

    def eigh(h):
        solved.append(h.copy())
        return np.linalg.eigh(h)

    monkeypatch.setattr(eigen, "_eigh", eigh)
    for a in _symmetrized_inputs():
        b, scale, c = _rescaled(as_matrix(a))
        h = (b + b.T) + 0.0
        h /= 2
        w, u = np.linalg.eigh(h)
        residual = is_selfadjoint(a).residual
        if np.array_equal(a, a.T):
            assert residual == 0.0 and h.tobytes() == (b + 0.0).tobytes()
        else:
            assert residual == (fro_norm(b - b.T) / scale or 5e-324) > 0.0
        name = "selfadjoint"
        if ring is ScalarRing.NNREAL:
            name = "nonneg"
            if w[0] < 0:
                negative = fro_norm(w[w < 0]) / max(scale, 1e-300)
                residual = max(residual, math.hypot(residual / 2, negative))
        report = PredicateReport(name, residual <= DEFAULT_TOL, residual, DEFAULT_TOL)
        solved.clear()
        p = plan(a, ring)
        assert [x.tobytes() for x in solved] == [h.tobytes()]
        if not report.holds:  # the indefinite input over R>=0
            assert p.error.report == report
            continue
        assert p.error is None and p.report == report
        assert p.u.tobytes() == u.tobytes()
        assert p.lam.tobytes() == (w if c == 1.0 else w * c).tobytes()


@pytest.mark.parametrize("ring", [ScalarRing.REAL, ScalarRing.NNREAL], ids=lambda r: r.value)
def test_exactly_hermitian_complex_inputs_read_0_and_still_form_a_plus_a_star(ring, monkeypatch):
    """A complex input with a = a* exactly reads the selfadjoint residual
    0.0 over R and R>=0, and its eigensolve still reads h = (a + a*) / 2,
    which complex division forms with signs of zero that a + 0.0 keeps
    (-0.0 imaginary parts on real off-diagonal pairs, and on the diagonal)."""
    solved = []

    def eigh(h):
        solved.append(h.copy())
        return np.linalg.eigh(h)

    monkeypatch.setattr(eigen, "_eigh", eigh)
    gen = rng_from_seed(61)
    g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    real_pairs = np.array([[2.0, complex(0.5, -0.0)], [complex(0.5, 0.0), complex(3.0, -0.0)]])
    for a in (g @ adjoint(g), real_pairs, np.diag([1.0, 2.0]) + 0j):
        assert np.array_equal(a, adjoint(a))
        solved.clear()
        p = plan(a, ring)
        assert p.error is None and p.report.residual == 0.0
        assert [x.tobytes() for x in solved] == [((a + adjoint(a)) / 2).tobytes()]


def test_decompositions_report_their_residual():
    a = random_normal_matrix(rng_from_seed(4), 6, ScalarRing.COMPLEX)
    p = plan(a)
    assert p.report.predicate == "normal" and p.report.holds
    assert p.residual() == pytest.approx(fro_norm(a - _reconstruct(p)) / fro_norm(a), abs=0.0)
    assert p.residual() <= 1e-12


def _dft(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


def _commutator(a):
    return _commutator_residual(*_rescaled(as_matrix(a))[:2])


# The commutator residual ||a*a - aa*||_F / ||a||_F^2 is quadratic in the
# departure from normality where two eigenvalues lie close (Henrici, Numer.
# Math. 4, 1962), so it passes these inputs, which no decomposition the plan
# can build is within tol of: commutator 1.4e-10 and beta 1.0e-5 ...
CLOSE_PAIR = np.array([[1, 1e-5j], [1e-5j, 1 + 1e-5]])
# ... and, for the pair 1, 1 + 1e-8 coupled by 1e-8 i among three more
# eigenvalues, conjugated by the DFT, commutator 1.6e-16 and beta 1.8e-9.
_D5 = np.diag([1, 1 + 1e-8, 2, 3j, -1])
_D5[0, 1] = _D5[1, 0] = 1e-8j
CLOSE_PAIR_5 = _dft(5) @ _D5 @ _dft(5).conj().T
# The commutator reads 1.2e-9, in (tol, 4 tol + 2 tol^2], and beta 8.2e-10.
BAND = _dft(3) @ (np.diag([1, 1j, -1]) + 9e-10 * np.triu(np.ones((3, 3)), 1)) @ _dft(3).conj().T


@pytest.mark.parametrize("a", [CLOSE_PAIR, CLOSE_PAIR_5], ids=["2x2", "n=5"])
def test_is_star_normal_is_the_plans_verdict_where_the_commutator_passes(a):
    """is_star_normal reports the plan's beta, not the commutator, and
    elemental_subalgebra builds no C*(a) for an input the plan rejects."""
    assert _commutator(a) <= 2e-10
    p = plan(a)
    report = is_star_normal(a)
    assert isinstance(p.error, NotNormal) and report == p.error.report
    assert report.predicate == "normal" and not report.holds and report.residual > 1e-9
    with pytest.raises(NotNormal):
        elemental_subalgebra(a)


_TABLE = {
    "zero": np.zeros((3, 3)),
    "identity": np.eye(4),
    "nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "close pair": CLOSE_PAIR,
    "close pair n=5": CLOSE_PAIR_5,
    "band": BAND,
    "barely symmetric": np.array([[1.0, 4.5e-10], [-4.5e-10, -1.0]]),
    "indefinite": np.diag([1.0, -1.0, 2.0]),
    "clamped": np.diag([1.0, -9e-10]),
    "normal": random_normal_matrix(rng_from_seed(64), 6, ScalarRing.COMPLEX),
    "hermitian": random_normal_matrix(rng_from_seed(65), 5, ScalarRing.REAL),
    "huge non-normal": np.triu(np.full((3, 3), 1e300)),
}


@pytest.mark.parametrize("ring", list(ScalarRing), ids=lambda r: r.value)
@pytest.mark.parametrize("name", list(_TABLE))
def test_predicate_for_ring_is_the_plans_report(name, ring):
    """The public predicate of each ring returns the plan's report, or its
    PredicateFailure's report, field for field, at any tol."""
    a = _TABLE[name]
    for tol in (0.0, 1e-9, 1e-6):
        p = plan(a, ring, tol)
        assert predicate_for_ring(a, ring, tol) == (p.report if p.error is None
                                                    else p.error.report)


def test_the_plan_over_c_accepts_an_input_whose_commutator_lies_in_the_band(work_counts):
    """beta alone decides over C: BAND's beta is within tol, so the plan
    forms no commutator and accepts it."""
    assert 1e-9 < _commutator(BAND) <= 4e-9 + 2e-18
    p = plan(BAND)
    assert work_counts["predicate"] == 0
    assert p.error is None and p.report.residual <= 1e-9 and is_star_normal(BAND).holds


def test_the_plan_over_c_accepts_a_near_selfadjoint_pair_that_the_plan_over_r_accepts():
    """a = q diag(1, 1 + 3e-9) q^T plus a skew part of 1e-13: the plan over
    R accepts it, and so does the one over C, whose refinement keeps h's
    eigenvectors (theta about 0) where a rotation by the eigenvectors of
    a's skew part read beta 1.5e-9."""
    t = 0.3
    q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    a = q @ np.diag([1.0, 1.0 + 3e-9]) @ q.T + 1e-13 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert plan(a, ScalarRing.REAL).error is None
    assert plan(a).error is None


def _orthogonal(gen, n):
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _normal_families(gen, n):
    """Normal inputs whose clusters of h the refinement must split: Haar
    conjugates of conjugate pairs e^(+-i t) and of a vertical line, real
    rotations Q blockdiag([[0, t], [-t, 0]]) Q^T (h = 0) and permutations."""
    k = n // 2
    t = gen.uniform(0.1, math.pi - 0.1, k)
    pairs = np.r_[np.exp(1j * t), np.exp(-1j * t), [1.0] * (n % 2)]
    yield "pairs", random_with_spectrum(gen, pairs)
    yield "vertical", random_with_spectrum(gen, 0.5 + 1j * gen.uniform(-1, 1, n))
    b = np.zeros((n, n))
    b[2 * np.arange(k), 2 * np.arange(k) + 1] = t
    q = _orthogonal(gen, n)
    yield "rotation", q @ (b - b.T) @ q.T
    yield "permutation", np.eye(n)[gen.permutation(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16])
def test_the_refinement_splits_every_cluster_of_seeded_families(n):
    """Seeded families: every normal input is accepted over C with a
    reconstruction residual within 1e-12, a non-normal Gaussian is
    rejected, and every near-selfadjoint q diag(w) q^T + s (pairs of w at
    gap 1e-9, 3e-9 or 1e-8, ||s||_F from 1e-13 to 1e-11) that the plan over
    R accepts is accepted over C, reconstructed within twice the residual
    over R."""
    for seed in range(40):
        gen = np.random.default_rng([seed, n])
        for name, a in _normal_families(gen, n):
            p = plan(a)
            assert p.error is None, (name, seed, p.error)
            assert p.residual() <= 1e-12, (name, seed)
        assert plan(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))).error
        for gap in (1e-9, 3e-9, 1e-8):
            base = np.sort(gen.uniform(-1, 1, n - n // 2))
            q = _orthogonal(gen, n)
            h = (q * np.sort(np.r_[base, base[: n // 2] + gap])) @ q.T
            for size in (1e-13, 1e-12, 1e-11):
                s = gen.standard_normal((n, n))
                a = h + s * (size / fro_norm(s))
                over_r = plan(a, ScalarRing.REAL)
                if over_r.error is None:
                    p = plan(a)
                    assert p.error is None, (gap, size, seed, p.error)
                    assert p.residual() <= 2 * over_r.residual(), (gap, size, seed)


def _greedy_clusters(lam, cluster_tol):
    """Reference of the sweep's rule with every cluster kept live: in stable
    real-part order, each eigenvalue joins the first cluster opened whose
    members all lie within cluster_tol of it, else opens a new one."""
    clusters = []
    for z in sorted((complex(z) for z in lam), key=lambda z: z.real):
        for c in clusters:
            if all(abs(z - w) <= cluster_tol for w in c):
                c.append(z)
                break
        else:
            clusters.append([z])
    return clusters


def _single_linkage_clusters(lam, cluster_tol):
    """Reference single linkage: every pair compared, members in index order."""
    lam = [complex(z) for z in lam]
    comp = list(range(len(lam)))
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if abs(lam[i] - lam[j]) <= cluster_tol and comp[i] != comp[j]:
                old = comp[j]
                comp = [comp[i] if c == old else c for c in comp]
    return [[z for z, c in zip(lam, comp) if c == root] for root in dict.fromkeys(comp)]


def _mean(c):
    """The first member plus the mean offset of the others (a singleton as
    it is), which cannot overflow where sum(c) does."""
    return c[0] if len(c) == 1 else c[0] + sum(z - c[0] for z in c[1:]) / len(c)


def _points(clusters, cluster_tol):
    """Cluster means and sizes in real-part order, where the means whose
    real parts lie within cluster_tol of the least one left tie and go by
    (im, re)."""
    left = sorted(((_mean(c), len(c)) for c in clusters), key=lambda p: p[0].real)
    out = []
    while left:
        tied = [p for p in left if p[0].real - left[0][0].real <= cluster_tol]
        out += sorted(tied, key=lambda p: (p[0].imag, p[0].real))
        left = left[len(tied):]
    return [z for z, _ in out], [k for _, k in out]


def _diameter(c):
    return max(abs(x - y) for x in c for y in c)


def _assert_same_clustering(lam, cluster_tol):
    points, mults = cluster_with_labels(lam, cluster_tol)
    clusters = _greedy_clusters(lam, cluster_tol)
    assert (points.tolist(), list(mults)) == _points(clusters, cluster_tol)
    assert all(_diameter(c) <= cluster_tol for c in clusters)
    if not np.count_nonzero(np.imag(lam)):
        # on the line the clusters are runs of the sorted eigenvalues
        xs, start = np.sort(np.real(lam)), 0
        for point, k in zip(points, mults):
            run = xs[start:start + k].tolist()
            start += k
            assert run[-1] - run[0] <= cluster_tol
            assert point == _mean([complex(x) for x in run])
    linked = _single_linkage_clusters(lam, cluster_tol)
    if all(_diameter(c) <= cluster_tol for c in linked):
        # single linkage then finds the same clusters, summed in another order
        linked_points, linked_mults = _points(linked, cluster_tol)
        assert list(mults) == linked_mults
        size = max(np.abs(lam))
        assert all(abs(p - q) <= 4 * np.finfo(float).eps * size
                   for p, q in zip(points, linked_points))


def test_singleton_means_are_the_member_plus_zero():
    """A singleton's point is z + 0.0, bit for bit the sum(c) / len(c) it
    was: every part kept, a -0.0 part as +0.0."""
    lam = [complex(-0.0, -0.0), complex(-0.0, 0.75), complex(1 / 3, -0.0), complex(5.0, -1e-300)]
    points, mults = cluster_with_labels(lam, 0.1)
    assert mults == (1, 1, 1, 1)
    for p, z in zip(points.tolist(), lam):
        assert (p.real, p.imag) == (z.real, z.imag)
        assert math.copysign(1.0, p.real) == math.copysign(1.0, z.real + 0.0)
        assert math.copysign(1.0, p.imag) == math.copysign(1.0, z.imag + 0.0)


_grid = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    re=st.lists(_grid, min_size=1, max_size=24),
    im=st.lists(_grid, min_size=24, max_size=24),
    jitter=st.floats(min_value=0.0, max_value=0.3),
    cluster_tol=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.6]),
)
def test_sweep_clustering_matches_brute_force_on_ties(re, im, jitter, cluster_tol):
    lam = [complex(x + jitter * k % 0.1, y) for k, (x, y) in enumerate(zip(re, im))]
    _assert_same_clustering(lam, cluster_tol)


def test_sweep_clustering_matches_brute_force_random():
    gen = rng_from_seed(29)
    for trial in range(400):
        m = int(gen.integers(1, 41))
        cluster_tol = float(gen.choice([0.0, 1e-3, 0.05, 0.2]))
        if trial % 4 == 0:  # complex scatter
            lam = gen.uniform(-1, 1, m) + 1j * gen.uniform(-1, 1, m)
        elif trial % 4 in (1, 2):  # chains: steps just below and above the tolerance
            steps = gen.uniform(0.5, 1.1, m) * max(cluster_tol, 1e-3)
            lam = np.cumsum(steps) + 1j * gen.uniform(-0.3, 0.3, m) * cluster_tol
            if trial % 4 == 2:
                lam = lam.real
        else:  # exact repeats, real and complex
            lam = gen.choice(np.linspace(-1, 1, 5), m) + 1j * gen.choice([0.0, 0.5], m)
        _assert_same_clustering(lam, cluster_tol)


class _Counted(complex):
    """A complex number that counts the differences taken from it: one per
    member comparison of a sweep (and one per member of a cluster's mean)."""

    subs = 0

    def __sub__(self, other):
        _Counted.subs += 1
        return complex.__sub__(self, other)


def _member_loop_sweep(lam, diameter):
    """The sweep with no radius: each eigenvalue is compared with the first
    member of each live cluster, then with every member of the one it may
    join, as cluster_with_labels did before it kept radii."""
    clusters, live = [], 0
    for z in sorted(lam, key=lambda z: z.real):
        while live < len(clusters) and z.real - clusters[live][0].real > diameter:
            live += 1
        for c in clusters[live:]:
            if abs(z - c[0]) <= diameter and all(abs(z - w) <= diameter for w in c):
                c.append(z)
                break
        else:
            clusters.append([z])
    return clusters


def _comparisons(fn, lam, diameter):
    _Counted.subs = 0
    out = fn([_Counted(z) for z in lam], diameter)
    return out, _Counted.subs


@pytest.mark.parametrize("spectrum", ["512-fold", "chain"])
def test_clustering_compares_a_repeated_eigenvalue_with_its_first_member_only(spectrum):
    """A k-fold eigenvalue costs about k member comparisons, not k (k - 1) / 2,
    and every cluster, point and multiplicity is the member loop's.  On a
    real chain (steps of diameter / 64, each cluster as wide as it may be)
    the first member decides alone, which the radius test could not do for
    the second half of each cluster."""
    diameter = 1e-8
    if spectrum == "512-fold":
        lam = [1.0 + 0.5j + k * 1e-12 * (-1) ** k for k in range(512)]
    else:
        lam = [2.0 + k * diameter / 64 for k in range(512)]
    (points, mults), new = _comparisons(cluster_with_labels, lam, diameter)
    clusters, old = _comparisons(_member_loop_sweep, lam, diameter)
    _assert_same_clustering(lam, diameter)
    assert list(mults) == [len(c) for c in clusters]
    # the means add one difference per member after the first
    new -= len(lam) - len(mults)
    if spectrum == "512-fold":
        assert mults == (512,) and new <= 2 * 512 and old >= 512 * 511 // 2
    else:
        assert len(mults) > 1 and new <= 2 * 512 and old >= 16 * 512


# plan(a, REAL) and plan(a) are the decompositions over R and C; their cases
# keep the ids of hermitian_eigen and normal_spectral_decomposition, the
# guards over plan() that they replace.
@pytest.mark.parametrize("fn, params", [
    (is_star_normal, ["a", "tol"]),
    (is_selfadjoint, ["a", "tol"]),
    pytest.param(partial(plan, ring=ScalarRing.REAL), ["a", "ring", "tol"],
                 id="hermitian_eigen-params2"),
    pytest.param(partial(plan, ring=ScalarRing.COMPLEX), ["a", "ring", "tol"],
                 id="normal_spectral_decomposition-params3"),
    pytest.param(partial(plan, ring=ScalarRing.NNREAL), ["a", "ring", "tol"],
                 id="plan-nnreal"),
])
def test_public_predicates_and_decompositions_check_their_own_input(fn, params):
    """They take only their public parameters, coerce and check the input,
    and decide the predicate from the input alone, at any scale; a failed
    predicate is the plan's error."""
    public = [p for p in inspect.signature(fn).parameters if not p.startswith("_")]
    assert public == params
    for bad in ([[1.0, np.nan], [0.0, 1.0]], np.ones((2, 3)), [[np.inf]]):
        with pytest.raises(ValueError, match="square|finite"):
            fn(bad)
    report = lambda out: getattr(out, "report", out)  # a plan carries its report
    herm = [[2.0, 1j], [-1j, 3.0]]
    assert report(fn(herm)) == report(fn(np.array(herm, dtype=complex)))
    for scale in (1e-150, 1.0, 1e8, 1e150):
        nilpotent = scale * np.array([[0, 1], [0, 0]], dtype=complex)
        if fn in (is_star_normal, is_selfadjoint):
            assert not fn(nilpotent).holds
        else:
            failure = NotNormal if fn.keywords["ring"] is ScalarRing.COMPLEX else NotSelfadjoint
            assert isinstance(fn(nilpotent).error, failure)


def _lexicographic(lam):
    keys = [(complex(z).real, complex(z).imag) for z in lam]
    return keys == sorted(keys)


def test_eigenvalues_come_back_sorted_by_real_then_imaginary_part(monkeypatch):
    """The decomposition sorts lam by (re, im), as computed, only when its raw
    order is not already that; on repeated runs of h's eigenvalues and on
    real parts one ulp apart both branches are taken, and the result is
    always sorted."""
    sorts = [0]
    lexsort = np.lexsort

    def counted(*args, **kwargs):
        sorts[0] += 1
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    one_ulp = np.nextafter(1.0, 2.0)
    spectra = [
        [1 + 1j, 1 - 1j, 1 + 0.5j, 2.0, 2 + 1j, 2 - 1j],  # repeated runs of h
        [1 + 1j, one_ulp - 1j, one_ulp + 1j, 1 - 1j],      # real parts 1 ulp apart
        [1 + 1j] * 3 + [1 - 1j] * 2 + [one_ulp + 0.5j],    # exact multiplicities
        [0.5, one_ulp, 1.0, 2.0 + 1j],
    ]
    gen = rng_from_seed(31)
    calls = 0
    for lam in spectra:
        for _ in range(40):
            a = random_with_spectrum(gen, np.array(lam, dtype=complex))
            p = plan(a)
            calls += 1
            assert _lexicographic(p.lam)
            assert p.residual() <= 1e-12
        diag = plan(np.diag(lam)).lam
        assert _lexicographic(diag)
        assert np.array_equal(diag, np.sort_complex(np.array(lam, dtype=complex)))
    assert 0 < sorts[0] < calls  # the sort was both skipped and taken


def test_residual_reads_the_scale_rule_below_the_normal_range():
    """residual() is taken of b = a / c against lam / c, relative to ||b||_F:
    the normal 5x5 input of the oracle's scale test reads the scale-1 value
    where a / c and lam / c are exact (2^-990, 2^-1000), about it where a's
    entries are subnormal (2^-1022, 2^-1025), and never less below that,
    where the stored eigenvalues themselves are subnormal (2^-1040).  It
    read 8e-16, 9e-23 and 3e-23 there when it divided by max(||a||_F,
    1e-300)."""
    u = random_unitary(rng_from_seed(63), 5)
    a = (u * [0.0, 1.0, 2.0, 2.0, 3.5 + 1j]) @ adjoint(u)
    base = plan(a).residual()
    assert 0.0 < base <= 1e-14
    for e in (990, 1000):
        assert plan(a * 2.0 ** -e).residual() == base, e
    for e in (1022, 1025):
        r = plan(a * 2.0 ** -e).residual()
        assert base / 4 <= r <= 4 * base, (e, r)
    assert plan(a * 2.0 ** -1040).residual() >= base


def test_eigh_reads_every_imaginary_part_not_only_the_corner():
    """_eigh reads h[-1, 0] first, then every imaginary part: a complex h
    whose corner is real but which has another imaginary part goes to the
    complex solver as it is, and one with no imaginary part to the real one."""
    from cfckit.eigen import _eigh

    h = np.array([[1.0, 0.5j, 2.0], [-0.5j, 3.0, 0.25], [2.0, 0.25, -1.0]])
    w, u = _eigh(h)
    want_w, want_u = np.linalg.eigh(h)
    assert u.dtype == np.complex128 and np.array_equal(u, want_u) and np.array_equal(w, want_w)
    w, u = _eigh(h.real + 0j)
    assert u.dtype == np.float64 and np.allclose((u * w) @ u.T, h.real, atol=1e-14)
