import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfckit.cfc import builtin_function, cfc, plan
from cfckit.eigen import DEFAULT_CLUSTER_REL, NotSelfadjoint, cluster_with_labels
from cfckit.matrix_core import NotNormal, adjoint, fro_norm, is_selfadjoint, is_star_normal
from cfckit.oracle import cfc_oracle
from cfckit.sampling import (
    random_normal_matrix,
    random_unitary,
    random_with_spectrum,
    rng_from_seed,
)
from cfckit.scalars import ScalarRing
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
    # run residual cannot clear their run, so it is compressed and rotated
    lam = np.array([1 + 1j, 1 - 1j, 2.0 + 0j])
    gen = rng_from_seed(5)
    u = random_unitary(gen, 3)
    a = (u * lam) @ adjoint(u)
    p = plan(a)
    assert work_counts["compressions"] == 1 and work_counts["eigh"] == 2
    assert p.residual() <= 1e-10


def test_exact_multiplicities_keep_the_hermitian_eigenvectors(work_counts):
    """Each repeated cluster of h is one eigenspace of a: the run residual
    clears it without a compression, and u is h's eigenvector matrix, bit
    for bit, with its columns sorted by (re, im) of the eigenvalues."""
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
    """diag(0, a) with a's eigenvalues distinct: the run of n zeros of h is
    cleared by its own columns' residual, which the distinct half of the
    spectrum does not enter."""
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


def test_decompositions_report_their_residual():
    a = random_normal_matrix(rng_from_seed(4), 6, ScalarRing.COMPLEX)
    p = plan(a)
    assert p.report.predicate == "normal" and p.report.holds
    assert p.residual() == pytest.approx(fro_norm(a - _reconstruct(p)) / fro_norm(a), abs=0.0)
    assert p.residual() <= 1e-12


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
