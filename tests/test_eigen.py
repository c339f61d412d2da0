import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfckit.cfc import builtin_function, cfc
from cfckit.eigen import (
    NotSelfadjoint,
    cluster_with_labels,
    hermitian_eigen,
    normal_spectral_decomposition,
)
from cfckit.matrix_core import NotNormal, adjoint, fro_norm, is_selfadjoint, is_star_normal
from cfckit.oracle import cfc_oracle
from cfckit.sampling import (
    random_normal_matrix,
    random_unitary,
    random_with_spectrum,
    rng_from_seed,
)
from cfckit.scalars import ScalarRing


def test_hermitian_diagonal():
    dec = hermitian_eigen(np.diag([5.0, 2.0]))
    assert np.allclose(dec.lam, [2.0, 5.0])
    assert np.allclose(np.abs(dec.u), np.array([[0, 1], [1, 0]]))


def test_hermitian_hand_examples():
    # char. poly (2 - x)^2 - 1 => {1, 3}
    dec = hermitian_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.lam, [1.0, 3.0])
    # char. poly x^2 - 1 => {-1, 1}
    dec = hermitian_eigen(np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(dec.lam, [-1.0, 1.0])


def test_hermitian_rejects_non_selfadjoint():
    with pytest.raises(NotSelfadjoint):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_normal_diagonal_and_rotation():
    dec = normal_spectral_decomposition(np.diag([1 + 1j, 2 + 0j]))
    assert sorted(dec.lam, key=lambda z: z.real) == pytest.approx([1 + 1j, 2 + 0j])
    # rotation matrix, char. poly x^2 + 1 => {i, -i}
    dec = normal_spectral_decomposition(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(dec.lam, key=lambda z: z.imag), [-1j, 1j])


def test_normal_rejects_non_normal():
    with pytest.raises(NotNormal):
        normal_spectral_decomposition(np.array([[0, 1], [0, 0]], dtype=complex))


def test_normal_round_trip_random(rng):
    gen = rng_from_seed(21)
    for n in (1, 2, 5, 8, 16):
        lam = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
        u = random_unitary(gen, n)
        a = (u * lam) @ adjoint(u)
        dec = normal_spectral_decomposition(a)
        # eigenvalue multiset recovered
        assert np.allclose(
            sorted(dec.lam, key=lambda z: (z.real, z.imag)),
            sorted(lam, key=lambda z: (z.real, z.imag)),
            atol=1e-10,
        )
        # reconstruction and unitarity invariants
        assert fro_norm(a - dec.reconstruct()) <= 1e-10 * max(fro_norm(a), 1.0)
        assert fro_norm(adjoint(dec.u) @ dec.u - np.eye(n)) <= 1e-12 * n


def test_normal_handles_repeated_real_parts():
    # distinct eigenvalues sharing a real part force the two-stage split
    lam = np.array([1 + 1j, 1 - 1j, 2.0 + 0j])
    gen = rng_from_seed(5)
    u = random_unitary(gen, 3)
    a = (u * lam) @ adjoint(u)
    dec = normal_spectral_decomposition(a)
    assert fro_norm(a - dec.reconstruct()) <= 1e-10 * fro_norm(a)


@pytest.mark.parametrize("n", [6, 16, 64])
def test_normal_exact_multiplicities_agree_with_the_oracle(n):
    # exact multiplicities, which keep h's eigenvectors, and a pair on one
    # real part 1e-13 ||a|| apart, which needs its own eigensolve
    lam = np.resize(np.array([0.5 + 1j, 1 - 1j, -0.25 + 0.5j]), n)
    lam[-2:] = 1.5 + 0.2j
    lam[-1] += 1e-13j * np.linalg.norm(lam)
    a = random_with_spectrum(rng_from_seed(40 + n), lam)
    dec = normal_spectral_decomposition(a)
    assert dec.residual <= 1e-10
    assert fro_norm(adjoint(dec.u) @ dec.u - np.eye(n)) <= 1e-12 * n
    assert np.allclose(dec.lam, np.sort_complex(lam), atol=1e-10)
    exp = builtin_function("exp")
    ref = cfc_oracle(exp, a)
    assert fro_norm(cfc(exp, a).value - ref) <= 1e-8 * fro_norm(ref)


def test_selfadjoint_spectrum_is_real(rng):
    gen = rng_from_seed(9)
    for _ in range(10):
        a = random_normal_matrix(gen, 6, ScalarRing.REAL)
        dec = normal_spectral_decomposition(a)
        assert np.max(np.abs(dec.lam.imag)) <= 1e-12 * max(fro_norm(a), 1.0)


def test_eigenvalues_invariant_under_unitary_conjugation():
    gen = rng_from_seed(13)
    a = random_normal_matrix(gen, 6, ScalarRing.COMPLEX)
    v = random_unitary(gen, 6)
    lam1 = np.sort_complex(normal_spectral_decomposition(a).lam)
    lam2 = np.sort_complex(normal_spectral_decomposition(v @ a @ adjoint(v)).lam)
    assert np.allclose(lam1, lam2, atol=1e-10)


def test_one_by_one_short_circuit():
    dec = normal_spectral_decomposition(np.array([[3 - 2j]]))
    assert dec.lam[0] == 3 - 2j
    assert dec.residual == 0.0


def test_cluster_examples():
    spec, _ = cluster_with_labels([1.0, 1.0 + 1e-14, 2.0], 1e-9)
    assert spec.points == pytest.approx((1.0, 2.0))
    assert spec.multiplicities == (2, 1)

    spec, _ = cluster_with_labels([3.0], 1.0)
    assert spec.points == ((3 + 0j),)
    assert spec.multiplicities == (1,)

    spec, _ = cluster_with_labels([0.0, 1.0, 2.0], 1e-9)
    assert spec.size == 3


def test_cluster_is_nonempty_for_any_matrix():
    gen = rng_from_seed(17)
    for n in range(1, 9):
        a = random_normal_matrix(gen, n, ScalarRing.COMPLEX)
        dec = normal_spectral_decomposition(a)
        spec, _ = cluster_with_labels(dec.lam, 1e-8)
        assert spec.size >= 1
        assert sum(spec.multiplicities) == n


def test_cluster_labels_map_members_to_representatives():
    lam = [2.0, 1.0, 1.0 + 1e-12]
    spec, labels = cluster_with_labels(lam, 1e-9)
    assert spec.points[labels[0]] == pytest.approx(2.0)
    assert labels[1] == labels[2]


def test_hermitian_keeps_real_eigenvectors_real():
    a = random_normal_matrix(rng_from_seed(3), 6, ScalarRing.REAL).real
    dec = hermitian_eigen(a)
    assert np.isrealobj(dec.u) and np.isrealobj(dec.lam)
    assert dec.residual <= 1e-12
    assert not np.isrealobj(hermitian_eigen(np.array([[0, -1j], [1j, 0]])).u)


def test_decompositions_report_their_residual():
    a = random_normal_matrix(rng_from_seed(4), 6, ScalarRing.COMPLEX)
    dec = normal_spectral_decomposition(a)
    assert dec.report.predicate == "normal" and dec.report.holds
    assert dec.residual == pytest.approx(
        fro_norm(a - dec.reconstruct()) / fro_norm(a), abs=0.0)
    assert dec.residual <= 1e-12


def _brute_force_clusters(lam, cluster_tol):
    """Reference single linkage: every pair compared, members summed in index order."""
    lam = [complex(z) for z in lam]
    m = len(lam)
    comp = list(range(m))
    for i in range(m):
        for j in range(i + 1, m):
            if abs(lam[i] - lam[j]) <= cluster_tol and comp[i] != comp[j]:
                old = comp[j]
                comp = [comp[i] if c == old else c for c in comp]
    first = []
    for c in comp:
        if c not in first:
            first.append(c)
    sums = [0j] * len(first)
    counts = [0] * len(first)
    for z, c in zip(lam, comp):
        sums[first.index(c)] += z
        counts[first.index(c)] += 1
    means = (np.array(sums) / np.array(counts)).tolist()
    order = sorted(range(len(first)), key=lambda k: (means[k].real, means[k].imag))
    rank = {k: r for r, k in enumerate(order)}
    labels = [rank[first.index(c)] for c in comp]
    return [means[k] for k in order], [counts[k] for k in order], labels


def _assert_same_clustering(lam, cluster_tol):
    spec, labels = cluster_with_labels(lam, cluster_tol)
    points, mults, ref_labels = _brute_force_clusters(lam, cluster_tol)
    assert list(spec.points) == points
    assert list(spec.multiplicities) == mults
    assert labels.tolist() == ref_labels


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
    for trial in range(300):
        m = int(gen.integers(1, 41))
        cluster_tol = float(gen.choice([0.0, 1e-3, 0.05, 0.2]))
        if trial % 3 == 0:  # complex scatter
            lam = gen.uniform(-1, 1, m) + 1j * gen.uniform(-1, 1, m)
        elif trial % 3 == 1:  # chains: steps just below and above the tolerance
            steps = gen.uniform(0.5, 1.1, m) * max(cluster_tol, 1e-3)
            lam = np.cumsum(steps) + 1j * gen.uniform(-0.3, 0.3, m) * cluster_tol
        else:  # exact repeats, real and complex
            lam = gen.choice(np.linspace(-1, 1, 5), m) + 1j * gen.choice([0.0, 0.5], m)
        _assert_same_clustering(lam, cluster_tol)


@pytest.mark.parametrize("fn, params", [
    (is_star_normal, ["a", "tol"]),
    (is_selfadjoint, ["a", "tol"]),
    (hermitian_eigen, ["h", "tol"]),
    (normal_spectral_decomposition, ["a", "tol", "cluster_tol"]),
])
def test_public_predicates_and_decompositions_check_their_own_input(fn, params):
    """They take only their public parameters, coerce and check the input,
    and decide the predicate from the input alone, at any scale."""
    public = [p for p in inspect.signature(fn).parameters if not p.startswith("_")]
    assert public == params
    for bad in ([[1.0, np.nan], [0.0, 1.0]], np.ones((2, 3)), [[np.inf]]):
        with pytest.raises(ValueError, match="square|finite"):
            fn(bad)
    report = lambda out: getattr(out, "report", out)  # a decomposition carries its report
    herm = [[2.0, 1j], [-1j, 3.0]]
    assert report(fn(herm)) == report(fn(np.array(herm, dtype=complex)))
    for scale in (1e-150, 1.0, 1e8, 1e150):
        nilpotent = scale * np.array([[0, 1], [0, 0]], dtype=complex)
        if fn in (is_star_normal, is_selfadjoint):
            assert not fn(nilpotent).holds
        else:
            with pytest.raises((NotNormal, NotSelfadjoint)):
                fn(nilpotent)


def _lexicographic(lam):
    keys = [(complex(z).real, complex(z).imag) for z in lam]
    return keys == sorted(keys)


@pytest.mark.parametrize("cluster_tol", [0.0, None])
def test_eigenvalues_come_back_sorted_by_real_then_imaginary_part(monkeypatch, cluster_tol):
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
            dec = normal_spectral_decomposition(a, cluster_tol=cluster_tol)
            calls += 1
            assert _lexicographic(dec.lam)
            # cluster_tol = 0 splits h's runs at rounding, which only the
            # order, not the values, must survive
            assert cluster_tol == 0.0 or dec.residual <= 1e-12
        diag = normal_spectral_decomposition(np.diag(lam), cluster_tol=cluster_tol)
        assert _lexicographic(diag.lam)
        assert np.array_equal(diag.lam, np.sort_complex(np.array(lam, dtype=complex)))
    assert 0 < sorts[0] < calls  # the sort was both skipped and taken
