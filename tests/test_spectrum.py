from collections import Counter

import numpy as np
import pytest

from cfckit.cfc import plan
from cfckit.eigen import elemental_subalgebra
from cfckit.matrix_core import (
    NotInSubalgebra,
    as_matrix,
    fro_norm,
    identity,
    subalgebra_from_matrices,
)
from cfckit.sampling import (
    random_normal_matrix,
    random_unitary,
    random_with_spectrum,
    rng_from_seed,
    spaced_eigenvalues,
)
from cfckit.scalars import DEFAULT_TOL, ScalarRing
from cfckit.spectrum import (
    PredicateFailure,
    is_quasiregular,
    quasispectrum_intrinsic,
    quasispectrum_via_unitization,
    spectrum,
)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)


def full_matrix_algebra(n):
    mats = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            mats.append(m)
    return subalgebra_from_matrices(mats, unital=True)


def test_spectrum_examples():
    assert spectrum(np.diag([1.0, -1.0]), ScalarRing.REAL).points == (-1.0, 1.0)
    pts = spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]), ScalarRing.COMPLEX).points
    assert pts == pytest.approx((-1j, 1j))
    with pytest.raises(PredicateFailure):
        spectrum(np.diag([1.0, -1.0]), ScalarRing.NNREAL)


def test_spectrum_requires_ring_predicate():
    with pytest.raises(PredicateFailure):
        spectrum(np.diag([1j, 2.0]), ScalarRing.REAL)
    with pytest.raises(PredicateFailure):
        spectrum(np.array([[0, 1], [0, 0]], dtype=complex), ScalarRing.COMPLEX)


def test_spectrum_multiplicities():
    res = spectrum(np.diag([2.0, 2.0, 5.0]), ScalarRing.REAL)
    assert res.points == (2.0, 5.0)
    assert res.multiplicities == (2, 1)


def test_quasiregular_examples():
    B = elemental_subalgebra(E11, unital=False)
    ok, witness = is_quasiregular(B, np.zeros((2, 2)))
    assert ok and np.allclose(witness.y, 0)

    ok, witness = is_quasiregular(B, E11)
    assert ok
    # corner equation 1 + s + s = 0 gives s = -1/2
    assert witness.y[0, 0] == pytest.approx(-0.5)

    ok, witness = is_quasiregular(B, -E11)
    assert not ok and witness is None


def test_quasiregular_witness_satisfies_both_orders():
    gen = rng_from_seed(31)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX, nonzero=True)
    B = elemental_subalgebra(a, unital=False)
    ok, witness = is_quasiregular(B, -0.5 * a / spectrum(a).points[0])
    if ok:
        x = -0.5 * a / spectrum(a).points[0]
        from cfckit.matrix_core import fro_norm

        bound = 1e-9 * max(1.0, fro_norm(x) ** 2)
        assert fro_norm(x + witness.y + x @ witness.y) <= bound
        assert fro_norm(witness.y + x + witness.y @ x) <= bound


def test_quasiregular_requires_membership():
    B = elemental_subalgebra(E11, unital=False)
    with pytest.raises(NotInSubalgebra):
        is_quasiregular(B, np.eye(2))


def is_quasiregular_ambient(B, x, tol=DEFAULT_TOL) -> bool:
    """Spectral-permanence reference for is_quasiregular: x is quasiregular
    iff I + x is invertible in M_n and (I + x)^-1 - I lies back in B."""
    x = as_matrix(x)
    n = B.ambient_dim
    one_plus = identity(n) + x
    sv_min = float(np.linalg.svd(one_plus, compute_uv=False)[-1])
    if sv_min <= tol * max(1.0, fro_norm(one_plus)):
        return False
    y = np.linalg.inv(one_plus) - identity(n)
    inside, _ = B.contains(y, max(tol, 1e-8))
    return inside


def test_quasiregular_ambient_cross_check():
    gen = rng_from_seed(33)
    for _ in range(10):
        a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
        B = elemental_subalgebra(a, unital=False)
        pts = [p for p in spectrum(a).points if abs(p) > 1e-8]
        for r in pts:
            x = -(1.0 / r) * a
            assert is_quasiregular(B, x)[0] == is_quasiregular_ambient(B, x)
        if pts:
            x = -(1.0 / (pts[0] + 10.0)) * a  # 10 + max|spec| is never spectral
            assert is_quasiregular(B, x)[0]


def is_quasiregular_full(B, x, tol=DEFAULT_TOL) -> bool:
    """The verdict of is_quasiregular solved as one 2n^2 x dim least-squares
    system over the full matrices (1 + x) b and b (1 + x), b in B's basis."""
    x = as_matrix(x)
    n = B.ambient_dim
    one_plus = identity(n) + x
    system = np.column_stack([np.concatenate([(one_plus @ b).ravel(), (b @ one_plus).ravel()])
                              for b in B.basis])
    coeffs, *_ = np.linalg.lstsq(system, np.concatenate([-x.ravel(), -x.ravel()]), rcond=None)
    y = np.tensordot(coeffs, B.basis, 1)
    bound = tol * max(1.0, fro_norm(x) ** 2)
    return fro_norm(x + y + x @ y) <= bound and fro_norm(y + x + y @ x) <= bound


def _quasiregular_case(gen, kind):
    """(B, x) at n <= 11, x in B and quasiregular or not about evenly: B is
    spanned by the spectral projections of a random normal matrix, is C*(a)
    of one (x = -a / t, t an eigenvalue or not), or is a unitary conjugate
    of M_2 + C (1 + x singular on one summand or not)."""
    n = int(gen.integers(3, 12))
    u = random_unitary(gen, n)
    singular = gen.uniform() < 0.5
    if kind == 0:
        cuts = np.sort(gen.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        blocks = np.split(np.arange(n), cuts)
        projections = [u[:, k] @ u[:, k].conj().T for k in blocks]
        B = subalgebra_from_matrices(projections)
        c = gen.standard_normal(len(blocks)) + 1j * gen.standard_normal(len(blocks))
        if singular:
            c[0] = -1.0
        return B, sum(ck * p for ck, p in zip(c, projections))
    if kind == 1:
        k = int(gen.integers(2, 5))
        lam = gen.standard_normal(k) + 1j * gen.standard_normal(k)
        a = random_with_spectrum(gen, lam[gen.integers(0, k, n)])
        t = lam[0] if singular else lam[0] * (1.0 + gen.uniform(0.1, 1.0))
        return elemental_subalgebra(a, unital=False), -a / t
    units = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2)):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        units.append(e)
    m = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    z = complex(gen.standard_normal(), gen.standard_normal())
    if singular and gen.uniform() < 0.5:
        m -= (1.0 + np.linalg.eigvals(m)[0]) * np.eye(2)
    elif singular:
        z = -1.0
    x = np.zeros((n, n), dtype=complex)
    x[:2, :2], x[2, 2] = m, z
    B = subalgebra_from_matrices([u @ e @ u.conj().T for e in units])
    return B, u @ x @ u.conj().T


def test_quasiregular_coordinate_solve_matches_the_full_solve():
    """Solving in B's coordinates gives the verdict of the full 2n^2 x dim
    system on spectral projections, elemental subalgebras and conjugates of
    M_2 + C, quasiregular and not."""
    gen = rng_from_seed(61)
    verdicts = Counter()
    for i in range(600):
        B, x = _quasiregular_case(gen, i % 3)
        ok = is_quasiregular(B, x)[0]
        assert ok == is_quasiregular_full(B, x), i
        verdicts[ok] += 1
    assert min(verdicts.values()) > 200


def test_quasispectrum_intrinsic_examples():
    res = quasispectrum_intrinsic(full_matrix_algebra(2), np.diag([1.0, 2.0]))
    assert res.points == pytest.approx((0j, 1 + 0j, 2 + 0j))

    B = elemental_subalgebra(E11, unital=False)
    res = quasispectrum_intrinsic(B, E11)
    assert res.points == pytest.approx((0j, 1 + 0j))

    res = quasispectrum_intrinsic(B, np.zeros((2, 2)))
    assert res.points == (0j,)


def test_quasispectrum_via_unitization_examples():
    res = quasispectrum_via_unitization(np.diag([1.0, 2.0]))
    assert res.points == pytest.approx((0j, 1 + 0j, 2 + 0j))

    assert quasispectrum_via_unitization(np.zeros((2, 2))).points == (0j,)

    res = quasispectrum_via_unitization(np.diag([0.0, 3.0]), ScalarRing.NNREAL)
    assert res.points == pytest.approx((0.0, 3.0))


def test_quasispectrum_is_spectrum_plus_zero():
    gen = rng_from_seed(41)
    for _ in range(10):
        a = random_normal_matrix(gen, 5, ScalarRing.COMPLEX, nonzero=True)
        sig = set(spectrum(a).points)
        quasi = set(quasispectrum_via_unitization(a).points)
        assert quasi == sig | {0j} or all(
            min(abs(p - q) for q in sig | {0j}) < 1e-9 for p in quasi
        )


def test_dual_oracle_agreement():
    gen = rng_from_seed(43)
    for _ in range(10):
        lam = spaced_eigenvalues(gen, 4, ScalarRing.COMPLEX)
        a = random_with_spectrum(gen, lam)
        B = elemental_subalgebra(a, unital=False)
        p1 = quasispectrum_intrinsic(B, a).points
        p2 = quasispectrum_via_unitization(a).points
        assert len(p1) == len(p2)
        # set agreement (ordering can differ by rounding noise)
        assert max(min(abs(x - y) for y in p2) for x in p1) <= 1e-8


def test_quasispectrum_spectral_mapping():
    # sigma_n(f(a)) = f(sigma_n(a)) for f with f(0) = 0
    from cfckit.cfc import ScalarFunction, cfc_n

    gen = rng_from_seed(47)
    a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
    f = ScalarFunction(lambda z: z * z + 2 * z, ScalarRing.COMPLEX, "z^2+2z")
    fa = cfc_n(f, a).value
    lhs = quasispectrum_via_unitization(fa).points
    rhs = sorted(
        {complex(f.eval(p)) for p in quasispectrum_via_unitization(a).points},
        key=lambda z: (z.real, z.imag),
    )
    assert len(lhs) == len(rhs)
    for x, y in zip(lhs, rhs):
        assert abs(x - y) <= 1e-8


def test_spectra_cluster_once_and_plans_keep_their_clusters(clusterings):
    a = random_with_spectrum(rng_from_seed(13), [0.0, 0.5, 0.5, 1.0])
    B = elemental_subalgebra(a, unital=False)
    for ring in ScalarRing:
        for spectral in (lambda: spectrum(a, ring),
                         lambda: quasispectrum_via_unitization(a, ring),
                         lambda: quasispectrum_intrinsic(B, a, ring)):
            before = clusterings[0]
            spectral()
            assert clusterings[0] == before + 1
    before = clusterings[0]
    p = plan(a)
    assert clusterings[0] == before
    assert p.points() == p.points() and p.multiplicities == (1, 2, 1)
    assert clusterings[0] == before + 1


@pytest.mark.parametrize("ring, lam", [
    (ScalarRing.COMPLEX, [0, 0, 1 + 1j, 1 + 1j, 1 + 1j, -2, 0.5 - 0.5j]),
    (ScalarRing.REAL, [0, 0, -1.5, -1.5, -1.5, 2]),
    (ScalarRing.NNREAL, [0, 0, 1.5, 1.5, 1.5, 2]),
])
def test_spectra_are_scale_homogeneous(ring, lam):
    """The spectrum and both quasispectra of s a are s times those of a, with
    the same multiplicities, from s = 1e-300 to 1e300: the cluster scale is a
    fraction of ||a||_F, not an absolute cut.  C*(s a) = C*(a): built at
    any s it has the same dimension, and one B serves every s."""
    a = random_with_spectrum(rng_from_seed(53), np.array(lam, dtype=complex))
    if ring is not ScalarRing.COMPLEX:
        a = (a + a.conj().T) / 2
    B = elemental_subalgebra(a, unital=False)
    spectra = (
        lambda x: spectrum(x, ring),
        lambda x: quasispectrum_via_unitization(x, ring),
        lambda x: quasispectrum_intrinsic(B, x, ring),
    )
    assert sorted(spectrum(a, ring).multiplicities) == sorted(Counter(lam).values())
    for s in (1e-300, 1e300):
        assert elemental_subalgebra(s * a, unital=False).dim == B.dim
    for spectral in spectra:
        ref = spectral(a)
        for s in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            out = spectral(s * a)
            assert out.multiplicities == ref.multiplicities
            err = max(abs(p - s * q) for p, q in zip(out.points, ref.points))
            assert err <= 8 * np.finfo(float).eps * s * fro_norm(a)


@pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e120, 1e150, 1e200, 1e300])
def test_points_with_tied_real_parts_are_ordered_by_imaginary_part(s):
    """0 (twice) and 0.5i share a real part, which rounding makes 3e-17 or
    7e-17 depending on the scale: points whose real parts lie within the
    cluster scale are ordered by their imaginary parts, so every scale reads
    -2, 0, 0.5i, 1 + i (0 with the 7 zeros of diag(0, a) in the
    unitization)."""
    lam = [0, 0, 1 + 1j, 1 + 1j, 1 + 1j, -2, 0.5j]
    a = s * random_with_spectrum(rng_from_seed(53), np.array(lam, dtype=complex))
    B = elemental_subalgebra(a, unital=False)
    for out, zeros in ((spectrum(a), 2), (quasispectrum_via_unitization(a), 9),
                       (quasispectrum_intrinsic(B, a), 2)):
        assert out.multiplicities == (1, zeros, 1, 3)
        assert np.allclose(np.array(out.points) / s, [-2, 0, 0.5j, 1 + 1j], rtol=0, atol=1e-12)


@pytest.mark.parametrize("a, ring", [
    (np.diag([1e308, 1e308, 1.0]), ScalarRing.REAL),
    (np.diag([1e308, -1e308, 1e308, 1e308j]), ScalarRing.COMPLEX),
])
def test_cluster_means_near_the_float_limit_stay_finite(a, ring):
    """A double eigenvalue at 1e308 is the point 1e308 of multiplicity 2: the
    cluster mean adds the members' mean offset to the first member instead of
    dividing their sum, which overflows."""
    out = spectrum(a, ring)
    assert all(np.isfinite(complex(p)) for p in out.points)
    near = 4 * np.finfo(float).eps * 1e308
    (k,) = [i for i, p in enumerate(out.points) if abs(p - 1e308) <= near]
    assert out.multiplicities[k] == 2
    assert sum(out.multiplicities) == len(a)

