from collections import Counter

import numpy as np
import pytest

from cfckit.cfc import plan
from cfckit.matrix_core import (
    NotInSubalgebra,
    as_matrix,
    elemental_subalgebra,
    fro_norm,
    identity,
    subalgebra_from_matrices,
)
from cfckit.sampling import (
    random_normal_matrix,
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

