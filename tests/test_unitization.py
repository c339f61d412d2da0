import numpy as np
import pytest

from cfckit.matrix_core import DimensionMismatch, adjoint, operator_norm
from cfckit.sampling import random_with_spectrum, rng_from_seed
from cfckit.spectrum import spectrum
from cfckit.unitization import (
    UnitizationElement,
    uni_add,
    uni_mul,
    uni_norm,
    uni_norm_via_map,
    uni_represent,
    uni_star,
    uni_unit,
)


def rand_elem(gen, n):
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    z = complex(gen.standard_normal(), gen.standard_normal())
    return UnitizationElement(z, a)


def test_unit_law():
    gen = rng_from_seed(1)
    x = rand_elem(gen, 3)
    one = uni_unit(3)
    for prod in (uni_mul(one, x), uni_mul(x, one)):
        assert prod.z == x.z
        assert np.allclose(prod.a, x.a)


def test_mul_formula_special_cases():
    gen = rng_from_seed(2)
    a = gen.standard_normal((3, 3)) + 0j
    b = gen.standard_normal((3, 3)) + 0j
    p = uni_mul(UnitizationElement(0, a), UnitizationElement(0, b))
    assert p.z == 0 and np.allclose(p.a, a @ b)
    q = uni_mul(UnitizationElement(1, a), UnitizationElement(1, b))
    assert q.z == 1 and np.allclose(q.a, a + b + a @ b)


def test_mul_is_associative():
    gen = rng_from_seed(3)
    x, y, w = (rand_elem(gen, 3) for _ in range(3))
    lhs = uni_mul(uni_mul(x, y), w)
    rhs = uni_mul(x, uni_mul(y, w))
    assert lhs.z == pytest.approx(rhs.z)
    assert np.allclose(lhs.a, rhs.a)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        uni_mul(uni_unit(2), uni_unit(3))


def test_star_examples():
    s = uni_star(UnitizationElement(1j, np.zeros((2, 2))))
    assert s.z == -1j
    gen = rng_from_seed(4)
    x = rand_elem(gen, 3)
    assert np.allclose(uni_star(UnitizationElement(0, x.a)).a, adjoint(x.a))
    back = uni_star(uni_star(x))
    assert back.z == x.z and np.allclose(back.a, x.a)


def test_star_is_antimultiplicative():
    gen = rng_from_seed(5)
    x, y = rand_elem(gen, 3), rand_elem(gen, 3)
    lhs = uni_star(uni_mul(x, y))
    rhs = uni_mul(uni_star(y), uni_star(x))
    assert lhs.z == pytest.approx(rhs.z)
    assert np.allclose(lhs.a, rhs.a)


def test_norm_derived_examples():
    assert uni_norm(UnitizationElement(3 - 4j, np.zeros((2, 2)))) == pytest.approx(5.0)
    gen = rng_from_seed(6)
    a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    assert uni_norm(UnitizationElement(0, a)) == pytest.approx(operator_norm(a))
    # (1, -I): the left-multiplication map is m -> m - m = 0
    assert uni_norm(UnitizationElement(1, -np.eye(3))) == pytest.approx(1.0)
    assert uni_norm_via_map(UnitizationElement(1, -np.eye(3))) == pytest.approx(1.0)


def test_norm_shortcut_agrees_with_map_formula():
    gen = rng_from_seed(7)
    for n in (1, 2, 4):
        for _ in range(5):
            x = rand_elem(gen, n)
            assert abs(uni_norm(x) - uni_norm_via_map(x)) <= 1e-9 * max(uni_norm(x), 1.0)


def test_cstar_identity_in_unitization():
    gen = rng_from_seed(8)
    for _ in range(10):
        x = rand_elem(gen, 4)
        lhs = uni_norm(uni_mul(uni_star(x), x))
        rhs = uni_norm(x) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0)


def test_embedding_is_isometric():
    gen = rng_from_seed(9)
    a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    assert uni_norm(UnitizationElement(0, a)) == pytest.approx(operator_norm(a))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uni_norm_agrees_with_the_map_at_n_16(seed):
    """max(|z|, ||z I + a||) against the operator norm of the 256 x 256 map
    m -> z m + a m, within 4 n^2 eps relative, the bound the benchmark's
    `unitize-info` check reads, on Haar conjugates of random spectra."""
    gen = rng_from_seed(seed)
    n = 16
    a = random_with_spectrum(gen, gen.standard_normal(n) + 1j * gen.standard_normal(n))
    bound = 4.0 * n * n * np.finfo(np.float64).eps
    for z in (0.0, complex(gen.standard_normal(), gen.standard_normal())):
        x = UnitizationElement(z, a)
        norm = uni_norm(x)
        assert abs(uni_norm_via_map(x) - norm) <= bound * norm


def test_represent_examples():
    assert np.array_equal(uni_represent(uni_unit(2)), np.eye(4))
    a = np.diag([1.0, 2.0]).astype(complex)
    rep = uni_represent(UnitizationElement(0, a))
    assert np.array_equal(rep[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(rep[2:, 2:], a)
    pts = spectrum(rep).points
    assert pts == pytest.approx((0j, 1 + 0j, 2 + 0j))


def test_represent_is_star_homomorphism():
    gen = rng_from_seed(10)
    x, y = rand_elem(gen, 3), rand_elem(gen, 3)
    assert np.allclose(
        uni_represent(uni_mul(x, y)), uni_represent(x) @ uni_represent(y), atol=1e-12
    )
    assert np.allclose(
        uni_represent(uni_star(x)), adjoint(uni_represent(x)), atol=1e-12
    )
    assert np.allclose(
        uni_represent(uni_add(x, y)), uni_represent(x) + uni_represent(y), atol=1e-12
    )
    # and it carries the unitization norm
    assert operator_norm(uni_represent(x)) == pytest.approx(uni_norm(x), abs=1e-10)
