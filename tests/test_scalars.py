import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfckit.scalars import (
    RestrictionFailure,
    ScalarRing,
    embed,
    restrict_scalar,
    truncated_sub,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-1e12, max_value=1e12)
nonneg = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=0, max_value=1e12)


def test_embed_examples():
    assert embed(2.0, ScalarRing.COMPLEX) == 2 + 0j
    assert embed(0, ScalarRing.COMPLEX) == 0j
    assert embed(1.5, ScalarRing.REAL) == 1.5


def test_restrict_examples():
    assert restrict_scalar(3 + 0j, ScalarRing.REAL, 1e-10) == 3.0
    with pytest.raises(RestrictionFailure):
        restrict_scalar(1j, ScalarRing.REAL, 1e-10)
    with pytest.raises(RestrictionFailure):
        restrict_scalar(-1 + 0j, ScalarRing.NNREAL, 1e-10)


@pytest.mark.parametrize("target", list(ScalarRing))
def test_restrict_rejects_a_negative_tolerance(target):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        restrict_scalar(1.0 + 0j, target, -1e-12)


@pytest.mark.parametrize("z, target, expected", [
    (complex(2.5, 0.0), ScalarRing.REAL, 2.5),
    (complex(-2.5, -0.0), ScalarRing.REAL, -2.5),
    (complex(-0.0, 0.0), ScalarRing.REAL, -0.0),
    (complex(-0.0, 0.0), ScalarRing.NNREAL, -0.0),
    (complex(0.0, -0.0), ScalarRing.NNREAL, 0.0),
    (complex(-1e-12, 0.0), ScalarRing.NNREAL, 0.0),
    (complex(math.inf, 0.0), ScalarRing.REAL, math.inf),
    (complex(math.nan, 0.0), ScalarRing.NNREAL, math.nan),
    (complex(2.5, 0.0), ScalarRing.COMPLEX, complex(2.5, 0.0)),
])
def test_restrict_zero_imaginary_part_keeps_type_and_sign(z, target, expected):
    """A complex with a zero imaginary part restricts to its real part,
    a float, with the sign of a zero kept; a negative one over R>=0 is
    clamped, and C keeps it complex."""
    got = restrict_scalar(z, target, 1e-10)
    assert type(got) is type(expected)
    assert repr(got) == repr(expected)


def test_restrict_clamps_tiny_negatives():
    assert restrict_scalar(-1e-12 + 0j, ScalarRing.NNREAL, 1e-10) == 0.0


def test_restrict_failure_carries_residual():
    with pytest.raises(RestrictionFailure) as exc:
        restrict_scalar(2 + 0.5j, ScalarRing.REAL, 1e-10)
    assert exc.value.residual == pytest.approx(0.5)
    assert exc.value.value == 2 + 0.5j


@given(finite)
def test_restrict_after_embed_is_identity(x):
    assert restrict_scalar(embed(x, ScalarRing.COMPLEX), ScalarRing.REAL, 0.0) == x


@given(nonneg)
def test_restrict_after_embed_is_identity_nnreal(x):
    assert restrict_scalar(embed(x, ScalarRing.COMPLEX), ScalarRing.NNREAL, 0.0) == x


@given(finite, st.floats(min_value=0, max_value=1e-6))
def test_embed_after_restrict_stays_in_band(x, im):
    z = complex(x, im)
    back = embed(restrict_scalar(z, ScalarRing.REAL, 1e-6), ScalarRing.COMPLEX)
    assert abs(back - z) <= 1e-6


def test_truncated_sub_examples():
    assert truncated_sub(3, 5) == 0
    assert truncated_sub(5, 3) == 2
    assert truncated_sub(4, 4) == 0


@given(nonneg, nonneg)
def test_truncated_sub_properties(x, y):
    d = truncated_sub(x, y)
    assert d >= 0
    if y <= x:
        assert math.isclose(d + min(x, y), x, rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert d == 0


def test_truncated_sub_rejects_negative_operands():
    with pytest.raises(ValueError):
        truncated_sub(-1, 2)


def test_ring_tags_round_trip_strings():
    for ring in ScalarRing:
        assert ScalarRing.from_string(ring.value) is ring
    with pytest.raises(ValueError):
        ScalarRing.from_string("rational")
