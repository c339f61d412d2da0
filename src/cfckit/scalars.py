"""Scalar rings C, R and R>=0: embeddings, restriction and truncated subtraction.

The three rings share one numeric kernel (Python floats/complex); R>=0 is a
nonnegative float with truncated subtraction applied at the arithmetic
boundary rather than a separate numeric type.
"""

from __future__ import annotations

import enum
import os

DEFAULT_TOL = 1e-9


def default_tol() -> float:
    """Library default tolerance; overridable via the CFCKIT_TOL env var
    (ValueError naming it when it is not a number)."""
    raw = os.environ.get("CFCKIT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"CFCKIT_TOL must be finite and >= 0, got {raw!r}") from None


class ScalarRing(enum.Enum):
    COMPLEX = "complex"
    REAL = "real"
    NNREAL = "nnreal"

    @classmethod
    def from_string(cls, name: str) -> "ScalarRing":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown scalar ring {name!r} (expected one of: complex, real, nnreal)"
            ) from None


class RestrictionFailure(ValueError):
    """A scalar lies outside the target subring beyond the tolerance band."""

    def __init__(self, value, target: ScalarRing, residual: float):
        self.value = complex(value)
        self.target = target
        self.residual = float(residual)
        super().__init__(
            f"{self.value} does not restrict to {target.value} "
            f"(residual {self.residual:.3e})"
        )


def embed(x, target: ScalarRing):
    """Canonical inclusion of a (nonnegative) real scalar into `target`.

    R>=0 embeds into R and C, R embeds into C; on overlaps this is the
    identity. The embedding is an isometric ring homomorphism.
    """
    if target is ScalarRing.COMPLEX:
        return complex(x)
    return float(x)


def restrict_scalar(z, target: ScalarRing, tol: float = DEFAULT_TOL):
    """Project a scalar onto `target`, failing beyond the tolerance band.

    Real: succeeds with re(z) iff |im(z)| <= tol.  NNReal: additionally
    requires re(z) >= -tol and clamps tiny negatives to 0.  A complex with a
    zero imaginary part already in `target` returns its real part at once:
    the calculus restricts every value it evaluates.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if type(z) is complex and z.imag == 0.0 and (
            target is ScalarRing.REAL or target is ScalarRing.NNREAL and z.real >= 0.0):
        return z.real
    z = complex(z)
    if target is ScalarRing.COMPLEX:
        return z
    residual = abs(z.imag)
    if target is ScalarRing.NNREAL:
        residual = max(residual, -z.real if z.real < 0 else 0.0)
    if residual > tol:
        raise RestrictionFailure(z, target, residual)
    if target is ScalarRing.NNREAL:
        return max(z.real, 0.0)
    return z.real


def truncated_sub(x: float, y: float) -> float:
    """Subtraction on R>=0: x - y, floored at 0."""
    if x < 0 or y < 0:
        raise ValueError("truncated_sub requires nonnegative operands")
    return max(x - y, 0.0)
