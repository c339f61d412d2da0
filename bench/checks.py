"""Output checks made apart from the program.

A result is compared with what the benchmark generated: u diag(f(lam)) u*
for matrix outputs, the generated eigenvalues and multiplicities for
spectra.  Tolerances come from what the method promises, never from the
errors it makes today:

* a backward-stable eigensolve: the computed decomposition is exact for a
  matrix within BACKWARD * n * eps * ||a||_F of the input;
* eigenvalue clustering at the documented tolerance CLUSTER_REL * ||a||_F:
  every eigenvalue may move by that much, which moves f(a) by at most
  sqrt(n) * L * CLUSTER_REL * ||a||_F in Frobenius norm, L being the
  Lipschitz constant of f on the spectrum;
* rounding in the reconstruction u diag(f) u*: BACKWARD * n * eps * ||f(a)||_F.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
BACKWARD = 4.0
CLUSTER_REL = 1e-8


def fro(x) -> float:
    return float(np.linalg.norm(x))


def matrix_tolerance(a, lam, lip: float, ref) -> float:
    """Frobenius-norm bound on |f(a) - reference| for an n x n input a."""
    n = len(lam)
    a_fro = fro(a)
    return (lip * (BACKWARD * n * EPS * a_fro + math.sqrt(n) * CLUSTER_REL * a_fro)
            + BACKWARD * n * EPS * fro(ref))


def point_tolerance(a, n: int) -> float:
    """Bound on how far one computed (clustered) eigenvalue may sit from the
    generated one."""
    a_fro = fro(a)
    return BACKWARD * n * EPS * a_fro + CLUSTER_REL * a_fro


def close_matrix(value, junk: bool, ref, tol: float) -> bool:
    value = np.asarray(value)
    return (not junk and value.shape == ref.shape
            and bool(np.all(np.isfinite(value))) and fro(value - ref) <= tol)


def exact_junk(value, junk: bool, reason, n: int, expected: str) -> bool:
    value = np.asarray(value)
    return junk and reason == expected and value.shape == (n, n) and not np.any(value)


def same_points(points, mults, want, want_mults, tol: float) -> bool:
    """Clustered spectrum equals the generated distinct values (within tol),
    with equal multiplicities when want_mults is given."""
    got = np.asarray(points, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        return False
    dist = np.abs(got[:, None] - want[None, :])
    nearest = dist.argmin(axis=1)
    if not (np.all(dist.min(axis=1) <= tol) and len(set(nearest.tolist())) == len(want)):
        return False
    if want_mults is None:
        return True
    return list(mults) == [int(want_mults[j]) for j in nearest]


def laws_pass(report, allowed_skips) -> bool:
    """A trial passes only if every law passed and no law was skipped whose
    hypotheses hold; `allowed_skips` names the laws whose hypotheses fail."""
    if not report.all_passed:
        return False
    return all(e.passed and (not e.skipped or e.name in allowed_skips)
               for e in report.entries)


def perturbation(shape, tol: float) -> np.ndarray:
    """A matrix of Frobenius norm 2 * tol."""
    return np.full(shape, 2.0 * tol / math.sqrt(shape[0] * shape[1]))


def self_test(ops_with_results) -> None:
    """Wrong answers must fail the check: each op's spoiled results (a value
    perturbed beyond its tolerance, a junk outcome for a valid input, a
    wrong junk reason, ...) are fed to its checker.  Raises on a miss."""
    for op, result in ops_with_results:
        if not op.check(result):
            raise AssertionError(f"self-test: checker rejects the real result of {op.label}")
        spoiled = op.spoil(result)
        if not spoiled:
            raise AssertionError(f"self-test: no wrong answers for {op.label}")
        for k, wrong in enumerate(spoiled):
            if op.check(wrong):
                raise AssertionError(f"self-test: checker accepts wrong answer {k} of {op.label}")
