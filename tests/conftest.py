import importlib
import os
from pathlib import Path

import numpy as np
import pytest

from cfckit.matrix_core import fro_norm

# The CLI tests start `python -m cfckit` in subprocesses; they import the
# package from this checkout's src/ as pytest itself does (pyproject's
# `pythonpath`), so no install is needed.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def rel_err(x, y):
    """Frobenius distance relative to max(1, scales)."""
    x = np.asarray(x)
    y = np.asarray(y)
    return fro_norm(x - y) / max(1.0, fro_norm(x), fro_norm(y))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _count_calls(monkeypatch, name, *modules):
    """Counts the calls of <module>.<name>, as each of modules binds it (the
    calculus module unless named), in one count."""
    calls = [0]
    for module in modules or ("cfckit.cfc",):
        mod = importlib.import_module(module)

        def counted(*args, inner=getattr(mod, name), **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def decompositions(monkeypatch):
    """Counts the calls of cfc._decompose, which only plans make."""
    return _count_calls(monkeypatch, "_decompose")


@pytest.fixture
def reconstructions(monkeypatch):
    """Counts the calls of cfc._reconstruct, the one product u diag(F) u*
    of apply and apply_all."""
    return _count_calls(monkeypatch, "_reconstruct")


@pytest.fixture
def row_reads(monkeypatch):
    """Counts the rows of function values read by _eval_row, the one rule by
    which cfckit reads a function, as the calculus and the law checker bind
    it."""
    return _count_calls(monkeypatch, "_eval_row", "cfckit.cfc", "cfckit.oracle")


@pytest.fixture
def function_builds(monkeypatch):
    """Counts the ScalarFunctions constructed, wherever they are built."""
    cls = importlib.import_module("cfckit.cfc").ScalarFunction
    calls = [0]
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


@pytest.fixture
def clusterings(monkeypatch):
    """Counts the calls of cluster_with_labels, which a plan makes only for
    its points and multiplicities."""
    return _count_calls(monkeypatch, "cluster_with_labels")


@pytest.fixture
def restrictions(monkeypatch):
    """Counts the calls of restrict_scalar as the calculus binds it, which
    _eval_row makes only where a value needs its tolerance test."""
    return _count_calls(monkeypatch, "restrict_scalar")


@pytest.fixture
def report_norms(monkeypatch):
    """Counts the calls of fro_norm, as eigen binds it, made inside
    eigen._predicate_report, the selfadjoint report of a plan over R and
    R>=0: none where one count of a - a* finds a = a* exactly."""
    eigen = importlib.import_module("cfckit.eigen")
    report, norm = eigen._predicate_report, eigen.fro_norm
    calls, inside = [0], [False]

    def counted_report(*args):
        inside[0] = True
        try:
            return report(*args)
        finally:
            inside[0] = False

    def counted_norm(x):
        calls[0] += inside[0]
        return norm(x)

    monkeypatch.setattr(eigen, "_predicate_report", counted_report)
    monkeypatch.setattr(eigen, "fro_norm", counted_norm)
    return calls


@pytest.fixture
def finiteness_passes(monkeypatch):
    """Counts the calls of matrix_core._require_finite, as_matrix's isfinite
    pass, which a plan (through _coerced_rescaled) makes only where the norm
    _rescaled returns is inf or NaN."""
    return _count_calls(monkeypatch, "_require_finite", "cfckit.matrix_core")


# _predicate_report is the selfadjoint residual and _commutator_residual the
# certificate of a plan over C, both read inside the decomposition, which the
# public predicates call; an evaluation counts once however it is reached.
PREDICATES = ("is_star_normal", "is_selfadjoint", "is_nonneg", "predicate_for_ring",
              "_predicate_report", "_commutator_residual")
# A plan coerces with as_matrix's dtype and shape half (_as_square) and
# reads finiteness off its scale; as_matrix runs that half too, and a
# coercion counts once however it is reached.
COERCIONS = ("as_matrix", "_as_square")
MODULES = ("cfckit.matrix_core", "cfckit.eigen", "cfckit.cfc", "cfckit.spectrum",
           "cfckit.oracle", "cfckit.io", "cfckit.unitization")


@pytest.fixture
def work_counts(monkeypatch):
    """Counts outermost predicate evaluations (the selfadjoint residual, or
    over C the commutator product, which a plan forms only where its
    backward error exceeds tol), outermost coercions under
    "as_matrix" (as_matrix, or a plan's _as_square; each as bound in every
    module), numpy eigensolver and singular-value calls (the svd of
    operator_norm), and the compressions u_F* a u_F of the refined columns
    of a decomposition over C (the calls of eigen.adjoint, which makes one
    per compression and nothing else)."""
    counts = {"predicate": 0, "as_matrix": 0, "eigh": 0, "eigvalsh": 0, "svd": 0,
              "compressions": 0}
    depths = {"predicate": [0], "as_matrix": [0]}

    def outermost(key, fn):
        depth = depths[key]

        def wrapper(*args, **kwargs):
            counts[key] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in MODULES:
        mod = importlib.import_module(module)
        for key, names in (("predicate", PREDICATES), ("as_matrix", COERCIONS)):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, outermost(key, getattr(mod, name)))
    eigen = importlib.import_module("cfckit.eigen")
    monkeypatch.setattr(eigen, "adjoint", counted("compressions", eigen.adjoint))
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts
