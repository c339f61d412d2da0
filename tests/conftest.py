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


def _count_calls(monkeypatch, name):
    """Counts the calls of cfc.<name>, as the calculus module binds it."""
    mod = importlib.import_module("cfckit.cfc")
    calls = [0]
    inner = getattr(mod, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def decompositions(monkeypatch):
    """Counts the calls of cfc.ring_decomposition, which only plans make."""
    return _count_calls(monkeypatch, "ring_decomposition")


@pytest.fixture
def clusterings(monkeypatch):
    """Counts the calls of cluster_with_labels, which a plan makes only for
    its points and multiplicities."""
    return _count_calls(monkeypatch, "cluster_with_labels")
