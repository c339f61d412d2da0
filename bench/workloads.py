"""The four workloads.  Each is a fixed list of `size` ops built from the
seed; a run repeats whole passes over the list.

An op is one call into the program (`call`), timed from outside and followed
by its floor on the same input (`floor`): one eigh of the input's Hermitian
part, in real arithmetic when the input is real, plus one reconstruction
u diag(f(w)) u*.  `check` decides whether the program's result is right and
`spoil` makes wrong results that the check must reject.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.linalg import eigh  # bound before tracing wraps numpy.linalg

import cfckit
import cfckit.cli
from checks import (
    close_matrix,
    exact_junk,
    laws_pass,
    matrix_tolerance,
    perturbation,
    point_tolerance,
    same_points,
)
from inputs import (
    ABS, COMPLEX, EXP, LOG, NEG, NNREAL, POS, REAL, RINGS, SQRT,
    eigenvalues, grid_eigenvalues, haar, nonnormal, poly, random_poly, rng_for,
    with_spectrum,
)

CLI = cfckit.cli
RING = {COMPLEX: cfckit.ScalarRing.COMPLEX, REAL: cfckit.ScalarRing.REAL,
        NNREAL: cfckit.ScalarRing.NNREAL}

# Inputs of the kept fault do not depend on --seed.
FAULT_SEED = 155
FAULT_SCALE = 1e155


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    floor: Callable[[], object]
    check: Callable[[object], bool]
    spoil: Callable[[object], list]
    collect: Callable[[object], object] = lambda raw: raw
    fault: bool = False  # fails today because of a named fault


def floor(a, vec):
    h = (a + a.conj().T) / 2
    w, v = eigh(h)
    return (v * vec(w)) @ v.conj().T


# Calls look the program's functions up when they run, so tracing sees them.

def builtin_call(name, a, ring):
    return lambda: cfckit.cfc_builtin(name, a, RING[ring])


def user_call(fn, a, ring, non_unital=False):
    f = cfckit.ScalarFunction(fn.scalar, RING[ring], "poly")
    if non_unital:
        return lambda: cfckit.cfc_n(f, a, None, RING[ring])
    return lambda: cfckit.cfc(f, a, RING[ring])


def valid_op(label, call, a, u, lam, fn, fault=False) -> Op:
    ref = (u * fn.vec(lam)) @ u.conj().T
    tol = matrix_tolerance(a, lam, fn.lip(lam), ref)
    n = len(lam)

    def check(out):
        return close_matrix(out.value, out.junk, ref, tol)

    def spoil(out):
        return [replace(out, value=out.value + perturbation((n, n), tol)),
                cfckit.CfcOutcome(np.zeros((n, n), np.complex128), True, "predicate_failed")]

    return Op(label, call, lambda: floor(a, fn.vec), check, spoil, fault=fault)


def junk_op(label, call, a, fn, reason) -> Op:
    n = a.shape[0]

    def check(out):
        return exact_junk(out.value, out.junk, out.reason, n, reason)

    def spoil(out):
        other = "predicate_failed" if reason != "predicate_failed" else "eval_failed"
        return [replace(out, reason=other), replace(out, value=np.eye(n)),
                replace(out, junk=False, reason=None)]

    return Op(label, call, lambda: floor(a, fn.vec), check, spoil)


def _interleave(counts: dict) -> list:
    """Round-robin over the classes: (class, occurrence) in a fixed order."""
    order, seen = [], dict.fromkeys(counts, 0)
    while len(order) < sum(counts.values()):
        for cls, count in counts.items():
            if seen[cls] < count:
                order.append((cls, seen[cls]))
                seen[cls] += 1
    return order


class Dense:
    """512 x 512 inputs: complex normal (C), real symmetric (R) and complex
    Hermitian PSD (R>=0), with distinct eigenvalues or 8 values of
    multiplicity 64.  One cfc_builtin per op: exp over C, exp or log (in
    turn) over R, sqrt over R>=0.

    The shares keep the median and the tail percentile on ops whose time,
    like their floor's, is mostly LAPACK: their ratios repeat within about
    1% from run to run.  The real ops spend about half their time in pure
    Python (clustering, predicate), so their ratio (3 to 4) moves by about
    10% with the load on the machine; with fewer than ten of them they stay
    beyond the tail percentile and weigh little in the total."""

    name = "dense"
    n = 512
    SHARES = {(COMPLEX, True): 8, (COMPLEX, False): 8, (NNREAL, True): 8, (NNREAL, False): 8,
              (REAL, True): 4, (REAL, False): 4}
    SCHEDULE = _interleave(SHARES)
    size = len(SCHEDULE)
    block = len(SHARES)

    def __init__(self, seed: int):
        self.seed = seed
        rng = rng_for(seed, 0)
        self.unitaries = {c: [haar(rng, self.n, c) for _ in range(2)] for c in (True, False)}

    def op(self, i: int) -> Op:
        (ring, distinct), k = self.SCHEDULE[i]
        if ring == COMPLEX:
            fn, lo, hi = EXP, -1.0, 1.0
        elif ring == REAL:
            fn, lo, hi = (EXP, -1.0, 1.0) if k % 2 == 0 else (LOG, 0.05, 2.0)
        else:
            fn, lo, hi = SQRT, 0.05, 2.0
        lam, _, _ = eigenvalues(rng_for(self.seed, 1, i), self.n, ring,
                                self.n if distinct else 8, lo, hi)
        u = self.unitaries[ring != REAL][k % 2]
        a = with_spectrum(u, lam)
        label = f"{ring}/{fn.name}/{'distinct' if distinct else 'repeated'}"
        return valid_op(label, builtin_call(fn.name, a, ring), a, u, lam, fn)


class SmallStream:
    """One call per 4 x 4 matrix over all three rings, in blocks of 20: 15
    valid calls (builtins, user polynomials, pos_part/neg_part, cfc_n), 4
    whose correct outcome is junk, and 1 normal input scaled to 1e155 that
    fails today (is_star_normal squares ||a|| and overflows)."""

    name = "small-stream"
    n = 4
    size = 2000
    block = 20

    def __init__(self, seed: int):
        self.ops = [self._make(seed, i) for i in range(self.size)]

    def op(self, i: int) -> Op:
        return self.ops[i]

    def _make(self, seed: int, i: int) -> Op:
        kind = i % self.block
        n = self.n
        if kind == 19:
            rng = rng_for(FAULT_SEED, i)
            u = haar(rng, n, True)
            lam = eigenvalues(rng, n, COMPLEX, n, -1.0, 1.0)[0] * FAULT_SCALE
            a = with_spectrum(u, lam)
            return valid_op("complex/abs/scaled-1e155", builtin_call("abs", a, COMPLEX),
                            a, u, lam, ABS, fault=True)
        rng = rng_for(seed, 2, i)
        uc, ur = haar(rng, n, True), haar(rng, n, False)

        def normal(ring, distinct, lo, hi):
            lam = eigenvalues(rng, n, ring, distinct, lo, hi)[0]
            u = uc if ring == COMPLEX else ur
            return u, lam, with_spectrum(u, lam)

        if kind in (0, 10, 14):
            u, lam, a = normal(COMPLEX, n if kind != 10 else 2, -1.0, 1.0)
            fn = ABS if kind == 14 else EXP
            return valid_op(f"complex/{fn.name}", builtin_call(fn.name, a, COMPLEX), a, u, lam, fn)
        if kind in (2, 11):
            u, lam, a = normal(REAL, n if kind == 2 else 2, -1.0, 1.0)
            return valid_op("real/exp", builtin_call("exp", a, REAL), a, u, lam, EXP)
        if kind == 9:
            u, lam, a = normal(REAL, n, 0.05, 2.0)
            return valid_op("real/log", builtin_call("log", a, REAL), a, u, lam, LOG)
        if kind in (6, 12):
            u, lam, a = normal(NNREAL, n if kind == 6 else 2, 0.05, 2.0)
            return valid_op("nnreal/sqrt", builtin_call("sqrt", a, NNREAL), a, u, lam, SQRT)
        if kind in (1, 3, 7):
            ring = {1: COMPLEX, 3: REAL, 7: NNREAL}[kind]
            u, lam, a = normal(ring, n, 0.0 if ring == NNREAL else -1.0, 1.0)
            fn = random_poly(rng, ring)
            return valid_op(f"{ring}/poly", user_call(fn, a, ring), a, u, lam, fn)
        if kind in (8, 13):
            ring = COMPLEX if kind == 8 else REAL
            u, lam, a = normal(ring, n, -1.0, 1.0)
            fn = random_poly(rng, ring, zero_at_zero=True)
            return valid_op(f"{ring}/cfc_n-poly", user_call(fn, a, ring, non_unital=True),
                            a, u, lam, fn)
        if kind in (4, 5):
            u, lam, a = normal(REAL, n, -1.0, 1.0)
            fn, part = (POS, cfckit.pos_part) if kind == 4 else (NEG, cfckit.neg_part)
            name = part.__name__
            return valid_op(f"real/{name}", lambda: getattr(cfckit, name)(a), a, u, lam, fn)
        if kind == 15:
            a = nonnormal(rng, n)
            return junk_op("junk/complex-nonnormal", builtin_call("exp", a, COMPLEX), a, EXP,
                           "predicate_failed")
        if kind == 16:
            _, _, a = normal(REAL, n, -1.0, 1.0)  # lowest eigenvalue below -0.6
            return junk_op("junk/nnreal-indefinite", builtin_call("sqrt", a, NNREAL), a, SQRT,
                           "predicate_failed")
        if kind == 17:
            _, _, a = normal(REAL, n, -1.0, 1.0)
            return junk_op("junk/real-sqrt-negative", builtin_call("sqrt", a, REAL), a, SQRT,
                           "eval_failed")
        _, _, a = normal(COMPLEX, n, -1.0, 1.0)
        fn = poly([(0, 0, 1.0), (1, 0, rng.uniform(-1, 1)), (2, 0, rng.uniform(-1, 1))])
        return junk_op("junk/cfc_n-f0-nonzero", user_call(fn, a, COMPLEX, non_unital=True),
                       a, fn, "zero_condition_failed")


class Laws:
    """One check_laws trial per op: n from 1 to 6 over all three rings, grid
    spectra with 1 to n distinct values, and a pair of random polynomials.
    Only values are drawn from the seed; the make-up is fixed by the index."""

    name = "laws"
    size = 216  # 12 rounds of the 18 (ring, n) classes
    block = 18

    def __init__(self, seed: int):
        self.ops = [self._make(seed, i) for i in range(self.size)]

    def op(self, i: int) -> Op:
        return self.ops[i]

    def _make(self, seed: int, i: int) -> Op:
        ring = RINGS[i % 3]
        n = 1 + (i // 3) % 6
        rng = rng_for(seed, 3, i)
        lam = grid_eigenvalues(rng, n, ring, 1 + (i // self.block) % n)
        a = with_spectrum(haar(rng, n, True), lam)
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        sf = cfckit.ScalarFunction(f.scalar, RING[ring], "f")
        sg = cfckit.ScalarFunction(g.scalar, RING[ring], "g")
        # -a leaves R>=0, so negation has no instance there
        allowed = {"negation"} if ring == NNREAL else set()

        def spoil(report):
            entries = list(report.entries)
            k = next(j for j, e in enumerate(entries) if e.name not in allowed)
            failed = entries[:k] + [replace(entries[k], passed=False)] + entries[k + 1:]
            skipped = entries[:k] + [replace(entries[k], skipped=True)] + entries[k + 1:]
            return [replace(report, entries=tuple(failed)),
                    replace(report, entries=tuple(skipped))]

        return Op(f"{ring}/n={n}", lambda: cfckit.check_laws(a, sf, sg, RING[ring]),
                  lambda: floor(a, f.vec), lambda r: laws_pass(r, allowed), spoil)


def to_wire(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {"n": a.shape[0],
            "entries": np.column_stack([a.real.ravel(), a.imag.ravel()]).tolist()}


def from_wire(obj) -> np.ndarray:
    e = np.asarray(obj["entries"], dtype=np.float64)
    n = obj["n"]
    if not e[:, 1].any():
        return e[:, 0].reshape(n, n)
    return (e[:, 0] + 1j * e[:, 1]).reshape(n, n)


def cli_floor(paths, vec, wire: str):
    """json.load of the input files, the eigh floor, and json.dumps of the
    result in the wire format of the verb."""
    objs = []
    for p in paths:
        with open(p) as fh:
            objs.append(json.load(fh))
    a = from_wire(objs[0])
    h = (a + a.conj().T) / 2
    w, v = eigh(h)
    r = (v * vec(w)) @ v.conj().T
    if wire == "matrix":
        return json.dumps({"junk": False, "reason": None, "matrix": to_wire(r)}, indent=2)
    return json.dumps({"ring": "complex", "points": [[float(x), 0.0] for x in w],
                       "multiplicities": [1] * len(w), "source": "eigen"}, indent=2)


class Cli:
    """In-process cfckit.cli.main on JSON files: apply, apply-n --basis,
    spectrum (over C and over R), quasispectrum via the unitization and
    quasispectrum --basis at n=64, unitize-info at n=16.

    unitize-info runs half as often as the other verbs: its ratio to the
    floor is ten times theirs, and with 10 of 60 ops it would fill the tail
    exactly, putting the tail percentile on the extreme of the next verb."""

    name = "cli"
    size = 60
    block = 12
    n = 64
    VERBS = ("apply", "apply-n", "spectrum", "quasispectrum", "quasispectrum-basis",
             "apply", "apply-n", "spectrum-real", "quasispectrum", "quasispectrum-basis",
             "apply", "unitize-info")
    COMMAND = {"spectrum-real": "spectrum", "quasispectrum-basis": "quasispectrum"}

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.ops = [self._make(seed, i) for i in range(self.size)]

    def op(self, i: int) -> Op:
        return self.ops[i]

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _make(self, seed: int, i: int) -> Op:
        verb = self.VERBS[i % self.block]
        rng = rng_for(seed, 4, i)
        n = 16 if verb == "unitize-info" else self.n
        ring = REAL if verb == "spectrum-real" else COMPLEX
        u = haar(rng, n, ring == COMPLEX)
        with_basis = verb in ("apply-n", "quasispectrum-basis")
        if with_basis:
            # few distinct eigenvalues, one of them 0; the basis is the
            # spectral projections onto the nonzero ones
            _, values, _ = eigenvalues(rng, 3 * n // 4, COMPLEX, 3, 0.25, 1.0)
            values = np.concatenate([[0.0], values])
            mults = np.full(4, n // 4)
        elif verb.startswith("spectrum"):
            _, values, mults = eigenvalues(rng, n, ring, 5, -1.0, 1.0)
        else:
            _, values, mults = eigenvalues(rng, n, COMPLEX, n, 0.1, 1.1)
        lam = np.repeat(values, mults)
        a = with_spectrum(u, lam)
        matrix = self._write(f"in-{i}.json", to_wire(a))
        out = os.path.join(self.workdir, f"out-{i}.json")
        argv = [self.COMMAND.get(verb, verb), "--matrix", matrix, "--ring", ring, "--out", out]
        inputs = [matrix]
        if with_basis:
            cols = np.cumsum(mults)
            projections = [u[:, s:e] @ u[:, s:e].conj().T
                           for s, e in zip(cols[:-1], cols[1:])]
            basis = self._write(f"basis-{i}.json", {
                "unital": False, "matrices": [to_wire(p) for p in projections]})
            argv += ["--basis", basis]
            inputs.append(basis)
        fn = random_poly(rng, COMPLEX, zero_at_zero=True) if verb == "apply-n" else EXP
        if verb.startswith("apply"):
            argv += ["--fn", json.dumps(fn.spec)]

        def collect(rc):
            if rc != 0 or not os.path.exists(out):
                return rc, None
            with open(out) as fh:
                obj = json.load(fh)
            os.remove(out)
            return rc, obj

        if verb.startswith("apply"):
            check, spoil = self._matrix_check(a, u, lam, fn)
        elif verb == "unitize-info":
            check, spoil = self._unitize_check(a, values)
        else:
            quasi = verb.startswith("quasi")
            want = np.unique(np.concatenate([[0.0], values])) if quasi else values
            check, spoil = self._points_check(
                want, None if quasi else mults, point_tolerance(a, 2 * n if quasi else n))
        wire = "matrix" if verb.startswith("apply") else "points"
        return Op(f"{verb}/n={n}", lambda: CLI.main(argv),
                  lambda: cli_floor(inputs, fn.vec, wire), check, spoil, collect=collect)

    @staticmethod
    def _matrix_check(a, u, lam, fn):
        ref = (u * fn.vec(lam)) @ u.conj().T
        tol = matrix_tolerance(a, lam, fn.lip(lam), ref)
        n = len(lam)

        def check(result):
            rc, obj = result
            return (rc == 0 and obj is not None and obj["reason"] is None
                    and close_matrix(from_wire(obj["matrix"]), obj["junk"], ref, tol))

        def spoil(result):
            rc, obj = result
            moved = to_wire(from_wire(obj["matrix"]) + perturbation((n, n), tol))
            zero = to_wire(np.zeros((n, n)))
            return [(rc, {**obj, "matrix": moved}),
                    (rc, {"junk": True, "reason": "predicate_failed", "matrix": zero})]

        return check, spoil

    @staticmethod
    def _points_check(want, want_mults, tol):
        def points_of(obj):
            return [complex(re, im) for re, im in obj["points"]]

        def check(result):
            rc, obj = result
            return (rc == 0 and obj is not None and same_points(
                points_of(obj), obj["multiplicities"], want, want_mults, tol))

        def spoil(result):
            rc, obj = result
            pts = obj["points"]
            moved = [[pts[0][0] + 2 * tol, pts[0][1]]] + pts[1:]
            wrong = [(rc, {**obj, "points": moved}),
                     (rc, {**obj, "points": pts[1:],
                           "multiplicities": obj["multiplicities"][1:]})]
            if want_mults is not None:
                mults = [obj["multiplicities"][0] + 1] + obj["multiplicities"][1:]
                wrong.append((rc, {**obj, "multiplicities": mults}))
            return wrong

        return check, spoil

    @staticmethod
    def _unitize_check(a, values):
        n = a.shape[0]
        norm = float(np.max(np.abs(values)))
        # operator norms come from an eigvalsh of a Gram matrix of size n^2 at most
        rtol = 4.0 * n * n * float(np.finfo(np.float64).eps)
        points_check, _ = Cli._points_check(
            np.unique(np.concatenate([[0.0], values])), None, point_tolerance(a, 2 * n))

        def check(result):
            rc, obj = result
            return (rc == 0 and obj is not None and obj["n"] == n
                    and obj["represented_dim"] == 2 * n
                    and abs(obj["norm"] - norm) <= rtol * norm
                    and abs(obj["norm_via_map"] - norm) <= rtol * norm
                    and points_check((rc, obj["quasispectrum"])))

        def spoil(result):
            rc, obj = result
            off = norm * (1 + 2 * rtol)
            quasi = obj["quasispectrum"]
            return [(rc, {**obj, "norm": off}), (rc, {**obj, "norm_via_map": off}),
                    (rc, {**obj, "quasispectrum": {**quasi, "points": quasi["points"][1:],
                                                   "multiplicities": quasi["multiplicities"][1:]}})]

        return check, spoil


def make(name: str, seed: int, workdir: str):
    if name == "dense":
        return Dense(seed)
    if name == "small-stream":
        return SmallStream(seed)
    if name == "laws":
        return Laws(seed)
    return Cli(seed, workdir)
