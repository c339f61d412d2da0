"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live)."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cfckit.cfc import (
    ScalarFunction,
    builtin_function,
    cfc,
    cfc_builtin,
    cfc_n,
    neg_part,
    pos_part,
)
from cfckit.eigen import elemental_subalgebra, is_nonneg
from cfckit.matrix_core import adjoint, fro_norm, operator_norm
from cfckit.oracle import cfc_oracle
from cfckit.sampling import (
    random_normal_matrix,
    random_poly_function,
    random_with_spectrum,
    rng_from_seed,
    spaced_eigenvalues,
)
from cfckit.scalars import ScalarRing
from cfckit.spectrum import (
    quasispectrum_intrinsic,
    quasispectrum_via_unitization,
    spectrum,
)
from cfckit.unitization import (
    UnitizationElement,
    uni_mul,
    uni_norm,
    uni_norm_via_map,
    uni_star,
)

RINGS = (ScalarRing.COMPLEX, ScalarRing.REAL, ScalarRing.NNREAL)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def hausdorff(xs, ys):
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    d1 = max(min(abs(x - y) for y in ys) for x in xs)
    d2 = max(min(abs(x - y) for x in xs) for y in ys)
    return max(d1, d2)


def test_criterion_01_law_suite_500_trials():
    gen = rng_from_seed(101)
    start = time.process_time()  # CPU time: other load does not count
    worst = 0.0
    for i in range(500):
        ring = RINGS[i % 3]
        n = int(gen.integers(1, 9))
        a = random_normal_matrix(gen, n, ring)
        f = random_poly_function(gen, ring)
        g = random_poly_function(gen, ring)
        fa = cfc(f, a, ring).value
        ga = cfc(g, a, ring).value
        scale = max(1.0, fro_norm(a), fro_norm(fa), fro_norm(ga),
                    fro_norm(fa) * fro_norm(ga))
        s = cfc(ScalarFunction(lambda x: f.eval(x) + g.eval(x), ring), a, ring).value
        p = cfc(ScalarFunction(lambda x: f.eval(x) * g.eval(x), ring), a, ring).value
        st = cfc(ScalarFunction(lambda x: complex(f.eval(x)).conjugate(), ring),
                 a, ring).value
        c = 2.0 if ring is not ScalarRing.COMPLEX else 2.0 - 0.5j
        cm = cfc(ScalarFunction(lambda x: c, ring), a, ring).value
        ident = cfc(ScalarFunction(lambda x: x, ring), a, ring).value
        worst = max(
            worst,
            fro_norm(s - (fa + ga)) / scale,
            fro_norm(p - fa @ ga) / scale,
            fro_norm(st - adjoint(fa)) / scale,
            fro_norm(cm - c * np.eye(n)) / scale,
            fro_norm(ident - a) / scale,
        )
    elapsed = time.process_time() - start
    report("01 homomorphism law suite (500 trials, rel residual <= 1e-9, < 30 s)",
           worst <= 1e-9 and elapsed < 30.0)


def test_criterion_02_spectral_mapping():
    gen = rng_from_seed(102)
    ok = True
    for i in range(200):
        ring = RINGS[i % 3]
        a = random_normal_matrix(gen, int(gen.integers(1, 9)), ring)
        f = random_poly_function(gen, ring)
        fa = cfc(f, a, ring).value
        source = spectrum(a, ring).points
        mapped = list({complex(f.eval(x)) for x in source})
        got = [complex(p) for p in spectrum(fa, ring, tol=1e-7).points]
        diam = max((abs(p - q) for p in mapped for q in mapped), default=0.0)
        hd = hausdorff(got, mapped)
        ok = ok and hd <= max(1e-8 * diam, 1e-13)
    report("02 spectral mapping (200 trials, Hausdorff <= 1e-8 * diameter)", ok)


def test_criterion_03_composition():
    gen = rng_from_seed(103)
    worst = 0.0
    for i in range(200):
        ring = RINGS[i % 3]
        a = random_normal_matrix(gen, int(gen.integers(1, 9)), ring)
        f = random_poly_function(gen, ring)
        g = random_poly_function(gen, ring)
        direct = cfc(ScalarFunction(lambda x: g.eval(f.eval(x)), ring), a, ring).value
        inner = cfc(f, a, ring).value
        staged = cfc(g, inner, ring, tol=1e-7).value
        worst = max(worst, fro_norm(direct - staged) / max(1.0, fro_norm(direct)))
    report("03 composition cfc(g.f, a) = cfc(g, cfc(f, a)) (200 trials, <= 1e-8)",
           worst <= 1e-8)


def test_criterion_04_uniqueness_oracle():
    gen = rng_from_seed(104)
    worst = 0.0
    for i in range(200):
        ring = RINGS[i % 3]
        a = random_normal_matrix(gen, int(gen.integers(1, 9)), ring)
        f = random_poly_function(gen, ring)
        direct = cfc(f, a, ring).value
        ref = cfc_oracle(f, a, ring)
        fmax = max(abs(complex(f.eval(x))) for x in spectrum(a, ring).points)
        worst = max(worst, fro_norm(direct - ref)
                    / ((1.0 + fmax) * max(1.0, fro_norm(a))))
    report("04 uniqueness oracle agreement (200 trials, <= 1e-8)", worst <= 1e-8)


def test_criterion_05_litmus_inverses():
    gen = rng_from_seed(105)
    worst = 0.0
    for _ in range(100):
        a = random_normal_matrix(gen, int(gen.integers(1, 9)),
                                 ScalarRing.COMPLEX, nonzero=True)
        f = random_poly_function(gen, ScalarRing.COMPLEX)
        a_inv = cfc_builtin("inv", a).value
        lhs = cfc(f, a_inv, tol=1e-7).value
        rhs = cfc(ScalarFunction(lambda x: f.eval(1.0 / x), ScalarRing.COMPLEX),
                  a).value
        worst = max(worst, fro_norm(lhs - rhs) / max(1.0, fro_norm(lhs)))
    report("05 litmus: inverses f(a^-1) = (x -> f(1/x))(a) (<= 1e-8)", worst <= 1e-8)


def test_criterion_06_litmus_pos_neg_parts():
    gen = rng_from_seed(106)
    ok = True
    for _ in range(100):
        a = random_normal_matrix(gen, int(gen.integers(1, 9)), ScalarRing.REAL)
        na = max(fro_norm(a), 1.0)
        p = pos_part(a).value
        q = neg_part(a).value
        ok = ok and is_nonneg(p, 1e-9).holds and is_nonneg(q, 1e-9).holds
        ok = ok and fro_norm(a - (p - q)) <= 1e-10 * na
        ok = ok and fro_norm(p @ q) <= 1e-10 * na * na
        # uniqueness: candidates from the independent |a| route must coincide
        absa = cfc_builtin("abs", a, ScalarRing.REAL).value
        p2 = (absa + a) / 2
        q2 = (absa - a) / 2
        ok = ok and fro_norm(p - p2) <= 1e-9 * na and fro_norm(q - q2) <= 1e-9 * na
    report("06 litmus: positive/negative parts and their uniqueness", ok)


def test_criterion_07_litmus_square_roots():
    gen = rng_from_seed(107)
    ok = True
    for _ in range(100):
        n = int(gen.integers(1, 7))
        b = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        a = adjoint(b) @ b
        na = max(fro_norm(a), 1.0)
        root = cfc_builtin("sqrt", a, ScalarRing.NNREAL).value
        ok = ok and fro_norm(root @ root - a) <= 1e-9 * na
        root_r = cfc_builtin("sqrt", a, ScalarRing.REAL).value
        ok = ok and fro_norm(root - root_r) <= 1e-9 * na
    report("07 litmus: square roots via nnreal, cross-checked via real", ok)


def test_criterion_08_litmus_real_matrices():
    gen = rng_from_seed(108)
    ok = True
    for _ in range(50):
        n = int(gen.integers(1, 9))
        sym = gen.standard_normal((n, n))
        sym = (sym + sym.T) / 2
        out = cfc(builtin_function("exp", ScalarRing.REAL), sym, ScalarRing.REAL)
        ok = ok and not out.junk and bool(np.all(out.value.imag == 0.0))
        parts = pos_part(sym).value
        ok = ok and bool(np.all(parts.imag == 0.0))
        pts = spectrum(sym, ScalarRing.REAL).points
        ok = ok and all(isinstance(x, float) for x in pts)
    report("08 litmus: real symmetric inputs stay real end to end", ok)


def test_criterion_09_quasispectrum_dual_oracle():
    gen = rng_from_seed(109)
    ok = True
    for i in range(100):
        ring = RINGS[i % 3]
        n = int(gen.integers(2, 7))
        k = int(gen.integers(1, 5))  # non-unital subalgebra dimension 1..4
        lam = spaced_eigenvalues(gen, n, ring)
        distinct = list(dict.fromkeys(lam))[:k]
        lam = np.array([distinct[j % len(distinct)] for j in range(n)])
        a = random_with_spectrum(gen, lam)
        if ring is not ScalarRing.COMPLEX:
            a = (a + adjoint(a)) / 2
        B = elemental_subalgebra(a, unital=False)
        p1 = quasispectrum_intrinsic(B, a, ring).points
        p2 = quasispectrum_via_unitization(a, ring).points
        ok = ok and len(p1) == len(p2) and hausdorff(p1, p2) <= 1e-8
    report("09 quasispectrum: intrinsic vs unitization agree (100 trials)", ok)


def test_criterion_10_unitization_norms():
    gen = rng_from_seed(110)
    ok = True
    for _ in range(100):
        n = int(gen.integers(1, 7))
        x = UnitizationElement(
            complex(gen.standard_normal(), gen.standard_normal()),
            gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)),
        )
        nx = uni_norm(x)
        cstar = abs(uni_norm(uni_mul(uni_star(x), x)) - nx * nx)
        ok = ok and cstar <= 1e-9 * max(nx * nx, 1.0)
        ok = ok and abs(nx - uni_norm_via_map(x)) <= 1e-9 * max(nx, 1.0)
    report("10 unitization: C*-identity and norm-formula agreement", ok)


def test_criterion_11_junk_totality():
    gen = rng_from_seed(111)
    ok = True
    saw_junk = 0
    for _ in range(100):
        kind = int(gen.integers(0, 3))
        if kind == 0:  # non-normal
            a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
            ring = ScalarRing.COMPLEX
        elif kind == 1:  # normal but violates the real ring
            a = random_normal_matrix(gen, 4, ScalarRing.COMPLEX)
            ring = ScalarRing.REAL
        else:  # selfadjoint but violates nnreal
            a = random_with_spectrum(gen, [-1.0, 0.5, 1.0, 0.25])
            a = (a + adjoint(a)) / 2
            ring = ScalarRing.NNREAL
        f = random_poly_function(gen, ring)
        out = cfc(f, a, ring)
        ok = ok and isinstance(out.junk, bool)
        if out.junk:
            saw_junk += 1
            ok = ok and bool(np.all(out.value == 0))
        # cfc_n with f(0) != 0 on a perfectly good input
        good = random_normal_matrix(gen, 3, ring)
        shifted = ScalarFunction(lambda x: f.eval(x) + 1.0, ring)
        out_n = cfc_n(shifted, good, None, ring)
        ok = ok and out_n.junk and bool(np.all(out_n.value == 0))
    report("11 junk totality: every call returns; junk => exact zero",
           ok and saw_junk > 0)


def test_criterion_12_isometry():
    gen = rng_from_seed(112)
    ok = True
    for i in range(100):
        ring = RINGS[i % 3]
        a = random_normal_matrix(gen, int(gen.integers(1, 9)), ring)
        f = random_poly_function(gen, ring)
        out = cfc(f, a, ring)
        pts = spectrum(a, ring).points
        fmax = max(abs(complex(f.eval(x))) for x in pts)
        nrm = operator_norm(out.value)
        ok = ok and abs(nrm - fmax) <= max(1e-9 * fmax, 1e-13)
        ok = ok and all(abs(complex(f.eval(x))) <= nrm + 1e-9 for x in pts)
    report("12 isometry: ||cfc f a|| = sup |f| on the spectrum", ok)


def test_criterion_13_cli(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "cfckit", *args],
                              capture_output=True, text=True)

    m = tmp_path / "m.json"
    m.write_text(json.dumps(
        {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 0.0]]}))
    nn = tmp_path / "nn.json"
    nn.write_text(json.dumps(
        {"n": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))

    ok = True
    proc = run("apply", "--matrix", str(m), "--fn", '{"builtin":"sqrt"}',
               "--ring", "nnreal")
    out = json.loads(proc.stdout)
    ok = ok and proc.returncode == 0 and out["matrix"]["entries"] == [
        [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]

    # junk outcome still exits 0
    proc = run("apply", "--matrix", str(nn), "--fn", '{"builtin":"exp"}')
    ok = ok and proc.returncode == 0 and json.loads(proc.stdout)["junk"] is True

    # bit-exact round trip through the CLI output format
    echoed = out["matrix"]
    reparsed = json.loads(json.dumps(echoed))
    ok = ok and reparsed == echoed

    proc = run("spectrum", "--matrix", str(m), "--ring", "real")
    ok = ok and json.loads(proc.stdout)["points"] == [[1.0, 0.0], [4.0, 0.0]]

    proc = run("quasispectrum", "--matrix", str(m))
    ok = ok and json.loads(proc.stdout)["points"] == [
        [0.0, 0.0], [1.0, 0.0], [4.0, 0.0]]

    proc = run("check-laws", "--matrix", str(m), "--ring", "real", "--trials", "2")
    ok = ok and proc.returncode == 0

    proc = run("unitize-info", "--matrix", str(m))
    ok = ok and json.loads(proc.stdout)["represented_dim"] == 4

    report("13 CLI golden files, round trip, junk exit code", ok)
