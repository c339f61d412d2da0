"""Print the per-stage cost, in µs, of four small calls of a checkout, so
that a change to the small-matrix hot path can show where its saving lands:

    python3 tools/call_stages.py CHECKOUT --repeats 25 --number 4000

It imports CHECKOUT/src/cfckit (read only: no bytecode is written), with one
BLAS thread as bench/run.py has, and times, on fixed 4x4 inputs (complex128
for C exp, float64 for the rest):

    C exp            cfc_builtin("exp", z, COMPLEX), z normal with distinct
                     complex eigenvalues
    R exp            cfc_builtin("exp", a, REAL), a exactly symmetric
    R>=0 indefinite  cfc_builtin("sqrt", b, NNREAL), b exactly symmetric with
                     a negative eigenvalue: junk predicate_failed
    pos_part         pos_part(b)

Each stage is one call timed on its own, on the inputs the call hands it:

    coerce     _coerced_rescaled(a)
    predicate  _predicate_report(a, a.conj().T, tol, scale), a.conj().T included;
               R and R>=0 only, since over C decompose decides soundness by its
               backward error and runs no separate predicate
    decompose  _decompose(a, ring, tol, scale), the predicate included
    plan       plan(a, ring), the two above included
    apply      plan.apply(f) on the plan (f = pos_part's own for pos_part)
    rebuild    _reconstruct(u, fvals) with fvals = f at the eigenvalues
    call       the whole call

A line reads `call stage best median` in µs per call: the best and the
median over --repeats runs of --number calls each.  The stages overlap as
listed, so their sum is not the call; call - plan - apply is what the entry
point itself adds (cfc_n's guard for pos_part).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402


def _symmetric(lam, seed):
    """An exactly symmetric float64 q diag(lam) q^T, q a random orthogonal."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))[0]
    a = (q * lam) @ q.T
    return (a + a.T) / 2


def _normal(lam, seed):
    """A complex normal u diag(lam) u*, u the unitary factor of a complex
    Gaussian."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((len(lam), len(lam)))
                     + 1j * rng.standard_normal((len(lam), len(lam))))[0]
    return (u * np.asarray(lam)) @ u.conj().T


def _stages(cfc, eigen, mc, name, a, ring, f, call):
    """(stage, thunk) pairs for one call on a over ring, f its function."""
    tol = cfc.DEFAULT_TOL
    _, b, scale, _ = mc._coerced_rescaled(a)
    p = cfc.plan(a, ring, tol)

    def decompose():
        try:
            eigen._decompose(b, ring, tol, scale)
        except mc.PredicateFailure:
            pass

    out = [("coerce", lambda: mc._coerced_rescaled(a))]
    if ring is not cfc.ScalarRing.COMPLEX:
        out.append(("predicate", lambda: eigen._predicate_report(b, b.conj().T, tol, scale)))
    out += [("decompose", decompose),
            ("plan", lambda: cfc.plan(a, ring, tol)),
            ("apply", lambda: p.apply(f))]
    if p.u is not None:
        fvals = np.array([f.eval(x) for x in p.values])
        out.append(("rebuild", lambda: cfc._reconstruct(p.u, fvals)))
    return [(name, stage, thunk) for stage, thunk in out + [("call", call)]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", help="a checkout with src/cfckit")
    ap.add_argument("--repeats", type=int, default=25, help="runs per stage (default 25)")
    ap.add_argument("--number", type=int, default=4000, help="calls per run (default 4000)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.checkout)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))
    import cfckit

    if not os.path.abspath(cfckit.__file__).startswith(root + os.sep):
        sys.exit(f"error: cfckit imported from {cfckit.__file__}, not {root}")
    cfc = importlib.import_module("cfckit.cfc")
    eigen = importlib.import_module("cfckit.eigen")
    mc = importlib.import_module("cfckit.matrix_core")
    cplx, real, nnreal = cfc.ScalarRing.COMPLEX, cfc.ScalarRing.REAL, cfc.ScalarRing.NNREAL
    z = _normal([0.25 + 0.5j, 0.5 - 0.25j, 1.0 + 1.0j, 2.0 - 0.5j], 33)
    a = _symmetric([0.25, 0.5, 1.0, 2.0], 31)
    b = _symmetric([-1.0, -0.5, 0.5, 2.0], 32)
    rows = (_stages(cfc, eigen, mc, "C exp", z, cplx, cfc.builtin_function("exp", cplx),
                    lambda: cfc.cfc_builtin("exp", z, cplx))
            + _stages(cfc, eigen, mc, "R exp", a, real, cfc.builtin_function("exp", real),
                      lambda: cfc.cfc_builtin("exp", a, real))
            + _stages(cfc, eigen, mc, "R>=0 indefinite", b, nnreal,
                      cfc.builtin_function("sqrt", nnreal),
                      lambda: cfc.cfc_builtin("sqrt", b, nnreal))
            + _stages(cfc, eigen, mc, "pos_part", b, real, cfc._POS, lambda: cfc.pos_part(b)))
    for name, stage, thunk in rows:
        runs = [t / args.number * 1e6
                for t in timeit.repeat(thunk, repeat=args.repeats, number=args.number)]
        print(f"{name:16} {stage:9} {min(runs):8.3f} {statistics.median(runs):8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
