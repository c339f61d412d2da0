"""Command-line front end.

Verbs: apply, apply-n, spectrum, quasispectrum, check-laws, unitize-info.
Junk calculus outcomes are valid results and exit 0; I/O, parse and
validation errors, a failed predicate where no junk value exists (spectra)
and eigensolver failures exit 1; failed law checks exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .cfc import cfc, cfc_n
from .eigen import NoConvergence
from .io import (
    dump_json,
    function_from_spec,
    load_basis,
    load_matrix,
    matrix_to_json,
)
from .oracle import check_laws
from .sampling import random_normal_matrix, random_poly_function, rng_from_seed
from .scalars import ScalarRing, default_tol
from .spectrum import (
    quasispectrum_intrinsic,
    quasispectrum_via_unitization,
    spectrum,
)
from .unitization import UnitizationElement, uni_norm, uni_norm_via_map, uni_represent

# unitize-info builds the n^2 x n^2 complex map of uni_norm_via_map (16 n^4
# bytes) only within this budget, that is for n <= 45; above it the field
# norm_via_map is null.
MAP_BUDGET_BYTES = 64 * 2**20


def _add_common(p, matrix_required=True):
    p.add_argument("--matrix", required=matrix_required, help="path to a matrix JSON file")
    p.add_argument("--ring", default="complex", help="scalar ring: complex | real | nnreal")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance (default 1e-9, or CFCKIT_TOL)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfckit",
        description="Functional calculus for complex matrices over C, R and R>=0.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("apply", help="compute f(a) with the unital calculus")
    _add_common(p)
    p.add_argument("--fn", required=True, help="function spec JSON")

    p = sub.add_parser("apply-n", help="compute f(a) with the non-unital calculus")
    _add_common(p)
    p.add_argument("--fn", required=True, help="function spec JSON")
    p.add_argument("--basis", default=None,
                   help="path to a subalgebra basis JSON file")

    p = sub.add_parser("spectrum", help="spectrum of a over the ring")
    _add_common(p)

    p = sub.add_parser("quasispectrum", help="quasispectrum of a over the ring")
    _add_common(p)
    p.add_argument("--basis", default=None,
                   help="compute intrinsically inside this subalgebra "
                        "(default: via the unitization)")

    p = sub.add_parser("check-laws", help="run the derived-law suite")
    _add_common(p, matrix_required=False)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("unitize-info", help="norms and spectrum of (0, a) in A+1")
    _add_common(p)
    return ap


# main() parses with one parser per process: parse_args leaves the parser as
# it was and reads no default from the environment (CFCKIT_TOL is read after
# parsing), so in-process callers pay for building it once.
_parser = functools.cache(build_parser)


def _ring(args) -> ScalarRing:
    return ScalarRing.from_string(args.ring)


def _tolerance(name: str, value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def _emit(obj, args) -> None:
    text = dump_json(obj, args.out)
    if not args.out:
        print(text)


def _spectrum_json(result) -> dict:
    return {
        "ring": result.ring.value,
        "points": [[complex(p).real, complex(p).imag] for p in result.points],
        "multiplicities": list(result.multiplicities),
        "source": result.source,
    }


def _run_apply(args, non_unital: bool) -> int:
    ring = _ring(args)
    a = load_matrix(args.matrix)
    f = function_from_spec(args.fn, ring)
    if non_unital:
        basis = load_basis(args.basis, args.tol) if args.basis else None
        outcome = cfc_n(f, a, basis, ring, args.tol)
    else:
        outcome = cfc(f, a, ring, args.tol)
    _emit({
        "junk": outcome.junk,
        "reason": outcome.reason,
        "matrix": matrix_to_json(outcome.value),
    }, args)
    return 0


def _run_spectrum(args) -> int:
    result = spectrum(load_matrix(args.matrix), _ring(args), args.tol)
    _emit(_spectrum_json(result), args)
    return 0


def _run_quasispectrum(args) -> int:
    a = load_matrix(args.matrix)
    if args.basis:
        basis = load_basis(args.basis, args.tol)
        result = quasispectrum_intrinsic(basis, a, _ring(args), args.tol)
    else:
        result = quasispectrum_via_unitization(a, _ring(args), args.tol)
    _emit(_spectrum_json(result), args)
    return 0


def _run_check_laws(args) -> int:
    ring = _ring(args)
    tol = args.tol
    rng = rng_from_seed(args.seed)
    fixed = load_matrix(args.matrix) if args.matrix else None
    trials = []
    failures = 0
    tables = []
    for i in range(max(args.trials, 1)):
        a = fixed if fixed is not None else random_normal_matrix(
            rng, int(rng.integers(1, 7)), ring)
        f = random_poly_function(rng, ring)
        g = random_poly_function(rng, ring)
        report = check_laws(a, f, g, ring, tol)
        if not report.all_passed:
            failures += 1
        trials.append({"trial": i, **report.to_dict()})
        tables.append(f"trial {i}\n{report.table()}")
    _emit({"trials": len(trials), "failures": failures, "results": trials}, args)
    print("\n\n".join(tables), file=sys.stderr)
    return 2 if failures else 0


def _run_unitize_info(args) -> int:
    a = load_matrix(args.matrix)
    n = a.shape[0]
    x = UnitizationElement(0.0, a)
    result = spectrum(uni_represent(x), _ring(args), args.tol)
    _emit({
        "n": n,
        "represented_dim": 2 * n,
        "norm": uni_norm(x),
        "norm_via_map": uni_norm_via_map(x) if 16 * n**4 <= MAP_BUDGET_BYTES else None,
        "quasispectrum": _spectrum_json(result),
    }, args)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "apply": lambda: _run_apply(args, non_unital=False),
        "apply-n": lambda: _run_apply(args, non_unital=True),
        "spectrum": lambda: _run_spectrum(args),
        "quasispectrum": lambda: _run_quasispectrum(args),
        "check-laws": lambda: _run_check_laws(args),
        "unitize-info": lambda: _run_unitize_info(args),
    }
    try:
        args.tol = (_tolerance("CFCKIT_TOL", default_tol()) if args.tol is None
                    else _tolerance("--tol", args.tol))
        return handlers[args.verb]()
    except (OSError, ValueError, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
