"""Print where a check_laws trial spends its time, helper by helper, over
the benchmark's `laws` workload, grouped by ring and n, or with `--by k` by
the number k of distinct eigenvalues of the trial's input (the points of
its plan of a), on which the chain's and the oracle's costs grow:

    python3 tools/law_profile.py CHECKOUT --seeds 3 --repeats 5 [--by k]

It imports CHECKOUT/src/cfckit and CHECKOUT/bench/workloads.py (read only:
no bytecode is written), with one BLAS thread as bench/run.py has, wraps
the helpers check_laws calls wherever a module binds them, and runs every op
of each seed --repeats times.  A column is a helper's inclusive time per
trial in microseconds, the median over the group's trials: `trial` is the
whole check_laws call, `plan` every plan (a, f(a) and the negation law's
-a), `apply_all` the one stacked application on the plan of a
(SpectralPlan._apply_all, which the public apply_all wraps), `eval_row`
every read of f or g by the calculus's rule (inside _apply, _apply_all and
the oracle too), `chain` the range law's C*(a) basis, `interpolate` the oracle,
`opnorm` the isometry law's operator norm and `cluster` the oracle's
clustering of the spectrum.  What the columns leave over is the laws'
own arithmetic.  `ops` counts the group's ops over all seeds.  The script
exits with code 1 when a helper it times is bound in none of its modules,
since its column would read 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

# (column, function name, modules that bind it)
HELPERS = (
    ("plan", "plan", ("cfckit.cfc", "cfckit.oracle")),
    ("eval_row", "_eval_row", ("cfckit.cfc", "cfckit.oracle")),
    ("chain", "_elemental_chain", ("cfckit.matrix_core", "cfckit.oracle")),
    ("interpolate", "_interpolate", ("cfckit.oracle",)),
    ("opnorm", "operator_norm", ("cfckit.matrix_core", "cfckit.oracle")),
    ("cluster", "cluster_with_labels", ("cfckit.eigen", "cfckit.cfc")),
)
COLUMNS = ("trial", "plan", "apply_all") + tuple(c for c, _, _ in HELPERS[1:])


def _timed(spent, column, fn):
    """fn, adding its inclusive time to spent[column]; a call nested in a
    call of the same column counts once."""
    depth = [0]
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        depth[0] += 1
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                spent[column] += clock() - t0
    return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", help="a checkout with src/cfckit and bench/workloads.py")
    ap.add_argument("--seeds", nargs="+", type=int, default=[3])
    ap.add_argument("--repeats", type=int, default=5, help="runs of each op (default 5)")
    ap.add_argument("--by", choices=("n", "k"), default="n",
                    help="group by ring and n (default) or by distinct eigenvalues k")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.checkout)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import cfckit
    import workloads

    for module in (cfckit, workloads):
        if not os.path.abspath(module.__file__).startswith(root + os.sep):
            sys.exit(f"error: {module.__name__} imported from {module.__file__}, not {root}")

    spent = defaultdict(float)
    for column, name, modules in HELPERS:
        bound = [mod for mod in map(importlib.import_module, modules) if hasattr(mod, name)]
        for mod in bound:
            setattr(mod, name, _timed(spent, column, getattr(mod, name)))
        if not bound:
            sys.exit(f"error: {name} is bound in none of {modules}")
    plan_cls = importlib.import_module("cfckit.cfc").SpectralPlan
    plan_cls._apply_all = _timed(spent, "apply_all", plan_cls._apply_all)
    # the trial's first plan is the plan of a, whose points the oracle law
    # clusters; k is read off them after the trial
    plans = []
    oracle = importlib.import_module("cfckit.oracle")
    timed_plan = oracle.plan

    def recorded_plan(*args, **kwargs):
        plans.append(timed_plan(*args, **kwargs))
        return plans[-1]
    oracle.plan = recorded_plan

    samples = defaultdict(lambda: defaultdict(list))  # label -> column -> per-trial seconds
    for seed in args.seeds:
        wl = workloads.make("laws", seed, None)
        for _ in range(args.repeats):
            for i in range(wl.size):
                op = wl.op(i)
                spent.clear()
                plans.clear()
                t0 = time.perf_counter()
                op.call()
                spent["trial"] = time.perf_counter() - t0
                label = f"k={len(plans[0].points())}" if args.by == "k" else op.label
                for column in COLUMNS:
                    samples[label][column].append(spent[column])

    def order(label):
        if args.by == "k":
            return int(label[2:])
        ring, n = label.split("/n=")
        return ring, int(n)

    head = "ring/n" if args.by == "n" else "k"
    print(f"{head:<14}{'ops':>6}" + "".join(f"{c:>12}" for c in COLUMNS))
    for label in sorted(samples, key=order):
        row = samples[label]
        cells = (statistics.median(row[c]) * 1e6 for c in COLUMNS)
        ops = len(row["trial"]) // args.repeats
        print(f"{label:<14}{ops:>6}" + "".join(f"{x:>12.1f}" for x in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
