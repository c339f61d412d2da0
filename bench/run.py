"""cfckit benchmark: end-to-end and per-layer figures measured against a floor.

    python3 bench/run.py --workload dense --seed 1 --seconds 15 --trace 0

Workloads: dense, small-stream, laws, cli (or `all`, one after the other in
this process).  Every op is timed from outside and followed by its floor on
the same input (see workloads.py); ratios to the floor are what stay steady
on a shared machine.  A run repeats whole passes over the workload's fixed
op list while the next pass fits in --seconds, so the sample count (ops per
pass) does not grow when the program gets faster; each op's ratio is its
median over the passes.  --trace 1 runs every op once untraced and once with
the layers wrapped (spans.py) and reports the per-layer metrics instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import os

# One BLAS thread, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("dense", "small-stream", "laws", "cli")
SETUP_RUNS = 9
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it

SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
t0 = time.perf_counter()
{body}
sys.stdout.write(repr(time.perf_counter() - t0))
"""
SETUP_BODY = {
    "library": "import cfckit\n"
               "cfckit.cfc_builtin('exp', np.diag([1.0, 2.0]), cfckit.ScalarRing.REAL)",
    "cli": "import cfckit.cli\n"
           "cfckit.cli.main(['spectrum', '--matrix', sys.argv[2], '--out', sys.argv[3]])",
}


def import_program():
    """cfckit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "cfckit", "__init__.py")):
        sys.exit(f"error: no cfckit sources under {SRC}")
    sys.path.insert(0, SRC)
    import cfckit

    if not os.path.abspath(cfckit.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: cfckit imported from {cfckit.__file__}, not {SRC}")


def setup_seconds(kind: str, workdir: str) -> float:
    """Median over fresh processes (numpy already imported) of importing
    cfckit and making a first call."""
    matrix = os.path.join(workdir, "setup-in.json")
    with open(matrix, "w") as fh:
        json.dump({"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}, fh)
    code = SETUP_CHILD.format(body=SETUP_BODY[kind])
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC, matrix, os.path.join(workdir, "setup-out.json")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure(wl, seconds: float, tracer=None):
    """Whole passes over the workload's ops; returns per-pass time arrays."""
    from checks import self_test

    warm = []
    for i in range(wl.block):  # one op of every class: lazy set-up and the self-test
        op = wl.op(i)
        raw = op.call()
        op.floor()
        warm.append((op, op.collect(raw)))
    self_test([(op, result) for op, result in warm if not op.fault])

    clock = time.perf_counter_ns
    n = wl.size
    op_ns, floor_ns, plain_ns = [], [], []
    labels = [""] * n
    attempted = failed = unexpected = 0
    failures = {}
    start = time.perf_counter()
    while True:
        gc.collect()
        pass_start = time.perf_counter()
        t_op, t_floor, t_plain = (np.empty(n, np.int64) for _ in range(3))
        for i in range(n):
            op = wl.op(i)
            labels[i] = op.label
            if tracer is not None:
                t0 = clock()
                op.call()
                t_plain[i] = clock() - t0
                tracer.op = len(op_ns) * n + i
                tracer.active = True
            t0 = clock()
            raw = op.call()
            t_op[i] = clock() - t0
            if tracer is not None:
                tracer.active = False
            t0 = clock()
            op.floor()
            t_floor[i] = clock() - t0
            attempted += 1
            if not op.check(op.collect(raw)):
                failed += 1
                unexpected += not op.fault
                failures[op.label] = failures.get(op.label, 0) + 1
        op_ns.append(t_op)
        floor_ns.append(t_floor)
        plain_ns.append(t_plain)
        if tracer is not None:
            tracer.keep = False
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return {"op": np.vstack(op_ns), "floor": np.vstack(floor_ns), "plain": np.vstack(plain_ns),
            "attempted": attempted, "failed": failed, "unexpected": unexpected,
            "failures": failures, "labels": labels}


def op_ratios(m) -> np.ndarray:
    """Each op's time over its floor's, median over the passes."""
    return np.median(m["op"] / m["floor"], axis=0)


def end_to_end(m, setup_s: float) -> dict:
    ratios = op_ratios(m)
    n = len(ratios)
    return {
        "p50_vs_floor": {"value": float(np.median(ratios)), "unit": "x"},
        "tail_vs_floor": {"value": float(np.sort(ratios)[n - 1 - TAIL_BEYOND]), "unit": "x"},
        "total_vs_floor": {"value": float(m["op"].sum() / m["floor"].sum()), "unit": "x"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def reference_figures(m) -> dict:
    """What a caller sees in absolute terms; too noisy on a shared machine to gate."""
    return {
        "ops_s": {"value": float(m["op"].size / (m["op"].sum() / 1e9)), "unit": "1/s"},
        "latency_p50_ms": {"value": float(np.median(np.median(m["op"], axis=0)) / 1e6),
                           "unit": "ms"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import Tracer

    workdir = os.path.join(OUT, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = None
        if not trace:
            setup_s = setup_seconds("cli" if name == "cli" else "library", workdir)
        wl = workloads.make(name, seed, workdir)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            m = measure(wl, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = m["op"].shape[0]
    ops = m["op"].size
    print(f"{name}: seed {seed}, {wl.size} ops per pass x {passes} passes, "
          f"tail = p{100 * (wl.size - TAIL_BEYOND) / wl.size:.1f} of the per-op ratios")
    ratios = op_ratios(m)
    for label in sorted(set(m["labels"])):
        mask = np.array([lab == label for lab in m["labels"]])
        print(f"  {label:<28} {mask.sum():>5} ops  ratio p50 {np.median(ratios[mask]):8.3f} x  "
              f"op p50 {np.median(m['op'][:, mask]) / 1e6:9.4f} ms")
    if m["failures"]:
        print(f"{name}: failed ops by class: {m['failures']}")
    if trace:
        metrics = tracer.metrics(ops)
        metrics["floor_ms"] = {"value": float(m["floor"].mean() / 1e6), "unit": "ms"}
        metrics["tracing_overhead"] = {"value": float(m["op"].sum() / m["plain"].sum()),
                                       "unit": "x"}
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl")
        tracer.write(path)
        print(f"{name}: {len(tracer.records)} spans of the first pass in {path}")
        if tracer.missing:
            print(f"{name}: bindings not found, their layers read 0: {tracer.missing}")
    else:
        metrics = end_to_end(m, setup_s)
        ref = reference_figures(m)
        print(f"{name}: reference (not gated): "
              + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in ref.items()))
    for key, v in metrics.items():
        print(f"  {key:<28} {v['value']:>14.6g} {v['unit']}")
    return {"correct": m["unexpected"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # peak RSS only grows within a process, so `all` runs the largest last
    names = sorted(names, key=lambda w: w == "dense")
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
