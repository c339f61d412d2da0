"""Print each executable line of a checkout's src/cfckit that never ran:

    python3 tools/line_trace.py CHECKOUT --tests
    python3 tools/line_trace.py CHECKOUT --workloads small-stream laws --seeds 7 8 9

With --tests it runs CHECKOUT's tier-1 suite (CHECKOUT/tests) in this
process under pytest; with --workloads and --seeds it runs every op of each
workload of CHECKOUT/bench/workloads.py and each seed once, in order, as
tools/output_digest.py does.  A line reads `path:line: source`, the path
relative to CHECKOUT, on stdout (pytest reports to stderr).  A line is
executable when the compiled module maps some bytecode to it, and it ran
when sys.settrace saw a line event there.

No bytecode is written, and BLAS runs one thread, as bench/run.py has it.
Code that runs only in subprocesses (`python -m cfckit`, the tests that
probe a fresh interpreter) is invisible to the trace, so its lines are
listed even where a test runs them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

WORKLOADS = ("dense", "small-stream", "laws", "cli")


def executable_lines(source: str, path: str) -> set:
    """The line numbers that the module compiled from source maps bytecode
    to, in every code object nested in it (line 0, a module's entry, is
    none)."""
    todo = [compile(source, path, "exec", dont_inherit=True)]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def tracer(package: str, ran: set):
    """A sys.settrace function that records (file, line) for each line event
    in a file under package and traces no other frame."""
    prefix = package + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return global_


def run_tests(root: str) -> None:
    import pytest

    with contextlib.redirect_stdout(sys.stderr):  # stdout holds the report
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--rootdir", root, "-c", os.path.join(root, "pyproject.toml"),
                     os.path.join(root, "tests")])


def run_workloads(root: str, names, seeds) -> None:
    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads

    workdir = tempfile.mkdtemp(prefix="cfckit-trace-")
    try:
        for name in names:
            for seed in seeds:
                wl = workloads.make(name, seed, workdir)
                for i in range(wl.size):
                    wl.op(i).call()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", help="a checkout with src/cfckit, tests/ and bench/workloads.py")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tests", action="store_true", help="run the tier-1 suite")
    mode.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int)
    args = ap.parse_args(argv)
    if args.workloads and not args.seeds:
        ap.error("--workloads needs --seeds")

    root = os.path.abspath(args.checkout)
    package = os.path.join(root, "src", "cfckit")
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))
    ran = set()
    sys.settrace(tracer(package, ran))
    try:
        if args.tests:
            run_tests(root)
        else:
            run_workloads(root, args.workloads, args.seeds)
    finally:
        sys.settrace(None)

    imported = sys.modules.get("cfckit")
    if imported is None or not os.path.abspath(imported.__file__).startswith(package + os.sep):
        sys.exit(f"error: cfckit was not imported from {package}")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for line in sorted(executable_lines(source, path)):
            if (path, line) not in ran:
                print(f"{os.path.relpath(path, root)}:{line}: {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
