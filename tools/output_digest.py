"""Print one digest per benchmark op, so that two checkouts can be compared
output for output with one diff:

    python3 tools/output_digest.py CHECKOUT --workloads small-stream laws --seeds 7 8 9 > a.txt
    python3 tools/output_digest.py OTHER    --workloads small-stream laws --seeds 7 8 9 > b.txt
    diff a.txt b.txt

It imports CHECKOUT/src/cfckit and CHECKOUT/bench/workloads.py (read only:
no bytecode is written) and runs every op of each workload and seed once,
in order, with one BLAS thread as bench/run.py has.  A line reads
`workload seed index label sha256`; the digest covers a cfc outcome's value
(dtype, shape and bytes), junk flag and reason, every field of every law
entry of a check_laws report, and a CLI op's exit code and the bytes of the
file it wrote (none when it wrote none).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("dense", "small-stream", "laws", "cli")


def _feed(h, x) -> None:
    """Feed x to the hash h, tagged by kind, recursing into dataclasses and
    tuples; floats go in as float.hex, so -0.0 and 0.0 differ."""
    if isinstance(x, np.ndarray):
        h.update(f"array {x.dtype.str} {x.shape}|".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__}(".encode())
        for f in dataclasses.fields(x):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(x, f.name))
        h.update(b")")
    elif isinstance(x, (tuple, list)):
        h.update(f"seq {len(x)}(".encode())
        for item in x:
            _feed(h, item)
        h.update(b")")
    elif type(x) is float:
        h.update(f"float {x.hex()}|".encode())
    elif type(x) is complex:
        h.update(f"complex {x.real.hex()} {x.imag.hex()}|".encode())
    else:
        h.update(f"{type(x).__name__} {x!r}|".encode())


def digest(workload: str, raw, out_path: str) -> str:
    h = hashlib.sha256()
    _feed(h, raw)
    if workload == "cli":
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                h.update(b"file|" + fh.read())
            os.remove(out_path)
        else:
            h.update(b"no file")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", help="a checkout with src/cfckit and bench/workloads.py")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args(argv)

    root = os.path.abspath(args.checkout)
    src, bench = os.path.join(root, "src"), os.path.join(root, "bench")
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, bench]
    import cfckit
    import workloads

    for module in (cfckit, workloads):
        if not os.path.abspath(module.__file__).startswith(root + os.sep):
            sys.exit(f"error: {module.__name__} imported from {module.__file__}, not {root}")
    workdir = tempfile.mkdtemp(prefix="cfckit-digest-")
    try:
        for name in args.workloads:
            for seed in args.seeds:
                wl = workloads.make(name, seed, workdir)
                for i in range(wl.size):
                    op = wl.op(i)
                    raw = op.call()
                    out = os.path.join(workdir, f"out-{i}.json")
                    print(f"{name} {seed} {i} {op.label} {digest(name, raw, out)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
