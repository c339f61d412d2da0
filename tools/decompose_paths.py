"""Print the paths the decomposition takes on each benchmark workload and
seed, so that a change to one of them can quote its traffic:

    python3 tools/decompose_paths.py CHECKOUT --workloads dense small-stream laws cli --seeds 3 5

It imports CHECKOUT/src/cfckit and CHECKOUT/bench/workloads.py (read only:
no bytecode is written), with one BLAS thread as bench/run.py has, wraps
eigen._decompose (wherever a module binds it), eigen._predicate_report,
eigen._commutator_residual, eigen._refined and eigen._eigh, and runs every op
of each workload and seed once, in order, as tools/output_digest.py does.  A
line reads `workload seed`, the workload's op count `ops` and these counts:

    real          decompositions over R and R>=0 (plans and is_nonneg)
    symmetric     those of a float64 input whose selfadjoint residual is
                  exactly 0, which take h = a + 0.0 and form no a + a*
    plans         decompositions over C (plans and the public predicates)
    certificates  commutator products formed, where h's eigenvectors leave
                  the backward error above tol
    rejected      plans the certificate rejected before any refinement
    refinements   calls of _refined (||d||_F above the diagonal cut)
    flagged       columns with ||d_j|| above the cut, over those calls
    groups        intervals of two or more flagged columns that no link
                  |c_ij| > cut / 2 of the compression c crosses, recomputed
                  here from c by that rule
    eigensolves   eigensolves inside _refined, one per group
    kept          groups whose columns _refined changed
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("dense", "small-stream", "laws", "cli")
COUNTS = ("real", "symmetric", "plans", "certificates", "rejected", "refinements", "flagged", "groups",
          "eigensolves", "kept")


def _groups(c, cut):
    """The intervals of two or more positions of c's rows that no link
    |c_ij| > cut / 2 crosses, the smallest such, in order."""
    link = np.abs(c) > cut / 2
    link |= link.T
    out, start, end = [], 0, 0
    for k in range(len(c)):
        end = max(end, k, *np.flatnonzero(link[k]).tolist())
        if end == k:
            if k > start:
                out.append(range(start, k + 1))
            start = k + 1
    return out


def _instrument(eigen, cfc_module, counts):
    """Wrap the decomposition's steps in eigen (and cfc's binding of
    _decompose) so that they add to counts."""
    decompose, commutator = eigen._decompose, eigen._commutator_residual
    refined, eigh = eigen._refined, eigen._eigh
    predicate_report = eigen._predicate_report
    complex_ring = eigen.ScalarRing.COMPLEX
    state = {"certified": False, "refined": False, "inside": False, "real": None}

    def counted_decompose(a, ring, tol, scale):
        if ring is not complex_ring:
            counts["real"] += 1
            state["real"] = a
            try:
                return decompose(a, ring, tol, scale)
            finally:
                state["real"] = None
        counts["plans"] += 1
        state.update(certified=False, refined=False)
        try:
            return decompose(a, ring, tol, scale)
        except eigen.NotNormal:
            counts["rejected"] += state["certified"] and not state["refined"]
            raise

    def counted_predicate_report(a, ah, tol, scale):
        report = predicate_report(a, ah, tol, scale)
        if a is state["real"]:
            counts["symmetric"] += a.dtype == np.float64 and report.residual == 0.0
        return report

    def counted_commutator(a, scale):
        counts["certificates"] += 1
        state["certified"] = True
        return commutator(a, scale)

    def counted_refined(u, au, lam, d, cut):
        counts["refinements"] += 1
        state["refined"] = True
        cols = np.flatnonzero((np.abs(d) ** 2).sum(0) > cut * cut)
        counts["flagged"] += len(cols)
        groups = _groups(u[:, cols].conj().T @ au[:, cols], cut) if len(cols) > 1 else []
        counts["groups"] += len(groups)
        before = u[:, cols].copy()
        state["inside"] = True
        try:
            return refined(u, au, lam, d, cut)
        finally:
            state["inside"] = False
            changed = (u[:, cols] != before).any(0)
            counts["kept"] += sum(bool(changed[list(g)].any()) for g in groups)

    def counted_eigh(h):
        counts["eigensolves"] += state["inside"]
        return eigh(h)

    eigen._decompose = cfc_module._decompose = counted_decompose
    eigen._predicate_report = counted_predicate_report
    eigen._commutator_residual = counted_commutator
    eigen._refined = counted_refined
    eigen._eigh = counted_eigh


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", help="a checkout with src/cfckit and bench/workloads.py")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args(argv)

    root = os.path.abspath(args.checkout)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import cfckit
    import workloads

    for module in (cfckit, workloads):
        if not os.path.abspath(module.__file__).startswith(root + os.sep):
            sys.exit(f"error: {module.__name__} imported from {module.__file__}, not {root}")
    counts = Counter()
    _instrument(importlib.import_module("cfckit.eigen"),
                importlib.import_module("cfckit.cfc"), counts)
    workdir = tempfile.mkdtemp(prefix="cfckit-paths-")
    try:
        for name in args.workloads:
            for seed in args.seeds:
                wl = workloads.make(name, seed, workdir)
                counts.clear()  # building a workload may plan its references
                for i in range(wl.size):
                    wl.op(i).call()
                cells = " ".join(f"{k}={counts[k]}" for k in COUNTS)
                print(f"{name} {seed} ops={wl.size} {cells}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
