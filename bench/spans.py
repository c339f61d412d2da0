"""Per-layer tracing for the traced run.

The public functions of each layer are wrapped as they are bound in the
modules that call them (cfckit.cfc's `predicate_for_ring`, cfckit.oracle's
`cfc`, ...), so a count or a time belongs to the caller's view of the layer.
Spans live in memory and are written out once the run ends.  A span's self
time is its duration minus the time of the spans it caused; a layer's time
is the self time of its spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter_ns

PRED = "matrix_core.predicate"
SUB = "matrix_core.subalgebra"
OPNORM = "matrix_core.opnorm"
DECOMP = "eigen.decompose"
CLUSTER = "eigen.cluster"
EVAL = "cfc.eval"
CFC = "cfc.self"
SPECTRUM = "spectrum.spectrum"
QUASI = "spectrum.quasispectrum"
LAWS = "oracle.check_laws"
ORACLE = "oracle.cfc_oracle"
UNORM = "unitization.norm"
UREP = "unitization.represent"
PARSE = "io.parse"
SERIAL = "io.serialize"
CLI = "cli.self"

# (module, attribute as bound there, span key)
SPANS = [
    ("cfckit.cfc", "predicate_for_ring", PRED),
    ("cfckit.spectrum", "predicate_for_ring", PRED),
    ("cfckit.matrix_core", "predicate_for_ring", PRED),
    ("cfckit.matrix_core", "is_star_normal", PRED),
    ("cfckit.matrix_core", "is_selfadjoint", PRED),
    ("cfckit.matrix_core", "is_nonneg", PRED),
    ("cfckit.eigen", "is_star_normal", PRED),
    ("cfckit.eigen", "is_selfadjoint", PRED),
    ("cfckit.oracle", "is_star_normal", PRED),
    ("cfckit.oracle", "elemental_subalgebra", SUB),
    ("cfckit.oracle", "subalgebra_contains", SUB),
    ("cfckit.io", "subalgebra_from_matrices", SUB),
    ("cfckit.matrix_core", "StarSubalgebra.contains", SUB),
    ("cfckit.oracle", "operator_norm", OPNORM),
    ("cfckit.unitization", "operator_norm", OPNORM),
    ("cfckit.cfc", "hermitian_eigen", DECOMP),
    ("cfckit.cfc", "normal_spectral_decomposition", DECOMP),
    ("cfckit.spectrum", "normal_spectral_decomposition", DECOMP),
    ("cfckit.cfc", "cluster_with_labels", CLUSTER),
    ("cfckit.spectrum", "cluster_eigenvalues", CLUSTER),
    ("cfckit.eigen", "cluster_with_labels", CLUSTER),
    ("cfckit.cfc", "_spectral_values", EVAL),
    ("cfckit.cfc", "_eval_at", EVAL),
    ("cfckit", "cfc", CFC),
    ("cfckit", "cfc_n", CFC),
    ("cfckit", "cfc_builtin", CFC),
    ("cfckit", "pos_part", CFC),
    ("cfckit", "neg_part", CFC),
    ("cfckit.cfc", "cfc", CFC),
    ("cfckit.cfc", "cfc_n", CFC),
    ("cfckit.oracle", "cfc", CFC),
    ("cfckit.cli", "cfc", CFC),
    ("cfckit.cli", "cfc_n", CFC),
    ("cfckit.oracle", "spectrum", SPECTRUM),
    ("cfckit.cli", "spectrum", SPECTRUM),
    ("cfckit.cli", "quasispectrum_intrinsic", QUASI),
    ("cfckit.cli", "quasispectrum_via_unitization", QUASI),
    ("cfckit.spectrum", "is_quasiregular", QUASI),
    ("cfckit", "check_laws", LAWS),
    ("cfckit.cli", "check_laws", LAWS),
    ("cfckit.oracle", "cfc_oracle", ORACLE),
    ("cfckit.oracle", "poly_eval", ORACLE),
    ("cfckit.oracle", "lagrange_interpolant", ORACLE),
    ("cfckit.cli", "uni_norm", UNORM),
    ("cfckit.cli", "uni_norm_via_map", UNORM),
    ("cfckit.cli", "uni_represent", UREP),
    ("cfckit.spectrum", "uni_represent", UREP),
    ("cfckit.cli", "load_matrix", PARSE),
    ("cfckit.cli", "load_basis", PARSE),
    ("cfckit.cli", "function_from_spec", PARSE),
    ("cfckit.cli", "matrix_to_json", SERIAL),
    ("cfckit.cli", "dump_json", SERIAL),
    ("cfckit.cli", "main", CLI),
]

# (module, attribute as bound there, counter): counted, no span
COUNTS = [
    *[(m, "as_matrix", "matrix_core.as_matrix_calls")
      for m in ("cfckit.matrix_core", "cfckit.eigen", "cfckit.cfc", "cfckit.oracle",
                "cfckit.spectrum", "cfckit.io", "cfckit.unitization")],
    ("numpy.linalg", "eigh", "eigen.eigensolves"),
    ("numpy.linalg", "eigvalsh", "eigen.eigensolves"),
    ("cfckit.oracle", "cfc", "oracle.cfc_calls"),
    ("cfckit.cfc", "_eval_at", "cfc.evals"),
]


def _clusters(result, args):
    spec = result[0] if isinstance(result, tuple) else result
    return "eigen.clusters", spec.size


def _bytes_read(result, args):
    return "io.bytes_read", os.path.getsize(args[0])


def _bytes_written(result, args):
    return "io.bytes_written", len(result) + 1  # the file or stdout gets a newline too


# values recorded from outermost spans of a key
MEASURES = {CLUSTER: _clusters, "cfckit.cli.load_matrix": _bytes_read,
            "cfckit.cli.load_basis": _bytes_read, "cfckit.cli.dump_json": _bytes_written}

# per-layer metric -> (unit, how it is read from the tracer)
METRICS = {
    "matrix_core.predicate_ms": ("ms", ("self", PRED)),
    "matrix_core.predicate_calls": ("count", ("outer", PRED)),
    "matrix_core.as_matrix_calls": ("count", ("count", "matrix_core.as_matrix_calls")),
    "matrix_core.subalgebra_ms": ("ms", ("self", SUB)),
    "matrix_core.opnorm_ms": ("ms", ("self", OPNORM)),
    "eigen.decompose_ms": ("ms", ("self", DECOMP)),
    "eigen.cluster_ms": ("ms", ("self", CLUSTER)),
    "eigen.clusters": ("count", ("value", "eigen.clusters")),
    "eigen.eigensolves": ("count", ("count", "eigen.eigensolves")),
    "cfc.eval_ms": ("ms", ("self", EVAL)),
    "cfc.evals": ("count", ("count", "cfc.evals")),
    "cfc.self_ms": ("ms", ("self", CFC)),
    "spectrum.spectrum_ms": ("ms", ("self", SPECTRUM)),
    "spectrum.quasispectrum_ms": ("ms", ("self", QUASI)),
    "oracle.check_laws_self_ms": ("ms", ("self", LAWS)),
    "oracle.cfc_oracle_ms": ("ms", ("self", ORACLE)),
    "oracle.cfc_calls": ("count", ("count", "oracle.cfc_calls")),
    "unitization.norm_ms": ("ms", ("self", UNORM)),
    "unitization.represent_ms": ("ms", ("self", UREP)),
    "io.parse_ms": ("ms", ("self", PARSE)),
    "io.serialize_ms": ("ms", ("self", SERIAL)),
    "io.bytes_read": ("bytes", ("value", "io.bytes_read")),
    "io.bytes_written": ("bytes", ("value", "io.bytes_written")),
    "cli.self_ms": ("ms", ("self", CLI)),
}


class Tracer:
    """Collects spans and counts while `active`; `op` tags the current op."""

    def __init__(self):
        self.active = False
        self.keep = True          # store span records (first pass only)
        self.op = -1
        self.stack = []           # open spans: [key, start, child_ns, id]
        self.next_id = 0
        self.records = []
        self.self_ns = defaultdict(int)
        self.outer = defaultdict(int)
        self.counts = defaultdict(int)
        self.values = defaultdict(float)
        self.missing = []
        self._undo = []

    def span(self, key, binding, fn):
        measure = MEASURES.get(key) or MEASURES.get(binding)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outer = all(frame[0] != key for frame in self.stack)
            parent = self.stack[-1][3] if self.stack else None
            frame = [key, perf_counter_ns(), 0, self.next_id]
            self.next_id += 1
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                duration = end - frame[1]
                self.self_ns[key] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                if outer:
                    self.outer[key] += 1
                if self.keep:
                    self.records.append((self.op, frame[3], parent, key, binding,
                                         frame[1], end))
            if outer and measure is not None:
                name, value = measure(result, args)
                self.values[name] += value
            return result

        return wrapper

    def count(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for module, attr, key in SPANS:
            self._patch(module, attr, lambda fn, b, k=key: self.span(k, b, fn))
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, b, n=name: self.count(n, fn))

    def _patch(self, module, attr, make):
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        binding = f"{module}.{attr}"
        if fn is None:
            self.missing.append(binding)
            return
        setattr(owner, leaf, make(fn, binding))
        self._undo.append((owner, leaf, fn))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    def metrics(self, ops: int) -> dict:
        out = {}
        for name, (unit, (kind, key)) in METRICS.items():
            if kind == "self":
                value = self.self_ns[key] / 1e6
            elif kind == "outer":
                value = self.outer[key]
            elif kind == "count":
                value = self.counts[key]
            else:
                value = self.values[key]
            out[name] = {"value": value / ops, "unit": unit}
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for op, sid, parent, key, binding, start, end in self.records:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "key": key,
                                     "binding": binding, "start_ns": start,
                                     "end_ns": end}) + "\n")

