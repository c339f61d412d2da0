"""JSON wire formats: matrices, subalgebra bases and function specs."""

from __future__ import annotations

import json

import numpy as np

from .cfc import ScalarFunction, builtin_function
from .matrix_core import (
    StarSubalgebra,
    adjoint,
    as_matrix,
    fro_norm,
    identity,
    subalgebra_from_matrices,
)
from .oracle import StarPolynomial
from .scalars import ScalarRing


class FormatError(ValueError):
    """Malformed input file or spec; the message names the offending field."""


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    n = a.shape[0]
    return {
        "n": n,
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError("matrix object must be a JSON object with 'n' and 'entries'")
    if "n" not in obj:
        raise FormatError("matrix object missing field 'n'")
    if "entries" not in obj:
        raise FormatError("matrix object missing field 'entries'")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise FormatError("field 'n' must be a positive integer")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise FormatError(f"field 'entries' must hold exactly n^2 = {n * n} pairs")
    flat = np.array(_complex_pairs(entries, "entries"), dtype=np.complex128)
    try:
        return as_matrix(flat.reshape(n, n))
    except ValueError as exc:
        raise FormatError(f"field 'entries': {exc}") from exc


def _complex_pairs(pairs, field: str) -> list:
    """[re, im] pairs of numbers as complex numbers, or FormatError naming the
    first bad field[i]; one try around the whole loop keeps long files fast."""
    out = []
    try:
        for i, pair in enumerate(pairs):
            if type(pair) is not list or len(pair) != 2:
                raise TypeError("not a list of two")
            out.append(complex(float(pair[0]), float(pair[1])))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"field '{field}[{i}]' must be a pair of numbers ({exc})") from exc
    return out


def _read_json(path: str):
    """The JSON document in the file at path; FormatError if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def load_matrix(path: str) -> np.ndarray:
    try:
        return matrix_from_json(_read_json(path))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_basis(path: str, tol: float) -> StarSubalgebra:
    """Subalgebra basis file: {"unital": bool, "matrices": [matrix, ...]}
    or a bare JSON array of matrix objects (non-unital).  The span must be
    closed under the adjoint and products, and contain I when marked unital,
    within max(tol, 1e-8); else FormatError."""
    obj = _read_json(path)
    unital = False
    if isinstance(obj, dict):
        unital = bool(obj.get("unital", False))
        mats = obj.get("matrices")
        if mats is None:
            raise FormatError(f"{path}: basis object missing field 'matrices'")
    else:
        mats = obj
    if not isinstance(mats, list) or not mats:
        raise FormatError(f"{path}: field 'matrices' must be a nonempty array")
    matrices = []
    for i, m in enumerate(mats):
        try:
            matrices.append(matrix_from_json(m))
        except FormatError as exc:
            raise FormatError(f"{path}: matrices[{i}]: {exc}") from exc
    B = subalgebra_from_matrices(matrices, unital=unital, tol=tol)
    # the basis is orthonormal, so each residual is relative to ||x|| ||y||
    # (a product such as P Q = 0 may come out as rounding noise)
    n, bound = B.ambient_dim, max(tol, 1e-8)
    checks = [("does not contain I", [identity(n) / np.sqrt(n)] if unital else []),
              ("is not closed under the adjoint", (adjoint(b) for b in B.basis)),
              ("is not closed under products", (x @ y for x in B.basis for y in B.basis))]
    for failure, words in checks:
        for w in words:
            residual = fro_norm(w - B.project(w))
            if residual > bound:
                raise FormatError(f"{path}: the span of 'matrices' {failure} "
                                  f"(residual {residual:.3e} > {bound:.3e})")
    return B


def function_from_spec(spec: str, ring: ScalarRing) -> ScalarFunction:
    """Parse a function spec:  {"builtin": name[, "k": int][, "t": float]}
    | {"poly": [[re, im], ...]}  | {"poly2": [[k, m, re, im], ...]}, the
    exponents k and m of poly2 nonnegative integers."""
    try:
        obj = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise FormatError(f"function spec is not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FormatError("function spec must be a JSON object")
    if "builtin" in obj:
        k, t = obj.get("k"), obj.get("t")
        if k is not None and type(k) is not int:  # bool is not a JSON integer
            raise FormatError("field 'k' must be an integer")
        if t is not None and type(t) not in (int, float):
            raise FormatError("field 't' must be a number")
        try:
            return builtin_function(obj["builtin"], ring, k=k, t=t)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"field 'builtin': {exc}") from exc
    if "poly" in obj:
        coeffs = obj["poly"]
        if not isinstance(coeffs, list):
            raise FormatError("field 'poly' must be an array of [re, im] pairs")
        terms = [(d, 0, c) for d, c in enumerate(_complex_pairs(coeffs, "poly"))]
        return StarPolynomial(tuple(terms)).as_function(ring)
    if "poly2" in obj:
        rows = obj["poly2"]
        if not isinstance(rows, list):
            raise FormatError("field 'poly2' must be an array of [k, m, re, im] rows")
        for i, row in enumerate(rows):
            if not (type(row) is list and len(row) == 4
                    and all(type(e) is int and e >= 0 for e in row[:2])):
                raise FormatError(f"field 'poly2[{i}]' must be a [k, m, re, im] row "
                                  "with integers k, m >= 0")
        coeffs = _complex_pairs([row[2:] for row in rows], "poly2")
        terms = [(row[0], row[1], c) for row, c in zip(rows, coeffs)]
        try:
            return StarPolynomial(tuple(terms)).as_function(ring)
        except ValueError as exc:
            raise FormatError(f"field 'poly2': {exc}") from exc
    raise FormatError("function spec needs one of the fields 'builtin', 'poly', 'poly2'")


def dump_json(obj, out_path=None) -> str:
    text = json.dumps(obj, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return text
