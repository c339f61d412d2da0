"""JSON wire formats: matrices, subalgebra bases and function specs."""

from __future__ import annotations

import cmath
import json
from itertools import chain

import numpy as np

from .cfc import ScalarFunction, builtin_function
from .matrix_core import (
    MEMBERSHIP_FLOOR,
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
    return {
        "n": a.shape[0],
        "entries": a.astype(np.complex128).ravel().view(np.float64).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError("matrix object must be a JSON object with 'n' and 'entries'")
    if "n" not in obj:
        raise FormatError("matrix object missing field 'n'")
    if "entries" not in obj:
        raise FormatError("matrix object missing field 'entries'")
    n = obj["n"]
    if type(n) is not int or n < 1:  # bool is not a JSON integer
        raise FormatError("field 'n' must be a positive integer")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise FormatError(f"field 'entries' must hold exactly n^2 = {n * n} pairs")
    flat = _finite_pairs_array(entries)
    if flat is None:
        flat = np.array(_complex_pairs(entries, "entries"), dtype=np.complex128)
    if not np.count_nonzero(flat.imag):  # a real file stays real, as in cfc
        flat = flat.real.copy()
    return flat.reshape(n, n)  # finite entries and n >= 1: as_matrix would return it as it is


# json loads a number as an int or a float; true/false load as bool, a
# subclass of int that the exact type test leaves out.
_NUMBER_TYPES = frozenset((int, float))


def _number_pairs(pairs: list) -> bool:
    """Whether every item of pairs is a list of two JSON numbers; three
    passes in C, where the loop of _complex_pairs takes one in Python."""
    return (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= _NUMBER_TYPES)


def _finite_pairs_array(pairs: list):
    """[re, im] pairs as a complex128 array in one numpy pass, or None when
    some pair is not two JSON numbers finite as floats; _complex_pairs then
    decides, and names the first bad field (an int beyond the float range
    raises OverflowError here and there)."""
    if not _number_pairs(pairs):
        return None
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    except OverflowError:
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(np.complex128)


def _complex_pairs(pairs, field: str) -> list:
    """[re, im] pairs of finite JSON numbers as complex numbers, or FormatError
    naming the first bad field[i]; one try around the whole loop, and one
    finiteness pass after it (json reads NaN and Infinity as floats), keep
    long files fast."""
    out = []
    try:
        for i, pair in enumerate(pairs):
            if type(pair) is not list or len(pair) != 2:
                raise TypeError("not a list of two")
            re, im = pair
            if type(re) not in _NUMBER_TYPES or type(im) not in _NUMBER_TYPES:
                raise TypeError("not a pair of JSON numbers")
            out.append(complex(re, im))
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"field '{field}[{i}]' must be a pair of numbers ({exc})") from exc
    if not all(map(cmath.isfinite, out)):
        i = next(i for i, z in enumerate(out) if not cmath.isfinite(z))
        raise FormatError(f"field '{field}[{i}]' must be a pair of finite numbers")
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
    within max(tol, MEMBERSHIP_FLOOR); else FormatError."""
    obj = _read_json(path)
    unital = False
    if isinstance(obj, dict):
        unital = obj.get("unital", False)
        if type(unital) is not bool:
            raise FormatError(f"{path}: field 'unital' must be true or false")
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
    n, bound = B.ambient_dim, max(tol, MEMBERSHIP_FLOOR)
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
            return builtin_function(obj["builtin"], ring, k, t)
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


# Lists of [re, im] pairs stand in the document as this string and a
# number while the rest of it is laid out; a document that holds the
# string itself is laid out whole.
_PAIRS_MARK = "@cfckit-pairs-"
_QUOTED_MARK = json.dumps(_PAIRS_MARK)[:-1]


def _mark_pairs(obj, found: list, depth: int = 0):
    """obj with each nonempty list of [re, im] number pairs inside its dicts
    and lists replaced by a marker string, the lists appended to found in
    the order json.dumps meets them; the walk stops at a fixed depth and
    leaves what lies below it (a circular document included) to json."""
    if depth > 8:
        return obj
    if type(obj) is dict:
        return {k: _mark_pairs(v, found, depth + 1) for k, v in obj.items()}
    if type(obj) is list:
        if obj and _number_pairs(obj):
            found.append(obj)
            return f"{_PAIRS_MARK}{len(found) - 1}"
        return [_mark_pairs(v, found, depth + 1) for v in obj]
    return obj


def _pairs_text(pairs: list, indent: str) -> str:
    """json.dumps(pairs, indent=2) for a nonempty list of number pairs whose
    opening bracket stands on a line indented by indent: the C encoder
    writes "[[a, b], [c, d]]" and its two separators are laid out here
    (no number token holds a bracket, comma or space)."""
    outer, inner = indent + "  ", indent + "    "
    body = json.dumps(pairs)[2:-2]
    body = body.replace("], [", f"\n{outer}],\n{outer}[\n{inner}").replace(", ", f",\n{inner}")
    return f"[\n{outer}[\n{inner}{body}\n{outer}]\n{indent}]"


def _indent2(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte.  CPython's C encoder serves
    only indent=None, so the lists of number pairs (a matrix's entries, a
    spectrum's points) go through it, and the rest of the document through
    the Python encoder."""
    found = []
    text = json.dumps(_mark_pairs(obj, found), indent=2)
    if text.count(_QUOTED_MARK) != len(found):
        return json.dumps(obj, indent=2)
    pieces, start = [], 0
    for k, pairs in enumerate(found):
        mark = f'{_QUOTED_MARK}{k}"'
        at = text.index(mark, start)
        line = text[text.rfind("\n", 0, at) + 1:at]
        pieces += [text[start:at], _pairs_text(pairs, line[:len(line) - len(line.lstrip(" "))])]
        start = at + len(mark)
    pieces.append(text[start:])
    return "".join(pieces)


def dump_json(obj, out_path=None) -> str:
    """obj as indent-2 JSON, identical to json.dumps(obj, indent=2), and
    written with a final newline to out_path when one is given."""
    text = _indent2(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return text
