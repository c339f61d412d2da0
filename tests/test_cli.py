import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfckit.cli
import cfckit.io
from cfckit.io import (
    FormatError,
    dump_json,
    function_from_spec,
    load_basis,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
)
from cfckit.scalars import ScalarRing

MATRIX = {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 0.0]]}
NONNORMAL = {"n": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cfckit", *args],
        capture_output=True, text=True,
    )
    return proc


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MATRIX))
    return str(path)


@pytest.fixture
def nonnormal_file(tmp_path):
    path = tmp_path / "nn.json"
    path.write_text(json.dumps(NONNORMAL))
    return str(path)


def test_apply_sqrt_golden(matrix_file):
    proc = run_cli("apply", "--matrix", matrix_file,
                   "--fn", '{"builtin":"sqrt"}', "--ring", "nnreal")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["junk"] is False and out["reason"] is None
    assert out["matrix"]["n"] == 2
    assert out["matrix"]["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]


def test_apply_junk_exits_zero(nonnormal_file):
    proc = run_cli("apply", "--matrix", nonnormal_file,
                   "--fn", '{"builtin":"exp"}', "--ring", "complex")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["junk"] is True and out["reason"] == "predicate_failed"
    assert all(pair == [0.0, 0.0] for pair in out["matrix"]["entries"])


def test_apply_n_zero_condition(matrix_file):
    proc = run_cli("apply-n", "--matrix", matrix_file,
                   "--fn", '{"poly": [[1.0, 0.0], [1.0, 0.0]]}', "--ring", "real")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["junk"] is True and out["reason"] == "zero_condition_failed"


def test_spectrum_golden(matrix_file):
    proc = run_cli("spectrum", "--matrix", matrix_file, "--ring", "real")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out == {
        "ring": "real",
        "points": [[1.0, 0.0], [4.0, 0.0]],
        "multiplicities": [1, 1],
        "source": "eigen",
    }


def test_quasispectrum_golden(matrix_file):
    proc = run_cli("quasispectrum", "--matrix", matrix_file)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["points"] == [[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]]
    assert out["source"] == "unitization_quasi"


def test_quasispectrum_with_basis(tmp_path, matrix_file):
    basis = tmp_path / "basis.json"
    e11 = {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    basis.write_text(json.dumps([e11]))
    m = tmp_path / "e11.json"
    m.write_text(json.dumps(e11))
    proc = run_cli("quasispectrum", "--matrix", str(m), "--basis", str(basis))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["points"] == [[0.0, 0.0], [1.0, 0.0]]
    assert out["source"] == "intrinsic_quasi"


def _basis_file(tmp_path, obj):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_basis_files_must_span_a_star_subalgebra(tmp_path, matrix_file, rng):
    e11, e12, e22 = (matrix_to_json(np.eye(2)[:, [i]] @ np.eye(2)[[j], :])
                     for i, j in ((0, 0), (0, 1), (1, 1)))
    rejected = {
        "the adjoint": [e12],                    # E21 = E12* is not in the span
        "products": [e11, matrix_to_json(np.ones((2, 2)))],  # E11 J is not
        "contain I": {"unital": True, "matrices": [e11]},
    }
    for failure, obj in rejected.items():
        with pytest.raises(FormatError, match=failure):
            load_basis(_basis_file(tmp_path, obj), 1e-9)
    proc = run_cli("apply-n", "--matrix", matrix_file, "--fn", '{"builtin":"id"}',
                   "--basis", _basis_file(tmp_path, [e12]))
    assert proc.returncode == 1 and "adjoint" in proc.stderr
    assert load_basis(_basis_file(tmp_path, {"unital": True, "matrices": [e11, e22]}),
                      1e-9).dim == 2
    # spectral projections of a random unitary: P Q = 0 only up to rounding
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    projections = [matrix_to_json(u[:, k:k + 2] @ u[:, k:k + 2].conj().T) for k in (0, 2)]
    assert load_basis(_basis_file(tmp_path, projections), 1e-9).dim == 2


def test_eigensolver_failure_exits_one(matrix_file, monkeypatch, capsys):
    import cfckit.cli

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    for verb in ("spectrum", "quasispectrum", "unitize-info"):
        assert cfckit.cli.main([verb, "--matrix", matrix_file]) == 1
        assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, ring, report", [
    # over C the residual is the plan's backward error, here 1/sqrt(2)
    (NONNORMAL, "complex", "'normal' fails (residual 7.071e-01"),
    (NONNORMAL, "real", "'selfadjoint' fails (residual 1.414e+00"),
    (NONNORMAL, "nnreal", "'selfadjoint' fails (residual 1.414e+00"),
    ({"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}, "nnreal",
     "'nonneg' fails (residual 7.071e-01"),
])
def test_a_failed_predicate_prints_its_report(tmp_path, capsys, matrix, ring, report):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    assert cfckit.cli.main(["spectrum", "--matrix", str(path), "--ring", ring]) == 1
    assert capsys.readouterr().err == f"error: predicate {report}, tol 1.000e-09)\n"


def test_unitize_info(matrix_file):
    proc = run_cli("unitize-info", "--matrix", matrix_file)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["represented_dim"] == 4
    assert out["norm"] == pytest.approx(4.0)
    assert out["norm_via_map"] == pytest.approx(out["norm"], abs=1e-9)


def _unitize_info_in_process(tmp_path, n):
    import cfckit.cli

    a = np.diag(np.arange(1.0, n + 1.0))
    src, dst = tmp_path / "a.json", tmp_path / "out.json"
    src.write_text(json.dumps(matrix_to_json(a)))
    assert cfckit.cli.main(["unitize-info", "--matrix", str(src), "--out", str(dst)]) == 0
    return json.loads(dst.read_text())


def test_unitize_info_skips_the_map_above_its_byte_budget(tmp_path, monkeypatch):
    def no_kron(*args, **kwargs):
        raise AssertionError("the n^2 x n^2 map was built")

    monkeypatch.setattr(np, "kron", no_kron)
    out = _unitize_info_in_process(tmp_path, 48)
    assert out["norm_via_map"] is None
    assert out["norm"] == pytest.approx(48.0)
    assert out["represented_dim"] == 96


def test_unitize_info_builds_the_map_up_to_its_byte_budget(tmp_path, monkeypatch):
    import cfckit.cli

    monkeypatch.setattr(cfckit.cli, "uni_norm_via_map", lambda x: -1.0)  # no 65 MB map
    assert 16 * 45**4 <= cfckit.cli.MAP_BUDGET_BYTES < 16 * 46**4
    assert _unitize_info_in_process(tmp_path, 45)["norm_via_map"] == -1.0
    assert _unitize_info_in_process(tmp_path, 46)["norm_via_map"] is None


def test_check_laws_passing(matrix_file):
    proc = run_cli("check-laws", "--matrix", matrix_file, "--ring", "real",
                   "--trials", "3", "--seed", "0")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["failures"] == 0 and out["trials"] == 3
    assert "law" in proc.stderr  # human-readable table


def test_check_laws_deterministic(matrix_file):
    a = run_cli("check-laws", "--matrix", matrix_file, "--trials", "2", "--seed", "7")
    b = run_cli("check-laws", "--matrix", matrix_file, "--trials", "2", "--seed", "7")
    assert a.stdout == b.stdout


def test_check_laws_failure_exits_two(tmp_path):
    # non-diagonal input with an absurdly tight tolerance: the predicate
    # (exactly symmetric) passes but floating-point law residuals cannot
    m = tmp_path / "sym.json"
    m.write_text(json.dumps(
        {"n": 2, "entries": [[2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}))
    proc = run_cli("check-laws", "--matrix", str(m), "--ring", "real",
                   "--trials", "1", "--seed", "0", "--tol", "1e-300")
    assert proc.returncode == 2


def test_check_laws_accepts_what_its_plan_accepts(tmp_path):
    """a = h + k, k = -k^T of 4.5e-10: the selfadjoint residual 9.0e-10
    passes at tol 1e-9 and the commutator residual 1.27e-9 does not, so a
    range law that asked for normality again made the verb exit 1."""
    m = tmp_path / "barely.json"
    m.write_text(json.dumps(
        {"n": 2, "entries": [[1.0, 0.0], [4.5e-10, 0.0], [-4.5e-10, 0.0], [-1.0, 0.0]]}))
    proc = run_cli("check-laws", "--matrix", str(m), "--ring", "real", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failures"] == 0


def test_malformed_matrix_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "entries": [[1.0, 0.0]]}))
    proc = run_cli("spectrum", "--matrix", str(bad))
    assert proc.returncode == 1
    assert "entries" in proc.stderr


def test_predicate_failure_exits_one(nonnormal_file):
    proc = run_cli("spectrum", "--matrix", nonnormal_file)
    assert proc.returncode == 1


def test_out_flag_writes_file(tmp_path, matrix_file):
    dest = tmp_path / "result.json"
    proc = run_cli("spectrum", "--matrix", matrix_file, "--out", str(dest))
    assert proc.returncode == 0
    assert json.loads(dest.read_text())["points"] == [[1.0, 0.0], [4.0, 0.0]]


def test_matrix_json_round_trip_bit_exact(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = matrix_to_json(a)
    # through an actual JSON string, as the CLI would
    b = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(a, b)
    assert matrix_to_json(b) == obj


def test_a_real_matrix_file_stays_real():
    """Every imaginary part zero (-0.0 included) reads as float64, so the CLI
    runs the real predicate and symmetrization as cfc does on the same
    array; one nonzero imaginary part keeps the whole matrix complex."""
    real = {"n": 2, "entries": [[1.0, 0.0], [2, -0.0], [2.0, 0], [-3.5, 0.0]]}
    a = matrix_from_json(real)
    assert a.dtype == np.float64 and a.tolist() == [[1.0, 2.0], [2.0, -3.5]]
    assert matrix_to_json(a) == matrix_to_json(a.astype(complex))
    b = matrix_from_json({"n": 1, "entries": [[1.0, 5e-324]]})
    assert b.dtype == np.complex128 and b[0, 0].imag == 5e-324


def test_matrix_from_json_field_errors():
    with pytest.raises(FormatError, match="must be a JSON object"):
        matrix_from_json([[1.0, 0.0]])
    with pytest.raises(FormatError, match="'n'"):
        matrix_from_json({"entries": []})
    with pytest.raises(FormatError, match="missing field 'entries'"):
        matrix_from_json({"n": 1})
    with pytest.raises(FormatError, match=r"exactly n\^2 = 4 pairs"):
        matrix_from_json({"n": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(FormatError, match="entries"):
        matrix_from_json({"n": 1, "entries": [[1.0]]})
    with pytest.raises(FormatError, match=r"'entries\[0\]'"):
        matrix_from_json({"n": 1, "entries": [[None, 0]]})
    # a JSON string or boolean is not a number, even where float() takes it
    with pytest.raises(FormatError, match=r"'entries\[0\]'"):
        matrix_from_json({"n": 1, "entries": [["1.5", True]]})
    for bad in ("abc", {}, [1.0], 10**400, "1.5", "nan", True, False):
        with pytest.raises(FormatError, match=r"'entries\[1\]'"):
            matrix_from_json({"n": 2, "entries": [[1.0, 0.0], [bad, 0.0], [0.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(FormatError, match=r"'entries\[1\]'"):
            matrix_from_json({"n": 2, "entries": [[1.0, 0.0], [0.0, bad], [0.0, 0.0], [0.0, 1.0]]})
    assert matrix_from_json({"n": 1, "entries": [[2, -1]]})[0, 0] == 2 - 1j
    # json reads the literals NaN and Infinity as floats
    for bad in ("NaN", "Infinity", "-Infinity"):
        obj = json.loads(f'{{"n": 2, "entries": [[1, 0], [0, 0], [0, {bad}], [1, 0]]}}')
        with pytest.raises(FormatError, match=r"'entries\[2\]' must be a pair of finite"):
            matrix_from_json(obj)


@pytest.mark.parametrize("spec, field", [
    ('{"poly2": [[null, 0, 1, 0]]}', r"'poly2\[0\]'"),
    ('{"poly2": [[1, 0, 1, 0], [-1, 0, 1, 0]]}', r"'poly2\[1\]'"),
    ('{"poly2": [[1.7, 0, 1, 0]]}', r"'poly2\[0\]'"),
    ('{"poly2": [[1, true, 1, 0]]}', r"'poly2\[0\]'"),
    ('{"poly2": [[1, 0, "a", 0]]}', r"'poly2\[0\]'"),
    ('{"poly2": [[1, 0, 1]]}', r"'poly2\[0\]'"),
    ('{"poly2": [[1, 0, 1, 0], [1, 0, 2, 0]]}', "'poly2'"),
    ('{"poly": [[1, 0], [{}, 0]]}', r"'poly\[1\]'"),
    ('{"poly": [["x", 0]]}', r"'poly\[0\]'"),
    ('{"poly": [["nan", 0]]}', r"'poly\[0\]'"),
    ('{"poly": [[NaN, 0]]}', r"'poly\[0\]' must be a pair of finite numbers"),
    ('{"poly": [[1, 0], [0, Infinity]]}', r"'poly\[1\]' must be a pair of finite numbers"),
    ('{"poly2": [[0, 0, 1, 0], [1, 0, -Infinity, 0]]}',
     r"'poly2\[1\]' must be a pair of finite numbers"),
    ('{"poly": [[1, 0], [1, false]]}', r"'poly\[1\]'"),
    ('{"poly2": [[1, 0, "1.5", 0]]}', r"'poly2\[0\]'"),
    ('{"poly2": [[0, 0, 1, 0], [1, 0, 1, true]]}', r"'poly2\[1\]'"),
    ('{"poly": 3}', "'poly'"),
    ('{"poly2": 3}', "'poly2'"),
    ('{"builtin": "pow", "k": [2]}', "'k'"),
    ('{"builtin": "pow", "k": 2.5}', "'k'"),
    ('{"builtin": "pow"}', "'builtin'"),
    ('{"builtin": "rpow", "t": "a"}', "'t'"),
    ('{"builtin": "rpow"}', "'builtin'.*requires real exponent t"),
    ('{"builtin": "nope"}', "'builtin'"),
    ('{"neither": 1}', "'builtin', 'poly', 'poly2'"),
    ('[1]', "JSON object"),
    ('{', "valid JSON"),
])
def test_function_from_spec_field_errors(spec, field):
    with pytest.raises(FormatError, match=field):
        function_from_spec(spec, ScalarRing.COMPLEX)


def test_function_from_spec_accepts_its_three_forms():
    assert function_from_spec('{"builtin": "pow", "k": 3}', ScalarRing.REAL).eval(2.0) == 8.0
    assert function_from_spec('{"builtin": "rpow", "t": 0.5}',
                              ScalarRing.REAL).eval(4.0) == 2.0
    assert function_from_spec('{"poly": [[1, 0], [0, 2]]}',
                              ScalarRing.COMPLEX).eval(3.0) == 1 + 6j
    p2 = function_from_spec('{"poly2": [[1, 1, 1, 0], [0, 0, 2, 0]]}', ScalarRing.COMPLEX)
    assert p2.eval(1j) == 3.0  # z conj(z) + 2


@pytest.mark.parametrize("fn", ['{"poly": [[null, 0]]}', '{"builtin": "pow", "k": [2]}'])
def test_cli_reports_a_bad_function_field(matrix_file, fn):
    proc = run_cli("apply", "--matrix", matrix_file, "--fn", fn)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_env_var_overrides_tol(tmp_path, matrix_file):
    import os
    import subprocess as sp

    env = dict(os.environ, CFCKIT_TOL="1e-3")
    proc = sp.run([sys.executable, "-m", "cfckit", "spectrum",
                   "--matrix", matrix_file], capture_output=True, text=True, env=env)
    assert proc.returncode == 0


@pytest.mark.parametrize("flags, env, name", [
    (["--tol", "nan"], None, "--tol"),
    (["--tol", "-1"], None, "--tol"),
    (["--tol", "inf"], None, "--tol"),
    ([], "abc", "CFCKIT_TOL"),
    ([], "", "CFCKIT_TOL"),
    ([], "nan", "CFCKIT_TOL"),
    ([], "-1", "CFCKIT_TOL"),
])
def test_tolerances_must_be_finite_and_nonnegative(tmp_path, monkeypatch, capsys,
                                                   flags, env, name):
    """On diag(1, 2) a NaN or negative --tol used to print a junk
    predicate_failed result with exit 0, and a CFCKIT_TOL that is not a
    number gave a float() error that did not name it."""
    import cfckit.cli

    path = tmp_path / "d.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
    if env is not None:
        monkeypatch.setenv("CFCKIT_TOL", env)
    for verb in (["apply", "--fn", '{"builtin":"exp"}'], ["spectrum"]):
        assert cfckit.cli.main([*verb, "--matrix", str(path), *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {name} must be finite and >= 0")


def test_zero_tolerances_are_accepted(tmp_path, capsys):
    import cfckit.cli

    path = tmp_path / "d.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
    assert cfckit.cli.main(["spectrum", "--matrix", str(path),
                            "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["multiplicities"] == [1, 1]


def test_a_boolean_n_is_a_format_error(tmp_path, capsys):
    """bool is a subclass of int: n = true once passed the field check and
    escaped as a TypeError traceback from the reshape."""
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"n": True, "entries": [[1.0, 0.0]]}))
    assert cfckit.cli.main(["spectrum", "--matrix", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "field 'n'" in err


def test_matrix_and_basis_files_name_the_bad_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1,')
    with pytest.raises(FormatError, match="bad.json: invalid JSON"):
        load_matrix(str(bad))
    e11 = matrix_to_json(np.diag([1.0, 0.0]))
    rejected = [({"unital": False}, "missing field 'matrices'"),
                ({"matrices": []}, "'matrices' must be a nonempty array"),
                ([], "'matrices' must be a nonempty array"),
                ({"matrices": [e11, {"n": 2}]}, r"matrices\[1\]: matrix object missing field")]
    for obj, message in rejected:
        with pytest.raises(FormatError, match=message):
            load_basis(_basis_file(tmp_path, obj), 1e-9)


@pytest.mark.parametrize("unital", ["false", "true", 0, 1, None, [True]])
def test_basis_unital_must_be_a_json_boolean(tmp_path, unital):
    """"unital": "false" once read as bool("false"), a unital basis."""
    e11 = matrix_to_json(np.diag([1.0, 0.0]))
    with pytest.raises(FormatError, match="field 'unital'"):
        load_basis(_basis_file(tmp_path, {"unital": unital, "matrices": [e11]}), 1e-9)
    assert load_basis(_basis_file(tmp_path, {"unital": False, "matrices": [e11]}),
                      1e-9).unital is False
    assert load_basis(_basis_file(tmp_path, {"matrices": [e11]}), 1e-9).unital is False


def _written_documents(tmp_path, monkeypatch):
    """(document, text returned, file written) for every verb of main()."""
    written = []

    def recording(obj, out_path=None):
        text = dump_json(obj, out_path)
        with open(out_path) as fh:
            written.append((obj, text, fh.read()))
        return text

    monkeypatch.setattr(cfckit.cli, "dump_json", recording)
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    normal = tmp_path / "normal.json"
    normal.write_text(json.dumps(matrix_to_json(
        (u * (rng.standard_normal(5) + 1j * rng.standard_normal(5))) @ u.conj().T)))
    nonnormal = tmp_path / "nn.json"
    nonnormal.write_text(json.dumps(NONNORMAL))
    e11 = {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    e11_file = tmp_path / "e11.json"
    e11_file.write_text(json.dumps(e11))
    basis = _basis_file(tmp_path, [e11])
    out = str(tmp_path / "out.json")
    runs = [
        ["apply", "--matrix", str(normal), "--fn", '{"builtin":"exp"}'],
        ["apply-n", "--matrix", str(nonnormal), "--fn", '{"poly":[[0,0],[1,0]]}'],
        ["apply-n", "--matrix", str(e11_file), "--fn", '{"poly":[[0,0],[2,0]]}',
         "--basis", basis],
        ["spectrum", "--matrix", str(normal)],
        ["spectrum", "--matrix", str(e11_file), "--ring", "nnreal"],
        ["quasispectrum", "--matrix", str(normal)],
        ["quasispectrum", "--matrix", str(e11_file), "--basis", basis],
        ["check-laws", "--matrix", str(e11_file), "--trials", "2"],
        ["check-laws", "--ring", "real", "--trials", "2", "--seed", "3"],
        ["unitize-info", "--matrix", str(normal)],
    ]
    for argv in runs:
        assert cfckit.cli.main([*argv, "--out", out]) == 0
    monkeypatch.setattr(cfckit.cli, "MAP_BUDGET_BYTES", 0)
    assert cfckit.cli.main(["unitize-info", "--matrix", str(normal), "--out", out]) == 0
    return written


EXTREME_DOCUMENTS = [
    matrix_to_json(np.array([[-0.0, 5e-324], [1e300, -1e-300]])
                   + 1j * np.array([[5e-324, -0.0], [-1e300, 0.1]])),
    {"n": 1, "entries": [[2, -1]]},
    {"junk": True, "reason": None, "matrix": {"n": 1, "entries": [[0.0, 0.0]]}},
    [[1.0, 2.0], [2**64 + 1, -3]],
    {"x": [[float("nan"), float("inf")], [-float("inf"), 1e16]], "y": [[[1, 2]], []]},
    {"deep": [{"a": [{"b": {"c": {"d": {"e": {"f": {"g": [[1.5, 2.5]]}}}}}}]}]},
    {"tuple": [(1.0, 2.0)], "bool": [[True, 1.0]], "uneven": [[1.0], [2.0, 3.0]]},
    {"s": "@cfckit-pairs-0", "m": [[1.0, 2.0]]},
    {"@cfckit-pairs-0": [[1.0, 2.0]], "t": "a\"@cfckit-pairs-1\""},
    {1: [[1.0, 2.0]], "e": [], "o": {}},
]


def test_dump_json_is_json_dumps_indent_2(tmp_path, monkeypatch):
    """dump_json lays out what the C encoder writes of the number-pair
    lists; the result must be json.dumps(obj, indent=2) byte for byte."""
    written = _written_documents(tmp_path, monkeypatch)
    assert {type(obj.get("norm_via_map", 0)) for obj, _, _ in written} == {int, float, type(None)}
    assert any(obj.get("junk") for obj, _, _ in written)
    for obj, text, file_text in written:
        assert text == json.dumps(obj, indent=2)
        assert file_text == text + "\n"
    for obj in EXTREME_DOCUMENTS:
        assert dump_json(obj) == json.dumps(obj, indent=2)
    circular = {"m": [[1.0, 2.0]]}
    circular["self"] = circular
    with pytest.raises(ValueError, match="Circular"):
        dump_json(circular)


def _outcome(obj):
    """matrix_from_json(obj) as (dtype, shape, bytes), or its FormatError."""
    try:
        a = matrix_from_json(obj)
    except FormatError as exc:
        return str(exc)
    return a.dtype, a.shape, a.tobytes()


def _loop_outcome(obj):
    """_outcome with every pair read by the loop of _complex_pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cfckit.io, "_finite_pairs_array", lambda pairs: None)
        return _outcome(obj)


_NUMBERS = st.one_of(
    st.floats(), st.integers(-2**70, 2**70),
    st.sampled_from([2**64 + 1, -(2**64 + 1), 2**1023, 10**400, -10**400, True, False]))
_PAIRS = st.one_of(
    st.lists(_NUMBERS, min_size=2, max_size=2),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    st.lists(st.one_of(_NUMBERS, st.none(), st.text(max_size=2),
                       st.lists(st.floats(), max_size=2)), max_size=3),
    st.tuples(st.floats(), st.floats()))
_MATRICES = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "entries": st.lists(_PAIRS, min_size=n * n, max_size=n * n)}))


@settings(max_examples=300, deadline=None)
@given(_MATRICES)
@example({"n": 1, "entries": [[1.0, float("nan")]]})
def test_fast_parser_accepts_what_the_loop_accepts(obj):
    """The numpy pass of matrix_from_json gives the loop's array bit for bit,
    and leaves every input the loop rejects to it, message and all; either
    way the array is float64 iff every imaginary part is zero."""
    out = _outcome(obj)
    assert out == _loop_outcome(obj)
    if not isinstance(out, str):
        real = all(im == 0 for _, im in obj["entries"])
        assert out[0] == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("entries, accepted", [
    ([[1.0], [2.0, 3.0, 4.0], [1.0, 0.0], [0.0, 1.0]], "entries[0]"),
    ([(1.0, 2.0), [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], "entries[0]"),
    ([[1.0, 0.0], [2**64 + 1, 0.5], [0.0, -0.0], [5e-324, 1]], True),
    ([[1.0, 0.0], [0.0, 0.0], [10**400, 0.0], [0.0, 1.0]], "entries[2]"),
    ([[1.0, 0.0], [True, 1.0], [0.0, 0.0], [0.0, 1.0]], "entries[1]"),
])
def test_fast_parser_named_cases(entries, accepted):
    """Inputs a count of numbers alone would take: the numpy pass must
    accept the valid one and leave the others to the loop."""
    obj = {"n": 2, "entries": entries}
    fast = cfckit.io._finite_pairs_array(entries)
    if accepted is True:
        assert fast is not None
        a = matrix_from_json(obj)
        assert a[0, 1] == complex(2**64 + 1, 0.5) and np.signbit(a[1, 0].imag)
    else:
        assert fast is None
        with pytest.raises(FormatError, match=re.escape(f"'{accepted}'")):
            matrix_from_json(obj)
    assert _outcome(obj) == _loop_outcome(obj)


def test_one_parser_serves_many_main_calls(tmp_path, monkeypatch, capsys):
    """main() parses with one parser per process: each call of a sequence
    writes what it writes after a fresh parser, with no option or
    environment value left over from the call before."""
    a = tmp_path / "a.json"
    a.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
    skew = tmp_path / "skew.json"   # symmetric to within 6e-9 relative
    skew.write_text(json.dumps(matrix_to_json(np.array([[1.0, 1e-8], [0.0, 2.0]]))))
    off = _basis_file(tmp_path, [matrix_to_json(np.diag([1.0, 0.0]))])  # a is not in it
    fn = ["--fn", '{"poly":[[0,0],[1,0]]}']
    runs = [
        (["apply-n", "--matrix", str(a), *fn, "--basis", off], None),
        (["apply-n", "--matrix", str(a), *fn], None),
        (["spectrum", "--matrix", str(skew), "--ring", "real", "--tol", "1e-6"], None),
        (["spectrum", "--matrix", str(skew), "--ring", "real"], None),
        (["spectrum", "--matrix", str(skew), "--ring", "real"], "1e-6"),
        (["spectrum", "--matrix", str(skew), "--ring", "real"], None),
    ]

    def call(argv, env):
        if env is None:
            monkeypatch.delenv("CFCKIT_TOL", raising=False)
        else:
            monkeypatch.setenv("CFCKIT_TOL", env)
        rc = cfckit.cli.main(argv)
        return (rc, *capsys.readouterr())

    cfckit.cli._parser.cache_clear()
    warm = [call(*run) for run in runs]
    assert cfckit.cli._parser.cache_info()[:2] == (len(runs) - 1, 1)  # hits, misses
    fresh = []
    for run in runs:
        cfckit.cli._parser.cache_clear()
        fresh.append(call(*run))
    assert warm == fresh
    assert [rc for rc, _, _ in warm] == [1, 0, 0, 1, 0, 1]
