import json
import subprocess
import sys

import numpy as np
import pytest

from cfckit.io import (
    FormatError,
    function_from_spec,
    load_basis,
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


def test_matrix_from_json_field_errors():
    with pytest.raises(FormatError, match="'n'"):
        matrix_from_json({"entries": []})
    with pytest.raises(FormatError, match="entries"):
        matrix_from_json({"n": 1, "entries": [[1.0]]})
    with pytest.raises(FormatError, match=r"'entries\[0\]'"):
        matrix_from_json({"n": 1, "entries": [[None, 0]]})
    for bad in ("abc", {}, [1.0], 10**400):
        with pytest.raises(FormatError, match=r"'entries\[1\]'"):
            matrix_from_json({"n": 2, "entries": [[1.0, 0.0], [bad, 0.0], [0.0, 0.0], [0.0, 1.0]]})


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
    ('{"poly": 3}', "'poly'"),
    ('{"builtin": "pow", "k": [2]}', "'k'"),
    ('{"builtin": "pow", "k": 2.5}', "'k'"),
    ('{"builtin": "pow"}', "'builtin'"),
    ('{"builtin": "rpow", "t": "a"}', "'t'"),
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
