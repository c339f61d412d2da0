import contextlib
import dataclasses
import inspect
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import cfckit
import cfckit.cli
from cfckit.cfc import CfcOutcome
from cfckit.matrix_core import PredicateReport
from cfckit.oracle import LawEntry, LawReport
from cfckit.scalars import ScalarRing
from cfckit.spectrum import QuasiregularWitness, SpectrumResult


def test_exports_resolve_once_and_take_no_cluster_tol():
    """Every name in cfckit.__all__ resolves and is listed once, and no
    exported callable takes a cluster_tol: the cluster scale is derived from
    ||a||_F."""
    assert len(cfckit.__all__) == len(set(cfckit.__all__))
    for name in cfckit.__all__:
        obj = getattr(cfckit, name)
        if callable(obj):
            assert "cluster_tol" not in inspect.signature(obj).parameters, name


def test_library_import_loads_no_wire_or_cli_modules():
    """Importing cfckit, which a fresh process's setup time measures, loads
    neither the JSON wire formats, the CLI, the samplers nor their standard
    modules, nor the law checker, the spectra and the unitization, whose
    names load them on first use."""
    unwanted = ["cfckit.io", "cfckit.cli", "cfckit.sampling", "argparse", "json",
                "cfckit.oracle", "cfckit.spectrum", "cfckit.unitization"]
    probe = f"import sys, cfckit; print([m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_export_resolves_to_its_module_in_a_fresh_interpreter():
    """In a fresh interpreter, every name in __all__ resolves through the
    lazy loader to the object its module defines, dir() lists it, and
    `from cfckit import *` binds all of them, also after the CLI has loaded
    the module `cfckit.spectrum`, whose function keeps the name."""
    probe = """
import importlib, sys
import cfckit
import cfckit.cli
ns = {}
exec("from cfckit import *", ns)
missing = [n for n in cfckit.__all__ if n not in ns or n not in dir(cfckit)]
homes = {}
for name in cfckit.__all__:
    obj = getattr(cfckit, name)
    home = sys.modules[getattr(obj, "__module__", "")]
    if getattr(home, name) is not obj or ns[name] is not obj:
        homes[name] = home.__name__
print(missing, homes, callable(cfckit.spectrum), cfckit.cfc.__module__)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] {} True cfckit.cfc"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cfckit.not_a_name


def test_lazy_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    """After a bare `import cfckit`, cfckit.oracle and cfckit.unitization are
    the submodules, as when the package imported them eagerly, while
    cfckit.spectrum stays the function."""
    probe = """
import types
import cfckit
print(cfckit.oracle.__name__, cfckit.unitization.__name__,
      isinstance(cfckit.spectrum, types.ModuleType), cfckit.oracle.check_laws is cfckit.check_laws)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "cfckit.oracle cfckit.unitization False True"


# What LawReport.to_dict() and table() gave for this report before the result
# records were slotted, byte for byte.
_REPORT = LawReport((
    LawEntry("junk_totality", 0.0, 0.5, True),
    LawEntry("add", 1.4466308495191563e-16, 1.393202075119481e-08, True),
    LawEntry("id", 2.5e-09, 1e-09, False),
    LawEntry("negation", 0.0, 0.0, True, skipped=True, note="not applicable over nnreal"),
))
_REPORT_JSON = (
    '{"all_passed": false, "laws": [{"name": "junk_totality", "residual": 0.0, "tolerance": 0.5, '
    '"passed": true, "skipped": false, "note": null}, {"name": "add", "residual": '
    '1.4466308495191563e-16, "tolerance": 1.393202075119481e-08, "passed": true, "skipped": '
    'false, "note": null}, {"name": "id", "residual": 2.5e-09, "tolerance": 1e-09, "passed": '
    'false, "skipped": false, "note": null}, {"name": "negation", "residual": 0.0, "tolerance": '
    '0.0, "passed": true, "skipped": true, "note": "not applicable over nnreal"}]}')
_REPORT_TABLE = (
    "law                        residual    tolerance  status\n"
    "junk_totality             0.000e+00    5.000e-01  pass\n"
    "add                       1.447e-16    1.393e-08  pass\n"
    "id                        2.500e-09    1.000e-09  FAIL\n"
    "negation                  0.000e+00    0.000e+00  SKIP")


@pytest.mark.parametrize("record, field, value", [
    (CfcOutcome(np.eye(1, dtype=complex), False), "reason", "eval_failed"),
    (PredicateReport("normal", True, 1e-17, 1e-9), "holds", False),
    (LawEntry("add", 1e-16, 1e-9, True), "note", "a note"),
    (_REPORT, "entries", ()),
    (SpectrumResult(ScalarRing.REAL, (1.0, 2.0), (1, 1), "eigen"), "source", "intrinsic_quasi"),
    (QuasiregularWitness(np.zeros((1, 1), dtype=complex), 0.0), "residual", 1e-12),
])
def test_result_records_are_slotted_and_keep_replace_asdict_and_eq(record, field, value):
    """Result records are slotted dataclasses: no instance dict, and
    dataclasses.replace, asdict and == work as they did when they were
    frozen."""
    assert not hasattr(record, "__dict__")
    changed = dataclasses.replace(record, **{field: value})
    assert getattr(changed, field) == value
    assert type(changed) is type(record)
    as_dict = dataclasses.asdict(record)
    assert list(as_dict) == [f.name for f in dataclasses.fields(record)]
    assert dataclasses.asdict(changed)[field] == value
    assert dataclasses.replace(record) == record
    assert not changed == record


def test_law_report_json_and_check_laws_output_are_unchanged(tmp_path, monkeypatch):
    """LawReport.to_dict(), table() and the check-laws JSON file read the
    same bytes as before the records were slotted."""
    assert json.dumps(_REPORT.to_dict()) == _REPORT_JSON
    assert _REPORT.table() == _REPORT_TABLE
    matrix = tmp_path / "a.json"
    matrix.write_text(json.dumps({"n": 1, "entries": [[2.0, 0.0]]}))
    out = tmp_path / "out.json"
    monkeypatch.setattr(cfckit.cli, "check_laws", lambda *args: _REPORT)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cfckit.cli.main(["check-laws", "--matrix", str(matrix), "--trials", "2",
                              "--out", str(out)])
    assert rc == 2
    trials = [{"trial": i, **json.loads(_REPORT_JSON)} for i in range(2)]
    assert out.read_text() == json.dumps(
        {"trials": 2, "failures": 2, "results": trials}, indent=2) + "\n"
