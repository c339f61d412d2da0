import inspect
import subprocess
import sys

import cfckit


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
    modules."""
    unwanted = ["cfckit.io", "cfckit.cli", "cfckit.sampling", "argparse", "json"]
    probe = f"import sys, cfckit; print([m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
