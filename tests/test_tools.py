"""The tools under tools/ import the package's private helpers by name, so
a renamed helper breaks them; each runs here on a small input and must exit
with code 0."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["tools/law_profile.py", ".", "--seeds", "3", "--repeats", "1"],
    ["tools/decompose_paths.py", ".", "--workloads", "laws", "--seeds", "3"],
    ["tools/call_stages.py", ".", "--repeats", "1", "--number", "10"],
], ids=lambda args: Path(args[0]).stem)
def test_tool_runs_on_this_checkout(args):
    run = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
