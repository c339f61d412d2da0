"""The tools under tools/ import the package's private helpers by name, so
a renamed helper breaks them; each runs here on a small input and must exit
with code 0."""

import re
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


def test_output_digest_prints_one_line_per_op():
    """Every bit-for-bit claim compares this tool's lines between two
    checkouts: seed 3 of small-stream and laws makes 2,216 ops, each one
    `workload seed index label sha256` line, indexed in order."""
    run = subprocess.run([sys.executable, "tools/output_digest.py", ".", "--workloads",
                          "small-stream", "laws", "--seeds", "3"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 2216
    fields = [re.fullmatch(r"(small-stream|laws) 3 (\d+) \S+ [0-9a-f]{64}", line)
              for line in lines]
    assert all(fields), [line for line, m in zip(lines, fields) if not m][:3]
    for workload in ("small-stream", "laws"):
        indices = [int(m[2]) for m in fields if m[1] == workload]
        assert indices == list(range(len(indices))) and indices
