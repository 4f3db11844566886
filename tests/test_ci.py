"""The CI workflow against the files it must follow.

``.github/workflows/tests.yml`` names the benchmark's workloads in its
two smoke loops and the Python versions in its matrix by hand.  These
tests read it as text, with no YAML parser, next to ``BENCHMARK.json``
and ``pyproject.toml``, so a workload added, renamed or dropped, or a
raised ``requires-python`` floor, fails here and not only in a job that
no longer runs it.  Nothing is written.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def test_both_benchmark_smoke_loops_name_exactly_the_declared_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(w["name"] for w in declared["workloads"])
    loops = re.findall(r"^\s*for workload in ([^;\n]+); do$", WORKFLOW, re.MULTILINE)
    assert len(loops) == 2, loops
    for loop in loops:
        assert sorted(loop.split()) == names, loop


def test_the_python_matrix_includes_the_requires_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.MULTILINE)
    (matrix,) = re.findall(r"^\s*python-version:\s*\[([^\]]*)\]", WORKFLOW, re.MULTILINE)
    versions = [v.strip().strip("\"'") for v in matrix.split(",")]
    assert floor in versions, (floor, versions)
