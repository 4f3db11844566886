"""The tests and the benchmark need pytest and nothing else installed.

Every module in ``tests/`` and ``perfbench/`` imports only the standard
library, ``pytest``, ``oasiskg`` or a module beside it, so the whole
gate runs on any interpreter that has pytest.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = frozenset(sys.stdlib_module_names) | {"pytest", "oasiskg"}


def imported(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("folder", ["tests", "perfbench"])
def test_modules_import_only_the_standard_library_pytest_and_oasiskg(folder):
    modules = sorted((ROOT / folder).glob("*.py"))
    siblings = {path.stem for path in modules}
    foreign = {
        path.name: sorted(imported(path) - ALLOWED - siblings) for path in modules
    }
    assert {name: found for name, found in foreign.items() if found} == {}


def test_imported_reads_every_import_statement(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import a.b, c\nfrom d.e import f\nfrom . import g\n"
        "def h():\n    import i\n"
    )
    assert imported(module) == {"a", "c", "d", "i"}
