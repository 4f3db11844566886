"""The tests and the benchmark need pytest and nothing else installed,
and the package imports only what it reads.

Every module in ``tests/`` and ``perfbench/`` imports only the standard
library, ``pytest``, ``oasiskg`` or a module beside it, so the whole
gate runs on any interpreter that has pytest.  Every name a module of
``src/oasiskg`` binds by an import, ``__future__`` features aside, is
read somewhere in that module.  ``oasiskg/__init__.py`` re-exports its
public names lazily, as strings in ``_EXPORTS``, not by importing them,
so it needs no exemption.  The extraction oracle imports nothing from
``oasiskg.trees``, whose walks it checks.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oasiskg"
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


def unread_imports(path: Path) -> list[str]:
    """The names ``path`` binds by an import, anywhere in it, that it
    never reads; ``from __future__`` features are no names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_package_modules_read_every_name_they_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unread = {path.name: unread_imports(path) for path in modules}
    assert {name: names for name, names in unread.items() if names} == {}


def test_unread_imports_names_only_unread_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import a.b, c as d\nfrom e import f, g as h, i\n"
        "def j(x: f) -> None:\n    import k\n    return a.b.x, k\n"
        "i = 1\n"
    )
    assert unread_imports(module) == ["d", "h", "i"]


def tree_imports(path: Path) -> list[str]:
    """What ``path`` imports from ``oasiskg.trees``, anywhere in it: the
    module itself or any name of it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("oasiskg.trees")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.startswith("oasiskg.trees"):
                found += [f"{node.module}.{a.name}" for a in node.names]
            elif node.module == "oasiskg":
                found += [f"oasiskg.{a.name}" for a in node.names if a.name == "trees"]
    return found


def test_tree_imports_reads_every_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import oasiskg.trees\nfrom oasiskg import trees, core\n"
        "from oasiskg.trees import state_chain\nfrom oasiskg.core import KnowledgeBase\n"
        "def f():\n    import oasiskg.trees as t\n"
    )
    assert sorted(tree_imports(module)) == [
        "oasiskg.trees", "oasiskg.trees", "oasiskg.trees", "oasiskg.trees.state_chain"
    ]


def test_the_extraction_oracle_imports_nothing_from_the_walk_it_checks():
    assert tree_imports(ROOT / "tests" / "extract_oracle.py") == []
