"""Single-sourcing rules for the package's modules, one table row each.

A row's pattern may match a line only in its allowed places in
``src/oasiskg``: a module, or one top-level function of a module, named
``module.py:function``.  A matching line anywhere else fails the row with
its message.  Patterns are matched line by line, as ``grep -E`` does.
Each row carries an example line its pattern must match, so a row whose
pattern has drifted to match nothing fails too.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

from oasiskg.core import KnowledgeBase

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oasiskg"
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"

# (rule, pattern, allowed modules, message, an example line it forbids)
GUARDS = [
    # every other module imports vocab's constants, so no IRI is
    # rebuilt from a string that could drift from the table; inside
    # vocab.py each name is spelled once too, in the _c or _p call
    # that declares it and binds its constant
    (
        "Vocabulary names spelled only in vocab.py",
        r'term\("|CLASSES\["',
        ("vocab.py",),
        "build vocabulary IRIs in vocab.py and import them",
        'AGENT = vocab.term("Agent")',
    ),
    # trees.link_procedures and trees.link_states write the procedure
    # and state chains for the builder and the engine alike; the
    # validator checks them and vocab declares them
    (
        "Chain edges named only in trees.py",
        r"\b(CONSISTS_OF_PROCEDURE|HAS_NEXT_PROCEDURE|PROC_CONSISTS_[A-Z_]+"
        r"|HAS_NEXT_NON_TERMINATING|HAS_FINAL_STATE)\b",
        ("trees.py", "validator.py", "vocab.py"),
        "write procedure and state chains through trees.py",
        "kb.assert_property(process, CONSISTS_OF_PROCEDURE, first)",
    ),
    # a record's edge lists and the literal buckets are core's layout;
    # every other module reads the store through objects, subjects,
    # entails, edges and in_edges, or a record's edges property
    (
        "Store indexes read only in core.py",
        r"\._(out|in|literal_in)\b",
        ("core.py",),
        "read the store through KnowledgeBase's lookups",
        "for a in rec._out:",
    ),
    # KnowledgeBase.query sorts every match; the package reads the
    # store's buckets in insertion order instead, and query serves
    # tests and perfbench's tracer
    (
        "Sorting matcher called only outside the package",
        r"\.query\(",
        (),
        "read the store through edges, in_edges, objects or subjects, not query",
        "matches = kb.query(predicate=RDF_TYPE)",
    ),
    # terms.Assertion.sort_key defines the canonical order once;
    # export_canonical sorts plain rows equal to those keys, with no
    # key function, and tests/test_export_oracle.py holds it to the
    # export that sorted by the key; only core's query sorts by it
    (
        "Assertions sorted by key only in core.py",
        r"Assertion\.sort_key",
        ("core.py",),
        "sort by the canonical order through plain rows, as rdfio.export_canonical does",
        "rows.sort(key=Assertion.sort_key)",
    ),
    # trees.tree_rows reads each node's record and children in one
    # pass, in the child predicates' order, for every walk, clone,
    # pairing and mirror check; vocab declares the predicates
    (
        "Tree edges read only in trees.py",
        r"\bCHILD_PREDICATES\b",
        ("trees.py", "vocab.py"),
        "read a node's tree edges through trees.tree_rows",
        "for predicate in CHILD_PREDICATES:",
    ),
    # the store records whatever it is given; the validator alone reads a
    # property's endpoint layers and classes, into its check rows, and
    # vocab declares them
    (
        "Endpoint constraints read only in validator.py",
        r"\b(subject_layer|object_layer|subject_classes|object_classes)\b",
        ("validator.py", "vocab.py"),
        "check endpoint constraints in validator.py",
        "if spec.subject_layer is not None:",
    ),
    # the pass tests each edge against its property's check row, and
    # validator.constraint_problem words every failure from that row, so
    # a fast test can decide pass or fail but cannot fork a message
    (
        "Endpoint-constraint messages spelled only in validator.constraint_problem",
        r'"(subject|object) must be',
        ("validator.py:constraint_problem",),
        "word endpoint-constraint failures through validator.constraint_problem",
        'return f"subject must be a {names}"',
    ),
    # validator.check_capability and validator.capability_gap read an
    # agent's own and role-provided behaviours in one scan; builder
    # writes those edges and vocab declares them
    (
        "Capability read only in validator.py",
        r"\b(HAS_BEHAVIOUR|PROVIDES_BEHAVIOUR)\b",
        ("builder.py", "validator.py", "vocab.py"),
        "decide capability in validator.py",
        "owned = kb.objects(agent, HAS_BEHAVIOUR)",
    ),
    # builder writes a task's elements one row of vocab.TREE_SHAPE at
    # a time, so the task edges are named only where vocab declares
    # them and where concurrency reads them to extract a run's steps
    (
        "Task elements written from the tree shape",
        r"\bHAS_TASK_(OPERATOR|OPERATOR_ARGUMENT|OBJECT|INPUT_PARAMETER|OUTPUT_PARAMETER)\b",
        ("vocab.py", "concurrency.py"),
        "write a task's elements from vocab.TREE_SHAPE",
        "kb.assert_property(task, HAS_TASK_OPERATOR, operator)",
    ),
    # the journal lists what changed since the last clean pass; core
    # appends to it, validate resets it, and engine._certify alone
    # clears an engine call's own entries, when the call began on a
    # clean graph and cloned only canonical nodes
    (
        "Change journal reset only by the store, validate and the engine's certification",
        r"\.journal\s*=[^=]|\.journal\.clear\(|\bdel\b.*\.journal\b",
        ("core.py", "validator.py", "engine.py:_certify"),
        "leave the journal to core, validator.validate and engine._certify",
        "kb.journal = []",
    ),
    # the journal is read where it is decided: core writes it, validate
    # chooses its pass from it, and the engine whether its own writes
    # leave a clean graph clean; run checks the graph it would write
    # through validate, which after a certified run re-reads nothing
    (
        "Change journal read only in core, validator and engine",
        r"\.journal\b",
        ("core.py", "validator.py", "engine.py"),
        "leave the change journal to core, validator and engine",
        "clean = kb.journal == []",
    ),
    # terms.Frozen compiles a frozen record's __init__ from its
    # __slots__ and _defaults, storing each field through its slot
    # descriptor; a hand-written constructor spells every field again,
    # past the refusing __setattr__
    (
        "Frozen records take the compiled __init__",
        r"\bset_field\b|object\.__setattr__\(",
        (),
        "declare a frozen record's fields in __slots__ and _defaults",
        'set_field(self, "name", name)',
    ),
    # KnowledgeBase.load, the store's one insert loop, builds each
    # assertion as a terms._Triple and assigns it Assertion's class, the
    # two sharing one layout; everywhere else an assertion is built
    # through Assertion's own constructor
    (
        "Assertions built past their constructor only in the store's insert loop",
        r"__class__\s*=[^=]|\b_Triple\b",
        ("terms.py", "core.py"),
        "build assertions through Assertion(subject, predicate, object)",
        "edge.__class__ = Assertion",
    ),
    # typing.NamedTuple and collections.namedtuple build their
    # classes from generated code; records subclass terms.Record or
    # terms.Frozen like the rest
    (
        "No named tuples in the package",
        r"NamedTuple|namedtuple",
        (),
        "write records as terms.Record or terms.Frozen slots classes",
        "from typing import NamedTuple",
    ),
    # importing dataclasses pulls in inspect, ast, dis and tokenize,
    # and each @dataclass compiles its methods, on every command's
    # start-up; records subclass terms.Record or terms.Frozen, and
    # FrozenInstanceError is imported only where it is raised
    (
        "No module imports dataclasses when it loads",
        r"^(import dataclasses|from dataclasses)",
        (),
        "write records as terms.Record or terms.Frozen slots classes",
        "from dataclasses import dataclass",
    ),
    # import_turtle turns the collector off while it parses and loads
    # a document, and restores it on every exit; the collector is
    # global interpreter state, so no other module touches it
    (
        "Cyclic collector paused only in rdfio.py",
        r"gc\.(disable|enable|freeze)",
        ("rdfio.py",),
        "pause the cyclic collector only in rdfio.import_turtle",
        "gc.disable()",
    ),
]

_rows = pytest.mark.parametrize(
    "pattern, allowed, message, example",
    [row[1:] for row in GUARDS],
    ids=[row[0] for row in GUARDS],
)


def scoped_lines(path: Path):
    """Each line of ``path``: its number, its text, and the top-level
    function it lies in (``None`` outside one).  A line at the margin
    starts a new scope, unless it is a comment, a decorator or the close
    of a signature."""
    scope = None
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line[:1].strip() and not line.startswith(("#", "@", ")")):
            match = re.match(r"(?:async\s+)?def\s+(\w+)", line)
            scope = match.group(1) if match else None
        yield number, line, scope


@_rows
def test_package_keeps_the_rule(pattern, allowed, message, example):
    hits = [
        f"{path.name}:{number}: {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in allowed
        for number, line, scope in scoped_lines(path)
        if f"{path.name}:{scope}" not in allowed and re.search(pattern, line)
    ]
    assert not hits, "\n".join([message, *hits])


@_rows
def test_rule_forbids_its_example(pattern, allowed, message, example):
    assert re.search(pattern, example)
    for place in allowed:
        module, _, function = place.partition(":")
        assert (PACKAGE / module).is_file(), place
        assert not function or any(
            scope == function for _, _, scope in scoped_lines(PACKAGE / module)
        ), place


def test_scopes_end_at_the_next_top_level_statement(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "x = 1\n@wrap\ndef f(\n    a,\n) -> int:\n    return a\n"
        "# note\n\nclass C:\n    def g(self):\n        pass\n"
    )
    assert [scope for _, _, scope in scoped_lines(module)] == [
        None, None, "f", "f", "f", "f", "f", "f", None, None, None,
    ]


def tracer_tables() -> dict[str, object]:
    """``SPANNED``, ``LOOKUPS`` and ``INSERTS`` as ``perfbench/tracing.py``
    spells them, read with ``ast``: the module is not imported."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "LOOKUPS", "INSERTS"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_every_name_the_tracer_wraps_is_still_bound():
    """The traced benchmark run rebinds each of these names where it is
    defined; one renamed or no longer bound there fails that run, which
    only the benchmark's smoke job makes."""
    tables = tracer_tables()
    assert sorted(tables) == ["INSERTS", "LOOKUPS", "SPANNED"]
    unbound = [
        f"oasiskg.{module}.{name}"
        for module, names in tables["SPANNED"].items()
        for name in names
        if not callable(vars(importlib.import_module(f"oasiskg.{module}")).get(name))
    ]
    unbound += [
        f"KnowledgeBase.{name}"
        for name in (*tables["LOOKUPS"], *tables["INSERTS"])
        if not callable(vars(KnowledgeBase).get(name))
    ]
    assert unbound == []
