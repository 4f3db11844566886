"""``rdfio.export_canonical`` against the export it replaced.

``tests/export_oracle.py`` sorts the assertions by ``sort_key`` and
renders each object through ``_render_object``; the package sorts plain
rows with no key function.  Each graph below must export to the same
text under both, and ``write_graph`` must write exactly that text as
UTF-8.  The graphs: seeded random ones over IRIs that are proper
prefixes of each other, IRI and literal objects of one value under one
subject and predicate, every escape, non-ASCII and empty literals, with
removals and re-adds; the empty graph; the seed-7 ``graph_io`` graph of
the benchmark; and the protocol scenario under every mutation in
``tests/mutations.py``.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import export_oracle
from conftest import build_protocol_scenario
from mutations import MUTATIONS
from oasiskg import (
    Assertion,
    Iri,
    KnowledgeBase,
    build_process,
    build_template,
    declare_agent,
    derive_behaviour,
    export_canonical,
    write_graph,
)

X = "http://x/"
#: stems where one is a proper prefix of the next, followed by a
#: character below '>' ('-', '.', '/', '0', '#', '!', ':', '=') or above
#: it ('a', '~', non-ASCII)
STEMS = (
    "a", "a-b", "a.b", "a/b", "a0", "a#", "a!", "a:", "a=", "aa", "a~",
    "aé", "a→", "a\U0001f600", "b", "",
)
IRIS = tuple(Iri(X + stem) for stem in STEMS)
#: every escape, non-ASCII, the empty literal and literals equal to IRI values
LITERALS = (
    "", "plain", 'say "hi"', "back\\slash", "line\nbreak", "cr\rlf", "tab\there",
    '\\"\n\r\t', "é→\U0001f600", *(iri.value for iri in IRIS[:6]),
)
SEEDS = range(150)


def first_difference(got: str, want: str) -> str:
    """Where two exports part, without pytest's diff of the whole text,
    which takes minutes on the benchmark graph."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: {g!r} != {w!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


def assert_same(kb: KnowledgeBase, tmp_path: Path) -> str:
    text = export_canonical(kb)
    want = export_oracle.export_canonical(kb)
    same = text == want
    assert same, first_difference(text, want)
    path = tmp_path / "graph.nt"
    write_graph(kb, str(path))
    written = path.read_bytes() == want.encode("utf-8")
    assert written, "write_graph wrote other bytes than the export"
    return text


def random_graph(rng: random.Random) -> KnowledgeBase:
    """Triples over a few subjects and predicates, many objects of both
    kinds, inserted shuffled, some removed and some of those re-added."""
    subjects = rng.sample(IRIS, rng.randint(1, 5))
    predicates = rng.sample(IRIS, rng.randint(1, 4))
    triples = []
    for _ in range(rng.randint(1, 60)):
        obj = rng.choice(IRIS) if rng.random() < 0.5 else rng.choice(LITERALS)
        triples.append((rng.choice(subjects), rng.choice(predicates), obj))
    rng.shuffle(triples)
    kb = KnowledgeBase()
    kb.load(triples)
    gone = rng.sample(triples, len(triples) // 4)
    for s, p, o in gone:
        kb.remove(Assertion(s, p, o))
    kb.load(gone[: len(gone) // 2])
    return kb


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_graphs_export_as_the_oracle_exports_them(seed, tmp_path):
    assert_same(random_graph(random.Random(seed)), tmp_path)


def test_the_seeded_graphs_hold_the_adversarial_cases():
    lines = set()
    shared = 0  # an IRI object and the literal of its value, one subject and predicate
    for seed in SEEDS:
        kb = random_graph(random.Random(seed))
        lines.update(export_canonical(kb).splitlines())
        pairs = {(a.subject, a.predicate, a.object) for a in kb.assertions}
        shared += any(
            isinstance(o, Iri) and (s, p, o.value) in pairs for s, p, o in pairs
        )
    for stem in STEMS:
        assert any(line.startswith(f"<{X}{stem}> ") for line in lines), stem
    text = "\n".join(lines)
    for escape in ('\\\\', '\\"', "\\n", "\\r", "\\t"):
        assert escape in text
    assert any(line.endswith(' "" .') for line in lines)
    assert any(line.endswith(' "é→\U0001f600" .') for line in lines)
    assert shared > 10


def test_the_empty_graph_exports_and_writes_nothing(tmp_path):
    assert assert_same(KnowledgeBase(), tmp_path) == ""


def test_an_iri_and_literals_of_its_value_under_one_predicate(tmp_path):
    s, p, a = Iri(X + "s"), Iri(X + "p"), Iri(X + "a")
    kb = KnowledgeBase()
    objects = ("http://x/a-b", a.value, Iri(X + "a-b"), a, "")
    kb.load([(s, p, o) for o in objects])
    assert assert_same(kb, tmp_path).splitlines() == [
        "<http://x/s> <http://x/p> <http://x/a> .",
        "<http://x/s> <http://x/p> <http://x/a-b> .",
        '<http://x/s> <http://x/p> "" .',
        '<http://x/s> <http://x/p> "http://x/a" .',
        '<http://x/s> <http://x/p> "http://x/a-b" .',
    ]


def _load_benchmark_generator():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_graph_exports_as_the_oracle_exports_it(tmp_path):
    """The seed-7 ``graph_io`` graph, built as the benchmark builds it."""
    gen = _load_benchmark_generator()
    kb = KnowledgeBase()
    for unit in gen.graph_units(random.Random(7), gen.GRAPH_UNITS):
        agent = declare_agent(kb, kb.resolve(unit.agent))
        derive_behaviour(kb, build_template(kb, unit.template), agent)
        build_process(kb, unit.process)
    assert len(kb) > 25_000
    assert_same(kb, tmp_path)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutated_scenarios_export_as_the_oracle_exports_them(mutation, tmp_path):
    kb = KnowledgeBase()
    ctx = build_protocol_scenario(kb, with_events=True)
    mutation.apply(kb, ctx)
    assert_same(kb, tmp_path)
