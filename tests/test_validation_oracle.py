"""The whole-graph pass against its reference gathering.

``validate`` with the journal set aside looks at entities, assertions
and the start edges it reads from the store's predicate buckets.
``tests/validation_oracle.py`` keeps the pass as it was: five candidate
kinds, mirror roots and performers found by ``KnowledgeBase.query``,
and its own copies of the entity, assertion and mirror checks, from
before each edge was tested against its property's check row.  Their
rendered findings must be equal, line for line, on every mutation table
entry alone and in pairs, and on realized growth graphs.  Edge by edge,
``constraint_problem`` worded from a property's check row must equal the
oracle's, worded from its spec, on the mutation corpus and on the seeded
sequences of ``tests/test_incremental_validation.py``.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter

from oasiskg import (
    KnowledgeBase,
    build_process,
    build_template,
    declare_agent,
    derive_behaviour,
    realize_process,
    validate,
    vocab,
)
from oasiskg.engine import procedure_order, state_chain
from oasiskg.terms import Iri
from oasiskg.validator import _CHECKS, _UNTYPED, constraint_problem
from oasiskg.vocab import RDF_TYPE

from conftest import (
    build_protocol_scenario,
    consumer_template,
    protocol_process_spec,
    random_process_spec,
)
import validation_oracle
from mutations import MUTATIONS
from test_incremental_validation import _step, seeded_world
from validation_oracle import whole_pass


def rendered(kb: KnowledgeBase) -> tuple[list[str], list[str]]:
    """The whole-graph pass's lines and the oracle's; the journal is put
    back unchanged."""
    journal, kb.journal = kb.journal, None
    try:
        got = validate(kb)
    finally:
        kb.journal = journal
    return [v.render() for v in got], [v.render() for v in whole_pass(kb)]


def test_the_oracle_runs_its_own_checks():
    for name in ("_entity_checks", "_assertion_checks", "constraint_problem", "check_mirror"):
        assert getattr(validation_oracle, name).__module__ == "validation_oracle", name


def edge_problems(kb: KnowledgeBase) -> list[tuple[str | None, bool]]:
    """For each declared edge, ``constraint_problem`` on its check row and
    its endpoints' memberships, held to the oracle's wording from the
    property spec, passing edges included; and whether an endpoint
    carries several layer classes."""

    def memberships(end: Iri) -> dict[Iri, None]:
        rec = kb.entities.get(end)
        return rec.memberships if rec is not None else _UNTYPED

    out = []
    for a in kb.assertions:
        row = _CHECKS.get(a.predicate)
        if row is None:
            continue
        s_in = memberships(a.subject)
        o_in = memberships(a.object) if isinstance(a.object, Iri) else None
        got = constraint_problem(row, s_in, o_in)
        spec = vocab.PROPERTIES[a.predicate]
        assert got == validation_oracle.constraint_problem(kb, spec, a.subject, a.object), a
        mixed = any(
            len(vocab.LAYER_CLASSES.intersection(m)) > 1 for m in (s_in, o_in or {})
        )
        out.append((got, mixed))
    return out


def test_endpoint_failures_are_worded_from_their_check_row():
    """On every edge of the mutation corpus and of the seeded incremental
    sequences, after each step, the check row words what the property
    spec does; every kind of message turns up."""
    seen: Counter = Counter()
    for mutation in MUTATIONS:
        kb = KnowledgeBase()
        ctx = build_protocol_scenario(kb, with_events=True)
        mutation.apply(kb, ctx)
        seen.update(edge_problems(kb))
    for seed in range(200):
        rng, kb, world = seeded_world(seed)
        dirty = False
        for n in range(1, 9):
            _step(rng, kb, world, n, dirty)
            seen.update(edge_problems(kb))
            dirty = bool(validate(kb))
    kinds = {
        re.match(r"(subject|object) must be (in the|an IRI|a literal|a)", problem).group()
        for problem, _ in seen
        if problem is not None
    }
    assert len(kinds) == 6, kinds
    assert seen[(None, False)] > 100_000
    assert seen[(None, True)] > 0  # mixed endpoints are reported on their own


def test_every_mutation_alone_and_in_pairs_matches_the_oracle():
    combos = [
        *((m,) for m in MUTATIONS),
        *itertools.combinations(MUTATIONS, 2),
    ]
    for combo in combos:
        # this entry realizes a process, which a graph with findings refuses
        picked = sorted(combo, key=lambda m: m.name != "performer-role-went-stale")
        kb = KnowledgeBase()
        ctx = build_protocol_scenario(kb, with_events=True)
        for mutation in picked:
            mutation.apply(kb, ctx)
        names = [m.name for m in picked]
        got, expected = rendered(kb)
        assert got == expected, names
        if len(picked) == 1:
            code = picked[0].expected.value
            assert any(line.split("\t")[0] == code for line in got), names
    assert len(combos) == len(MUTATIONS) * (len(MUTATIONS) + 1) // 2


#: edges whose removal breaks a mirror, a chain or a performer's capability
CHECKED_EDGES = frozenset(
    (
        vocab.HAS_PLAN_EXECUTION,
        vocab.PERFORMS_PLAN_EXECUTION,
        vocab.PLAN_EXECUTION_DRAWN_BY,
        vocab.HAS_BEHAVIOUR,
        vocab.PROC_CONSISTS_INITIAL,
        vocab.PROC_CONSISTS_FINAL,
        *vocab.SUB_CLOSURE[vocab.HAS_NEXT],
        *vocab.SUB_CLOSURE[vocab.HAS_EXECUTION],
        *vocab.SUB_CLOSURE[vocab.OVERLOADS],
    )
)


def grown_graph(seed: int, processes: int) -> KnowledgeBase:
    """A graph grown as the benchmark's ``realize_growth`` grows one: a
    consumer and a process per tag, every third process a random one,
    each realized to completion; checked against the oracle after each
    realization."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.declare_class(kb.resolve("Resource"))
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    for i in range(processes):
        tag = f"g{i}"
        agent = declare_agent(kb, kb.resolve(f"agent_{tag}"))
        template = build_template(kb, consumer_template(tag))
        behaviour = derive_behaviour(kb, template, agent)
        if i % 3 == 2:
            spec = random_process_spec(rng, tag)
        else:
            spec = protocol_process_spec(tag, with_event=rng.random() < 0.5)
        process = build_process(kb, spec)
        states = [s for p in procedure_order(kb, process) for s in state_chain(kb, p)]
        assignment = {s: (agent, behaviour) for s in states}
        realize_process(kb, process, assignment).run_to_completion()
        got, expected = rendered(kb)
        assert got == expected == [], (seed, tag)
    return kb


def test_realized_growth_graphs_match_the_oracle():
    """Clean after each realization, then with every fifth checked edge
    or Procedure membership taken out in turn and put back."""
    dirty = 0
    for seed in (7, 389):
        kb = grown_graph(seed, 6)
        targets = [
            a
            for a in kb.assertions
            if a.predicate in CHECKED_EDGES
            or (a.predicate == RDF_TYPE and a.object == vocab.PROCEDURE)
        ]
        for a in targets[seed % 5 :: 5]:
            kb.remove(a)
            got, expected = rendered(kb)
            assert got == expected, (seed, a)
            dirty += bool(got)
            kb.assert_property(a.subject, a.predicate, a.object)
        assert rendered(kb) == ([], [])
    assert dirty >= 100  # 122 of 144
