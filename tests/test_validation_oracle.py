"""The whole-graph pass against its reference gathering.

``validate`` with the journal set aside looks at entities, assertions
and the start edges it reads from the store's predicate buckets.
``tests/validation_oracle.py`` keeps the pass as it was: five candidate
kinds, mirror roots and performers found by ``KnowledgeBase.query``,
and its own copies of the entity, assertion and mirror checks, from
before each edge was tested against its property's check row.  Their
rendered findings must be equal, line for line, on every mutation table
entry alone and in pairs, and on realized growth graphs.
"""

from __future__ import annotations

import itertools
import random

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
from oasiskg.vocab import RDF_TYPE

from conftest import (
    build_protocol_scenario,
    consumer_template,
    protocol_process_spec,
    random_process_spec,
)
import validation_oracle
from mutations import MUTATIONS
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
