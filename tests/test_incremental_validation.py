"""Incremental validation against the whole-graph pass.

After a clean pass the store journals its changes and ``validate``
re-checks only what the journal can reach.  The whole-graph pass is the
reference: with the journal set aside, ``validate`` always runs it.
Every result of the incremental path must equal it, on the mutation
table and on seeded sequences of builder, engine and store calls.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from oasiskg import (
    Assertion,
    Code,
    EventSpec,
    KnowledgeBase,
    ModelError,
    Ref,
    TaskSpec,
    attach_event,
    build_process,
    build_template,
    declare_agent,
    deprecate_role,
    derive_behaviour,
    grant_role,
    realize_process,
    submit_plan,
    validate,
)
from oasiskg import engine, validator, vocab
from oasiskg.engine import ValidationFailed, procedure_order, state_chain
from oasiskg.vocab import RDF_TYPE

from conftest import (
    build_protocol_scenario,
    consumer_template,
    protocol_process_spec,
    random_behaviour_spec,
    whole_graph_pass,
)
from mutations import MUTATIONS


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


def test_journal_runs_from_a_clean_pass_to_the_next_dirty_one(kb):
    a = Assertion(kb.resolve("x"), vocab.DEPENDS_ON, kb.resolve("y"))
    kb.assert_property(a.subject, a.predicate, a.object)
    assert kb.journal is None  # nothing is recorded before a clean pass
    kb.remove(a)
    assert validate(kb) == []
    assert kb.journal == []
    agent = declare_agent(kb, kb.resolve("agent"))
    kb.assert_property(a.subject, a.predicate, a.object)
    kb.assert_property(a.subject, a.predicate, a.object)  # no change, no entry
    kb.remove(a)
    kb.remove(a)  # absent, no entry
    assert kb.journal == [Assertion(agent, RDF_TYPE, vocab.AGENT), a, a]
    assert validate(kb) == []
    assert kb.journal == []
    kb.assert_property(a.subject, a.predicate, a.object)
    assert [v.code for v in validate(kb)] == [Code.DANGLING_REFERENCE] * 2
    assert kb.journal is None


def test_short_journals_skip_the_whole_graph_pass(kb, monkeypatch):
    """A realization's journal stays on the region path.  The engine clears
    the journal of a realization it certifies, so this one keeps its
    entries, as an uncertified one does."""
    whole_passes = []
    real = validator._whole
    monkeypatch.setattr(validator, "_whole", lambda kb: whole_passes.append(1) or real(kb))
    ctx = build_protocol_scenario(kb, tags=("a", "b"))
    assert validate(kb) == []
    whole_passes.clear()
    a = ctx["a"]
    assignment = {kb.resolve(f"a_s{i}"): (a["agent"], a["behaviour"]) for i in (1, 2, 3)}
    with monkeypatch.context() as patched:
        patched.setattr(engine, "_certify", lambda kb, clean, canonical: None)
        realize_process(kb, a["process"], assignment)
    assert kb.journal
    assert validate(kb) == [] and whole_passes == []
    # a journal of a quarter of the graph or more goes to the whole-graph pass
    for tag in ("c", "d", "e"):
        agent = declare_agent(kb, kb.resolve(f"agent_{tag}"))
        derive_behaviour(kb, build_template(kb, consumer_template(tag)), agent)
        build_process(kb, protocol_process_spec(tag))
    assert len(kb.journal) * 4 >= len(kb)
    assert validate(kb) == [] and whole_passes == [1]


def _region_pass(kb, monkeypatch) -> tuple[list, list[Assertion], int]:
    """``validate``'s result, the assertions its region pass handed the
    endpoint checks, and how many whole-graph passes it ran."""
    checked: list[Assertion] = []
    whole_passes = []
    real_checks, real_whole = validator._assertion_checks, validator._whole

    def checks(kb, assertions):
        if not whole_passes:
            checked.extend(assertions)
        return real_checks(kb, assertions)

    monkeypatch.setattr(validator, "_assertion_checks", checks)
    monkeypatch.setattr(validator, "_whole", lambda kb: whole_passes.append(1) or real_whole(kb))
    got = validate(kb)
    monkeypatch.undo()
    return got, checked, len(whole_passes)


def test_each_region_candidate_is_checked_once(kb, monkeypatch):
    """A realization's journal reaches every edge of the nodes it typed,
    so the region pass checks exactly the journal's assertions, each
    object once.  The engine clears the journal of a realization it
    certifies, so this one keeps its entries, as an uncertified one does."""
    a = build_protocol_scenario(kb, tags=("a", "b"))["a"]
    assert validate(kb) == []
    assignment = {kb.resolve(f"a_s{i}"): (a["agent"], a["behaviour"]) for i in (1, 2, 3)}
    with monkeypatch.context() as patched:
        patched.setattr(engine, "_certify", lambda kb, clean, canonical: None)
        realize_process(kb, a["process"], assignment)
    journal = list(kb.journal)
    assert journal
    got, checked, whole_passes = _region_pass(kb, monkeypatch)
    assert got == [] and whole_passes == 0
    ids = [id(x) for x in checked]
    assert len(ids) == len(set(ids))
    assert set(ids) == {id(x) for x in journal}


def test_removals_and_re_adds_match_the_whole_graph_pass(kb, monkeypatch):
    """Seeded store-level edits after a clean pass: edges and memberships
    removed, and equal assertions added back as new objects."""
    build_protocol_scenario(kb, tags=("a", "b"), with_events=True)
    assert validate(kb) == []
    region_verdicts: Counter = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        removed: list[Assertion] = []
        for _ in range(rng.randint(1, 4)):
            if removed and rng.random() < 0.3:
                a = removed.pop(rng.randrange(len(removed)))
                kb.assert_property(a.subject, a.predicate, a.object)  # a new object
            else:
                a = rng.choice(sorted(kb.assertions, key=Assertion.sort_key))
                kb.remove(a)
                removed.append(a)
        expected = whole_graph_pass(kb)
        got, _checked, whole_passes = _region_pass(kb, monkeypatch)
        assert got == expected, seed
        region_verdicts[(bool(got), whole_passes)] += 1
        for a in removed:
            kb.assert_property(a.subject, a.predicate, a.object)
        assert validate(kb) == [], seed
    assert region_verdicts[(False, 0)] >= 5  # clean on the region path alone
    assert region_verdicts[(True, 1)] >= 20  # dirty, found by the whole pass


def test_removing_valid_edges_stays_on_the_region_path(kb, monkeypatch):
    """A journal that holds only removals checks the removed edges too;
    when the graph is still clean, that costs no whole-graph pass."""
    build_protocol_scenario(kb, tags=("a", "b"), with_events=True)
    assert validate(kb) == []
    kept = 0
    for a in sorted(kb.assertions, key=Assertion.sort_key):
        if a.predicate == RDF_TYPE:
            continue
        kb.remove(a)
        assert kb.journal == [a]
        if whole_graph_pass(kb) == []:
            assert _region_pass(kb, monkeypatch)[1:] == ([a], 0)
            kept += 1
        kb.assert_property(a.subject, a.predicate, a.object)
        assert validate(kb) == []
    assert kept >= 10


# ---------------------------------------------------------------------------
# Mutation table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gate", ["validate", "realize_process"])
@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutation_findings_match_the_whole_graph_pass(kb, mutation, gate):
    ctx = build_protocol_scenario(kb, with_events=True)
    assert validate(kb) == []
    mutation.apply(kb, ctx)
    assert kb.journal is not None, "the mutation must leave the incremental path on"
    expected = whole_graph_pass(kb)
    assert mutation.expected in {v.code for v in expected}
    if gate == "validate":
        assert validate(kb) == expected
        return
    a = ctx["a"]
    assignment = {kb.resolve(f"a_s{i}"): (a["agent"], a["behaviour"]) for i in (1, 2, 3)}
    with pytest.raises(ValidationFailed) as caught:
        realize_process(kb, a["process"], assignment)
    assert caught.value.violations == expected


def test_every_single_class_removal_matches_the_whole_graph_pass(kb):
    """Take each class membership out of a clean realized graph in turn:
    the incremental verdict equals the whole-graph one, and putting the
    membership back leaves the graph clean again."""
    a = build_protocol_scenario(kb, tags=("a",), with_events=True)["a"]
    helper = declare_agent(kb, kb.resolve("agent_helper"))
    grant_role(kb, helper, kb.resolve("Courier"), [a["behaviour"]])
    assignment = {kb.resolve(f"a_s{i}"): (helper, a["behaviour"]) for i in (1, 2, 3)}
    realize_process(kb, a["process"], assignment).run_to_completion()
    assert validate(kb) == []
    memberships = kb.query(predicate=RDF_TYPE)
    dirty = 0
    for membership in memberships:
        kb.remove(membership)
        expected = whole_graph_pass(kb)
        assert validate(kb) == expected, membership
        dirty += bool(expected)
        kb.assert_membership(membership.subject, membership.object)
        assert validate(kb) == []
    assert dirty >= len(memberships) // 2


# ---------------------------------------------------------------------------
# Seeded call sequences
# ---------------------------------------------------------------------------

ROLE_TYPES = ("Courier", "Auditor")

#: edges the ``link`` step adds between random entities
LINK_PREDICATES = (
    vocab.HAS_BEHAVIOUR,
    vocab.PLAY_ROLE,
    vocab.PROVIDES_BEHAVIOUR,
    vocab.IS_DESCRIBED_BY,
    vocab.HAS_NEXT_NON_TERMINATING,
    vocab.PROC_CONSISTS_INITIAL,
    vocab.DEPENDS_ON,
    vocab.term("consistsOfTaskDescription"),
    vocab.term("overloadsTaskDescription"),
    vocab.term("madeUpPredicate"),
    vocab.HAS_EVENT_KIND,
)

#: classes the ``retype`` step adds to random entities
RETYPE_CLASSES = (
    *sorted(vocab.LAYER_CLASSES),
    *sorted(vocab.PROCEDURE_STATE_CLASSES),
    vocab.EVENT,
    vocab.BEHAVIOUR,
    vocab.PROCEDURE,
)


class _World:
    """What one sequence has built so far, and how to undo its edits."""

    def __init__(self) -> None:
        self.owned: list[tuple] = []  # (agent, behaviour) via hasBehaviour
        self.granted: list[tuple] = []  # (agent, behaviour, role), role live
        self.realized_roles: list = []  # live roles a realization relied on
        self.processes: list = []
        self.undo: list[tuple[str, Assertion]] = []


def _performer(rng, world):
    if world.granted and rng.random() < 0.5:
        return rng.choice(world.granted)
    agent, behaviour = rng.choice(world.owned)
    if rng.random() < 0.15:  # usually lacks the capability
        behaviour = rng.choice(world.owned)[1]
    return agent, behaviour, None


def _some_state(rng, kb, world):
    """A state of a built process, or the process itself if edits left
    it without one."""
    process = rng.choice(world.processes)
    states = [s for p in procedure_order(kb, process) for s in state_chain(kb, p)]
    return rng.choice(states or [process])


def _step(rng: random.Random, kb: KnowledgeBase, world: _World, n: int, dirty: bool) -> str:
    if dirty and world.undo and rng.random() < 0.6:
        kind, a = world.undo.pop()
        if kind == "added":
            kb.remove(a)
        else:
            kb.assert_property(a.subject, a.predicate, a.object)
        return "undo"
    op = rng.choice(
        ("consumer", "process", "realize", "realize", "grant", "deprecate",
         "remove", "remove", "link", "retype", "redraw", "submit", "event")
    )
    if op == "consumer":
        tag = f"c{n}"
        agent = declare_agent(kb, kb.resolve(f"agent_{tag}"))
        spec = random_behaviour_spec(rng, tag) if rng.random() < 0.3 else consumer_template(tag)
        world.owned.append((agent, derive_behaviour(kb, build_template(kb, spec), agent)))
    elif op == "process":
        spec = protocol_process_spec(f"p{n}", with_event=rng.random() < 0.5)
        world.processes.append(build_process(kb, spec))
    elif op == "realize":
        process = rng.choice(world.processes)
        agent, behaviour, role = _performer(rng, world)
        states = [s for p in procedure_order(kb, process) for s in state_chain(kb, p)]
        try:
            handle = realize_process(kb, process, {s: (agent, behaviour) for s in states})
        except ModelError:
            return op
        for _ in range(rng.randint(0, len(handle.records))):
            handle.step()
        if role is not None and role not in world.realized_roles:
            world.realized_roles.append(role)
    elif op == "grant":
        agent = rng.choice(world.owned)[0]
        behaviour = rng.choice(world.owned)[1]
        role = grant_role(kb, agent, kb.resolve(rng.choice(ROLE_TYPES)), [behaviour])
        world.granted.append((agent, behaviour, role))
    elif op == "deprecate" and world.granted:
        if world.realized_roles and rng.random() < 0.7:
            role = world.realized_roles.pop(rng.randrange(len(world.realized_roles)))
            op = "deprecate-after-realize"
        else:
            role = rng.choice(world.granted)[2]
        deprecate_role(kb, role)
        world.granted = [g for g in world.granted if g[2] != role]
        if role in world.realized_roles:
            world.realized_roles.remove(role)
    elif op == "remove":
        predicate = rng.choice(sorted({a.predicate for a in kb.assertions}))
        a = rng.choice(kb.query(predicate=predicate))
        kb.remove(a)
        world.undo.append(("removed", a))
    elif op in ("link", "retype"):
        entities = list(kb.entities)
        if op == "link":
            obj = rng.choice(entities)
            if rng.random() < 0.2:  # a literal, which only a literal property takes
                obj = obj.local
            a = Assertion(rng.choice(entities), rng.choice(LINK_PREDICATES), obj)
        else:
            a = Assertion(rng.choice(entities), RDF_TYPE, rng.choice(RETYPE_CLASSES))
        if a not in kb:
            kb.assert_property(a.subject, a.predicate, a.object)
            world.undo.append(("added", a))
    elif op == "redraw":
        performs = kb.query(predicate=vocab.PERFORMS_PLAN_EXECUTION)
        if performs:
            exec_root = rng.choice(performs).object
            behaviour = rng.choice(world.owned)[1]
            a = Assertion(exec_root, vocab.PLAN_EXECUTION_DRAWN_BY, behaviour)
            if a not in kb:
                kb.assert_property(a.subject, a.predicate, a.object)
                world.undo.append(("added", a))
    elif op == "submit":
        state = _some_state(rng, kb, world)
        plans = kb.objects(state, vocab.IS_DESCRIBED_BY)
        try:
            submit_plan(kb, plans[0] if plans else state, rng.choice(world.owned)[1])
        except ModelError:
            pass
    elif op == "event":
        state = _some_state(rng, kb, world)
        spec = EventSpec(
            name=f"e{n}_event",
            action=TaskSpec(name=f"e{n}_task", operator_action=Ref.exact("notify")),
        )
        try:
            attach_event(kb, state, spec)
        except ModelError:
            pass
    return op


def test_seeded_sequences_match_the_whole_graph_pass():
    verdicts: Counter = Counter()
    codes_found_incrementally: set = set()
    ops: Counter = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        kb = KnowledgeBase()
        world = _World()
        kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
        agent = declare_agent(kb, kb.resolve("agent_c0"))
        template = build_template(kb, consumer_template("c0"))
        behaviour = derive_behaviour(kb, template, agent)
        world.owned.append((agent, behaviour))
        helper = declare_agent(kb, kb.resolve("helper_c0"))
        role = grant_role(kb, helper, kb.resolve("Courier"), [behaviour])
        world.granted.append((helper, behaviour, role))
        world.processes.append(build_process(kb, protocol_process_spec("p0")))
        dirty = False
        for n in range(1, 9):
            op = _step(rng, kb, world, n, dirty)
            ops[op] += 1
            # without a journal, validate is the whole-graph pass itself
            incremental = kb.journal is not None
            expected = whole_graph_pass(kb) if incremental else None
            got = validate(kb)
            if incremental:
                assert got == expected, (seed, n, op)
            dirty = bool(got)
            verdicts[(incremental, dirty)] += 1
            if incremental:
                codes_found_incrementally |= {v.code for v in got}
    assert verdicts[(True, False)] >= 600  # clean, found on the incremental path
    assert verdicts[(True, True)] >= 150  # dirty, found after a clean pass
    assert ops["deprecate-after-realize"] >= 10
    assert Code.ROLE_DEPRECATED_USE in codes_found_incrementally
    assert len(codes_found_incrementally) >= 12
