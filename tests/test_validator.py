from __future__ import annotations

import itertools
import random

import pytest

from oasiskg import (
    Assertion,
    Code,
    Iri,
    KnowledgeBase,
    ProcedureSpec,
    ProcessSpec,
    StateSpec,
    Violation,
    build_plan,
    build_process,
    build_template,
    check_mirror,
    declare_agent,
    derive_behaviour,
    validate,
)
from oasiskg.trees import clone_tree, walk_tree
from oasiskg import validator
from oasiskg.validator import DanglingRoot
from oasiskg import vocab
from oasiskg.vocab import LayerTag

from conftest import build_protocol_scenario, lock_step_plan, random_behaviour_spec
from mutations import MUTATIONS


def ex(local: str) -> Iri:
    return Iri("http://example.org/" + local)


# ---------------------------------------------------------------------------
# Clean graphs
# ---------------------------------------------------------------------------


def test_empty_graph_is_clean(kb):
    assert validate(kb) == []


def test_protocol_scenario_is_clean(kb):
    build_protocol_scenario(kb, with_events=True)
    assert validate(kb) == []


def test_random_derivations_are_clean(kb):
    rng = random.Random(97)
    for i in range(5):
        spec = random_behaviour_spec(rng, f"v{i}")
        template = build_template(kb, spec)
        agent = declare_agent(kb, ex(f"agent{i}"))
        derive_behaviour(kb, template, agent)
    assert validate(kb) == []


def test_long_state_chains_validate_in_one_iterative_walk(kb):
    states = tuple(
        StateSpec(name=f"long_{i}_state", plan=lock_step_plan(f"long_{i}", "modify"))
        for i in range(1100)
    )
    spec = ProcessSpec(
        name="long_process",
        procedures=(ProcedureSpec(name="long_procedure", states=states),),
    )
    build_process(kb, spec)
    assert validate(kb) == []
    # an edge from the far end back to the start closes a 1,100-state loop
    kb.assert_property(
        ex("long_1099_state"), vocab.HAS_NEXT_NON_TERMINATING, ex("long_0_state")
    )
    assert Code.CHAIN_CYCLE in {v.code for v in validate(kb)}


# ---------------------------------------------------------------------------
# Mutation table: every damage pattern maps to its code
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutation_is_detected(kb, mutation):
    ctx = build_protocol_scenario(kb, with_events=True)
    assert validate(kb) == []
    mutation.apply(kb, ctx)
    codes = {v.code for v in validate(kb)}
    assert mutation.expected in codes


def test_mutation_table_covers_every_code():
    assert {m.expected for m in MUTATIONS} == set(Code)
    assert len(MUTATIONS) >= 15


def test_every_mutation_raises_exactly_one_kind(kb):
    """The table is surgical: each entry produces violations of its
    expected code and nothing else."""
    for mutation in MUTATIONS:
        fresh = KnowledgeBase()
        ctx = build_protocol_scenario(fresh, with_events=True)
        mutation.apply(fresh, ctx)
        codes = {v.code for v in validate(fresh)}
        assert codes == {mutation.expected}, mutation.name


#: pairs of entries that hide each other's finding by design: a chain
#: with no or several initial states is not walked, so its loops and
#: islands go unseen; a removed exit and an added one cancel; a template
#: in two layers has no layer for hasBehaviour's range to reject
MASKING = {
    frozenset(pair)
    for pair in (
        ("chain-missing-entry", "chain-two-entries"),
        ("chain-missing-entry", "chain-loops-back"),
        ("chain-missing-entry", "chain-island-state"),
        ("chain-two-entries", "chain-loops-back"),
        ("chain-two-entries", "chain-island-state"),
        ("chain-missing-exit", "chain-two-exits"),
        ("template-also-tagged-execution", "agent-owns-a-template"),
    )
}


def test_combined_mutations_each_keep_their_finding():
    """Entries applied together to one graph, every pair and seeded sets
    of three and four: no check's early exit hides another entry's
    finding, and the region pass finds what the whole pass does."""
    rng = random.Random(14)
    combos = [
        *itertools.combinations(MUTATIONS, 2),
        *(rng.sample(MUTATIONS, rng.randint(3, 4)) for _ in range(60)),
    ]
    tried = 0
    for combo in combos:
        if any(
            frozenset((a.name, b.name)) in MASKING
            for a, b in itertools.combinations(combo, 2)
        ):
            continue
        # this entry realizes a process, which a graph with findings refuses
        picked = sorted(combo, key=lambda m: m.name != "performer-role-went-stale")
        kb = KnowledgeBase()
        ctx = build_protocol_scenario(kb, with_events=True)
        assert validate(kb) == []
        for mutation in picked:
            mutation.apply(kb, ctx)
        names = [m.name for m in picked]
        region = validator._findings(kb, *validator._reach(kb, kb.journal))
        whole = validate(kb)
        assert {m.expected for m in picked} <= {v.code for v in whole}, names
        assert set(region) == set(whole), names
        tried += 1
    assert tried >= 200


def test_an_edge_can_break_its_range_and_dangle_at_once(kb):
    agent = declare_agent(kb, ex("agent"))
    kb.assert_property(agent, vocab.HAS_BEHAVIOUR, ex("ghost"))
    assert [(v.code, v.subjects) for v in validate(kb)] == [
        (Code.DANGLING_REFERENCE, (ex("ghost"),)),
        (Code.LAYER_CONSTRAINT, (agent, ex("ghost"))),
    ]


# ---------------------------------------------------------------------------
# Violation rendering and ordering
# ---------------------------------------------------------------------------


def test_render_is_tab_separated():
    v = Violation(Code.LAYER_MIX, (ex("a"), ex("b")), "two layers at once")
    assert v.render() == (
        "LAYER_MIX\thttp://example.org/a,http://example.org/b\ttwo layers at once"
    )


def test_validate_output_is_sorted(kb):
    ctx = build_protocol_scenario(kb, with_events=True)
    for mutation in MUTATIONS[:6]:
        if mutation.name == "derived-goal-unlinked":
            continue
        mutation.apply(kb, ctx)
    out = validate(kb)
    assert len(out) >= 5
    assert out == sorted(out, key=Violation.sort_key)
    again = validate(kb)
    assert again == out


# ---------------------------------------------------------------------------
# Mirror checking in isolation
# ---------------------------------------------------------------------------


def two_task_derivation(kb):
    from oasiskg import BehaviourSpec, GoalSpec, Ref, TaskSpec

    spec = BehaviourSpec(
        name="pair_template",
        goals=(
            GoalSpec(
                name="pair_goal",
                tasks=(
                    TaskSpec(name="pair_t1", operator_action=Ref.exact("act")),
                    TaskSpec(name="pair_t2", operator_action=Ref.exact("act")),
                ),
            ),
        ),
    )
    template = build_template(kb, spec)
    agent = declare_agent(kb, ex("alice"))
    behaviour = derive_behaviour(kb, template, agent)
    return template, behaviour


def test_check_mirror_passes_on_a_fresh_derivation(kb):
    template, behaviour = two_task_derivation(kb)
    assert check_mirror(kb, behaviour, template, vocab.OVERLOADS) == []


def test_check_mirror_raises_for_unknown_roots(kb):
    template, behaviour = two_task_derivation(kb)
    with pytest.raises(DanglingRoot):
        check_mirror(kb, ex("nowhere"), template, vocab.OVERLOADS)
    with pytest.raises(DanglingRoot):
        check_mirror(kb, behaviour, ex("nowhere"), vocab.OVERLOADS)


def test_check_mirror_reports_missing_counterparts(kb):
    template, behaviour = two_task_derivation(kb)
    goal_b = walk_tree(kb, behaviour)[1]
    goal_t = walk_tree(kb, template)[1]
    kb.remove(Assertion(goal_b, vocab.term("overloadsGoalDescription"), goal_t))
    out = check_mirror(kb, behaviour, template, vocab.OVERLOADS)
    assert [v.code for v in out] == [Code.STRUCTURE_MISMATCH]
    assert out[0].subjects == (goal_b,)
    assert "no overloads counterpart" in out[0].message


def test_check_mirror_reports_ambiguous_counterparts(kb):
    template, behaviour = two_task_derivation(kb)
    goal_b = walk_tree(kb, behaviour)[1]
    stray_target = walk_tree(kb, template)[2]  # a task in the same tree
    kb.assert_property(goal_b, vocab.term("overloadsGoalDescription"), stray_target)
    out = check_mirror(kb, behaviour, template, vocab.OVERLOADS)
    assert any("ambiguous" in v.message for v in out)


def test_check_mirror_reports_wrong_family_member(kb):
    template, behaviour = two_task_derivation(kb)
    goal_b = walk_tree(kb, behaviour)[1]
    goal_t = walk_tree(kb, template)[1]
    kb.remove(Assertion(goal_b, vocab.term("overloadsGoalDescription"), goal_t))
    kb.assert_property(goal_b, vocab.term("overloadsTaskDescription"), goal_t)
    out = check_mirror(kb, behaviour, template, vocab.OVERLOADS)
    assert any("wrong member" in v.message for v in out)


def test_check_mirror_reports_unlinked_roots(kb):
    template, behaviour = two_task_derivation(kb)
    goal_t = walk_tree(kb, template)[1]
    kb.remove(Assertion(behaviour, vocab.term("overloadsBehaviour"), template))
    kb.assert_property(behaviour, vocab.term("overloadsBehaviour"), goal_t)
    out = check_mirror(kb, behaviour, template, vocab.OVERLOADS)
    assert any("roots are not linked" in v.message for v in out)


def test_check_mirror_reports_unmirrored_child_edges(kb):
    template, behaviour = two_task_derivation(kb)
    o = vocab.term("overloadsTaskDescription")
    t1_b, t2_b = walk_tree(kb, behaviour)[2:4]
    t1_t, t2_t = walk_tree(kb, template)[2:4]
    # cross the task links so operators no longer line up
    kb.remove(Assertion(t1_b, o, t1_t))
    kb.remove(Assertion(t2_b, o, t2_t))
    kb.assert_property(t1_b, o, t2_t)
    kb.assert_property(t2_b, o, t1_t)
    out = check_mirror(kb, behaviour, template, vocab.OVERLOADS)
    assert any("no mirrored edge" in v.message for v in out)


def test_check_mirror_flags_classless_source_nodes(kb):
    template, behaviour = two_task_derivation(kb)
    goal_b = walk_tree(kb, behaviour)[1]
    goal_t = walk_tree(kb, template)[1]
    kb.remove(Assertion(goal_b, vocab.RDF_TYPE, vocab.GOAL_DESCRIPTION))
    out = check_mirror(kb, behaviour, template, vocab.OVERLOADS)
    assert any("no tree class" in v.message for v in out)


# ---------------------------------------------------------------------------
# Capability
# ---------------------------------------------------------------------------


def test_an_incapable_agent_reads_its_roles_once(kb, monkeypatch):
    agent, behaviour = ex("agent"), ex("behaviour")
    live, stale = ex("live_role"), ex("stale_role")
    kb.assert_property(agent, vocab.PLAY_ROLE, live)
    kb.assert_property(agent, vocab.PLAY_ROLE, stale)
    kb.assert_membership(stale, vocab.DEPRECATED_THING)
    kb.assert_property(stale, vocab.PROVIDES_BEHAVIOUR, behaviour)
    reads = []
    objects = KnowledgeBase.objects

    def counting(self, subject, predicate, **kwargs):
        reads.append((subject, predicate))
        return objects(self, subject, predicate, **kwargs)

    monkeypatch.setattr(KnowledgeBase, "objects", counting)
    gap = validator.capability_gap(kb, agent, behaviour)
    assert gap == (Code.ROLE_DEPRECATED_USE, stale)
    assert reads == [(agent, vocab.PLAY_ROLE)]


def _naive_capability(kb, agent, behaviour):
    """``check_capability`` and ``capability_gap`` read straight off the
    assertion list."""
    held = set(kb.assertions)
    if Assertion(agent, vocab.HAS_BEHAVIOUR, behaviour) in held:
        return validator.CapabilitySource(validator.CapabilityKind.INTRINSIC), None
    providing = [
        a.object
        for a in kb.assertions
        if a.subject == agent and a.predicate == vocab.PLAY_ROLE
        and Assertion(a.object, vocab.PROVIDES_BEHAVIOUR, behaviour) in held
    ]
    live = [
        r for r in providing
        if Assertion(r, vocab.RDF_TYPE, vocab.DEPRECATED_THING) not in held
    ]
    if live:
        source = validator.CapabilitySource(validator.CapabilityKind.VIA_ROLE, min(live))
        return source, None
    if providing:
        return None, (Code.ROLE_DEPRECATED_USE, min(providing))
    return None, (Code.PERFORMER_LACKS_CAPABILITY, behaviour)


def _random_capability_graph(rng):
    kb = KnowledgeBase()
    agents = [ex(f"agent{i}") for i in range(3)]
    behaviours = [ex(f"behaviour{i}") for i in range(3)]
    # names drawn out of order, so the lowest IRI is seldom the first played
    roles = [ex(f"role{n:02}") for n in rng.sample(range(100), 6)]
    for role in roles:
        if rng.random() < 0.4:
            kb.assert_membership(role, vocab.DEPRECATED_THING)
        for b in behaviours:
            if rng.random() < 0.5:
                kb.assert_property(role, vocab.PROVIDES_BEHAVIOUR, b)
    for agent in agents:
        for role in roles:
            if rng.random() < 0.5:
                kb.assert_property(agent, vocab.PLAY_ROLE, role)
        for b in behaviours:
            if rng.random() < 0.2:
                kb.assert_property(agent, vocab.HAS_BEHAVIOUR, b)
    return kb, agents, behaviours


def test_capability_matches_a_naive_scan():
    outcomes = set()
    for seed in range(40):
        kb, agents, behaviours = _random_capability_graph(random.Random(seed))
        for agent in agents:
            for b in behaviours:
                source, gap = _naive_capability(kb, agent, b)
                assert validator.check_capability(kb, agent, b) == source, seed
                assert validator.capability_gap(kb, agent, b) == gap, seed
                kind = source.kind if source else gap[0]
                named = source.role if source else gap[1]
                stale = kind is Code.ROLE_DEPRECATED_USE
                rivals = [
                    r for r in kb.objects(agent, vocab.PLAY_ROLE)
                    if Assertion(r, vocab.PROVIDES_BEHAVIOUR, b) in kb
                    and kb.entity(r).deprecated == stale
                ]
                tie = len(rivals) > 1 and rivals[0] != named
                outcomes.add((kind, tie))
    # own behaviour, live role, deprecated role and no providing role all
    # occur, and the lowest IRI wins over an equal role played before it
    assert outcomes >= {
        (validator.CapabilityKind.INTRINSIC, False),
        (validator.CapabilityKind.VIA_ROLE, True),
        (Code.ROLE_DEPRECATED_USE, True),
        (Code.PERFORMER_LACKS_CAPABILITY, False),
    }
