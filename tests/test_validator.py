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
from oasiskg.builder import clone_tree, walk_tree
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
        region = validator._findings(kb, validator._reach(kb, kb.journal))
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
