"""Shared table of graph corruptions and the violation each must raise.

Every entry takes a knowledge base holding the clean two-consumer lock
scenario (as produced by ``build_protocol_scenario`` with events) plus
its per-tag context, damages the graph in one specific way, and names
the violation code the validator is expected to report for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from oasiskg import (
    Assertion,
    Code,
    Iri,
    KnowledgeBase,
    LayerTag,
    deprecate_role,
    grant_role,
    realize_process,
)
from oasiskg.trees import walk_tree
from oasiskg import vocab


@dataclass(frozen=True)
class Mutation:
    name: str
    expected: Code
    apply: Callable[[KnowledgeBase, dict], None]


def _goal_of(kb: KnowledgeBase, root: Iri) -> Iri:
    return walk_tree(kb, root)[1]


def _plan_of_state(kb: KnowledgeBase, state: Iri) -> Iri:
    return kb.objects(state, vocab.IS_DESCRIBED_BY)[0]


def _remove_edge(kb: KnowledgeBase, s: Iri, p: Iri, o) -> None:
    assert Assertion(s, p, o) in kb, "mutation target edge missing"
    kb.remove(Assertion(s, p, o))


def _layer_mix(kb, ctx):
    kb.assert_membership(ctx["a"]["template"], LayerTag.EXECUTION.class_iri)


def _unknown_predicate(kb, ctx):
    kb.assert_property(kb.resolve("x"), kb.resolve("madeUpPredicate"), kb.resolve("y"))


def _layer_constraint(kb, ctx):
    # hasBehaviour must point into the behaviour layer, not at a template
    kb.assert_property(ctx["a"]["agent"], vocab.HAS_BEHAVIOUR, ctx["a"]["template"])


def _overload_cross_layer(kb, ctx):
    goal_a = _goal_of(kb, ctx["a"]["behaviour"])
    goal_b = _goal_of(kb, ctx["b"]["behaviour"])
    kb.assert_property(goal_a, vocab.term("overloadsGoalDescription"), goal_b)


def _submit_cross_layer(kb, ctx):
    plan = _plan_of_state(kb, kb.resolve("a_s1"))
    plan_goal = _goal_of(kb, plan)
    template_goal = _goal_of(kb, ctx["a"]["template"])
    kb.assert_property(
        plan_goal, vocab.term("goalDescriptionSubmittedTo"), template_goal
    )


def _drawnby_cross_layer(kb, ctx):
    exec_process = ctx["a"]["handle"].exec_process
    kb.assert_property(exec_process, vocab.PROCESS_DRAWN_BY, ctx["a"]["behaviour"])


def _structure_mismatch(kb, ctx):
    goal_b = _goal_of(kb, ctx["a"]["behaviour"])
    goal_t = _goal_of(kb, ctx["a"]["template"])
    _remove_edge(kb, goal_b, vocab.term("overloadsGoalDescription"), goal_t)


def _chain_no_initial(kb, ctx):
    proc = kb.resolve("consume_a_procedure")
    _remove_edge(kb, proc, vocab.PROC_CONSISTS_INITIAL, kb.resolve("a_s1"))


def _chain_no_final(kb, ctx):
    proc = kb.resolve("consume_a_procedure")
    _remove_edge(kb, proc, vocab.PROC_CONSISTS_FINAL, kb.resolve("a_s3"))


def _extra_state(kb: KnowledgeBase, name: str, cls: Iri) -> tuple[Iri, Iri]:
    """A new planning-layer state of class ``cls``, described by a_s1's
    plan, and the procedure it is to join."""
    state = kb.resolve(name)
    kb.assert_membership(state, cls)
    kb.assert_membership(state, LayerTag.PLANNING.class_iri)
    plan = _plan_of_state(kb, kb.resolve("a_s1"))
    kb.assert_property(state, vocab.IS_DESCRIBED_BY, plan)
    return kb.resolve("consume_a_procedure"), state


def _chain_multiple_initial(kb, ctx):
    proc, entry = _extra_state(kb, "a_s0", vocab.INITIAL_STATE)
    kb.assert_property(proc, vocab.PROC_CONSISTS_INITIAL, entry)


def _chain_multiple_final(kb, ctx):
    proc, exit_ = _extra_state(kb, "a_s2_exit", vocab.FINAL_STATE)
    kb.assert_property(proc, vocab.PROC_CONSISTS_FINAL, exit_)
    # reachable from the entry, so only the number of exits is wrong
    kb.assert_property(kb.resolve("a_s2"), vocab.HAS_FINAL_STATE, exit_)


def _chain_cycle(kb, ctx):
    kb.assert_property(
        kb.resolve("a_s3"), vocab.HAS_NEXT_NON_TERMINATING, kb.resolve("a_s2")
    )


def _chain_unreachable(kb, ctx):
    proc, island = _extra_state(kb, "a_s4", vocab.NON_TERMINATING_STATE)
    kb.assert_property(proc, vocab.PROC_CONSISTS_NON_TERMINATING, island)


def _state_layer_mix(kb, ctx):
    # the state that state-lost-its-plan and middle-also-final damage too,
    # so that combining them shows whether one check hides another
    kb.assert_membership(kb.resolve("a_s2"), LayerTag.EXECUTION.class_iri)


def _state_position_conflict(kb, ctx):
    kb.assert_membership(kb.resolve("a_s2"), vocab.FINAL_STATE)


def _state_without_plan(kb, ctx):
    s2 = kb.resolve("a_s2")
    _remove_edge(kb, s2, vocab.IS_DESCRIBED_BY, _plan_of_state(kb, s2))


def _exec_without_behaviour(kb, ctx):
    edge = kb.query(predicate=vocab.PLAN_EXECUTION_DRAWN_BY)[0]
    _remove_edge(kb, edge.subject, edge.predicate, edge.object)


def _performer_lacks_capability(kb, ctx):
    _remove_edge(kb, ctx["a"]["agent"], vocab.HAS_BEHAVIOUR, ctx["a"]["behaviour"])


def _role_deprecated_use(kb, ctx):
    # agent b realizes process a purely through a role, which then goes stale
    role = grant_role(
        kb, ctx["b"]["agent"], kb.resolve("Courier"), [ctx["a"]["behaviour"]]
    )
    assignment = {
        kb.resolve(f"a_s{i}"): (ctx["b"]["agent"], ctx["a"]["behaviour"])
        for i in (1, 2, 3)
    }
    realize_process(kb, ctx["a"]["process"], assignment)
    deprecate_role(kb, role)


def _event_without_action(kb, ctx):
    event = kb.resolve("a_modify_event")
    action = kb.objects(event, vocab.EVENT_DESCRIBED_BY_ACTION)[0]
    _remove_edge(kb, event, vocab.EVENT_DESCRIBED_BY_ACTION, action)


def _dangling_reference(kb, ctx):
    plan = _plan_of_state(kb, kb.resolve("a_s1"))
    task = walk_tree(kb, plan)[2]
    kb.assert_property(task, vocab.DEPENDS_ON, kb.resolve("ghost"))


MUTATIONS: tuple[Mutation, ...] = (
    Mutation("template-also-tagged-execution", Code.LAYER_MIX, _layer_mix),
    Mutation("state-also-tagged-execution", Code.LAYER_MIX, _state_layer_mix),
    Mutation("made-up-predicate", Code.UNKNOWN_PREDICATE, _unknown_predicate),
    Mutation("agent-owns-a-template", Code.LAYER_CONSTRAINT, _layer_constraint),
    Mutation(
        "overload-between-behaviours", Code.OVERLOAD_CROSS_LAYER, _overload_cross_layer
    ),
    Mutation(
        "submission-aimed-at-template", Code.SUBMIT_CROSS_LAYER, _submit_cross_layer
    ),
    Mutation(
        "execution-drawn-by-behaviour", Code.DRAWNBY_CROSS_LAYER, _drawnby_cross_layer
    ),
    Mutation(
        "derived-goal-unlinked", Code.STRUCTURE_MISMATCH, _structure_mismatch
    ),
    Mutation("chain-missing-entry", Code.CHAIN_NO_INITIAL, _chain_no_initial),
    Mutation("chain-missing-exit", Code.CHAIN_NO_FINAL, _chain_no_final),
    Mutation("chain-two-entries", Code.CHAIN_MULTIPLE_INITIAL, _chain_multiple_initial),
    Mutation("chain-two-exits", Code.CHAIN_MULTIPLE_FINAL, _chain_multiple_final),
    Mutation("chain-loops-back", Code.CHAIN_CYCLE, _chain_cycle),
    Mutation("chain-island-state", Code.CHAIN_UNREACHABLE_STATE, _chain_unreachable),
    Mutation("state-lost-its-plan", Code.STATE_WITHOUT_PLAN, _state_without_plan),
    Mutation("middle-also-final", Code.STATE_POSITION_CONFLICT, _state_position_conflict),
    Mutation(
        "execution-lost-its-source", Code.EXEC_WITHOUT_BEHAVIOUR, _exec_without_behaviour
    ),
    Mutation(
        "performer-lost-the-behaviour",
        Code.PERFORMER_LACKS_CAPABILITY,
        _performer_lacks_capability,
    ),
    Mutation("performer-role-went-stale", Code.ROLE_DEPRECATED_USE, _role_deprecated_use),
    Mutation("event-lost-its-action", Code.EVENT_WITHOUT_ACTION, _event_without_action),
    Mutation("edge-into-nothing", Code.DANGLING_REFERENCE, _dangling_reference),
)
