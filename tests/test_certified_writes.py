"""Which findings an engine call can raise on a clean graph, code by code.

``realize_process`` and ``ProcessHandle.step`` clear their own journal
entries when the call began with the journal ``[]`` (the graph was
clean) and every node it cloned is canonical (``engine._certify``).  The
next ``validate`` then re-checks nothing, so the writes of such a call
must not be able to make a clean graph dirty.

``EVIDENCE`` holds one row per finding code and call.  A ``Cannot`` row
says why the call cannot raise the code on a clean graph.  A ``Can``
row names the condition under which the engine keeps the call's entries
and carries a witness: a clean graph on which the call does raise the
code.  The witnesses show each condition is needed.  Seeded runs on the
benchmark's growth mix and on protocol graphs, with a whole-graph pass
after every certified call, back the ``Cannot`` rows.  A differential
run compares every ``validate`` result with the always-journaled path,
with outside writes between the engine calls.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pytest

from oasiskg import (
    Assertion,
    Code,
    KnowledgeBase,
    LayerTag,
    ModelError,
    build_process,
    build_template,
    declare_agent,
    deprecate_role,
    derive_behaviour,
    grant_role,
    realize_process,
    validate,
)
from oasiskg import engine, vocab
from oasiskg.trees import procedure_order, state_chain
from oasiskg.vocab import RDF_TYPE

from conftest import (
    build_protocol_scenario,
    consumer_template,
    load_benchmark_module,
    protocol_process_spec,
    random_process_spec,
    whole_graph_pass,
)
from mutations import MUTATIONS
from tree_oracle import walk_tree

gen = load_benchmark_module("gen")
workloads = load_benchmark_module("workloads")

# ---------------------------------------------------------------------------
# Witnesses: clean graphs on which a call raises a code
# ---------------------------------------------------------------------------

#: a witness builds a clean graph in an empty store and returns the call
Witness = Callable[[KnowledgeBase], Callable[[], object]]


def _consumer_a(kb: KnowledgeBase):
    """The protocol scenario's consumer a, with its event, built but not
    realized: its process and a full assignment."""
    kb.declare_class(kb.resolve("Resource"))
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    agent = declare_agent(kb, kb.resolve("agent_a"))
    behaviour = derive_behaviour(kb, build_template(kb, consumer_template("a")), agent)
    process = build_process(kb, protocol_process_spec("a", with_event=True))
    return process, {kb.resolve(f"a_s{i}"): (agent, behaviour) for i in (1, 2, 3)}


def _plan_node(kb: KnowledgeBase, state: str, depth: int):
    """The node at ``depth`` of a state's plan walk: 0 plan, 1 goal, 2 task."""
    plan = kb.objects(kb.resolve(state), vocab.IS_DESCRIBED_BY)[0]
    return walk_tree(kb, plan)[depth]


def _notify_task(kb: KnowledgeBase):
    return kb.objects(kb.resolve("a_modify_event"), vocab.EVENT_DESCRIBED_BY_ACTION)[0]


def _retype(kb, node, cls, *edges) -> None:
    """Give ``node`` the class ``cls`` and the edges ``(predicate, object)``
    that class needs to be clean."""
    kb.assert_membership(node, cls)
    for predicate, obj in edges:
        kb.assert_property(node, predicate, obj)


def _retyped(kb, node, cls) -> None:
    """``node`` typed ``cls`` too, with what that class needs on a clean
    graph: an action for an event, a plan for a state, a chain for a
    procedure (the start and end of consumer a's); other classes need
    nothing."""
    needs = {
        vocab.EVENT: [(vocab.EVENT_DESCRIBED_BY_ACTION, _notify_task(kb))],
        vocab.NON_TERMINATING_STATE: [(vocab.IS_DESCRIBED_BY, _plan_node(kb, "a_s1", 0))],
        vocab.PROCEDURE: [
            (vocab.PROC_CONSISTS_INITIAL, kb.resolve("a_s1")),
            (vocab.PROC_CONSISTS_FINAL, kb.resolve("a_s3")),
        ],
    }
    _retype(kb, node, cls, *needs.get(cls, ()))


def realize_with_plan_node_typed(cls, depth: int) -> Witness:
    """Realize consumer a after a node of a_s1's plan is typed ``cls`` too."""

    def witness(kb):
        process, assignment = _consumer_a(kb)
        _retyped(kb, _plan_node(kb, "a_s1", depth), cls)
        return lambda: realize_process(kb, process, assignment)

    return witness


def _realized_a(kb):
    """Consumer a realized and stepped up to the state with the event."""
    process, assignment = _consumer_a(kb)
    handle = realize_process(kb, process, assignment)
    handle.step()
    return handle


def step_with_action_typed(cls) -> Witness:
    """Fire a_s2's event after its action is typed ``cls`` too."""

    def witness(kb):
        handle = _realized_a(kb)
        _retyped(kb, _notify_task(kb), cls)
        return handle.step

    return witness


def _swap(kb, subject, old_predicate, new_predicate, obj) -> None:
    kb.remove(Assertion(subject, old_predicate, obj))
    kb.assert_property(subject, new_predicate, obj)


def realize_with_middle_state_typed(cls) -> Witness:
    """Realize consumer a after its middle state is typed ``cls`` instead of
    non-terminating, joined through the plain chain edges that allow it:
    the clean source chain still has one entry and one exit, its clone
    has two of one kind."""

    def witness(kb):
        process, assignment = _consumer_a(kb)
        proc, s1, s2 = (kb.resolve(n) for n in ("consume_a_procedure", "a_s1", "a_s2"))
        kb.remove(Assertion(s2, RDF_TYPE, vocab.NON_TERMINATING_STATE))
        kb.assert_membership(s2, cls)
        _swap(kb, proc, vocab.PROC_CONSISTS_NON_TERMINATING, vocab.PROC_CONSISTS_STATE, s2)
        _swap(kb, s1, vocab.HAS_NEXT_NON_TERMINATING, vocab.HAS_NEXT, s2)
        return lambda: realize_process(kb, process, assignment)

    return witness


def realize_a_chain_that_branches(kb):
    """Realize consumer a after a_s1 gains a first successor with no way
    on: the source chain still reaches its final state, the walk that
    realization clones ends before it."""
    process, assignment = _consumer_a(kb)
    proc, s1, s2 = (kb.resolve(n) for n in ("consume_a_procedure", "a_s1", "a_s2"))
    branch = kb.resolve("a_branch")
    _retype(kb, branch, vocab.NON_TERMINATING_STATE,
            (vocab.IS_DESCRIBED_BY, _plan_node(kb, "a_s1", 0)))
    kb.assert_membership(branch, LayerTag.PLANNING.class_iri)
    kb.assert_property(proc, vocab.PROC_CONSISTS_NON_TERMINATING, branch)
    kb.remove(Assertion(s1, vocab.HAS_NEXT_NON_TERMINATING, s2))
    kb.assert_property(s1, vocab.HAS_NEXT_NON_TERMINATING, branch)
    kb.assert_property(s1, vocab.HAS_NEXT_NON_TERMINATING, s2)  # now the second
    assignment[branch] = assignment[s1]
    return lambda: realize_process(kb, process, assignment)


def step_after_the_realization_is_taken_back(kb):
    """Remove everything realizing consumer a wrote: the graph is the clean
    one it was, and the handle's realized states are untyped."""
    process, assignment = _consumer_a(kb)
    before = set(kb.assertions)
    handle = realize_process(kb, process, assignment)
    handle.step()
    for a in [a for a in kb.assertions if a not in before]:
        kb.remove(a)
    return handle.step


# ---------------------------------------------------------------------------
# The evidence table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cannot:
    """The call cannot raise the code on a clean graph, for ``reason``."""

    reason: str


@dataclass(frozen=True)
class Can:
    """The call can raise the code on a clean graph; the engine keeps the
    call's entries when ``condition`` holds, and ``witness`` is a case."""

    condition: str
    witness: Witness


_PLAN_NODE = "a plan-tree node typed with more than the planning class and its tree class"
_ACTION_NODE = "an action node typed with more than the planning class and its tree class"
_POSITION = "a state typed with other classes than its place in the chain needs"
_NO_CHAIN_EDGE = "step writes no chain edge"
_FRESH_ONLY = (
    "no edge of that family is written, and only fresh clones gain classes, "
    "so no existing edge changes its endpoints"
)
_RETRACED = (
    "clone_tree re-emits every child edge the tree walk read between the clones, "
    "and links each node through the member its tree class names, as check_mirror expects"
)

EVIDENCE: dict[Code, dict[str, Cannot | Can]] = {
    Code.LAYER_MIX: {
        "realize": Cannot("a clone carries the execution class and no other layer class"),
        "step": Cannot("a clone carries the execution class and no other layer class"),
    },
    Code.UNKNOWN_PREDICATE: {
        "realize": Cannot("every predicate written is declared in vocab"),
        "step": Cannot("every predicate written is declared in vocab"),
    },
    Code.LAYER_CONSTRAINT: {
        "realize": Can(
            f"{_POSITION}; a source outside the planning layer is refused",
            realize_with_middle_state_typed(vocab.INITIAL_STATE),
        ),
        "step": Can(
            "a realized state that is no longer typed a state; an event or "
            "action node outside the planning layer is refused",
            step_after_the_realization_is_taken_back,
        ),
    },
    Code.OVERLOAD_CROSS_LAYER: {"realize": Cannot(_FRESH_ONLY), "step": Cannot(_FRESH_ONLY)},
    Code.SUBMIT_CROSS_LAYER: {"realize": Cannot(_FRESH_ONLY), "step": Cannot(_FRESH_ONLY)},
    Code.DRAWNBY_CROSS_LAYER: {
        "realize": Cannot(
            "a process or procedure outside the planning layer is refused, and "
            "the behaviour passed the capability gate, whose edges a clean "
            "graph keeps in the behaviour layer"
        ),
        "step": Cannot("step writes no drawnBy edge"),
    },
    Code.STRUCTURE_MISMATCH: {"realize": Cannot(_RETRACED), "step": Cannot(_RETRACED)},
    Code.CHAIN_NO_INITIAL: {
        "realize": Can(_PLAN_NODE, realize_with_plan_node_typed(vocab.PROCEDURE, 2)),
        "step": Can(_ACTION_NODE, step_with_action_typed(vocab.PROCEDURE)),
    },
    Code.CHAIN_NO_FINAL: {
        "realize": Can(f"{_POSITION}, or {_PLAN_NODE}", realize_a_chain_that_branches),
        "step": Can(_ACTION_NODE, step_with_action_typed(vocab.PROCEDURE)),
    },
    Code.CHAIN_MULTIPLE_INITIAL: {
        "realize": Can(_POSITION, realize_with_middle_state_typed(vocab.INITIAL_STATE)),
        "step": Cannot(_NO_CHAIN_EDGE),
    },
    Code.CHAIN_MULTIPLE_FINAL: {
        "realize": Can(_POSITION, realize_with_middle_state_typed(vocab.FINAL_STATE)),
        "step": Cannot(_NO_CHAIN_EDGE),
    },
    Code.CHAIN_CYCLE: {
        "realize": Cannot("a realized chain is a path through fresh clones"),
        "step": Cannot(_NO_CHAIN_EDGE),
    },
    Code.CHAIN_UNREACHABLE_STATE: {
        "realize": Cannot("a realized procedure holds exactly the states on its path"),
        "step": Cannot(_NO_CHAIN_EDGE),
    },
    Code.STATE_WITHOUT_PLAN: {
        "realize": Can(
            _PLAN_NODE, realize_with_plan_node_typed(vocab.NON_TERMINATING_STATE, 2)
        ),
        "step": Can(_ACTION_NODE, step_with_action_typed(vocab.NON_TERMINATING_STATE)),
    },
    Code.STATE_POSITION_CONFLICT: {
        "realize": Cannot("a clone carries its source's classes, which are not in conflict"),
        "step": Cannot("a clone carries its source's classes, which are not in conflict"),
    },
    Code.EXEC_WITHOUT_BEHAVIOUR: {
        "realize": Can(_PLAN_NODE, realize_with_plan_node_typed(vocab.BEHAVIOUR, 1)),
        "step": Can(_ACTION_NODE, step_with_action_typed(vocab.BEHAVIOUR)),
    },
    Code.PERFORMER_LACKS_CAPABILITY: {
        "realize": Cannot("the capability gate raises before the first write"),
        "step": Cannot("step writes no performs, drawnBy or capability edge"),
    },
    Code.ROLE_DEPRECATED_USE: {
        "realize": Cannot("the capability gate raises before the first write"),
        "step": Cannot("step writes no performs, drawnBy or capability edge"),
    },
    Code.EVENT_WITHOUT_ACTION: {
        "realize": Can(_PLAN_NODE, realize_with_plan_node_typed(vocab.EVENT, 2)),
        "step": Can(_ACTION_NODE, step_with_action_typed(vocab.EVENT)),
    },
    Code.DANGLING_REFERENCE: {
        "realize": Cannot(
            "every endpoint written is typed: the clones, and the agent and "
            "behaviour, which the capability edges of a clean graph type"
        ),
        "step": Can(
            "a realized state that is no longer typed a state",
            step_after_the_realization_is_taken_back,
        ),
    },
}

CAN_ROWS = [
    pytest.param(code, call, row, id=f"{code.value}-{call}")
    for code, rows in EVIDENCE.items()
    for call, row in rows.items()
    if isinstance(row, Can)
]


def test_every_code_has_a_row_for_each_call():
    assert list(EVIDENCE) == list(Code)
    for code, rows in EVIDENCE.items():
        assert set(rows) == {"realize", "step"}, code
        assert all(
            isinstance(row, Cannot) and row.reason or isinstance(row, Can) and row.condition
            for row in rows.values()
        ), code


def _spy(monkeypatch) -> list[tuple[bool, bool]]:
    """Record what ``engine._certify`` is asked, and let it act."""
    calls = []
    real = engine._certify

    def certify(kb, clean, canonical):
        calls.append((clean, canonical))
        real(kb, clean, canonical)

    monkeypatch.setattr(engine, "_certify", certify)
    return calls


@pytest.mark.parametrize("code, call, row", CAN_ROWS)
def test_a_call_that_can_raise_the_code_keeps_its_entries(code, call, row, monkeypatch):
    kb = KnowledgeBase()
    act = row.witness(kb)
    assert validate(kb) == [] and kb.journal == []
    decisions = _spy(monkeypatch)
    act()
    assert decisions == [(True, False)]  # began clean, and was not certified
    expected = whole_graph_pass(kb)
    assert code in {v.code for v in expected}
    assert validate(kb) == expected


# ---------------------------------------------------------------------------
# Seeded runs: a whole-graph pass after every certified call
# ---------------------------------------------------------------------------


def _realize_and_step(kb, process, assignment, decisions) -> int:
    """Realize and step to the end on a graph the builder made: the engine
    certifies every call, and the whole graph is clean after each one.
    Returns the number of calls."""
    start = len(decisions)
    calls = 0

    def check():
        nonlocal calls
        calls += 1
        assert decisions[start:] == [(True, True)] * calls
        assert whole_graph_pass(kb) == []

    handle = realize_process(kb, process, assignment)
    check()
    while not handle.completed:
        handle.step()
        check()
    return calls


@pytest.mark.parametrize("seed", [7, 58])
def test_certified_calls_leave_the_growth_mix_clean(seed, monkeypatch):
    decisions = _spy(monkeypatch)
    kb = KnowledgeBase()
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    work = []
    for item in gen.growth_mix(random.Random(seed))[:24]:
        agent = declare_agent(kb, kb.resolve(f"agent_{item.tag}"))
        behaviour = derive_behaviour(
            kb, build_template(kb, gen.consumer_template(item.tag)), agent
        )
        process = build_process(kb, item.spec)
        states = [kb.resolve(s) for s in gen.state_names(item.spec)]
        work.append((process, {s: (agent, behaviour) for s in states}))
    assert sum(_realize_and_step(kb, *w, decisions) for w in work) > 24


def _benchmark_round(seed: int, tmp_path, before_each=None):
    """Set up and run one round of the benchmark's ``realize_growth``
    workload, calling ``before_each(kb)`` before each realization; the
    round's state and what the workload's own check makes of it."""
    workload = workloads.RealizeGrowth(seed, tmp_path)
    state = workload.setup()
    with pytest.MonkeyPatch.context() as patched:
        if before_each is not None:
            real = engine.realize_process

            def realize(kb, process, assignment):
                before_each(kb)
                return real(kb, process, assignment)

            patched.setattr(engine, "realize_process", realize)
        ops = workload.round(state, probe=lambda: 0.0)
    return state, workload.check(state, ops)


def test_the_benchmark_round_realizes_a_clean_graph(tmp_path, monkeypatch):
    """The benchmark's realize_growth round, as it runs.  Its own check
    calls ``validate`` with the journal the round leaves, which after
    certified calls is ``[]``, so that call checks nothing.  Here a
    whole-graph pass is clean before every realization (so after the one
    before it and its steps) and after the round, and the round's outputs
    and realized graph (the check's digest) are those of the
    always-journaled path."""
    decisions = _spy(monkeypatch)
    passes = []
    (kb, _), checked = _benchmark_round(
        7, tmp_path, lambda kb: passes.append(whole_graph_pass(kb))
    )
    passes.append(whole_graph_pass(kb))
    assert len(passes) == 49 and all(found == [] for found in passes)
    assert len(decisions) > 48 and set(decisions) == {(True, True)}
    assert kb.journal == []
    assert not any(checked.failed) and checked.problems == []
    monkeypatch.setattr(engine, "_certify", lambda kb, clean, canonical: None)
    _, journaled = _benchmark_round(7, tmp_path)
    assert not any(journaled.failed) and journaled.problems == []
    assert journaled.digest == checked.digest


def test_certified_calls_leave_protocol_graphs_clean(monkeypatch):
    decisions = _spy(monkeypatch)
    calls = 0
    for seed in range(6):
        rng = random.Random(seed)
        kb = KnowledgeBase()
        build_protocol_scenario(kb, tags=("a", "b"), with_events=True)
        helper = declare_agent(kb, kb.resolve("helper"))
        for n in range(3):
            tag = f"r{n}"
            agent = declare_agent(kb, kb.resolve(f"agent_{tag}"))
            behaviour = derive_behaviour(kb, build_template(kb, consumer_template(tag)), agent)
            process = build_process(kb, random_process_spec(rng, tag))
            if rng.random() < 0.5:  # capability through a live role
                grant_role(kb, helper, kb.resolve("Courier"), [behaviour])
                agent = helper
            states = [s for p in procedure_order(kb, process) for s in state_chain(kb, p)]
            calls += _realize_and_step(
                kb, process, {s: (agent, behaviour) for s in states}, decisions
            )
    assert calls >= 30


# ---------------------------------------------------------------------------
# Differential: the certified path against the always-journaled one
# ---------------------------------------------------------------------------

#: classes an outside write adds to a source before it is realized
EXTRA_CLASSES = (
    vocab.EVENT,
    vocab.BEHAVIOUR,
    vocab.PROCEDURE,
    vocab.NON_TERMINATING_STATE,
    vocab.INITIAL_STATE,
    vocab.FINAL_STATE,
    vocab.DEPRECATED_THING,
    vocab.AGENT,
    LayerTag.EXECUTION.class_iri,
)


#: what happens around each realization, in turn
EPISODES = ("retype", "plain", "deprecate", "retype", "mutation")


def _sources(kb, process) -> list:
    """Every node realizing ``process`` and stepping it would clone."""
    nodes = [process]
    for proc in procedure_order(kb, process):
        nodes.append(proc)
        for state in state_chain(kb, proc):
            nodes.append(state)
            for plan in kb.objects(state, vocab.IS_DESCRIBED_BY):
                nodes.extend(walk_tree(kb, plan))
            for event in kb.objects(state, vocab.TRIGGERS_EVENT):
                nodes.append(event)
                for action in kb.objects(event, vocab.EVENT_DESCRIBED_BY_ACTION):
                    nodes.extend(walk_tree(kb, action))
    return nodes


def _sequence(seed: int) -> list:
    """Realize a slice of the growth mix in turn, with outside writes
    between the calls, and record every call's outcome and every
    ``validate`` after it."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    ctx = build_protocol_scenario(kb, tags=("a", "b"), with_events=True)
    helper = declare_agent(kb, kb.resolve("helper"))
    log: list = []

    def record(what, result) -> None:
        log.append((what, result, [v.render() for v in validate(kb)]))

    for i, item in enumerate(gen.growth_mix(random.Random(seed))[:15]):
        agent = declare_agent(kb, kb.resolve(f"agent_{item.tag}"))
        behaviour = derive_behaviour(kb, build_template(kb, gen.consumer_template(item.tag)), agent)
        process = build_process(kb, item.spec)
        record("build", item.tag)
        kind = EPISODES[i % len(EPISODES)]
        before = dict.fromkeys(kb.assertions)
        role = None
        if kind == "deprecate":
            role = grant_role(kb, helper, kb.resolve("Courier"), [behaviour])
            agent = helper
            record("grant", role.value)
        elif kind == "retype":
            node = rng.choice(_sources(kb, process))
            cls = rng.choice(EXTRA_CLASSES)
            _retyped(kb, node, cls)
            record("retype", (node.value, cls.value))
        states = [kb.resolve(s) for s in gen.state_names(item.spec)]
        try:
            handle = realize_process(kb, process, {s: (agent, behaviour) for s in states})
        except ModelError as err:
            record("realize", ("refused", type(err).__name__))
            handle = None
        else:
            record("realize", ("realized", handle.exec_process.value))
        while handle is not None and not handle.completed:
            record("step", handle.step().trace_line())
            if role is not None:
                deprecate_role(kb, role)
                record("deprecate", role.value)
                role = None
        if kind == "mutation":
            mutation = rng.choice(MUTATIONS)
            mutation.apply(kb, ctx)
            record("mutation", mutation.name)
        if kind != "plain":  # take the episode back, clean again
            for a in [a for a in kb.assertions if a not in before]:
                kb.remove(a)
            for a in before:
                kb.load(((a.subject, a.predicate, a.object),))
            record("revert", kind)
    return log


@pytest.mark.parametrize("seed", [7, 31, 57])
def test_certified_and_always_journaled_paths_validate_alike(seed, monkeypatch):
    decisions = _spy(monkeypatch)
    certified = _sequence(seed)
    monkeypatch.setattr(engine, "_certify", lambda kb, clean, canonical: None)
    journaled = _sequence(seed)
    assert certified == journaled
    taken = Counter(clean and canonical for clean, canonical in decisions)
    assert taken[True] >= 20 and taken[False] >= 3  # cleared and kept
    # a realization the engine did not certify, whose clones were dirty
    assert any(
        what == "realize" and result[0] == "realized" and found
        for what, result, found in certified
    )
