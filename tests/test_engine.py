from __future__ import annotations

import json
from collections import Counter

import pytest

from oasiskg import (
    Assertion,
    BehaviourSpec,
    GoalSpec,
    Iri,
    KnowledgeBase,
    LayerTag,
    ProcedureSpec,
    ProcessSpec,
    Ref,
    StateSpec,
    TaskSpec,
    build_process,
    build_template,
    declare_agent,
    deprecate_role,
    derive_behaviour,
    export_canonical,
    grant_role,
    import_turtle,
    realize_process,
    validate,
)
from oasiskg import engine
from oasiskg.engine import (
    AssignmentIncomplete,
    CursorCompleted,
    NotAProcess,
    OutsidePlanningLayer,
    PerformerLacksCapability,
    RoleDeprecatedUse,
    ValidationFailed,
    procedure_order,
    state_chain,
)
from oasiskg import vocab
from oasiskg.vocab import RDF_TYPE

from conftest import (
    build_protocol_scenario,
    consumer_template,
    count_edge_reads,
    lock_step_plan,
    protocol_process_spec,
    store_state,
)
import tree_oracle
from tree_oracle import walk_tree


def ex(local: str) -> Iri:
    return Iri("http://example.org/" + local)


@pytest.fixture
def scenario(kb):
    return build_protocol_scenario(kb, tags=("a",), with_events=True)["a"]


# ---------------------------------------------------------------------------
# Realization structure
# ---------------------------------------------------------------------------


def test_realize_creates_an_execution_process(kb, scenario):
    handle = scenario["handle"]
    root = handle.exec_process
    assert kb.has_class(root, vocab.PROCESS)
    assert kb.entity(root).layer is LayerTag.EXECUTION
    assert kb.objects(root, vocab.PROCESS_DRAWN_BY) == [scenario["process"]]
    procs = kb.objects(root, vocab.CONSISTS_OF_PROCEDURE)
    assert len(procs) == 1
    assert kb.entity(procs[0]).layer is LayerTag.EXECUTION
    assert kb.objects(procs[0], vocab.PROCEDURE_DRAWN_BY) == [
        ex("consume_a_procedure")
    ]


def test_realize_mirrors_the_state_chain(kb, scenario):
    handle = scenario["handle"]
    assert [r.planning_state for r in handle.records] == [
        ex("a_s1"),
        ex("a_s2"),
        ex("a_s3"),
    ]
    exec_states = [r.exec_state for r in handle.records]
    assert kb.has_class(exec_states[0], vocab.INITIAL_STATE)
    assert kb.has_class(exec_states[1], vocab.NON_TERMINATING_STATE)
    assert kb.has_class(exec_states[2], vocab.FINAL_STATE)
    assert kb.objects(exec_states[0], vocab.HAS_NEXT_NON_TERMINATING) == [
        exec_states[1]
    ]
    assert kb.objects(exec_states[1], vocab.HAS_FINAL_STATE) == [exec_states[2]]
    exec_proc = kb.objects(handle.exec_process, vocab.CONSISTS_OF_PROCEDURE)[0]
    assert kb.objects(exec_proc, vocab.PROC_CONSISTS_INITIAL) == [exec_states[0]]
    assert kb.objects(exec_proc, vocab.PROC_CONSISTS_FINAL) == [exec_states[2]]


def test_realize_chains_one_and_two_state_procedures_like_the_plan(kb):
    agent = declare_agent(kb, ex("agent_short"))
    template = build_template(kb, consumer_template("short"))
    behaviour = derive_behaviour(kb, template, agent)
    steps = {"short_p1": ("request",), "short_p2": ("modify", "release")}
    spec = ProcessSpec(
        name="short_process",
        procedures=tuple(
            ProcedureSpec(
                name=proc,
                states=tuple(
                    StateSpec(name=f"{proc}_{step}", plan=lock_step_plan(proc, step))
                    for step in kinds
                ),
            )
            for proc, kinds in steps.items()
        ),
    )
    process = build_process(kb, spec)
    assignment = {
        ex(f"{proc}_{step}"): (agent, behaviour)
        for proc, kinds in steps.items()
        for step in kinds
    }
    handle = realize_process(kb, process, assignment)
    exec_of = {r.planning_state: r.exec_state for r in handle.records}
    exec_procs = kb.objects(handle.exec_process, vocab.CONSISTS_OF_PROCEDURE)
    assert len(exec_procs) == 2
    for proc, exec_proc in zip(procedure_order(kb, process), exec_procs):
        states = state_chain(kb, proc)
        exec_states = state_chain(kb, exec_proc)
        assert exec_states == [exec_of[s] for s in states]
        for pred in (
            vocab.PROC_CONSISTS_INITIAL,
            vocab.PROC_CONSISTS_FINAL,
            vocab.PROC_CONSISTS_NON_TERMINATING,
        ):
            planned = [states.index(o) for o in kb.objects(proc, pred)]
            realized = [exec_states.index(o) for o in kb.objects(exec_proc, pred)]
            assert realized == planned
        for state, exec_state in zip(states, exec_states):
            for pred in (vocab.HAS_FINAL_STATE, vocab.HAS_NEXT_NON_TERMINATING):
                planned = [states.index(o) for o in kb.objects(state, pred)]
                realized = [
                    exec_states.index(o) for o in kb.objects(exec_state, pred)
                ]
                assert realized == planned

    single = exec_of[ex("short_p1_request")]
    first, second = exec_of[ex("short_p2_modify")], exec_of[ex("short_p2_release")]
    assert kb.objects(exec_procs[0], vocab.PROC_CONSISTS_INITIAL) == [single]
    assert kb.objects(exec_procs[0], vocab.PROC_CONSISTS_FINAL) == [single]
    assert kb.objects(exec_procs[0], vocab.PROC_CONSISTS_NON_TERMINATING) == []
    assert kb.objects(first, vocab.HAS_FINAL_STATE) == [second]
    assert kb.objects(first, vocab.HAS_NEXT_NON_TERMINATING) == []
    assert kb.objects(exec_procs[1], vocab.PROC_CONSISTS_INITIAL) == [first]
    assert kb.objects(exec_procs[1], vocab.PROC_CONSISTS_FINAL) == [second]
    assert validate(kb) == []


def test_realize_links_each_plan_to_one_execution(kb, scenario):
    handle = scenario["handle"]
    assert len(kb.query(predicate=vocab.HAS_PLAN_EXECUTION)) == 3
    assert len(kb.query(predicate=vocab.PERFORMS_PLAN_EXECUTION)) == 3
    assert len(kb.query(predicate=vocab.PLAN_EXECUTION_DRAWN_BY)) == 3
    for record in handle.records:
        plan = kb.objects(record.planning_state, vocab.IS_DESCRIBED_BY)[0]
        assert kb.objects(plan, vocab.HAS_PLAN_EXECUTION) == [record.plan_exec]
        assert kb.objects(record.exec_state, vocab.IS_DESCRIBED_BY) == [
            record.plan_exec
        ]
        assert kb.objects(record.plan_exec, vocab.PLAN_EXECUTION_DRAWN_BY) == [
            record.behaviour
        ]
        assert kb.objects(record.agent, vocab.PERFORMS_PLAN_EXECUTION, entail=False)
        # every node of the plan tree has an execution counterpart
        plan_nodes = walk_tree(kb, plan)
        exec_nodes = walk_tree(kb, record.plan_exec)
        assert len(plan_nodes) == len(exec_nodes)
        for node in plan_nodes:
            hits = [
                o
                for o in kb.objects(node, vocab.HAS_EXECUTION, entail=True)
                if o in set(exec_nodes)
            ]
            assert len(hits) == 1
    assert validate(kb) == []


def test_realized_graph_repeats_deterministically():
    first = KnowledgeBase()
    build_protocol_scenario(first, with_events=True)
    second = KnowledgeBase()
    build_protocol_scenario(second, with_events=True)
    assert export_canonical(first) == export_canonical(second)


def test_realize_works_on_an_imported_graph(kb, tmp_path):
    declare_agent(kb, ex("agent_a"))
    kb.declare_class(kb.resolve("Resource"))
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    template = build_template(
        kb,
        BehaviourSpec(
            name="tpl",
            goals=(
                GoalSpec(
                    name="tpl_g",
                    tasks=(TaskSpec(name="tpl_t", operator_action=Ref.exact("act")),),
                ),
            ),
        ),
    )
    behaviour = derive_behaviour(kb, template, ex("agent_a"))
    process = build_process(kb, protocol_process_spec("a"))
    text = export_canonical(kb)

    other = KnowledgeBase()
    import_turtle(other, text)
    assignment = {
        other.resolve(f"a_s{i}"): (ex("agent_a"), behaviour) for i in (1, 2, 3)
    }
    handle = realize_process(other, other.resolve("consume_a_process"), assignment)
    assert [r.planning_state.local for r in handle.records] == ["a_s1", "a_s2", "a_s3"]
    assert validate(other) == []


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def test_realize_refuses_an_invalid_graph(kb, scenario):
    kb.assert_membership(scenario["template"], LayerTag.EXECUTION.class_iri)
    with pytest.raises(ValidationFailed) as err:
        realize_process(kb, scenario["process"], {})
    assert err.value.violations


def test_realize_requires_a_planning_process(kb, scenario):
    with pytest.raises(NotAProcess):
        realize_process(kb, scenario["behaviour"], {})
    with pytest.raises(NotAProcess):
        realize_process(kb, ex("nothing"), {})


@pytest.mark.parametrize(
    "where, layer",
    [
        ("plan", None),
        ("procedure", None),
        ("state", LayerTag.TEMPLATE),
        ("task", None),
    ],
)
def test_realize_refuses_what_it_would_clone_outside_the_planning_layer(kb, where, layer):
    """A plan, procedure, state or plan task moved out of the planning
    layer leaves the graph clean, so realize itself refuses it, naming the
    node, before anything is written.  Without the refusal the realized
    graph would not validate: a plan's hasPlanExecution and a procedure's
    procedureDrawnBy need a planning-layer source."""
    agent = declare_agent(kb, ex("agent_a"))
    behaviour = derive_behaviour(kb, build_template(kb, consumer_template("a")), agent)
    process = build_process(kb, protocol_process_spec("a"))
    plan = kb.objects(ex("a_s1"), vocab.IS_DESCRIBED_BY)[0]
    node = {
        "plan": plan,
        "procedure": ex("consume_a_procedure"),
        "state": ex("a_s2"),
        "task": walk_tree(kb, plan)[2],
    }[where]
    kb.remove(Assertion(node, RDF_TYPE, LayerTag.PLANNING.class_iri))
    if layer is not None:
        kb.assert_membership(node, layer.class_iri)
    assert validate(kb) == []
    before = list(kb.assertions)
    assignment = {ex(f"a_s{i}"): (agent, behaviour) for i in (1, 2, 3)}
    with pytest.raises(OutsidePlanningLayer) as err:
        realize_process(kb, process, assignment)
    assert err.value.iri == node
    assert str(err.value) == f"not a planning-layer node: {node}"
    assert list(kb.assertions) == before


@pytest.mark.parametrize("where", ["event", "action", "operator"])
def test_step_refuses_an_event_node_outside_the_planning_layer(kb, where):
    """An event or a node of its action moved out of the planning layer
    leaves the graph clean, so step itself refuses it, naming the node,
    before anything is written and before the cursor moves.  Without the
    refusal the fired clones would not validate."""
    agent = declare_agent(kb, ex("agent_a"))
    behaviour = derive_behaviour(kb, build_template(kb, consumer_template("a")), agent)
    process = build_process(kb, protocol_process_spec("a", with_event=True))
    handle = realize_process(kb, process, {ex(f"a_s{i}"): (agent, behaviour) for i in (1, 2, 3)})
    handle.step()
    event = ex("a_modify_event")
    action = kb.objects(event, vocab.EVENT_DESCRIBED_BY_ACTION)[0]
    node = {"event": event, "action": action, "operator": walk_tree(kb, action)[1]}[where]
    kb.remove(Assertion(node, RDF_TYPE, LayerTag.PLANNING.class_iri))
    assert validate(kb) == []
    before = list(kb.assertions)
    with pytest.raises(OutsidePlanningLayer) as err:
        handle.step()
    assert err.value.iri == node
    assert list(kb.assertions) == before and handle.cursor == 1


def test_realize_requires_a_total_assignment(kb, scenario):
    partial = {
        ex("a_s1"): (scenario["agent"], scenario["behaviour"]),
        ex("a_s3"): (scenario["agent"], scenario["behaviour"]),
    }
    with pytest.raises(AssignmentIncomplete) as err:
        realize_process(kb, scenario["process"], partial)
    assert err.value.missing == [ex("a_s2")]


def test_realize_gates_on_capability(kb, scenario):
    outsider = declare_agent(kb, ex("outsider"))
    assignment = {
        ex(f"a_s{i}"): (outsider, scenario["behaviour"]) for i in (1, 2, 3)
    }
    with pytest.raises(PerformerLacksCapability) as err:
        realize_process(kb, scenario["process"], assignment)
    assert err.value.code == "PERFORMER_LACKS_CAPABILITY"
    assert err.value.agent == outsider


def test_realize_accepts_role_granted_capability(kb, scenario):
    outsider = declare_agent(kb, ex("outsider"))
    grant_role(kb, outsider, ex("Courier"), [scenario["behaviour"]])
    assignment = {
        ex(f"a_s{i}"): (outsider, scenario["behaviour"]) for i in (1, 2, 3)
    }
    handle = realize_process(kb, scenario["process"], assignment)
    assert all(r.agent == outsider for r in handle.records)
    assert validate(kb) == []


def test_realize_flags_deprecated_role_grants(kb, scenario):
    outsider = declare_agent(kb, ex("outsider"))
    role = grant_role(kb, outsider, ex("Courier"), [scenario["behaviour"]])
    deprecate_role(kb, role)
    assignment = {
        ex(f"a_s{i}"): (outsider, scenario["behaviour"]) for i in (1, 2, 3)
    }
    with pytest.raises(RoleDeprecatedUse) as err:
        realize_process(kb, scenario["process"], assignment)
    assert err.value.code == "ROLE_DEPRECATED_USE"
    assert err.value.role == role


# ---------------------------------------------------------------------------
# Stepping and events
# ---------------------------------------------------------------------------


def test_step_walks_the_chain_and_fires_events(kb, scenario):
    handle = scenario["handle"]
    first = handle.step()
    assert first.index == 0
    assert first.events == ()
    second = handle.step()
    assert second.index == 1
    assert len(second.events) == 1
    fired = second.events[0]
    assert kb.entity(fired).layer is LayerTag.EXECUTION
    assert kb.has_class(fired, vocab.EVENT)
    assert kb.objects(fired, vocab.HAS_EVENT_KIND) == ["signal"]
    assert kb.objects(second.state, vocab.TRIGGERS_EVENT) == [fired]
    actions = kb.objects(fired, vocab.EVENT_DESCRIBED_BY_ACTION)
    assert len(actions) == 1
    assert kb.entity(actions[0]).layer is LayerTag.EXECUTION
    third = handle.step()
    assert third.index == 2
    assert handle.completed
    with pytest.raises(CursorCompleted):
        handle.step()
    assert validate(kb) == []


def test_run_to_completion_returns_every_step(kb, scenario):
    handle = scenario["handle"]
    handle.step()
    steps = handle.run_to_completion()
    assert [s.index for s in steps] == [0, 1, 2]
    assert handle.completed


def test_trace_lines_are_compact_json(kb, scenario):
    handle = scenario["handle"]
    steps = handle.run_to_completion()
    for i, step in enumerate(steps):
        doc = json.loads(step.trace_line())
        assert list(doc) == ["state", "planExec", "agent", "events", "index"]
        assert doc["index"] == i
        assert doc["agent"] == scenario["agent"].value
        assert " " not in step.trace_line()


# ---------------------------------------------------------------------------
# Ordering helpers
# ---------------------------------------------------------------------------


def test_procedure_order_follows_the_chain(kb):
    spec = ProcessSpec(
        name="multi",
        procedures=tuple(
            ProcedureSpec(
                name=f"multi_p{i}",
                states=(
                    StateSpec(
                        name=f"multi_p{i}_s",
                        plan=BehaviourSpec(
                            name=f"multi_plan{i}",
                            goals=(
                                GoalSpec(
                                    name=f"multi_plan{i}_g",
                                    tasks=(
                                        TaskSpec(
                                            name=f"multi_plan{i}_t",
                                            operator_action=Ref.exact("act"),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            )
            for i in (1, 2, 3)
        ),
    )
    root = build_process(kb, spec)
    assert [p.local for p in procedure_order(kb, root)] == [
        "multi_p1",
        "multi_p2",
        "multi_p3",
    ]


def test_state_chain_follows_next_edges(kb):
    build_process(kb, protocol_process_spec("a"))
    chain = state_chain(kb, ex("consume_a_procedure"))
    assert [s.local for s in chain] == ["a_s1", "a_s2", "a_s3"]


# ---------------------------------------------------------------------------
# One read and one store batch per cloned tree
# ---------------------------------------------------------------------------


def _protocol(kb: KnowledgeBase):
    """One consumer's request / modify / release process, whose modify
    state fires an event with an action tree; unrealized."""
    kb.declare_class(kb.resolve("Resource"))
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    agent = declare_agent(kb, kb.resolve("agent_a"))
    behaviour = derive_behaviour(kb, build_template(kb, consumer_template("a")), agent)
    process = build_process(kb, protocol_process_spec("a", with_event=True))
    return process, {kb.resolve(f"a_s{i}"): (agent, behaviour) for i in (1, 2, 3)}


def _one_plan_for_two_states(kb: KnowledgeBase):
    """The protocol, with its modify state described by the request plan."""
    process, assignment = _protocol(kb)
    first, second = kb.resolve("a_s1"), kb.resolve("a_s2")
    (own,) = kb.objects(second, vocab.IS_DESCRIBED_BY)
    kb.remove(Assertion(second, vocab.IS_DESCRIBED_BY, own))
    kb.assert_property(second, vocab.IS_DESCRIBED_BY, kb.objects(first, vocab.IS_DESCRIBED_BY)[0])
    return process, assignment


def _a_node_reached_twice(kb: KnowledgeBase):
    """A one-state process whose plan's second task shares the first
    task's object node, so the walk reaches that node twice."""
    _, protocol_assignment = _protocol(kb)
    performer = protocol_assignment[kb.resolve("a_s1")]
    tasks = tuple(
        TaskSpec(name=f"twin_t{i}", operator_action=Ref.exact("consume"), obj=obj)
        for i, obj in ((1, Ref.exact("shared_resource")), (2, None))
    )
    plan = BehaviourSpec(name="twin_plan", goals=(GoalSpec(name="twin_goal", tasks=tasks),))
    process = build_process(
        kb,
        ProcessSpec(
            name="twin_process",
            procedures=(
                ProcedureSpec(
                    name="twin_procedure", states=(StateSpec(name="twin_s1", plan=plan),)
                ),
            ),
        ),
    )
    kb.assert_property(ex("twin_t2"), vocab.HAS_TASK_OBJECT, ex("twin_t1_object"))
    return process, {ex("twin_s1"): performer}


SHAPES = {
    "protocol": _protocol,
    "one plan for two states": _one_plan_for_two_states,
    "a node reached twice": _a_node_reached_twice,
}


def _oracle_clone_linked(kb: KnowledgeBase, rows) -> Iri:
    """The tree clone as it was before it was one batch: the oracle walks
    the tree again when it clones it, and writes the clone and then its
    links one triple a call."""
    root = rows[0][0]
    mapping = tree_oracle.clone_tree(kb, root, LayerTag.EXECUTION)
    tree_oracle.link_pairs(kb, mapping, vocab.CLASS_TO_HAS_EXECUTION)
    return mapping[root]


def _realized(shape: str):
    """A shape's graph, validated, realized and run to completion: the
    store's state, the canonical export and the trace lines."""
    kb = KnowledgeBase()
    process, assignment = SHAPES[shape](kb)
    assert validate(kb) == []
    steps = realize_process(kb, process, assignment).run_to_completion()
    assert kb.journal == []  # every write certified
    out = (store_state(kb), export_canonical(kb), [s.trace_line() for s in steps])
    kb.journal = None
    assert validate(kb) == []  # a whole-graph pass
    return out


@pytest.mark.parametrize("shape", SHAPES)
def test_each_tree_shape_realizes_as_the_per_triple_clone_does(shape, monkeypatch):
    fast = _realized(shape)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_clone_linked", _oracle_clone_linked)
        slow = _realized(shape)
    assert fast == slow


@pytest.mark.parametrize("shape", SHAPES)
def test_a_realization_reads_each_source_node_once_and_loads_each_tree_once(
    shape, monkeypatch
):
    kb = KnowledgeBase()
    process, assignment = SHAPES[shape](kb)
    assert validate(kb) == []  # the journal is [], so the gate reads nothing
    sources: list[Iri] = []  # every plan and action tree's nodes, once each
    for state in assignment:
        for plan in kb.objects(state, vocab.IS_DESCRIBED_BY):
            sources += walk_tree(kb, plan)
        for event in kb.objects(state, vocab.TRIGGERS_EVENT):
            for action in kb.objects(event, vocab.EVENT_DESCRIBED_BY_ACTION):
                sources += walk_tree(kb, action)
    batches: list[list[tuple]] = []
    load = kb.load

    def counting_load(triples):
        batches.append(list(triples))
        load(triples)

    lookups: Counter = Counter()  # kb.entity calls, per node
    entity = kb.entity

    def counting_entity(iri):
        lookups[iri] += 1
        return entity(iri)

    monkeypatch.setattr(kb, "load", counting_load)
    monkeypatch.setattr(kb, "entity", counting_entity)
    reads = count_edge_reads(kb, monkeypatch)
    handle = realize_process(kb, process, assignment)
    steps = handle.run_to_completion()
    monkeypatch.undo()

    assert {node: reads[node] for node in sources} == dict.fromkeys(sources, 1)
    # each tree node's record comes with its row: none is looked up again
    assert {node: lookups[node] for node in sources} == dict.fromkeys(sources, 0)
    assert lookups  # the process, procedures, states and events are looked up
    roots = [r.plan_exec for r in handle.records]
    for step in steps:
        for event in step.events:
            roots += kb.objects(event, vocab.EVENT_DESCRIBED_BY_ACTION)
    assert len(roots) == len(handle.records) + (shape != "a node reached twice")
    links = vocab.SUB_CLOSURE[vocab.HAS_EXECUTION]
    for root in roots:
        clones = set(walk_tree(kb, root))
        tree = {
            (a.subject, a.predicate, a.object)
            for a in kb.assertions
            if a.subject in clones and a.predicate is not vocab.PLAN_EXECUTION_DRAWN_BY
            or a.object in clones and a.predicate in links
        }
        written = [batch for batch in batches if tree.intersection(batch)]
        assert len(written) == 1 and set(written[0]) == tree, root
