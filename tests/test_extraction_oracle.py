"""``concurrency.extract_runs`` against the extraction it replaced.

``tests/extract_oracle.py`` holds ``_refs``, ``_step_kind`` and
``_step_resource`` as they were before ``_step`` read each task's edges
in one pass, and its own copies of the walk over procedures, states and
tasks as it was before each state's edges were read once.  Each seed
realizes the protocol scenario, then rewrites execution tasks' operator
and resource-bearing edges: fresh nodes, refers edges to action names
and to individuals typed Resource or not, literal objects mixed in, and
every new triple inserted in a shuffled order.  The structure seeds
also change what lies above the tasks: more tasks in a goal, with
dependsOn edges among them, cycles included; second performers of a
plan execution; states whose plan is missing or a literal; branching
state chains.  Each task's step, or the error it raises, and the whole
``extract_runs`` outcome must match the oracle's.
"""

from __future__ import annotations

import random

import pytest

import extract_oracle
from conftest import build_protocol_scenario
from oasiskg import Iri, KnowledgeBase, extract_runs
from oasiskg.concurrency import DEFAULT_OP_MAP, MixedAgents, Step, StepKind, _step
from oasiskg.terms import ModelError
from oasiskg.vocab import (
    CONSISTS_OF_GOAL,
    CONSISTS_OF_TASK,
    DEPENDS_ON,
    HAS_FINAL_STATE,
    HAS_NEXT,
    HAS_NEXT_NON_TERMINATING,
    HAS_TASK_INPUT_PARAMETER,
    HAS_TASK_OBJECT,
    HAS_TASK_OPERATOR,
    HAS_TASK_OUTPUT_PARAMETER,
    IS_DESCRIBED_BY,
    PERFORMS_PLAN_EXECUTION,
    REFERS_AS_NEW_TO,
    REFERS_EXACTLY_TO,
)
from plan_oracle import plan_tasks

#: seeds that rewrite task edges only, then seeds that change the
#: structure above the tasks too
SEEDS = range(60)
STRUCTURE_SEEDS = range(60, 120)
REFERS = (REFERS_EXACTLY_TO, REFERS_AS_NEW_TO)
BEARING = (HAS_TASK_OBJECT, HAS_TASK_OUTPUT_PARAMETER, HAS_TASK_INPUT_PARAMETER)
#: action names: exact keys in any case, loose matches, one that the
#: ``cycle`` key of a custom map makes unambiguous, an ambiguous one
#: and one no default key matches
ACTIONS = (
    ["request", "Modify", "RELEASE", "request_primary_lock", "release_it"] * 3
    + ["modify_cycle", "request_release_cycle", "grab"]
)
OP_MAPS = (None, {"Grab": StepKind.REQUEST}, {"CYCLE": StepKind.MODIFY})
LITERALS = ("request", "shared_resource", "")
NEXT = (HAS_NEXT, HAS_NEXT_NON_TERMINATING, HAS_FINAL_STATE)
#: performers a structure seed adds: the scenario's two agents, and one
#: IRI below and one above both
PERFORMERS = ("agent_a", "agent_b", "http://a.example/agent", "http://z.example/agent")


def states_of(kb: KnowledgeBase, handle: Iri) -> list[Iri]:
    """The states of ``handle``'s procedures, in the oracle's run order."""
    return [
        state
        for proc in extract_oracle.procedure_order(kb, handle)
        for state in extract_oracle.state_chain(kb, proc)
    ]


def plan_of(kb: KnowledgeBase, state: Iri) -> Iri | None:
    return next((o for o in kb.objects(state, IS_DESCRIBED_BY) if isinstance(o, Iri)), None)


def tasks_of(kb: KnowledgeBase, handle: Iri) -> list[tuple[Iri, Iri]]:
    """Each task under ``handle`` with its plan execution, in the
    oracle's run order."""
    out = []
    for state in states_of(kb, handle):
        plan = plan_of(kb, state)
        if plan is not None:
            out.extend((task, plan) for task in plan_tasks(kb, plan))
    return out


def rewrite(kb: KnowledgeBase, rng: random.Random, task: Iri, fresh) -> None:
    """Replace ``task``'s operator and resource-bearing edges with random
    ones, inserted with their refers edges in a shuffled order."""
    for a in list(kb.edges(task)):
        if a.predicate is HAS_TASK_OPERATOR or a.predicate in BEARING:
            kb.remove(a)
    individuals = [kb.resolve(f"res{i}") for i in range(3)] + [
        kb.resolve(f"thing{i}") for i in range(3)
    ] + [Iri("http://other.example/ns#res")]
    triples: list[tuple] = []

    def node(pred: Iri, targets: list) -> None:
        n = fresh()
        triples.append((task, pred, n))
        for _ in range(rng.choice((0, 1, 1, 2))):
            triples.append((n, rng.choice(REFERS), rng.choice(targets)))
        if rng.random() < 0.2:
            triples.append((n, rng.choice(REFERS), rng.choice(LITERALS)))

    actions = [kb.resolve(name) for name in ACTIONS]
    for _ in range(rng.choice((0, 1, 1, 1, 1, 2, 2))):
        node(HAS_TASK_OPERATOR, actions)
    for _ in range(rng.randint(0, 3)):
        node(rng.choice(BEARING), individuals)
    if rng.random() < 0.2:
        triples.append((task, rng.choice((HAS_TASK_OPERATOR,) + BEARING), rng.choice(LITERALS)))
    rng.shuffle(triples)
    kb.load(triples)


def restructure(kb: KnowledgeBase, rng: random.Random, handles: list[Iri], fresh) -> None:
    """One to four random changes above the tasks: tasks added to a goal
    with dependsOn edges among its tasks, a performer added to one plan
    execution or to every plan execution of a handle, a state's plan
    edge removed, replaced by a literal or put behind one, or a
    successor edge added from a state, the old one sometimes moved
    behind it."""
    states = {h: states_of(kb, h) for h in handles}
    everything = [s for h in handles for s in states[h]]
    actions = [kb.resolve(name) for name in ("request", "modify", "release")]
    individuals = [kb.resolve(name) for name in ("shared_resource", "res0", "thing0")]
    performers = [kb.resolve(name) for name in PERFORMERS]
    for _ in range(rng.randint(1, 4)):
        handle = rng.choice(handles)
        state = rng.choice(states[handle])
        plan = plan_of(kb, state)
        kind = rng.choice(("tasks", "tasks", "performer", "performers", "plan", "branch"))
        if kind == "tasks" and plan is not None:
            goal = next(o for o in kb.objects(plan, CONSISTS_OF_GOAL) if isinstance(o, Iri))
            tasks = [t for t in kb.objects(goal, CONSISTS_OF_TASK) if isinstance(t, Iri)]
            for _ in range(rng.randint(1, 3)):
                task, operator, obj = fresh(), fresh(), fresh()
                kb.load([
                    (goal, CONSISTS_OF_TASK, task),
                    (task, HAS_TASK_OPERATOR, operator),
                    (operator, REFERS_EXACTLY_TO, rng.choice(actions)),
                    (task, HAS_TASK_OBJECT, obj),
                    (obj, REFERS_EXACTLY_TO, rng.choice(individuals)),
                ])
                tasks.append(task)
            for _ in range(rng.randint(1, 2 * len(tasks))):
                dep = rng.choice(tasks + [rng.choice(everything), tasks[0].value])
                kb.assert_property(rng.choice(tasks), DEPENDS_ON, dep)
        elif kind == "performer" and plan is not None:
            kb.assert_property(rng.choice(performers), PERFORMS_PLAN_EXECUTION, plan)
        elif kind == "performers":
            agent = rng.choice(performers)
            for other in states[handle]:
                if (other_plan := plan_of(kb, other)) is not None:
                    kb.assert_property(agent, PERFORMS_PLAN_EXECUTION, other_plan)
        elif kind == "plan" and plan is not None:
            edge = next(a for a in kb.edges(state) if a.predicate is IS_DESCRIBED_BY and a.object is plan)
            kb.remove(edge)
            mode = rng.choice(("remove", "literal", "literal first"))
            if mode != "remove":
                kb.assert_property(state, IS_DESCRIBED_BY, plan.value)
            if mode == "literal first":
                kb.assert_property(state, IS_DESCRIBED_BY, plan)
        elif kind == "branch":
            old = [a for a in kb.edges(state) if a.predicate in NEXT]
            kb.assert_property(state, rng.choice(NEXT), rng.choice(everything + [fresh()]))
            if old and rng.random() < 0.5:
                kb.remove(old[0])
                kb.assert_property(state, old[0].predicate, old[0].object)  # to the end


def scenario(seed: int):
    rng = random.Random(seed)
    kb = KnowledgeBase()
    ctx = build_protocol_scenario(kb)
    for i in range(3):
        kb.assert_membership(kb.resolve(f"res{i}"), kb.resolve("Resource"))
        kb.assert_membership(kb.resolve(f"thing{i}"), kb.resolve("Widget"))
    kb.assert_membership(Iri("http://other.example/ns#res"), Iri("http://other.example/ns#Resource"))
    handles = [ctx[tag]["handle"].exec_process for tag in ("a", "b")]
    counter = iter(range(10**6))

    def fresh() -> Iri:
        return kb.resolve(f"node{next(counter)}")

    structure = seed in STRUCTURE_SEEDS
    for handle in handles:
        for task, _plan in tasks_of(kb, handle):
            if not structure or rng.random() < 0.1:
                rewrite(kb, rng, task, fresh)
    if structure:
        restructure(kb, rng, handles, fresh)
    return kb, handles, rng.choice(OP_MAPS)


def outcome(make):
    try:
        return ("ok", make())
    except ModelError as err:
        return ("error", type(err), getattr(err, "task", None), getattr(err, "local", None), str(err))


def mapping_of(op_map) -> dict[str, StepKind]:
    mapping = dict(DEFAULT_OP_MAP)
    mapping.update({k.lower(): v for k, v in (op_map or {}).items()})
    return mapping


def oracle_step(kb, task, mapping, plan) -> Step:
    return Step(
        extract_oracle._step_kind(kb, task, mapping),
        extract_oracle._step_resource(kb, task, plan),
    )


def cases(kb: KnowledgeBase, task: Iri, plan: Iri, mapping, want) -> set[str]:
    """The shapes of one rewritten task that the differential covers."""
    seen = set()
    targets = [
        ref
        for op in kb.objects(task, HAS_TASK_OPERATOR)
        if isinstance(op, Iri)
        for ref in extract_oracle._refs(kb, op)
    ]
    if targets and want[0] == "ok":
        local = targets[0].local.lower()
        if local == "grab":
            seen.add("custom key")
        elif local == "modify_cycle" and "cycle" in mapping:
            seen.add("loose name matching two keys of one kind")
    edges = list(kb.edges(task))
    preds = [a.predicate for a in edges]
    operators = [a.object for a in edges if a.predicate is HAS_TASK_OPERATOR]
    if any(not isinstance(o, Iri) for o in operators):
        seen.add("literal operator")
    if sum(isinstance(o, Iri) for o in operators) >= 2:
        seen.add("two operators")
    if any(a.predicate in BEARING and not isinstance(a.object, Iri) for a in edges):
        seen.add("literal resource node")
    if HAS_TASK_OPERATOR in preds and any(p in BEARING for p in preds[: preds.index(HAS_TASK_OPERATOR)]):
        seen.add("resource edge before the operator")
    if HAS_TASK_OBJECT in preds and any(
        p in (HAS_TASK_INPUT_PARAMETER, HAS_TASK_OUTPUT_PARAMETER)
        for p in preds[: preds.index(HAS_TASK_OBJECT)]
    ):
        seen.add("parameter before the object")
    for a in edges:
        if isinstance(a.object, Iri):
            refs = [r.predicate for r in kb.edges(a.object) if isinstance(r.object, Iri)]
            if REFERS_AS_NEW_TO in refs and REFERS_EXACTLY_TO in refs[refs.index(REFERS_AS_NEW_TO) :]:
                seen.add("new reference before an exact one")
            if any(not isinstance(r.object, Iri) for r in kb.edges(a.object)):
                seen.add("literal reference")
    candidates = [
        ref
        for pred in BEARING
        for node in kb.objects(task, pred)
        if isinstance(node, Iri)
        for ref in extract_oracle._refs(kb, node)
    ]
    typed = [any(cls.local == "Resource" for cls in kb.entity(c).memberships) for c in candidates]
    if True in typed and False in typed[: typed.index(True)]:
        seen.add("Resource after an untyped candidate")
    if want[0] == "ok":
        if want[1].resource is plan:
            seen.add("plan-execution fallback")
        elif want[1].resource.value.startswith("http://other.example/"):
            seen.add("Resource class in another namespace")
    else:
        seen.add(f"error {want[3] or 'without operator'}")
    return seen


def structure_cases(kb: KnowledgeBase, handles: list[Iri], want) -> set[str]:
    """The shapes above the tasks of one graph that the differential
    covers; ``want`` is the oracle's ``extract_runs`` outcome."""
    seen = set()
    if want[0] == "error" and want[1] is MixedAgents:
        seen.add("MixedAgents")
    for n, handle in enumerate(handles):
        for state in states_of(kb, handle):
            nexts = {a.object for a in kb.edges(state) if a.predicate in NEXT and isinstance(a.object, Iri)}
            if len(nexts) > 1:
                seen.add("branching state chain")
            described = kb.objects(state, IS_DESCRIBED_BY)
            if any(not isinstance(o, Iri) for o in described):
                seen.add("literal plan")
            plan = plan_of(kb, state)
            if plan is None:
                seen.add("state without a plan")
                continue
            performers = kb.subjects(PERFORMS_PLAN_EXECUTION, plan)
            if want[0] == "ok" and len(performers) > 1 and want[1][n].agent is min(performers):
                if min(performers) is not performers[0]:
                    seen.add("the lesser of two performers wins")
            for goal in kb.objects(plan, CONSISTS_OF_GOAL):
                tasks = [t for t in kb.objects(goal, CONSISTS_OF_TASK) if isinstance(t, Iri)]
                if len(tasks) < 2:
                    continue
                order = plan_tasks(kb, plan)
                deps = [(t, d) for t in tasks for d in kb.objects(t, DEPENDS_ON) if d in tasks]
                if deps:
                    seen.add("several tasks with in-goal dependsOn")
                if any(order.index(t) <= order.index(d) for t, d in deps):
                    seen.add("in-goal dependency cycle")
    return seen


@pytest.mark.parametrize("seed", [*SEEDS, *STRUCTURE_SEEDS])
def test_each_step_matches_the_oracle(seed):
    kb, handles, op_map = scenario(seed)
    mapping = mapping_of(op_map)
    # one extraction's memos, shared by every task of the graph
    kinds, resources = {}, {}
    for handle in handles:
        for task, plan in tasks_of(kb, handle):
            want = outcome(lambda: oracle_step(kb, task, mapping, plan))
            got = outcome(lambda: _step(kb, task, mapping, plan, kinds, resources))
            assert got == want, (seed, task)


@pytest.mark.parametrize("seed", [*SEEDS, *STRUCTURE_SEEDS])
def test_extract_runs_matches_the_oracle(seed):
    kb, handles, op_map = scenario(seed)
    want = outcome(lambda: extract_oracle.extract_runs(kb, handles, op_map))
    got = outcome(lambda: extract_runs(kb, handles, op_map))
    assert got == want, seed


def test_the_seeds_cover_every_case():
    seen: set[str] = set()
    whole = set()
    for seed in SEEDS:
        kb, handles, op_map = scenario(seed)
        mapping = mapping_of(op_map)
        for handle in handles:
            for task, plan in tasks_of(kb, handle):
                want = outcome(lambda: oracle_step(kb, task, mapping, plan))
                seen |= cases(kb, task, plan, mapping, want)
        whole.add(outcome(lambda: extract_oracle.extract_runs(kb, handles, op_map))[0])
    shapes: set[str] = set()
    for seed in STRUCTURE_SEEDS:
        kb, handles, op_map = scenario(seed)
        shapes |= structure_cases(kb, handles, outcome(lambda: extract_oracle.extract_runs(kb, handles, op_map)))
    assert shapes == {
        "several tasks with in-goal dependsOn",
        "in-goal dependency cycle",
        "the lesser of two performers wins",
        "MixedAgents",
        "state without a plan",
        "literal plan",
        "branching state chain",
    }, shapes
    assert seen >= {
        "literal operator",
        "two operators",
        "literal resource node",
        "literal reference",
        "resource edge before the operator",
        "parameter before the object",
        "new reference before an exact one",
        "Resource after an untyped candidate",
        "Resource class in another namespace",
        "plan-execution fallback",
        "error request_release_cycle",
        "error grab",
        "error without operator",
        "custom key",
        "loose name matching two keys of one kind",
    }, seen
    assert whole == {"ok", "error"}
