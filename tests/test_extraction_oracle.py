"""``concurrency.extract_runs`` against the step extraction it replaced.

``tests/extract_oracle.py`` holds ``_refs``, ``_step_kind`` and
``_step_resource`` as they were before ``_step`` read each task's edges
in one pass.  Each seed realizes the protocol scenario, then rewrites
every execution task's operator and resource-bearing edges: fresh
nodes, refers edges to action names and to individuals typed Resource
or not, literal objects mixed in, and every new triple inserted in a
shuffled order.  Each task's step, or the error it raises, and the
whole ``extract_runs`` outcome must match the oracle's.
"""

from __future__ import annotations

import random

import pytest

import extract_oracle
from conftest import build_protocol_scenario
from oasiskg import Iri, KnowledgeBase, extract_runs
from oasiskg.concurrency import DEFAULT_OP_MAP, Step, StepKind, _step
from oasiskg.terms import ModelError
from oasiskg.trees import plan_tasks, procedure_order, state_chain
from oasiskg.vocab import (
    HAS_TASK_INPUT_PARAMETER,
    HAS_TASK_OBJECT,
    HAS_TASK_OPERATOR,
    HAS_TASK_OUTPUT_PARAMETER,
    IS_DESCRIBED_BY,
    REFERS_AS_NEW_TO,
    REFERS_EXACTLY_TO,
)

SEEDS = range(60)
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


def tasks_of(kb: KnowledgeBase, handle: Iri) -> list[tuple[Iri, Iri]]:
    """Each task under ``handle`` with its plan execution, in run order."""
    out = []
    for proc in procedure_order(kb, handle):
        for state in state_chain(kb, proc):
            plan = next(o for o in kb.objects(state, IS_DESCRIBED_BY) if isinstance(o, Iri))
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

    for handle in handles:
        for task, _plan in tasks_of(kb, handle):
            rewrite(kb, rng, task, fresh)
    return kb, handles, rng.choice(OP_MAPS)


def outcome(make):
    try:
        return ("ok", make())
    except ModelError as err:
        return ("error", type(err), getattr(err, "task", None), getattr(err, "local", None))


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


@pytest.mark.parametrize("seed", SEEDS)
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


@pytest.mark.parametrize("seed", SEEDS)
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
