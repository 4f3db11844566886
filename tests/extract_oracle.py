"""Reference step extraction: one store lookup per predicate.

These are ``_refs``, ``_step_kind`` and ``_step_resource`` as
``oasiskg.concurrency`` had them before ``_step`` read each task's edges
in one pass, kept unchanged as the oracle for the differential tests.
``_refs`` asks the store once per refers predicate, ``_step_kind`` once
for the operators and ``_step_resource`` once per resource-bearing
predicate.  ``is_root``, ``procedure_order`` and ``state_chain`` are
``oasiskg.trees``' as they were before the state chain read each
state's edges once, each successor query an entailing ``objects``
call, and the task order is ``plan_oracle.plan_tasks``, so nothing
here runs the package's walk.  ``extract_runs`` walks processes,
states, plans and tasks with these, building each step.
"""

from __future__ import annotations

from oasiskg.concurrency import (
    DEFAULT_OP_MAP,
    MixedAgents,
    ProtocolRun,
    Step,
    StepKind,
    UnknownHandle,
    UnknownStepKind,
)
from oasiskg.core import KnowledgeBase
from oasiskg.terms import Iri
from oasiskg.vocab import (
    CONSISTS_OF_PROCEDURE,
    HAS_NEXT,
    HAS_NEXT_PROCEDURE,
    HAS_TASK_INPUT_PARAMETER,
    HAS_TASK_OBJECT,
    HAS_TASK_OPERATOR,
    HAS_TASK_OUTPUT_PARAMETER,
    IS_DESCRIBED_BY,
    LayerTag,
    PERFORMS_PLAN_EXECUTION,
    PROC_CONSISTS_INITIAL,
    PROCESS,
    REFERS_AS_NEW_TO,
    REFERS_EXACTLY_TO,
)

from plan_oracle import plan_tasks

_RESOURCE_BEARING = (
    HAS_TASK_OBJECT, HAS_TASK_OUTPUT_PARAMETER, HAS_TASK_INPUT_PARAMETER
)


def is_root(kb: KnowledgeBase, iri: Iri, cls: Iri, layer: LayerTag) -> bool:
    """Whether ``iri`` is typed ``cls`` and tagged with ``layer`` alone."""
    rec = kb.entity(iri)
    return rec is not None and cls in rec.memberships and rec.layer is layer


def procedure_order(kb: KnowledgeBase, process: Iri) -> list[Iri]:
    """Procedures of a process in hasNextProcedure chain order; falls
    back to assertion order when the chain is absent or broken."""
    members = [
        o for o in kb.objects(process, CONSISTS_OF_PROCEDURE) if isinstance(o, Iri)
    ]
    if len(members) <= 1:
        return members
    member_set = set(members)
    succ: dict[Iri, Iri] = {}
    has_pred: set[Iri] = set()
    for proc in members:
        for nxt in kb.objects(proc, HAS_NEXT_PROCEDURE):
            if isinstance(nxt, Iri) and nxt in member_set:
                succ[proc] = nxt
                has_pred.add(nxt)
                break
    heads = [m for m in members if m not in has_pred]
    if len(heads) != 1:
        return members
    chain = [heads[0]]
    seen = {heads[0]}
    while chain[-1] in succ and succ[chain[-1]] not in seen:
        chain.append(succ[chain[-1]])
        seen.add(chain[-1])
    return chain if len(chain) == len(members) else members


def state_chain(kb: KnowledgeBase, procedure: Iri) -> list[Iri]:
    """States of a procedure from its initial state along successor edges."""
    initials = [
        o for o in kb.objects(procedure, PROC_CONSISTS_INITIAL) if isinstance(o, Iri)
    ]
    if not initials:
        return []
    chain = [initials[0]]
    seen = {initials[0]}
    while True:
        nexts = [
            o
            for o in kb.objects(chain[-1], HAS_NEXT, entail=True)
            if isinstance(o, Iri) and o not in seen
        ]
        if not nexts:
            return chain
        chain.append(nexts[0])
        seen.add(nexts[0])


def _refs(kb: KnowledgeBase, node: Iri) -> list[Iri]:
    out = []
    for pred in (REFERS_EXACTLY_TO, REFERS_AS_NEW_TO):
        out.extend(o for o in kb.objects(node, pred) if isinstance(o, Iri))
    return out


def _step_kind(kb: KnowledgeBase, task: Iri, op_map: dict[str, StepKind]) -> StepKind:
    targets: list[Iri] = []
    for operator in kb.objects(task, HAS_TASK_OPERATOR):
        if isinstance(operator, Iri):
            targets.extend(_refs(kb, operator))
    local = targets[0].local.lower() if targets else ""
    if local in op_map:
        return op_map[local]
    matches = sorted({kind.value for key, kind in op_map.items() if key in local})
    if len(matches) == 1:
        return StepKind(matches[0])
    raise UnknownStepKind(task, local)


def _step_resource(kb: KnowledgeBase, task: Iri, fallback: Iri) -> Iri:
    """The resource a task contends on: the first referenced individual
    typed by a class named Resource, else the first referenced
    individual, else the fallback."""
    candidates: list[Iri] = []
    for pred in _RESOURCE_BEARING:
        for node in kb.objects(task, pred):
            if isinstance(node, Iri):
                candidates.extend(_refs(kb, node))
    for candidate in candidates:
        rec = kb.entity(candidate)
        if rec and any(cls.local == "Resource" for cls in rec.memberships):
            return candidate
    return candidates[0] if candidates else fallback


def extract_runs(
    kb: KnowledgeBase,
    handles: list[Iri],
    op_map: dict[str, StepKind] | None = None,
) -> list[ProtocolRun]:
    mapping = dict(DEFAULT_OP_MAP)
    if op_map:
        mapping.update({k.lower(): v for k, v in op_map.items()})
    runs: list[ProtocolRun] = []
    for handle in handles:
        if not is_root(kb, handle, PROCESS, LayerTag.EXECUTION):
            raise UnknownHandle(handle)
        agent: Iri | None = None
        steps: list[Step] = []
        for proc in procedure_order(kb, handle):
            for state in state_chain(kb, proc):
                plans = [
                    o
                    for o in kb.objects(state, IS_DESCRIBED_BY)
                    if isinstance(o, Iri)
                ]
                if not plans:
                    continue
                plan_exec = plans[0]
                performers = sorted(
                    kb.subjects(PERFORMS_PLAN_EXECUTION, plan_exec)
                )
                if performers:
                    if agent is None:
                        agent = performers[0]
                    elif agent != performers[0]:
                        raise MixedAgents(handle)
                for task in plan_tasks(kb, plan_exec):
                    steps.append(
                        Step(
                            kind=_step_kind(kb, task, mapping),
                            resource=_step_resource(kb, task, plan_exec),
                        )
                    )
        if agent is None:
            raise UnknownHandle(handle)
        runs.append(ProtocolRun(agent=agent, steps=tuple(steps)))
    return runs
