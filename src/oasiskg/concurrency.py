"""Interleaving analysis for lock-protocol runs.

A protocol run is one agent's ordered request / modify / release steps
against shared resources.  Schedules are run-index sequences, searched
depth-first, lowest run index first, up to a step bound: a run whose
next step would block (requesting a held lock) cannot move until the
lock frees; if nothing can move and work remains the partial schedule
is a deadlock.  Race semantics:

* Modify while another agent holds the lock, or while unlocked after a
  different agent touched the resource: UnlockedModify.
* Release of a lock held by someone else: DoubleLock.
* A lone agent cannot race with itself; its unlocked accesses pass.

Race steps still take effect, so one schedule can surface several
hazards.  Reports are deduplicated on (kind, resource, agent pair);
the first schedule that exhibits a hazard wins.

The search visits each distinct state once, interpreting at most
(distinct states x runs) steps, not one per step of every schedule.  A
state is the runs' positions plus each resource's holder, last writer
and last writer other than that one: all ``interpret_step`` reads.
``sum(positions)`` fixes step indices and the bound cut, so a state
reached again was searched, at the same depth, before.  Hazards are
taken on the step that raises them, in pre-order: the order "first
schedule in depth-first order, then step order" of a walk over every
schedule.  A report's schedule is its prefix plus the leftmost
completion below, so reports match that walk's byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .core import KnowledgeBase
from .terms import Iri, ModelError
from .trees import plan_tasks, procedure_order, state_chain
from .vocab import (
    DEFAULT_BOUND,
    IS_DESCRIBED_BY,
    LayerTag,
    PERFORMS_PLAN_EXECUTION,
    PROCESS,
    REFERS_AS_NEW_TO,
    REFERS_EXACTLY_TO,
    term,
)


class StepKind(Enum):
    REQUEST = "Request"
    MODIFY = "Modify"
    RELEASE = "Release"


class RaceKind(Enum):
    UNLOCKED_MODIFY = "UnlockedModify"
    DOUBLE_LOCK = "DoubleLock"


@dataclass(frozen=True)
class Step:
    kind: StepKind
    resource: Iri


@dataclass(frozen=True)
class ProtocolRun:
    agent: Iri
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class ResourceState:
    holder: Iri | None = None
    modified_by: tuple[Iri, ...] = ()


@dataclass(frozen=True)
class StepOutcome:
    state: ResourceState
    blocked: bool = False
    race: RaceKind | None = None
    other: Iri | None = None


@dataclass(frozen=True)
class Schedule:
    indices: tuple[int, ...]
    status: str  # complete, deadlock or truncated

    @property
    def complete(self) -> bool:
        return self.status == "complete"


@dataclass(frozen=True)
class Conflict:
    resource: Iri
    agent_a: Iri
    agent_b: Iri
    step_index: int


@dataclass(frozen=True)
class RaceReport:
    schedule: tuple[int, ...]
    conflict: Conflict
    kind: RaceKind

    def json_line(self) -> str:
        return json.dumps(
            {
                "schedule": list(self.schedule),
                "conflict": {
                    "resource": self.conflict.resource.value,
                    "agentA": self.conflict.agent_a.value,
                    "agentB": self.conflict.agent_b.value,
                    "stepIndex": self.conflict.step_index,
                },
                "kind": self.kind.value,
            },
            separators=(",", ":"),
        )


class UnknownStepKind(ModelError):
    def __init__(self, task: Iri, local: str) -> None:
        super().__init__(
            f"cannot map operator action {local!r} of {task} to a step kind"
        )
        self.task = task
        self.local = local


class UnknownHandle(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"not an execution-layer process root: {iri}")
        self.iri = iri


class MixedAgents(ModelError):
    def __init__(self, handle: Iri) -> None:
        super().__init__(
            f"handle {handle} has states performed by different agents"
        )
        self.handle = handle


# ---------------------------------------------------------------------------
# Step semantics
# ---------------------------------------------------------------------------


def interpret_step(state: ResourceState, agent: Iri, kind: StepKind) -> StepOutcome:
    """Outcome of one step against one resource's lock state."""
    if kind is StepKind.REQUEST:
        if state.holder is None:
            return StepOutcome(replace(state, holder=agent))
        return StepOutcome(state, blocked=True)
    if kind is StepKind.MODIFY:
        touched = replace(state, modified_by=state.modified_by + (agent,))
        if state.holder == agent:
            return StepOutcome(touched)
        if state.holder is not None:
            return StepOutcome(
                touched, race=RaceKind.UNLOCKED_MODIFY, other=state.holder
            )
        others = [m for m in reversed(state.modified_by) if m != agent]
        if others:
            return StepOutcome(
                touched, race=RaceKind.UNLOCKED_MODIFY, other=others[0]
            )
        return StepOutcome(touched)
    # release
    if state.holder == agent:
        return StepOutcome(replace(state, holder=None))
    if state.holder is None:
        return StepOutcome(state)
    return StepOutcome(state, race=RaceKind.DOUBLE_LOCK, other=state.holder)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

#: a search state: run positions, then lock states by first-named resource
_Key = tuple[tuple[int, ...], tuple[ResourceState, ...]]
_Moves = dict[_Key, list[tuple[int, _Key]]]
_STATUSES = ("complete", "deadlock", "truncated")


def _trim(state: ResourceState) -> ResourceState:
    """``state`` with ``modified_by`` cut to what ``interpret_step`` can
    still read: the last modifier and the last one that differs from it."""
    last = state.modified_by[-1:]
    earlier = [m for m in state.modified_by if m not in last][-1:]
    return ResourceState(state.holder, (*earlier, *last))


class RaceSearch(NamedTuple):
    reports: list[RaceReport]
    schedules: dict[str, int]  # by status: complete, deadlock, truncated


def _search(
    runs: list[ProtocolRun], bound: int
) -> tuple[_Key, _Moves, dict[_Key, tuple[int, ...]], list[RaceReport]]:
    """Depth-first search over distinct states, on an explicit stack of
    one generator per state on the path: the start state, each state's
    moves as (run index, next state), the schedules below each state
    counted in ``_STATUSES`` order, reports."""
    firsts = dict.fromkeys(step.resource for run in runs for step in run.steps)
    slots = {resource: n for n, resource in enumerate(firsts)}
    ends = tuple(len(run.steps) for run in runs)
    moves: _Moves = {}
    counts: dict[_Key, tuple[int, ...]] = {}
    #: the first (prefix, next state) to raise each hazard
    found: dict[tuple[RaceKind, Iri, Iri, Iri], tuple[tuple[int, ...], _Key]] = {}

    def visit(
        key: _Key, prefix: tuple[int, ...]
    ) -> Iterator[tuple[_Key, tuple[int, ...]]]:
        """Take ``key``'s moves in run order, yielding each next state not
        yet searched so that it is searched before the next move is
        taken; then count the schedules below ``key``."""
        positions, states = key
        out: list[tuple[int, _Key]] = moves.setdefault(key, [])
        if positions == ends or len(prefix) >= bound:
            counts[key] = (1, 0, 0) if positions == ends else (0, 0, 1)
            return
        for i, run in enumerate(runs):
            if positions[i] == ends[i]:
                continue
            step = run.steps[positions[i]]
            slot = slots[step.resource]
            outcome = interpret_step(states[slot], run.agent, step.kind)
            if outcome.blocked:
                continue
            now = states[:slot] + (_trim(outcome.state),) + states[slot + 1 :]
            child = (positions[:i] + (positions[i] + 1,) + positions[i + 1 :], now)
            out.append((i, child))
            hazard = (outcome.race, step.resource, run.agent, outcome.other)
            if outcome.race and outcome.other and hazard not in found:
                found[hazard] = (prefix + (i,), child)
            if child not in counts:
                yield child, prefix + (i,)
        below = [counts[child] for _, child in out]
        counts[key] = tuple(map(sum, zip(*below))) if out else (0, 1, 0)

    root: _Key = ((0,) * len(runs), (ResourceState(),) * len(slots))
    stack = [visit(root, ())]
    while stack:
        for child, prefix in stack[-1]:
            stack.append(visit(child, prefix))
            break
        else:
            stack.pop()
    reports = []
    for (kind, resource, actor, other), (schedule, child) in found.items():
        conflict = Conflict(resource, actor, other, len(schedule) - 1)
        while moves[child]:  # complete the schedule leftmost below ``child``
            i, child = moves[child][0]
            schedule += (i,)
        reports.append(RaceReport(schedule, conflict, kind))
    return root, moves, counts, reports


def search_races(runs: list[ProtocolRun], bound: int = DEFAULT_BOUND) -> RaceSearch:
    """Race reports over every schedule within the bound, one per (kind,
    resource, acting agent, other agent), each named by the first schedule
    in depth-first order that raises it; and the schedules by status."""
    root, _, counts, reports = _search(runs, bound)
    return RaceSearch(reports, dict(zip(_STATUSES, counts[root])))


def detect_races(
    runs: list[ProtocolRun], bound: int = DEFAULT_BOUND
) -> list[RaceReport]:
    """The reports of :func:`search_races`."""
    return search_races(runs, bound).reports


def enumerate_schedules(
    runs: list[ProtocolRun], bound: int = DEFAULT_BOUND
) -> list[Schedule]:
    """Every schedule within the bound, in depth-first order."""
    root, moves, counts, _ = _search(runs, bound)
    schedules: list[Schedule] = []
    stack: list[tuple[_Key, tuple[int, ...]]] = [(root, ())]
    while stack:
        key, prefix = stack.pop()
        if not moves[key]:
            schedules.append(Schedule(prefix, _STATUSES[counts[key].index(1)]))
        stack.extend((child, prefix + (i,)) for i, child in reversed(moves[key]))
    return schedules


# ---------------------------------------------------------------------------
# Extraction from realized processes
# ---------------------------------------------------------------------------

DEFAULT_OP_MAP: dict[str, StepKind] = {
    "request": StepKind.REQUEST,
    "modify": StepKind.MODIFY,
    "release": StepKind.RELEASE,
}

_HAS_TASK_OPERATOR = term("hasTaskOperator")
_RESOURCE_BEARING = (
    term("hasTaskObject"),
    term("hasTaskOutputParameter"),
    term("hasTaskInputParameter"),
)


def _refs(kb: KnowledgeBase, node: Iri) -> list[Iri]:
    out = []
    for pred in (REFERS_EXACTLY_TO, REFERS_AS_NEW_TO):
        out.extend(o for o in kb.objects(node, pred) if isinstance(o, Iri))
    return out


def _step_kind(kb: KnowledgeBase, task: Iri, op_map: dict[str, StepKind]) -> StepKind:
    targets: list[Iri] = []
    for operator in kb.objects(task, _HAS_TASK_OPERATOR):
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
    """Rebuild protocol runs from realized process roots.

    Each handle contributes one run: its states in chain order, one step
    per task of each state's plan execution.  Step kinds come from the
    operator's referenced action name through ``op_map``.
    """
    mapping = dict(DEFAULT_OP_MAP)
    if op_map:
        mapping.update({k.lower(): v for k, v in op_map.items()})
    runs: list[ProtocolRun] = []
    for handle in handles:
        rec = kb.entity(handle)
        if (
            rec is None
            or PROCESS not in rec.memberships
            or rec.layer is not LayerTag.EXECUTION
        ):
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
