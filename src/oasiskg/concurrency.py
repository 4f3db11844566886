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

The search visits each distinct state once.  A resource's lock state
holds only what ``interpret_step`` reads: the holder, the last writer
and the latest writer before it other than that one, so a Modify keeps
at most two writers, not the whole history.  Each lock state is given
a small int id when first seen, so a search state is a flat tuple of
ints: the runs' positions, then each resource's lock-state id.  Each
state is numbered when first reached and its moves are kept by number,
so one copy of each state is stored.  Each distinct (agent, step kind)
is an action numbered from 0, and a transition table keyed by the one
int ``lock-state id * actions + action`` gives the next id, or blocked,
and the hazard raised, so ``interpret_step`` runs once per distinct
transition, not once per state and run.  ``sum(positions)`` fixes
step indices and the bound cut, so a state reached again was searched,
at the same depth, before.  Hazards are taken on the step that raises
them, in pre-order: the order "first schedule in depth-first order,
then step order" of a walk over every schedule.  A report's schedule is
its prefix plus the leftmost completion below, so reports match that
walk's byte for byte.

``extract_runs`` rebuilds runs from realized processes.  It reads each
task's edges once, sorting their IRI objects into the operators and
the three resource-bearing predicates, and each referenced node's
edges once, exact references before new ones.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .core import KnowledgeBase
from .terms import Frozen, Iri, ModelError, set_field
from .trees import is_root, plan_tasks, procedure_order, state_chain
from .vocab import (
    DEFAULT_BOUND,
    HAS_TASK_INPUT_PARAMETER,
    HAS_TASK_OBJECT,
    HAS_TASK_OPERATOR,
    HAS_TASK_OUTPUT_PARAMETER,
    IS_DESCRIBED_BY,
    LayerTag,
    PERFORMS_PLAN_EXECUTION,
    PROCESS,
    REFERS_AS_NEW_TO,
    REFERS_EXACTLY_TO,
)


class StepKind(Enum):
    REQUEST = "Request"
    MODIFY = "Modify"
    RELEASE = "Release"


class RaceKind(Enum):
    UNLOCKED_MODIFY = "UnlockedModify"
    DOUBLE_LOCK = "DoubleLock"


class Step(Frozen):
    __slots__ = ("kind", "resource")

    def __init__(self, kind: StepKind, resource: Iri) -> None:
        set_field(self, "kind", kind)
        set_field(self, "resource", resource)


class ProtocolRun(Frozen):
    __slots__ = ("agent", "steps")

    def __init__(self, agent: Iri, steps: tuple[Step, ...]) -> None:
        set_field(self, "agent", agent)
        set_field(self, "steps", steps)


class ResourceState(Frozen):
    __slots__ = ("holder", "modified_by")

    def __init__(
        self, holder: Iri | None = None, modified_by: tuple[Iri, ...] = ()
    ) -> None:
        set_field(self, "holder", holder)
        # after a Modify: the latest earlier writer other than the last one,
        # if any, then the last writer; all that ``interpret_step`` reads
        set_field(self, "modified_by", modified_by)


class StepOutcome(Frozen):
    __slots__ = ("state", "blocked", "race", "other")

    def __init__(
        self, state: ResourceState, blocked: bool = False, race: RaceKind | None = None,
        other: Iri | None = None,
    ) -> None:
        set_field(self, "state", state)
        set_field(self, "blocked", blocked)
        set_field(self, "race", race)
        set_field(self, "other", other)


class Schedule(Frozen):
    __slots__ = ("indices", "status")

    def __init__(self, indices: tuple[int, ...], status: str) -> None:
        set_field(self, "indices", indices)
        set_field(self, "status", status)  # complete, deadlock or truncated

    @property
    def complete(self) -> bool:
        return self.status == "complete"


class Conflict(Frozen):
    __slots__ = ("resource", "agent_a", "agent_b", "step_index")

    def __init__(
        self, resource: Iri, agent_a: Iri, agent_b: Iri, step_index: int
    ) -> None:
        set_field(self, "resource", resource)
        set_field(self, "agent_a", agent_a)
        set_field(self, "agent_b", agent_b)
        set_field(self, "step_index", step_index)


class RaceReport(Frozen):
    __slots__ = ("schedule", "conflict", "kind")

    def __init__(
        self, schedule: tuple[int, ...], conflict: Conflict, kind: RaceKind
    ) -> None:
        set_field(self, "schedule", schedule)
        set_field(self, "conflict", conflict)
        set_field(self, "kind", kind)

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
            return StepOutcome(ResourceState(agent, state.modified_by))
        return StepOutcome(state, blocked=True)
    if kind is StepKind.MODIFY:
        others = [m for m in reversed(state.modified_by) if m != agent]
        touched = ResourceState(state.holder, (*others[:1], agent))
        if state.holder == agent:
            return StepOutcome(touched)
        if state.holder is not None:
            return StepOutcome(
                touched, race=RaceKind.UNLOCKED_MODIFY, other=state.holder
            )
        if others:
            return StepOutcome(
                touched, race=RaceKind.UNLOCKED_MODIFY, other=others[0]
            )
        return StepOutcome(touched)
    # release
    if state.holder == agent:
        return StepOutcome(ResourceState(None, state.modified_by))
    if state.holder is None:
        return StepOutcome(state)
    return StepOutcome(state, race=RaceKind.DOUBLE_LOCK, other=state.holder)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

#: a search state: run positions, then lock-state ids by first-named resource
_Key = tuple[int, ...]
#: by state number: each move as (run index, next state's number)
_Moves = list[tuple[tuple[int, int], ...]]
_STATUSES = ("complete", "deadlock", "truncated")


class RaceSearch(NamedTuple):
    reports: list[RaceReport]
    schedules: dict[str, int]  # by status: complete, deadlock, truncated
    states: int  # distinct states searched


def _search(
    runs: list[ProtocolRun], bound: int
) -> tuple[_Moves, list[tuple[int, ...]], list[RaceReport]]:
    """Depth-first search over distinct states, on an explicit stack of
    one generator per state on the path.  States are numbered in the
    order they are first reached, the start state 0.  Returns by state
    number the moves and the schedules below counted in ``_STATUSES``
    order, then the reports."""
    resources = list(dict.fromkeys(s.resource for run in runs for s in run.steps))
    #: each resource's lock-state id sits in the key after the positions
    cell_of = {resource: len(runs) + n for n, resource in enumerate(resources)}
    #: each distinct (agent, step kind), numbered in order of appearance
    actions: dict[tuple[Iri, StepKind], int] = {}
    #: per run, each step as (key cell of its resource, action), then None
    plans = [
        [
            (cell_of[s.resource], actions.setdefault((run.agent, s.kind), len(actions)))
            for s in run.steps
        ]
        + [None]
        for run in runs
    ]
    agent_kinds = list(actions)
    n_actions = len(actions)
    total = sum(len(run.steps) for run in runs)
    #: each distinct lock state by id, and ids by state
    lock_states = [ResourceState()]
    lock_ids = {ResourceState(): 0}
    #: each distinct (race kind, agent, other agent), numbered
    hazards: dict[tuple[RaceKind, Iri, Iri], int] = {}
    #: lock-state id * n_actions + action -> (next lock-state id or -1
    #: if the step blocks, hazard or -1)
    table: dict[int, tuple[int, int]] = {}
    root: _Key = (0,) * (len(runs) + len(resources))
    #: each state reached by number; its moves and counts, by number,
    #: are filled in when its search ends
    numbers = {root: 0}
    moves: _Moves = [()]
    counts: list[tuple[int, ...]] = [()]
    #: the first (prefix, next state) to raise each (hazard, key cell)
    found: dict[tuple[int, int], tuple[tuple[int, ...], _Key]] = {}

    def transition(lid: int, action: int) -> tuple[int, int]:
        """The entry of ``table`` for ``action`` on lock state ``lid``."""
        agent, kind = agent_kinds[action]
        outcome = interpret_step(lock_states[lid], agent, kind)
        if outcome.blocked:
            return -1, -1
        if outcome.state not in lock_ids:
            lock_ids[outcome.state] = len(lock_states)
            lock_states.append(outcome.state)
        hazard = -1
        if outcome.race and outcome.other:
            triple = (outcome.race, agent, outcome.other)
            hazard = hazards.setdefault(triple, len(hazards))
        return lock_ids[outcome.state], hazard

    def visit(
        key: _Key, number: int, prefix: tuple[int, ...]
    ) -> Iterator[tuple[_Key, int, tuple[int, ...]]]:
        """Take ``key``'s moves in run order, yielding each next state
        reached for the first time so that it is searched before the
        next move is taken; then count the schedules below ``key``."""
        depth = len(prefix)  # the sum of the run positions
        if depth == total or depth >= bound:
            counts[number] = (1, 0, 0) if depth == total else (0, 0, 1)
            return
        out: list[tuple[int, int]] = []
        for i, plan in enumerate(plans):
            step = plan[key[i]]
            if step is None:
                continue
            cell, action = step
            probe = key[cell] * n_actions + action
            move = table.get(probe)
            if move is None:
                move = table[probe] = transition(key[cell], action)
            lid, hazard = move
            if lid < 0:
                continue
            cells = list(key)
            cells[i] += 1
            cells[cell] = lid
            child = tuple(cells)
            if hazard >= 0 and (hazard, cell) not in found:
                found[hazard, cell] = (prefix + (i,), child)
            n = numbers.get(child)
            if n is None:  # reached for the first time: search it now
                n = numbers[child] = len(moves)
                moves.append(())
                counts.append(())
                yield child, n, prefix + (i,)
            out.append((i, n))
        moves[number] = tuple(out)
        if not out:
            counts[number] = (0, 1, 0)
            return
        complete = deadlock = truncated = 0
        for _, n in out:
            c, d, t = counts[n]
            complete += c
            deadlock += d
            truncated += t
        counts[number] = (complete, deadlock, truncated)

    stack = [visit(root, 0, ())]
    while stack:
        for child, number, prefix in stack[-1]:
            stack.append(visit(child, number, prefix))
            break
        else:
            stack.pop()
    reports = []
    triples = list(hazards)
    for (hazard, cell), (schedule, child) in found.items():
        kind, actor, other = triples[hazard]
        resource = resources[cell - len(runs)]
        conflict = Conflict(resource, actor, other, len(schedule) - 1)
        number = numbers[child]
        while moves[number]:  # complete the schedule leftmost below ``child``
            i, number = moves[number][0]
            schedule += (i,)
        reports.append(RaceReport(schedule, conflict, kind))
    return moves, counts, reports


def search_races(runs: list[ProtocolRun], bound: int = DEFAULT_BOUND) -> RaceSearch:
    """Race reports over every schedule within the bound, one per (kind,
    resource, acting agent, other agent), each named by the first schedule
    in depth-first order that raises it; the schedules by status; and
    how many distinct states were searched."""
    _, counts, reports = _search(runs, bound)
    return RaceSearch(reports, dict(zip(_STATUSES, counts[0])), len(counts))


def detect_races(
    runs: list[ProtocolRun], bound: int = DEFAULT_BOUND
) -> list[RaceReport]:
    """The reports of :func:`search_races`."""
    return search_races(runs, bound).reports


def enumerate_schedules(
    runs: list[ProtocolRun], bound: int = DEFAULT_BOUND
) -> list[Schedule]:
    """Every schedule within the bound, in depth-first order."""
    moves, counts, _ = _search(runs, bound)
    schedules: list[Schedule] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        number, prefix = stack.pop()
        if not moves[number]:
            status = _STATUSES[counts[number].index(1)]
            schedules.append(Schedule(prefix, status))
        stack.extend((n, prefix + (i,)) for i, n in reversed(moves[number]))
    return schedules


# ---------------------------------------------------------------------------
# Extraction from realized processes
# ---------------------------------------------------------------------------

DEFAULT_OP_MAP: dict[str, StepKind] = {
    "request": StepKind.REQUEST,
    "modify": StepKind.MODIFY,
    "release": StepKind.RELEASE,
}

_RESOURCE_BEARING = (
    HAS_TASK_OBJECT, HAS_TASK_OUTPUT_PARAMETER, HAS_TASK_INPUT_PARAMETER
)
#: a task's edge predicates that ``_step`` reads, by slot: the operator,
#: then the resource-bearing ones in ``_RESOURCE_BEARING`` order
_SLOT_OF = {pred: n for n, pred in enumerate((HAS_TASK_OPERATOR, *_RESOURCE_BEARING))}


def _refs(kb: KnowledgeBase, node: Iri) -> list[Iri]:
    """The IRIs ``node`` refers to: exact references, then new ones."""
    exact: list[Iri] = []
    new: list[Iri] = []
    for a in kb.edges(node):
        if isinstance(a.object, Iri):
            if a.predicate is REFERS_EXACTLY_TO:
                exact.append(a.object)
            elif a.predicate is REFERS_AS_NEW_TO:
                new.append(a.object)
    return exact + new


def _step(
    kb: KnowledgeBase, task: Iri, op_map: dict[str, StepKind], fallback: Iri
) -> Step:
    """A task's step from one read of its edges.  The kind comes from the
    first target the operators refer to; the resource is the first
    referenced individual typed by a class named Resource, else the
    first referenced individual, else the fallback."""
    slots: tuple[list[Iri], ...] = ([], [], [], [])
    for a in kb.edges(task):
        slot = _SLOT_OF.get(a.predicate)
        if slot is not None and isinstance(a.object, Iri):
            slots[slot].append(a.object)
    operators, *bearing = slots
    local = ""
    for operator in operators:
        targets = _refs(kb, operator)
        if targets:
            local = targets[0].local.lower()
            break
    kind = op_map.get(local)
    if kind is None:
        matches = sorted({k.value for key, k in op_map.items() if key in local})
        if len(matches) != 1:
            raise UnknownStepKind(task, local)
        kind = StepKind(matches[0])
    candidates = [ref for nodes in bearing for node in nodes for ref in _refs(kb, node)]
    for candidate in candidates:
        rec = kb.entity(candidate)
        if rec and any(cls.local == "Resource" for cls in rec.memberships):
            return Step(kind, candidate)
    return Step(kind, candidates[0] if candidates else fallback)


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
                    steps.append(_step(kb, task, mapping, plan_exec))
        if agent is None:
            raise UnknownHandle(handle)
        runs.append(ProtocolRun(agent=agent, steps=tuple(steps)))
    return runs
