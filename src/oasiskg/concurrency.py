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
at most two writers, not the whole history.  The search numbers the A
distinct agents from 0 by first appearance over the runs, and a lock
state names them by index.  Lock states are numbered in the order the
transition table (below) first reaches them, the free state 0, as
search states are; there are ``(A + 1)(A² + 1)`` of them (a holder or
none, times no, one or two distinct last writers), which fixes the
width of a lock-state id.  A
search state is one int of fixed bit fields: from bit 0 up, each
resource's lock-state id, then each run's position, as wide as its
length needs.  A move adds one to its run's field and swaps its
resource's id, with one addition to the int.  Each state is numbered
when first reached and its moves are kept by number, so one copy of
each state is stored.  A step is the action ``agent index * 3 + step
kind code``.  A transition table, probed at the one int
``lock-state id * 3A + action``, gives the next id, or blocked, and the
hazard raised, as ``(race code * A + actor) * A + other``.  The table
numbers the lock states, so ids, actions and hazards mean the same in
every search over A agents: there is one table per agent count, shared
by every search and kept as long as the process.  An entry is filled,
by ``interpret_step`` on the lock state its id names, the first time
any search needs it, so the table grows only with what searches
reach.  So
``interpret_step`` runs once per distinct transition per agent count in
a process, not once per search, state and run.  Hazards name agents by
IRI again only when reports are built.  ``sum(positions)`` fixes step
indices and the bound cut, so a state reached again was searched, at
the same depth, before.  The walk keeps one list of frames, one per
state on the path above the current one, each with the run index its
next move is tried from; a leaf at the cut gets no frame.  Hazards are
taken on the step that raises them, in pre-order: the order "first
schedule in depth-first order, then step order" of a walk over every
schedule.  The frames spell the path, so a hazard's prefix is read off
them when it is first raised, and no state keeps its own.  A report's
schedule is that prefix plus the leftmost completion below, so reports
match that walk's byte for byte.

``extract_runs`` rebuilds runs from realized processes and reads each
record's edges once.  ``trees.chain_rows`` walks a procedure's states
and hands on the edges it read of each, in which one scan finds the
state's plan execution; one scan of the plan execution's in-edges
takes the least performer.  ``trees.plan_tasks`` reads the plan's
and each goal's edges once; a goal of fewer than two tasks has no
order to find, so its task's edges are read only by its step.  A step
makes one pass over its task's edges: it reads the operators in order
until one refers to a target, and sorts the IRI objects of the three
resource-bearing predicates into their slots.  It reads each operator's
and each resource-bearing node's edges at most once, exact references
before new ones, tests the candidate resources in that order and stops
at the first Resource.  One call memoizes the step kind of each operator target,
once mapped, so an unmapped name still fails for each task that
carries it, and whether each referenced individual is typed by a class
named Resource.
"""

from __future__ import annotations

import json
from enum import Enum

from .core import KnowledgeBase
from .terms import Frozen, Iri, ModelError
from .trees import chain_rows, is_root, plan_tasks, procedure_order
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


class ProtocolRun(Frozen):
    __slots__ = ("agent", "steps")


class ResourceState(Frozen):
    # modified_by, after a Modify: the latest earlier writer other than
    # the last one, if any, then the last writer; all that
    # ``interpret_step`` reads.  Agents are IRIs, or in the search their
    # indices
    __slots__ = ("holder", "modified_by")
    _defaults = {"holder": None, "modified_by": ()}


class StepOutcome(Frozen):
    __slots__ = ("state", "blocked", "race", "other")
    _defaults = {"blocked": False, "race": None, "other": None}


class Schedule(Frozen):
    __slots__ = ("indices", "status")  # status: complete, deadlock or truncated

    @property
    def complete(self) -> bool:
        return self.status == "complete"


class Conflict(Frozen):
    __slots__ = ("resource", "agent_a", "agent_b", "step_index")


class RaceReport(Frozen):
    __slots__ = ("schedule", "conflict", "kind")

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


def interpret_step(state: ResourceState, agent: Iri | int, kind: StepKind) -> StepOutcome:
    """Outcome of one step against one resource's lock state; agents are
    compared by equality only, so IRIs and agent indices both work."""
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

#: by state number: each move as (run index, next state's number)
_Moves = list[tuple[tuple[int, int], ...]]
_STATUSES = ("complete", "deadlock", "truncated")
#: the schedule counts of a leaf, by status
_COMPLETE, _DEADLOCK, _TRUNCATED = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class RaceSearch(Frozen):
    # schedules: counts by status (complete, deadlock, truncated);
    # states: distinct states searched
    __slots__ = ("reports", "schedules", "states")


#: the codes of step kinds and race kinds, in declaration order
_KINDS = tuple(StepKind)
_KIND_CODE = {kind: n for n, kind in enumerate(_KINDS)}
_RACES = tuple(RaceKind)
_RACE_CODE = {race: n for n, race in enumerate(_RACES)}

#: a lock state over agent indices as the plain (holder, modified_by),
#: the key of its id: a tuple hashes in C, a ``ResourceState`` in Python
_Lock = tuple[int | None, tuple[int, ...]]
#: by agent count A, the transition table every search over A agents
#: shares, ``lock-state id * 3A + action`` -> (next lock-state id, or -1
#: if the step blocks; hazard or -1); the lock states it has reached, by
#: id; and their ids, by (holder, modified_by).  Both are seeded with
#: the free state, id 0, that every lock field starts at, and a lock
#: state gets the next id when a fill first reaches it.  Each entry is
#: filled when a search first needs it, and always with the same value,
#: so the tables live as long as the process, each growing only with the
#: transitions searches have taken: at most (A + 1)(A² + 1) * 3A entries
_TABLES: dict[
    int, tuple[dict[int, tuple[int, int]], list[ResourceState], dict[_Lock, int]]
] = {}


def _transition(
    states: list[ResourceState], ids: dict[_Lock, int], agents: int, lid: int, action: int
) -> tuple[int, int]:
    """The table entry for ``action`` on lock state ``lid``: one step by
    ``interpret_step`` on the lock state over agent indices that the
    table keeps under that id, and the next state's id, the next free
    one if the table has not reached it before.  A hazard is the one int
    ``(race code * A + actor) * A + other``."""
    agent = action // 3
    outcome = interpret_step(states[lid], agent, _KINDS[action % 3])
    if outcome.blocked:
        return -1, -1
    hazard = -1
    if outcome.race is not None:
        hazard = (_RACE_CODE[outcome.race] * agents + agent) * agents + outcome.other
    state = outcome.state
    new = ids.setdefault((state.holder, state.modified_by), len(states))
    if new == len(states):
        states.append(state)
    return new, hazard


def _search(
    runs: list[ProtocolRun], bound: int
) -> tuple[_Moves, list[tuple[int, ...]], list[RaceReport]]:
    """Depth-first search over distinct states, each packed in one int,
    on a list of frames, one per state on the path above the current
    one.  Agents are numbered by first appearance over the runs, and
    lock states and hazards name them by index; the transition table is
    the one shared by every search over as many agents.  States are
    numbered in the order they are first reached, the start state 0.
    Returns by state number the moves and the schedules below counted in
    ``_STATUSES`` order, then the reports."""
    resources = list(dict.fromkeys(s.resource for run in runs for s in run.steps))
    index: dict[Iri, int] = {}
    for run in runs:
        index.setdefault(run.agent, len(index))
    agents = len(index)
    #: a lock state holds a holder or none and no, one or two distinct
    #: last writers: (A + 1)(A² + 1) of them for A agents, so ids
    #: numbered by first reach stay below that
    n_locks = (agents + 1) * (agents * agents + 1)
    lock_bits = (n_locks - 1).bit_length()
    lock_mask = (1 << lock_bits) - 1
    #: from bit 0 up, each resource's lock-state id field, then each
    #: run's position field
    lock_shift = {resource: n * lock_bits for n, resource in enumerate(resources)}
    shift = len(resources) * lock_bits
    #: per run: each step as (its resource's field shift, action: agent
    #: index * 3 + step kind code), then None; the position field's
    #: shift and mask; and the key's increment for one step of the run
    fields = []
    for run in runs:
        width = len(run.steps).bit_length()
        actor = 3 * index[run.agent]
        plan = [(lock_shift[s.resource], actor + _KIND_CODE[s.kind]) for s in run.steps]
        fields.append((plan + [None], shift, (1 << width) - 1, 1 << shift))
        shift += width
    n_runs = len(fields)
    n_actions = 3 * agents
    total = sum(len(run.steps) for run in runs)
    cut = max(0, min(total, bound))
    #: every leaf that is no deadlock is at depth ``cut``, so all of
    #: them complete or all are truncated
    leaf = _COMPLETE if cut == total else _TRUNCATED
    if cut == 0:  # the start state is the only leaf
        return [()], [leaf], []
    shared = _TABLES.get(agents)
    if shared is None:
        shared = _TABLES[agents] = ({}, [ResourceState()], {(None, ()): 0})
    table, states, ids = shared
    #: each state reached by number, the start state all zeros; its
    #: moves and counts, by number, are filled in when its search ends
    numbers = {0: 0}
    moves: _Moves = [()]
    counts: list[tuple[int, ...]] = [()]
    #: the first (schedule prefix, next state's number) to raise each
    #: (hazard, resource's field shift)
    found: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
    #: the states on the path above the current one, each as (key,
    #: number, the run index its next move is tried from, its moves so
    #: far); each frame's next run index is one past the move taken
    frames: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    key = number = start = depth = 0  # the current state; depth: sum(positions)
    out: list[tuple[int, int]] = []
    while True:
        # take the current state's moves in run order from ``start``; a
        # next state reached for the first time is searched before the
        # next move is taken, unless it is a leaf at the cut
        last = depth + 1 == cut
        for i in range(start, n_runs):
            plan, run_shift, run_mask, run_one = fields[i]
            step = plan[(key >> run_shift) & run_mask]
            if step is None:
                continue
            shift, action = step
            lid = (key >> shift) & lock_mask
            probe = lid * n_actions + action
            move = table.get(probe)
            if move is None:
                move = table[probe] = _transition(states, ids, agents, lid, action)
            new, hazard = move
            if new < 0:
                continue
            child = key + run_one + ((new - lid) << shift)
            n = numbers.get(child)
            fresh = n is None
            if fresh:
                n = numbers[child] = len(moves)
                moves.append(())
                counts.append(leaf if last else ())
            if hazard >= 0 and (hazard, shift) not in found:
                prefix = tuple(frame[2] - 1 for frame in frames) + (i,)
                found[hazard, shift] = (prefix, n)
            out.append((i, n))
            if fresh and not last:
                frames.append((key, number, i + 1, out))
                key, number, start, out = child, n, 0, []
                depth += 1
                break
        else:
            # every move taken: count the schedules below the state
            moves[number] = tuple(out)
            if out:
                complete = deadlock = truncated = 0
                for _, n in out:
                    c, d, t = counts[n]
                    complete += c
                    deadlock += d
                    truncated += t
                counts[number] = (complete, deadlock, truncated)
            else:
                counts[number] = _DEADLOCK
            if not frames:
                break
            key, number, start, out = frames.pop()
            depth -= 1
    reports = []
    iris = list(index)
    for (hazard, shift), (schedule, number) in found.items():
        race, pair = divmod(hazard, agents * agents)
        actor, other = divmod(pair, agents)
        conflict = Conflict(
            resources[shift // lock_bits], iris[actor], iris[other], len(schedule) - 1
        )
        while moves[number]:  # complete the schedule leftmost below
            i, number = moves[number][0]
            schedule += (i,)
        reports.append(RaceReport(schedule, conflict, _RACES[race]))
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
#: the resource-bearing predicates, by slot in ``_RESOURCE_BEARING`` order
_SLOT_OF = {pred: n for n, pred in enumerate(_RESOURCE_BEARING)}


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
    kb: KnowledgeBase,
    task: Iri,
    op_map: dict[str, StepKind],
    fallback: Iri,
    kinds: dict[Iri | None, StepKind],
    resources: dict[Iri, bool],
) -> Step:
    """A task's step from one pass over its edges, which reads the
    operators in order until one refers to a target and sorts the
    resource-bearing nodes into their three slots.  The kind comes from
    that first target; the resource is the first referenced individual
    typed by a class named Resource, else the first referenced
    individual, else the fallback.  Candidates are read and tested in
    that order, and the first Resource ends the scan.
    ``kinds`` memoizes the kind by target (``None`` for no target), and
    only once mapped, so an unmapped name fails for each task that has
    it; ``resources`` memoizes whether an individual is typed by a
    Resource class."""
    target = None
    bearing: tuple[list[Iri], ...] = ([], [], [])
    for a in kb.edges(task):
        node = a.object
        if isinstance(node, Iri):
            if a.predicate is HAS_TASK_OPERATOR:
                if target is None and (targets := _refs(kb, node)):
                    target = targets[0]
            elif (slot := _SLOT_OF.get(a.predicate)) is not None:
                bearing[slot].append(node)
    kind = kinds.get(target)
    if kind is None:
        local = "" if target is None else target.local.lower()
        kind = op_map.get(local)
        if kind is None:
            matches = sorted({k.value for key, k in op_map.items() if key in local})
            if len(matches) != 1:
                raise UnknownStepKind(task, local)
            kind = StepKind(matches[0])
        kinds[target] = kind
    first = None
    for nodes in bearing:
        for node in nodes:
            for candidate in _refs(kb, node):
                typed = resources.get(candidate)
                if typed is None:
                    rec = kb.entity(candidate)
                    typed = resources[candidate] = rec is not None and any(
                        cls.local == "Resource" for cls in rec.memberships
                    )
                if typed:
                    return Step(kind, candidate)
                if first is None:
                    first = candidate
    return Step(kind, fallback if first is None else first)


def extract_runs(
    kb: KnowledgeBase,
    handles: list[Iri],
    op_map: dict[str, StepKind] | None = None,
) -> list[ProtocolRun]:
    """Rebuild protocol runs from realized process roots.

    Each handle contributes one run: its states in chain order, one step
    per task of each state's plan execution, the first IRI the state is
    described by.  The run's agent is each plan execution's least
    performer; plan executions that name different ones raise
    ``MixedAgents``.  Step kinds come from the operator's referenced
    action name through ``op_map``.
    """
    mapping = dict(DEFAULT_OP_MAP)
    if op_map:
        mapping.update({k.lower(): v for k, v in op_map.items()})
    #: one call's memos for ``_step``: step kinds by operator target,
    #: and whether each referenced individual is a Resource
    kinds: dict[Iri | None, StepKind] = {}
    resources: dict[Iri, bool] = {}
    runs: list[ProtocolRun] = []
    for handle in handles:
        if not is_root(kb, handle, PROCESS, LayerTag.EXECUTION):
            raise UnknownHandle(handle)
        agent: Iri | None = None
        steps: list[Step] = []
        for proc in procedure_order(kb, handle):
            for _, edges in chain_rows(kb, proc):
                for a in edges:
                    plan_exec = a.object
                    if a.predicate is IS_DESCRIBED_BY and isinstance(plan_exec, Iri):
                        break
                else:
                    continue
                performer = min(
                    (
                        a.subject
                        for a in kb.in_edges(plan_exec)
                        if a.predicate is PERFORMS_PLAN_EXECUTION
                    ),
                    default=None,
                )
                if performer is not None:
                    if agent is None:
                        agent = performer
                    elif agent is not performer:
                        raise MixedAgents(handle)
                for task in plan_tasks(kb, plan_exec):
                    steps.append(_step(kb, task, mapping, plan_exec, kinds, resources))
        if agent is None:
            raise UnknownHandle(handle)
        runs.append(ProtocolRun(agent=agent, steps=tuple(steps)))
    return runs
