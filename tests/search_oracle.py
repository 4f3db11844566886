"""Reference state search: one generator per state on the path.

This is ``oasiskg.concurrency._search`` as it was before a search state
became one packed int walked on a list of frames, kept verbatim as the
oracle for the differential tests.  A state is a tuple of ints, the run
positions then each resource's lock-state id; each move rebuilds it,
and each state carries its whole prefix.
"""

from __future__ import annotations

from collections.abc import Iterator

from oasiskg.concurrency import (
    Conflict,
    ProtocolRun,
    RaceKind,
    RaceReport,
    ResourceState,
    StepKind,
    interpret_step,
)
from oasiskg.terms import Iri

#: a search state: run positions, then lock-state ids by first-named resource
_Key = tuple[int, ...]
#: by state number: each move as (run index, next state's number)
_Moves = list[tuple[tuple[int, int], ...]]


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
