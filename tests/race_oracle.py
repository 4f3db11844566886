"""Reference race search: enumerate every schedule, then replay each one.

This is the two-pass search ``oasiskg.concurrency`` used before hazards
were detected inside its single depth-first walk, kept verbatim as the
oracle for the differential tests.  ``enumerate_schedules`` collects
every interleaving; ``replay_schedule`` re-runs one schedule from step 0
through ``interpret_step``; ``detect_races`` deduplicates the hazards
of all schedules, first schedule in DFS order first.
"""

from __future__ import annotations

from dataclasses import dataclass

from oasiskg.concurrency import (
    DEFAULT_BOUND,
    Conflict,
    ProtocolRun,
    RaceKind,
    RaceReport,
    ResourceState,
    Schedule,
    interpret_step,
)
from oasiskg.terms import Iri, ModelError


class IllegalSchedule(ModelError):
    def __init__(self, position: int) -> None:
        super().__init__(f"schedule takes a blocked step at position {position}")
        self.position = position


def enumerate_schedules(
    runs: list[ProtocolRun], bound: int = DEFAULT_BOUND
) -> list[Schedule]:
    """Every interleaving of the runs' steps, depth-first with the lowest
    run index explored first.  Blocked runs cannot move; when no run can
    move and steps remain, the partial schedule is kept as a deadlock."""
    schedules: list[Schedule] = []

    def walk(
        positions: tuple[int, ...],
        resources: dict[Iri, ResourceState],
        prefix: tuple[int, ...],
    ) -> None:
        if all(positions[i] >= len(r.steps) for i, r in enumerate(runs)):
            schedules.append(Schedule(prefix, "complete"))
            return
        if len(prefix) >= bound:
            schedules.append(Schedule(prefix, "truncated"))
            return
        moved = False
        for i, run in enumerate(runs):
            if positions[i] >= len(run.steps):
                continue
            step = run.steps[positions[i]]
            state = resources.get(step.resource, ResourceState())
            outcome = interpret_step(state, run.agent, step.kind)
            if outcome.blocked:
                continue
            moved = True
            nxt = dict(resources)
            nxt[step.resource] = outcome.state
            walk(
                positions[:i] + (positions[i] + 1,) + positions[i + 1 :],
                nxt,
                prefix + (i,),
            )
        if not moved:
            schedules.append(Schedule(prefix, "deadlock"))

    walk(tuple(0 for _ in runs), {}, ())
    return schedules


@dataclass(frozen=True)
class _Hazard:
    step_index: int
    kind: RaceKind
    resource: Iri
    actor: Iri
    other: Iri


def replay_schedule(
    runs: list[ProtocolRun], indices: tuple[int, ...]
) -> list[_Hazard]:
    """Replay one schedule and report every hazard along the way."""
    positions = [0 for _ in runs]
    resources: dict[Iri, ResourceState] = {}
    hazards: list[_Hazard] = []
    for at, i in enumerate(indices):
        run = runs[i]
        step = run.steps[positions[i]]
        state = resources.get(step.resource, ResourceState())
        outcome = interpret_step(state, run.agent, step.kind)
        if outcome.blocked:
            raise IllegalSchedule(at)
        resources[step.resource] = outcome.state
        positions[i] += 1
        if outcome.race is not None and outcome.other is not None:
            hazards.append(
                _Hazard(at, outcome.race, step.resource, run.agent, outcome.other)
            )
    return hazards


def detect_races(
    runs: list[ProtocolRun], bound: int = DEFAULT_BOUND
) -> list[RaceReport]:
    """Race reports over every schedule within the bound, deduplicated
    by (kind, resource, acting agent, other agent)."""
    seen: set[tuple[RaceKind, Iri, Iri, Iri]] = set()
    reports: list[RaceReport] = []
    for schedule in enumerate_schedules(runs, bound):
        for hazard in replay_schedule(runs, schedule.indices):
            key = (hazard.kind, hazard.resource, hazard.actor, hazard.other)
            if key in seen:
                continue
            seen.add(key)
            reports.append(
                RaceReport(
                    schedule=schedule.indices,
                    conflict=Conflict(
                        resource=hazard.resource,
                        agent_a=hazard.actor,
                        agent_b=hazard.other,
                        step_index=hazard.step_index,
                    ),
                    kind=hazard.kind,
                )
            )
    return reports
