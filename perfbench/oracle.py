"""References the benchmark checks outputs against.

Nothing here calls the code under test.  The race oracle re-implements
the semantics stated in the ``oasiskg.concurrency`` docstring by brute
force: every interleaving up to the bound, depth-first with the lowest
run index first; a request blocks while anyone holds the lock; a modify
races when another agent holds the lock, or when the lock is free and
the latest other writer is someone else; a release of someone else's
lock is a double lock.  Reports are deduplicated on (kind, resource,
acting agent, other agent) and the first schedule in DFS order wins.
"""

from __future__ import annotations

import json
from collections import Counter

#: report kinds the oracle knows; lines of any other kind are not compared
RACE_KINDS = ("UnlockedModify", "DoubleLock")

Run = tuple[str, tuple[tuple[str, str], ...]]  # (agent IRI, ((kind, resource IRI), ...))


def report_line(schedule, resource: str, actor: str, other: str, at: int, kind: str) -> str:
    return json.dumps(
        {
            "schedule": list(schedule),
            "conflict": {
                "resource": resource,
                "agentA": actor,
                "agentB": other,
                "stepIndex": at,
            },
            "kind": kind,
        },
        separators=(",", ":"),
    )


def explore(runs: list[Run], bound: int) -> tuple[list[str], Counter]:
    """Race report lines and schedule counts by status (complete,
    deadlock, truncated) for the runs."""
    reports: list[str] = []
    seen: set[tuple[str, str, str, str]] = set()
    counts: Counter = Counter()
    n = len(runs)
    positions = [0] * n
    holder: dict[str, str | None] = {}
    writers: dict[str, list[str]] = {}
    prefix: list[int] = []
    hazards: list[tuple[int, str, str, str, str]] = []

    def leaf(status: str) -> None:
        counts[status] += 1
        for at, kind, resource, actor, other in hazards:
            key = (kind, resource, actor, other)
            if key not in seen:
                seen.add(key)
                reports.append(report_line(prefix, resource, actor, other, at, kind))

    def walk() -> None:
        if all(positions[i] >= len(runs[i][1]) for i in range(n)):
            leaf("complete")
            return
        if len(prefix) >= bound:
            leaf("truncated")
            return
        moved = False
        for i in range(n):
            agent, steps = runs[i]
            if positions[i] >= len(steps):
                continue
            kind, res = steps[positions[i]]
            held = holder.get(res)
            if kind == "request" and held is not None:
                continue
            moved = True
            hazard = None
            undo_holder = res in holder, held
            undo_writers = None
            if kind == "request":
                holder[res] = agent
            elif kind == "modify":
                history = writers.setdefault(res, [])
                if held is not None and held != agent:
                    hazard = ("UnlockedModify", held)
                elif held is None:
                    others = [w for w in history if w != agent]
                    if others:
                        hazard = ("UnlockedModify", others[-1])
                history.append(agent)
                undo_writers = history
            else:  # release
                if held == agent:
                    holder[res] = None
                elif held is not None:
                    hazard = ("DoubleLock", held)
            if hazard is not None:
                hazards.append((len(prefix), hazard[0], res, agent, hazard[1]))
            positions[i] += 1
            prefix.append(i)
            walk()
            prefix.pop()
            positions[i] -= 1
            if hazard is not None:
                hazards.pop()
            if undo_writers is not None:
                undo_writers.pop()
            had, old = undo_holder
            if had:
                holder[res] = old
            else:
                holder.pop(res, None)
        if not moved:
            leaf("deadlock")

    walk()
    return reports, counts


def race_lines(lines: list[str]) -> list[str]:
    """The report lines of a kind the oracle knows, in order."""
    return [line for line in lines if json.loads(line).get("kind") in RACE_KINDS]


def _nt_term(value) -> str:
    if isinstance(value, tuple):  # literal
        escaped = value[0].replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{escaped}"'
    return f"<{value}>"


def canonical_ntriples(triples) -> str:
    """Canonical N-Triples as the package README defines it: one triple
    per line, full IRIs, sorted by subject, predicate, then object (IRIs
    before literals), LF endings, trailing newline.  Triples are
    ``(subject, predicate, object)`` strings; a literal object is a
    1-tuple."""
    def key(t):
        s, p, o = t
        return (s, p, 1, o[0]) if isinstance(o, tuple) else (s, p, 0, o)

    lines = [f"<{s}> <{p}> {_nt_term(o)} ." for s, p, o in sorted(set(triples), key=key)]
    return "\n".join(lines) + ("\n" if lines else "")
