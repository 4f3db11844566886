"""Reference task ordering: the quadratic ``plan_tasks``.

This is ``plan_tasks`` as it was before it became Kahn's algorithm over
a heap, kept verbatim as the oracle for the differential tests.  Each
pass rescans the goal's tasks for the first whose in-goal dependencies
are all placed; when none is, the rest follow in assertion order.
"""

from __future__ import annotations

from oasiskg.core import KnowledgeBase
from oasiskg.terms import Iri
from oasiskg.vocab import DEPENDS_ON, term


def plan_tasks(kb: KnowledgeBase, root: Iri) -> list[Iri]:
    """Tasks of a behaviour-shaped tree in run order: goals in assertion
    order, tasks within each goal topologically sorted by dependsOn with
    assertion order breaking ties."""
    out: list[Iri] = []
    for goal in kb.objects(root, term("consistsOfGoalDescription")):
        if not isinstance(goal, Iri):
            continue
        tasks = [
            t
            for t in kb.objects(goal, term("consistsOfTaskDescription"))
            if isinstance(t, Iri)
        ]
        task_set = set(tasks)
        placed: dict[Iri, None] = {}
        while len(placed) < len(tasks):
            ready = None
            for task in tasks:
                if task in placed:
                    continue
                deps = [
                    d
                    for d in kb.objects(task, DEPENDS_ON)
                    if isinstance(d, Iri) and d in task_set
                ]
                if all(d in placed for d in deps):
                    ready = task
                    break
            if ready is None:
                # dependency cycle: keep remaining tasks in assertion order
                for task in tasks:
                    placed.setdefault(task, None)
            else:
                placed[ready] = None
        out.extend(placed)
    return out
