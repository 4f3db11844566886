"""Tree queries: ``plan_tasks`` against the quadratic ordering it replaced."""

from __future__ import annotations

import random

import pytest

from oasiskg.core import KnowledgeBase
from oasiskg.terms import Iri
from oasiskg.trees import plan_tasks
from oasiskg.vocab import DEPENDS_ON, term

import plan_oracle

GOAL_OF = term("consistsOfGoalDescription")
TASK_OF = term("consistsOfTaskDescription")


def goal_tree(goals: list[int], edges: list[tuple[int, int, int, int]]):
    """A root whose goals hold the given numbers of tasks; each edge
    ``(g, i, h, j)`` makes task i of goal g depend on task j of goal h."""
    kb = KnowledgeBase()
    root = Iri("http://x/root")
    tasks = []
    for g, count in enumerate(goals):
        goal = Iri(f"http://x/g{g}")
        kb.assert_property(root, GOAL_OF, goal)
        tasks.append([Iri(f"http://x/g{g}_t{i}") for i in range(count)])
        for task in tasks[g]:
            kb.assert_property(goal, TASK_OF, task)
    for g, i, h, j in edges:
        kb.assert_property(tasks[g][i], DEPENDS_ON, tasks[h][j])
    return kb, root


def random_tree(rng: random.Random, *, acyclic: bool):
    goals = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
    # an acyclic graph only points from a higher rank to a lower one
    rank = {(g, i): rng.random() for g, n in enumerate(goals) for i in range(n)}
    nodes = list(rank)
    edges = []
    for _ in range(rng.randint(0, 3 * len(nodes))):
        (g, i), (h, j) = rng.choice(nodes), rng.choice(nodes)
        if g != h and rng.random() < 0.7:
            h = g  # most edges stay inside the goal
            j = rng.randrange(goals[g])
        if acyclic and rank[(g, i)] <= rank[(h, j)]:
            continue
        edges.append((g, i, h, j))
    return goal_tree(goals, edges)


@pytest.mark.parametrize("acyclic", [True, False], ids=["dag", "cyclic"])
@pytest.mark.parametrize("seed", range(40))
def test_plan_tasks_matches_the_oracle_on_random_goals(seed, acyclic):
    kb, root = random_tree(random.Random(seed), acyclic=acyclic)
    assert plan_tasks(kb, root) == plan_oracle.plan_tasks(kb, root)


@pytest.mark.parametrize(
    "goals, edges",
    [
        ([3], [(0, 1, 0, 1)]),  # a self-dependency
        ([4], [(0, 0, 0, 1), (0, 1, 0, 0), (0, 3, 0, 2)]),  # a two-cycle before a chain
        ([3], [(0, 0, 0, 2), (0, 2, 0, 1), (0, 1, 0, 2)]),  # a task behind a cycle
        ([2, 2], [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)]),  # edges leaving the goal
        ([5], [(0, i, 0, i + 1) for i in range(4)]),  # a reversed chain
    ],
    ids=["self", "two-cycle", "behind-a-cycle", "leaving-the-goal", "reversed-chain"],
)
def test_plan_tasks_matches_the_oracle_on_edge_cases(goals, edges):
    kb, root = goal_tree(goals, edges)
    assert plan_tasks(kb, root) == plan_oracle.plan_tasks(kb, root)


def test_plan_tasks_ignores_literal_dependencies():
    kb, root = goal_tree([2], [(0, 1, 0, 0)])
    kb.assert_property(Iri("http://x/g0_t0"), DEPENDS_ON, "http://x/g0_t1")
    assert [t.local for t in plan_tasks(kb, root)] == ["g0_t0", "g0_t1"]


def test_plan_tasks_orders_a_long_reversed_chain():
    # each task depends on the next: the quadratic oracle needs seconds
    n = 1000
    kb, root = goal_tree([n], [(0, i, 0, i + 1) for i in range(n - 1)])
    order = plan_tasks(kb, root)
    assert [t.local for t in order] == [f"g0_t{i}" for i in reversed(range(n))]
