"""Tree queries: ``plan_tasks`` against the quadratic ordering it replaced,
and ``depth_first`` against a recursive walk."""

from __future__ import annotations

import random

import pytest

from oasiskg.core import KnowledgeBase
from oasiskg.terms import Iri
from oasiskg.trees import depth_first, plan_tasks
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


# ---------------------------------------------------------------------------
# depth_first
# ---------------------------------------------------------------------------


def walk(starts, edges):
    reached, back = depth_first(starts, lambda node: edges.get(node, ()))
    return list(reached), back


def test_depth_first_visits_in_pre_order_once_per_node():
    edges = {"a": ("c",), "b": ("a", "d")}
    assert walk(["a", "b", "a"], edges) == (["a", "c", "b", "d"], None)


def test_depth_first_finds_no_back_edge_in_a_dag():
    edges = {"a": ("b", "c"), "b": ("d",), "c": ("d",), "d": ()}
    assert walk(["a"], edges) == (["a", "b", "d", "c"], None)


def test_depth_first_names_the_first_back_edge_of_two_cycles():
    edges = {"a": ("b", "c"), "b": ("a",), "c": ("c",)}
    assert walk(["a"], edges) == (["a", "b", "c"], "a")
    assert walk(["c", "a"], edges) == (["c", "a", "b"], "c")


def test_depth_first_reaches_everything_past_a_cycle():
    edges = {"a": ("b",), "b": ("a", "c"), "c": ("d",)}
    assert walk(["a"], edges) == (["a", "b", "c", "d"], "a")


def test_depth_first_walks_long_chains_without_recursion():
    edges = {i: (i + 1,) for i in range(1999)}
    edges[1999] = (0,)
    reached, back = walk([0], edges)
    assert reached == list(range(2000))
    assert back == 0


def recursive_walk(starts, edges):
    """The same walk written recursively, on small graphs only."""
    order: list = []
    on_path: set = set()
    backs: list = []

    def visit(node) -> None:
        order.append(node)
        on_path.add(node)
        for nxt in edges.get(node, ()):
            if nxt in on_path:
                backs.append(nxt)
            elif nxt not in order:
                visit(nxt)
        on_path.discard(node)

    for start in starts:
        if start not in order:
            visit(start)
    return order, backs[0] if backs else None


@pytest.mark.parametrize("seed", range(20))
def test_depth_first_matches_a_recursive_walk(seed):
    rng = random.Random(seed)
    nodes = list(range(rng.randint(1, 9)))
    edges = {n: tuple(rng.choices(nodes, k=rng.randint(0, 3))) for n in nodes}
    starts = rng.choices(nodes, k=rng.randint(1, 4))
    assert walk(starts, edges) == recursive_walk(starts, edges)
