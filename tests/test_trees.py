"""Tree queries: ``plan_tasks`` against the quadratic ordering it replaced,
``depth_first`` against a recursive walk, and the one-read tree walks
against the per-predicate scans they replaced."""

from __future__ import annotations

import random

import pytest

from oasiskg import vocab
from oasiskg.builder import StructureMismatch, pair_trees
from oasiskg.core import KnowledgeBase
from oasiskg.terms import Iri
from oasiskg.trees import clone_tree, depth_first, plan_tasks, tree_rows, walk_tree
from oasiskg.validator import check_mirror
from oasiskg.vocab import DEPENDS_ON, LayerTag, term

import plan_oracle
import tree_oracle
from conftest import count_edge_reads, store_state

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


# ---------------------------------------------------------------------------
# walk_tree, clone_tree, pair_trees and check_mirror against tree_oracle
# ---------------------------------------------------------------------------

#: each child predicate with the class of the nodes it leads to
CHILDREN = tuple(zip(vocab.CHILD_PREDICATES, vocab.TREE_NODE_CLASSES[1:]))
CHILD_RANKS = frozenset(vocab.CHILD_PREDICATES)


def shaped_tree(seed: int) -> tuple[KnowledgeBase, Iri]:
    """A behaviour-shaped tree whose edges go in shuffled, so one node's
    predicates interleave: several children under several predicates,
    literal children, shared children, dependsOn inside and out of the
    tree, reference edges, and edges removed, some of them added again."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    root = Iri("http://x/root")
    kb.assert_membership(root, vocab.BEHAVIOUR)
    kb.assert_membership(root, LayerTag.PLANNING.class_iri)
    edges: list[tuple[Iri, Iri, object]] = []
    frontier = [(root, 0)]  # node and the rank of the predicates below it
    nodes = [root]
    while frontier:
        node, depth = frontier.pop()
        for pred, cls in CHILDREN[depth:]:
            if depth < 2 and pred is not CHILDREN[depth][0]:
                break  # behaviours hold goals, goals hold tasks
            for _ in range(rng.choice((0, 1, 1, 2, 3)) if node != root else 2):
                child = Iri(f"http://x/n{len(nodes)}")
                nodes.append(child)
                kb.assert_membership(child, cls)
                edges.append((node, pred, child))
                if depth < 2:
                    frontier.append((child, depth + 1))
        if rng.random() < 0.3:
            edges.append((node, rng.choice(vocab.CHILD_PREDICATES), f"lit{len(edges)}"))
        if rng.random() < 0.4:
            pred = rng.choice(vocab.REFERS_PREDICATES)
            edges.append((node, pred, rng.choice((Iri("http://x/shared"), "text"))))
    for _ in range(rng.randint(0, len(nodes))):
        a, b = rng.choice(nodes), rng.choice(nodes + [Iri("http://x/outside")])
        edges.append((a, DEPENDS_ON, b))
    for _ in range(rng.randint(0, 2)):
        # a child under a second parent, minted before it, so no cycles:
        # the oracle's pair_trees follows child edges without a visited set
        children = [e for e in edges if e[1] in CHILD_RANKS and e[2] in nodes]
        _, pred, child = rng.choice(children)
        edges.append((rng.choice(nodes[: nodes.index(child)]), pred, child))
    rng.shuffle(edges)
    for s, p, o in edges:
        kb.assert_property(s, p, o)
    for a in rng.sample(list(kb.assertions), k=len(kb) // 5):
        kb.remove(a)
        if rng.random() < 0.7:
            kb.assert_property(a.subject, a.predicate, a.object)  # to the end
    return kb, root


def reshape(kb: KnowledgeBase, rng: random.Random, nodes: list[Iri]) -> None:
    """One change to the tree under ``nodes`` or its family links: a child
    added, removed or moved to another predicate, a link removed or one
    added to the wrong node."""
    node = rng.choice(nodes)
    edges = [a for a in kb.edges(node) if a.predicate in CHILD_RANKS]
    links = [a for a in kb.edges(node) if a.predicate in vocab.SUB_CLOSURE[vocab.OVERLOADS]]
    kind = rng.choice(("add", "remove", "move", "unlink", "relink"))
    if kind == "add" or not edges and kind in ("remove", "move"):
        pred, cls = rng.choice(CHILDREN)
        child = Iri(f"http://x/extra{len(kb)}")
        kb.assert_membership(child, cls)
        kb.assert_property(node, pred, child)
    elif kind in ("remove", "move"):
        a = rng.choice(edges)
        kb.remove(a)
        if kind == "move":
            kb.assert_property(node, rng.choice(vocab.CHILD_PREDICATES), a.object)
    elif kind == "unlink" and links:
        kb.remove(rng.choice(links))
    else:
        member = rng.choice(sorted(vocab.SUB_CLOSURE[vocab.OVERLOADS]))
        kb.assert_property(node, member, rng.choice(nodes))


def outcome(pair, kb: KnowledgeBase, left: Iri, right: Iri):
    try:
        return pair(kb, left, right)
    except StructureMismatch as err:
        return str(err)


def test_the_tree_oracle_runs_its_own_copies():
    for name in (
        "walk_tree", "clone_tree", "pair_trees", "check_mirror",
        "tree_class", "clone_node", "link_pairs",
    ):
        assert getattr(tree_oracle, name).__module__ == "tree_oracle", name
    borrowed = [
        name for name, value in vars(tree_oracle).items()
        if getattr(value, "__module__", None) == "oasiskg.trees"
    ]
    assert borrowed == []


def twins(seed: int) -> tuple[KnowledgeBase, KnowledgeBase, Iri]:
    """Two copies of ``shaped_tree(seed)``, with the journal on, so the
    journal's order is compared too."""
    kb, root = shaped_tree(seed)
    twin, _ = shaped_tree(seed)
    assert store_state(kb) == store_state(twin)
    kb.journal, twin.journal = [], []
    return kb, twin, root


@pytest.mark.parametrize("seed", range(30))
def test_tree_reads_match_the_per_predicate_oracle(seed):
    kb, twin, root = twins(seed)
    rows = tree_rows(kb, root)
    nodes = walk_tree(kb, root)
    assert nodes == [node for node, _, _ in rows] == tree_oracle.walk_tree(kb, root)
    assert [cls for _, cls, _ in rows] == [tree_oracle.tree_class(kb, n) for n in nodes]
    # the same clone indices, so the same minted IRIs, in the same order,
    # and each clone overloads its source, as derive_behaviour links them
    mapping = clone_tree(
        kb, rows, LayerTag.BEHAVIOUR, vocab.CLASS_TO_OVERLOAD, from_clone=True
    )
    expected = tree_oracle.clone_tree(twin, root, LayerTag.BEHAVIOUR)
    tree_oracle.link_pairs(
        twin, {c: s for s, c in expected.items()}, vocab.CLASS_TO_OVERLOAD
    )
    assert mapping == expected
    assert store_state(kb) == store_state(twin)
    clone = mapping[root]
    assert outcome(pair_trees, kb, root, clone) == tree_oracle.pair_trees(kb, root, clone)
    assert check_mirror(kb, clone, root, vocab.OVERLOADS) == tree_oracle.check_mirror(
        kb, clone, root, vocab.OVERLOADS
    )
    rng = random.Random(seed)
    clones = list(mapping.values())
    # a child the source lacks: the pair fails, on both sides alike
    pred, cls = rng.choice(CHILDREN)
    kb.assert_membership(Iri("http://x/stray"), cls)
    kb.assert_property(rng.choice(clones), pred, Iri("http://x/stray"))
    with pytest.raises(StructureMismatch):
        pair_trees(kb, root, clone)
    for step in range(12):
        for left, right in ((root, clone), (clone, root)):
            got = outcome(pair_trees, kb, left, right)
            assert got == outcome(tree_oracle.pair_trees, kb, left, right), step
        assert walk_tree(kb, clone) == tree_oracle.walk_tree(kb, clone), step
        assert check_mirror(kb, clone, root, vocab.OVERLOADS) == tree_oracle.check_mirror(
            kb, clone, root, vocab.OVERLOADS
        ), step
        reshape(kb, rng, rng.choice((clones, nodes)))


@pytest.mark.parametrize("seed", range(10))
def test_clones_linked_from_their_source_match_the_oracle(seed):
    """Source-to-clone links, as the engine writes them, and a second clone
    from rows read before the first: the oracle walks the tree again after
    the first clone's writes."""
    kb, twin, root = twins(seed)
    rows = tree_rows(kb, root)
    for _ in range(2):
        mapping = clone_tree(kb, rows, LayerTag.EXECUTION, vocab.CLASS_TO_HAS_EXECUTION)
        expected = tree_oracle.clone_tree(twin, root, LayerTag.EXECUTION)
        tree_oracle.link_pairs(twin, expected, vocab.CLASS_TO_HAS_EXECUTION)
        assert mapping == expected
        assert store_state(kb) == store_state(twin)
        clone = mapping[root]
        assert check_mirror(kb, root, clone, vocab.HAS_EXECUTION) == tree_oracle.check_mirror(
            kb, root, clone, vocab.HAS_EXECUTION
        )


def test_check_mirror_reads_each_source_node_once(monkeypatch):
    kb, root = shaped_tree(3)
    rows = tree_rows(kb, root)
    mapping = clone_tree(kb, rows, LayerTag.BEHAVIOUR, vocab.CLASS_TO_OVERLOAD, from_clone=True)
    reads = count_edge_reads(kb, monkeypatch)
    found = check_mirror(kb, mapping[root], root, vocab.OVERLOADS)
    monkeypatch.undo()
    assert found == tree_oracle.check_mirror(kb, mapping[root], root, vocab.OVERLOADS)
    sources = list(mapping.values())
    assert len(sources) > 5
    assert {node: reads[node] for node in sources} == dict.fromkeys(sources, 1)
