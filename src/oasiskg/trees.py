"""Walking, ordering, cloning and linking behaviour-shaped trees.

The tree queries and primitives that the builder, the validator, the
engine and the race search share, and the one depth-first walk under
the builder's dependency check and the validator's chain check.  It
sits over ``core`` only, so the validator and the race search read
trees without loading the builder or the engine.  The write rules of
the layers live here, each once: cloning, family links, a process's
procedure chain, each procedure's state chain, the classes a node
carries at its position and the root guard.  The
builder and the engine both write with them, so their layers cannot
drift apart, and neither imports the other.  Whether an agent may
perform a behaviour is not a tree question; ``validator`` decides it.

A tree is walked by ``tree_rows`` alone, breadth-first: one row per
node with the node's one entity record and its edges under a rank
table.  Its child-predicate edges come first and drive the walk; the
edges ranked after them serve the caller, the clone's dependsOn and
reference edges or a mirror check's family links.  A caller that needs
a node's tree-node class reads it from the row's record with
``tree_class``, so no node is looked up twice.  ``clone_tree`` clones a
tree from its rows, read before the first write, and hands the store
one batch: the clones' memberships, their edges, then the family links
between each node and its clone.

A procedure's state chain is walked by ``chain_rows`` alone, one row
per state with the edges it read of the state, so a caller that wants
more of a state than its successor reads no edge twice.
``plan_tasks`` reads each goal's edges once, and a task's only when
its goal has two or more tasks to order.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable, Iterator, KeysView, Sequence

from .core import EntityRecord, KnowledgeBase, Triple
from .terms import Assertion, Iri
from .vocab import (
    CHILD_PREDICATES,
    CONSISTS_OF_GOAL,
    CONSISTS_OF_PROCEDURE,
    CONSISTS_OF_TASK,
    DEPENDS_ON,
    FINAL_STATE,
    HAS_FINAL_STATE,
    HAS_NEXT,
    HAS_NEXT_NON_TERMINATING,
    HAS_NEXT_PROCEDURE,
    INITIAL_STATE,
    LAYER_CLASSES,
    LayerTag,
    NON_TERMINATING_STATE,
    PROC_CONSISTS_FINAL,
    PROC_CONSISTS_INITIAL,
    PROC_CONSISTS_NON_TERMINATING,
    RDF_TYPE,
    REFERS_PREDICATES,
    SUB_CLOSURE,
    TREE_NODE_CLASSES,
)

# ---------------------------------------------------------------------------
# Tree walking, cloning and the layer rules
# ---------------------------------------------------------------------------


#: each child predicate's rank: a node's children are its child-predicate
#: edges in this order, and in assertion order under one predicate
CHILD_RANK: dict[Iri, int] = {pred: i for i, pred in enumerate(CHILD_PREDICATES)}
#: the edges a clone copies: children, then dependsOn, then references
_CLONE_RANK: dict[Iri, int] = {
    pred: i
    for i, pred in enumerate(CHILD_PREDICATES + (DEPENDS_ON,) + REFERS_PREDICATES)
}
#: reference edges, whose clones keep pointing at the shared targets
_REFERS = frozenset(REFERS_PREDICATES)


#: one node of a tree walk: the node, its entity record (``None`` for a
#: node the store has no record of) and its edges under the walk's rank
#: table
TreeRow = tuple[Iri, EntityRecord | None, list[Assertion]]


def tree_rows(
    kb: KnowledgeBase, root: Iri, ranks: dict[Iri, int] = _CLONE_RANK
) -> list[TreeRow]:
    """Each node of a behaviour-shaped tree, breadth-first in assertion
    order, with its entity record and its edges whose predicate
    ``ranks`` holds, by predicate rank and in assertion order under one
    predicate: the one tree walk.  ``ranks`` ranks the child predicates
    first, in ``CHILD_RANK``'s order, so a node's child-predicate edges
    are the prefix of its edges that the walk follows, and the one
    record read for each node gives the walk and the caller its edges
    and, through ``tree_class``, its class."""
    entities = kb.entities
    rows: list[TreeRow] = []
    seen = {root}
    queue = [root]
    for node in queue:  # the queue grows as the walk goes
        rec = entities.get(node)
        edges: list[Assertion] = []
        if rec is not None:
            edges = [a for a in rec.edges if a.predicate in ranks]
            if len(edges) > 1:
                edges.sort(key=lambda a: ranks[a.predicate])  # stable
        rows.append((node, rec, edges))
        for a in edges:
            if a.predicate not in CHILD_RANK:
                break  # the child-predicate edges come first
            child = a.object
            if isinstance(child, Iri) and child not in seen:
                seen.add(child)
                queue.append(child)
    return rows


def depth_first(
    starts: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Hashable]]
) -> tuple[KeysView[Hashable], Hashable | None]:
    """Nodes reached from ``starts`` in pre-order, and the first node met
    again on an edge back into the walk's current path (``None`` when the
    graph reached has no cycle).  The walk keeps an explicit stack, so a
    deep graph needs no recursion, and goes on past a back edge, so the
    reached nodes are all of them."""
    on_path: dict[Hashable, bool] = {}
    back = None
    stack: list[tuple[Hashable, Iterator[Hashable]]] = [(None, iter(starts))]
    while stack:
        node, pending = stack[-1]
        for nxt in pending:
            if nxt not in on_path:
                on_path[nxt] = True
                stack.append((nxt, iter(successors(nxt))))
                break
            if back is None and on_path[nxt]:
                back = nxt
        else:
            stack.pop()
            if stack:  # the bottom entry holds the starts, not a node
                on_path[node] = False
    return on_path.keys(), back


def tree_class(rec: EntityRecord | None) -> Iri | None:
    """The tree-node class (behaviour, goal, task, element) of the entity
    ``rec`` records, as a ``tree_rows`` row carries it."""
    if rec is not None:
        for cls in TREE_NODE_CLASSES:
            if cls in rec.memberships:
                return cls
    return None


def _clones(
    kb: KnowledgeBase, nodes: Iterable[Iri], layer: LayerTag
) -> tuple[dict[Iri, Iri], list[Triple]]:
    """Mint each node's clone in ``layer``, in order, and return the
    source-to-clone map and the clones' memberships: each clone's layer
    class, then every other class of its source."""
    tail = f"__{layer.value}__"
    layer_cls = layer.class_iri
    entities = kb.entities
    mapping: dict[Iri, Iri] = {}
    triples: list[Triple] = []
    for node in nodes:
        clone = mapping[node] = kb.fresh_iri(node, tail)
        triples.append((clone, RDF_TYPE, layer_cls))
        rec = entities.get(node)
        if rec is not None:
            for cls in rec.memberships:
                if cls not in LAYER_CLASSES:
                    triples.append((clone, RDF_TYPE, cls))
    return mapping, triples


def clone_node(kb: KnowledgeBase, node: Iri, layer: LayerTag) -> Iri:
    """Mint ``node``'s clone in ``layer``, typed with the layer class and
    every other class of the source, in one batch; no edges are copied."""
    mapping, triples = _clones(kb, (node,), layer)
    kb.load(triples)
    return mapping[node]


def clone_tree(
    kb: KnowledgeBase,
    rows: list[TreeRow],
    layer: LayerTag,
    members: dict[Iri, Iri],
    *,
    from_clone: bool = False,
) -> dict[Iri, Iri]:
    """Copy a behaviour-shaped tree, ``tree_rows``' rows of it under the
    clone ranks, into ``layer``, and link each node with its clone
    through the family member that ``members`` names for its tree-node
    class: source to clone, or clone to source ``from_clone``.

    Returns the source-to-clone map.  Intra-tree edges (child predicates
    and dependsOn) are re-emitted between clones; reference edges keep
    pointing at the shared targets; nothing else is copied.  Every clone
    is minted first; the store then gets one batch, in node order each:
    the clones' memberships, their edges, then the links.  Rows read
    before earlier writes stay valid: those add clone-ranked edges only
    under fresh subjects, and no engine or builder write adds a
    membership to a source node, only edges and clones, so the class
    each link takes from its row's record is the class it has now.
    """
    mapping, triples = _clones(kb, [node for node, _, _ in rows], layer)
    links: list[Triple] = []
    for node, rec, edges in rows:
        clone = mapping[node]
        for a in edges:
            if a.predicate in _REFERS:
                triples.append((clone, a.predicate, a.object))
            else:
                target = mapping.get(a.object)  # a literal object maps to None
                if target is not None:
                    triples.append((clone, a.predicate, target))
        cls = tree_class(rec)
        if cls is not None:
            if from_clone:
                links.append((clone, members[cls], node))
            else:
                links.append((node, members[cls], clone))
    kb.load(triples + links)
    return mapping


def is_root(kb: KnowledgeBase, iri: Iri, cls: Iri, layer: LayerTag) -> bool:
    """Whether ``iri`` is typed ``cls`` and tagged with ``layer`` alone."""
    rec = kb.entity(iri)
    return rec is not None and cls in rec.memberships and rec.layer is layer


def type_node(
    kb: KnowledgeBase, node: Iri, classes: Iterable[Iri], layer_cls: Iri | None
) -> None:
    """Type ``node`` with the classes of its position, then with its layer
    class if there is one.  Every node the builder makes is typed this
    way and with nothing else, which is what ``typed_as`` checks."""
    for cls in classes:
        kb.assert_membership(node, cls)
    if layer_cls is not None:
        kb.assert_membership(node, layer_cls)


def typing_of(classes: Iterable[Iri | None], layer: LayerTag) -> frozenset[Iri | None]:
    """What ``type_node`` gives a node of ``layer`` whose position needs
    ``classes``: those and the layer class.  A ``None`` among them stands
    for a position no class names, and no entity is typed with it."""
    return frozenset((layer.class_iri, *classes))


def typed_as(rec: EntityRecord | None, typed: frozenset[Iri | None]) -> bool:
    """Whether an entity carries exactly the classes ``typed``, a
    ``typing_of``, and nothing else."""
    return rec is not None and rec.memberships.keys() == typed


def state_classes(index: int, last: int) -> tuple[Iri, ...]:
    """The position classes of the state at ``index`` of a chain whose
    last index is ``last``: initial first, final last (both for a chain
    of one), non-terminating in between."""
    if 0 < index < last:
        return (NON_TERMINATING_STATE,)
    return (INITIAL_STATE,) * (index == 0) + (FINAL_STATE,) * (index == last)


def link_procedures(kb: KnowledgeBase, process: Iri, procedures: list[Iri]) -> None:
    """Join a process to its procedures and chain each to the one before."""
    for procedure in procedures:
        kb.assert_property(process, CONSISTS_OF_PROCEDURE, procedure)
    for left, right in zip(procedures, procedures[1:]):
        kb.assert_property(left, HAS_NEXT_PROCEDURE, right)


def link_states(kb: KnowledgeBase, procedure: Iri, states: list[Iri]) -> None:
    """Join a procedure to its states, which already carry their initial,
    final or non-terminating class, and chain each to the one before."""
    for state in states:
        initial = kb.has_class(state, INITIAL_STATE)
        final = kb.has_class(state, FINAL_STATE)
        if initial:
            kb.assert_property(procedure, PROC_CONSISTS_INITIAL, state)
        if final:
            kb.assert_property(procedure, PROC_CONSISTS_FINAL, state)
        if not (initial or final):
            kb.assert_property(procedure, PROC_CONSISTS_NON_TERMINATING, state)
    for left, right in zip(states, states[1:]):
        if kb.has_class(right, FINAL_STATE):
            kb.assert_property(left, HAS_FINAL_STATE, right)
        else:
            kb.assert_property(left, HAS_NEXT_NON_TERMINATING, right)


# ---------------------------------------------------------------------------
# Run order
# ---------------------------------------------------------------------------


def plan_tasks(kb: KnowledgeBase, root: Iri) -> list[Iri]:
    """Tasks of a behaviour-shaped tree in run order: goals in assertion
    order, tasks within each goal topologically sorted by dependsOn with
    assertion order breaking ties.

    One read of the root's edges and of each goal's, matching predicates
    by identity.  A goal with fewer than two tasks has no order to find,
    so its task's edges are not read.  Otherwise each task's edges are
    read once, for its in-goal dependsOn edges.  A goal with none of
    those keeps assertion order, what the sort gives then, and builds no
    heap.  Otherwise Kahn's algorithm with the ready tasks in a heap on
    assertion index, so each goal costs O((tasks + edges) log tasks).
    Tasks on or behind a dependency cycle follow in assertion order;
    dependsOn edges that leave the goal are ignored.
    """
    edges = kb.edges
    out: list[Iri] = []
    for g in edges(root):
        goal = g.object
        if g.predicate is not CONSISTS_OF_GOAL or not isinstance(goal, Iri):
            continue
        tasks = [
            a.object
            for a in edges(goal)
            if a.predicate is CONSISTS_OF_TASK and isinstance(a.object, Iri)
        ]
        if len(tasks) < 2:
            out.extend(tasks)
            continue
        index = {task: i for i, task in enumerate(tasks)}
        #: each in-goal dependsOn edge, as (task index, its dependency's)
        deps = [
            (i, j)
            for i, task in enumerate(tasks)
            for a in edges(task)
            if a.predicate is DEPENDS_ON and (j := index.get(a.object)) is not None
        ]
        if not deps:
            out.extend(tasks)
            continue
        waiting = [0] * len(tasks)  # unplaced in-goal dependencies per task
        dependents: list[list[int]] = [[] for _ in tasks]
        for i, j in deps:
            waiting[i] += 1
            dependents[j].append(i)
        ready = [i for i, count in enumerate(waiting) if count == 0]
        placed: dict[Iri, None] = {}
        while ready:
            i = heapq.heappop(ready)
            placed[tasks[i]] = None
            for k in dependents[i]:
                waiting[k] -= 1
                if waiting[k] == 0:
                    heapq.heappush(ready, k)
        for task in tasks:
            # dependency cycle: keep remaining tasks in assertion order
            placed.setdefault(task, None)
        out.extend(placed)
    return out


def procedure_order(kb: KnowledgeBase, process: Iri) -> list[Iri]:
    """Procedures of a process in hasNextProcedure chain order; falls
    back to assertion order when the chain is absent or broken."""
    members = [
        o for o in kb.objects(process, CONSISTS_OF_PROCEDURE) if isinstance(o, Iri)
    ]
    if len(members) <= 1:
        return members
    member_set = set(members)
    succ: dict[Iri, Iri] = {}
    has_pred: set[Iri] = set()
    for proc in members:
        for nxt in kb.objects(proc, HAS_NEXT_PROCEDURE):
            if isinstance(nxt, Iri) and nxt in member_set:
                succ[proc] = nxt
                has_pred.add(nxt)
                break
    heads = [m for m in members if m not in has_pred]
    if len(heads) != 1:
        return members
    chain = [heads[0]]
    seen = {heads[0]}
    while chain[-1] in succ and succ[chain[-1]] not in seen:
        chain.append(succ[chain[-1]])
        seen.add(chain[-1])
    return chain if len(chain) == len(members) else members


#: one state of a procedure's chain with its out-edges, the store's own
#: list
ChainRow = tuple[Iri, Sequence[Assertion]]
#: the successor predicates of a state chain: hasNext and its subproperties
_NEXT = SUB_CLOSURE[HAS_NEXT]


def chain_rows(kb: KnowledgeBase, procedure: Iri) -> list[ChainRow]:
    """Each state of a procedure from its initial state along successor
    edges, with its out-edges: the one state-chain walk.  It reads the
    procedure's edges until its first initial state, and each state's
    edges once, in which the first successor edge, in assertion order,
    to an IRI not yet on the chain gives the next state.  The rows hand
    the caller the same reads, so a state's own edges need no second
    lookup."""
    edges = kb.edges
    for a in edges(procedure):
        state = a.object
        if a.predicate is PROC_CONSISTS_INITIAL and isinstance(state, Iri):
            break
    else:
        return []
    rows: list[ChainRow] = []
    seen = {state}
    while True:
        out = edges(state)
        rows.append((state, out))
        for a in out:
            state = a.object
            if a.predicate in _NEXT and isinstance(state, Iri) and state not in seen:
                break
        else:
            return rows
        seen.add(state)


def state_chain(kb: KnowledgeBase, procedure: Iri) -> list[Iri]:
    """States of a procedure from its initial state along successor
    edges: ``chain_rows``' states, each state's edges read once."""
    return [state for state, _ in chain_rows(kb, procedure)]
