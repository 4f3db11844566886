"""Walking, ordering and cloning behaviour-shaped trees.

The tree queries and primitives that the builder, the validator, the
engine and the race search share.  It sits over ``core`` only, so the
validator and the race search read trees without loading the builder
or the engine.  The clone primitives write, but they belong here: the
builder derives behaviours with them and the engine realizes processes
with them, and neither should import the other.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .core import KnowledgeBase
from .terms import Assertion, Iri
from .vocab import (
    CHILD_PREDICATES,
    CONSISTS_OF_PROCEDURE,
    DEPENDS_ON,
    HAS_BEHAVIOUR,
    HAS_NEXT,
    HAS_NEXT_PROCEDURE,
    LAYER_CLASSES,
    LayerTag,
    PLAY_ROLE,
    PROC_CONSISTS_INITIAL,
    PROVIDES_BEHAVIOUR,
    REFERS_PREDICATES,
    TREE_NODE_CLASSES,
    term,
)

# ---------------------------------------------------------------------------
# Tree walking and cloning
# ---------------------------------------------------------------------------


def walk_tree(kb: KnowledgeBase, root: Iri) -> list[Iri]:
    """Nodes of a behaviour-shaped tree, breadth-first in assertion order."""
    nodes = [root]
    seen = {root}
    i = 0
    while i < len(nodes):
        current = nodes[i]
        i += 1
        for pred in CHILD_PREDICATES:
            for child in kb.objects(current, pred):
                if isinstance(child, Iri) and child not in seen:
                    seen.add(child)
                    nodes.append(child)
    return nodes


def tree_class(kb: KnowledgeBase, node: Iri) -> Iri | None:
    """The tree-node class of ``node`` (behaviour, goal, task, element)."""
    rec = kb.entity(node)
    if rec is None:
        return None
    for cls in TREE_NODE_CLASSES:
        if cls in rec.memberships:
            return cls
    return None


def clone_node(kb: KnowledgeBase, node: Iri, layer: LayerTag) -> Iri:
    """Mint ``node``'s clone in ``layer``, typed with the layer class and
    every other class of the source; no edges are copied."""
    clone = Iri(f"{node.value}__{layer.value}__{kb.next_clone_index()}")
    kb.assert_membership(clone, layer.class_iri)
    rec = kb.entity(node)
    if rec is not None:
        for cls in rec.memberships:
            if cls not in LAYER_CLASSES:
                kb.assert_membership(clone, cls)
    return clone


def clone_tree(
    kb: KnowledgeBase, root: Iri, layer: LayerTag
) -> dict[Iri, Iri]:
    """Copy a behaviour-shaped tree into ``layer``.

    Returns the source-to-clone map.  Intra-tree edges (child predicates
    and dependsOn) are re-emitted between clones; reference edges keep
    pointing at the shared targets; nothing else is copied.
    """
    sources = walk_tree(kb, root)
    mapping = {node: clone_node(kb, node, layer) for node in sources}
    for node in sources:
        for pred in CHILD_PREDICATES + (DEPENDS_ON,):
            for child in kb.objects(node, pred):
                if isinstance(child, Iri) and child in mapping:
                    kb.assert_property(mapping[node], pred, mapping[child])
        for pred in REFERS_PREDICATES:
            for target in kb.objects(node, pred):
                kb.assert_property(mapping[node], pred, target)
    return mapping


# ---------------------------------------------------------------------------
# Run order
# ---------------------------------------------------------------------------


def plan_tasks(kb: KnowledgeBase, root: Iri) -> list[Iri]:
    """Tasks of a behaviour-shaped tree in run order: goals in assertion
    order, tasks within each goal topologically sorted by dependsOn with
    assertion order breaking ties.

    Kahn's algorithm with the ready tasks in a heap on assertion index,
    so each goal costs O((tasks + edges) log tasks).  Tasks on or behind
    a dependency cycle follow in assertion order; dependsOn edges that
    leave the goal are ignored.
    """
    out: list[Iri] = []
    for goal in kb.objects(root, term("consistsOfGoalDescription")):
        if not isinstance(goal, Iri):
            continue
        tasks = [
            t
            for t in kb.objects(goal, term("consistsOfTaskDescription"))
            if isinstance(t, Iri)
        ]
        index = {task: i for i, task in enumerate(tasks)}
        waiting = [0] * len(tasks)  # unplaced in-goal dependencies per task
        dependents: list[list[int]] = [[] for _ in tasks]
        for i, task in enumerate(tasks):
            for dep in kb.objects(task, DEPENDS_ON):
                j = index.get(dep)
                if j is not None:
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


def state_chain(kb: KnowledgeBase, procedure: Iri) -> list[Iri]:
    """States of a procedure from its initial state along successor edges."""
    initials = [
        o for o in kb.objects(procedure, PROC_CONSISTS_INITIAL) if isinstance(o, Iri)
    ]
    if not initials:
        return []
    chain = [initials[0]]
    seen = {initials[0]}
    while True:
        nexts = [
            o
            for o in kb.objects(chain[-1], HAS_NEXT, entail=True)
            if isinstance(o, Iri) and o not in seen
        ]
        if not nexts:
            return chain
        chain.append(nexts[0])
        seen.add(nexts[0])


# ---------------------------------------------------------------------------
# Capability
# ---------------------------------------------------------------------------


class CapabilityKind(Enum):
    INTRINSIC = "intrinsic"
    VIA_ROLE = "viaRole"


@dataclass(frozen=True)
class CapabilitySource:
    kind: CapabilityKind
    role: Iri | None = None


def check_capability(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri
) -> CapabilitySource | None:
    """How the agent may perform the behaviour, or ``None``.

    Own behaviours (hasBehaviour) win over role-provided ones; among
    live roles providing the behaviour the lowest IRI is picked.
    Deprecated roles grant nothing.
    """
    if Assertion(agent, HAS_BEHAVIOUR, behaviour) in kb:
        return CapabilitySource(CapabilityKind.INTRINSIC)
    live = _roles_providing(kb, agent, behaviour, deprecated=False)
    if live:
        return CapabilitySource(CapabilityKind.VIA_ROLE, min(live))
    return None


def deprecated_role_providing(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri
) -> Iri | None:
    """Lowest deprecated role of the agent that would have provided the
    behaviour; used to tell stale grants from plain missing capability."""
    stale = _roles_providing(kb, agent, behaviour, deprecated=True)
    return min(stale) if stale else None


def _roles_providing(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri, *, deprecated: bool
) -> list[Iri]:
    """The agent's played roles, deprecated or live as asked, that
    provide the behaviour."""
    out = []
    for role in kb.objects(agent, PLAY_ROLE):
        if not isinstance(role, Iri):
            continue
        rec = kb.entity(role)
        if rec is None or rec.deprecated != deprecated:
            continue
        if Assertion(role, PROVIDES_BEHAVIOUR, behaviour) in kb:
            out.append(role)
    return out
