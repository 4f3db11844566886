"""Reference tree reads and writes: one ``objects`` scan per child
predicate, one store call per triple.

These are ``walk_tree``, ``clone_tree``, ``pair_trees`` and
``check_mirror`` as they were before each tree node got one grouped read
of its edges, kept unchanged as the oracle for the differential tests.
Each rescans the node's edges once per predicate, in ``CHILD_PREDICATES``
order (then ``dependsOn`` and the reference predicates for a clone).
``tree_class``, ``clone_node`` and ``link_pairs`` are frozen here too, as
they were before a tree's clone and its family links reached the store
as one batch: every membership, edge and link is its own
``assert_membership`` or ``assert_property`` call, and each link looks
the subject's tree class up again.  Only the store, the vocabulary and
the finding records are imported.
"""

from __future__ import annotations

from collections import deque

from oasiskg import vocab
from oasiskg.builder import StructureMismatch
from oasiskg.core import KnowledgeBase
from oasiskg.terms import Assertion, Iri
from oasiskg.validator import Code, DanglingRoot, Violation
from oasiskg.vocab import (
    CHILD_PREDICATES,
    DEPENDS_ON,
    LAYER_CLASSES,
    REFERS_PREDICATES,
    TREE_NODE_CLASSES,
    LayerTag,
)


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
    clone = kb.fresh_iri(node, f"__{layer.value}__")
    kb.assert_membership(clone, layer.class_iri)
    rec = kb.entity(node)
    if rec is not None:
        for cls in rec.memberships:
            if cls not in LAYER_CLASSES:
                kb.assert_membership(clone, cls)
    return clone


def link_pairs(
    kb: KnowledgeBase, pairs: dict[Iri, Iri], members: dict[Iri, Iri]
) -> None:
    """Link each ``subject -> object`` pair through the family member that
    ``members`` names for the subject's tree-node class."""
    for subject, obj in pairs.items():
        cls = tree_class(kb, subject)
        if cls is not None:
            kb.assert_property(subject, members[cls], obj)


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


def pair_trees(
    kb: KnowledgeBase, left_root: Iri, right_root: Iri
) -> dict[Iri, Iri]:
    """Positional pairing of two behaviour-shaped trees.

    Children are matched index by index within each child-predicate
    group; any shape difference raises StructureMismatch.
    """
    pairs: dict[Iri, Iri] = {}
    queue: deque[tuple[Iri, Iri]] = deque([(left_root, right_root)])
    while queue:
        left, right = queue.popleft()
        if tree_class(kb, left) != tree_class(kb, right):
            raise StructureMismatch(left, right, "node classes differ")
        pairs[left] = right
        for pred in CHILD_PREDICATES:
            lc = [o for o in kb.objects(left, pred) if isinstance(o, Iri)]
            rc = [o for o in kb.objects(right, pred) if isinstance(o, Iri)]
            if len(lc) != len(rc):
                raise StructureMismatch(
                    left,
                    right,
                    f"{pred.local} fan-out differs ({len(lc)} vs {len(rc)})",
                )
            queue.extend(zip(lc, rc))
    return pairs


def check_mirror(
    kb: KnowledgeBase, source_root: Iri, target_root: Iri, family: Iri
) -> list[Violation]:
    """Verify that the tree under ``source_root`` is linked node by node
    into the tree under ``target_root`` through ``family`` subproperties
    matching each node's class, and that every child edge is mirrored."""
    if kb.entity(source_root) is None:
        raise DanglingRoot(source_root)
    if kb.entity(target_root) is None:
        raise DanglingRoot(target_root)
    class_map = vocab.FAMILY_ROOTS[family]
    out: list[Violation] = []
    source_nodes = walk_tree(kb, source_root)
    target_nodes = set(walk_tree(kb, target_root))
    counterpart: dict[Iri, Iri] = {}
    for node in source_nodes:
        linked = [
            o
            for o in kb.objects(node, family, entail=True)
            if isinstance(o, Iri) and o in target_nodes
        ]
        if not linked:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node,),
                    f"no {family.local} counterpart under {target_root}",
                )
            )
            continue
        if len(set(linked)) > 1:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node, *sorted(set(linked))),
                    f"ambiguous {family.local} counterparts under {target_root}",
                )
            )
            continue
        other = linked[0]
        counterpart[node] = other
        cls = tree_class(kb, node)
        expected = class_map.get(cls) if cls is not None else None
        if expected is None:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node,),
                    "node carries no tree class",
                )
            )
        elif Assertion(node, expected, other) not in kb:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node, other),
                    f"linked through the wrong member of {family.local}, "
                    f"expected {expected.local}",
                )
            )
    if counterpart.get(source_root) not in (None, target_root):
        out.append(
            Violation(
                Code.STRUCTURE_MISMATCH,
                (source_root, target_root),
                "roots are not linked to each other",
            )
        )
    for node in source_nodes:
        mine = counterpart.get(node)
        if mine is None:
            continue
        for pred in vocab.CHILD_PREDICATES:
            for child in kb.objects(node, pred):
                if not isinstance(child, Iri):
                    continue
                theirs = counterpart.get(child)
                if theirs is None:
                    continue
                if Assertion(mine, pred, theirs) not in kb:
                    out.append(
                        Violation(
                            Code.STRUCTURE_MISMATCH,
                            (node, child),
                            f"{pred.local} edge has no mirrored edge "
                            f"between the counterparts",
                        )
                    )
    out.sort(key=Violation.sort_key)
    return out
