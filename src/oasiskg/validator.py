"""Whole-graph consistency checks.

``validate`` never raises on graph content; it returns a sorted list of
violations.  The checks run in one pass per kind of candidate: one over
entities, one over assertions, then trees, procedure chains and
performers.  After a clean pass they run only on what the store's change
journal can reach, with the same result as a whole-graph pass.
``check_mirror`` verifies that a linked tree retraces its source tree
edge by edge through the right family subproperties.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Sequence
from enum import Enum

from . import vocab
from .core import EntityRecord, KnowledgeBase
from .terms import Assertion, Frozen, Iri, ModelError, Obj, set_field
from .trees import (
    CHILD_RANK,
    check_capability,
    depth_first,
    deprecated_role_providing,
    tree_class,
    tree_edges,
    walk_tree,
)
from .vocab import RDF_TYPE


class Code(Enum):
    LAYER_MIX = "LAYER_MIX"
    UNKNOWN_PREDICATE = "UNKNOWN_PREDICATE"
    LAYER_CONSTRAINT = "LAYER_CONSTRAINT"
    OVERLOAD_CROSS_LAYER = "OVERLOAD_CROSS_LAYER"
    SUBMIT_CROSS_LAYER = "SUBMIT_CROSS_LAYER"
    DRAWNBY_CROSS_LAYER = "DRAWNBY_CROSS_LAYER"
    STRUCTURE_MISMATCH = "STRUCTURE_MISMATCH"
    CHAIN_NO_INITIAL = "CHAIN_NO_INITIAL"
    CHAIN_NO_FINAL = "CHAIN_NO_FINAL"
    CHAIN_MULTIPLE_INITIAL = "CHAIN_MULTIPLE_INITIAL"
    CHAIN_MULTIPLE_FINAL = "CHAIN_MULTIPLE_FINAL"
    CHAIN_CYCLE = "CHAIN_CYCLE"
    CHAIN_UNREACHABLE_STATE = "CHAIN_UNREACHABLE_STATE"
    STATE_WITHOUT_PLAN = "STATE_WITHOUT_PLAN"
    STATE_POSITION_CONFLICT = "STATE_POSITION_CONFLICT"
    EXEC_WITHOUT_BEHAVIOUR = "EXEC_WITHOUT_BEHAVIOUR"
    PERFORMER_LACKS_CAPABILITY = "PERFORMER_LACKS_CAPABILITY"
    ROLE_DEPRECATED_USE = "ROLE_DEPRECATED_USE"
    EVENT_WITHOUT_ACTION = "EVENT_WITHOUT_ACTION"
    DANGLING_REFERENCE = "DANGLING_REFERENCE"


class Violation(Frozen):
    __slots__ = ("code", "subjects", "message")

    def __init__(self, code: Code, subjects: tuple[Iri, ...], message: str) -> None:
        set_field(self, "code", code)
        set_field(self, "subjects", subjects)
        set_field(self, "message", message)

    def render(self) -> str:
        subs = ",".join(s.value for s in self.subjects)
        return f"{self.code.value}\t{subs}\t{self.message}"

    def sort_key(self) -> tuple[str, tuple[str, ...], str]:
        return (self.code.value, tuple(s.value for s in self.subjects), self.message)


class DanglingRoot(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"tree root not present in the knowledge base: {iri}")
        self.iri = iri


# ---------------------------------------------------------------------------
# Mirror checking
# ---------------------------------------------------------------------------


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
        for a in tree_edges(kb, node):
            child = a.object
            if not isinstance(child, Iri):
                continue
            theirs = counterpart.get(child)
            if theirs is None:
                continue
            if Assertion(mine, a.predicate, theirs) not in kb:
                out.append(
                    Violation(
                        Code.STRUCTURE_MISMATCH,
                        (node, child),
                        f"{a.predicate.local} edge has no mirrored edge "
                        f"between the counterparts",
                    )
                )
    out.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

#: root-pair predicate -> the family whose links check_mirror follows
_MIRROR_ROOTS: dict[Iri, Iri] = {
    vocab.CLASS_TO_OVERLOAD[vocab.BEHAVIOUR]: vocab.OVERLOADS,
    vocab.CLASS_TO_SUBMITTED[vocab.BEHAVIOUR]: vocab.SUBMITTED_TO,
    vocab.HAS_PLAN_EXECUTION: vocab.HAS_EXECUTION,
}
_TREE_EDGES = CHILD_RANK.keys()
_NEXT_EDGES = vocab.SUB_CLOSURE[vocab.HAS_NEXT]

#: reference predicates, whose endpoints need not be typed individuals
_STRUCTURAL_EXEMPT = frozenset(vocab.REFERS_PREDICATES)


class _Candidates(Frozen):
    """What each check looks at: all of the graph, or what a journal reaches."""

    __slots__ = ("entities", "assertions", "trees", "procedures", "performs")

    def __init__(
        self,
        entities: Iterable[EntityRecord],  # layer mix, states, events, executions
        assertions: Iterable[Assertion],  # unknown predicate, endpoints, dangling
        trees: Iterable[tuple[Iri, Iri, Iri]],  # mirror roots: source, target; family
        procedures: Iterable[Iri],  # chains
        performs: Iterable[tuple[Iri, Obj]],  # performers: agent, execution root
    ) -> None:
        set_field(self, "entities", entities)
        set_field(self, "assertions", assertions)
        set_field(self, "trees", trees)
        set_field(self, "procedures", procedures)
        set_field(self, "performs", performs)


#: a region pass costs a few times what a whole-graph pass costs per
#: assertion covered, so it runs only while the journal is shorter than
#: this share of the graph
_REGION_SHARE = 4


def validate(kb: KnowledgeBase) -> list[Violation]:
    """Every finding over the whole graph, sorted.

    After a clean pass the store journals its changes.  While the journal
    is short next to the graph, the next call runs the checks only on
    what the journal can reach: when that is clean, so is the graph.
    Otherwise the whole-graph pass runs, and it alone produces findings."""
    journal = kb.journal
    if (
        journal is not None
        and len(journal) * _REGION_SHARE < len(kb)
        and not _findings(kb, _reach(kb, journal))
    ):
        kb.journal = []
        return []
    out = _findings(kb, _whole(kb))
    out.sort(key=Violation.sort_key)
    kb.journal = None if out else []
    return out


def _findings(kb: KnowledgeBase, c: _Candidates) -> list[Violation]:
    return [
        *_entity_checks(kb, c.entities),
        *_assertion_checks(kb, c.assertions),
        *_mirrors(kb, c.trees),
        *_chains(kb, c.procedures),
        *_performers(kb, c.performs),
    ]


def _whole(kb: KnowledgeBase) -> _Candidates:
    return _Candidates(
        entities=kb.entities.values(),
        assertions=kb.assertions,
        trees=[
            (a.subject, a.object, family)
            for root_pred, family in _MIRROR_ROOTS.items()
            for a in kb.query(predicate=root_pred)
            if isinstance(a.object, Iri)
        ],
        procedures=kb.instances_of(vocab.PROCEDURE),
        performs=[
            (a.subject, a.object)
            for a in kb.query(predicate=vocab.PERFORMS_PLAN_EXECUTION)
        ],
    )


def _reach(kb: KnowledgeBase, journal: list[Assertion]) -> _Candidates:
    """Candidates that changes since a clean pass can have touched; a
    finding the whole graph has now must lie among them."""
    # a region pass only tells clean from dirty, so candidates may repeat
    # and come in any order: the buckets are read as they stand
    into, out_of = kb.in_edges, kb.edges
    subjects = dict.fromkeys(a.subject for a in journal)
    assertions = [a for a in journal if a in kb]
    for iri in {a.subject for a in journal if a.predicate == RDF_TYPE}:
        # the endpoint checks read the classes of both ends of an edge
        assertions.extend(out_of(iri))
        assertions.extend(into(iri))
    trees: dict[tuple[Iri, Iri, Iri], None] = {}
    for node in _upward(into, subjects, _TREE_EDGES):
        for a in out_of(node):
            if a.predicate in _MIRROR_ROOTS and isinstance(a.object, Iri):
                trees[(node, a.object, _MIRROR_ROOTS[a.predicate])] = None
        for a in into(node):
            if a.predicate in _MIRROR_ROOTS:
                trees[(a.subject, node, _MIRROR_ROOTS[a.predicate])] = None
    procedures = dict.fromkeys(subjects)
    for state in _upward(into, subjects, _NEXT_EDGES):
        for a in into(state):
            if a.predicate == vocab.PROC_CONSISTS_INITIAL:
                procedures[a.subject] = None
    performs: dict[tuple[Iri, Obj], None] = {}
    for iri in subjects:
        for a in into(iri):
            if a.predicate == vocab.PERFORMS_PLAN_EXECUTION:
                performs[(a.subject, iri)] = None
        players = [a.subject for a in into(iri) if a.predicate == vocab.PLAY_ROLE]
        for agent in (iri, *players):
            for a in out_of(agent):
                if a.predicate == vocab.PERFORMS_PLAN_EXECUTION:
                    performs[(agent, a.object)] = None
    return _Candidates(
        entities=[kb.entities[iri] for iri in subjects],
        assertions=assertions,
        trees=trees,
        procedures=[p for p in procedures if kb.has_class(p, vocab.PROCEDURE)],
        performs=performs,
    )


def _upward(
    into: Callable[[Iri], Sequence[Assertion]],
    nodes: Iterable[Iri],
    predicates: Container[Iri],
) -> set[Iri]:
    """``nodes`` and every node with a path to one of them along
    ``predicates`` edges; ``into`` gives a node's incoming assertions."""
    seen = set(nodes)
    stack = list(seen)
    while stack:
        for a in into(stack.pop()):
            if a.predicate in predicates and a.subject not in seen:
                seen.add(a.subject)
                stack.append(a.subject)
    return seen


def _entity_checks(
    kb: KnowledgeBase, entities: Iterable[EntityRecord]
) -> list[Violation]:
    out = []
    for rec in entities:
        iri, memberships = rec.iri, rec.memberships
        if rec.mixed_layers:
            names = ", ".join(sorted(c.local for c in rec.layer_classes))
            out.append(
                Violation(
                    Code.LAYER_MIX,
                    (iri,),
                    f"entity carries several layer classes: {names}",
                )
            )
        if vocab.PROCEDURE_STATE_CLASSES.intersection(memberships):
            if not kb.objects(iri, vocab.IS_DESCRIBED_BY):
                out.append(
                    Violation(
                        Code.STATE_WITHOUT_PLAN,
                        (iri,),
                        "procedure state has no describing plan",
                    )
                )
            if vocab.NON_TERMINATING_STATE in memberships and (
                vocab.INITIAL_STATE in memberships or vocab.FINAL_STATE in memberships
            ):
                out.append(
                    Violation(
                        Code.STATE_POSITION_CONFLICT,
                        (iri,),
                        "state is typed both terminating and non-terminating",
                    )
                )
        if vocab.EVENT in memberships and not kb.objects(
            iri, vocab.EVENT_DESCRIBED_BY_ACTION
        ):
            out.append(
                Violation(
                    Code.EVENT_WITHOUT_ACTION, (iri,), "event has no describing action"
                )
            )
        if (
            vocab.BEHAVIOUR in memberships
            and rec.layer is vocab.LayerTag.EXECUTION
            and not kb.objects(iri, vocab.EXECUTION_DRAWN_BY, entail=True)
        ):
            out.append(
                Violation(
                    Code.EXEC_WITHOUT_BEHAVIOUR,
                    (iri,),
                    "plan execution is not drawn by any behaviour",
                )
            )
    return out


#: family member -> the code of its endpoint problems; other predicates
#: report LAYER_CONSTRAINT
_FAMILY_CODES: dict[Iri, Code] = {
    pred: code
    for family, code in (
        (vocab.OVERLOADS, Code.OVERLOAD_CROSS_LAYER),
        (vocab.SUBMITTED_TO, Code.SUBMIT_CROSS_LAYER),
        (vocab.DRAWN_BY, Code.DRAWNBY_CROSS_LAYER),
    )
    for pred in vocab.SUB_CLOSURE[family]
}


def _assertion_checks(
    kb: KnowledgeBase, assertions: Iterable[Assertion]
) -> list[Violation]:
    """Undeclared predicates, endpoint constraints and dangling endpoints.
    An undeclared predicate has no constraints to check, and literal
    objects and reference edges have no endpoints that must be typed."""
    out = []
    unknown: dict[Iri, None] = {}
    flagged: dict[Iri, Iri] = {}  # dangling endpoint -> first edge's predicate
    for a in assertions:
        if a.predicate == RDF_TYPE:
            continue
        spec = vocab.PROPERTIES.get(a.predicate)
        if spec is None:
            unknown[a.predicate] = None
            continue
        problem = kb.constraint_problem(spec, a.subject, a.object)
        if problem is not None:
            code = _FAMILY_CODES.get(a.predicate, Code.LAYER_CONSTRAINT)
            subjects: tuple[Iri, ...] = (a.subject,)
            if isinstance(a.object, Iri):
                subjects = (a.subject, a.object)
            out.append(Violation(code, subjects, f"{a.predicate.local}: {problem}"))
        if spec.literal_object or a.predicate in _STRUCTURAL_EXEMPT:
            continue
        for endpoint in (a.subject, a.object):
            if not isinstance(endpoint, Iri) or endpoint in flagged:
                continue
            rec = kb.entity(endpoint)
            if rec is None or not rec.memberships:
                flagged[endpoint] = a.predicate
    for pred in unknown:
        out.append(
            Violation(
                Code.UNKNOWN_PREDICATE,
                (pred,),
                "assertions use a predicate that is not declared",
            )
        )
    for iri, pred in flagged.items():
        out.append(
            Violation(
                Code.DANGLING_REFERENCE,
                (iri,),
                f"untyped entity on a {pred.local} edge",
            )
        )
    return out


def _mirrors(
    kb: KnowledgeBase, trees: Iterable[tuple[Iri, Iri, Iri]]
) -> list[Violation]:
    out = []
    for source, target, family in trees:
        out.extend(check_mirror(kb, source, target, family))
    return out


#: each chain end: its edge, its name, and the codes for none and several
_CHAIN_ENDS = (
    (vocab.PROC_CONSISTS_INITIAL, "initial", Code.CHAIN_NO_INITIAL, Code.CHAIN_MULTIPLE_INITIAL),
    (vocab.PROC_CONSISTS_FINAL, "final", Code.CHAIN_NO_FINAL, Code.CHAIN_MULTIPLE_FINAL),
)


def _chains(kb: KnowledgeBase, procedures: Iterable[Iri]) -> list[Violation]:
    out = []
    for proc in procedures:
        members: dict[Iri, None] = {}
        for o in kb.objects(proc, vocab.PROC_CONSISTS_STATE, entail=True):
            if isinstance(o, Iri):
                members[o] = None
        ends = []
        for pred, end, none, several in _CHAIN_ENDS:
            states = sorted({o for o in kb.objects(proc, pred) if isinstance(o, Iri)})
            if not states:
                out.append(Violation(none, (proc,), f"procedure has no {end} state"))
            elif len(states) > 1:
                out.append(
                    Violation(
                        several, (proc, *states), f"procedure has several {end} states"
                    )
                )
            ends.append(states)
        initials = ends[0]
        if len(initials) != 1:
            continue
        reachable, back = depth_first(
            initials,
            lambda state: [
                o
                for o in kb.objects(state, vocab.HAS_NEXT, entail=True)
                if isinstance(o, Iri)
            ],
        )
        if back is not None:
            out.append(
                Violation(
                    Code.CHAIN_CYCLE,
                    (proc,),
                    "successor edges loop back on the chain",
                )
            )
        for state in members:
            if state not in reachable:
                out.append(
                    Violation(
                        Code.CHAIN_UNREACHABLE_STATE,
                        (proc, state),
                        "state cannot be reached from the initial state",
                    )
                )
    return out


def _performers(
    kb: KnowledgeBase, performs: Iterable[tuple[Iri, Obj]]
) -> list[Violation]:
    out = []
    for agent, exec_root in performs:
        if not isinstance(exec_root, Iri):
            continue
        for b in kb.objects(exec_root, vocab.EXECUTION_DRAWN_BY, entail=True):
            if not isinstance(b, Iri):
                continue
            gap = capability_gap(kb, agent, b)
            if gap is not None:
                code, named = gap
                message = _CAPABILITY_MESSAGES[code].format(behaviour=b)
                out.append(Violation(code, (agent, named), message))
    return out


_CAPABILITY_MESSAGES: dict[Code, str] = {
    Code.ROLE_DEPRECATED_USE: (
        "capability for {behaviour} comes only from a deprecated role"
    ),
    Code.PERFORMER_LACKS_CAPABILITY: (
        "performer has no behaviour and no live role providing it"
    ),
}


def capability_gap(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri
) -> tuple[Code, Iri] | None:
    """``None`` when the agent may perform the behaviour.  Otherwise the
    finding code and what it names next to the agent: the lowest
    deprecated role that would have provided the behaviour, or else the
    behaviour itself."""
    if check_capability(kb, agent, behaviour) is not None:
        return None
    stale = deprecated_role_providing(kb, agent, behaviour)
    if stale is not None:
        return Code.ROLE_DEPRECATED_USE, stale
    return Code.PERFORMER_LACKS_CAPABILITY, behaviour
