"""Reference whole-graph pass: five candidate kinds, gathered by ``query``.

This is the validator's whole-graph pass as it was before a pass looked
at three kinds of candidate, and before each edge was tested against its
property's compiled check row: ``_whole`` with its two
``KnowledgeBase.query`` reads, the ``_Candidates`` record, and the
``_mirrors``, ``_chains`` and ``_performers`` loops.  The checks are
frozen here too, as the oracle for ``tests/test_validation_oracle.py``:
``_entity_checks`` without the chain check it now runs on each
procedure, and ``_assertion_checks``, ``constraint_problem``,
``_off_layer`` and ``check_mirror``, which call ``constraint_problem``
and build an ``Assertion`` for every edge and every link they test.
Only the capability rule, the chain ends, the mirror-root table, the
finding records and ``depth_first`` are imported from the package; the
tree walk and the tree class come from ``tree_oracle``'s frozen copies,
and the child edges are read here.
"""

from __future__ import annotations

from collections.abc import Iterable

from oasiskg import vocab
from oasiskg.core import EntityRecord, KnowledgeBase
from oasiskg.terms import Assertion, Frozen, Iri, Obj, set_field
from oasiskg.trees import depth_first
from oasiskg.validator import (
    _CAPABILITY_MESSAGES,
    _CHAIN_ENDS,
    _MIRROR_ROOTS,
    Code,
    DanglingRoot,
    Violation,
    capability_gap,
)
from oasiskg.vocab import RDF_TYPE

from tree_oracle import tree_class, walk_tree


def whole_pass(kb: KnowledgeBase) -> list[Violation]:
    """Every finding over the whole graph, sorted, as ``validate`` gave
    them with the journal set aside; the journal is left alone."""
    out = _findings(kb, _whole(kb))
    out.sort(key=Violation.sort_key)
    return out


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
        procedures=kb.subjects(RDF_TYPE, vocab.PROCEDURE),
        performs=[
            (a.subject, a.object)
            for a in kb.query(predicate=vocab.PERFORMS_PLAN_EXECUTION)
        ],
    )


def _entity_checks(
    kb: KnowledgeBase, entities: Iterable[EntityRecord]
) -> list[Violation]:
    out = []
    for rec in entities:
        iri, memberships = rec.iri, rec.memberships
        if len(rec.layer_classes) > 1:
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


#: reference predicates, whose endpoints need not be typed individuals
_STRUCTURAL_EXEMPT = frozenset(vocab.REFERS_PREDICATES)


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


def _off_layer(rec: EntityRecord | None, layer: vocab.LayerTag) -> bool:
    """Whether an edge's endpoint is outside ``layer``.  An endpoint with
    several layer classes is not: mixed endpoints are reported on their
    own, not per edge."""
    tags = vocab.LAYER_CLASSES.intersection(rec.memberships) if rec is not None else ()
    if len(tags) != 1:
        return not tags
    (cls,) = tags
    return vocab.LAYER_TAG_OF_CLASS[cls] is not layer



def constraint_problem(
    kb: KnowledgeBase, spec: vocab.PropertySpec, subject: Iri, obj: Obj
) -> str | None:
    """First endpoint-constraint violation for the edge, or ``None``."""
    if spec.literal_object != isinstance(obj, str):
        return (
            "object must be a literal"
            if spec.literal_object
            else "object must be an IRI"
        )
    s_rec = kb.entities.get(subject)
    if spec.subject_layer is not None and _off_layer(s_rec, spec.subject_layer):
        return f"subject must be in the {spec.subject_layer.value} layer"
    if spec.subject_classes is not None:
        if s_rec is None or not spec.subject_classes.intersection(s_rec.memberships):
            names = "/".join(sorted(c.local for c in spec.subject_classes))
            return f"subject must be a {names}"
    if isinstance(obj, Iri):
        o_rec = kb.entities.get(obj)
        if spec.object_layer is not None and _off_layer(o_rec, spec.object_layer):
            return f"object must be in the {spec.object_layer.value} layer"
        if spec.object_classes is not None:
            if o_rec is None or not spec.object_classes.intersection(o_rec.memberships):
                names = "/".join(sorted(c.local for c in spec.object_classes))
                return f"object must be a {names}"
    return None



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
        problem = constraint_problem(kb, spec, a.subject, a.object)
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



def _child_edges(kb: KnowledgeBase, node: Iri) -> list[Assertion]:
    """``node``'s child-predicate edges, in ``CHILD_PREDICATES`` order and
    in assertion order under one predicate."""
    return [
        a for pred in vocab.CHILD_PREDICATES for a in kb.edges(node) if a.predicate == pred
    ]


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
        for a in _child_edges(kb, node):
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



def _mirrors(
    kb: KnowledgeBase, trees: Iterable[tuple[Iri, Iri, Iri]]
) -> list[Violation]:
    out = []
    for source, target, family in trees:
        out.extend(check_mirror(kb, source, target, family))
    return out


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
