"""Whole-graph consistency checks.

``validate`` never raises on graph content; it returns a sorted list of
violations.  A pass looks at three kinds of candidate: entities (each
procedure's chain among their checks), assertions, and start edges, the
mirror-root and ``performsPlanExecution`` edges that a mirror check and
a capability check start from.  The whole-graph pass finds its start
edges in one scan of the assertions.  After a clean pass the checks
run only on what the store's change journal can reach, each assertion
object once, with the same result as a whole-graph pass; a removal can
cost a whole-graph pass, never a wrong verdict.  An empty journal means
the graph is clean and only certified engine writes have happened since
(see ``engine``), so a pass over it checks nothing: the engine's gate
and ``run``'s check after its writes both rely on that.  Endpoint
constraints are read here, not in the store, and capability too, for
the performer check and the engine's gate alike.  The whole pass and
the region pass alike test each edge against its property's check row,
compiled once from ``vocab.PROPERTIES``, and ``constraint_problem``
words a failure from that row and the endpoints' memberships.
``check_mirror`` verifies that a linked tree retraces its source tree
edge by edge through the right family subproperties; one walk of the
source tree reads each node's record, child edges and family links
together, and one walk of the target tree gives its node set.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from . import vocab
from .core import EntityRecord, KnowledgeBase
from .terms import Assertion, Frozen, Iri, ModelError
from .trees import CHILD_RANK, depth_first, tree_class, tree_rows
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


#: per family: the child ranks, then the family's members, so one read of
#: a source node's edges gives ``check_mirror`` its children and its links
_MIRROR_RANKS: dict[Iri, dict[Iri, int]] = {
    family: {**CHILD_RANK, **dict.fromkeys(vocab.SUB_CLOSURE[family], len(CHILD_RANK))}
    for family in vocab.FAMILY_ROOTS
}


def check_mirror(
    kb: KnowledgeBase, source_root: Iri, target_root: Iri, family: Iri
) -> list[Violation]:
    """Verify that the tree under ``source_root`` is linked node by node
    into the tree under ``target_root`` through ``family`` subproperties
    matching each node's class, and that every child edge is mirrored.
    Each source node's edges are read once, by the walk."""
    if kb.entity(source_root) is None:
        raise DanglingRoot(source_root)
    if kb.entity(target_root) is None:
        raise DanglingRoot(target_root)
    class_map = vocab.FAMILY_ROOTS[family]
    out: list[Violation] = []
    source_rows = tree_rows(kb, source_root, _MIRROR_RANKS[family])
    target_nodes = {node for node, _, _ in tree_rows(kb, target_root, CHILD_RANK)}
    counterpart: dict[Iri, Iri] = {}
    for node, rec, edges in source_rows:
        links = [
            a for a in edges if a.predicate not in CHILD_RANK and a.object in target_nodes
        ]
        if not links:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node,),
                    f"no {family.local} counterpart under {target_root}",
                )
            )
            continue
        linked = {a.object for a in links}
        if len(linked) > 1:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node, *sorted(linked)),
                    f"ambiguous {family.local} counterparts under {target_root}",
                )
            )
            continue
        (other,) = linked
        counterpart[node] = other
        cls = tree_class(rec)
        expected = class_map.get(cls) if cls is not None else None
        if expected is None:
            out.append(
                Violation(
                    Code.STRUCTURE_MISMATCH,
                    (node,),
                    "node carries no tree class",
                )
            )
        elif all(a.predicate is not expected for a in links):
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
    for node, _, edges in source_rows:
        mine = counterpart.get(node)
        if mine is None or not edges or edges[0].predicate not in CHILD_RANK:
            continue  # no counterpart, or no child edges to mirror
        # the counterpart's edges, each as a plain (predicate, object) pair
        mirrored = {(b.predicate, b.object) for b in kb.edges(mine)}
        for a in edges:
            if a.predicate not in CHILD_RANK:
                break  # the links, ranked after the children
            child = a.object
            theirs = counterpart.get(child)  # a literal child has none
            if theirs is None:
                continue
            if (a.predicate, theirs) not in mirrored:
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
#: the predicates of start edges: mirror roots and performers
_START_PREDICATES = frozenset((*_MIRROR_ROOTS, vocab.PERFORMS_PLAN_EXECUTION))
#: the edges a region pass follows from a node up to what checks it:
#: tree edges to the parent, successor edges to the earlier state
_UP_EDGES = frozenset((*CHILD_RANK, *vocab.SUB_CLOSURE[vocab.HAS_NEXT]))

#: reference predicates, whose endpoints need not be typed individuals
_STRUCTURAL_EXEMPT = frozenset(vocab.REFERS_PREDICATES)
#: the layer classes of an individual in the execution layer alone
_EXECUTION_ONLY = frozenset((vocab.LayerTag.EXECUTION.class_iri,))


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
        and not _findings(kb, *_reach(kb, journal))
    ):
        kb.journal = []
        return []
    out = _findings(kb, *_whole(kb))
    out.sort(key=Violation.sort_key)
    kb.journal = None if out else []
    return out


def _findings(
    kb: KnowledgeBase,
    entities: Iterable[EntityRecord],  # layer mix, states, events, executions, chains
    assertions: Iterable[Assertion],  # unknown predicate, endpoints, dangling
    starts: Iterable[Assertion],  # mirror roots and performers
) -> list[Violation]:
    return [
        *_entity_checks(kb, entities),
        *_assertion_checks(kb, assertions),
        *_edge_checks(kb, starts),
    ]


#: what one pass checks: entities, assertions and start edges
_Pass = tuple[Iterable[EntityRecord], Iterable[Assertion], Iterable[Assertion]]


def _whole(kb: KnowledgeBase) -> _Pass:
    # the store keeps no predicate index: a few dozen start edges in a
    # graph of thousands cost one scan here, and no insert pays for them
    starts = [a for a in kb.assertions if a.predicate in _START_PREDICATES]
    return kb.entities.values(), kb.assertions, starts


def _reach(kb: KnowledgeBase, journal: list[Assertion]) -> _Pass:
    """Candidates that changes since a clean pass can have touched; a
    finding the whole graph has now must lie among them."""
    # a region pass only tells clean from dirty, so candidates come in any
    # order, the edge lists are read as they stand, and assertions are kept by
    # identity.  One the journal holds as removed is checked too, which can
    # only make the pass dirty and so hand the verdict to the whole graph
    into, out_of = kb.in_edges, kb.edges
    subjects: dict[Iri, None] = {}
    typed: dict[Iri, None] = {}
    assertions: dict[int, Assertion] = {}
    for a in journal:
        subjects[a.subject] = None
        assertions[id(a)] = a
        if a.predicate == RDF_TYPE:
            typed[a.subject] = None
    # one walk up tree and chain edges from the changed nodes reads each
    # node's edge lists once, for endpoints, mirror roots, chain initials,
    # performers and role players alike; where the two kinds of edge
    # meet, it reaches more than two walks would, never less
    entities = dict.fromkeys(subjects)
    starts: dict[int, Assertion] = {}
    players: list[Iri] = []
    seen = set(subjects)
    stack = list(seen)
    while stack:
        node = stack.pop()
        inward, outward = into(node), out_of(node)
        if node in typed:
            # the endpoint checks read the classes of both ends of an edge
            for a in outward:
                assertions.setdefault(id(a), a)
            for a in inward:
                assertions.setdefault(id(a), a)
        for a in inward:
            pred = a.predicate
            if pred in _UP_EDGES:
                if a.subject not in seen:
                    seen.add(a.subject)
                    stack.append(a.subject)
            elif pred in _MIRROR_ROOTS:
                starts[id(a)] = a
            elif pred == vocab.PROC_CONSISTS_INITIAL:
                entities[a.subject] = None  # the procedure, for its chain
            elif pred == vocab.PERFORMS_PLAN_EXECUTION and node in subjects:
                starts[id(a)] = a
            elif pred == vocab.PLAY_ROLE and node in subjects:
                players.append(a.subject)
        for a in outward:
            pred = a.predicate
            if pred in _MIRROR_ROOTS or (
                pred == vocab.PERFORMS_PLAN_EXECUTION and node in subjects
            ):
                starts[id(a)] = a
    for agent in players:
        for a in out_of(agent):
            if a.predicate == vocab.PERFORMS_PLAN_EXECUTION:
                starts[id(a)] = a
    return [kb.entities[iri] for iri in entities], assertions.values(), starts.values()


def _entity_checks(
    kb: KnowledgeBase, entities: Iterable[EntityRecord]
) -> list[Violation]:
    out = []
    for rec in entities:
        memberships = rec.memberships
        if not memberships:
            continue  # an untyped node or a declared class: nothing to check
        iri = rec.iri
        layers = vocab.LAYER_CLASSES.intersection(memberships)
        if len(layers) > 1:
            names = ", ".join(sorted(c.local for c in layers))
            out.append(
                Violation(
                    Code.LAYER_MIX,
                    (iri,),
                    f"entity carries several layer classes: {names}",
                )
            )
        if not vocab.PROCEDURE_STATE_CLASSES.isdisjoint(memberships):
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
            and layers == _EXECUTION_ONLY
            and not kb.objects(iri, vocab.EXECUTION_DRAWN_BY, entail=True)
        ):
            out.append(
                Violation(
                    Code.EXEC_WITHOUT_BEHAVIOUR,
                    (iri,),
                    "plan execution is not drawn by any behaviour",
                )
            )
        if vocab.PROCEDURE in memberships:
            out.extend(_chain(kb, iri))
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


#: an entity with no record, which has no memberships
_UNTYPED: dict[Iri, None] = {}


def _layer_class(layer: vocab.LayerTag | None) -> Iri | None:
    return None if layer is None else layer.class_iri


#: property -> its check row: the finding code, the literal flag, the
#: subject's layer class and class set, the object's, and whether both
#: endpoints must be typed; ``None`` leaves a slot unconstrained.  An
#: endpoint passes when it has the layer class and one of the classes;
#: an edge with one that does not goes to ``constraint_problem``
_CHECKS: dict[Iri, tuple] = {
    pred: (
        _FAMILY_CODES.get(pred, Code.LAYER_CONSTRAINT),
        spec.literal_object,
        _layer_class(spec.subject_layer),
        spec.subject_classes,
        _layer_class(spec.object_layer),
        spec.object_classes,
        not spec.literal_object and pred not in _STRUCTURAL_EXEMPT,
    )
    for pred, spec in vocab.PROPERTIES.items()
}


def constraint_problem(
    row: tuple, s_in: dict[Iri, None], o_in: dict[Iri, None] | None
) -> str | None:
    """First endpoint-constraint violation of an edge against its check
    row, or ``None``.  ``s_in`` and ``o_in`` are the endpoints' class
    memberships, ``o_in`` ``None`` for a literal object.  An endpoint
    with several layer classes is not outside a layer: mixed endpoints
    are reported on their own, not per edge."""
    _, literal, s_layer, s_classes, o_layer, o_classes, _ = row
    if literal != (o_in is None):
        return "object must be a literal" if literal else "object must be an IRI"
    layer_of = vocab.LAYER_TAG_OF_CLASS
    if s_layer is not None and s_layer not in s_in and len(layer_of.keys() & s_in) < 2:
        return f"subject must be in the {layer_of[s_layer].value} layer"
    if s_classes is not None and s_classes.isdisjoint(s_in):
        names = "/".join(sorted(c.local for c in s_classes))
        return f"subject must be a {names}"
    if o_in is None:
        return None
    if o_layer is not None and o_layer not in o_in and len(layer_of.keys() & o_in) < 2:
        return f"object must be in the {layer_of[o_layer].value} layer"
    if o_classes is not None and o_classes.isdisjoint(o_in):
        names = "/".join(sorted(c.local for c in o_classes))
        return f"object must be a {names}"
    return None


def _assertion_checks(
    kb: KnowledgeBase, assertions: Iterable[Assertion]
) -> list[Violation]:
    """Undeclared predicates, endpoint constraints and dangling endpoints.
    An undeclared predicate has no constraints to check, and literal
    objects and reference edges have no endpoints that must be typed.
    Each edge is tested against its property's check row, allocating
    nothing; ``constraint_problem`` words a failure, or clears an
    endpoint with several layer classes."""
    out = []
    unknown: dict[Iri, None] = {}
    flagged: dict[Iri, Iri] = {}  # dangling endpoint -> first edge's predicate
    entities = kb.entities
    for a in assertions:
        pred = a.predicate
        if pred is RDF_TYPE:
            continue
        row = _CHECKS.get(pred)
        if row is None:
            unknown[pred] = None
            continue
        code, literal, s_layer, s_classes, o_layer, o_classes, typed = row
        subject, obj = a.subject, a.object
        rec = entities.get(subject)
        s_in = rec.memberships if rec is not None else _UNTYPED
        o_in = None  # stays None for a literal object
        if isinstance(obj, Iri):
            rec = entities.get(obj)
            o_in = rec.memberships if rec is not None else _UNTYPED
            passed = (
                not literal
                and (o_layer is None or o_layer in o_in)
                and (o_classes is None or not o_classes.isdisjoint(o_in))
            )
        else:
            passed = literal
        if not (
            passed
            and (s_layer is None or s_layer in s_in)
            and (s_classes is None or not s_classes.isdisjoint(s_in))
        ):
            problem = constraint_problem(row, s_in, o_in)
            if problem is not None:
                subjects = (subject,) if o_in is None else (subject, obj)
                out.append(Violation(code, subjects, f"{pred.local}: {problem}"))
        if typed:
            if not s_in and subject not in flagged:
                flagged[subject] = pred
            if o_in is not None and not o_in and obj not in flagged:
                flagged[obj] = pred
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

#: each chain end: its edge, its name, and the codes for none and several
_CHAIN_ENDS = (
    (vocab.PROC_CONSISTS_INITIAL, "initial", Code.CHAIN_NO_INITIAL, Code.CHAIN_MULTIPLE_INITIAL),
    (vocab.PROC_CONSISTS_FINAL, "final", Code.CHAIN_NO_FINAL, Code.CHAIN_MULTIPLE_FINAL),
)


def _chain(kb: KnowledgeBase, proc: Iri) -> list[Violation]:
    out = []
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
        return out
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
                Code.CHAIN_CYCLE, (proc,), "successor edges loop back on the chain"
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


def _edge_checks(kb: KnowledgeBase, starts: Iterable[Assertion]) -> list[Violation]:
    """A mirror check from each root-pair edge, a capability check from
    each performer edge; an edge to a literal starts neither."""
    out = []
    for a in starts:
        root = a.object  # the linked tree's root, or the performed execution's
        if not isinstance(root, Iri):
            continue
        family = _MIRROR_ROOTS.get(a.predicate)
        if family is not None:
            out.extend(check_mirror(kb, a.subject, root, family))
            continue
        agent = a.subject
        for b in kb.objects(root, vocab.EXECUTION_DRAWN_BY, entail=True):
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


class CapabilityKind(Enum):
    INTRINSIC = "intrinsic"
    VIA_ROLE = "viaRole"


class CapabilitySource(Frozen):
    __slots__ = ("kind", "role")
    _defaults = {"role": None}


def check_capability(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri
) -> CapabilitySource | None:
    """How the agent may perform the behaviour, or ``None``.

    Own behaviours (hasBehaviour) win over role-provided ones; among
    live roles providing the behaviour the lowest IRI is picked.
    Deprecated roles grant nothing.
    """
    return _capability(kb, agent, behaviour)[0]


def capability_gap(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri
) -> tuple[Code, Iri] | None:
    """``None`` when the agent may perform the behaviour.  Otherwise the
    finding code and what it names next to the agent: the lowest
    deprecated role that would have provided the behaviour, or else the
    behaviour itself."""
    source, stale = _capability(kb, agent, behaviour)
    if source is not None:
        return None
    if stale is not None:
        return Code.ROLE_DEPRECATED_USE, stale
    return Code.PERFORMER_LACKS_CAPABILITY, behaviour


def _capability(
    kb: KnowledgeBase, agent: Iri, behaviour: Iri
) -> tuple[CapabilitySource | None, Iri | None]:
    """``check_capability``'s answer and, when that is ``None``, the lowest
    deprecated role of the agent that would have provided the behaviour;
    one read of the agent's played roles, none for an own behaviour."""
    if Assertion(agent, vocab.HAS_BEHAVIOUR, behaviour) in kb:
        return CapabilitySource(CapabilityKind.INTRINSIC), None
    live: list[Iri] = []
    stale: list[Iri] = []
    for role in kb.objects(agent, vocab.PLAY_ROLE):
        rec = kb.entity(role) if isinstance(role, Iri) else None
        if rec is None:
            continue
        if Assertion(role, vocab.PROVIDES_BEHAVIOUR, behaviour) in kb:
            (stale if rec.deprecated else live).append(role)
    if live:
        return CapabilitySource(CapabilityKind.VIA_ROLE, min(live)), None
    return None, min(stale, default=None)
