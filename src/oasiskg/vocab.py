"""Vocabulary tables: classes, layers and the object-property hierarchy.

Everything downstream (builder, validator, engine, serialization) works
off these tables, so the module is deliberately declarative.  Each class
and each property is declared once, by a ``_c`` or ``_p`` call that
registers it in ``CLASSES`` or ``PROPERTIES`` and returns the IRI its
constant is bound to; ``_family`` declares a family root's members the
same way, and ``_child`` a tree edge, which it also records in
``TREE_SHAPE``.  The tree's node classes and child predicates are read
off that record.  Beyond that registration the module only closes the
two hierarchies and renders the tables as markdown.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum

from .terms import Frozen, Iri

# ---------------------------------------------------------------------------
# Namespaces
# ---------------------------------------------------------------------------

OASIS = "http://example.org/oasis#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
EX = "http://example.org/"

RDF_TYPE = Iri(RDF + "type")

#: Prefixes every fresh knowledge base starts with.
DEFAULT_PREFIXES: dict[str, str] = {
    "oasis": OASIS,
    "rdf": RDF,
    "ex": EX,
}


def term(local: str) -> Iri:
    """Vocabulary IRI for a local name."""
    return Iri(OASIS + local)


# ---------------------------------------------------------------------------
# Classes and layers
# ---------------------------------------------------------------------------


class LayerTag(Enum):
    """Modelling layer of an individual, derived from its memberships."""

    TEMPLATE = "template"
    BEHAVIOUR = "behaviour"
    PLANNING = "planning"
    EXECUTION = "execution"

    @property
    def class_iri(self) -> Iri:
        return LAYER_CLASS_OF_TAG[self]


#: local name -> class, in declaration order
CLASSES: dict[str, Iri] = {}
#: class -> its parent, for the classes that have one
CLASS_PARENT: dict[Iri, Iri] = {}


def _c(name: str, parent: Iri | None = None) -> Iri:
    """Declare a class, under ``parent`` if given, and return its IRI."""
    assert name not in CLASSES, f"duplicate class declaration: {name}"
    iri = CLASSES[name] = term(name)
    if parent is not None:
        CLASS_PARENT[iri] = parent
    return iri


AGENT = _c("Agent")
BEHAVIOUR = _c("Behaviour")
GOAL_DESCRIPTION = _c("GoalDescription")
TASK_DESCRIPTION = _c("TaskDescription")
TASK_OPERATOR = _c("TaskOperator")
TASK_OPERATOR_ARGUMENT = _c("TaskOperatorArgument")
TASK_OBJECT = _c("TaskObject")
TASK_PARAMETER = _c("TaskParameter")
TASK_INPUT_PARAMETER = _c("TaskInputParameter", TASK_PARAMETER)
TASK_OUTPUT_PARAMETER = _c("TaskOutputParameter", TASK_PARAMETER)
ACTION = _c("Action")
ACTIVITY = _c("Activity")
PROCESS = _c("Process")
PROCEDURE = _c("Procedure", ACTIVITY)
PROCEDURE_STATE = _c("ProcedureState")
TERMINATING_STATE = _c("TerminatingProcedureState", PROCEDURE_STATE)
INITIAL_STATE = _c("InitialProcedureState", TERMINATING_STATE)
FINAL_STATE = _c("FinalProcedureState", TERMINATING_STATE)
NON_TERMINATING_STATE = _c("NonTerminatingProcedureState", PROCEDURE_STATE)
EVENT = _c("Event")
ROLE = _c("Role")
ROLE_TYPE = _c("RoleType")

LAYER_CLASS_OF_TAG: dict[LayerTag, Iri] = {
    LayerTag.TEMPLATE: _c("TemplateThing"),
    LayerTag.BEHAVIOUR: _c("BehaviourThing"),
    LayerTag.PLANNING: _c("PlanningThing"),
    LayerTag.EXECUTION: _c("ExecutionThing"),
}

LAYER_TAG_OF_CLASS: dict[Iri, LayerTag] = {
    v: k for k, v in LAYER_CLASS_OF_TAG.items()
}

LAYER_CLASSES: frozenset[Iri] = frozenset(LAYER_CLASS_OF_TAG.values())

DEPRECATED_THING = _c("DeprecatedThing")


def ancestors(node: Iri, parent: Mapping[Iri, Iri]) -> tuple[Iri, ...]:
    """Chain of ``parent`` links from ``node`` upward, excluding ``node``;
    ``ValueError`` once it grows longer than ``parent``, on a cycle."""
    chain: list[Iri] = []
    cur = parent.get(node)
    while cur is not None:
        chain.append(cur)
        if len(chain) > len(parent):
            raise ValueError(f"cycle in hierarchy at {cur}")
        cur = parent.get(cur)
    return tuple(chain)


def _closure(
    parent: Mapping[Iri, Iri], nodes: Iterable[Iri]
) -> dict[Iri, frozenset[Iri]]:
    """Each of ``nodes`` -> itself plus everything below it under ``parent``."""
    out: dict[Iri, set[Iri]] = {node: {node} for node in nodes}
    for node in out:
        for above in ancestors(node, parent):
            out[above].add(node)
    return {node: frozenset(below) for node, below in out.items()}


#: class -> itself plus all transitive subclasses.
SUBCLASS_CLOSURE: dict[Iri, frozenset[Iri]] = _closure(CLASS_PARENT, CLASSES.values())

#: Membership in any of these marks an individual as a procedure state.
PROCEDURE_STATE_CLASSES: frozenset[Iri] = SUBCLASS_CLOSURE[PROCEDURE_STATE]

# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class PropertySpec(Frozen):
    """Declared shape of one object property: ``iri`` and the optional
    ``super_property`` (:class:`Iri`), ``subject_layer`` and
    ``object_layer`` (:class:`LayerTag`), ``subject_classes`` and
    ``object_classes`` (frozensets of class IRIs), and the flags
    ``extension`` and ``literal_object`` (bool).

    ``subject_layer``/``object_layer`` constrain the derived layer tag of
    the endpoints; ``subject_classes``/``object_classes`` constrain their
    memberships (satisfied when the intersection is non-empty).  ``None``
    means unconstrained.  ``literal_object`` marks datatype-style
    properties whose object is a plain string.
    """

    __slots__ = ("iri", "super_property", "subject_layer", "object_layer",
                 "subject_classes", "object_classes", "extension", "literal_object")
    _defaults = {"super_property": None, "subject_layer": None, "object_layer": None,
                 "subject_classes": None, "object_classes": None, "extension": False,
                 "literal_object": False}


#: property -> its spec, in declaration order
PROPERTIES: dict[Iri, PropertySpec] = {}
#: family root -> tree-node class -> the member linking nodes of that class
FAMILY_ROOTS: dict[Iri, dict[Iri, Iri]] = {}
#: tree edge -> (parent class, child class), in declaration order: the
#: shape every behaviour-shaped tree has, in every layer
TREE_SHAPE: dict[Iri, tuple[Iri, Iri]] = {}


def _p(
    local: str,
    sup: Iri | None = None,
    *,
    s_layer: LayerTag | None = None,
    o_layer: LayerTag | None = None,
    s_cls: frozenset[Iri] | None = None,
    o_cls: frozenset[Iri] | None = None,
    ext: bool = False,
    lit: bool = False,
) -> Iri:
    """Declare a property, under ``sup`` if given, and return its IRI."""
    iri = term(local)
    assert iri not in PROPERTIES, f"duplicate property declaration: {local}"
    PROPERTIES[iri] = PropertySpec(
        iri=iri,
        super_property=sup,
        subject_layer=s_layer,
        object_layer=o_layer,
        subject_classes=s_cls,
        object_classes=o_cls,
        extension=ext,
        literal_object=lit,
    )
    return iri


def _one(cls: Iri) -> frozenset[Iri]:
    return frozenset({cls})


def _child(local: str, parent: Iri, child: Iri) -> Iri:
    """Declare a tree edge from ``parent`` nodes to ``child`` nodes, record
    it in ``TREE_SHAPE`` and return its IRI.  Edges are declared root
    first, each from a class an earlier edge leads to."""
    iri = _p(local, s_cls=_one(parent), o_cls=_one(child))
    TREE_SHAPE[iri] = (parent, child)
    return iri


def _family(root: Iri, *members: str) -> Iri:
    """Declare a family root's members, one per tree-node class in
    ``TREE_NODE_CLASSES`` order, and return the root.  Each member is a
    sub-property of the root with the root's layers, linking nodes of its
    own class, and only the TaskOperatorArgument member is an extension.
    Each family links a tree node to its counterpart in the next layer."""
    spec = PROPERTIES[root]
    FAMILY_ROOTS[root] = {
        cls: _p(
            member,
            root,
            s_layer=spec.subject_layer,
            o_layer=spec.object_layer,
            s_cls=_one(cls),
            o_cls=_one(cls),
            ext=cls == TASK_OPERATOR_ARGUMENT,
        )
        for cls, member in zip(TREE_NODE_CLASSES, members, strict=True)
    }
    return root


_B = LayerTag.BEHAVIOUR
_T = LayerTag.TEMPLATE
_P = LayerTag.PLANNING
_E = LayerTag.EXECUTION

# -- structural tree edges -------------------------------------------------
HAS_BEHAVIOUR = _p("hasBehaviour", o_layer=_B, s_cls=_one(AGENT), o_cls=_one(BEHAVIOUR))
CONSISTS_OF_GOAL = _child("consistsOfGoalDescription", BEHAVIOUR, GOAL_DESCRIPTION)
CONSISTS_OF_TASK = _child(
    "consistsOfTaskDescription", GOAL_DESCRIPTION, TASK_DESCRIPTION
)
HAS_TASK_OPERATOR = _child("hasTaskOperator", TASK_DESCRIPTION, TASK_OPERATOR)
HAS_TASK_OPERATOR_ARGUMENT = _child(
    "hasTaskOperatorArgument", TASK_DESCRIPTION, TASK_OPERATOR_ARGUMENT
)
HAS_TASK_OBJECT = _child("hasTaskObject", TASK_DESCRIPTION, TASK_OBJECT)
HAS_TASK_INPUT_PARAMETER = _child(
    "hasTaskInputParameter", TASK_DESCRIPTION, TASK_INPUT_PARAMETER
)
HAS_TASK_OUTPUT_PARAMETER = _child(
    "hasTaskOutputParameter", TASK_DESCRIPTION, TASK_OUTPUT_PARAMETER
)
DEPENDS_ON = _p("dependsOn")

#: Edges that make up a behaviour-shaped tree, in traversal order.
CHILD_PREDICATES: tuple[Iri, ...] = tuple(TREE_SHAPE)
#: Node classes of a behaviour-shaped tree, root first, then each edge's
#: child; each family below has one member per class, in this order.
TREE_NODE_CLASSES: tuple[Iri, ...] = tuple(
    dict.fromkeys(cls for edge in TREE_SHAPE.values() for cls in edge)
)
# -- reference edges ---------------------------------------------------------
REFERS_EXACTLY_TO = _p("refersExactlyTo")
REFERS_AS_NEW_TO = _p("refersAsNewTo")
REFERS_AS_INSTANCE_OF = _p("refersAsInstanceOf")
# -- behaviour layer over template layer -------------------------------------
OVERLOADS = _family(
    _p("overloads", s_layer=_B, o_layer=_T),
    "overloadsBehaviour",
    "overloadsGoalDescription",
    "overloadsTaskDescription",
    "overloadsTaskOperator",
    "overloadsTaskOperatorArgument",
    "overloadsTaskObject",
    "overloadsTaskInputParameter",
    "overloadsTaskOutputParameter",
)
# -- planning layer submitted to behaviour layer -----------------------------
SUBMITTED_TO = _family(
    _p("submittedTo", s_layer=_P, o_layer=_B),
    "planDescriptionSubmittedTo",
    "goalDescriptionSubmittedTo",
    "taskDescriptionSubmittedTo",
    "taskOperatorSubmittedTo",
    "taskOperatorArgumentSubmittedTo",
    "taskObjectSubmittedTo",
    "taskInputParameterSubmittedTo",
    "taskOutputParameterSubmittedTo",
)
# -- execution layer drawn by earlier layers ----------------------------------
DRAWN_BY = _p("drawnBy", s_layer=_E)
EXECUTION_DRAWN_BY = _family(
    _p("executionDrawnBy", DRAWN_BY, s_layer=_E, o_layer=_B),
    "planExecutionDrawnBy",
    "goalExecutionDrawnBy",
    "taskExecutionDrawnBy",
    "taskOperatorDrawnBy",
    "taskOperatorArgumentDrawnBy",
    "taskObjectDrawnBy",
    "taskInputParameterDrawnBy",
    "taskOutputParameterDrawnBy",
)
PROCESS_DRAWN_BY = _p(
    "processDrawnBy",
    DRAWN_BY,
    s_layer=_E,
    o_layer=_P,
    s_cls=_one(PROCESS),
    o_cls=_one(PROCESS),
)
PROCEDURE_DRAWN_BY = _p(
    "procedureDrawnBy",
    DRAWN_BY,
    s_layer=_E,
    o_layer=_P,
    s_cls=_one(PROCEDURE),
    o_cls=_one(PROCEDURE),
)
# -- planning layer pointing at its executions -------------------------------
HAS_EXECUTION = _family(
    _p("hasExecution", s_layer=_P, o_layer=_E),
    "hasPlanExecution",
    "hasGoalExecution",
    "hasTaskExecution",
    "hasTaskOperatorExecution",
    "hasTaskOperatorArgumentExecution",
    "hasTaskObjectExecution",
    "hasTaskInputParameterExecution",
    "hasTaskOutputParameterExecution",
)
# -- agents performing executions --------------------------------------------
PERFORMS = _p("performs", o_layer=_E)
PERFORMS_PLAN_EXECUTION = _p(
    "performsPlanExecution",
    PERFORMS,
    o_layer=_E,
    s_cls=_one(AGENT),
    o_cls=_one(BEHAVIOUR),
)
# -- processes, procedures and their states -----------------------------------
CONSISTS_OF_PROCEDURE = _p(
    "consistsOfProcedure", s_cls=_one(PROCESS), o_cls=_one(PROCEDURE), ext=True
)
HAS_NEXT_PROCEDURE = _p(
    "hasNextProcedure", s_cls=_one(PROCEDURE), o_cls=_one(PROCEDURE)
)
PROC_CONSISTS_STATE = _p(
    "procedureConsistsOfProcedureState",
    s_cls=_one(PROCEDURE),
    o_cls=PROCEDURE_STATE_CLASSES,
)
PROC_CONSISTS_TERMINATING = _p(
    "procedureConsistsOfTerminatingProcedureState",
    PROC_CONSISTS_STATE,
    s_cls=_one(PROCEDURE),
    o_cls=SUBCLASS_CLOSURE[TERMINATING_STATE],
)
PROC_CONSISTS_INITIAL = _p(
    "procedureConsistsOfInitialProcedureState",
    PROC_CONSISTS_TERMINATING,
    s_cls=_one(PROCEDURE),
    o_cls=_one(INITIAL_STATE),
)
PROC_CONSISTS_FINAL = _p(
    "procedureConsistsOfFinalProcedureState",
    PROC_CONSISTS_TERMINATING,
    s_cls=_one(PROCEDURE),
    o_cls=_one(FINAL_STATE),
)
PROC_CONSISTS_NON_TERMINATING = _p(
    "procedureConsistsOfNonTerminatingProcedureState",
    PROC_CONSISTS_STATE,
    s_cls=_one(PROCEDURE),
    o_cls=_one(NON_TERMINATING_STATE),
)
HAS_NEXT = _p("hasNext", s_cls=PROCEDURE_STATE_CLASSES, o_cls=PROCEDURE_STATE_CLASSES)
HAS_NEXT_NON_TERMINATING = _p(
    "hasNextNonTerminatingProcedureState",
    HAS_NEXT,
    s_cls=PROCEDURE_STATE_CLASSES,
    o_cls=_one(NON_TERMINATING_STATE),
)
HAS_FINAL_STATE = _p(
    "hasFinalProcedureState",
    HAS_NEXT,
    s_cls=PROCEDURE_STATE_CLASSES,
    o_cls=_one(FINAL_STATE),
)
IS_DESCRIBED_BY = _p(
    "isDescribedBy", s_cls=PROCEDURE_STATE_CLASSES, o_cls=_one(BEHAVIOUR)
)
# -- events --------------------------------------------------------------------
TRIGGERS_EVENT = _p("triggersEvent", s_cls=PROCEDURE_STATE_CLASSES, o_cls=_one(EVENT))
EVENT_DESCRIBED_BY_ACTION = _p(
    "eventDescribedByAction", s_cls=_one(EVENT), o_cls=_one(TASK_DESCRIPTION), ext=True
)
HAS_EVENT_KIND = _p("hasEventKind", s_cls=_one(EVENT), ext=True, lit=True)
HAS_EVENT_DURATION = _p("hasEventDuration", s_cls=_one(EVENT), ext=True, lit=True)
HAS_EVENT_WINDOW = _p("hasEventWindow", s_cls=_one(EVENT), ext=True, lit=True)
# -- roles ---------------------------------------------------------------------
PLAY_ROLE = _p("playRole", s_cls=_one(AGENT), o_cls=_one(ROLE))
PROVIDES_BEHAVIOUR = _p(
    "providesBehaviour", o_layer=_B, s_cls=_one(ROLE), o_cls=_one(BEHAVIOUR)
)

CLASS_TO_OVERLOAD = FAMILY_ROOTS[OVERLOADS]
CLASS_TO_SUBMITTED = FAMILY_ROOTS[SUBMITTED_TO]
CLASS_TO_HAS_EXECUTION = FAMILY_ROOTS[HAS_EXECUTION]
CLASS_TO_EXECUTION_DRAWN_BY = FAMILY_ROOTS[EXECUTION_DRAWN_BY]
PLAN_EXECUTION_DRAWN_BY = CLASS_TO_EXECUTION_DRAWN_BY[BEHAVIOUR]
HAS_PLAN_EXECUTION = CLASS_TO_HAS_EXECUTION[BEHAVIOUR]

#: Declared (child, parent) pairs, in declaration order.
DECLARED_SUB_PAIRS: tuple[tuple[Iri, Iri], ...] = tuple(
    (p.iri, p.super_property)
    for p in PROPERTIES.values()
    if p.super_property is not None
)

#: property -> itself plus all transitive subproperties.
SUB_CLOSURE: dict[Iri, frozenset[Iri]] = _closure(dict(DECLARED_SUB_PAIRS), PROPERTIES)

REFERS_PREDICATES: tuple[Iri, ...] = (
    REFERS_EXACTLY_TO,
    REFERS_AS_NEW_TO,
    REFERS_AS_INSTANCE_OF,
)

#: Steps per schedule a race search explores unless told otherwise.  It
#: lives here, not in ``concurrency``, so the CLI parser can show it
#: without loading the search.
DEFAULT_BOUND = 12

# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def vocabulary_markdown() -> str:
    """Markdown reference for every class and property this package ships."""
    lines: list[str] = []
    lines.append("# Vocabulary")
    lines.append("")
    lines.append(f"Base IRI: `{OASIS}`")
    lines.append("")
    lines.append("## Classes")
    lines.append("")
    lines.append("| Class | Parent |")
    lines.append("| --- | --- |")
    for name, cls in sorted(CLASSES.items()):
        parent = CLASS_PARENT.get(cls)
        lines.append(f"| `{cls.value}` | {f'`{parent.value}`' if parent else ''} |")
    lines.append("")
    lines.append("## Properties")
    lines.append("")
    lines.append(
        "| Property | Super-property | Subject layer | Object layer "
        "| Subject classes | Object classes | Extension | Literal |"
    )
    lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for spec in PROPERTIES.values():
        sup = f"`{spec.super_property.value}`" if spec.super_property else ""
        s_layer = spec.subject_layer.value if spec.subject_layer else ""
        o_layer = spec.object_layer.value if spec.object_layer else ""
        s_cls = (
            ", ".join(sorted(c.local for c in spec.subject_classes))
            if spec.subject_classes
            else ""
        )
        o_cls = (
            ", ".join(sorted(c.local for c in spec.object_classes))
            if spec.object_classes
            else ""
        )
        ext = "yes" if spec.extension else ""
        lit = "yes" if spec.literal_object else ""
        lines.append(
            f"| `{spec.iri.value}` | {sup} | {s_layer} | {o_layer} "
            f"| {s_cls} | {o_cls} | {ext} | {lit} |"
        )
    lines.append("")
    lines.append(
        f"Declared sub-property pairs: {len(DECLARED_SUB_PAIRS)}. "
        "Properties marked extension are additions this package needs "
        "beyond the core model; they follow the same naming style."
    )
    lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    print(vocabulary_markdown(), end="")
