"""Vocabulary tables: classes, layers and the object-property hierarchy.

Everything downstream (builder, validator, engine, serialization) works
off these tables, so the module is deliberately declarative: plain dicts
and frozen dataclasses, no behaviour beyond closure computation and a
markdown rendering of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .terms import Iri

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
# Layers
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


LAYER_CLASS_OF_TAG: dict[LayerTag, Iri] = {
    LayerTag.TEMPLATE: term("TemplateThing"),
    LayerTag.BEHAVIOUR: term("BehaviourThing"),
    LayerTag.PLANNING: term("PlanningThing"),
    LayerTag.EXECUTION: term("ExecutionThing"),
}

LAYER_TAG_OF_CLASS: dict[Iri, LayerTag] = {
    v: k for k, v in LAYER_CLASS_OF_TAG.items()
}

LAYER_CLASSES: frozenset[Iri] = frozenset(LAYER_CLASS_OF_TAG.values())

DEPRECATED_THING = term("DeprecatedThing")

# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------

# local name -> parent local name (None for roots of the small taxonomy)
_CLASS_TABLE: dict[str, str | None] = {
    "Agent": None,
    "Behaviour": None,
    "GoalDescription": None,
    "TaskDescription": None,
    "TaskOperator": None,
    "TaskOperatorArgument": None,
    "TaskObject": None,
    "TaskParameter": None,
    "TaskInputParameter": "TaskParameter",
    "TaskOutputParameter": "TaskParameter",
    "Action": None,
    "Activity": None,
    "Process": None,
    "Procedure": "Activity",
    "ProcedureState": None,
    "TerminatingProcedureState": "ProcedureState",
    "InitialProcedureState": "TerminatingProcedureState",
    "FinalProcedureState": "TerminatingProcedureState",
    "NonTerminatingProcedureState": "ProcedureState",
    "Event": None,
    "Role": None,
    "RoleType": None,
    "TemplateThing": None,
    "BehaviourThing": None,
    "PlanningThing": None,
    "ExecutionThing": None,
    "DeprecatedThing": None,
}

CLASSES: dict[str, Iri] = {name: term(name) for name in _CLASS_TABLE}

CLASS_PARENT: dict[Iri, Iri] = {
    term(name): term(parent)
    for name, parent in _CLASS_TABLE.items()
    if parent is not None
}

AGENT = CLASSES["Agent"]
BEHAVIOUR = CLASSES["Behaviour"]
GOAL_DESCRIPTION = CLASSES["GoalDescription"]
TASK_DESCRIPTION = CLASSES["TaskDescription"]
TASK_OPERATOR = CLASSES["TaskOperator"]
TASK_OPERATOR_ARGUMENT = CLASSES["TaskOperatorArgument"]
TASK_OBJECT = CLASSES["TaskObject"]
TASK_INPUT_PARAMETER = CLASSES["TaskInputParameter"]
TASK_OUTPUT_PARAMETER = CLASSES["TaskOutputParameter"]
ACTION = CLASSES["Action"]
PROCESS = CLASSES["Process"]
PROCEDURE = CLASSES["Procedure"]
EVENT = CLASSES["Event"]
ROLE = CLASSES["Role"]
ROLE_TYPE = CLASSES["RoleType"]
INITIAL_STATE = CLASSES["InitialProcedureState"]
FINAL_STATE = CLASSES["FinalProcedureState"]
NON_TERMINATING_STATE = CLASSES["NonTerminatingProcedureState"]

#: Concrete state classes plus their abstract parents; membership in any of
#: them marks an individual as a procedure state.
PROCEDURE_STATE_CLASSES: frozenset[Iri] = frozenset(
    {
        CLASSES["ProcedureState"],
        CLASSES["TerminatingProcedureState"],
        INITIAL_STATE,
        FINAL_STATE,
        NON_TERMINATING_STATE,
    }
)

# The eight node classes a behaviour-shaped tree is made of.
TREE_NODE_CLASSES: tuple[Iri, ...] = (
    BEHAVIOUR,
    GOAL_DESCRIPTION,
    TASK_DESCRIPTION,
    TASK_OPERATOR,
    TASK_OPERATOR_ARGUMENT,
    TASK_OBJECT,
    TASK_INPUT_PARAMETER,
    TASK_OUTPUT_PARAMETER,
)

# ---------------------------------------------------------------------------
# Family maps keyed by tree-node class
# ---------------------------------------------------------------------------

# Each of the four families links a tree node to its counterpart in the
# next layer through the member named for the node's class.  The members'
# property specs are generated from these maps by ``_family`` below.

CLASS_TO_OVERLOAD: dict[Iri, Iri] = {
    BEHAVIOUR: term("overloadsBehaviour"),
    GOAL_DESCRIPTION: term("overloadsGoalDescription"),
    TASK_DESCRIPTION: term("overloadsTaskDescription"),
    TASK_OPERATOR: term("overloadsTaskOperator"),
    TASK_OPERATOR_ARGUMENT: term("overloadsTaskOperatorArgument"),
    TASK_OBJECT: term("overloadsTaskObject"),
    TASK_INPUT_PARAMETER: term("overloadsTaskInputParameter"),
    TASK_OUTPUT_PARAMETER: term("overloadsTaskOutputParameter"),
}

CLASS_TO_SUBMITTED: dict[Iri, Iri] = {
    BEHAVIOUR: term("planDescriptionSubmittedTo"),
    GOAL_DESCRIPTION: term("goalDescriptionSubmittedTo"),
    TASK_DESCRIPTION: term("taskDescriptionSubmittedTo"),
    TASK_OPERATOR: term("taskOperatorSubmittedTo"),
    TASK_OPERATOR_ARGUMENT: term("taskOperatorArgumentSubmittedTo"),
    TASK_OBJECT: term("taskObjectSubmittedTo"),
    TASK_INPUT_PARAMETER: term("taskInputParameterSubmittedTo"),
    TASK_OUTPUT_PARAMETER: term("taskOutputParameterSubmittedTo"),
}

CLASS_TO_HAS_EXECUTION: dict[Iri, Iri] = {
    BEHAVIOUR: term("hasPlanExecution"),
    GOAL_DESCRIPTION: term("hasGoalExecution"),
    TASK_DESCRIPTION: term("hasTaskExecution"),
    TASK_OPERATOR: term("hasTaskOperatorExecution"),
    TASK_OPERATOR_ARGUMENT: term("hasTaskOperatorArgumentExecution"),
    TASK_OBJECT: term("hasTaskObjectExecution"),
    TASK_INPUT_PARAMETER: term("hasTaskInputParameterExecution"),
    TASK_OUTPUT_PARAMETER: term("hasTaskOutputParameterExecution"),
}

CLASS_TO_EXECUTION_DRAWN_BY: dict[Iri, Iri] = {
    BEHAVIOUR: term("planExecutionDrawnBy"),
    GOAL_DESCRIPTION: term("goalExecutionDrawnBy"),
    TASK_DESCRIPTION: term("taskExecutionDrawnBy"),
    TASK_OPERATOR: term("taskOperatorDrawnBy"),
    TASK_OPERATOR_ARGUMENT: term("taskOperatorArgumentDrawnBy"),
    TASK_OBJECT: term("taskObjectDrawnBy"),
    TASK_INPUT_PARAMETER: term("taskInputParameterDrawnBy"),
    TASK_OUTPUT_PARAMETER: term("taskOutputParameterDrawnBy"),
}

# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertySpec:
    """Declared shape of one object property.

    ``subject_layer``/``object_layer`` constrain the derived layer tag of
    the endpoints; ``subject_classes``/``object_classes`` constrain their
    memberships (satisfied when the intersection is non-empty).  ``None``
    means unconstrained.  ``literal_object`` marks datatype-style
    properties whose object is a plain string.
    """

    iri: Iri
    super_property: Iri | None = None
    subject_layer: LayerTag | None = None
    object_layer: LayerTag | None = None
    subject_classes: frozenset[Iri] | None = None
    object_classes: frozenset[Iri] | None = None
    extension: bool = False
    literal_object: bool = False

    @property
    def local(self) -> str:
        return self.iri.local


def _p(
    local: str,
    sup: str | None = None,
    *,
    s_layer: LayerTag | None = None,
    o_layer: LayerTag | None = None,
    s_cls: frozenset[Iri] | None = None,
    o_cls: frozenset[Iri] | None = None,
    ext: bool = False,
    lit: bool = False,
) -> PropertySpec:
    return PropertySpec(
        iri=term(local),
        super_property=term(sup) if sup else None,
        subject_layer=s_layer,
        object_layer=o_layer,
        subject_classes=s_cls,
        object_classes=o_cls,
        extension=ext,
        literal_object=lit,
    )


def _one(name: str) -> frozenset[Iri]:
    return frozenset({CLASSES[name]})


def _family(root: PropertySpec, members: dict[Iri, Iri]) -> list[PropertySpec]:
    """A family root followed by its members: each member is a
    sub-property of the root with the root's layers, linking nodes of its
    own tree-node class, and only the TaskOperatorArgument member is an
    extension."""
    return [root] + [
        PropertySpec(
            iri=member,
            super_property=root.iri,
            subject_layer=root.subject_layer,
            object_layer=root.object_layer,
            subject_classes=frozenset({cls}),
            object_classes=frozenset({cls}),
            extension=cls == TASK_OPERATOR_ARGUMENT,
        )
        for cls, member in members.items()
    ]


_B = LayerTag.BEHAVIOUR
_T = LayerTag.TEMPLATE
_P = LayerTag.PLANNING
_E = LayerTag.EXECUTION

_PROPERTY_LIST: list[PropertySpec] = [
    # -- structural tree edges ---------------------------------------------
    _p("hasBehaviour", o_layer=_B, s_cls=_one("Agent"), o_cls=_one("Behaviour")),
    _p(
        "consistsOfGoalDescription",
        s_cls=_one("Behaviour"),
        o_cls=_one("GoalDescription"),
    ),
    _p(
        "consistsOfTaskDescription",
        s_cls=_one("GoalDescription"),
        o_cls=_one("TaskDescription"),
    ),
    _p("hasTaskOperator", s_cls=_one("TaskDescription"), o_cls=_one("TaskOperator")),
    _p(
        "hasTaskOperatorArgument",
        s_cls=_one("TaskDescription"),
        o_cls=_one("TaskOperatorArgument"),
    ),
    _p("hasTaskObject", s_cls=_one("TaskDescription"), o_cls=_one("TaskObject")),
    _p(
        "hasTaskInputParameter",
        s_cls=_one("TaskDescription"),
        o_cls=_one("TaskInputParameter"),
    ),
    _p(
        "hasTaskOutputParameter",
        s_cls=_one("TaskDescription"),
        o_cls=_one("TaskOutputParameter"),
    ),
    _p("dependsOn"),
    # -- reference edges -----------------------------------------------------
    _p("refersExactlyTo"),
    _p("refersAsNewTo"),
    _p("refersAsInstanceOf"),
    # -- behaviour layer over template layer ---------------------------------
    *_family(_p("overloads", s_layer=_B, o_layer=_T), CLASS_TO_OVERLOAD),
    # -- planning layer submitted to behaviour layer -------------------------
    *_family(_p("submittedTo", s_layer=_P, o_layer=_B), CLASS_TO_SUBMITTED),
    # -- execution layer drawn by earlier layers ------------------------------
    _p("drawnBy", s_layer=_E),
    *_family(
        _p("executionDrawnBy", "drawnBy", s_layer=_E, o_layer=_B),
        CLASS_TO_EXECUTION_DRAWN_BY,
    ),
    _p(
        "processDrawnBy",
        "drawnBy",
        s_layer=_E,
        o_layer=_P,
        s_cls=_one("Process"),
        o_cls=_one("Process"),
    ),
    _p(
        "procedureDrawnBy",
        "drawnBy",
        s_layer=_E,
        o_layer=_P,
        s_cls=_one("Procedure"),
        o_cls=_one("Procedure"),
    ),
    # -- planning layer pointing at its executions ---------------------------
    *_family(_p("hasExecution", s_layer=_P, o_layer=_E), CLASS_TO_HAS_EXECUTION),
    # -- agents performing executions ----------------------------------------
    _p("performs", o_layer=_E),
    _p(
        "performsPlanExecution",
        "performs",
        o_layer=_E,
        s_cls=_one("Agent"),
        o_cls=_one("Behaviour"),
    ),
    # -- processes, procedures and their states -------------------------------
    _p(
        "consistsOfProcedure",
        s_cls=_one("Process"),
        o_cls=_one("Procedure"),
        ext=True,
    ),
    _p("hasNextProcedure", s_cls=_one("Procedure"), o_cls=_one("Procedure")),
    _p(
        "procedureConsistsOfProcedureState",
        s_cls=_one("Procedure"),
        o_cls=PROCEDURE_STATE_CLASSES,
    ),
    _p(
        "procedureConsistsOfTerminatingProcedureState",
        "procedureConsistsOfProcedureState",
        s_cls=_one("Procedure"),
        o_cls=frozenset(
            {CLASSES["TerminatingProcedureState"], INITIAL_STATE, FINAL_STATE}
        ),
    ),
    _p(
        "procedureConsistsOfInitialProcedureState",
        "procedureConsistsOfTerminatingProcedureState",
        s_cls=_one("Procedure"),
        o_cls=_one("InitialProcedureState"),
    ),
    _p(
        "procedureConsistsOfFinalProcedureState",
        "procedureConsistsOfTerminatingProcedureState",
        s_cls=_one("Procedure"),
        o_cls=_one("FinalProcedureState"),
    ),
    _p(
        "procedureConsistsOfNonTerminatingProcedureState",
        "procedureConsistsOfProcedureState",
        s_cls=_one("Procedure"),
        o_cls=_one("NonTerminatingProcedureState"),
    ),
    _p("hasNext", s_cls=PROCEDURE_STATE_CLASSES, o_cls=PROCEDURE_STATE_CLASSES),
    _p(
        "hasNextNonTerminatingProcedureState",
        "hasNext",
        s_cls=PROCEDURE_STATE_CLASSES,
        o_cls=_one("NonTerminatingProcedureState"),
    ),
    _p(
        "hasFinalProcedureState",
        "hasNext",
        s_cls=PROCEDURE_STATE_CLASSES,
        o_cls=_one("FinalProcedureState"),
    ),
    _p("isDescribedBy", s_cls=PROCEDURE_STATE_CLASSES, o_cls=_one("Behaviour")),
    # -- events ----------------------------------------------------------------
    _p("triggersEvent", s_cls=PROCEDURE_STATE_CLASSES, o_cls=_one("Event")),
    _p(
        "eventDescribedByAction",
        s_cls=_one("Event"),
        o_cls=_one("TaskDescription"),
        ext=True,
    ),
    _p("hasEventKind", s_cls=_one("Event"), ext=True, lit=True),
    _p("hasEventDuration", s_cls=_one("Event"), ext=True, lit=True),
    _p("hasEventWindow", s_cls=_one("Event"), ext=True, lit=True),
    # -- roles -------------------------------------------------------------------
    _p("playRole", s_cls=_one("Agent"), o_cls=_one("Role")),
    _p("providesBehaviour", o_layer=_B, s_cls=_one("Role"), o_cls=_one("Behaviour")),
]

PROPERTIES: dict[Iri, PropertySpec] = {p.iri: p for p in _PROPERTY_LIST}

assert len(PROPERTIES) == len(_PROPERTY_LIST), "duplicate property declaration"

#: Declared (child, parent) pairs, in declaration order.
DECLARED_SUB_PAIRS: tuple[tuple[Iri, Iri], ...] = tuple(
    (p.iri, p.super_property) for p in _PROPERTY_LIST if p.super_property is not None
)


def ancestors(prop: Iri) -> tuple[Iri, ...]:
    """Super-property chain from ``prop`` upward, excluding ``prop``;
    ``ValueError`` once it grows longer than the table, on a cycle."""
    chain: list[Iri] = []
    cur = PROPERTIES[prop].super_property
    while cur is not None:
        chain.append(cur)
        if len(chain) > len(PROPERTIES):
            raise ValueError(f"cycle in property hierarchy at {cur}")
        cur = PROPERTIES[cur].super_property
    return tuple(chain)


def _closure() -> dict[Iri, frozenset[Iri]]:
    out: dict[Iri, set[Iri]] = {prop: {prop} for prop in PROPERTIES}
    for prop in PROPERTIES:
        for parent in ancestors(prop):
            out[parent].add(prop)
    return {prop: frozenset(subs) for prop, subs in out.items()}


#: property -> itself plus all transitive subproperties.
SUB_CLOSURE: dict[Iri, frozenset[Iri]] = _closure()


# ---------------------------------------------------------------------------
# Family roots and named properties
# ---------------------------------------------------------------------------

OVERLOADS = term("overloads")
SUBMITTED_TO = term("submittedTo")
DRAWN_BY = term("drawnBy")
EXECUTION_DRAWN_BY = term("executionDrawnBy")
HAS_EXECUTION = term("hasExecution")
PERFORMS = term("performs")

FAMILY_ROOTS: dict[Iri, dict[Iri, Iri]] = {
    OVERLOADS: CLASS_TO_OVERLOAD,
    SUBMITTED_TO: CLASS_TO_SUBMITTED,
    HAS_EXECUTION: CLASS_TO_HAS_EXECUTION,
    EXECUTION_DRAWN_BY: CLASS_TO_EXECUTION_DRAWN_BY,
}

CONSISTS_OF_GOAL = term("consistsOfGoalDescription")
CONSISTS_OF_TASK = term("consistsOfTaskDescription")
HAS_TASK_OPERATOR = term("hasTaskOperator")
HAS_TASK_OPERATOR_ARGUMENT = term("hasTaskOperatorArgument")
HAS_TASK_OBJECT = term("hasTaskObject")
HAS_TASK_INPUT_PARAMETER = term("hasTaskInputParameter")
HAS_TASK_OUTPUT_PARAMETER = term("hasTaskOutputParameter")

#: Edges that make up a behaviour-shaped tree, in traversal order.
CHILD_PREDICATES: tuple[Iri, ...] = (
    CONSISTS_OF_GOAL,
    CONSISTS_OF_TASK,
    HAS_TASK_OPERATOR,
    HAS_TASK_OPERATOR_ARGUMENT,
    HAS_TASK_OBJECT,
    HAS_TASK_INPUT_PARAMETER,
    HAS_TASK_OUTPUT_PARAMETER,
)

REFERS_EXACTLY_TO = term("refersExactlyTo")
REFERS_AS_NEW_TO = term("refersAsNewTo")
REFERS_AS_INSTANCE_OF = term("refersAsInstanceOf")
REFERS_PREDICATES: tuple[Iri, ...] = (
    REFERS_EXACTLY_TO,
    REFERS_AS_NEW_TO,
    REFERS_AS_INSTANCE_OF,
)

DEPENDS_ON = term("dependsOn")
HAS_BEHAVIOUR = term("hasBehaviour")
HAS_NEXT_PROCEDURE = term("hasNextProcedure")
CONSISTS_OF_PROCEDURE = term("consistsOfProcedure")
PROC_CONSISTS_STATE = term("procedureConsistsOfProcedureState")
PROC_CONSISTS_INITIAL = term("procedureConsistsOfInitialProcedureState")
PROC_CONSISTS_FINAL = term("procedureConsistsOfFinalProcedureState")
PROC_CONSISTS_NON_TERMINATING = term(
    "procedureConsistsOfNonTerminatingProcedureState"
)
HAS_NEXT = term("hasNext")
HAS_NEXT_NON_TERMINATING = term("hasNextNonTerminatingProcedureState")
HAS_FINAL_STATE = term("hasFinalProcedureState")
IS_DESCRIBED_BY = term("isDescribedBy")
TRIGGERS_EVENT = term("triggersEvent")
EVENT_DESCRIBED_BY_ACTION = term("eventDescribedByAction")
HAS_EVENT_KIND = term("hasEventKind")
HAS_EVENT_DURATION = term("hasEventDuration")
HAS_EVENT_WINDOW = term("hasEventWindow")
PLAY_ROLE = term("playRole")
PROVIDES_BEHAVIOUR = term("providesBehaviour")
PERFORMS_PLAN_EXECUTION = term("performsPlanExecution")
PROCESS_DRAWN_BY = term("processDrawnBy")
PROCEDURE_DRAWN_BY = term("procedureDrawnBy")
PLAN_EXECUTION_DRAWN_BY = CLASS_TO_EXECUTION_DRAWN_BY[BEHAVIOUR]
HAS_PLAN_EXECUTION = CLASS_TO_HAS_EXECUTION[BEHAVIOUR]

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
    for name in sorted(_CLASS_TABLE):
        parent = _CLASS_TABLE[name]
        lines.append(f"| `{term(name).value}` | {f'`{term(parent).value}`' if parent else ''} |")
    lines.append("")
    lines.append("## Properties")
    lines.append("")
    lines.append(
        "| Property | Super-property | Subject layer | Object layer "
        "| Subject classes | Object classes | Extension | Literal |"
    )
    lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for spec in _PROPERTY_LIST:
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
