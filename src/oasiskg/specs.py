"""Input descriptions the builder turns into graph structure.

These are frozen records (:class:`~oasiskg.terms.Frozen`), each built
by the ``__init__`` compiled from its ``__slots__``, plus JSON
converters.  JSON field names are part of the CLI contract (camelCase:
``operatorAction``, ``dependsOn``, ``instanceOf``); the records'
attributes follow Python convention.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Any, Callable

from .terms import Frozen, ModelError


class SpecInvalid(ModelError):
    """A spec value is malformed: wrong shape, bad reference, cycle, dup name."""

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


class RefMode(Enum):
    EXACT = "exact"
    NEW = "new"


class Ref(Frozen):
    """Reference from a task element to a domain individual: ``target``
    (str), ``mode`` (:class:`RefMode`) and ``instance_of`` (tuple of str).

    ``exact`` points at something that already exists; ``new`` introduces
    the individual, optionally typed by the classes in ``instance_of``.
    """

    __slots__ = ("target", "mode", "instance_of")
    _defaults = {"mode": RefMode.EXACT, "instance_of": ()}

    @classmethod
    def exact(cls, target: str) -> "Ref":
        return cls(target, RefMode.EXACT)

    @classmethod
    def new(cls, target: str, instance_of: tuple[str, ...] = ()) -> "Ref":
        return cls(target, RefMode.NEW, tuple(instance_of))


class TaskSpec(Frozen):
    """A task: ``name`` (str), ``operator_action`` (:class:`Ref`), the
    optional ``operator_argument`` and ``obj`` (:class:`Ref` or None),
    and ``inputs``, ``outputs`` (tuples of :class:`Ref`) and
    ``depends_on`` (tuple of task names)."""

    __slots__ = ("name", "operator_action", "operator_argument", "obj",
                 "inputs", "outputs", "depends_on")
    _defaults = {"operator_argument": None, "obj": None, "inputs": (), "outputs": (),
                 "depends_on": ()}


class GoalSpec(Frozen):
    """A goal: ``name`` (str), ``tasks`` (tuple of :class:`TaskSpec`) and
    ``depends_on`` (tuple of goal names)."""

    __slots__ = ("name", "tasks", "depends_on")
    _defaults = {"depends_on": ()}


class BehaviourSpec(Frozen):
    """A behaviour template or plan: ``name`` (str), ``goals`` (tuple of
    :class:`GoalSpec`) and ``path`` (str)."""

    # path: where the spec sits in its build document (``templates[0]``),
    # for the builder's error paths; empty when it was not read from one
    __slots__ = ("name", "goals", "path")
    _defaults = {"path": ""}
    _key = attrgetter("name", "goals")  # not the path


class EventSpec(Frozen):
    """A foreseen event: ``name`` (str), ``action`` (:class:`TaskSpec`)
    and the optional literals ``kind``, ``duration`` and ``window`` (str
    or None)."""

    __slots__ = ("name", "action", "kind", "duration", "window")
    _defaults = {"kind": None, "duration": None, "window": None}


class StateSpec(Frozen):
    """A procedure state: ``name`` (str), ``plan`` (:class:`BehaviourSpec`)
    and ``events`` (tuple of :class:`EventSpec`)."""

    __slots__ = ("name", "plan", "events")
    _defaults = {"events": ()}


class ProcedureSpec(Frozen):
    """A procedure: ``name`` (str) and ``states`` (tuple of
    :class:`StateSpec`), in chain order."""

    __slots__ = ("name", "states")


class ProcessSpec(Frozen):
    """A process: ``name`` (str), ``procedures`` (tuple of
    :class:`ProcedureSpec`), in chain order, and ``path`` (str), as
    ``BehaviourSpec.path``."""

    __slots__ = ("name", "procedures", "path")
    _defaults = {"path": ""}
    _key = attrgetter("name", "procedures")  # not the path


# ---------------------------------------------------------------------------
# JSON converters
# ---------------------------------------------------------------------------


def _object(
    doc: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict[str, Any]:
    """``doc`` as an object with every required key and no unknown key."""
    if not isinstance(doc, dict):
        raise SpecInvalid(path, "expected an object")
    for key in required:
        if key not in doc:
            raise SpecInvalid(path, f"missing key {key!r}")
    for key in doc:
        if key not in required and key not in optional:
            raise SpecInvalid(path, f"unknown key {key!r}")
    return doc


def _string(doc: Any, path: str) -> str:
    if not isinstance(doc, str):
        raise SpecInvalid(path, "expected a string")
    return doc


def _each(convert: Callable[[Any, str], Any], doc: Any, path: str) -> tuple:
    """``convert`` applied to every item of array ``doc``, with the item's path."""
    if not isinstance(doc, list):
        raise SpecInvalid(path, "expected an array")
    return tuple(convert(item, f"{path}[{i}]") for i, item in enumerate(doc))


def _strings(doc: Any, path: str) -> tuple[str, ...]:
    return _each(_string, doc, path)


def ref_from_json(doc: Any, path: str) -> Ref:
    if isinstance(doc, str):
        return Ref.exact(doc)
    if not isinstance(doc, dict) or "iri" not in doc:
        raise SpecInvalid(path, "expected an IRI string or {iri, mode, instanceOf}")
    _object(doc, path, ("iri",), ("mode", "instanceOf"))
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "new"):
        raise SpecInvalid(f"{path}.mode", "expected exact or new")
    instance_of = _strings(doc.get("instanceOf", []), f"{path}.instanceOf")
    if instance_of and mode != "new":
        raise SpecInvalid(path, "instanceOf only applies to mode new")
    return Ref(_string(doc["iri"], f"{path}.iri"), RefMode(mode), instance_of)


def task_from_json(doc: dict[str, Any], path: str) -> TaskSpec:
    optional = ("operatorArgument", "object", "inputs", "outputs", "dependsOn")
    _object(doc, path, ("name", "operatorAction"), optional)

    def ref(key: str) -> Ref | None:
        return ref_from_json(doc[key], f"{path}.{key}") if key in doc else None

    return TaskSpec(
        name=_string(doc["name"], f"{path}.name"),
        operator_action=ref("operatorAction"),
        operator_argument=ref("operatorArgument"),
        obj=ref("object"),
        inputs=_each(ref_from_json, doc.get("inputs", []), f"{path}.inputs"),
        outputs=_each(ref_from_json, doc.get("outputs", []), f"{path}.outputs"),
        depends_on=_strings(doc.get("dependsOn", []), f"{path}.dependsOn"),
    )


def _goal_from_json(doc: Any, path: str) -> GoalSpec:
    _object(doc, path, ("name", "tasks"), ("dependsOn",))
    return GoalSpec(
        name=_string(doc["name"], f"{path}.name"),
        tasks=_each(task_from_json, doc["tasks"], f"{path}.tasks"),
        depends_on=_strings(doc.get("dependsOn", []), f"{path}.dependsOn"),
    )


def behaviour_from_json(doc: dict[str, Any], path: str) -> BehaviourSpec:
    _object(doc, path, ("name", "goals"))
    return BehaviourSpec(
        name=_string(doc["name"], f"{path}.name"),
        goals=_each(_goal_from_json, doc["goals"], f"{path}.goals"),
        path=path,
    )


def event_from_json(doc: dict[str, Any], path: str) -> EventSpec:
    literals = ("kind", "duration", "window")
    _object(doc, path, ("name", "action"), literals)
    return EventSpec(
        name=_string(doc["name"], f"{path}.name"),
        action=task_from_json(doc["action"], f"{path}.action"),
        **{k: _string(doc[k], f"{path}.{k}") for k in literals if k in doc},
    )


def _state_from_json(doc: Any, path: str) -> StateSpec:
    _object(doc, path, ("name", "plan"), ("events",))
    return StateSpec(
        name=_string(doc["name"], f"{path}.name"),
        plan=behaviour_from_json(doc["plan"], f"{path}.plan"),
        events=_each(event_from_json, doc.get("events", []), f"{path}.events"),
    )


def _procedure_from_json(doc: Any, path: str) -> ProcedureSpec:
    _object(doc, path, ("name", "states"))
    return ProcedureSpec(
        name=_string(doc["name"], f"{path}.name"),
        states=_each(_state_from_json, doc["states"], f"{path}.states"),
    )


def process_from_json(doc: dict[str, Any], path: str) -> ProcessSpec:
    _object(doc, path, ("name", "procedures"))
    return ProcessSpec(
        name=_string(doc["name"], f"{path}.name"),
        procedures=_each(_procedure_from_json, doc["procedures"], f"{path}.procedures"),
        path=path,
    )


# ---------------------------------------------------------------------------
# Build documents
# ---------------------------------------------------------------------------


def _prefixes(doc: Any, path: str) -> dict[str, str]:
    if not isinstance(doc, dict):
        raise SpecInvalid(path, "expected an object")
    return {key: _string(base, f"{path}.{key}") for key, base in doc.items()}


def _entries(fields: dict[str, Callable], optional: tuple[str, ...] = ()) -> Callable:
    """A section of objects with exactly these keys, each value converted."""
    required = tuple(key for key in fields if key not in optional)

    def entry(doc: Any, path: str) -> dict[str, Any]:
        _object(doc, path, required, optional)
        return {key: fields[key](value, f"{path}.{key}") for key, value in doc.items()}

    return partial(_each, entry)


_SECTIONS: dict[str, Callable[[Any, str], Any]] = {
    "prefixes": _prefixes,
    "classes": _strings,
    "agents": _strings,
    "templates": partial(_each, behaviour_from_json),
    "plans": partial(_each, behaviour_from_json),
    "behaviours": _entries({"id": _string, "template": _string, "agent": _string}),
    "submissions": _entries({"plan": _string, "behaviour": _string}),
    "processes": partial(_each, process_from_json),
    "roles": _entries(
        {"id": _string, "agent": _string, "roleType": _string, "behaviours": _strings},
        optional=("id",),
    ),
    "events": _entries({"state": _string, "event": event_from_json}),
}


def document_from_json(doc: Any) -> dict[str, Any]:
    """Check a whole build document and convert the sections it has.

    Templates, plans and processes become specs and ``events[i].event``
    an ``EventSpec``; the other values stay JSON, checked for their type.
    Paths name the section index: ``templates[0].goals[1]``.  Empty
    goal, task, procedure and state arrays and ``dependsOn`` names are
    left to the builder, which reports them under the same paths.
    """
    _object(doc, "document", (), tuple(_SECTIONS))
    return {name: _SECTIONS[name](value, name) for name, value in doc.items()}
