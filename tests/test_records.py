"""The package's record classes: repr text, equality and hashing by value,
immutability, and pickle and copy round-trips, for every one of them."""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

from oasiskg.concurrency import (
    Conflict,
    ProtocolRun,
    RaceKind,
    RaceReport,
    RaceSearch,
    ResourceState,
    Schedule,
    Step,
    StepKind,
    StepOutcome,
)
from oasiskg.core import EntityRecord, KnowledgeBase
from oasiskg.engine import ProcessHandle, StateRecord, StepRecord
from oasiskg.specs import (
    BehaviourSpec,
    EventSpec,
    GoalSpec,
    ProcedureSpec,
    ProcessSpec,
    Ref,
    RefMode,
    StateSpec,
    TaskSpec,
)
from oasiskg.terms import Assertion, Frozen, Iri
from oasiskg.validator import CapabilityKind, CapabilitySource
from oasiskg.validator import Code, Violation
from oasiskg.vocab import LayerTag, PropertySpec

A, B, C = Iri("http://x/a"), Iri("http://x/b"), Iri("http://x/c")
RA, RB, RC = (repr(i) for i in (A, B, C))
KB = KnowledgeBase()
KB.declare_class(C)

TASK = "TaskSpec(name='t', operator_action=Ref(target='op', mode=<RefMode.EXACT: 'exact'>, " \
    "instance_of=()), operator_argument=None, obj=None, inputs=(), outputs=(), depends_on=())"
STATE = f"StateRecord(index=0, planning_state={RA}, exec_state={RB}, plan_exec={RC}, " \
    f"agent={RA}, behaviour={RB})"
STEP = f"StepRecord(state={RA}, plan_exec={RB}, agent={RC}, events=({RA},), index=1)"
CONFLICT = f"Conflict(resource={RA}, agent_a={RB}, agent_b={RC}, step_index=2)"
REPORT = f"RaceReport(schedule=(0, 1), conflict={CONFLICT}, " \
    "kind=<RaceKind.UNLOCKED_MODIFY: 'UnlockedModify'>)"
COUNTS = {"complete": 1, "deadlock": 0, "truncated": 0}

#: per record class: a maker of fresh equal records, a record of the same
#: class that differs in one field, and the repr of what the maker makes
FROZEN = {
    "Assertion": (lambda: Assertion(A, B, C), Assertion(A, B, "c"),
                  f"Assertion(subject={RA}, predicate={RB}, object={RC})"),
    "PropertySpec": (
        lambda: PropertySpec(A, B, LayerTag.EXECUTION, subject_classes=frozenset({C}),
                             extension=True),
        PropertySpec(A, B, LayerTag.EXECUTION, subject_classes=frozenset({C})),
        f"PropertySpec(iri={RA}, super_property={RB}, "
        "subject_layer=<LayerTag.EXECUTION: 'execution'>, object_layer=None, "
        f"subject_classes=frozenset({{{RC}}}), object_classes=None, extension=True, "
        "literal_object=False)"),
    "CapabilitySource": (lambda: CapabilitySource(CapabilityKind.VIA_ROLE, A),
                         CapabilitySource(CapabilityKind.INTRINSIC),
                         f"CapabilitySource(kind=<CapabilityKind.VIA_ROLE: 'viaRole'>, role={RA})"),
    "Violation": (lambda: Violation(Code.LAYER_MIX, (A, B), "mixed"),
                  Violation(Code.LAYER_MIX, (A,), "mixed"),
                  f"Violation(code=<Code.LAYER_MIX: 'LAYER_MIX'>, subjects=({RA}, {RB}), "
                  "message='mixed')"),
    "StateRecord": (lambda: StateRecord(0, A, B, C, A, B), StateRecord(1, A, B, C, A, B), STATE),
    "StepRecord": (lambda: StepRecord(state=A, plan_exec=B, agent=C, events=(A,), index=1),
                   StepRecord(A, B, C, (), 1), STEP),
    "Step": (lambda: Step(StepKind.MODIFY, A), Step(StepKind.REQUEST, A),
             f"Step(kind=<StepKind.MODIFY: 'Modify'>, resource={RA})"),
    "ProtocolRun": (lambda: ProtocolRun(A, (Step(StepKind.RELEASE, B),)), ProtocolRun(A, ()),
                    f"ProtocolRun(agent={RA}, steps=(Step(kind=<StepKind.RELEASE: 'Release'>, "
                    f"resource={RB}),))"),
    "ResourceState": (lambda: ResourceState(A, (B, C)), ResourceState(),
                      f"ResourceState(holder={RA}, modified_by=({RB}, {RC}))"),
    "StepOutcome": (lambda: StepOutcome(ResourceState(), True, RaceKind.DOUBLE_LOCK, A),
                    StepOutcome(ResourceState()),
                    "StepOutcome(state=ResourceState(holder=None, modified_by=()), blocked=True, "
                    f"race=<RaceKind.DOUBLE_LOCK: 'DoubleLock'>, other={RA})"),
    "Schedule": (lambda: Schedule((0, 1), "complete"), Schedule((0, 1), "truncated"),
                 "Schedule(indices=(0, 1), status='complete')"),
    "Conflict": (lambda: Conflict(A, B, C, 2), Conflict(A, B, C, 3), CONFLICT),
    "RaceReport": (lambda: RaceReport((0, 1), Conflict(A, B, C, 2), RaceKind.UNLOCKED_MODIFY),
                   RaceReport((1, 0), Conflict(A, B, C, 2), RaceKind.UNLOCKED_MODIFY),
                   REPORT),
    "Ref": (lambda: Ref.new("y", ("C",)), Ref("y"),
            "Ref(target='y', mode=<RefMode.NEW: 'new'>, instance_of=('C',))"),
    "TaskSpec": (lambda: TaskSpec("t", Ref("op")), TaskSpec("t", Ref("op"), depends_on=("u",)),
                 TASK),
    "GoalSpec": (lambda: GoalSpec("g", (TaskSpec("t", Ref("op")),)), GoalSpec("g", ()),
                 f"GoalSpec(name='g', tasks=({TASK},), depends_on=())"),
    "BehaviourSpec": (lambda: BehaviourSpec("b", (), "templates[0]"), BehaviourSpec("c", ()),
                      "BehaviourSpec(name='b', goals=(), path='templates[0]')"),
    "EventSpec": (lambda: EventSpec("e", TaskSpec("t", Ref("op")), "k"),
                  EventSpec("e", TaskSpec("t", Ref("op"))),
                  f"EventSpec(name='e', action={TASK}, kind='k', duration=None, window=None)"),
    "StateSpec": (lambda: StateSpec("s", BehaviourSpec("b", ())), StateSpec("r", BehaviourSpec("b", ())),
                  "StateSpec(name='s', plan=BehaviourSpec(name='b', goals=(), path=''), events=())"),
    "ProcedureSpec": (lambda: ProcedureSpec("p", ()), ProcedureSpec("q", ()),
                      "ProcedureSpec(name='p', states=())"),
    "ProcessSpec": (lambda: ProcessSpec("p", (), "processes[0]"), ProcessSpec("q", ()),
                    "ProcessSpec(name='p', procedures=(), path='processes[0]')"),
}

#: frozen records that hold a list or a dict: they compare by value and
#: refuse assignment, but cannot be hashed
UNHASHABLE = {
    "RaceSearch": (
        lambda: RaceSearch([RaceReport((0, 1), Conflict(A, B, C, 2), RaceKind.UNLOCKED_MODIFY)],
                           dict(COUNTS), 3),
        RaceSearch([], dict(COUNTS), 3),
        f"RaceSearch(reports=[{REPORT}], schedules={COUNTS!r}, states=3)"),
}

MUTABLE = {
    "EntityRecord": (lambda: EntityRecord(A, {B: None}), EntityRecord(A),
                     f"EntityRecord(iri={RA}, memberships={{{RB}: None}})"),
    "ProcessHandle": (
        lambda: ProcessHandle(KB, A, B, [StateRecord(0, A, B, C, A, B)],
                              _steps=[StepRecord(A, B, C, (A,), 1)]),
        ProcessHandle(KB, A, B, [StateRecord(0, A, B, C, A, B)], cursor=1),
        f"ProcessHandle(kb={KB!r}, process={RA}, exec_process={RB}, records=[{STATE}], "
        f"cursor=0, _steps=[{STEP}])"),
}

RECORDS = {**FROZEN, **UNHASHABLE, **MUTABLE}


def test_every_record_class_is_covered():
    assert len(RECORDS) == 24
    assert all(make().__class__.__name__ == name for name, (make, _, _) in RECORDS.items())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field_in_order(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value(name):
    make, other, _ = RECORDS[name]
    one, two = make(), make()
    assert one is not two
    assert one == two and not one != two
    assert one != other and not one == other
    assert one != name and (one == name) is False


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_value(name):
    make, other, _ = FROZEN[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), other}) == 2


@pytest.mark.parametrize("name", UNHASHABLE)
def test_frozen_records_over_a_list_or_dict_cannot_be_hashed(name):
    make, _, _ = UNHASHABLE[name]
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("name", {**FROZEN, **UNHASHABLE})
def test_frozen_records_refuse_assignment_and_deletion(name):
    make, _, text = {**FROZEN, **UNHASHABLE}[name]
    record = make()
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize(
    "record, field", [(A, "value"), (Assertion(A, B, C), "subject")], ids=["Iri", "Assertion"]
)
def test_terms_raise_frozen_instance_error(record, field):
    with pytest.raises(FrozenInstanceError):
        setattr(record, field, C)
    with pytest.raises(FrozenInstanceError):
        delattr(record, field)


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_take_assignment_and_cannot_be_hashed(name):
    make, other, _ = MUTABLE[name]
    record = make()
    with pytest.raises(TypeError):
        hash(record)
    for field in ("iri", "memberships") if name == "EntityRecord" else ("records", "cursor", "_steps"):
        setattr(record, field, getattr(other, field))
    assert record == other


@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("name", RECORDS)
def test_pickles_and_copies_equal_the_record(name, clone):
    make, _, text = RECORDS[name]
    record = make()
    again = clone(record)
    assert again is not record and type(again) is type(record)
    if name == "ProcessHandle":  # the store compares by identity
        assert list(again.kb.assertions) == list(KB.assertions)
        again.kb = KB
    assert again == record
    assert repr(again) == text


def test_specs_leave_their_path_out_of_equality_and_hashing():
    assert BehaviourSpec("b", (), "templates[0]") == BehaviourSpec("b", ())
    assert hash(BehaviourSpec("b", (), "templates[0]")) == hash(BehaviourSpec("b", ()))
    assert ProcessSpec("p", (), "processes[1]") == ProcessSpec("p", ())
    assert hash(ProcessSpec("p", (), "processes[1]")) == hash(ProcessSpec("p", ()))


def test_a_resource_state_is_a_dict_key():
    ids = {ResourceState(): 0, ResourceState(A, (B,)): 1}
    assert ids[ResourceState()] == 0
    assert ids[ResourceState(holder=A, modified_by=(B,))] == 1
    assert ResourceState(A) not in ids


def test_mutable_defaults_are_fresh_per_record():
    one, two = EntityRecord(A), EntityRecord(A)
    one.memberships[B] = None
    assert two.memberships == {}
    left, right = ProcessHandle(KB, A, B, []), ProcessHandle(KB, A, B, [])
    left._steps.append(StepRecord(A, B, C, (), 0))
    assert right._steps == [] and right.cursor == 0


#: a constructor parameter without a default
_ = inspect.Parameter.empty

#: each frozen record's constructor: its parameters' names and defaults,
#: in order, all taken by position or by keyword
SIGNATURES = {
    Assertion: [("subject", _), ("predicate", _), ("object", _)],
    PropertySpec: [("iri", _), ("super_property", None), ("subject_layer", None),
                   ("object_layer", None), ("subject_classes", None), ("object_classes", None),
                   ("extension", False), ("literal_object", False)],
    Ref: [("target", _), ("mode", RefMode.EXACT), ("instance_of", ())],
    TaskSpec: [("name", _), ("operator_action", _), ("operator_argument", None), ("obj", None),
               ("inputs", ()), ("outputs", ()), ("depends_on", ())],
    GoalSpec: [("name", _), ("tasks", _), ("depends_on", ())],
    BehaviourSpec: [("name", _), ("goals", _), ("path", "")],
    EventSpec: [("name", _), ("action", _), ("kind", None), ("duration", None), ("window", None)],
    StateSpec: [("name", _), ("plan", _), ("events", ())],
    ProcedureSpec: [("name", _), ("states", _)],
    ProcessSpec: [("name", _), ("procedures", _), ("path", "")],
    Violation: [("code", _), ("subjects", _), ("message", _)],
    CapabilitySource: [("kind", _), ("role", None)],
    StateRecord: [("index", _), ("planning_state", _), ("exec_state", _), ("plan_exec", _),
                  ("agent", _), ("behaviour", _)],
    StepRecord: [("state", _), ("plan_exec", _), ("agent", _), ("events", _), ("index", _)],
    Step: [("kind", _), ("resource", _)],
    ProtocolRun: [("agent", _), ("steps", _)],
    ResourceState: [("holder", None), ("modified_by", ())],
    StepOutcome: [("state", _), ("blocked", False), ("race", None), ("other", None)],
    Schedule: [("indices", _), ("status", _)],
    Conflict: [("resource", _), ("agent_a", _), ("agent_b", _), ("step_index", _)],
    RaceReport: [("schedule", _), ("conflict", _), ("kind", _)],
    RaceSearch: [("reports", _), ("schedules", _), ("states", _)],
}


def _frozen_classes(cls: type = Frozen) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in (sub, *_frozen_classes(sub))}


def test_every_frozen_record_has_its_signature_pinned():
    package = {c for c in _frozen_classes() if c.__module__.startswith("oasiskg.")}
    assert package == set(SIGNATURES)
    assert len(SIGNATURES) == 22


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signatures_are_unchanged(cls):
    params = list(inspect.signature(cls).parameters.values())
    got = [(p.name, p.default) for p in params]
    assert got == SIGNATURES[cls]
    assert all(type(d) is type(w) for (_, d), (_, w) in zip(got, SIGNATURES[cls]))
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize(
    "defaults",
    [{"first": 1}, {"first": 1, "third": 3}, {"second": 2, "third": 3, "fourth": 4}],
    ids=["before a required field", "a gap", "an unknown field"],
)
def test_defaults_must_name_the_trailing_fields(defaults):
    with pytest.raises(TypeError, match="_defaults must name its last"):
        type("Bad", (Frozen,), {"__slots__": ("first", "second", "third"), "_defaults": defaults})


def test_a_compiled_constructor_takes_fields_by_position_or_keyword():
    assert TaskSpec("t", Ref("op"), obj=Ref("o")) == TaskSpec(
        obj=Ref("o"), operator_action=Ref("op"), name="t"
    )
    with pytest.raises(TypeError, match=r"TaskSpec\.__init__\(\) missing 1 required"):
        TaskSpec("t")
    with pytest.raises(TypeError, match="unexpected keyword argument 'path'"):
        StateSpec("s", BehaviourSpec("b", ()), path="")
