"""The build-document checker against the JSON Schema it replaced.

``build-spec.schema.json`` next to this file is the schema that once
ran before every ``build``; ``oasiskg.specs.document_from_json`` is now
the only shape checker.  The schema stays here as an independent oracle
on seeded shape mutations of the documents the tests build.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import jsonschema
import pytest

from oasiskg.cli import main
from oasiskg.specs import SpecInvalid, document_from_json

from test_cli import protocol_doc

SCHEMA = json.loads(
    (Path(__file__).parent / "build-spec.schema.json").read_text(encoding="utf-8")
)


def _task(name: str, operator: str, **extra) -> dict:
    return {"name": name, "operatorAction": operator, **extra}


def _full_task(prefix: str) -> dict:
    """A task with every optional key and every form of reference."""
    return _task(
        f"{prefix}_task",
        "consume",
        operatorArgument={"iri": "gently", "mode": "exact"},
        object="shared_resource",
        inputs=["app:lock_in"],
        outputs=[{"iri": f"{prefix}_result", "mode": "new", "instanceOf": ["Result"]}],
        dependsOn=[f"{prefix}_first_task"],
    )


def _full_behaviour(prefix: str) -> dict:
    return {
        "name": prefix,
        "goals": [
            {
                "name": f"{prefix}_prepare_goal",
                "tasks": [_task(f"{prefix}_prepare_task", "prepare")],
            },
            {
                "name": f"{prefix}_goal",
                "tasks": [_task(f"{prefix}_first_task", "request"), _full_task(prefix)],
                "dependsOn": [f"{prefix}_prepare_goal"],
            },
        ],
    }


def _event(name: str) -> dict:
    return {
        "name": name,
        "action": _task(f"{name}_task", "notify"),
        "kind": "signal",
        "duration": "PT1S",
        "window": "PT5S",
    }


def full_doc() -> dict:
    """One document that uses every section and every optional key."""
    return {
        "prefixes": {"app": "http://app.example/"},
        "classes": ["Result", "app:Gadget"],
        "agents": ["agent_a", "app:agent_b"],
        "templates": [_full_behaviour("work_template")],
        "plans": [_full_behaviour("work_plan")],
        "behaviours": [
            {"id": "work_behaviour", "template": "work_template", "agent": "agent_a"}
        ],
        "submissions": [{"plan": "work_plan", "behaviour": "work_behaviour"}],
        "processes": [
            {
                "name": "work_process",
                "procedures": [
                    {
                        "name": "work_procedure",
                        "states": [
                            {"name": "start_state", "plan": _full_behaviour("start_plan")},
                            {
                                "name": "end_state",
                                "plan": _full_behaviour("end_plan"),
                                "events": [_event("end_event")],
                            },
                        ],
                    }
                ],
            }
        ],
        "roles": [
            {
                "id": "worker_role",
                "agent": "app:agent_b",
                "roleType": "Worker",
                "behaviours": ["work_behaviour"],
            },
            {"agent": "agent_a", "roleType": "Helper", "behaviours": []},
        ],
        "events": [{"state": "start_state", "event": _event("start_event")}],
    }


BASE_DOCS = [
    full_doc(),
    protocol_doc(),
    protocol_doc(tags=("a",), steps=("modify",)),
    protocol_doc(tags=("a", "b", "c"), steps=("request", "release")),
]

ODD_VALUES = [5, 1.5, True, None, "s", [], {}]


def _nodes(doc, path=()):
    """Every (path, value) in ``doc``, the document itself first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _set(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def mutate(rng: random.Random, base: dict):
    """One shape mutation of ``base``: (description, mutated document)."""
    doc = copy.deepcopy(base)
    nodes = list(_nodes(doc))
    objects = [(p, v) for p, v in nodes if isinstance(v, dict)]
    refs = [(p, v) for p, v in objects if "iri" in v]
    kind = rng.choice(["delete", "unknown", "replace", "empty"] + ["mode"] * bool(refs))
    if kind == "delete":
        path, node = rng.choice([(p, v) for p, v in objects if v])
        key = rng.choice(sorted(node))
        del node[key]
        return f"delete {path + (key,)}", doc
    if kind == "unknown":
        path, node = rng.choice(objects)
        node["zzUnknown"] = rng.choice(["s", 5, []])
        return f"unknown key at {path}", doc
    if kind == "mode":
        path, node = rng.choice(refs)
        node["mode"] = rng.choice(["old", "NEW", "", 5, None])
        return f"mode {node['mode']!r} at {path}", doc
    if kind == "empty":
        arrays = [(p, v) for p, v in nodes if isinstance(v, list) and v]
        path, _ = rng.choice(arrays)
        return f"empty {path}", _set(doc, path, [])
    path, _ = rng.choice(nodes)
    value = copy.deepcopy(rng.choice(ODD_VALUES))
    return f"replace {path} with {value!r}", _set(doc, path, value)


def _mutations(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield mutate(rng, rng.choice(BASE_DOCS))


def test_every_base_document_builds(tmp_path, capsys):
    validator = jsonschema.Draft202012Validator(SCHEMA)
    spec = tmp_path / "spec.json"
    for doc in BASE_DOCS:
        validator.validate(doc)
        document_from_json(doc)
        spec.write_text(json.dumps(doc))
        assert main(["build", "--spec", str(spec)]) == 0, capsys.readouterr().err


def test_checker_agrees_with_the_schema_on_seeded_mutations(tmp_path, capsys):
    validator = jsonschema.Draft202012Validator(SCHEMA)
    spec = tmp_path / "spec.json"
    out = tmp_path / "kb.nt"
    seen = {"rejected": 0, "accepted": 0, "empty-array": 0, "instanceOf": 0}
    for what, doc in _mutations(400, seed=20231018):
        errors = list(validator.iter_errors(doc))
        try:
            document_from_json(doc)
            detail = None
        except SpecInvalid as err:
            detail = err.detail

        spec.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        code = main(["build", "--spec", str(spec), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1), what
        if code == 1:
            assert err.count("\n") == 1 and err.endswith("\n"), (what, err)
            assert not out.exists(), what

        if errors:
            seen["rejected"] += 1
            assert code == 1, what
            if detail is None:
                # the checker leaves non-empty arrays to the builder
                assert all(e.validator == "minItems" for e in errors), what
                seen["empty-array"] += 1
        else:
            seen["accepted"] += 1
            if detail is not None:
                assert detail == "instanceOf only applies to mode new", (what, detail)
                seen["instanceOf"] += 1
    assert seen["rejected"] >= 200 and seen["accepted"] >= 30, seen
    assert seen["empty-array"] >= 5 and seen["instanceOf"] >= 1, seen


@pytest.mark.parametrize(
    "doc, path",
    [
        (5, "document"),
        ({"templates": [{"name": "t", "goals": [{"name": "g"}]}]}, "templates[0].goals[0]"),
        ({"roles": [{"agent": "a", "roleType": "R", "behaviours": [7]}]}, "roles[0].behaviours[0]"),
        ({"prefixes": {"p": 5}}, "prefixes.p"),
        ({"events": [{"state": "s", "event": {"name": "e"}}]}, "events[0].event"),
    ],
)
def test_error_paths_name_the_section_index(doc, path):
    with pytest.raises(SpecInvalid) as err:
        document_from_json(doc)
    assert err.value.path == path


def _render(path: tuple) -> str:
    """A ``_nodes`` path in the shape checker's form: ``templates[0].goals``."""
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}" if out else step
    return out


NOPE = ["nope"]


@pytest.mark.parametrize(
    "edit, value, path, detail",
    [
        (
            ("templates", 0, "goals", 1, "tasks", 1, "dependsOn"),
            NOPE,
            "templates[0].goals[1].tasks[1].dependsOn[0]",
            "work_template_task depends on unknown name 'nope'",
        ),
        (
            ("plans", 0, "goals", 1, "dependsOn"),
            NOPE,
            "plans[0].goals[1].dependsOn[0]",
            "work_plan_goal depends on unknown name 'nope'",
        ),
        (
            ("processes", 0, "procedures", 0, "states", 1, "plan", "goals", 1, "tasks", 1,
             "dependsOn"),
            NOPE,
            "processes[0].procedures[0].states[1].plan.goals[1].tasks[1].dependsOn[0]",
            "end_plan_task depends on unknown name 'nope'",
        ),
        (
            ("templates", 0, "goals", 1, "tasks", 0, "dependsOn"),
            ["work_template_task"],
            "templates[0].goals[1].tasks[0]",
            "dependency cycle through 'work_template_first_task'",
        ),
        (
            ("templates", 0, "goals", 0, "dependsOn"),
            ["work_template_goal"],
            "templates[0].goals[0]",
            "dependency cycle through 'work_template_prepare_goal'",
        ),
        (
            ("templates", 0, "goals", 1, "tasks", 1, "name"),
            "work_template_first_task",
            "templates[0].goals[1].tasks",
            "duplicate names",
        ),
        (
            ("templates", 0, "goals"),
            [],
            "templates[0].goals",
            "a behaviour needs at least one goal",
        ),
        (
            ("plans", 0, "goals", 0, "tasks"),
            [],
            "plans[0].goals[0].tasks",
            "a goal needs at least one task",
        ),
        (
            ("processes", 0, "procedures"),
            [],
            "processes[0].procedures",
            "a process needs at least one procedure",
        ),
        (
            ("processes", 0, "procedures", 0, "states"),
            [],
            "processes[0].procedures[0].states",
            "a procedure needs at least one state",
        ),
        (
            ("processes", 0, "procedures", 0, "states", 1, "name"),
            "start_state",
            "processes[0].procedures[0].states",
            "duplicate names",
        ),
    ],
)
def test_builder_errors_name_document_paths(edit, value, path, detail, tmp_path, capsys):
    """Every builder error for a document the shape checker accepts names
    the offending item by its path in the document."""
    doc = _set(full_doc(), edit, value)
    document_from_json(doc)  # the shape is fine; only the builder objects
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["build", "--spec", str(spec)]) == 1
    assert capsys.readouterr().err == f"{spec}: {path}: {detail}\n"
    assert path in {_render(p) for p, _ in _nodes(doc)}
