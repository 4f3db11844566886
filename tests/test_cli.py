from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oasiskg
from oasiskg import KnowledgeBase, export_canonical, read_graph, realize_process, validate
from oasiskg.cli import main
from oasiskg import validator, vocab

from conftest import whole_graph_pass
from test_certified_writes import realize_a_chain_that_branches, realize_with_plan_node_typed


# ---------------------------------------------------------------------------
# Build-document helpers
# ---------------------------------------------------------------------------


def task(name: str, operator: str, **extra) -> dict:
    doc = {"name": name, "operatorAction": operator, "object": "shared_resource"}
    doc.update(extra)
    return doc


def plan_doc(name: str, tasks: list[dict]) -> dict:
    return {"name": name, "goals": [{"name": f"{name}_goal", "tasks": tasks}]}


def lock_state(tag: str, step: str) -> dict:
    extra = {}
    if step == "request":
        extra = {"outputs": [{"iri": f"lock_{tag}", "mode": "new", "instanceOf": ["Lock"]}]}
    elif step == "release":
        extra = {"inputs": [f"lock_{tag}"]}
    return {
        "name": f"{tag}_{step}_state",
        "plan": plan_doc(f"{tag}_{step}_plan", [task(f"{tag}_{step}_task", step, **extra)]),
    }


def protocol_doc(tags=("a", "b"), steps=("request", "modify", "release")) -> dict:
    doc = {
        "prefixes": {},
        "agents": [f"agent_{t}" for t in tags],
        "templates": [],
        "behaviours": [],
        "processes": [],
    }
    for t in tags:
        doc["templates"].append(
            plan_doc(f"consume_{t}_template", [task(f"consume_{t}_task", "consume")])
        )
        doc["behaviours"].append(
            {
                "id": f"behaviour_{t}",
                "template": f"consume_{t}_template",
                "agent": f"agent_{t}",
            }
        )
        doc["processes"].append(
            {
                "name": f"consume_{t}_process",
                "procedures": [
                    {
                        "name": f"consume_{t}_procedure",
                        "states": [lock_state(t, s) for s in steps],
                    }
                ],
            }
        )
    return doc


def behaviour_of(roots: list[str], tag: str) -> str:
    """The behaviour root minted for one template, as printed by build."""
    needle = f"consume_{tag}_template__behaviour__"
    return next(l for l in roots if needle in l)


def assignment_doc(
    roots: list[str], tag: str, steps=("request", "modify", "release"), agent=None
) -> dict:
    agent = agent or f"agent_{tag}"
    behaviour = behaviour_of(roots, tag)
    return {
        f"{tag}_{s}_state": {"agent": agent, "behaviour": behaviour} for s in steps
    }


@pytest.fixture
def built_kb(tmp_path):
    """Protocol scenario built through the CLI; returns (kb_path, roots)."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(protocol_doc()))
    out = tmp_path / "kb.nt"
    code, lines = run_cli("build", "--spec", str(spec), "--out", str(out))
    assert code == 0
    return out, lines


_CAPSYS = {}


@pytest.fixture(autouse=True)
def _wire_capsys(capsys):
    _CAPSYS["capsys"] = capsys
    yield
    _CAPSYS.clear()


def run_cli(*argv: str) -> tuple[int, list[str]]:
    code = main(list(argv))
    captured = _CAPSYS["capsys"].readouterr()
    return code, [l for l in captured.out.splitlines() if l]


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_prints_roots_and_writes_the_graph(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(protocol_doc(tags=("a",))))
    out = tmp_path / "kb.nt"
    code, lines = run_cli("build", "--spec", str(spec), "--out", str(out))
    assert code == 0
    assert "http://example.org/consume_a_template" in lines
    assert any("__behaviour__" in l for l in lines)
    assert "http://example.org/consume_a_process" in lines
    kb = read_graph(out)
    assert validate(kb) == []
    # IRIs are printed in build order: template, behaviour, process
    assert lines.index("http://example.org/consume_a_template") < lines.index(
        "http://example.org/consume_a_process"
    )


def test_build_rejects_malformed_json(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    assert main(["build", "--spec", str(spec)]) == 4
    assert "broken.json" in capsys.readouterr().err


def test_build_missing_file_is_operational(tmp_path, capsys):
    assert main(["build", "--spec", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_build_into_a_missing_directory_is_operational(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(protocol_doc(tags=("a",))))
    out = tmp_path / "missing" / "kb.nt"
    assert main(["build", "--spec", str(spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_build_rejects_documents_off_schema(tmp_path, capsys):
    spec = tmp_path / "off.json"
    spec.write_text(json.dumps({"templates": [{"goals": []}]}))
    assert main(["build", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "templates" in err


def test_build_reports_model_errors(tmp_path, capsys):
    doc = {
        "agents": ["agent_a"],
        "behaviours": [{"id": "b", "template": "nowhere", "agent": "agent_a"}],
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["build", "--spec", str(spec)]) == 1
    assert "nowhere" in capsys.readouterr().err


def test_build_applies_the_env_prefix_map(tmp_path, monkeypatch):
    prefixes = tmp_path / "prefixes.json"
    prefixes.write_text(json.dumps({"app": "http://app.example/"}))
    monkeypatch.setenv("OASIS_PREFIX_MAP", str(prefixes))
    doc = protocol_doc(tags=("a",))
    doc["agents"] = ["app:agent_a"]
    doc["behaviours"][0]["agent"] = "app:agent_a"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "kb.nt"
    code, _ = run_cli("build", "--spec", str(spec), "--out", str(out))
    assert code == 0
    assert "<http://app.example/agent_a>" in out.read_text()


def test_env_prefix_map_yields_to_a_document_and_overrides_a_graph(
    built_kb, tmp_path, monkeypatch
):
    """``build`` binds the map before the document's prefixes, so the
    document wins; the graph commands bind it after the graph's
    ``@prefix`` lines, so the map wins."""
    prefixes = tmp_path / "prefixes.json"
    prefixes.write_text(json.dumps({"app": "http://example.org/"}))
    monkeypatch.setenv("OASIS_PREFIX_MAP", str(prefixes))

    doc = protocol_doc(tags=("a",))
    doc["prefixes"] = {"app": "http://doc.example/"}
    doc["agents"] = ["app:agent_a"]
    doc["behaviours"][0]["agent"] = "app:agent_a"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "doc.nt"
    assert run_cli("build", "--spec", str(spec), "--out", str(out))[0] == 0
    assert "<http://doc.example/agent_a>" in out.read_text()

    kb_path, roots = built_kb
    graph = tmp_path / "kb.ttl"
    graph.write_text("@prefix app: <http://graph.example/> .\n" + kb_path.read_text())
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    code, lines = run_cli(
        "run", "--kb", str(graph), "--process", "app:consume_a_process", "--assign", str(assign)
    )
    assert code == 0 and len(lines) == 3


@pytest.mark.parametrize(
    "prefixes, reason",
    [
        ({"": "http://x/"}, "empty prefix"),
        ({"p": ""}, "empty base IRI"),
        ({"p": "http://x/a b"}, "base IRI contains reserved characters"),
    ],
    ids=["empty-prefix", "empty-base", "reserved-base"],
)
def test_build_rejects_unusable_document_prefixes(prefixes, reason, tmp_path, capsys):
    doc = protocol_doc(tags=("a",))
    doc["prefixes"] = prefixes
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "kb.nt"
    assert main(["build", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.rstrip("\n").endswith(f": {reason}")
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"templates": [{"name": "t", "goals": []}]},
        {"prefixes": {"p": ""}},
    ],
    ids=["goalless-template", "empty-base"],
)
def test_build_model_errors_name_the_document(doc, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["build", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{spec}: ")


def test_build_refuses_a_name_shared_across_kinds(tmp_path, capsys):
    task = {"name": "t", "operatorAction": "act"}
    plan = {"name": "s", "goals": [{"name": "g", "tasks": [task]}]}
    process = {"name": "p", "procedures": [{"name": "s", "states": [{"name": "s", "plan": plan}]}]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"processes": [process]}))
    out = tmp_path / "g.nt"
    assert main(["build", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"{spec}: processes[0].procedures[0].states[0]: "
        "'s' already names the procedure at processes[0].procedures[0]\n"
    )
    assert not out.exists()


def test_cli_import_loads_only_the_standard_library(tmp_path):
    package_root = str(Path(oasiskg.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import oasiskg.cli; "
        "print(oasiskg.__file__, *{m.split('.')[0] for m in set(sys.modules) - before})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
        capture_output=True,
        text=True,
        check=True,
    )
    where, *loaded = proc.stdout.split()
    assert Path(where).resolve() == Path(oasiskg.__file__).resolve()
    assert [m for m in loaded if m not in sys.stdlib_module_names] == ["oasiskg"]


# the package modules above the store that each command loads; it loads
# none of the others
_LAYERS = {
    "build": ("builder", "specs", "trees"),
    "validate": ("validator", "trees"),
    "run": ("engine", "validator", "trees"),
    "races": ("concurrency", "trees"),
}

_PROBE = """
import json, sys
from oasiskg.cli import main
code = None if len(sys.argv) == 2 else main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def loaded_modules(tmp_path, *argv: str) -> tuple[int | None, set[str]]:
    """Exit code and loaded modules of one CLI command in a fresh
    interpreter (no command: just ``import oasiskg.cli``)."""
    package_root = str(Path(oasiskg.__file__).resolve().parents[1])
    report = tmp_path / "modules.json"
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(report), *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
        capture_output=True,
        check=True,
    )
    data = json.loads(report.read_text())
    return data["code"], set(data["modules"])


def test_each_command_loads_only_its_own_modules(built_kb, tmp_path):
    kb_path, roots = built_kb
    spec = tmp_path / "spec.json"
    final, handles = realize_both(tmp_path, kb_path, roots)
    assign = tmp_path / "assign_a.json"
    commands = {
        None: (),
        "build": ("build", "--spec", str(spec)),
        "validate": ("validate", str(kb_path)),
        "run": (
            "run", "--kb", str(kb_path), "--process", "consume_a_process",
            "--assign", str(assign),
        ),
        "races": ("races", "--kb", str(final), "--handles", *handles),
    }
    modules = set(_LAYERS["build"] + _LAYERS["run"] + _LAYERS["races"])
    for command, argv in commands.items():
        code, loaded = loaded_modules(tmp_path, *argv)
        assert code == (None if command is None else 0)
        wanted = set(_LAYERS.get(command, ()))
        assert {m for m in modules if f"oasiskg.{m}" in loaded} == wanted, command
        assert "hashlib" not in loaded, command
        assert not {"dataclasses", "inspect"} & loaded, command


# what each command imports before it runs: dataclasses (and the inspect,
# ast and tokenize it pulls in) would cost every command start-up
_IMPORT_SETS = {
    "build": ("cli", "builder", "specs"),
    "validate": ("cli", "validator"),
    "run": ("cli", "engine"),
    "races": ("cli", "concurrency"),
}


@pytest.mark.parametrize("command", _IMPORT_SETS)
def test_no_command_imports_dataclasses_or_inspect(command, tmp_path):
    package_root = str(Path(oasiskg.__file__).resolve().parents[1])
    imports = "; ".join(f"import oasiskg.{m}" for m in _IMPORT_SETS[command])
    probe = f"{imports}; import sys; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["build", "validate", "run", "races"])
@pytest.mark.parametrize(
    "content",
    [None, "{oops", "[]", '{"x": 5}', '{"": "http://x/"}', '{"p": "http://x/a b"}'],
    ids=["missing", "malformed", "not-an-object", "not-an-iri", "empty-prefix", "reserved-base"],
)
def test_unusable_env_prefix_map_is_operational(
    command, content, built_kb, tmp_path, monkeypatch, capsys
):
    kb_path, _ = built_kb
    prefixes = tmp_path / "prefixes.json"
    if content is not None:
        prefixes.write_text(content)
    monkeypatch.setenv("OASIS_PREFIX_MAP", str(prefixes))
    argv = {
        "build": ["build", "--spec", str(tmp_path / "spec.json")],
        "validate": ["validate", str(kb_path)],
        "run": [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(tmp_path / "assign.json"),
        ],
        "races": ["races", "--kb", str(kb_path), "--handles", "nowhere"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("OASIS_PREFIX_MAP: ")
    assert err.count("\n") == 1
    assert str(prefixes) in err
    if content == '{"": "http://x/"}':
        assert err.rstrip("\n").endswith(": empty prefix")
    if content == '{"p": "http://x/a b"}':
        assert err.rstrip("\n").endswith(": base IRI contains reserved characters")


@pytest.mark.parametrize(
    "target", ["build --spec", "validate", "races --kb", "run --kb", "run --assign"]
)
def test_non_utf8_input_files_are_parse_errors(target, built_kb, tmp_path, capsys):
    kb_path, roots = built_kb
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    run = ["run", "--process", "consume_a_process"]
    argv = {
        "build --spec": ["build", "--spec", str(bad)],
        "validate": ["validate", str(bad)],
        "races --kb": ["races", "--kb", str(bad), "--handles", "nowhere"],
        "run --kb": [*run, "--kb", str(bad), "--assign", str(assign)],
        "run --assign": [*run, "--kb", str(kb_path), "--assign", str(bad)],
    }[target]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_clean_graph_is_silent(built_kb):
    kb_path, roots = built_kb
    code, lines = run_cli("validate", str(kb_path))
    assert code == 0
    assert lines == []


def test_validate_reports_findings_with_exit_2(built_kb):
    kb_path, roots = built_kb
    with open(kb_path, "a") as fh:
        fh.write(
            "<http://example.org/consume_a_template> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://example.org/oasis#ExecutionThing> .\n"
        )
    code, lines = run_cli("validate", str(kb_path))
    assert code == 2
    assert any(l.startswith("LAYER_MIX\t") for l in lines)


def test_validate_parse_error_is_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("<http://x/a> <http://x/p> .\n")
    assert main(["validate", str(bad)]) == 4
    assert "bad.ttl" in capsys.readouterr().err


def test_validate_missing_file_is_exit_1(tmp_path):
    assert main(["validate", str(tmp_path / "absent.nt")]) == 1


def test_validate_accepts_the_empty_prefix(tmp_path, capsys):
    graph = tmp_path / "empty_prefix.ttl"
    graph.write_text(
        "@prefix : <http://example.org/> .\n:a a <http://example.org/C> .\n"
    )
    assert main(["validate", str(graph)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "content, code, detail",
    [
        ("<http://x/a> <http://x/p> <> .\n", 4, "line 1, col 27: invalid IRI ''"),
        (
            "<http://x/a b> <http://x/p> <http://x/o> .\n",
            4,
            "line 1, col 1: invalid IRI 'http://x/a b'",
        ),
        (
            "@prefix p: <http://x/a b> .\n",
            4,
            "line 1, col 12: invalid IRI 'http://x/a b'",
        ),
        ('<http://x/a> a "lit" .\n', 1, "type(http://x/a, lit): class must be an IRI"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run", "races"])
def test_graph_files_with_unusable_terms_exit_cleanly(
    command, content, code, detail, tmp_path, capsys
):
    graph = tmp_path / "graph.ttl"
    graph.write_text(content)
    argv = {
        "validate": ["validate", str(graph)],
        "run": ["run", "--kb", str(graph), "--process", "p", "--assign", "a.json"],
        "races": ["races", "--kb", str(graph), "--handles", "h"],
    }[command]
    assert main(argv) == code
    assert capsys.readouterr().err == f"{graph}: {detail}\n"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_realizes_and_traces(built_kb, tmp_path):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "after.nt"
    code, lines = run_cli(
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
        "--trace", str(trace),
        "--out", str(out),
    )
    assert code == 0
    assert len(lines) == 3
    docs = [json.loads(l) for l in lines]
    assert [d["index"] for d in docs] == [0, 1, 2]
    assert all(d["agent"] == "http://example.org/agent_a" for d in docs)
    assert trace.read_text().splitlines() == lines
    after = read_graph(out)
    assert validate(after) == []
    assert len(after.query(predicate=vocab.PROCESS_DRAWN_BY)) == 1


def test_a_second_run_on_the_first_runs_graph_is_recorded(built_kb, tmp_path):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    graph, traces = kb_path, []
    for n in (1, 2):
        out = tmp_path / f"after_{n}.nt"
        code, lines = run_cli(
            "run",
            "--kb", str(graph),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--out", str(out),
        )
        assert code == 0
        graph = out
        traces.append(lines)
    assert set(traces[0]).isdisjoint(traces[1])
    after = read_graph(graph)
    assert validate(after) == []
    assert len(after.with_predicate(vocab.PROCESS_DRAWN_BY)) == 2


@pytest.mark.parametrize("option", ["--trace", "--out"])
def test_run_into_a_missing_directory_is_operational(
    option, built_kb, tmp_path, capsys
):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    target = tmp_path / "missing" / "file"
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            option, str(target),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_run_leaves_no_trace_when_the_graph_cannot_be_written(
    built_kb, tmp_path, capsys
):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "missing" / "after.nt"
    before = sorted(tmp_path.iterdir())
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--trace", str(trace),
            "--out", str(out),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert not trace.exists()
    assert sorted(tmp_path.iterdir()) == before


def test_run_keeps_earlier_outputs_when_one_cannot_be_written(
    built_kb, tmp_path, capsys
):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("earlier\n")
    out = tmp_path / "folder"
    out.mkdir()
    before = sorted(tmp_path.iterdir())
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--trace", str(trace),
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"cannot write {out}: not a regular file\n"
    assert trace.read_text() == "earlier\n"
    assert sorted(tmp_path.iterdir()) == before
    assert list(out.iterdir()) == []


def test_outputs_are_written_through_symlinks(built_kb, tmp_path):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    real = tmp_path / "real.jsonl"
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    code, lines = run_cli(
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
        "--trace", str(link),
    )
    assert code == 0
    assert link.is_symlink()
    assert real.read_text().splitlines() == lines


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_run_refuses_one_file_for_trace_and_graph(
    spelling, built_kb, tmp_path, capsys, monkeypatch
):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    monkeypatch.chdir(tmp_path)
    trace = out = "both.nt"
    if spelling == "dotted":
        trace = "./both.nt"
    elif spelling == "symlink":
        Path("link.nt").symlink_to("both.nt")
        trace = "link.nt"
    before = sorted(tmp_path.iterdir())
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--trace", trace,
            "--out", out,
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--trace and --out name one file: {out}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_run_without_capability_exits_2(built_kb, tmp_path, capsys):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a", agent="agent_b")))
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
        ]
    )
    assert code == 2
    assert "PERFORMER_LACKS_CAPABILITY" in capsys.readouterr().err


def test_run_on_an_invalid_graph_prints_findings(built_kb, tmp_path):
    kb_path, roots = built_kb
    with open(kb_path, "a") as fh:
        fh.write(
            "<http://example.org/consume_a_template> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://example.org/oasis#ExecutionThing> .\n"
        )
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    code, lines = run_cli(
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
    )
    assert code == 2
    assert any(l.startswith("LAYER_MIX\t") for l in lines)


@pytest.mark.parametrize(
    "witness, code",
    [
        (realize_with_plan_node_typed(vocab.EVENT, 2), "EVENT_WITHOUT_ACTION"),
        (realize_a_chain_that_branches, "CHAIN_NO_FINAL"),
    ],
    ids=["plan-task-also-an-event", "chain-that-branches"],
)
def test_run_checks_the_writes_it_could_not_certify(witness, code, tmp_path, capsys):
    """A clean graph whose realization the engine cannot certify, and
    that realization leaves the graph dirty: run prints what validate
    finds in the graph it would have written, exits 2 and writes
    nothing."""
    kb = KnowledgeBase()
    witness(kb)
    assert validate(kb) == []
    kb_path = tmp_path / "kb.nt"
    kb_path.write_text(export_canonical(kb))
    agent = kb.resolve("agent_a")
    behaviour = kb.objects(agent, vocab.HAS_BEHAVIOUR)[0]
    states = kb.objects(
        kb.resolve("consume_a_procedure"), vocab.PROC_CONSISTS_STATE, entail=True
    )
    table = {s.value: {"agent": agent.value, "behaviour": behaviour.value} for s in states}
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(table))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "after.nt"
    status = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--trace", str(trace),
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    # the same realization in process, checked by a whole-graph pass
    after = read_graph(kb_path)
    assignment = {after.resolve(s): (agent, behaviour) for s in table}
    realize_process(after, after.resolve("consume_a_process"), assignment).run_to_completion()
    expected = [v.render() for v in whole_graph_pass(after)]
    assert code in {line.split("\t")[0] for line in expected}
    assert status == 2
    assert captured.out.splitlines() == expected
    assert captured.err == ""
    assert not trace.exists() and not out.exists()


def test_a_certified_run_validates_only_at_its_gate(built_kb, tmp_path, monkeypatch):
    """A run the engine certifies leaves the journal empty, so nothing is
    checked after its writes."""
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    calls = []
    monkeypatch.setattr(validator, "validate", lambda kb: calls.append(kb) or [])
    code, lines = run_cli(
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
    )
    assert code == 0 and len(lines) == 3
    assert calls == []


def test_run_rejects_bad_assignment_files(built_kb, tmp_path, capsys):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text("{oops")
    args = [
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
    ]
    assert main(args) == 4
    capsys.readouterr()
    assign.write_text(json.dumps({"a_request_state": {"agent": "agent_a"}}))
    assert main(args) == 1
    assert "agent and behaviour" in capsys.readouterr().err


def test_run_rejects_assignment_files_that_are_not_objects(built_kb, tmp_path, capsys):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text("[]")
    args = [
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
    ]
    assert main(args) == 1
    assert "every entry needs agent and behaviour" in capsys.readouterr().err


def test_run_rejects_assignments_with_unknown_prefixes(built_kb, tmp_path, capsys):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    entry = {"agent": "agent_a", "behaviour": behaviour_of(roots, "a")}
    assign.write_text(json.dumps({"nope:a_request_state": entry}))
    args = [
        "run",
        "--kb", str(kb_path),
        "--process", "consume_a_process",
        "--assign", str(assign),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "nope" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("node", ["a_request_plan", "consume_a_procedure"])
def test_run_refuses_a_source_outside_the_planning_layer(node, built_kb, tmp_path, capsys):
    """A plan or procedure that lost its layer class validates clean; run
    refuses it with exit 1 and one stderr line, and writes nothing."""
    kb_path, roots = built_kb
    iri = f"http://example.org/{node}"
    typed = f"<{iri}> <{vocab.RDF_TYPE.value}> <{vocab.LayerTag.PLANNING.class_iri.value}> .\n"
    text = kb_path.read_text()
    assert typed in text
    kb_path.write_text(text.replace(typed, ""))
    assert validate(read_graph(kb_path)) == []
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "after.nt"
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--trace", str(trace),
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"not a planning-layer node: {iri}\n"
    assert not trace.exists() and not out.exists()


@pytest.mark.parametrize("node", ["a_modify_event", "a_notify_task"])
def test_run_refuses_an_event_node_outside_the_planning_layer(node, tmp_path, capsys):
    """An event or its action that lost its layer class validates clean;
    the step that would fire it refuses it, and run exits 1 with one
    stderr line and writes nothing."""
    doc = protocol_doc(tags=("a",))
    modify = doc["processes"][0]["procedures"][0]["states"][1]
    modify["events"] = [
        {"name": "a_modify_event", "action": task("a_notify_task", "notify"), "kind": "signal"}
    ]
    spec, kb_path = tmp_path / "spec.json", tmp_path / "kb.nt"
    spec.write_text(json.dumps(doc))
    assert main(["build", "--spec", str(spec), "--out", str(kb_path)]) == 0
    roots = capsys.readouterr().out.split()
    iri = f"http://example.org/{node}"
    typed = f"<{iri}> <{vocab.RDF_TYPE.value}> <{vocab.LayerTag.PLANNING.class_iri.value}> .\n"
    text = kb_path.read_text()
    assert typed in text
    kb_path.write_text(text.replace(typed, ""))
    assert validate(read_graph(kb_path)) == []
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "after.nt"
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "consume_a_process",
            "--assign", str(assign),
            "--trace", str(trace),
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"not a planning-layer node: {iri}\n"
    assert not trace.exists() and not out.exists()


def test_run_unknown_process_is_operational(built_kb, tmp_path, capsys):
    kb_path, roots = built_kb
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(assignment_doc(roots, "a")))
    code = main(
        [
            "run",
            "--kb", str(kb_path),
            "--process", "no_such_process",
            "--assign", str(assign),
        ]
    )
    assert code == 1
    assert "no_such_process" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# races
# ---------------------------------------------------------------------------


def realize_both(tmp_path, kb_path, roots, steps=("request", "modify", "release")):
    current = kb_path
    for tag in ("a", "b"):
        assign = tmp_path / f"assign_{tag}.json"
        assign.write_text(json.dumps(assignment_doc(roots, tag, steps=steps)))
        nxt = tmp_path / f"after_{tag}.nt"
        code, _ = run_cli(
            "run",
            "--kb", str(current),
            "--process", f"consume_{tag}_process",
            "--assign", str(assign),
            "--out", str(nxt),
        )
        assert code == 0
        current = nxt
    kb = read_graph(current)
    handles = sorted(
        a.subject.value for a in kb.query(predicate=vocab.PROCESS_DRAWN_BY)
    )
    return current, handles


def test_races_clean_protocol_exits_0(built_kb, tmp_path):
    kb_path, roots = built_kb
    final, handles = realize_both(tmp_path, kb_path, roots)
    assert len(handles) == 2
    code, lines = run_cli("races", "--kb", str(final), "--handles", *handles)
    assert code == 0
    assert lines == []


def test_races_lockless_writers_exit_3(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(protocol_doc(steps=("modify",))))
    kb_path = tmp_path / "kb.nt"
    code, roots = run_cli("build", "--spec", str(spec), "--out", str(kb_path))
    assert code == 0
    final, handles = realize_both(tmp_path, kb_path, roots, steps=("modify",))
    code, lines = run_cli("races", "--kb", str(final), "--handles", *handles)
    assert code == 3
    docs = [json.loads(l) for l in lines]
    assert docs[0]["schedule"] == [0, 1]
    assert docs[0]["kind"] == "UnlockedModify"
    assert docs[0]["conflict"]["stepIndex"] == 1
    assert docs[0]["conflict"]["resource"] == "http://example.org/shared_resource"


def chain_doc(chains: dict[str, list[tuple[str, str]]]) -> dict:
    """One consumer per tag whose process takes the given (operator,
    resource) steps, one state each."""
    doc = protocol_doc(tags=tuple(chains))
    for process, (tag, steps) in zip(doc["processes"], chains.items()):
        process["procedures"][0]["states"] = [
            {
                "name": f"{tag}_{n}_state",
                "plan": plan_doc(
                    f"{tag}_{n}_plan", [task(f"{tag}_{n}_task", op, object=res)]
                ),
            }
            for n, (op, res) in enumerate(steps)
        ]
    return doc


def realize_chains(tmp_path, chains) -> tuple[Path, list[str]]:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(chain_doc(chains)))
    current = tmp_path / "kb.nt"
    code, roots = run_cli("build", "--spec", str(spec), "--out", str(current))
    assert code == 0
    for tag, steps in chains.items():
        assign = tmp_path / f"assign_{tag}.json"
        who = {"agent": f"agent_{tag}", "behaviour": behaviour_of(roots, tag)}
        assign.write_text(json.dumps({f"{tag}_{n}_state": who for n in range(len(steps))}))
        nxt = tmp_path / f"after_{tag}.nt"
        code, _ = run_cli(
            "run",
            "--kb", str(current),
            "--process", f"consume_{tag}_process",
            "--assign", str(assign),
            "--out", str(nxt),
        )
        assert code == 0
        current = nxt
    kb = read_graph(current)
    handles = [
        next(
            a.subject.value
            for a in kb.query(predicate=vocab.PROCESS_DRAWN_BY)
            if a.object.local == f"consume_{tag}_process"
        )
        for tag in chains
    ]
    return current, handles


def test_races_says_when_schedules_deadlock(tmp_path, capsys):
    crossed = {
        "a": [("request", "r1"), ("request", "r2"), ("release", "r2"), ("release", "r1")],
        "b": [("request", "r2"), ("request", "r1"), ("release", "r1"), ("release", "r2")],
    }
    final, handles = realize_chains(tmp_path, crossed)
    capsys.readouterr()
    code = main(["races", "--kb", str(final), "--handles", *handles])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert err == "races: 2 of 6 schedules deadlock; 0 cut off at --bound 12\n"


def test_races_says_when_the_bound_cuts_the_search(tmp_path, capsys):
    # a's modify comes after 14 lock steps on another resource
    hidden = {
        "a": [("request", "r1"), ("release", "r1")] * 7 + [("modify", "r2")],
        "b": [("modify", "r2")],
    }
    final, handles = realize_chains(tmp_path, hidden)
    capsys.readouterr()
    code = main(["races", "--kb", str(final), "--handles", *handles])
    out, err = capsys.readouterr()
    assert (code, out) == (0, "")
    assert err == "races: 0 of 13 schedules deadlock; 13 cut off at --bound 12\n"
    code = main(["races", "--kb", str(final), "--handles", *handles, "--bound", "16"])
    out, err = capsys.readouterr()
    assert code == 3
    assert [json.loads(l)["conflict"]["stepIndex"] for l in out.splitlines()] == [15, 15]
    assert err == ""


@pytest.mark.parametrize("item", ["grab=Steal", "=Modify"])
def test_races_rejects_bad_op_map(built_kb, tmp_path, capsys, item):
    kb_path, roots = built_kb
    final, handles = realize_both(tmp_path, kb_path, roots)
    capsys.readouterr()
    code = main(["races", "--kb", str(final), "--handles", *handles, "--op-map", item])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert repr(item) in captured.err


def test_races_unknown_handle_is_operational(built_kb, capsys):
    kb_path, roots = built_kb
    code = main(["races", "--kb", str(kb_path), "--handles", "nowhere"])
    assert code == 1
    assert "nowhere" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["build"],
        ["validate"],
        ["run", "--kb", "kb.nt", "--process", "p"],
        ["races", "--handles", "h"],
        ["races", "--kb", "kb.nt"],
        ["races", "--kb", "kb.nt", "--handles", "h", "--bound", "abc"],
        ["races", "--kb", "kb.nt", "--handles", "h", "--bound", "1.5"],
        ["races", "--kb", "kb.nt", "--handles", "h", "--bound", "0"],
        ["races", "--kb", "kb.nt", "--handles", "h", "--bound", "-1"],
        ["launch"],
        ["validate", "kb.nt", "--strict"],
    ],
    ids=[
        "no-command", "build-without-spec", "validate-without-path",
        "run-without-assign", "races-without-kb", "races-without-handles",
        "bound-abc", "bound-fraction", "bound-0", "bound-minus-1",
        "unknown-command", "unknown-option",
    ],
)
def test_usage_errors_exit_1_with_the_usage(argv, capsys):
    # 2 is the exit code for findings, so a usage error must not take it
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: oasiskg")
    assert "error: " in err


@pytest.mark.parametrize("argv", [[], ["build"], ["validate"], ["run"], ["races"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: oasiskg")
    if not argv:  # the exit codes close the top-level help only
        assert "1 operational error or usage error" in out


def test_races_help_names_the_default_bound(capsys):
    with pytest.raises(SystemExit):
        main(["races", "--help"])
    assert "step bound (default 12)" in capsys.readouterr().out
