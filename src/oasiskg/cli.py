"""Command line interface.

Exit codes: 0 success, 1 operational error or usage error, 2 validation
findings (including realize-time capability failures, and findings in
the graph a ``run`` leaves), 3 races found, 4 parse error in an input
file.

Each command imports the modules it runs when it runs: ``validate``
loads the validator, ``run`` the engine (and the validator under it),
``races`` the race search and ``build`` the builder.  Only the store,
its vocabulary and the graph reader load with this module.

The environment variable OASIS_PREFIX_MAP may name a JSON file of
additional prefix bindings ({"pfx": "http://..."}) applied to every
command; a map that cannot be read or used is an operational error.
``build`` binds it before the document's prefixes, which win; the graph
commands bind it after the graph's ``@prefix`` lines, which it overrides.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterator
from typing import NoReturn

from . import rdfio
from .core import KnowledgeBase
from .terms import Iri, ModelError
from .vocab import DEFAULT_BOUND

OK = 0
OPERATIONAL = 1
FINDINGS = 2
RACES = 3
PARSE = 4


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


class _Abort(Exception):
    """Stop the command with a one-line stderr message and an exit code."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Turn a failed write of ``path`` into a one-line operational error."""
    try:
        yield
    except OSError as err:
        # strerror alone: ``err`` may name a temporary file, not ``path``
        raise _Abort(f"cannot write {path}: {err.strerror or err}", OPERATIONAL)


def _save(texts: dict[str, str]) -> None:
    """Write each text to its path, all or none.

    Each text goes to a new file beside its path first; those replace
    the paths only once every one is written, so an output that cannot
    be written leaves no other behind.  A symlink is written through,
    and a path that exists but is not a regular file is never replaced.
    """
    staged: dict[str, tuple[str, str]] = {}  # path -> (temporary, target)
    try:
        for n, (path, text) in enumerate(texts.items()):
            target = os.path.realpath(path)
            folder, name = os.path.split(target)
            temporary = os.path.join(folder, f".{name}.{os.getpid()}.{n}.tmp")
            if os.path.exists(target) and not os.path.isfile(target):
                raise _Abort(f"cannot write {path}: not a regular file", OPERATIONAL)
            with _writing(path), open(
                temporary, "x", encoding="utf-8", newline="\n"
            ) as fh:
                staged[path] = (temporary, target)
                fh.write(text)
        for path, (temporary, target) in staged.items():
            with _writing(path):
                os.replace(temporary, target)
    finally:
        for temporary, _ in staged.values():
            with contextlib.suppress(OSError):  # gone once it replaced its path
                os.remove(temporary)


def _apply_env_prefixes(kb: KnowledgeBase) -> None:
    path = os.environ.get("OASIS_PREFIX_MAP")
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except (OSError, ValueError) as err:
        raise _Abort(f"OASIS_PREFIX_MAP: cannot read {path}: {err}", OPERATIONAL)
    valid = isinstance(table, dict) and all(isinstance(b, str) for b in table.values())
    if not valid:
        message = f"OASIS_PREFIX_MAP: {path} is not a JSON object of IRI strings"
        raise _Abort(message, OPERATIONAL)
    try:
        for prefix, base in table.items():
            kb.register_prefix(prefix, base)
    except ModelError as err:
        raise _Abort(f"OASIS_PREFIX_MAP: {path}: {err}", OPERATIONAL)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise _Abort(f"cannot read {path}: {err}", OPERATIONAL)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise _Abort(f"{path}: {err}", PARSE)


def _read_graph(path: str) -> KnowledgeBase:
    """A graph file, with the OASIS_PREFIX_MAP bindings registered."""
    try:
        kb = rdfio.read_graph(path)
    except OSError as err:
        raise _Abort(f"cannot read {path}: {err}", OPERATIONAL)
    except (rdfio.ParseError, UnicodeDecodeError) as err:
        raise _Abort(f"{path}: {err}", PARSE)
    except ModelError as err:
        raise _Abort(f"{path}: {err}", OPERATIONAL)
    _apply_env_prefixes(kb)
    return kb


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    from . import builder
    from .specs import SpecInvalid, document_from_json

    try:
        doc = document_from_json(_load_json(args.spec))
    except SpecInvalid as err:
        return _fail(f"{args.spec}: {err}", OPERATIONAL)

    kb = KnowledgeBase()
    _apply_env_prefixes(kb)
    symbols: dict[str, Iri] = {}

    def ref(name: str) -> Iri:
        return symbols.get(name) or kb.resolve(name)

    roots: list[Iri] = []
    try:
        for prefix, base in doc.get("prefixes", {}).items():
            kb.register_prefix(prefix, base)
        for name in doc.get("classes", ()):
            kb.declare_class(kb.resolve(name))
        for name in doc.get("agents", ()):
            builder.declare_agent(kb, kb.resolve(name))
        for spec in doc.get("templates", ()):
            root = builder.build_template(kb, spec)
            symbols[spec.name] = root
            roots.append(root)
        for spec in doc.get("plans", ()):
            root = builder.build_plan(kb, spec)
            symbols[spec.name] = root
            roots.append(root)
        for entry in doc.get("behaviours", ()):
            root = builder.derive_behaviour(
                kb, ref(entry["template"]), ref(entry["agent"])
            )
            symbols[entry["id"]] = root
            roots.append(root)
        for entry in doc.get("submissions", ()):
            builder.submit_plan(kb, ref(entry["plan"]), ref(entry["behaviour"]))
        for spec in doc.get("processes", ()):
            root = builder.build_process(kb, spec)
            symbols[spec.name] = root
            roots.append(root)
        for entry in doc.get("roles", ()):
            role = builder.grant_role(
                kb,
                ref(entry["agent"]),
                kb.resolve(entry["roleType"]),
                [ref(b) for b in entry["behaviours"]],
            )
            if "id" in entry:
                symbols[entry["id"]] = role
            roots.append(role)
        for entry in doc.get("events", ()):
            roots.append(builder.attach_event(kb, ref(entry["state"]), entry["event"]))
    except ModelError as err:
        return _fail(f"{args.spec}: {err}", OPERATIONAL)

    if args.out:
        _save({args.out: rdfio.export_canonical(kb)})
    for root in roots:
        print(root.value)
    return OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .validator import validate

    kb = _read_graph(args.path)
    violations = validate(kb)
    for violation in violations:
        print(violation.render())
    return FINDINGS if violations else OK


def cmd_run(args: argparse.Namespace) -> int:
    from . import engine
    from .validator import validate

    if args.trace and args.out:
        if os.path.realpath(args.trace) == os.path.realpath(args.out):
            return _fail(f"--trace and --out name one file: {args.out}", OPERATIONAL)
    kb = _read_graph(args.kb)
    table = _load_json(args.assign)
    try:
        assignment = {
            kb.resolve(state): (
                kb.resolve(entry["agent"]),
                kb.resolve(entry["behaviour"]),
            )
            for state, entry in table.items()
        }
    except (AttributeError, KeyError, TypeError):
        return _fail(
            f"{args.assign}: every entry needs agent and behaviour", OPERATIONAL
        )
    except ModelError as err:
        return _fail(f"{args.assign}: {err}", OPERATIONAL)

    try:
        handle = engine.realize_process(kb, kb.resolve(args.process), assignment)
    except engine.ValidationFailed as err:
        for violation in err.violations:
            print(violation.render())
        return FINDINGS
    except (engine.PerformerLacksCapability, engine.RoleDeprecatedUse) as err:
        return _fail(str(err), FINDINGS)
    except ModelError as err:
        return _fail(str(err), OPERATIONAL)
    try:
        steps = handle.run_to_completion()
    except ModelError as err:
        return _fail(str(err), OPERATIONAL)
    if kb.journal:
        # the engine kept writes it could not certify clean: check them
        # before anything is written or printed
        violations = validate(kb)
        if violations:
            for violation in violations:
                print(violation.render())
            return FINDINGS
    lines = [step.trace_line() for step in steps]
    outputs = {}
    if args.trace:
        outputs[args.trace] = "".join(line + "\n" for line in lines)
    if args.out:
        outputs[args.out] = rdfio.export_canonical(kb)
    _save(outputs)
    for line in lines:
        print(line)
    return OK


def cmd_races(args: argparse.Namespace) -> int:
    from .concurrency import StepKind, extract_runs, search_races

    kb = _read_graph(args.kb)
    op_map: dict[str, StepKind] = {}
    for item in args.op_map or ():
        name, _, kind = item.partition("=")
        if not name:
            # an empty name would match every action as a substring
            return _fail(f"--op-map {item!r}: NAME must not be empty", OPERATIONAL)
        try:
            op_map[name] = StepKind(kind)
        except ValueError:
            return _fail(
                f"--op-map {item!r}: kind must be one of "
                f"{', '.join(k.value for k in StepKind)}",
                OPERATIONAL,
            )
    try:
        runs = extract_runs(kb, [kb.resolve(h) for h in args.handles], op_map)
    except ModelError as err:
        return _fail(str(err), OPERATIONAL)
    search = search_races(runs, args.bound)
    for report in search.reports:
        print(report.json_line())
    deadlock, truncated = search.schedules["deadlock"], search.schedules["truncated"]
    if deadlock or truncated:
        # steps past the bound or behind a deadlock were never searched
        print(
            f"races: {deadlock} of {sum(search.schedules.values())} schedules "
            f"deadlock; {truncated} cut off at --bound {args.bound}",
            file=sys.stderr,
        )
    return RACES if search.reports else OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2: 2 means findings."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(OPERATIONAL, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oasiskg",
        description="Build, validate, realize and analyse layered "
        "agent-behaviour knowledge graphs.",
        epilog="exit codes: 0 ok, 1 operational error or usage error, "
        "2 validation findings, 3 races found, 4 parse error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a graph from a JSON document")
    build.add_argument("--spec", required=True, help="build document (JSON)")
    build.add_argument("--out", help="write the graph here (canonical N-Triples)")
    build.set_defaults(func=cmd_build)

    val = sub.add_parser("validate", help="report consistency findings")
    val.add_argument("path", help="graph file (Turtle subset or N-Triples)")
    val.set_defaults(func=cmd_validate)

    run = sub.add_parser("run", help="realize a process and step through it")
    run.add_argument("--kb", required=True, help="graph file")
    run.add_argument("--process", required=True, help="process root IRI")
    run.add_argument(
        "--assign",
        required=True,
        help='JSON file: {"state": {"agent": IRI, "behaviour": IRI}, ...}',
    )
    run.add_argument("--trace", help="write the step trace here (JSON lines)")
    run.add_argument("--out", help="write the resulting graph here")
    run.set_defaults(func=cmd_run)

    races = sub.add_parser("races", help="enumerate schedules and report races")
    races.add_argument("--kb", required=True, help="graph file")
    races.add_argument(
        "--handles", required=True, nargs="+", help="realized process root IRIs"
    )
    races.add_argument(
        "--bound",
        type=_positive,
        default=DEFAULT_BOUND,
        help=f"step bound (default {DEFAULT_BOUND})",
    )
    races.add_argument(
        "--op-map",
        action="append",
        metavar="NAME=KIND",
        help="map an operator action name to Request, Modify or Release",
    )
    races.set_defaults(func=cmd_races)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Abort as err:
        return _fail(str(err), err.code)


if __name__ == "__main__":
    raise SystemExit(main())
