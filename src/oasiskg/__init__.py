"""Layered agent-behaviour knowledge graphs.

Build templates, behaviours, plans, processes and roles; validate the
layer discipline; realize processes into the execution layer and step
through them; analyse lock-protocol interleavings for races.

The modules are layered: terms -> vocab -> core; rdfio over core; trees
over core; builder (with specs), validator and concurrency over trees;
engine over trees and validator; cli on top.  The public names below
are loaded on first use (PEP 562), so importing the package, or one
module of it, loads only what that needs.
"""

from importlib import import_module

#: defining module -> the public names it exports here
_EXPORTS = {
    "builder": (
        "attach_event",
        "build_plan",
        "build_process",
        "build_template",
        "declare_agent",
        "deprecate_role",
        "derive_behaviour",
        "grant_role",
        "submit_plan",
    ),
    "concurrency": (
        "ProtocolRun",
        "RaceReport",
        "Schedule",
        "Step",
        "StepKind",
        "detect_races",
        "enumerate_schedules",
        "extract_runs",
        "interpret_step",
    ),
    "core": ("EntityRecord", "KnowledgeBase"),
    "engine": ("ProcessHandle", "StepRecord", "realize_process"),
    "rdfio": ("export_canonical", "graph_hash", "import_turtle", "read_graph", "write_graph"),
    "specs": (
        "BehaviourSpec",
        "EventSpec",
        "GoalSpec",
        "ProcedureSpec",
        "ProcessSpec",
        "Ref",
        "RefMode",
        "StateSpec",
        "TaskSpec",
    ),
    "terms": ("Assertion", "Iri", "ModelError"),
    "validator": (
        "CapabilityKind",
        "CapabilitySource",
        "Code",
        "Violation",
        "check_capability",
        "check_mirror",
        "validate",
    ),
    "vocab": ("LayerTag",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    # not cached: a rebinding in the home module shows through here
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
