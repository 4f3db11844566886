"""Spans and counters recorded from outside the package.

``install`` replaces public functions of ``oasiskg`` at every binding
site (``oasiskg.engine.validate`` as well as ``oasiskg.validator.validate``
and ``oasiskg.validate``) with wrappers that record a span: name, start,
end, parent span and run id.  Hot ``KnowledgeBase`` methods get counting
wrappers only.  Spans stay in memory; ``dump`` writes them out at the
end.  Nothing under ``src/`` is edited, and ``uninstall`` restores every
original binding.

``layer_metrics`` turns spans and counters into the per-module figures
listed in ``perfbench/README.md``.  Self time is a span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

MODULES = ("builder", "validator", "rdfio", "engine", "concurrency", "cli")

#: functions that get a span, by defining module
SPANNED = {
    "builder": (
        "declare_agent", "build_template", "build_plan", "build_process",
        "derive_behaviour", "submit_plan", "grant_role", "attach_event",
        "clone_tree",
    ),
    "validator": ("validate",),
    "rdfio": ("export_canonical", "write_graph", "read_graph", "import_turtle", "parse_turtle"),
    "engine": ("realize_process",),
    "concurrency": ("extract_runs", "detect_races", "enumerate_schedules"),
    "cli": ("main",),
}

LOOKUPS = ("objects", "subjects", "query", "entails")
INSERTS = ("assert_property", "assert_membership")


@dataclass
class Tracer:
    run_id: str = ""
    spans: list = field(default_factory=list)  # [name, start, end, parent, run_id, attrs]
    counters: Counter = field(default_factory=Counter)
    kbs: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def span(self, name: str, fn, args, kwargs, measure=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.run_id, {}]
        self.spans.append(record)
        self._stack.append(index)
        before = measure[0](args) if measure else None
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if measure:
            record[5] = measure[1](args, result, before)
        return result

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import oasiskg
        from oasiskg.core import KnowledgeBase
        from oasiskg.engine import ProcessHandle

        homes = [oasiskg] + [importlib.import_module(f"oasiskg.{m}") for m in MODULES]
        homes.append(importlib.import_module("oasiskg.core"))
        for module, names in SPANNED.items():
            home = importlib.import_module(f"oasiskg.{module}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._spanning(f"{module}.{name}", original)
                for site in homes:
                    if site.__dict__.get(name) is original:
                        self._rebind(site, name, wrapper)

        self._rebind(ProcessHandle, "step", self._spanning("engine.step", ProcessHandle.step))
        for name in LOOKUPS + INSERTS:
            self._rebind(KnowledgeBase, name, self._counting(f"core.{name}", getattr(KnowledgeBase, name)))
        original_init = KnowledgeBase.__init__
        kbs = self.kbs

        def init(kb, *args, **kwargs):
            original_init(kb, *args, **kwargs)
            kbs.append(kb)

        self._rebind(KnowledgeBase, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self.kbs.clear()

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _spanning(self, name: str, fn):
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, measure)

        return wrapper

    def _counting(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -------------------------------------------------------------

    def export(self) -> dict:
        """Spans and counters as plain JSON data (for a child process to
        hand to its parent)."""
        counters = dict(self.counters)
        counters["core.triples"] = sum(len(kb) for kb in self.kbs)
        return {"spans": self.spans, "counters": counters}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)


def _kb_growth(kb_of):
    return (lambda args: len(kb_of(args)),
            lambda args, result, before: {"added": len(kb_of(args)) - before})


def _result_size(key, size):
    return (lambda args: None, lambda args, result, before: {key: size(result)})


#: per spanned function: (taken before the call, attributes after it)
_MEASURES = {
    "validator.validate": (
        lambda args: len(args[0]),
        lambda args, result, before: {"scanned": before, "findings": len(result)},
    ),
    "engine.realize_process": _kb_growth(lambda args: args[0]),
    "engine.step": _kb_growth(lambda args: args[0].kb),
    "builder.clone_tree": _result_size("nodes", len),
    "rdfio.parse_turtle": _result_size("triples", lambda r: len(r[0])),
    "rdfio.export_canonical": _result_size("bytes", lambda r: len(r.encode("utf-8"))),
    "concurrency.detect_races": _result_size("reports", len),
}


# ---------------------------------------------------------------------------
# Per-module metrics
# ---------------------------------------------------------------------------


def _self_times(spans: list) -> list[float]:
    selves = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            selves[s[3]] -= s[2] - s[1]
    return selves


def _under(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(exports: list[dict]) -> dict[str, float]:
    """Per-module figures from one or more exported traces (one per
    process).  Every figure is present; layers a workload does not use
    read 0."""
    m: Counter = Counter()
    cli_ms: dict[str, list[float]] = {}
    for data in exports:
        spans = data["spans"]
        selves = _self_times(spans)
        counters = data["counters"]
        m["core.triples"] += counters.get("core.triples", 0)
        m["core.inserts"] += sum(counters.get(f"core.{n}", 0) for n in INSERTS)
        m["core.lookups"] += sum(counters.get(f"core.{n}", 0) for n in LOOKUPS)
        for key in ("concurrency.schedules.complete", "concurrency.schedules.deadlock",
                    "concurrency.schedules.truncated"):
            m[key] += counters.get(key, 0)
        for i, (name, start, end, _parent, run_id, attrs) in enumerate(spans):
            duration = end - start
            module, _, func = name.partition(".")
            if module == "builder":
                m["builder.s"] += selves[i]
                if func == "clone_tree":
                    m["builder.cloned_nodes"] += attrs["nodes"]
            elif name == "validator.validate":
                m["validator.calls"] += 1
                m["validator.s"] += duration
                m["validator.triples_scanned"] += attrs["scanned"]
                m["validator.findings"] += attrs["findings"]
            elif name == "engine.realize_process":
                m["engine.realize_calls"] += 1
                m["engine.realize_self_s"] += selves[i]
                m["engine.exec_triples_added"] += attrs["added"]
            elif name == "engine.step":
                m["engine.step_s"] += duration
                m["engine.exec_triples_added"] += attrs["added"]
            elif name == "rdfio.parse_turtle":
                if _under(spans, i, "rdfio.read_graph"):
                    m["rdfio.parse_s"] += duration
                    m["rdfio.parse_triples"] += attrs["triples"]
                else:
                    m["rdfio.turtle_parse_s"] += duration
            elif name == "rdfio.export_canonical":
                m["rdfio.export_s"] += duration
                m["rdfio.export_bytes"] += attrs["bytes"]
            elif name == "concurrency.extract_runs":
                m["concurrency.extract_s"] += duration
            elif name == "concurrency.detect_races":
                m["concurrency.detect_s"] += duration
                m["concurrency.reports"] += attrs["reports"]
            elif name == "cli.main":
                # the launcher sets the run id to the subcommand
                cli_ms.setdefault(run_id, []).append(duration * 1000)
    m["rdfio.parse_triples_per_s"] = (
        m["rdfio.parse_triples"] / m["rdfio.parse_s"] if m["rdfio.parse_s"] else 0.0
    )
    m["core.lookups_per_triple"] = m["core.lookups"] / m["core.triples"] if m["core.triples"] else 0.0
    for command in ("build", "validate", "run", "races"):
        samples = sorted(cli_ms.get(command, ()))
        m[f"cli.{command}_ms"] = samples[len(samples) // 2] if samples else 0.0
    return {name: float(m[name]) for name in PER_LAYER}


#: every per-module metric, with its unit
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import_jsonschema_ms": "ms",
    "cli.build_ms": "ms",
    "cli.validate_ms": "ms",
    "cli.run_ms": "ms",
    "cli.races_ms": "ms",
    "rdfio.parse_s": "s",
    "rdfio.parse_triples": "count",
    "rdfio.parse_triples_per_s": "1/s",
    "rdfio.turtle_parse_s": "s",
    "rdfio.export_s": "s",
    "rdfio.export_bytes": "bytes",
    "core.triples": "count",
    "core.inserts": "count",
    "core.lookups": "count",
    "core.lookups_per_triple": "ratio",
    "validator.calls": "count",
    "validator.s": "s",
    "validator.triples_scanned": "count",
    "validator.findings": "count",
    "engine.realize_calls": "count",
    "engine.realize_self_s": "s",
    "engine.step_s": "s",
    "engine.exec_triples_added": "count",
    "builder.s": "s",
    "builder.cloned_nodes": "count",
    "concurrency.extract_s": "s",
    "concurrency.detect_s": "s",
    "concurrency.reports": "count",
    "concurrency.schedules.complete": "count",
    "concurrency.schedules.deadlock": "count",
    "concurrency.schedules.truncated": "count",
    "trace.overhead_s": "s",
}
