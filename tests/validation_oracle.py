"""Reference whole-graph pass: five candidate kinds, gathered by ``query``.

This is the validator's whole-graph gathering as it was before a pass
looked at three kinds of candidate: ``_whole`` with its two
``KnowledgeBase.query`` reads, the ``_Candidates`` record, and the
``_mirrors``, ``_chains`` and ``_performers`` loops, kept unchanged as
the oracle for ``tests/test_validation_oracle.py``.  ``_entity_checks``
is kept as it was too, without the chain check it now runs on each
procedure.  The assertion checks, ``check_mirror`` and the capability
rule did not change and are imported.
"""

from __future__ import annotations

from collections.abc import Iterable

from oasiskg import vocab
from oasiskg.core import EntityRecord, KnowledgeBase
from oasiskg.terms import Assertion, Frozen, Iri, Obj, set_field
from oasiskg.trees import depth_first
from oasiskg.validator import (
    _CAPABILITY_MESSAGES,
    _CHAIN_ENDS,
    _MIRROR_ROOTS,
    Code,
    Violation,
    _assertion_checks,
    capability_gap,
    check_mirror,
)
from oasiskg.vocab import RDF_TYPE


def whole_pass(kb: KnowledgeBase) -> list[Violation]:
    """Every finding over the whole graph, sorted, as ``validate`` gave
    them with the journal set aside; the journal is left alone."""
    out = _findings(kb, _whole(kb))
    out.sort(key=Violation.sort_key)
    return out


class _Candidates(Frozen):
    """What each check looks at: all of the graph, or what a journal reaches."""

    __slots__ = ("entities", "assertions", "trees", "procedures", "performs")

    def __init__(
        self,
        entities: Iterable[EntityRecord],  # layer mix, states, events, executions
        assertions: Iterable[Assertion],  # unknown predicate, endpoints, dangling
        trees: Iterable[tuple[Iri, Iri, Iri]],  # mirror roots: source, target; family
        procedures: Iterable[Iri],  # chains
        performs: Iterable[tuple[Iri, Obj]],  # performers: agent, execution root
    ) -> None:
        set_field(self, "entities", entities)
        set_field(self, "assertions", assertions)
        set_field(self, "trees", trees)
        set_field(self, "procedures", procedures)
        set_field(self, "performs", performs)


def _findings(kb: KnowledgeBase, c: _Candidates) -> list[Violation]:
    return [
        *_entity_checks(kb, c.entities),
        *_assertion_checks(kb, c.assertions),
        *_mirrors(kb, c.trees),
        *_chains(kb, c.procedures),
        *_performers(kb, c.performs),
    ]


def _whole(kb: KnowledgeBase) -> _Candidates:
    return _Candidates(
        entities=kb.entities.values(),
        assertions=kb.assertions,
        trees=[
            (a.subject, a.object, family)
            for root_pred, family in _MIRROR_ROOTS.items()
            for a in kb.query(predicate=root_pred)
            if isinstance(a.object, Iri)
        ],
        procedures=kb.subjects(RDF_TYPE, vocab.PROCEDURE),
        performs=[
            (a.subject, a.object)
            for a in kb.query(predicate=vocab.PERFORMS_PLAN_EXECUTION)
        ],
    )


def _entity_checks(
    kb: KnowledgeBase, entities: Iterable[EntityRecord]
) -> list[Violation]:
    out = []
    for rec in entities:
        iri, memberships = rec.iri, rec.memberships
        if rec.mixed_layers:
            names = ", ".join(sorted(c.local for c in rec.layer_classes))
            out.append(
                Violation(
                    Code.LAYER_MIX,
                    (iri,),
                    f"entity carries several layer classes: {names}",
                )
            )
        if vocab.PROCEDURE_STATE_CLASSES.intersection(memberships):
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
            and rec.layer is vocab.LayerTag.EXECUTION
            and not kb.objects(iri, vocab.EXECUTION_DRAWN_BY, entail=True)
        ):
            out.append(
                Violation(
                    Code.EXEC_WITHOUT_BEHAVIOUR,
                    (iri,),
                    "plan execution is not drawn by any behaviour",
                )
            )
    return out


def _mirrors(
    kb: KnowledgeBase, trees: Iterable[tuple[Iri, Iri, Iri]]
) -> list[Violation]:
    out = []
    for source, target, family in trees:
        out.extend(check_mirror(kb, source, target, family))
    return out


def _chains(kb: KnowledgeBase, procedures: Iterable[Iri]) -> list[Violation]:
    out = []
    for proc in procedures:
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
            continue
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
                    Code.CHAIN_CYCLE,
                    (proc,),
                    "successor edges loop back on the chain",
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


def _performers(
    kb: KnowledgeBase, performs: Iterable[tuple[Iri, Obj]]
) -> list[Violation]:
    out = []
    for agent, exec_root in performs:
        if not isinstance(exec_root, Iri):
            continue
        for b in kb.objects(exec_root, vocab.EXECUTION_DRAWN_BY, entail=True):
            if not isinstance(b, Iri):
                continue
            gap = capability_gap(kb, agent, b)
            if gap is not None:
                code, named = gap
                message = _CAPABILITY_MESSAGES[code].format(behaviour=b)
                out.append(Violation(code, (agent, named), message))
    return out
