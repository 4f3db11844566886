from __future__ import annotations

from pathlib import Path

import pytest

from oasiskg import vocab
from oasiskg.terms import Iri
from oasiskg.vocab import LayerTag


# ---------------------------------------------------------------------------
# Class table
# ---------------------------------------------------------------------------


def test_layer_tags_round_trip_through_their_classes():
    for tag in LayerTag:
        assert vocab.LAYER_TAG_OF_CLASS[tag.class_iri] is tag
        assert vocab.LAYER_CLASS_OF_TAG[tag] == tag.class_iri
    assert len(vocab.LAYER_CLASSES) == 4


def test_class_parents_stay_inside_the_class_table():
    known = set(vocab.CLASSES.values())
    for child, parent in vocab.CLASS_PARENT.items():
        assert child in known
        assert parent in known
        assert child != parent


def test_procedure_state_taxonomy():
    state = vocab.CLASSES["ProcedureState"]
    terminating = vocab.CLASSES["TerminatingProcedureState"]
    assert vocab.PROCEDURE_STATE_CLASSES == frozenset(
        {
            state,
            terminating,
            vocab.INITIAL_STATE,
            vocab.FINAL_STATE,
            vocab.NON_TERMINATING_STATE,
        }
    )
    assert vocab.CLASS_PARENT[terminating] == state
    assert vocab.CLASS_PARENT[vocab.INITIAL_STATE] == terminating
    assert vocab.CLASS_PARENT[vocab.FINAL_STATE] == terminating
    assert vocab.CLASS_PARENT[vocab.NON_TERMINATING_STATE] == state
    terminating_spec = vocab.PROPERTIES[vocab.PROC_CONSISTS_TERMINATING]
    assert terminating_spec.object_classes == frozenset(
        {terminating, vocab.INITIAL_STATE, vocab.FINAL_STATE}
    )


def test_every_vocabulary_constant_is_declared():
    """A constant spelled by hand, rather than bound by ``_p`` or ``_c``,
    could name a predicate or class nothing declares."""
    declared = set(vocab.PROPERTIES) | set(vocab.CLASSES.values()) | {vocab.RDF_TYPE}
    constants = {
        name: value
        for name, value in vars(vocab).items()
        if name.isupper() and isinstance(value, Iri)
    }
    assert len(constants) >= 60
    for name, value in constants.items():
        assert value in declared, name


# ---------------------------------------------------------------------------
# Property table
# ---------------------------------------------------------------------------


def test_every_super_property_is_itself_declared():
    for spec in vocab.PROPERTIES.values():
        if spec.super_property is not None:
            assert spec.super_property in vocab.PROPERTIES, spec.iri


def _recount_declared_pairs() -> set[tuple[Iri, Iri]]:
    pairs = set()
    for spec in vocab.PROPERTIES.values():
        if spec.super_property is not None:
            pairs.add((spec.iri, spec.super_property))
    return pairs


def test_declared_subproperty_pairs_match_a_recount():
    recount = _recount_declared_pairs()
    assert set(vocab.DECLARED_SUB_PAIRS) == recount
    assert len(vocab.DECLARED_SUB_PAIRS) == len(recount)
    # the hierarchy is wide enough for entailment to matter
    assert len(recount) >= 35


def _naive_closure(nodes, pairs) -> dict[Iri, frozenset[Iri]]:
    """Fixpoint iteration over (child, parent) pairs, written independently."""
    down: dict[Iri, set[Iri]] = {p: {p} for p in nodes}
    changed = True
    while changed:
        changed = False
        for child, parent in pairs:
            before = len(down[parent])
            down[parent] |= down[child]
            if len(down[parent]) != before:
                changed = True
    return {p: frozenset(v) for p, v in down.items()}


def test_sub_closure_matches_fixpoint_iteration():
    naive = _naive_closure(vocab.PROPERTIES, vocab.DECLARED_SUB_PAIRS)
    assert set(vocab.SUB_CLOSURE) == set(naive)
    for prop, members in naive.items():
        assert vocab.SUB_CLOSURE[prop] == members, prop


def test_subclass_closure_matches_fixpoint_iteration():
    naive = _naive_closure(vocab.CLASSES.values(), vocab.CLASS_PARENT.items())
    assert set(vocab.SUBCLASS_CLOSURE) == set(naive)
    for cls, members in naive.items():
        assert vocab.SUBCLASS_CLOSURE[cls] == members, cls
    assert vocab.SUBCLASS_CLOSURE[vocab.ACTIVITY] == {vocab.ACTIVITY, vocab.PROCEDURE}


def test_closure_refuses_a_cyclic_hierarchy():
    a, b = vocab.HAS_NEXT, vocab.HAS_NEXT_PROCEDURE
    with pytest.raises(ValueError, match="cycle"):
        vocab._closure({a: b, b: a}, (a, b))


def test_ancestors_walk_terminates_and_excludes_self():
    for nodes, parent in (
        (vocab.PROPERTIES, dict(vocab.DECLARED_SUB_PAIRS)),
        (vocab.CLASSES.values(), vocab.CLASS_PARENT),
    ):
        for node in nodes:
            chain = vocab.ancestors(node, parent)
            assert node not in chain
            assert len(set(chain)) == len(chain)


def test_family_roots_cover_their_maps():
    for mapping, root in (
        (vocab.CLASS_TO_OVERLOAD, vocab.OVERLOADS),
        (vocab.CLASS_TO_SUBMITTED, vocab.SUBMITTED_TO),
        (vocab.CLASS_TO_HAS_EXECUTION, vocab.HAS_EXECUTION),
        (vocab.CLASS_TO_EXECUTION_DRAWN_BY, vocab.EXECUTION_DRAWN_BY),
    ):
        assert len(mapping) == 8  # seven core node classes + one extension
        for cls, prop in mapping.items():
            assert cls in set(vocab.CLASSES.values())
            assert root in vocab.SUB_CLOSURE and prop in vocab.SUB_CLOSURE[root]


def test_tree_node_classes_each_have_a_family_member():
    for cls in vocab.TREE_NODE_CLASSES:
        assert cls in vocab.CLASS_TO_OVERLOAD
        assert cls in vocab.CLASS_TO_SUBMITTED
        assert cls in vocab.CLASS_TO_HAS_EXECUTION
        assert cls in vocab.CLASS_TO_EXECUTION_DRAWN_BY


def test_child_predicates_are_structural_and_declared():
    assert len(vocab.CHILD_PREDICATES) == 7
    for pred in vocab.CHILD_PREDICATES:
        assert pred in vocab.PROPERTIES


def test_layer_constraints_are_internally_consistent():
    known = set(vocab.CLASSES.values())
    for spec in vocab.PROPERTIES.values():
        if spec.literal_object:
            assert spec.object_layer is None
            assert spec.object_classes is None
        for group in (spec.subject_classes, spec.object_classes):
            for cls in group or ():
                assert cls in known, (spec.iri, cls)


def test_extension_properties_are_marked():
    extensions = {p.iri.local for p in vocab.PROPERTIES.values() if p.extension}
    assert "overloadsTaskOperatorArgument" in extensions
    assert "taskOperatorArgumentSubmittedTo" in extensions
    assert "hasTaskOperatorArgumentExecution" in extensions
    assert "taskOperatorArgumentDrawnBy" in extensions
    assert "consistsOfProcedure" in extensions


# ---------------------------------------------------------------------------
# Generated reference document
# ---------------------------------------------------------------------------


def test_vocabulary_markdown_lists_everything():
    text = vocab.vocabulary_markdown()
    for name in vocab.CLASSES:
        assert name in text
    for prop in vocab.PROPERTIES:
        assert prop.local in text


def test_checked_in_vocabulary_document_is_current():
    here = Path(__file__).resolve().parent.parent / "VOCABULARY.md"
    assert here.exists(), "VOCABULARY.md missing; regenerate with python3 -m oasiskg.vocab"
    assert here.read_text() == vocab.vocabulary_markdown()
