import pytest

from rstparse.core import (
    Action,
    Document,
    Edu,
    LEAF_RELATION,
    LabeledSpan,
    Nuclearity,
    NUM_NUCLEARITIES,
    RelationVocab,
    RstTree,
    span_count,
    structural_error,
    tree_structures_count,
    validate_tree,
)


from conftest import make_tree


class TestRelationVocab:
    def test_leaf_is_reserved_at_zero(self):
        v = RelationVocab(["Cause", "Elaboration"])
        assert v.size == 3
        assert v.name(0) == "LEAF"
        assert v.index("Cause") == 1
        assert v.index("Elaboration") == 2

    def test_duplicate_and_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            RelationVocab(["Cause", "Cause"])
        with pytest.raises(ValueError):
            RelationVocab(["LEAF"])

    def test_unknown_lookup(self):
        v = RelationVocab(["Cause"])
        with pytest.raises(KeyError):
            v.index("Missing")


class TestNuclearity:
    def test_codes(self):
        assert int(Nuclearity.NN) == 0
        assert int(Nuclearity.NS) == 1
        assert int(Nuclearity.SN) == 2
        assert int(Nuclearity.LEAF) == 3
        assert NUM_NUCLEARITIES == 4


class TestRstTree:
    def test_single_leaf(self):
        t = RstTree.single_leaf()
        assert t.n == 1
        assert validate_tree(t) is None
        assert set(t.labels) == {(0, 1)}
        assert list(t.leaf_items()) == [(0, LEAF_RELATION, Nuclearity.LEAF)]
        assert list(t.internal_items()) == []

    def test_span_count_formula(self):
        for n in range(1, 9):
            assert span_count(n) == 2 * n - 1

    def test_right_branching_three(self):
        t = make_tree(3, {(0, 3): 1, (1, 3): 2})
        assert validate_tree(t) is None
        assert set(t.labels) == {(0, 1), (1, 2), (2, 3), (1, 3), (0, 3)}
        items = list(t.internal_items())
        assert [(i, j, k) for i, j, k, _, _ in items] == [(0, 3, 1), (1, 3, 2)]

    def test_duplicate_span_rejected(self):
        spans = [LabeledSpan(0, 1, 0, Nuclearity.LEAF),
                 LabeledSpan(0, 1, 1, Nuclearity.NN)]
        with pytest.raises(ValueError):
            RstTree(spans, 1, {})

    def test_equality_ignores_span_order(self):
        a = make_tree(3, {(0, 3): 1, (1, 3): 2})
        b = RstTree(sorted(a.spans, key=lambda s: (s.j, s.i)), 3, a.splits)
        assert a == b
        c = make_tree(3, {(0, 3): 2, (0, 2): 1})
        assert a != c

    def test_structural_error_messages(self):
        t = make_tree(3, {(0, 3): 1, (1, 3): 2})
        broken = RstTree([s for s in t.spans if (s.i, s.j) != (1, 2)],
                         3, t.splits)
        assert structural_error(broken) is not None
        # split outside the span
        bad = RstTree(t.spans, 3, {(0, 3): 3, (1, 3): 2})
        assert structural_error(bad) is not None

    def test_validate_checks_labels_too(self):
        # leaf labels on an internal span are invalid
        t = make_tree(3, {(0, 3): 1, (1, 3): 2},
                      labels={(0, 3): (LEAF_RELATION, Nuclearity.NN)})
        assert validate_tree(t) is not None
        t2 = make_tree(3, {(0, 3): 1, (1, 3): 2},
                       labels={(0, 3): (1, Nuclearity.LEAF)})
        assert validate_tree(t2) is not None
        # non-leaf labels on a leaf are invalid as a gold tree
        t3 = make_tree(2, {(0, 2): 1}, labels={(0, 1): (1, Nuclearity.NN)})
        assert validate_tree(t3) is not None

    def test_structures_count_is_catalan(self):
        # 1, 1, 2, 5, 14, 42 structures for n = 1..6
        got = [tree_structures_count(n) for n in range(1, 7)]
        assert got == [1, 1, 2, 5, 14, 42]


class TestAction:
    def test_shift_reduce_constructors(self):
        s = Action.shift()
        r = Action.reduce(2, Nuclearity.SN)
        assert s.kind == "SHIFT" and r.kind == "REDUCE"
        assert s.relation is None
        assert r.relation == 2 and r.nuclearity == Nuclearity.SN

    def test_reduce_rejects_leaf_labels(self):
        with pytest.raises(ValueError):
            Action.reduce(LEAF_RELATION, Nuclearity.NN)
        with pytest.raises(ValueError):
            Action.reduce(1, Nuclearity.LEAF)


class TestDocument:
    def test_edu_indices_must_be_consecutive_from_one(self):
        edus = [Edu(("a",), ("DT",), 1), Edu(("b",), ("NN",), 3)]
        with pytest.raises(ValueError):
            Document("d", edus, None)

    def test_gold_tree_size_checked(self):
        edus = [Edu(("a",), ("DT",), 1), Edu(("b",), ("NN",), 2)]
        with pytest.raises(ValueError):
            Document("d", edus, RstTree.single_leaf())

    def test_n_property(self):
        edus = [Edu(("a",), ("DT",), 1), Edu(("b",), ("NN",), 2)]
        doc = Document("d", edus, None)
        assert doc.n == 2

    def test_edu_alignment_checked(self):
        with pytest.raises(ValueError):
            Edu(("a", "b"), ("DT",), 1)
        with pytest.raises(ValueError):
            Edu((), (), 1)
