import numpy as np
import pytest

from conftest import make_tree, single_leaf

from rstparse.core import Nuclearity, RelationVocab
from rstparse.data import random_tree
from rstparse.metrics import (
    DocScore,
    PairCounts,
    aggregate,
    evaluate_trees,
    f1,
    format_report,
    machine_rows,
    score_pair,
)


class TestF1:
    def test_basic_values(self):
        assert f1(4, 5, 5) == 80.0
        assert f1(9, 9, 9) == 100.0
        assert f1(0, 3, 3) == 0.0

    def test_zero_denominator(self):
        assert f1(0, 0, 0) == 0.0


class TestScorePair:
    def test_identical_trees(self):
        t = make_tree(4, {(0, 4): 2, (0, 2): 1, (2, 4): 3})
        c = score_pair(t, t)
        assert c.triple("span") == (7, 7, 7)
        assert c.triple("nuclearity") == (3, 3, 3)
        assert c.triple("relation") == (3, 3, 3)

    def test_left_vs_right_branching(self):
        left = make_tree(3, {(0, 3): 2, (0, 2): 1})
        right = make_tree(3, {(0, 3): 1, (1, 3): 2})
        c = score_pair(left, right)
        # leaves and root match, the middle span does not
        assert c.triple("span") == (4, 5, 5)
        assert f1(*c.triple("span")) == 80.0
        # (0, 3) is the only shared internal span; default labels agree
        assert c.triple("nuclearity") == (1, 2, 2)
        assert c.triple("relation") == (1, 2, 2)

    def test_labels_compared_on_parent_spans_only(self):
        gold = make_tree(3, {(0, 3): 1, (1, 3): 2},
                         labels={(0, 3): (1, Nuclearity.NS),
                                 (1, 3): (2, Nuclearity.NN)})
        pred = make_tree(3, {(0, 3): 1, (1, 3): 2},
                         labels={(0, 3): (1, Nuclearity.SN),
                                 (1, 3): (1, Nuclearity.NN)})
        c = score_pair(pred, gold)
        assert c.triple("span") == (5, 5, 5)
        # nuclearity wrong at root, right at (1, 3)
        assert c.triple("nuclearity") == (1, 2, 2)
        # relation right at root, wrong at (1, 3)
        assert c.triple("relation") == (1, 2, 2)

    def test_single_leaf_document(self):
        t = single_leaf()
        c = score_pair(t, t)
        assert c.triple("span") == (1, 1, 1)
        assert c.triple("nuclearity") == (0, 0, 0)
        assert c.triple("relation") == (0, 0, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            score_pair(single_leaf(), make_tree(2, {(0, 2): 1}))

    def test_matched_bounded_by_totals(self):
        rng = np.random.default_rng(0)
        vocab = RelationVocab(["A", "B"])
        for _ in range(30):
            n = int(rng.integers(1, 10))
            pred = random_tree(n, vocab, rng)
            gold = random_tree(n, vocab, rng)
            c = score_pair(pred, gold)
            for m in ("span", "nuclearity", "relation"):
                matched, p, g = c.triple(m)
                assert 0 <= matched <= min(p, g)
            # label agreement can never exceed structural agreement
            assert c.nuc_matched <= c.span_matched
            assert c.rel_matched <= c.span_matched


class TestAggregate:
    def test_micro_pools_macro_averages(self):
        a = DocScore("a", PairCounts(rel_matched=9, rel_pred=9, rel_gold=9))
        b = DocScore("b", PairCounts(rel_matched=0, rel_pred=3, rel_gold=3))
        report = aggregate([a, b])
        assert report.micro["relation"] == 75.0
        assert report.macro["relation"] == 50.0

    def test_macro_skips_vacuous_documents(self):
        full = DocScore("a", PairCounts(nuc_matched=2, nuc_pred=2, nuc_gold=2))
        vac = DocScore("b", PairCounts())  # single-leaf doc: nothing internal
        report = aggregate([full, vac])
        assert report.macro["nuclearity"] == 100.0
        assert report.micro["nuclearity"] == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestEvaluateTrees:
    def test_identical_scores_hundred(self):
        rng = np.random.default_rng(1)
        vocab = RelationVocab(["A", "B", "C"])
        pairs = []
        for idx in range(5):
            n = int(rng.integers(2, 9))
            t = random_tree(n, vocab, rng)
            pairs.append(("doc%d" % idx, t, t))
        report = evaluate_trees(pairs)
        for m in ("span", "nuclearity", "relation"):
            assert report.micro[m] == 100.0
            assert report.macro[m] == 100.0

    def test_span_dominates_labeled_metrics(self):
        rng = np.random.default_rng(2)
        vocab = RelationVocab(["A", "B"])
        pairs = []
        for idx in range(10):
            n = int(rng.integers(2, 8))
            pairs.append(("d%d" % idx, random_tree(n, vocab, rng),
                          random_tree(n, vocab, rng)))
        report = evaluate_trees(pairs)
        assert report.micro["nuclearity"] <= report.micro["span"] + 1e-9
        assert report.micro["relation"] <= report.micro["span"] + 1e-9


class TestFormatting:
    def test_plain_report_has_metric_rows(self):
        t = make_tree(3, {(0, 3): 1, (1, 3): 2})
        report = evaluate_trees([("doc", t, t)])
        text = format_report(report)
        assert "Span" in text and "Nuclearity" in text and "Relation" in text
        assert "100.0" in text

    def test_per_doc_listing(self):
        t = make_tree(2, {(0, 2): 1})
        report = evaluate_trees([("mydoc", t, t)])
        assert "mydoc" in format_report(report, per_doc=True)
        assert "mydoc" not in format_report(report, per_doc=False)

    def test_machine_rows_are_tab_separated(self):
        t = make_tree(2, {(0, 2): 1})
        report = evaluate_trees([("doc", t, t)])
        rows = machine_rows(report)
        assert all(len(r.split("\t")) == 5 for r in rows)
        tags = {r.split("\t")[0] for r in rows}
        assert "doc" in tags and "<micro>" in tags and "<macro>" in tags
