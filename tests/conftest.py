"""Shared helpers for the test suite.

Keeps a brute-force tree enumerator here so both the unit tests and the
acceptance tests can check the chart decoders against an exhaustive search.
The enumeration order is deliberate: splits ascending, left subtree before
right, first maximum kept on ties. That is the same preference order the
CKY backtrace uses, so on tied scores the brute-force winner and the chart
winner are the same tree, not just the same score.
"""

import numpy as np

from rstparse.core import LEAF_RELATION, LabeledSpan, Nuclearity, RstTree


def make_tree(n, splits, labels=None):
    """Tree from a split map; labels default to relation 1 / NN internally."""
    labels = labels or {}
    spans = []

    def rec(i, j):
        if j == i + 1:
            rel, nuc = labels.get((i, j), (LEAF_RELATION, Nuclearity.LEAF))
            spans.append(LabeledSpan(i, j, rel, nuc))
            return
        k = splits[(i, j)]
        rel, nuc = labels.get((i, j), (1, Nuclearity.NN))
        spans.append(LabeledSpan(i, j, rel, nuc))
        rec(i, k)
        rec(k, j)

    rec(0, n)
    return RstTree(spans, n, splits)


def chain_tree(n, right=True, n_labels=3):
    """The right-branching (or left-branching) tree over n EDUs, built
    without recursion so that n can be in the thousands.  Every internal
    span splits one EDU off its left (or right) end; relations and
    nuclearities vary along the chain."""
    spans = [LabeledSpan(i, i + 1, LEAF_RELATION, Nuclearity.LEAF)
             for i in range(n)]
    splits = {}
    for m in range(2, n + 1):
        i, j = (n - m, n) if right else (0, m)
        splits[(i, j)] = i + 1 if right else j - 1
        spans.append(LabeledSpan(i, j, 1 + m % n_labels,
                                 (Nuclearity.NN, Nuclearity.NS,
                                  Nuclearity.SN)[m % 3]))
    return RstTree(spans, n, splits)


def enumerate_splits(i, j):
    if j == i + 1:
        yield {}
        return
    for k in range(i + 1, j):
        for left in enumerate_splits(i, k):
            for right in enumerate_splits(k, j):
                out = {(i, j): k}
                out.update(left)
                out.update(right)
                yield out


def best_tree_for_structure(splits, n, tabs):
    """Best labeling of one fixed structure, scored the same way as score_tree."""
    spans = []
    total = 0.0
    for i in range(n):
        if (i, i + 1) in splits:
            continue
        row = tabs.row_index(i, i + 1, i)
        rel = int(np.argmax(tabs.rel[row]))
        nuc = int(np.argmax(tabs.nuc[row]))
        total += tabs.rel[row, rel] + tabs.nuc[row, nuc]
        if (i, i + 1) != (0, n):
            total += tabs.s_span(i, i + 1)
        spans.append(LabeledSpan(i, i + 1, rel, Nuclearity(nuc)))
    for (i, j), k in splits.items():
        row = tabs.row_index(i, j, k)
        rel = 1 + int(np.argmax(tabs.rel[row, 1:]))
        nuc = int(np.argmax(tabs.nuc[row, :3]))
        total += tabs.rel[row, rel] + tabs.nuc[row, nuc]
        if (i, j) != (0, n):
            total += tabs.s_span(i, j)
        spans.append(LabeledSpan(i, j, rel, Nuclearity(nuc)))
    return RstTree(frozenset(spans), n, dict(splits)), total


def brute_force_best(n, tabs):
    """Exhaustive maximum over every tree, matching the chart tie-breaks."""
    best_tree = None
    best_score = -np.inf
    for splits in enumerate_splits(0, n):
        tree, score = best_tree_for_structure(splits, n, tabs)
        if score > best_score:
            best_score = score
            best_tree = tree
    return best_tree, best_score


def random_gold_tree(n, n_rel, rng):
    """Random tree with labels drawn over the real relation range."""
    from rstparse.core import RelationVocab
    from rstparse.data import random_tree

    names = ["R%d" % i for i in range(1, n_rel)]
    vocab = RelationVocab(names)
    return random_tree(n, vocab, rng)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" not in getattr(rep, "nodeid", ""):
                continue
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            name = rep.nodeid.split("::")[-1]
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((name, status))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(set(lines)):
            terminalreporter.write_line("%s  %s" % (status, name))
