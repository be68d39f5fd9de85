"""Shared helpers for the test suite.

Keeps a brute-force tree enumerator here so both the unit tests and the
acceptance tests can check the chart decoders against an exhaustive search.
The enumeration order is deliberate: splits ascending, left subtree before
right, first maximum kept on ties. That is the same preference order the
CKY backtrace uses, so on tied scores the brute-force winner and the chart
winner are the same tree, not just the same score.

Also here, as the reference for the batched losses: the per-decision tape
composition the scorers used before, one input vector and one matvec per
decision and five tape nodes per hinge term.
"""

import numpy as np

from rstparse import ops
from rstparse.core import LEAF_RELATION, LabeledSpan, Nuclearity, RstTree
from rstparse.encoder import ACTION, NUC, REL, SPAN, Feedforward, span_rep
from rstparse.transition import (
    QUEUE_SLOTS,
    STACK_SLOTS,
    action_index,
    apply_action,
    initial_state,
    is_terminal,
    legal_actions,
    oracle_actions,
)


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
            total += float(tabs.span[i, i + 1])
        spans.append(LabeledSpan(i, i + 1, rel, Nuclearity(nuc)))
    for (i, j), k in splits.items():
        row = tabs.row_index(i, j, k)
        rel = 1 + int(np.argmax(tabs.rel[row, 1:]))
        nuc = int(np.argmax(tabs.nuc[row, :3]))
        total += tabs.rel[row, rel] + tabs.nuc[row, nuc]
        if (i, j) != (0, n):
            total += float(tabs.span[i, j])
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


# --- the per-decision tape composition ------------------------------------

def ref_feedforward(params, name, x, masks=None):
    """W2 relu(W1 x + b1) + b2 for one input vector x, one node per step."""
    ff = Feedforward(params, name)
    h = ops.relu(ops.add(ops.matvec(ff.W1, x), ff.b1))
    if masks is not None:
        h = ops.cmul(h, masks.hidden_for(name))
    return ops.add(ops.matvec(ff.W2, h), ff.b2)


def ref_pair_rep(enc, i, j, k):
    """Labeling input: child reps for internal spans, own rep twice for
    leaves (k == i)."""
    if k == i:
        own = span_rep(enc, i, j)
        return ops.concat([own, own])
    return ops.concat([span_rep(enc, i, k), span_rep(enc, k, j)])


def ref_score_span(params, enc, i, j, masks=None):
    return ops.pick(ref_feedforward(params, SPAN, span_rep(enc, i, j), masks), 0)


def ref_score_rel(params, enc, i, j, k, masks=None):
    return ref_feedforward(params, REL, ref_pair_rep(enc, i, j, k), masks)


def ref_score_nuc(params, enc, i, j, k, masks=None):
    return ref_feedforward(params, NUC, ref_pair_rep(enc, i, j, k), masks)


def ref_score_tree_symbolic(tree, params, enc, masks=None):
    terms = []
    for i, j, k, l, p in tree.internal_items():
        terms.append(ref_score_span(params, enc, i, k, masks))
        terms.append(ref_score_span(params, enc, k, j, masks))
        terms.append(ops.pick(ref_score_rel(params, enc, i, j, k, masks), l))
        terms.append(ops.pick(ref_score_nuc(params, enc, i, j, k, masks), int(p)))
    for i, l, p in tree.leaf_items():
        terms.append(ops.pick(ref_score_rel(params, enc, i, i + 1, i, masks), l))
        terms.append(ops.pick(ref_score_nuc(params, enc, i, i + 1, i, masks), int(p)))
    return ops.addn(terms)


def ref_state_rep(state, enc):
    """Top stack spans (8H each) then front queue EDUs (4H each), zero-padded."""
    h = enc.matrix().shape[1]
    parts = []
    for slot in range(STACK_SLOTS):
        if slot < len(state.stack):
            i, j = state.stack[-1 - slot]
            parts.append(span_rep(enc, i, j))
        else:
            parts.append(ops.zeros(2 * h))
    for slot in range(QUEUE_SLOTS):
        edu = state.shifted + slot
        parts.append(enc.edus[edu] if edu < state.n else ops.zeros(h))
    return ops.concat(parts)


def ref_score_actions(state, enc, params, masks=None):
    return ref_feedforward(params, ACTION, ref_state_rep(state, enc), masks)


def ref_transition_loss(doc, params, masks, enc):
    n_rel = params.n_rel
    terms = []
    state = initial_state(doc.n)
    for gold_action in oracle_actions(doc.gold):
        scores = ref_score_actions(state, enc, params, masks)
        star = ops.pick(scores, action_index(gold_action, n_rel))
        for a in legal_actions(state, n_rel):
            s_a = ops.pick(scores, action_index(a, n_rel))
            terms.append(ops.relu((s_a - star) + 1.0))
        state = apply_action(state, gold_action)
    assert is_terminal(state)
    return ops.scale(ops.addn(terms), 1.0 / params.n_actions)


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
