"""Shared helpers for the test suite.

Keeps a brute-force tree enumerator here so both the unit tests and the
acceptance tests can check the chart decoders against an exhaustive search.
The enumeration order is deliberate: splits ascending, left subtree before
right, first maximum kept on ties. That is the same preference order the
CKY backtrace uses, so on tied scores the brute-force winner and the chart
winner are the same tree, not just the same score.

Also here, as the reference for the batched losses: the per-decision tape
composition the scorers used before, one input vector and one matvec per
decision and five tape nodes per hinge term.  Likewise the scalar exact
decoder loop and the recursive random_tree, the references for the batched
decoder and the iterative tree sampler; the dense-table build that sliced
its blocks from full-length (i, j, k) arrays, the reference for the build
from cell starts; the dense embedding gradient and dense Adam step, the
references for row gradients and Adam over touched rows; the row
gradient's dense form built with ``np.add.at``, the reference for the one
built by occurrence rank; the backward pass that copied every first
gradient it stored, the reference for the one that keeps them as they are;
and the one-direction LSTM op with the encoder composed from two of them,
the references for ``ops.bilstm``; and the greedy loop that scored every
state, forced shifts included, with the per-block projection list it read,
the references for the one-gather greedy parse and the stacked projections.
"""

import numpy as np

from rstparse import ops
from rstparse.chart import (
    _BLOCK_ROWS,
    ScoreTables,
    _backtrace,
    _cells,
    _empty_chart,
    _fill_leaves,
    _layout,
    _split_totals,
    chart_scores,
)
from rstparse.core import (
    INTERNAL_NUCLEARITIES,
    LEAF_RELATION,
    NUM_NUCLEARITIES,
    LabeledSpan,
    Nuclearity,
    RstTree,
)
from rstparse.encoder import (
    ACTION,
    NUC,
    REL,
    SPAN,
    Feedforward,
    RowFeedforward,
    encode_document,
    span_rep,
)
from rstparse.transition import (
    QUEUE_SLOTS,
    SLOTS,
    STACK_SLOTS,
    action_index,
    apply_action,
    finish,
    index_action,
    initial_state,
    is_terminal,
    legal_actions,
    legal_mask,
    oracle_actions,
    slot_rows,
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


def ref_decode_exact(n, scores):
    """The exact decoder as a scalar loop over (cell, split, relation,
    nuclearity), a strict > keeping the first maximum: the reference for
    chart.decode_exact's batched loop, which must give the same tree and
    the same score bit for bit."""
    t = chart_scores(n, scores).tables()
    best, bsplit, brel, bnuc = _empty_chart(n)
    _fill_leaves(t, best, brel, bnuc)
    for width in range(2, n + 1):
        totals = _split_totals(t.span, best, width).tolist()
        for i, pair in enumerate(totals):
            j = i + width
            # the cell's rows are contiguous, one per split k = i+1..j-1
            b0 = int(t.base[i, j])
            cell = slice(b0, b0 + width - 1)
            bv = float("-inf")
            bk = bl = bp = -1
            for k, stem, rrow, nrow in zip(range(i + 1, j), pair,
                                           t.rel[cell].tolist(),
                                           t.nuc[cell].tolist()):
                for l in range(1, t.n_rel):
                    vl = stem + rrow[l]
                    for p in range(3):
                        v = vl + nrow[p]
                        if v > bv:
                            bv = v
                            bk, bl, bp = k, l, p
            best[i, j] = bv
            bsplit[i, j] = bk
            brel[i, j] = bl
            bnuc[i, j] = bp
    return _backtrace(n, bsplit, brel, bnuc), float(best[0, n])


def ref_rows(n):
    """(i, j, k) of every label row in layout order, leaf rows with k = i,
    as three arrays of the table's length."""
    i, j, counts, starts = _cells(n)
    I = np.repeat(i, counts)
    J = np.repeat(j, counts)
    K = np.arange(int(counts.sum())) - np.repeat(starts, counts) + I + 1
    return I, J, np.where(J == I + 1, I, K)


def ref_dense_tables(s):
    """chart._dense_tables with each block's (i, j, k) sliced from ref_rows:
    the reference for the build from cell starts, which must ask for the
    same blocks and so give the same bits."""
    base, rows = _layout(s.n)
    I, J, K = ref_rows(s.n)
    rel = np.empty((rows, s.n_rel))
    nuc = np.empty((rows, NUM_NUCLEARITIES))
    for start in range(0, rows, _BLOCK_ROWS):
        sl = slice(start, start + _BLOCK_ROWS)
        rel[sl], nuc[sl] = s.labels(I[sl], J[sl], K[sl])
    return ScoreTables(s.n, s.n_rel, s.span, rel, nuc, base)


def ref_random_tree(n, rel_vocab, rng):
    """data.random_tree as it was first written, recursively: the reference
    for the order of its draws (k, relation, nuclearity per node, in
    pre-order, the left subtree before the right)."""
    spans = []
    splits = {}

    def build(i, j):
        if j == i + 1:
            spans.append(LabeledSpan(i, j, LEAF_RELATION, Nuclearity.LEAF))
            return
        k = int(rng.integers(i + 1, j))
        rel = int(rng.integers(1, rel_vocab.size))
        nuc = INTERNAL_NUCLEARITIES[int(rng.integers(0, 3))]
        spans.append(LabeledSpan(i, j, rel, nuc))
        splits[(i, j)] = k
        build(i, k)
        build(k, j)

    build(0, n)
    return RstTree(spans, n, splits)


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


def ref_greedy_parse(doc, params, enc=None):
    """transition.greedy_parse as it ran before it skipped forced shifts:
    every state scored through RowFeedforward's batch call with one-element
    index arrays, then the argmax over its legal_mask."""
    if enc is None:
        enc = encode_document(doc, params)
    M = enc.matrix()
    padded = np.vstack((M, np.zeros((1, M.shape[1]))))
    scorer = RowFeedforward(Feedforward(params, ACTION), padded, SLOTS)
    state = initial_state(doc.n)
    while not is_terminal(state):
        scores = scorer(*([r] for r in slot_rows(state)))[0]
        legal = legal_mask(state, params.n_actions)
        choice = int(np.argmax(np.where(legal, scores, -np.inf)))
        state = apply_action(state, index_action(choice, params.n_rel))
    return finish(state)


def ref_projections(ff, M, blocks):
    """RowFeedforward's projections as it made them before they were
    stacked: one fresh product per column block of the first layer."""
    d = M.shape[1]
    W1 = ff.W1.data
    return [M @ W1[:, b * d:(b + 1) * d].T for b in range(blocks)]


# --- dense embedding gradients and dense Adam -----------------------------

def ref_take_rows(a, index):
    """ops.take_rows with its gradient made dense in the VJP: np.add.at
    into a zeros array of the whole table."""
    index = np.asarray(index, dtype=np.intp)
    gathered = a.data[index]
    shape = a.data.shape

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, index, g.reshape(gathered.shape))
        return (out,)

    return ops.Tensor(gathered.reshape(index.shape[0], -1), (a,), vjp)


def ref_adam_step(arrays, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                  clip=None):
    """training.adam_step over dense gradients, every row of every array."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name!r} "
                                     f"at step {state.t + 1}")
    if clip is not None:
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > clip:
            factor = clip / norm
            grads = {k: g * factor for k, g in grads.items()}
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        arrays[name] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def ref_row_grad_dense(g):
    """RowGrad.dense with ``np.add.at`` into a zeros array."""
    out = np.zeros(g.shape)
    np.add.at(out, g.index, g.values)
    return out


# --- the one-direction LSTM ---------------------------------------------

def ref_lstm(W, b, X, hidden, reverse=False):
    """One LSTM direction over the rows of X (T, d); the (T, H) hidden states:
    the one-direction op the encoder ran before ops.bilstm, the reference
    for each half of it and for its gradients, which must match bit for bit.

    Step t computes z = W [x_t; h_{t-1}] + b with W of shape (4H, d + H),
    gates i, f, g, o in that order, c_t = f c_{t-1} + i g and
    h_t = o tanh(c_t), from zero states.  With ``reverse`` the rows are read
    last to first; row t of the result is still the state at x_t.

    The node keeps the activated gates and the cells, O(T (d + 6H)) floats
    with X and the result.  Its VJP is backpropagation through time written
    out (Werbos 1990): one backward sweep of T products with W's recurrent
    block, then dW = dZ^T [X | H_prev], db the column sum of dZ and
    dX = dZ W_x, where dZ holds the pre-activation gradients.
    """
    H = hidden
    w, bias = W.data, b.data
    xs = X.data[::-1] if reverse else X.data
    T, d = xs.shape
    if w.shape != (4 * H, d + H) or bias.shape != (4 * H,):
        raise ValueError(f"bad lstm shapes W {w.shape}, b {bias.shape} "
                         f"for input width {d} and hidden {H}")
    gates = np.empty((T, 4 * H))
    cells = np.empty((T, H))
    hs = np.empty((T, H))
    # Each step applies the ufuncs of matvec, add, sigmoid, tanh and mul in
    # their order, written into preallocated rows, so the states equal the
    # per-step composition bit for bit: sigmoid(z) = 1 / (1 + exp(-z)) on all
    # four blocks, then tanh over the g block.
    xh = np.zeros(d + H)                  # [x_t; h_{t-1}]
    z = np.empty(4 * H)
    tmp = np.empty(H)
    c = np.zeros(H)
    for t in range(T):
        xh[:d] = xs[t]
        np.matmul(w, xh, out=z)
        z += bias
        act = gates[t]
        np.negative(z, out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        np.tanh(z[2 * H:3 * H], out=act[2 * H:3 * H])
        np.multiply(act[H:2 * H], c, out=cells[t])
        np.multiply(act[:H], act[2 * H:3 * H], out=tmp)
        cells[t] += tmp
        c = cells[t]
        np.tanh(c, out=tmp)
        np.multiply(act[3 * H:], tmp, out=hs[t])
        xh[d:] = hs[t]

    def vjp(g_out):
        g_out = g_out[::-1] if reverse else g_out
        i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
        tanh_c = np.tanh(cells)
        c_prev = np.vstack((np.zeros((1, H)), cells[:-1]))
        h_prev = np.vstack((np.zeros((1, H)), hs[:-1]))
        # dZ_t = [dc_t * cell_in_t, dh_t * out_t] with the per-step factors
        # precomputed; only dh and dc carry across steps.
        cell_in = np.hstack((g * i * (1.0 - i), c_prev * f * (1.0 - f),
                             i * (1.0 - g * g))).reshape(T, 3, H)
        to_cell = o * (1.0 - tanh_c * tanh_c)
        out = tanh_c * o * (1.0 - o)
        w_h = np.ascontiguousarray(w[:, d:])
        dZ = np.empty((T, 4 * H))
        dZ_cell = dZ[:, :3 * H].reshape(T, 3, H)
        dh = np.zeros(H)                  # gradient reaching h_t from step t+1
        dc = np.zeros(H)                  # and reaching c_t from step t+1
        tmp = np.empty(H)
        for t in range(T - 1, -1, -1):
            dh += g_out[t]
            np.multiply(dh, to_cell[t], out=tmp)
            dc += tmp
            np.multiply(cell_in[t], dc, out=dZ_cell[t])
            np.multiply(out[t], dh, out=dZ[t, 3 * H:])
            np.matmul(dZ[t], w_h, out=dh)
            dc *= f[t]
        dW = dZ.T @ np.hstack((xs, h_prev))
        dX = dZ @ w[:, :d]
        return dW, dZ.sum(axis=0), dX[::-1] if reverse else dX

    return ops.Tensor(hs[::-1] if reverse else hs, (W, b, X), vjp)


def ref_encode_document(doc, params, masks=None):
    """encoder.encode_document as it ran before ops.bilstm: one reference
    LSTM node per direction and a column concat of their states."""
    tensors = params.tensors()
    words = [params.word_vocab.lookup(tok)
             for edu in doc.edus for tok in edu.tokens]
    tags = [params.pos_vocab.lookup(tag)
            for edu in doc.edus for tag in edu.pos_tags]
    parts = [ops.take_rows(tensors["word_emb"], words)]
    if params.pretrained is not None:
        parts.append(ops.tensor(params.pretrained[words]))
    parts.append(ops.take_rows(tensors["pos_emb"], tags))
    X = ops.concat(parts, axis=1)
    fwd = ref_lstm(tensors["lstm_fwd.W"], tensors["lstm_fwd.b"], X,
                   params.hidden)
    bwd = ref_lstm(tensors["lstm_bwd.W"], tensors["lstm_bwd.b"], X,
                   params.hidden, reverse=True)
    lengths = np.array([len(edu.tokens) for edu in doc.edus])
    last = np.cumsum(lengths) - 1
    first = last - lengths + 1
    edus = ops.take_rows(ops.concat([fwd, bwd], axis=1),
                         np.stack((first, last), axis=1))
    if masks is not None:
        edus = ops.cmul(edus, masks.edu)
    return edus


# --- the copying backward pass --------------------------------------------

def ref_backward(root):
    """ops.backward storing a copy of every first gradient of an op node and
    adding later ones into that copy in place."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads = {id(root): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None and isinstance(g, ops.RowGrad):
                node.grad = g
                continue
            node.grad = (np.zeros(node.data.shape) if node.grad is None
                         else ops.dense(node.grad))
            node.grad += ops.dense(g)
            continue
        for parent, pg in zip(node._parents, node._vjp(ops.dense(g))):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = (pg if isinstance(pg, ops.RowGrad) else
                                     np.asarray(pg, dtype=np.float64).copy())
            else:
                acc = grads[id(parent)] = ops.dense(acc)
                acc += ops.dense(pg)


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
