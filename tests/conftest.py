"""Shared helpers for the test suite.

Keeps a brute-force tree enumerator here so both the unit tests and the
acceptance tests can check the chart decoders against an exhaustive search.
The enumeration order is deliberate: splits ascending, left subtree before
right, first maximum kept on ties. That is the same preference order the
CKY backtrace uses, so on tied scores the brute-force winner and the chart
winner are the same tree, not just the same score.

Also here, as the reference for the batched losses: the per-decision tape
composition the scorers used before, one input vector and one matvec per
decision and five tape nodes per hinge term, with the tape ops only it
uses (``ref_matvec``, ``ref_pick``, ``ref_row``, ``ref_narrow``,
``ref_mul``, ``ref_tanh`` and ``ref_sigmoid``), the span representation
and the list of legal actions it reads; these references, and the greedy
loop below with its ``ref_apply``, spell out the action layout (SHIFT 0,
REDUCE(r, p) 1 + 3 (r - 1) + p) themselves, not through the code they
check.  Likewise the scalar exact
decoder loop and the recursive random_tree, the references for the batched
decoder and the iterative tree sampler; the dense-table build that asked
``labels`` for each block's rows, the reference for the blocks built from
factored partial sums; the out-of-place second layer, the reference for
the one run in place; the dense embedding gradient and dense Adam step
with its own dense state (``RefAdamState``), the references for row
gradients and for Adam state made where gradients reach, which
``dense_moments`` reads back as dense m and v; the row
gradient's dense form built with ``np.add.at``, the reference for the one
built by occurrence rank; the backward pass that copied every first
gradient it stored, the reference for the one that keeps them as they are;
and the one-direction LSTM op with the encoder composed from two of them,
the references for ``ops.bilstm``; and the greedy loop that scored every
state, forced shifts included, with the per-block projection list it read,
the references for the one-gather greedy parse and the stacked projections;
and each label scorer run on its own projections (``ref_label_rows``), the
reference for the relation and nuclearity scorers stacked into one;
and the greedy loop that made a ``legal_mask`` and an ``np.where`` copy of
the scores at every state (``ref_greedy_masked``), the reference for the
one that reads ``legal_moves``;
and the split totals read with 2-D fancy indexing, the reference for the
flat-offset kernel the decoders share; and the partial decoder that asked
``labels`` for each width's (i, j, k) rows (``ref_decode_partial``), the
reference for the one that asks ``width_labels``; and the ``.edus`` token
split that found the separator, then unescaped each half
(``ref_split_token``), and the ``.tree`` parser over a per-character lexer
that kept every token's line and column (``ref_parse_tree_text``), the
references for the one-pass token scanner and the regex lexer; and the
``.edus`` writer that checked each token for whitespace a character at a
time (``ref_serialize_edus``), the reference for the one that searches each
EDU once.  ``single_leaf``, ``queue``, ``span_count`` and
``tree_structures_count`` are conveniences only the tests read.
"""

import math

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
    _row_cells,
    _tree_cells,
    chart_scores,
)
from rstparse.core import (
    INTERNAL_NUCLEARITIES,
    LEAF_RELATION,
    LEAF_RELATION_NAME,
    NUM_NUCLEARITIES,
    LabeledSpan,
    Nuclearity,
    RelationVocab,
    RstTree,
    validate_tree,
)
from rstparse.data import (
    EduCountMismatchError,
    TreeInvariantError,
    TreeSyntaxError,
    UnknownRelationError,
)
from rstparse.encoder import (
    ACTION,
    NUC,
    QUEUE_SLOTS,
    REL,
    SLOTS,
    SPAN,
    STACK_SLOTS,
    RowFeedforward,
    encode_document,
)
from rstparse.transition import (
    ParserState,
    apply_action,
    finish,
    initial_state,
    is_terminal,
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


def single_leaf():
    """The one tree over a single EDU."""
    return RstTree([LabeledSpan(0, 1, LEAF_RELATION, Nuclearity.LEAF)], 1, {})


def queue(state):
    """1-based indices of the EDUs a parser state has still to shift."""
    return range(state.shifted + 1, state.n + 1)


def span_count(n: int) -> int:
    """Number of spans in a binary tree over n EDUs (2n - 1)."""
    if n < 1:
        raise ValueError("need at least one EDU")
    return 2 * n - 1


def tree_structures_count(n: int) -> int:
    """Number of distinct binary tree structures over n leaves (Catalan(n - 1))."""
    if not 1 <= n <= 16:
        raise ValueError("n out of supported range 1..16")
    m = n - 1
    return math.comb(2 * m, m) // (m + 1)


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


def ref_split_totals(span, best, width):
    """chart._split_totals with 2-D fancy indexing: span(i,k) + span(k,j) +
    best(i,k) + best(k,j) for the cells (i, i + width), one row per i, one
    column per split k; the reference for the kernel that reads the charts
    through strided views of their buffers, which must add in the same
    order."""
    i = np.arange(span.shape[0] - width)[:, None]
    ks = i + np.arange(1, width)
    j = i + width
    return span[i, ks] + span[ks, j] + best[i, ks] + best[ks, j]


def ref_decode_exact(n, scores):
    """The exact decoder as a scalar loop over (cell, split, relation,
    nuclearity), a strict > keeping the first maximum: the reference for
    chart.decode_exact's batched loop, which must give the same tree and
    the same score bit for bit."""
    t = chart_scores(n, scores).tables()
    best, bsplit, brel, bnuc = _empty_chart(n)
    leaf = np.arange(n)
    _fill_leaves(best, brel, bnuc, *t.labels(leaf, leaf + 1, leaf))
    for width in range(2, n + 1):
        totals = ref_split_totals(t.span, best, width).tolist()
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
    return _backtrace(n, _tree_cells(n, bsplit), brel, bnuc), float(best[0, n])


def ref_decode_partial(n, scores):
    """chart.decode_partial as it ran before it asked for one width's rows
    with ``width_labels``: the leaf rows, then each width's rows at the
    splits it chose, asked of ``labels`` with (i, j, k) index arrays, its
    split totals made by ref_split_totals.  The reference for the decoder's
    trees and scores, bit for bit."""
    s = chart_scores(n, scores)
    best, bsplit, brel, bnuc = _empty_chart(n)
    i = np.arange(n)
    _fill_leaves(best, brel, bnuc, *s.labels(i, i + 1, i))
    for width in range(2, n + 1):
        pair = ref_split_totals(s.span, best, width)
        x = np.argmax(pair, axis=1)
        i = np.arange(len(x))
        k = i + 1 + x
        rel, nuc = s.labels(i, i + width, k)
        l = 1 + np.argmax(rel[:, 1:], axis=1)
        p = np.argmax(nuc[:, :3], axis=1)
        j = i + width
        best[i, j] = pair[i, x] + rel[i, l] + nuc[i, p]
        bsplit[i, j] = k
        brel[i, j] = l
        bnuc[i, j] = p
    return _backtrace(n, _tree_cells(n, bsplit), brel, bnuc), float(best[0, n])


def ref_dense_tables(s):
    """The dense ScoreTables of chart scorer s: its span table, and every
    label row asked of ``s.labels`` in _BLOCK_ROWS blocks, in layout order.

    Each block's (i, j, k) come from the O(n^2) cell starts, so nothing of
    the table's length is held beside it.  The blocks must stay as they are:
    a label row's last bit can depend on the size of the batch it was
    scored in (BLAS picks its matmul kernel by the product's size).
    """
    cells = _cells(s.n)
    base, rows = _layout(s.n)
    rel = np.empty((rows, s.n_rel))
    nuc = np.empty((rows, NUM_NUCLEARITIES))
    for start in range(0, rows, _BLOCK_ROWS):
        sl = slice(start, min(start + _BLOCK_ROWS, rows))
        block = np.arange(sl.start, sl.stop)
        rel[sl], nuc[sl] = s.labels(*_row_cells(cells, block))
    return ScoreTables(s.n, s.n_rel, s.span, rel, nuc, base)


def ref_output_np(params, name, Z, mask=None):
    """The second layer of scorer ``name`` (RowFeedforward.output) as it was
    written out of place: Z is left as it is."""
    a = params.arrays
    H = np.maximum(Z + a[f"{name}.b1"], 0.0)
    if mask is not None:
        H = H * mask
    return H @ a[f"{name}.W2"].T + a[f"{name}.b2"]


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


# --- corpus text: the two-pass token split and per-character tree lexer --

def ref_unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def ref_split_token(item: str, line: int, column: int) -> tuple[str, str]:
    """Split ``word_POS`` at the last unescaped underscore."""
    sep = -1
    i = 0
    while i < len(item):
        if item[i] == "\\":
            i += 2
            continue
        if item[i] == "_":
            sep = i
        i += 1
    if sep <= 0 or sep == len(item) - 1:
        raise TreeSyntaxError(f"token {item!r} is not a word_POS pair", line, column)
    return ref_unescape(item[:sep]), ref_unescape(item[sep + 1:])


def ref_serialize_edus(edus) -> str:
    """data.serialize_edus as first written, each token and tag checked for
    whitespace with a per-character generator: the reference for the one
    regex search per EDU."""
    def escape(text):
        return text.replace("\\", "\\\\").replace("_", "\\_")

    lines = []
    for edu in edus:
        for tok, tag in zip(edu.tokens, edu.pos_tags):
            if not tok or not tag or any(c.isspace() for c in tok + tag):
                raise ValueError(f"token/tag {tok!r}/{tag!r} not serializable")
        lines.append(" ".join(f"{escape(t)}_{escape(p)}"
                              for t, p in zip(edu.tokens, edu.pos_tags)))
    return "\n".join(lines) + "\n"


def ref_tokenize_sexpr(text: str):
    """Yield (token, line, column) with parens as their own tokens."""
    line, col = 1, 1
    buf = ""
    buf_pos = (1, 1)
    for c in text:
        if c in "()" or c.isspace():
            if buf:
                yield buf, *buf_pos
                buf = ""
            if c in "()":
                yield c, line, col
        else:
            if not buf:
                buf_pos = (line, col)
            buf += c
        if c == "\n":
            line += 1
            col = 1
        else:
            col += 1
    if buf:
        yield buf, *buf_pos


def ref_parse_tree_text(text: str, rel_vocab: RelationVocab,
                        n_edus: int | None = None) -> RstTree:
    """Parse one bracketed tree; checks labels and the span invariants."""
    tokens = list(ref_tokenize_sexpr(text))
    if not tokens:
        raise TreeSyntaxError("empty tree file", 1, 0)

    pos = 0

    def take(what: str, want: str | None = None):
        """The next token with its line and column; it must be ``want``
        when that is given."""
        nonlocal pos
        if pos >= len(tokens):
            raise TreeSyntaxError(f"expected {what}, found end of input",
                                  tokens[-1][1], tokens[-1][2])
        tok, line, col = tokens[pos]
        if want is not None and tok != want:
            raise TreeSyntaxError(f"expected {what}, found {tok!r}", line, col)
        pos += 1
        return tok, line, col

    spans: list[LabeledSpan] = []
    splits: dict[tuple[int, int], int] = {}
    # [nuclearity, relation] of each internal node whose ')' is still to
    # come, plus its left child's span once that is read.  A loop over this
    # stack instead of recursion reads trees of any depth.
    open_nodes: list[list] = []
    while True:
        take("'('", "(")
        head, line, col = take("node head")
        if head != LEAF_RELATION_NAME:
            if head not in ("NN", "NS", "SN"):
                raise TreeSyntaxError(f"expected NN, NS, SN or {LEAF_RELATION_NAME},"
                                      f" found {head!r}", line, col)
            nuc = Nuclearity[head]
            rel_name, rline, rcol = take("relation label")
            try:
                rel = rel_vocab.index(rel_name)
            except KeyError:
                raise UnknownRelationError(
                    f"line {rline}, column {rcol}: unknown relation label {rel_name!r}"
                ) from None
            if rel == LEAF_RELATION:
                raise UnknownRelationError(
                    f"line {rline}, column {rcol}: reserved label on internal node")
            open_nodes.append([nuc, rel])
            continue
        num, nline, ncol = take("EDU number")
        if not num.isdigit() or int(num) < 1:
            raise TreeSyntaxError(f"bad EDU number {num!r}", nline, ncol)
        k = int(num)
        take("')'", ")")
        spans.append(LabeledSpan(k - 1, k, LEAF_RELATION, Nuclearity.LEAF))
        done = (k - 1, k)
        # Close every open node whose second child this completes.
        while open_nodes and len(open_nodes[-1]) == 3:
            nuc, rel, left = open_nodes.pop()
            if left[1] != done[0]:
                raise TreeInvariantError(
                    f"children spans {left} and {done} are not adjacent")
            take("')'", ")")
            i, j = left[0], done[1]
            spans.append(LabeledSpan(i, j, rel, nuc))
            splits[(i, j)] = left[1]
            done = (i, j)
        if not open_nodes:
            root = done
            break
        open_nodes[-1].append(done)

    if pos != len(tokens):
        tok, line, col = tokens[pos]
        raise TreeSyntaxError(f"trailing content {tok!r}", line, col)

    n = root[1]
    if root[0] != 0:
        raise TreeInvariantError(f"root span {root} does not start at 0")
    if n_edus is not None and n != n_edus:
        raise EduCountMismatchError(
            f"tree covers {n} EDUs but the document has {n_edus}")
    tree = RstTree(spans, n, splits)
    err = validate_tree(tree)
    if err is not None:
        raise TreeInvariantError(err)
    return tree


# --- the per-decision tape ops --------------------------------------------

def ref_mul(a, b):
    """Elementwise product of two tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    return ops.Tensor(a.data * b.data, (a, b),
                      lambda g: (g * b.data, g * a.data))


def ref_matvec(w, x):
    """(m, k) @ (k,) -> (m,)."""
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        raise ValueError(f"bad matvec shapes {w.data.shape} @ {x.data.shape}")
    return ops.Tensor(w.data @ x.data, (w, x),
                      lambda g: (np.outer(g, x.data), w.data.T @ g))


def _scatter(shape, index):
    """The VJP of reading a[index] from an array of ``shape``."""
    def vjp(g):
        out = np.zeros(shape)
        out[index] = g
        return (out,)
    return vjp


def ref_narrow(a, start, stop):
    """Contiguous slice of a 1-D tensor."""
    size = a.data.shape[0]
    if not 0 <= start <= stop <= size:
        raise ValueError(f"narrow [{start}:{stop}] out of bounds for size {size}")
    return ops.Tensor(a.data[start:stop], (a,),
                      _scatter(size, slice(start, stop)))


def ref_pick(a, index):
    """Scalar element of a 1-D tensor."""
    return ops.Tensor(a.data[index], (a,), _scatter(a.data.shape, index))


def ref_row(a, index):
    """One row of a 2-D tensor."""
    return ops.Tensor(a.data[index], (a,), _scatter(a.data.shape, index))


def ref_tanh(a):
    out = np.tanh(a.data)
    return ops.Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def ref_sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))
    return ops.Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


def ref_span_rep(enc, i, j):
    """Span (i, j) covers EDUs i+1..j (1-based); its rep is the rows of its
    first and last EDU in the EDU node ``enc``, concatenated."""
    n = enc.shape[0]
    if not 0 <= i < j <= n:
        raise ValueError(f"span ({i}, {j}) out of range for {n} EDUs")
    return ops.concat([ref_row(enc, i), ref_row(enc, j - 1)])


def ref_action(span):
    """The index of the action that built ``span``, the layout spelled out:
    SHIFT is 0, REDUCE(r, p) is 1 + 3 (r - 1) + p."""
    if span.is_leaf:
        return 0
    return 1 + 3 * (span.relation - 1) + int(span.nuclearity)


def ref_legal_actions(state, n_rel):
    """Legal action indices in order: SHIFT, then every REDUCE variant."""
    out = []
    if state.shifted < state.n:
        out.append(0)
    if len(state.stack) >= 2:
        for rel in range(1, n_rel):
            for nuc in INTERNAL_NUCLEARITIES:
                out.append(1 + 3 * (rel - 1) + int(nuc))
    return out


def ref_apply(state, action):
    """apply_action with the layout spelled out: 0 shifts, 1 + 3 (r - 1) + p
    reduces the top two stack spans under relation r and nuclearity p."""
    if action == 0:
        return apply_action(state, 0)
    (i, k), (_, j) = state.stack[-2:]
    rel, nuc = divmod(action - 1, 3)
    span = LabeledSpan(i, j, rel + 1, Nuclearity(nuc))
    return ParserState(state.n, state.stack[:-2] + ((i, j),), state.shifted,
                       state.spans + (span,), state.splits + (((i, j), k),))


# --- the per-decision tape composition ------------------------------------

def ref_feedforward(params, name, x, masks=None):
    """W2 relu(W1 x + b1) + b2 for one input vector x, one node per step."""
    t = params.tensors()
    h = ops.relu(ops.add(ref_matvec(t[f"{name}.W1"], x), t[f"{name}.b1"]))
    if masks is not None:
        h = ops.cmul(h, masks.hidden[name])
    return ops.add(ref_matvec(t[f"{name}.W2"], h), t[f"{name}.b2"])


def ref_pair_rep(enc, i, j, k):
    """Labeling input: child reps for internal spans, own rep twice for
    leaves (k == i)."""
    if k == i:
        own = ref_span_rep(enc, i, j)
        return ops.concat([own, own])
    return ops.concat([ref_span_rep(enc, i, k), ref_span_rep(enc, k, j)])


def ref_score_span(params, enc, i, j, masks=None):
    return ref_pick(ref_feedforward(params, SPAN, ref_span_rep(enc, i, j),
                                    masks), 0)


def ref_score_rel(params, enc, i, j, k, masks=None):
    return ref_feedforward(params, REL, ref_pair_rep(enc, i, j, k), masks)


def ref_score_nuc(params, enc, i, j, k, masks=None):
    return ref_feedforward(params, NUC, ref_pair_rep(enc, i, j, k), masks)


def ref_score_tree_symbolic(tree, params, enc, masks=None):
    terms = []
    for i, j, k, l, p in tree.internal_items():
        terms.append(ref_score_span(params, enc, i, k, masks))
        terms.append(ref_score_span(params, enc, k, j, masks))
        terms.append(ref_pick(ref_score_rel(params, enc, i, j, k, masks), l))
        terms.append(ref_pick(ref_score_nuc(params, enc, i, j, k, masks), int(p)))
    for i, l, p in tree.leaf_items():
        terms.append(ref_pick(ref_score_rel(params, enc, i, i + 1, i, masks), l))
        terms.append(ref_pick(ref_score_nuc(params, enc, i, i + 1, i, masks), int(p)))
    return ops.addn(terms)


def ref_state_rep(state, enc):
    """Top stack spans (8H each) then front queue EDUs (4H each), zero-padded."""
    h = enc.shape[1]
    parts = []
    for slot in range(STACK_SLOTS):
        if slot < len(state.stack):
            i, j = state.stack[-1 - slot]
            parts.append(ref_span_rep(enc, i, j))
        else:
            parts.append(ops.zeros(2 * h))
    for slot in range(QUEUE_SLOTS):
        edu = state.shifted + slot
        parts.append(ref_row(enc, edu) if edu < state.n else ops.zeros(h))
    return ops.concat(parts)


def ref_score_actions(state, enc, params, masks=None):
    return ref_feedforward(params, ACTION, ref_state_rep(state, enc), masks)


def ref_transition_loss(doc, params, enc, masks):
    n_rel = params.n_rel
    terms = []
    state = initial_state(doc.n)
    for gold_action in oracle_actions(doc.gold):
        scores = ref_score_actions(state, enc, params, masks)
        after = apply_action(state, gold_action)
        star = ref_pick(scores, ref_action(after.spans[-1]))
        for a in ref_legal_actions(state, n_rel):
            margin = ops.add(ref_pick(scores, a), ops.scale(star, -1.0))
            terms.append(ops.relu(ops.shift(margin, 1.0)))
        state = after
    assert is_terminal(state)
    return ops.scale(ops.addn(terms), 1.0 / params.n_actions)


def ref_greedy_parse(doc, params, enc=None):
    """transition.greedy_parse as it ran before it skipped forced shifts:
    every state scored through RowFeedforward's batch call with one-element
    index arrays, then the first best of its ref_legal_actions, applied
    through ref_apply."""
    if enc is None:
        enc = encode_document(doc, params)
    M = enc.data
    padded = np.vstack((M, np.zeros((1, M.shape[1]))))
    scorer = RowFeedforward(params, ACTION, padded, SLOTS)
    state = initial_state(doc.n)
    while not is_terminal(state):
        scores = scorer(*([r] for r in slot_rows(state)))[0]
        legal = ref_legal_actions(state, params.n_rel)
        choice = legal[int(np.argmax(scores[legal]))]
        state = ref_apply(state, choice)
    return finish(state)


def ref_greedy_masked(doc, params):
    """transition.greedy_parse as it ran before it read legal_moves: a
    legal_mask array for every state, unscored while no REDUCE is legal,
    and the argmax over an np.where copy of the scores with -inf on the
    illegal actions."""
    M = encode_document(doc, params).data
    padded = np.vstack((M, np.zeros((1, M.shape[1]))))
    scorer = RowFeedforward(params, ACTION, padded, SLOTS)
    state = initial_state(doc.n)
    while not is_terminal(state):
        legal = legal_mask(state, params.n_actions)
        choice = 0
        if legal[-1]:
            scores = scorer.one(slot_rows(state))[0]
            choice = int(np.argmax(np.where(legal, scores, -np.inf)))
        state = ref_apply(state, choice)
    return finish(state)


def ref_projections(params, name, M, blocks):
    """RowFeedforward's projections as it made them before they were
    stacked: one fresh product per column block of the first layer."""
    d = M.shape[1]
    W1 = params.arrays[f"{name}.W1"]
    return [M @ W1[:, b * d:(b + 1) * d].T for b in range(blocks)]


def ref_label_rows(params, M, rows, masks=None):
    """The relation and nuclearity rows of the label inputs ``rows`` (one
    index array per block, as chart._label_rows gives them) as
    NeuralOracle.labels made them before the two scorers' first layers were
    stacked: each scorer on its own, from its own per-block projections
    (ref_projections), its gathered rows summed in block order, then its
    out-of-place second layer (ref_output_np)."""
    out = []
    for name in (REL, NUC):
        P = ref_projections(params, name, M, 4)
        Z = P[0][rows[0]]
        for b in range(1, 4):
            Z = Z + P[b][rows[b]]
        out.append(ref_output_np(params, name, Z,
                                 None if masks is None else masks.hidden[name]))
    return tuple(out)


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


class RefAdamState:
    """The reference's own Adam state: dense m and v for every array."""

    def __init__(self, arrays):
        self.t = 0
        self.m = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.v = {k: np.zeros_like(a) for k, a in arrays.items()}


def dense_moments(state, arrays):
    """An ``AdamState``'s m and v as dense arrays of every array's shape:
    its dense moments, its row stores' rows scattered into zeros, and zeros
    for an array without state."""
    out = ({}, {})
    for name, a in arrays.items():
        store = state.rows.get(name)
        for moments, dense in zip(out, (state.m, state.v)):
            moments[name] = (dense[name].copy() if name in dense
                             else np.zeros_like(a))
        if store is not None:
            assert name not in state.m
            rows = store.rows[:store.n]
            assert np.unique(rows).size == rows.size
            np.testing.assert_array_equal(store.slot[rows],
                                          np.arange(store.n))
            assert (store.slot >= 0).sum() == store.n
            out[0][name][rows] = store.m[:store.n]
            out[1][name][rows] = store.v[:store.n]
    return out


def touched_rows(state, name):
    """The rows of ``name`` in an ``AdamState``'s row store, ascending."""
    store = state.rows[name]
    return np.sort(store.rows[:store.n])


def ref_adam_step(arrays, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                  clip=None):
    """training.adam_step over dense gradients, every row of every array,
    with a ``RefAdamState``."""
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
