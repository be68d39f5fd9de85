"""Global discourse parsing on a span chart.

Three bottom-up decoders share one score layout:

* exact: every cell maximizes jointly over split point and both labels.
  Per span width, the cells x splits form one numpy batch, and Python loops
  over the label pairs outside it, so the cost still grows with the label
  set.  It holds its dense table and O(n^2) more (_exact_bytes), bounded by
  EXACT_MEMORY_LIMIT; a larger document raises ExactTooLarge before any
  table is built.
* partial: each cell picks its split from span + subtree scores alone, then
  labels that split.  Same optimum whenever label scores do not disagree with
  span scores about the split; much cheaper when the label set is large.
* complete: the whole structure is chosen from span scores only, labels are
  filled in afterwards.

A chart scorer has ``n``, ``n_rel``, a dense ``span`` table of shape
(n+1, n+1), ``labels(i, j, k)`` returning new arrays holding the relation and
nuclearity rows of a batch of (span, split) cells, and ``tables()``
returning the dense ScoreTables.  ``tables()`` is a new table its caller
may change, except on ScoreTables, whose ``tables()`` is itself.
ScoreTables, NeuralOracle and LossAugmented are chart scorers; a
TableOracle is a builder whose ``tables(n)`` makes ScoreTables.  Only the
exact decoder reads the dense label table, which has O(n^3) rows:
NeuralOracle sums it block by block from factored partial sums, with the
bits ``labels`` gives each row, and LossAugmented shifts its inner scorer's
table in place.  The partial decoder asks for one row per cell, at the split
it chose (about n^2/2 rows, one batch per width), the complete decoder and
score_tree for the 2n - 1 rows of one tree.  On the neural path those rows
are computed on demand from first-layer projections made once per document,
so partial and complete never hold more than O(n^2) scores.

Also here: tree scoring, the hamming-style tree distance, loss-augmented
decoding (a view that shifts the rows a decoder asks for), the structured
margin loss, and the missing-prediction diagnostic (a decoded tree scoring
strictly below gold under the same scores).

Scores entering a decoder are checked for NaN and infinity, all with one
scan, first_nonfinite: the projections and span table of a NeuralOracle when
it is built and its label rows as they are computed, ScoreTables whenever
they are passed in.  A bad entry raises NonFiniteScore naming it.

Tie-breaking is deterministic everywhere: lowest split, then lowest relation
index, then lowest nuclearity index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .core import (
    Document,
    LabeledSpan,
    Nuclearity,
    NUM_NUCLEARITIES,
    RstTree,
    structural_error,
)
from .encoder import (
    SPAN,
    REL,
    NUC,
    DropoutMasks,
    Feedforward,
    ModelParams,
    RowFeedforward,
    encode_document,
)
from .ops import Tensor

NEG_INF = float("-inf")

# Label rows per block when NeuralOracle.tables fills the dense table.
# Bounds the temporaries beside it at any n that decode_exact admits: on the
# neural path, at most 8 * _BLOCK_ROWS * (2 * ff_hidden + 2 * (n_rel + 4) + 12)
# bytes.  That is two first-layer arrays: a block's factored sums Q (at most
# 1,018 rows, at n = 509, the largest n EXACT_MEMORY_LIMIT admits) beside
# the rows gathered to make or read it, then the block's inputs beside its
# last gathered block; the second layer runs in place and adds none.  Then
# a block of relation rows beside the nuclearity rows being scored, and the
# block's index arrays.  One unblocked gather over all O(n^3) rows would
# hold several copies of the table's size at once.  LossAugmented shifts
# the table it is given in place, so no plain table is held beside the
# shifted one.
_BLOCK_ROWS = 1024

# Bytes decode_exact may hold beside one block's temporaries (_exact_bytes).
# At 19 relations this admits documents of up to 326 EDUs.
EXACT_MEMORY_LIMIT = 2 ** 30


class ExactTooLarge(ValueError):
    """Exact decoding of a document would exceed EXACT_MEMORY_LIMIT."""


class NonFiniteScore(ValueError):
    """A score, or a projection scores are made from, is NaN or infinite."""


def _cells(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spans (i, j) in row order, with the number of label rows of each."""
    i, j = np.triu_indices(n + 1, 1)
    counts = np.maximum(j - i - 1, 1)
    return i, j, counts, np.cumsum(counts) - counts


def _layout(n: int) -> tuple[np.ndarray, int]:
    """Row layout for (i, j, k) score blocks.

    Blocks are ordered by (i, j); an internal block holds one row per split
    k = i+1..j-1, a leaf block holds the single row for its own labels.
    """
    i, j, counts, starts = _cells(n)
    base = np.full((n + 1, n + 1), -1, dtype=np.int64)
    base[i, j] = starts
    return base, int(counts.sum())


def _row_cells(cells, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(i, j, k) of the given label rows, found among the cell starts of
    ``cells`` (as _cells returns them); leaf rows have k = i."""
    i, j, _, starts = cells
    c = np.searchsorted(starts, rows, side="right") - 1
    I, J = i[c], j[c]
    return I, J, np.where(J == I + 1, I, rows - starts[c] + I + 1)


@dataclass
class ScoreTables:
    """Dense decision scores for one document of n EDUs.

    ``span`` is indexed [i, j].  ``rel`` and ``nuc`` hold one row per (i, j, k)
    in the order given by ``base``; the leaf row of span (i, i+1) is addressed
    with k = i.
    """

    n: int
    n_rel: int
    span: np.ndarray       # (n+1, n+1)
    rel: np.ndarray        # (rows, n_rel)
    nuc: np.ndarray        # (rows, NUM_NUCLEARITIES)
    base: np.ndarray       # (n+1, n+1) int

    def row_index(self, i: int, j: int, k: int) -> int:
        if j == i + 1:
            if k != i:
                raise ValueError(f"leaf ({i}, {j}) must use k = {i}")
            return int(self.base[i, j])
        if not i < k < j:
            raise ValueError(f"split {k} out of range for span ({i}, {j})")
        return int(self.base[i, j]) + k - i - 1

    def labels(self, i, j, k) -> tuple[np.ndarray, np.ndarray]:
        """Relation and nuclearity rows of cells (i, j) split at k, batched.

        Index arrays are not range-checked; leaf cells must pass k = i.  The
        returned arrays are new, so callers may change them.
        """
        i, j, k = np.asarray(i), np.asarray(j), np.asarray(k)
        rows = self.base[i, j] + np.where(j == i + 1, 0, k - i - 1)
        return self.rel[rows], self.nuc[rows]

    def tables(self) -> "ScoreTables":
        return self

    def first_bad(self) -> str | None:
        """The first NaN or infinite entry a decoder would read, or None."""
        where = _first_bad_span(self.span)
        if where is not None:
            return where
        for name, arr in (("rel", self.rel), ("nuc", self.nuc)):
            # a block at a time, so as to hold nothing of the table's length
            for start in range(0, len(arr), _BLOCK_ROWS):
                at = first_nonfinite(arr[start:start + _BLOCK_ROWS])
                if at is not None:
                    row, col = at[0] + start, at[1]
                    (i,), (j,), (k,) = _row_cells(_cells(self.n), np.array([row]))
                    return f"{name}[{i}, {j}, {k}][{col}] = {arr[row, col]}"
        return None


def first_nonfinite(a: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first NaN or infinite entry of ``a``, or None."""
    ok = np.isfinite(a)
    if ok.all():
        return None
    return tuple(int(x) for x in np.unravel_index(np.argmin(ok), a.shape))


def _first_bad_span(span: np.ndarray) -> str | None:
    i, j = np.triu_indices(span.shape[0], 1)
    vals = span[i, j]
    at = first_nonfinite(vals)
    if at is not None:
        (x,) = at
        return f"span[{i[x]}, {j[x]}] = {vals[x]}"
    return None


def _require_finite(what: str | None) -> None:
    if what is not None:
        raise NonFiniteScore(f"non-finite score: {what}")


def chart_scores(n: int, scores):
    """The chart scorer the decoders read, checked against n.

    A TableOracle builds its tables; ScoreTables are checked for non-finite
    entries on every call, since their arrays may have changed since they
    were built.
    """
    if n < 1:
        raise ValueError("need at least one EDU")
    if isinstance(scores, TableOracle):
        scores = scores.tables(n)
    if scores.n != n:
        raise ValueError(f"scores are for n={scores.n}, not {n}")
    if isinstance(scores, ScoreTables):
        _require_finite(scores.first_bad())
    return scores


def random_tables(n: int, n_rel: int, rng: np.random.Generator,
                  quantum: float | None = None) -> ScoreTables:
    """Standard-normal score tables; the workhorse of the equivalence tests.

    With ``quantum`` set (e.g. 2**-10) scores are rounded to that grid, so
    sums of a few dozen entries and the +1 loss augmentation stay exact in
    64-bit floats.
    """
    base, rows = _layout(n)

    def draw(shape):
        x = rng.standard_normal(shape)
        if quantum is not None:
            x = np.round(x / quantum) * quantum
        return x

    return ScoreTables(n, n_rel, draw((n + 1, n + 1)), draw((rows, n_rel)),
                       draw((rows, NUM_NUCLEARITIES)), base)


class TableOracle:
    """Explicit score tables backed by dicts; unlisted entries score 0."""

    def __init__(self, n_rel: int,
                 span: dict[tuple[int, int], float] | None = None,
                 rel: dict[tuple[int, int, int, int], float] | None = None,
                 nuc: dict[tuple[int, int, int, int], float] | None = None):
        if n_rel < 2:
            raise ValueError("need at least one real relation label")
        self.n_rel = n_rel
        self.span_scores = dict(span or {})
        self.rel_scores = dict(rel or {})
        self.nuc_scores = dict(nuc or {})

    def tables(self, n: int) -> ScoreTables:
        base, rows = _layout(n)
        span = np.zeros((n + 1, n + 1))
        rel = np.zeros((rows, self.n_rel))
        nuc = np.zeros((rows, NUM_NUCLEARITIES))
        t = ScoreTables(n, self.n_rel, span, rel, nuc, base)
        for (i, j), v in self.span_scores.items():
            if not 0 <= i < j <= n:
                raise ValueError(f"span entry ({i}, {j}) out of range for n={n}")
            span[i, j] = v
        for (i, j, k, l), v in self.rel_scores.items():
            if not 0 <= l < self.n_rel:
                raise ValueError(f"relation index {l} out of range")
            rel[t.row_index(i, j, k), l] = v
        for (i, j, k, p), v in self.nuc_scores.items():
            if not 0 <= p < NUM_NUCLEARITIES:
                raise ValueError(f"nuclearity index {p} out of range")
            nuc[t.row_index(i, j, k), p] = v
        return t


def _row_blocks(n: int):
    """The dense table's label rows, _BLOCK_ROWS at a time in layout order:
    each block's slice of rows and the (i, j, k) of those rows, leaf rows
    with k = i.

    Each block's (i, j, k) come from the O(n^2) cell starts, so nothing of
    the table's length is held beside it.  The blocks must stay as they are:
    a label row's last bit can depend on the size of the batch it was
    scored in (BLAS picks its matmul kernel by the product's size).
    """
    cells = _cells(n)
    rows = int(cells[2].sum())
    for start in range(0, rows, _BLOCK_ROWS):
        sl = slice(start, min(start + _BLOCK_ROWS, rows))
        yield (sl, *_row_cells(cells, np.arange(sl.start, sl.stop)))


def _label_rows(i: np.ndarray, j: np.ndarray, k: np.ndarray) -> tuple:
    """The four EDU rows a label input concatenates, per cell (i, j) split
    at k: the child span reps (i, k) and (k, j), that is M[i], M[k-1], M[k],
    M[j-1]; a leaf (k = i) reads its own rep twice, M[i] four times."""
    return i, np.where(j == i + 1, i, k - 1), k, j - 1


class NeuralOracle:
    """Scores the chart decisions of one document in batched numpy, from its
    EDU matrix M (the node encode_document returns; only ``M.data`` is read).

    The scores come from the same parameters, inputs and dropout masks as
    score_tree_symbolic, so a tree decoded from them is the argmax of the
    function the symbolic loss differentiates.

    The span, relation and nuclearity inputs concatenate rows of the EDU
    matrix M, so construction projects M once through each column block of
    each scorer's first layer (see RowFeedforward) and fills the O(n^2) span
    table.  ``labels`` then computes the rows a decoder asks for by
    gathering and summing projections: a row costs O(ff_hidden * (4 +
    n_rel)), whatever n is.  ``tables`` builds the dense O(n^3) table that
    only the exact decoder needs, anew on every call.
    """

    def __init__(self, params: ModelParams, enc: Tensor,
                 masks: DropoutMasks | None = None):
        self.n = enc.shape[0]
        self.n_rel = params.n_rel
        M = enc.data

        def scorer(name, blocks):
            mask = masks.hidden_for(name) if masks is not None else None
            return RowFeedforward(Feedforward(params, name), M, blocks, mask)

        span_ff = scorer(SPAN, 2)
        self._rel = scorer(REL, 4)
        self._nuc = scorer(NUC, 4)
        for name, ff in ((SPAN, span_ff), (REL, self._rel), (NUC, self._nuc)):
            at = first_nonfinite(ff.proj)
            if at is not None:
                _require_finite("{} projection, block {}, EDU {}, unit {}"
                                .format(name, *at))
        i, j = np.triu_indices(self.n + 1, 1)
        self.span = np.zeros((self.n + 1, self.n + 1))
        self.span[i, j] = span_ff(i, j - 1)[:, 0]
        _require_finite(_first_bad_span(self.span))

    def labels(self, i, j, k) -> tuple[np.ndarray, np.ndarray]:
        """Relation and nuclearity rows of cells (i, j) split at k, batched
        (inputs as _label_rows gives them; a span rep (a, b) reads M[a],
        M[b-1]).  Finite projections can still give an infinite row, so the
        first NaN or infinite entry, relation rows before nuclearity rows,
        raises NonFiniteScore."""
        i, j, k = np.asarray(i), np.asarray(j), np.asarray(k)
        rows = _label_rows(i, j, k)
        return _checked_rows(i, j, k, self._rel(*rows), self._nuc(*rows))

    def tables(self) -> ScoreTables:
        """The dense table, new on every call, each _row_blocks block's rows
        with the bits ``labels`` gives them, from fewer additions.

        A row's first-layer input is ((P0[i] + P1[b]) + P2[k]) + P3[j-1]
        (_label_rows), whose first three terms depend on (i, k) alone.  So
        each block sums them once per (i, k) of its range of i and
        k = i0..max(j)-1, a grid Q from RowFeedforward.lead (entries with
        k < i are never read), and each row then adds P3[j-1] to its
        gathered Q entry (_factored_rows).  One block's Q, of one scorer, is
        held at a time (see _BLOCK_ROWS).
        """
        base, rows = _layout(self.n)
        rel = np.empty((rows, self.n_rel))
        nuc = np.empty((rows, NUM_NUCLEARITIES))
        for sl, i, j, k in _row_blocks(self.n):
            i0 = i[0]
            nk = j.max() - i0
            I, K = np.indices((i[-1] - i0 + 1, nk)) + i0
            grid = I, np.maximum(K - 1, I), K   # b = i where k = i
            at = (i - i0) * nk + (k - i0)
            rel[sl], nuc[sl] = _checked_rows(
                i, j, k, *(_factored_rows(ff, grid, at, j - 1)
                           for ff in (self._rel, self._nuc)))
        return ScoreTables(self.n, self.n_rel, self.span, rel, nuc, base)


def _factored_rows(ff: RowFeedforward, grid, at: np.ndarray,
                   last: np.ndarray) -> np.ndarray:
    """The scores of rows whose three leading blocks' indices are those of
    entry ``at`` of the index ``grid`` and whose last block's index is
    ``last``: the grid's leading sums Q, then Q's entries gathered and
    finished.  Q is freed before ``finish`` gathers the last block."""
    Q = ff.lead(*grid)
    Z = Q.reshape(-1, Q.shape[-1]).take(at, axis=0)
    del Q
    return ff.finish(Z, last)


def _checked_rows(i, j, k, rel, nuc) -> tuple[np.ndarray, np.ndarray]:
    """rel and nuc, the rows of cells (i, j) split at k, once they are
    checked: the first NaN or infinite entry, relation rows before
    nuclearity rows, raises NonFiniteScore naming it."""
    for name, arr in (("rel", rel), ("nuc", nuc)):
        at = first_nonfinite(arr)
        if at is not None:
            x, col = at
            _require_finite(f"{name}[{i[x]}, {j[x]}, {k[x]}][{col}] = "
                            f"{arr[x, col]}")
    return rel, nuc


class LossAugmented:
    """Scores shifted so that decoding maximizes score + distance to gold.

    +1 on every span absent from gold; +1 on every relation and nuclearity
    but gold's at spans gold contains, at every split, since the distance
    does not depend on the split.  For any tree T the augmented score is then
    exactly score_tree(T) + hamming(T, gold).  The shift is applied to the
    rows a decoder asks for, as _augment_rows does, and ``tables()`` applies
    it in place to the inner scorer's new dense table, one slice per gold
    span, so no plain table is held beside the shifted one.  A ScoreTables
    is its own table, so a copy of it is shifted.
    """

    def __init__(self, scores, gold: RstTree):
        self.inner = chart_scores(gold.n, scores)
        self.gold = gold
        self.n = gold.n
        self.n_rel = self.inner.n_rel
        self.gold_rel, self.gold_nuc = _gold_labels(gold)
        i, j = np.triu_indices(self.n + 1, 1)
        absent = self.gold_rel[i, j] < 0
        self.span = self.inner.span.copy()
        self.span[i[absent], j[absent]] += 1.0

    def labels(self, i, j, k) -> tuple[np.ndarray, np.ndarray]:
        rel, nuc = self.inner.labels(i, j, k)
        _augment_rows(rel, nuc, self.gold_rel[i, j], self.gold_nuc[i, j])
        return rel, nuc

    def tables(self) -> ScoreTables:
        t = self.inner.tables()
        rel, nuc = t.rel, t.nuc
        if t is self.inner:
            rel, nuc = rel.copy(), nuc.copy()
        for (i, j), (l, p) in self.gold.labels.items():
            # a span's rows, one per split, are contiguous
            at = slice(t.base[i, j], t.base[i, j] + max(j - i - 1, 1))
            rel[at] += 1.0
            rel[at, l] -= 1.0
            nuc[at] += 1.0
            nuc[at, int(p)] -= 1.0
        return ScoreTables(self.n, self.n_rel, self.span, rel, nuc, t.base)


# --- tree scoring ---------------------------------------------------------

def _tree_rows(tree: RstTree) -> tuple[np.ndarray, ...]:
    """(i, j, k, relation, nuclearity) arrays of a tree's 2n - 1 label rows:
    internal spans sorted, then leaves, with k = i."""
    leaves = [(i, i + 1, i, l, p) for i, l, p in tree.leaf_items()]
    return tuple(np.array(c) for c in zip(*tree.internal_items(), *leaves))


def _check_labels(tree: RstTree, n_rel: int) -> None:
    for (i, j), (l, p) in tree.labels.items():
        if not 0 <= l < n_rel or not 0 <= int(p) < NUM_NUCLEARITIES:
            raise ValueError(f"labels ({l}, {p}) of span ({i}, {j}) out of range")


def score_tree(tree: RstTree, scores) -> float:
    """Sum of the tree's decisions: each non-root span's span score, plus
    relation and nuclearity scores of every span at its own split (leaf rows
    for leaves).  Exactly what the exact decoder maximizes.  Reads the
    2n - 1 label rows of the tree only."""
    err = structural_error(tree)
    if err is not None:
        raise ValueError(err)
    s = chart_scores(tree.n, scores)
    _check_labels(tree, s.n_rel)
    I, J, K, L, P = _tree_rows(tree)
    picked = np.arange(len(I))
    rel, nuc = s.labels(I, J, K)
    rel = rel[picked, L].tolist()
    nuc = nuc[picked, P].tolist()
    span = s.span
    total = 0.0
    for x, (i, j, k) in enumerate(zip(I.tolist(), J.tolist(), K.tolist())):
        if j > i + 1:
            total += span[i, k] + span[k, j] + rel[x] + nuc[x]
        else:
            total += rel[x] + nuc[x]
    return float(total)


def hamming(pred: RstTree, gold: RstTree) -> int:
    """Predicted-side decision mismatches: one per predicted span absent from
    gold, one per shared span whose relation differs, one per shared span
    whose nuclearity differs."""
    if pred.n != gold.n:
        raise ValueError(f"EDU counts differ: {pred.n} vs {gold.n}")
    d = 0
    for (i, j), (l, p) in pred.labels.items():
        if not gold.has_span(i, j):
            d += 1
            continue
        gl, gp = gold.label_at(i, j)
        d += (l != gl) + (p != gp)
    return d


# --- decoders -------------------------------------------------------------

def _fill_leaves(s, best, brel, bnuc) -> None:
    """Leaf cells maximize the full label range (reserved leaf labels included)."""
    i = np.arange(s.n)
    rel, nuc = s.labels(i, i + 1, i)
    l = np.argmax(rel, axis=1)
    p = np.argmax(nuc, axis=1)
    best[i, i + 1] = rel[i, l] + nuc[i, p]
    brel[i, i + 1] = l
    bnuc[i, i + 1] = p


def _tree_cells(n: int, bsplit) -> list[tuple[int, int, int]]:
    """(i, j, k) of every cell of the tree the chart's splits hold, leaves
    with k = i: the root first, each right subtree before its left one.
    decode_complete asks for the label rows in this order, and below BLAS's
    small-matrix size a row's bits can depend on its place in the batch."""
    cells = []
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        k = i if j == i + 1 else int(bsplit[i, j])
        cells.append((i, j, k))
        if j > i + 1:
            stack += [(i, k), (k, j)]
    return cells


def _backtrace(n: int, cells, brel, bnuc) -> RstTree:
    """The tree of ``cells`` (as _tree_cells gives them), labelled from the
    chart's relations and nuclearities."""
    spans = [LabeledSpan(i, j, int(brel[i, j]), Nuclearity(int(bnuc[i, j])))
             for i, j, _ in cells]
    return RstTree(spans, n, {(i, j): k for i, j, k in cells if j > i + 1})


def _split_totals(span, best, width: int) -> np.ndarray:
    """span(i,k) + span(k,j) + best(i,k) + best(k,j) for every cell (i, j) of
    one width, j = i + width: one row per i, one column per split
    k = i+1..j-1.  (i, k) and (k, j) are read at the flat offsets i(n+1) + k
    and k(n+1) + j of the (n+1, n+1) charts, with ``take``."""
    n1 = span.shape[0]
    i = np.arange(n1 - width)[:, None]
    k = i + np.arange(1, width)
    left = i * n1 + k
    right = k * n1 + (i + width)
    s, b = span.reshape(-1), best.reshape(-1)
    pair = s.take(left) + s.take(right)
    return (pair + b.take(left)) + b.take(right)


def _best_splits(span, best, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of one width: their left ends, best splits (lowest on
    ties) and best split totals."""
    pair = _split_totals(span, best, width)
    x = np.argmax(pair, axis=1)
    i = np.arange(len(x))
    return i, i + 1 + x, pair[i, x]


def _empty_chart(n: int):
    """best scores, split, relation and nuclearity per cell."""
    return (np.zeros((n + 1, n + 1)),
            np.full((n + 1, n + 1), -1, dtype=np.int64),
            np.zeros((n + 1, n + 1), dtype=np.int64),
            np.zeros((n + 1, n + 1), dtype=np.int64))


def _internal_labels(rel, nuc) -> tuple[np.ndarray, np.ndarray]:
    """Best real relation and internal nuclearity of each row."""
    return 1 + np.argmax(rel[:, 1:], axis=1), np.argmax(nuc[:, :3], axis=1)


def _exact_bytes(n: int, n_rel: int) -> int:
    """Bytes decode_exact holds for n EDUs: the dense label table,
    8 · rows(n) · (n_rel + 4); the arrays of one width, at most
    m = floor(n/2) · ceil(n/2) (cell, split) pairs, each with its relation
    and nuclearity rows and 9 more 8-byte entries (_split_totals' offsets,
    _width_labels' rows or _exact_width's running bests); and the O(n^2)
    chart and layout arrays, 40 · (n + 1)^2."""
    rows = n + (n ** 3 - n) // 6
    m = (n // 2) * ((n + 1) // 2)
    return 8 * rows * (n_rel + 4) + 8 * m * (n_rel + 13) + 40 * (n + 1) ** 2


def _width_labels(t: ScoreTables, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The relation and nuclearity rows, transposed, of one width's cells x
    splits, cells by left end i, splits k = i+1..j-1 ascending: table rows
    base[i, i + width] + (k - i - 1)."""
    i = np.arange(t.n + 1 - width)
    rows = (t.base[i, i + width][:, None] + np.arange(width - 1)).ravel()
    return t.rel.take(rows, axis=0).T, t.nuc.take(rows, axis=0).T


def _exact_width(t: ScoreTables, chart, width: int) -> None:
    """decode_exact's step for the cells of one width: their best score,
    split, relation and nuclearity, written into ``chart`` (as _empty_chart
    makes it).  The width's arrays are freed on return, so those of two
    widths are never held at once."""
    best, bsplit, brel, bnuc = chart
    n = t.n
    cells = n + 1 - width
    flat = best.reshape(-1)
    stem = _split_totals(t.span, best, width).ravel()
    rel, nuc = _width_labels(t, width)
    top = np.full(len(stem), NEG_INF)
    top_rel = np.zeros(len(stem), dtype=np.int64)
    top_nuc = np.zeros(len(stem), dtype=np.int64)
    # putmask, unlike copyto(where=), costs the same however many
    # entries change, which early label pairs make about half of them
    for l in range(1, t.n_rel):
        stem_l = stem + rel[l]
        for p in range(3):
            v = stem_l + nuc[p]
            better = v > top
            np.putmask(top, better, v)
            np.putmask(top_rel, better, l)
            np.putmask(top_nuc, better, p)
    x = np.argmax(top.reshape(cells, width - 1), axis=1)
    won = x + np.arange(0, len(stem), width - 1)
    # cells (i, i + width) lie n + 2 apart in the flattened chart
    at = slice(width, width + cells * (n + 2), n + 2)
    flat[at] = top.take(won)
    bsplit.reshape(-1)[at] = x + np.arange(1, cells + 1)
    brel.reshape(-1)[at] = top_rel.take(won)
    bnuc.reshape(-1)[at] = top_nuc.take(won)


def decode_exact(n: int, scores) -> tuple[RstTree, float]:
    """Joint max over (split, relation, nuclearity) per cell; the global argmax.

    Cells of one width do not depend on each other, so each width's cells x
    splits form one batch.  Python loops over the label pairs outside: for
    each relation l >= 1 and nuclearity p < 3 it adds (stem + rel[l]) +
    nuc[p] over the whole batch and keeps a running best per (cell, split)
    with a strict >, so the lowest (l, p) wins ties; the first argmax over
    each cell's splits then picks the lowest split.  The cost still carries
    the full grammar constant: one batch step per label pair per width.

    Reads the dense label table, so it first checks that the table and the
    arrays of one width fit in EXACT_MEMORY_LIMIT bytes and raises
    ExactTooLarge, before any table is built, when they do not.  Each
    width's index arrays are made when it is reached, from ``base``.
    """
    s = chart_scores(n, scores)
    size = _exact_bytes(n, s.n_rel)
    if size > EXACT_MEMORY_LIMIT:
        raise ExactTooLarge(
            f"exact decoding of n={n} EDUs with n_rel={s.n_rel} relations "
            f"needs {size:,} bytes, over the limit of "
            f"{EXACT_MEMORY_LIMIT:,}; use the partial or complete decoder")
    t = s.tables()
    chart = _empty_chart(n)
    best, bsplit, brel, bnuc = chart
    _fill_leaves(t, best, brel, bnuc)
    for width in range(2, n + 1):
        _exact_width(t, chart, width)
    return _backtrace(n, _tree_cells(n, bsplit), brel, bnuc), float(best[0, n])


def decode_partial(n: int, scores) -> tuple[RstTree, float]:
    """Split chosen from span + subtree scores only, then labeled at that split.

    Cells of one width do not depend on each other, so each width asks for
    the label rows of all its cells in one batch: n(n-1)/2 rows in all.
    """
    s = chart_scores(n, scores)
    best, bsplit, brel, bnuc = _empty_chart(n)
    _fill_leaves(s, best, brel, bnuc)
    for width in range(2, n + 1):
        i, k, pair = _best_splits(s.span, best, width)
        j = i + width
        rel, nuc = s.labels(i, j, k)
        l, p = _internal_labels(rel, nuc)
        rows = np.arange(len(i))
        best[i, j] = pair + rel[rows, l] + nuc[rows, p]
        bsplit[i, j] = k
        brel[i, j] = l
        bnuc[i, j] = p
    return _backtrace(n, _tree_cells(n, bsplit), brel, bnuc), float(best[0, n])


def decode_complete(n: int, scores) -> tuple[RstTree, float]:
    """Structure from span scores alone, labels filled in per chosen span.

    The returned scalar is the full tree score, so it is comparable with the
    other decoders (the structure pass itself never sees label scores).  The
    labels read the 2n - 1 rows of the chosen tree.
    """
    s = chart_scores(n, scores)
    struct, bsplit, brel, bnuc = _empty_chart(n)
    for width in range(2, n + 1):
        i, k, pair = _best_splits(s.span, struct, width)
        struct[i, i + width] = pair
        bsplit[i, i + width] = k
    cells = _tree_cells(n, bsplit)
    I, J, K = (np.array(c) for c in zip(*cells))
    rel, nuc = s.labels(I, J, K)
    leaf = J == I + 1
    l, p = _internal_labels(rel, nuc)
    brel[I, J] = np.where(leaf, np.argmax(rel, axis=1), l)
    bnuc[I, J] = np.where(leaf, np.argmax(nuc, axis=1), p)
    tree = _backtrace(n, cells, brel, bnuc)
    return tree, score_tree(tree, s)


DECODERS = {"exact": decode_exact, "partial": decode_partial,
            "complete": decode_complete}


def get_decoder(name: str):
    try:
        return DECODERS[name]
    except KeyError:
        raise ValueError(f"unknown decoder {name!r}; "
                         f"choose from {sorted(DECODERS)}") from None


# --- loss-augmented decoding and the margin loss --------------------------

def _gold_labels(gold: RstTree) -> tuple[np.ndarray, np.ndarray]:
    """Gold relation and nuclearity per span, -1 where gold lacks the span."""
    rel = np.full((gold.n + 1, gold.n + 1), -1, dtype=np.int64)
    nuc = np.full((gold.n + 1, gold.n + 1), -1, dtype=np.int64)
    for (i, j), (l, p) in gold.labels.items():
        rel[i, j] = l
        nuc[i, j] = int(p)
    return rel, nuc


def _augment_rows(rel, nuc, gold_rel, gold_nuc) -> None:
    """In place: +1 on every label but gold's, in rows of gold spans.

    ``gold_rel`` and ``gold_nuc`` hold each row's gold labels, -1 for rows
    of spans gold does not contain.
    """
    rows = np.flatnonzero(gold_rel >= 0)
    rel[rows] += 1.0
    rel[rows, gold_rel[rows]] -= 1.0
    nuc[rows] += 1.0
    nuc[rows, gold_nuc[rows]] -= 1.0


def augment_tables(t: ScoreTables, gold: RstTree) -> ScoreTables:
    """LossAugmented's shift applied to a copy of a whole dense table."""
    return LossAugmented(t, gold).tables()


def score_tree_symbolic(tree: RstTree, params: ModelParams, enc: Tensor,
                        masks: DropoutMasks | None = None) -> Tensor:
    """score_tree on the autograd tape, each scorer applied once to a batch.

    The span scorer gets every span but the root, the relation and
    nuclearity scorers the tree's 2n - 1 label rows (the inputs
    NeuralOracle.labels reads), each gathered from the EDU node ``enc`` in
    one ``take_rows``; one-hot constants pick each row's relation and
    nuclearity.  The tape holds the same number of nodes for any tree.
    """
    I, J, K, L, P = _tree_rows(tree)

    def apply(name, index):
        mask = masks.hidden_for(name) if masks is not None else None
        return Feedforward(params, name).apply(ops.take_rows(enc, index), mask)

    terms = []
    # every span but the root is a child of an internal span
    children = [(i, j - 1) for i, j in tree.labels if (i, j) != (0, tree.n)]
    if children:
        terms.append(ops.vsum(apply(SPAN, children)))
    label_rows = np.stack(_label_rows(I, J, K), axis=1)
    for name, picked in ((REL, L), (NUC, P)):
        scores = apply(name, label_rows)
        one_hot = np.zeros(scores.shape)
        one_hot[np.arange(len(I)), picked] = 1.0
        terms.append(ops.vsum(ops.cmul(scores, one_hot)))
    return ops.addn(terms)


@dataclass
class ChartDiagnostics:
    pred: RstTree
    augmented_score: float
    pred_score: float
    gold_score: float
    distance: int
    missing: bool
    loss: float


def chart_loss(doc: Document, params: ModelParams, decoder: str = "partial",
               masks: DropoutMasks | None = None,
               enc: Tensor | None = None
               ) -> tuple[Tensor, ChartDiagnostics]:
    """Margin loss max(0, score(T^) + distance(T^, gold) - score(gold)) with
    T^ from loss-augmented decoding.

    The returned tensor carries the tape for the active hinge; when the margin
    is already satisfied it is a constant zero.  The hinge is judged on
    score_tree(T^) + distance against score_tree(gold), the two sums
    ``missing`` compares, not on the decoder's own running total, so a
    prediction equal to gold never builds a tape.  Only the exact decoder
    builds the dense label table.
    """
    if doc.gold is None:
        raise ValueError(f"document {doc.doc_id} has no gold tree")
    if enc is None:
        enc = encode_document(doc, params, masks)
    oracle = NeuralOracle(params, enc, masks)
    decode = get_decoder(decoder)
    pred, aug_score = decode(doc.n, LossAugmented(oracle, doc.gold))
    gold_score = score_tree(doc.gold, oracle)
    pred_score = score_tree(pred, oracle)
    dist = hamming(pred, doc.gold)

    if pred_score + dist - gold_score <= 0.0:
        loss = ops.tensor(0.0)
    else:
        margin = ops.add(score_tree_symbolic(pred, params, enc, masks),
                         ops.scale(score_tree_symbolic(doc.gold, params, enc,
                                                       masks), -1.0))
        loss = ops.relu(ops.shift(margin, float(dist)))
    diag = ChartDiagnostics(pred, aug_score, pred_score, gold_score, dist,
                            missing=below_gold(pred_score, gold_score),
                            loss=float(loss.item()))
    return loss, diag


def below_gold(pred_score: float, gold_score: float) -> bool:
    """The missing-prediction test: a predicted tree is missing when its
    ``score_tree`` is strictly below gold's under the same scores, so a
    prediction that equals gold, or ties it, is never counted.  Training's
    count, ``chart_loss`` and ``rstparse compare`` all decide it here."""
    return pred_score < gold_score


def missing_prediction(n: int, scores, gold: RstTree,
                       decoder: str = "partial") -> bool:
    """True when the decoded tree scores strictly below gold (plain scores).

    Both trees are scored by ``score_tree`` (see below_gold): the decoder's
    own running total adds in another order and may read label rows scored
    in other batches.
    """
    s = chart_scores(n, scores)
    pred, _ = get_decoder(decoder)(n, s)
    return below_gold(score_tree(pred, s), score_tree(gold, s))


def count_missing(docs, params: ModelParams, decoder: str = "partial",
                  trees: list | None = None) -> int:
    """Documents whose decoded tree under-shoots the gold tree's score, both
    scored by ``score_tree`` (see missing_prediction).

    When ``trees`` is a list, each document's decoded tree is appended to
    it, so a caller that also needs those predictions decodes only once.
    """
    decode = get_decoder(decoder)
    total = 0
    for doc in docs:
        if doc.gold is None:
            raise ValueError(f"document {doc.doc_id} has no gold tree")
        scores = NeuralOracle(params, encode_document(doc, params))
        tree, _ = decode(doc.n, scores)
        if trees is not None:
            trees.append(tree)
        total += below_gold(score_tree(tree, scores),
                            score_tree(doc.gold, scores))
    return total
