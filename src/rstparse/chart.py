"""Global discourse parsing on a span chart.

Three bottom-up decoders share one score layout:

* exact: every cell maximizes jointly over split point and both labels.
  Per span width, the cells x splits form one numpy batch, and Python loops
  over the label pairs outside it, so the cost still grows with the label
  set.  It asks its scorer for one width's label rows at a time and holds
  them, the chart and, on the neural path, O(n^2) factored sums and one
  batch of rows (_exact_bytes), bounded by core.MEMORY_LIMIT; a larger
  document raises ExactTooLarge before any of it is allocated.
* partial: each cell picks its split from span + subtree scores alone, then
  labels that split.  Same optimum whenever label scores do not disagree with
  span scores about the split; much cheaper when the label set is large.
* complete: the whole structure is chosen from span scores only, labels are
  filled in afterwards.

A chart scorer has ``n``, ``n_rel``, ``ff_hidden`` (the first-layer width
its label rows are computed at, 0 when they are read from a table), a dense
``span`` table of shape (n+1, n+1), ``labels(i, j, k)`` returning new
arrays holding the relation and nuclearity rows of a batch of (span, split)
cells, and ``rows_by_width()``, a generator of every label row, one width
at a time (_width_rows gives their order), as new arrays.  ScoreTables,
NeuralOracle and LossAugmented are chart scorers; a TableOracle is a builder
whose ``tables(n)`` makes ScoreTables.  Only the exact decoder reads all
O(n^3) label rows, through ``rows_by_width``: ScoreTables gathers each
width's rows from its dense table, NeuralOracle computes them from factored
partial sums with the bits the dense table's blocks give them, and
LossAugmented shifts its inner scorer's rows.  The partial decoder asks
``labels`` for one row per cell, at the split it chose (about n^2/2 rows,
one batch per width), the complete decoder and score_tree for the 2n - 1
rows of one tree.  On the neural path rows are computed from first-layer
projections made once per document, so no decoder holds more than O(n^2)
scores.  ``tables()`` on a NeuralOracle or LossAugmented assembles the
dense ScoreTables from the same width rows; no decoder calls it.

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

from . import core, ops
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
    ModelParams,
    RowFeedforward,
    encode_document,
    feedforward,
)
from .ops import Tensor

NEG_INF = float("-inf")

# Label rows per block of the dense layout.  The exact decoder's neural rows
# are scored in batches of this many, so that each row has the bits the
# dense table's blocks give it (NeuralOracle.rows_by_width).
_BLOCK_ROWS = 1024


class ExactTooLarge(core.DataError):
    """Exact decoding of a document would exceed core.MEMORY_LIMIT."""


class NonFiniteScore(core.DataError):
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

    ff_hidden = 0          # rows are read from the table, not computed

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

    def rows_by_width(self):
        """Each width's relation and nuclearity rows, gathered from the
        table as new arrays (_width_rows)."""
        for width in range(1, self.n + 1):
            at = _width_rows(self.base, width)
            yield self.rel.take(at, axis=0), self.nuc.take(at, axis=0)

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


def _width_rows(base: np.ndarray, width: int) -> np.ndarray:
    """The layout rows of one width's (cell, split) pairs in the order
    ``rows_by_width`` gives them: cells (i, i + width) by left end, each
    cell's splits k = i+1..i+width-1 ascending (its one leaf row when
    width is 1), that is rows base[i, i + width] + (k - i - 1)."""
    starts = base.diagonal(width)
    return (starts[:, None] + np.arange(max(width - 1, 1))).ravel()


def _full_rows(cells, tail: int) -> list[int]:
    """How many rows of each width, 1 to n, lie before layout row ``tail``,
    from the cells (as _cells gives them).  A width's layout rows ascend in
    _width_rows order, so those come first."""
    i, j, counts, starts = cells
    n = j[-1]                           # the last cell is (n - 1, n)
    per_width = np.bincount(j - i, np.clip(tail - starts, 0, counts), n + 1)
    return per_width[1:].astype(np.int64).tolist()


def _label_rows(i: np.ndarray, j: np.ndarray, k: np.ndarray) -> tuple:
    """The four EDU rows a label input concatenates, per cell (i, j) split
    at k: the child span reps (i, k) and (k, j), that is M[i], M[k-1], M[k],
    M[j-1]; a leaf (k = i) reads its own rep twice, M[i] four times."""
    return i, np.where(j == i + 1, i, k - 1), k, j - 1


def _stream_batches(fulls: list[int]):
    """(i, j, k) of the rows of each width that lie in full _BLOCK_ROWS
    blocks of the dense layout (``fulls[width - 1]`` of them, the first in
    _width_rows order), widths 1 to n in turn, _BLOCK_ROWS rows at a time.
    The full blocks hold a multiple of _BLOCK_ROWS rows, so every batch is
    full.  The p-th row of width w > 1 is cell i = p // (w - 1) split at
    k = i + 1 + p % (w - 1); leaf rows have k = i.  No index array longer
    than a batch is made."""
    parts, size = [], 0
    for width, full in enumerate(fulls, 1):
        per = max(width - 1, 1)
        start = 0
        while start < full:
            stop = min(full, start + _BLOCK_ROWS - size)
            i, off = np.divmod(np.arange(start, stop), per)
            parts.append((i, i + width, i if width == 1 else i + 1 + off))
            size += stop - start
            start = stop
            if size == _BLOCK_ROWS:
                yield tuple(np.concatenate(c) for c in zip(*parts))
                parts, size = [], 0


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
    n_rel)), whatever n is.  ``rows_by_width`` computes all O(n^3) rows for
    the exact decoder, one width at a time, from factored partial sums, and
    holds no more than O(n^2) of them; ``tables`` assembles the same rows
    into the dense table, anew on every call.
    """

    def __init__(self, params: ModelParams, enc: Tensor,
                 masks: DropoutMasks | None = None):
        self.n = enc.shape[0]
        self.n_rel = params.n_rel
        self.ff_hidden = params.ff_hidden
        M = enc.data
        span_ff = RowFeedforward(params, SPAN, M, 2, masks)
        self._rel = RowFeedforward(params, REL, M, 4, masks)
        self._nuc = RowFeedforward(params, NUC, M, 4, masks)
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

    def rows_by_width(self):
        """Each width's relation and nuclearity rows, new arrays, with the
        bits ``labels`` gives them in the dense layout's _BLOCK_ROWS-row
        blocks, from fewer additions.

        A row's first-layer input is ((P0[i] + P1[b]) + P2[k]) + P3[j-1]
        (_label_rows), whose first three terms depend on (i, k) alone.  So
        they are summed once per document, for every 0 <= i <= k < n, into
        one grid Q per scorer (RowFeedforward.lead, O(n^2 ff_hidden)); a
        row then gathers its Q entry and adds P3[j-1]
        (RowFeedforward.finish).  Only the second layer sees a batch, and
        below OpenBLAS's small-matrix size a row's bits depend on its
        batch's size and its place in it.  So the rows of the layout's full
        blocks are scored as _stream_batches lists them, in batches of
        _BLOCK_ROWS rows, the size the full blocks have; and the rows of
        its last, partial block are scored as that block, whole, first, and
        kept.  Beside the grids and that block, one batch and one width's
        rows are held at a time.
        """
        n = self.n
        base, rows = _layout(n)
        tail = rows - rows % _BLOCK_ROWS    # where the partial block starts
        cells = _cells(n)
        # the pairs i <= k < n are the cells (i, k + 1), in their order
        i, j = cells[:2]
        Qs = [ff.lead(i, np.maximum(j - 2, i), j - 1)   # b = i where k = i
              for ff in (self._rel, self._nuc)]
        # Q's row of (i, i): rows i' < i hold k = i'..n-1 before it
        first = np.arange(n)
        first = first * n - first * (first - 1) // 2

        def score(i, j, k):
            at = first[i] + (k - i)
            return _checked_rows(i, j, k, *(
                ff.finish(Q.take(at, axis=0), j - 1)
                for ff, Q in zip((self._rel, self._nuc), Qs)))

        last = score(*_row_cells(cells, np.arange(tail, rows)))
        fulls = _full_rows(cells, tail)
        batches = (score(*b) for b in _stream_batches(fulls))
        batch, at = None, 0
        for width, full in enumerate(fulls, 1):
            rows_at = _width_rows(base, width)
            rel = np.empty((len(rows_at), self.n_rel))
            nuc = np.empty((len(rows_at), NUM_NUCLEARITIES))
            done = 0
            while done < full:
                if batch is None or at == _BLOCK_ROWS:
                    batch = None                # one batch held at a time
                    batch, at = next(batches), 0
                take = min(full - done, _BLOCK_ROWS - at)
                rel[done:done + take] = batch[0][at:at + take]
                nuc[done:done + take] = batch[1][at:at + take]
                done += take
                at += take
            # the width's other rows, at their place in the partial block
            in_last = rows_at[full:] - tail
            np.take(last[0], in_last, axis=0, out=rel[full:])
            np.take(last[1], in_last, axis=0, out=nuc[full:])
            yield rel, nuc
            del rel, nuc                        # the caller's now

    def tables(self) -> ScoreTables:
        """The dense table of ``rows_by_width``'s rows, new on every call."""
        return _assemble(self)


def _assemble(s) -> ScoreTables:
    """The dense ScoreTables of chart scorer s: its span table and the rows
    of ``s.rows_by_width()``, each width's written to its layout rows."""
    base, rows = _layout(s.n)
    rel = np.empty((rows, s.n_rel))
    nuc = np.empty((rows, NUM_NUCLEARITIES))
    widths = s.rows_by_width()
    for width in range(1, s.n + 1):
        at = _width_rows(base, width)
        rel[at], nuc[at] = next(widths)
    return ScoreTables(s.n, s.n_rel, s.span, rel, nuc, base)


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
    rows a decoder asks for, as _augment_rows does: to each batch ``labels``
    returns, and to each width of the inner scorer's ``rows_by_width`` in
    place, one block of split rows per gold span.  The inner scorer's rows
    are new arrays, so a ScoreTables it wraps is left as it was.
    """

    def __init__(self, scores, gold: RstTree):
        self.inner = chart_scores(gold.n, scores)
        self.gold = gold
        self.n = gold.n
        self.n_rel = self.inner.n_rel
        self.ff_hidden = self.inner.ff_hidden
        self.gold_rel, self.gold_nuc = _gold_labels(gold)
        i, j = np.triu_indices(self.n + 1, 1)
        absent = self.gold_rel[i, j] < 0
        self.span = self.inner.span.copy()
        self.span[i[absent], j[absent]] += 1.0

    def labels(self, i, j, k) -> tuple[np.ndarray, np.ndarray]:
        rel, nuc = self.inner.labels(i, j, k)
        _augment_rows(rel, nuc, self.gold_rel[i, j], self.gold_nuc[i, j])
        return rel, nuc

    def rows_by_width(self):
        widths = self.inner.rows_by_width()
        for width in range(1, self.n + 1):
            # next(), not enumerate(), whose result tuple would hold the
            # last width's rows while the next width's are made
            rel, nuc = next(widths)
            # a cell's rows, one per split, are contiguous: viewed as
            # (cells, splits, labels), cell i is the span (i, i + width)
            per = max(width - 1, 1)
            _augment_rows(rel.reshape(-1, per, self.n_rel),
                          nuc.reshape(-1, per, NUM_NUCLEARITIES),
                          self.gold_rel.diagonal(width),
                          self.gold_nuc.diagonal(width))
            yield rel, nuc
            del rel, nuc                        # the caller's now

    def tables(self) -> ScoreTables:
        """The dense table of ``rows_by_width``'s rows, new on every call."""
        return _assemble(self)


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

def _fill_leaves(best, brel, bnuc, rel, nuc) -> None:
    """Leaf cells maximize the full label range (reserved leaf labels
    included), leaf (i, i+1) reading row i of ``rel`` and ``nuc``."""
    i = np.arange(len(rel))
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
    k = i+1..j-1.  In an (n+1, n+1) chart laid out row by row, (i, k) lies
    at i(n+1) + k and (k, j) at k(n+1) + j, so both are strided views of its
    buffer: a cell is n + 2 entries after the one before, and a split 1
    entry (left child) or n + 1 entries (right child) after the one
    before.  No index array is made."""
    n1 = span.shape[0]
    shape = (n1 - width, width - 1)

    def children(chart):
        chart = np.ascontiguousarray(chart)
        step = chart.itemsize
        cell = (n1 + 1) * step
        return (np.ndarray(shape, chart.dtype, chart, step, (cell, step)),
                np.ndarray(shape, chart.dtype, chart, (n1 + width) * step,
                           (cell, n1 * step)))

    (span_ik, span_kj), (best_ik, best_kj) = children(span), children(best)
    return ((span_ik + span_kj) + best_ik) + best_kj


def _best_splits(span, best, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of one width: their left ends, best splits (lowest on
    ties) and best split totals."""
    pair = _split_totals(span, best, width)
    x = np.argmax(pair, axis=1)
    i = np.arange(len(x))
    return i, i + 1 + x, pair[i, x]


def _diagonal(n: int, width: int) -> slice:
    """The cells (i, i + width) of an (n+1, n+1) chart flattened row by
    row, by i: they lie n + 2 entries apart."""
    return slice(width, width + (n + 1 - width) * (n + 2), n + 2)


def _empty_chart(n: int):
    """best scores, split, relation and nuclearity per cell."""
    return (np.zeros((n + 1, n + 1)),
            np.full((n + 1, n + 1), -1, dtype=np.int64),
            np.zeros((n + 1, n + 1), dtype=np.int64),
            np.zeros((n + 1, n + 1), dtype=np.int64))


def _internal_labels(rel, nuc) -> tuple[np.ndarray, np.ndarray]:
    """Best real relation and internal nuclearity of each row."""
    return 1 + np.argmax(rel[:, 1:], axis=1), np.argmax(nuc[:, :3], axis=1)


def _exact_bytes(n: int, n_rel: int, ff_hidden: int) -> int:
    """Bytes decode_exact holds for n EDUs, ``ff_hidden`` being the
    scorer's first-layer width (0 for rows read from a table):

    * one width's arrays, at most m = max(n, floor(n/2) ceil(n/2)) (cell,
      split) pairs, each with its relation and nuclearity rows and 12 more
      8-byte entries (_split_totals' sums, _exact_width's running bests,
      made once at the widest width's size, and each label pair's sums,
      the width's layout rows);
    * the O(n^2) chart and layout arrays, 40 (n + 1)^2, and 16 KiB of
      Python objects and array headers;
    * on the neural path, the factored sums of both label scorers, 2 grids
      of n(n+1)/2 rows of ff_hidden, with one more grid's gathered rows
      while they are made, and 7 index entries per grid row (the cells,
      held throughout, and the grid's indices); and the partial block's rows
      beside one batch's, both _BLOCK_ROWS rows: 2 (n_rel + 4) entries, two
      first-layer arrays of ff_hidden, one more n_rel-wide output and 8
      index entries per row (NeuralOracle.rows_by_width).
    """
    m = max(n, (n // 2) * ((n + 1) // 2))
    size = 8 * m * (n_rel + 16) + 40 * (n + 1) ** 2 + 2 ** 14
    if ff_hidden:
        grid = n * (n + 1) // 2
        size += 8 * grid * (3 * ff_hidden + 7)
        size += 8 * _BLOCK_ROWS * (2 * ff_hidden + 3 * n_rel + 16)
    return size


def _exact_width(span, chart, width: int, rel, nuc, bests) -> None:
    """decode_exact's step for the cells of one width: their best score,
    split, relation and nuclearity, written into ``chart`` (as _empty_chart
    makes it), from the width's relation and nuclearity rows (as
    rows_by_width gives them).  The running best score, relation and
    nuclearity per (cell, split) are kept in the leading entries of the
    three arrays ``bests``, made once per decode.  The width's arrays are
    freed on return, so those of two widths are never held at once."""
    best, bsplit, brel, bnuc = chart
    n = span.shape[0] - 1
    n_rel = rel.shape[1]
    cells = n + 1 - width
    flat = best.reshape(-1)
    stem = _split_totals(span, best, width).ravel()
    rel, nuc = rel.T, nuc.T
    top, top_rel, top_nuc = (a[:len(stem)] for a in bests)
    top.fill(NEG_INF)
    top_rel.fill(0)
    top_nuc.fill(0)
    # putmask, unlike copyto(where=), costs the same however many
    # entries change, which early label pairs make about half of them
    for l in range(1, n_rel):
        stem_l = stem + rel[l]
        for p in range(3):
            v = stem_l + nuc[p]
            better = v > top
            np.putmask(top, better, v)
            np.putmask(top_rel, better, l)
            np.putmask(top_nuc, better, p)
    x = np.argmax(top.reshape(cells, width - 1), axis=1)
    won = x + np.arange(0, len(stem), width - 1)
    at = _diagonal(n, width)
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

    The label rows come from the scorer's ``rows_by_width``, one width at a
    time, so no dense table is built.  It first checks that what it will
    hold (_exact_bytes) fits in core.MEMORY_LIMIT bytes and raises
    ExactTooLarge, before any of it is allocated, when it does not.
    """
    s = chart_scores(n, scores)
    size = _exact_bytes(n, s.n_rel, s.ff_hidden)
    if size > core.MEMORY_LIMIT:
        raise ExactTooLarge(
            f"exact decoding of n={n} EDUs with n_rel={s.n_rel} relations "
            f"needs {size:,} bytes, over the limit of "
            f"{core.MEMORY_LIMIT:,}; use the partial or complete decoder")
    chart = _empty_chart(n)
    best, bsplit, brel, bnuc = chart
    m = (n // 2) * ((n + 1) // 2)       # the widest width's (cell, split)s
    bests = (np.empty(m), np.empty(m, dtype=np.int64),
             np.empty(m, dtype=np.int64))
    widths = s.rows_by_width()
    _fill_leaves(best, brel, bnuc, *next(widths))
    for width in range(2, n + 1):
        # passed on, not kept, so two widths' rows are never held at once
        _exact_width(s.span, chart, width, *next(widths), bests)
    return _backtrace(n, _tree_cells(n, bsplit), brel, bnuc), float(best[0, n])


def decode_partial(n: int, scores) -> tuple[RstTree, float]:
    """Split chosen from span + subtree scores only, then labeled at that split.

    Cells of one width do not depend on each other, so each width asks for
    the label rows of all its cells in one batch: n(n-1)/2 rows in all.
    """
    s = chart_scores(n, scores)
    best, bsplit, brel, bnuc = _empty_chart(n)
    i = np.arange(n)
    _fill_leaves(best, brel, bnuc, *s.labels(i, i + 1, i))
    for width in range(2, n + 1):
        i, k, pair = _best_splits(s.span, best, width)
        rel, nuc = s.labels(i, i + width, k)
        l, p = _internal_labels(rel, nuc)
        at = _diagonal(n, width)
        best.reshape(-1)[at] = pair + rel[i, l] + nuc[i, p]
        bsplit.reshape(-1)[at] = k
        brel.reshape(-1)[at] = l
        bnuc.reshape(-1)[at] = p
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
        _, k, pair = _best_splits(s.span, struct, width)
        at = _diagonal(n, width)
        struct.reshape(-1)[at] = pair
        bsplit.reshape(-1)[at] = k
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
    of spans gold does not contain.  A row may be a label vector or a block
    of them, all of one span (labels on the last axis).
    """
    rows = np.flatnonzero(gold_rel >= 0)
    rel[rows] += 1.0
    rel[rows, ..., gold_rel[rows]] -= 1.0
    nuc[rows] += 1.0
    nuc[rows, ..., gold_nuc[rows]] -= 1.0


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
    terms = []
    # every span but the root is a child of an internal span
    children = [(i, j - 1) for i, j in tree.labels if (i, j) != (0, tree.n)]
    if children:
        terms.append(ops.vsum(feedforward(
            params, SPAN, ops.take_rows(enc, children), masks)))
    label_rows = np.stack(_label_rows(I, J, K), axis=1)
    for name, picked in ((REL, L), (NUC, P)):
        scores = feedforward(params, name, ops.take_rows(enc, label_rows),
                             masks)
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
    reads every label row, one width at a time.
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
    Documents are encoded inside ``ops.no_tape()``, as for parsing.
    """
    decode = get_decoder(decoder)
    total = 0
    for doc in docs:
        if doc.gold is None:
            raise ValueError(f"document {doc.doc_id} has no gold tree")
        with ops.no_tape():
            scores = NeuralOracle(params, encode_document(doc, params))
        tree, _ = decode(doc.n, scores)
        if trees is not None:
            trees.append(tree)
        total += below_gold(score_tree(tree, scores),
                            score_tree(doc.gold, scores))
    return total
