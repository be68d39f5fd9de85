"""Shared neural representation: embeddings, document bi-LSTM, span scorers.

One parameter set backs every decoder.  Words are embedded as learned vector
+ optional frozen pretrained vector + POS vector, run through a bi-LSTM over
the whole document, and each EDU is summarized by the recurrent states at its
first and last word (both directions, 4H total).  ``encode_document``
returns them as one (n, 4H) tape node, the EDU matrix M, which is all the
parsers read.  A span (i, j) is the concatenation of rows M[i] and M[j-1]
(8H).  All decision scores come from two-layer feedforward networks over
concatenations of EDU rows, applied to batches of rows both on the tape
(gathered from M with ``ops.take_rows``) and in numpy (from ``M.data``).

Each path finds a scorer by name, SPAN, REL, NUC or ACTION, in one place:
``feedforward`` on the tape, ``RowFeedforward`` in numpy.  Each reads the
weights ``{name}.W1/b1/W2/b2`` and the hidden mask ``masks.hidden[name]``.

``param_shapes`` lists every trainable array's name and shape, once:
``ModelParams.init`` draws them, ``ModelParams.validate`` checks a loaded
model against them and ``model_bytes`` counts them before anything is
allocated.

The action scorer's columns are the shift-reduce parser's actions, and an
action is its column index: SHIFT is 0 and REDUCE(r, p) is 1 + 3 (r - 1) + p.
``action_count``, ``reduce_action`` and ``reduce_labels`` hold that layout.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import core, ops
from .core import (
    Document,
    INTERNAL_NUCLEARITIES,
    LEAF_RELATION,
    NUM_NUCLEARITIES,
    Nuclearity,
    RelationVocab,
)
from .data import Vocab, PretrainedEmbeddings
from .ops import Tensor

SPAN = "span"
REL = "rel"
NUC = "nuc"
ACTION = "action"

STACK_SLOTS = 3
QUEUE_SLOTS = 3
SLOTS = 2 * STACK_SLOTS + QUEUE_SLOTS     # EDU rows per action-scorer input

SHIFT = 0                                 # the action index of SHIFT


class ModelError(core.DataError):
    """A model file that cannot be read or does not describe a valid model."""


def action_count(n_rel: int) -> int:
    """SHIFT, then one REDUCE per real relation and internal nuclearity."""
    return 1 + 3 * (n_rel - 1)


def reduce_action(relation: int, nuclearity: Nuclearity) -> int:
    """The index of REDUCE(relation, nuclearity): 1 + 3 (relation - 1) +
    nuclearity.  A REDUCE carries a real relation and NN, NS or SN."""
    if relation <= LEAF_RELATION:
        raise ValueError(f"REDUCE needs a real relation, got {relation}")
    if nuclearity not in INTERNAL_NUCLEARITIES:
        raise ValueError("REDUCE nuclearity must be NN, NS or SN")
    return 1 + 3 * (relation - 1) + int(nuclearity)


def reduce_labels(action: int) -> tuple[int, Nuclearity]:
    """The (relation, nuclearity) of REDUCE action index ``action``."""
    if action <= SHIFT:
        raise ValueError(f"action {action} is not a REDUCE")
    relation, nuclearity = divmod(action - 1, 3)
    return relation + 1, Nuclearity(nuclearity)


def param_shapes(words: int, tags: int, n_rel: int, word_dim: int,
                 pos_dim: int, hidden: int, ff_hidden: int,
                 pre_dim: int = 0) -> dict[str, tuple[int, ...]]:
    """Every trainable array's name and shape, in the order ModelParams.init
    draws them.  The frozen pretrained table is not trainable, so not here."""
    h4 = 4 * hidden
    shapes = {"word_emb": (words, word_dim), "pos_emb": (tags, pos_dim)}
    for direction in ("fwd", "bwd"):
        shapes[f"lstm_{direction}.W"] = (h4, word_dim + pre_dim + pos_dim + hidden)
        shapes[f"lstm_{direction}.b"] = (h4,)
    for name, d_in, d_out in ((SPAN, 8 * hidden, 1),
                              (REL, 16 * hidden, n_rel),
                              (NUC, 16 * hidden, NUM_NUCLEARITIES),
                              (ACTION, SLOTS * h4, action_count(n_rel))):
        shapes[f"{name}.W1"] = (ff_hidden, d_in)
        shapes[f"{name}.b1"] = (ff_hidden,)
        shapes[f"{name}.W2"] = (d_out, ff_hidden)
        shapes[f"{name}.b2"] = (d_out,)
    return shapes


def model_bytes(words: int, tags: int, n_rel: int, word_dim: int,
                pos_dim: int, hidden: int, ff_hidden: int,
                pre_dim: int = 0) -> int:
    """Bytes of the float64 arrays ModelParams.init makes for these sizes:
    the pretrained table and every array of ``param_shapes``.  Counted in
    Python integers, so no size overflows."""
    shapes = param_shapes(words, tags, n_rel, word_dim, pos_dim, hidden,
                          ff_hidden, pre_dim)
    return 8 * (words * pre_dim + sum(math.prod(s) for s in shapes.values()))


# The smallest value each size ModelParams.init takes can have.
SMALLEST_SIZES = {"hidden": 1, "ff_hidden": 1, "word_dim": 0, "pos_dim": 0}


def glorot(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


class ModelParams:
    """All trainable arrays plus the vocabularies they are indexed by.

    ``arrays`` maps parameter names to float64 ndarrays.  ``tensors()`` wraps
    the same storage in autograd leaves, so in-place updates to the arrays
    (optimizer steps, finite-difference probes) are visible to both the tape
    and the batched numpy scorers.  The frozen pretrained table, if any, is
    read-only in the models ``init`` and ``load`` make, and ``copy`` shares
    it rather than copying it.
    """

    def __init__(self, arrays: dict[str, np.ndarray], word_vocab: Vocab,
                 pos_vocab: Vocab, rel_vocab: RelationVocab,
                 hidden: int, ff_hidden: int,
                 pretrained: np.ndarray | None = None):
        self.arrays = arrays
        self.word_vocab = word_vocab
        self.pos_vocab = pos_vocab
        self.rel_vocab = rel_vocab
        self.hidden = hidden
        self.ff_hidden = ff_hidden
        self.pretrained = pretrained
        self._tensors: dict[str, Tensor] | None = None

    @property
    def n_rel(self) -> int:
        return self.rel_vocab.size

    @property
    def n_actions(self) -> int:
        return action_count(self.n_rel)

    @property
    def edu_dim(self) -> int:
        return 4 * self.hidden

    @classmethod
    def init(cls, word_vocab: Vocab, pos_vocab: Vocab, rel_vocab: RelationVocab,
             rng: np.random.Generator, word_dim: int = 300, pos_dim: int = 300,
             hidden: int = 200, ff_hidden: int = 200,
             pretrained: PretrainedEmbeddings | None = None) -> "ModelParams":
        if rel_vocab.size < 2:
            raise ValueError("relation vocabulary has no real labels")
        pre_dim = pretrained.dim if pretrained is not None else 0
        sizes = {"word_dim": word_dim, "pos_dim": pos_dim, "hidden": hidden,
                 "ff_hidden": ff_hidden}

        def need(**change):
            return model_bytes(len(word_vocab), len(pos_vocab), rel_vocab.size,
                               pre_dim=pre_dim, **dict(sizes, **change))

        size = need()
        if size > core.MEMORY_LIMIT:
            # name the size whose smallest value would save the most
            key = max(sizes, key=lambda k: size - need(**{k: SMALLEST_SIZES[k]}))
            raise core.ConfigError(
                f"{key} = {sizes[key]} makes the model's parameters "
                f"{size:,} bytes, over the limit of {core.MEMORY_LIMIT:,}")
        arrays: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(len(word_vocab), len(pos_vocab),
                                        rel_vocab.size, word_dim, pos_dim,
                                        hidden, ff_hidden, pre_dim).items():
            if name == "word_emb":
                arrays[name] = rng.uniform(-0.1, 0.1, size=shape)
            elif name == "pos_emb":
                arrays[name] = rng.uniform(0.0, 1.0, size=shape)
            elif len(shape) == 2:
                arrays[name] = glorot(rng, *shape)
            else:
                arrays[name] = np.zeros(shape)
        table = None
        if pretrained is not None:
            table = pretrained.table.copy()
            table.flags.writeable = False
        return cls(arrays, word_vocab, pos_vocab, rel_vocab, hidden, ff_hidden,
                   pretrained=table)

    def tensors(self) -> dict[str, Tensor]:
        if self._tensors is None:
            self._tensors = {name: ops.tensor(arr)
                             for name, arr in self.arrays.items()}
            for name, t in self._tensors.items():
                if t.data is not self.arrays[name]:
                    # asarray copied (wrong dtype); keep storage shared
                    self.arrays[name] = t.data
        return self._tensors

    def leaf_gradients(self) -> dict[str, np.ndarray | ops.RowGrad]:
        """The gradient of each parameter a gradient reached, as
        ``ops.backward`` left it: a RowGrad for an embedding table read by
        one gather, otherwise an ndarray.  A parameter no gradient reached
        is left out."""
        return {name: t.grad for name, t in self.tensors().items()
                if t.grad is not None}

    def gradients(self) -> dict[str, np.ndarray]:
        """Every parameter's gradient as a dense array of its shape, zeros
        where no gradient reached it."""
        return {name: (ops.dense(t.grad) if t.grad is not None
                       else np.zeros_like(t.data))
                for name, t in self.tensors().items()}

    def zero_grads(self) -> None:
        if self._tensors is not None:
            for t in self._tensors.values():
                t.grad = None

    def copy(self) -> "ModelParams":
        """New trainable arrays; the frozen pretrained table is shared."""
        return ModelParams({k: v.copy() for k, v in self.arrays.items()},
                           self.word_vocab, self.pos_vocab, self.rel_vocab,
                           self.hidden, self.ff_hidden, self.pretrained)

    def save(self, path: str) -> None:
        meta = {"hidden": self.hidden,
                "ff_hidden": self.ff_hidden,
                "word_tokens": list(self.word_vocab.tokens[1:]),
                "pos_tokens": list(self.pos_vocab.tokens[1:]),
                "relations": list(self.rel_vocab.names[1:])}
        payload = {f"param/{k}": v for k, v in self.arrays.items()}
        if self.pretrained is not None:
            payload["pretrained"] = self.pretrained
        payload["meta"] = np.array(json.dumps(meta))
        # write through a handle so numpy keeps the path exactly as given
        with open(path, "wb") as fh:
            np.savez(fh, **payload)

    @classmethod
    def load(cls, path: str) -> "ModelParams":
        """Read a file written by ``save``.

        Raises ModelError when the file is not such a model: unreadable as
        an archive, metadata keys missing, extra or malformed (hidden sizes
        that are not JSON integers, and token or relation lists that are not
        JSON lists of strings, included), arrays missing, extra, not of a
        real number type, of the wrong shape or not finite.  A token or
        relation list that Vocab or RelationVocab refuses raises one whose
        message ends with theirs.  A file that cannot be opened stays an
        OSError.
        """
        def real(key, a):
            # astype would drop an imaginary part with only a warning
            if a.dtype.kind not in "fiu":
                raise ModelError(f"{path}: array {key!r} has dtype {a.dtype}, "
                                 "not a real number type")
            return a.astype(np.float64)

        def size(key):
            value = meta[key]
            if type(value) is not int:  # a float or a bool is refused
                raise ModelError(f"{path}: metadata {key!r} is {value!r}, "
                                 "not an integer")
            return value

        def vocab(make, key):
            value = meta[key]
            # a string or a list of numbers would load as a vocabulary
            if type(value) is not list or any(type(v) is not str
                                              for v in value):
                raise ModelError(f"{path}: metadata {key!r} is not a list "
                                 "of strings")
            try:
                return make(value)
            except ValueError as exc:
                raise ModelError(f"{path}: metadata {key!r}: {exc}") from None

        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta"]))
                arrays = {k[len("param/"):]: real(k[len("param/"):], npz[k])
                          for k in npz.files if k.startswith("param/")}
                pretrained = (real("pretrained", npz["pretrained"])
                              if "pretrained" in npz.files else None)
            if pretrained is not None:
                pretrained.flags.writeable = False
            params = cls(arrays, vocab(Vocab, "word_tokens"),
                         vocab(Vocab, "pos_tokens"),
                         vocab(RelationVocab, "relations"), size("hidden"),
                         size("ff_hidden"), pretrained=pretrained)
        except ModelError:
            raise
        except (EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise ModelError(f"{path}: not a readable model file "
                             f"({type(exc).__name__})") from None
        for key in sorted(set(meta) - {"hidden", "ff_hidden", "word_tokens",
                                       "pos_tokens", "relations"}):
            raise ModelError(f"{path}: unexpected metadata key {key!r}")
        params.validate(path)
        return params

    def validate(self, source: str = "model") -> None:
        """Every array present, finite and shaped as the stored sizes say,
        and the pretrained table, if any, finite.

        The embedding widths are free, so they are read off the embedding
        tables; everything else follows from them, ``hidden``,
        ``ff_hidden``, the vocabulary sizes and ``n_rel``.
        """
        def fail(msg):
            raise ModelError(f"{source}: {msg}")

        if self.hidden < 1 or self.ff_hidden < 1:
            fail(f"hidden sizes must be positive, got hidden={self.hidden}, "
                 f"ff_hidden={self.ff_hidden}")
        if self.n_rel < 2:
            fail("relation vocabulary has no real labels")
        a = self.arrays
        for name in ("word_emb", "pos_emb"):
            if name not in a or a[name].ndim != 2:
                fail(f"array {name!r} missing or not a matrix")
        word_dim = a["word_emb"].shape[1]
        pos_dim = a["pos_emb"].shape[1]
        pre_dim = 0
        if self.pretrained is not None:
            if self.pretrained.ndim != 2:
                fail("pretrained table is not a matrix")
            pre_dim = self.pretrained.shape[1]
            if self.pretrained.shape[0] != len(self.word_vocab):
                fail(f"pretrained table has {self.pretrained.shape[0]} rows "
                     f"for {len(self.word_vocab)} word types")
            if not np.all(np.isfinite(self.pretrained)):
                fail("pretrained table holds non-finite values")
        want = param_shapes(len(self.word_vocab), len(self.pos_vocab),
                            self.n_rel, word_dim, pos_dim, self.hidden,
                            self.ff_hidden, pre_dim)
        for name in sorted(set(a) - set(want)):
            fail(f"unexpected array {name!r}")
        for name, shape in want.items():
            if name not in a:
                fail(f"array {name!r} missing")
            if a[name].shape != shape:
                fail(f"array {name!r} has shape {a[name].shape}, "
                     f"expected {shape}")
            if not np.all(np.isfinite(a[name])):
                fail(f"array {name!r} holds non-finite values")


def feedforward(params: ModelParams, name: str, X: Tensor,
                masks: DropoutMasks | None = None) -> Tensor:
    """Scorer ``name``, W2 relu(W1 x + b1) + b2, on the tape: the (B, d_out)
    scores of the B input rows of X, one ``linear`` node per layer."""
    tensors = params.tensors()
    h = ops.relu(ops.linear(X, tensors[f"{name}.W1"], tensors[f"{name}.b1"]))
    if masks is not None:
        h = ops.cmul(h, masks.hidden[name])
    return ops.linear(h, tensors[f"{name}.W2"], tensors[f"{name}.b2"])


class RowFeedforward:
    """Scorer ``name`` in numpy, over inputs that concatenate rows of M.

    W1 [M[a_0]; ...; M[a_{q-1}]] equals the sum over blocks of
    P_b[a_b] with P_b = M W1_b^T, W1_b being W1's b-th column block.  The
    projections are computed once, so an input row costs q gathered rows of
    width ff_hidden instead of a product with the whole of W1 (Chen & Manning
    2014).  ``proj`` holds them stacked, P_b being ``proj[b]``, of shape
    (q, N, ff_hidden).

    A row's first-layer input is the sum taken in block order,
    ((P_0[a_0] + P_1[a_1]) + ...) + P_{q-1}[a_{q-1}], and every path keeps
    that association, so a row's bits do not depend on which path scored
    it.  ``lead`` sums the leading blocks' rows and ``finish`` adds the last
    block's and runs the second layer (``output``); ``__call__``, which
    takes one index per block and scores a batch of rows, is ``lead`` over
    every block, then ``output``.  A caller may instead ``lead`` once over
    the distinct index tuples its rows share and gather the partial sums
    for ``finish``: a leading sum reused by many rows is then added once
    (the exact decoder's label rows are made so, see
    chart.NeuralOracle.rows_by_width).  ``one`` scores a single row from its
    q indices with one gather and one running sum over the blocks.

    ``out``, when given, is the (q, N, ff_hidden) array the projections
    are written into, and ``proj`` is it: StackedFeedforward passes a
    column block of its own.
    """

    def __init__(self, params: ModelParams, name: str, M: np.ndarray,
                 blocks: int, masks: DropoutMasks | None = None,
                 out: np.ndarray | None = None):
        arrays = params.arrays
        d = M.shape[1]
        W1 = arrays[f"{name}.W1"]
        if W1.shape[1] != blocks * d:
            raise ValueError(f"W1 has {W1.shape[1]} columns, not {blocks} x {d}")
        self.b1 = arrays[f"{name}.b1"]
        self.W2 = arrays[f"{name}.W2"]
        self.b2 = arrays[f"{name}.b2"]
        self.mask = masks.hidden[name] if masks is not None else None
        self.proj = (np.empty((blocks, M.shape[0], W1.shape[0]))
                     if out is None else out)
        # one view per block: a tuple iterates faster than the array
        self._views = tuple(self.proj)
        for b, P in enumerate(self._views):
            np.matmul(M, W1[:, b * d:(b + 1) * d].T, out=P)
        self._blocks = np.arange(blocks)

    def lead(self, *index) -> np.ndarray:
        """The sum, in block order, of the rows that the first len(index)
        blocks read at ``index``: each an integer array, whose rows are
        gathered, or a slice, whose rows are read in place, all selecting
        the same number of rows.  A new array of that shape plus
        (ff_hidden,)."""
        Z = self._views[0][index[0]]
        rest = zip(self._views[1:], index[1:])
        if isinstance(index[0], slice):
            # a view of the projections: the sum starts in a new array
            P, idx = next(rest)
            Z = Z + P[idx]
        for P, idx in rest:
            Z += P[idx]
        return Z

    def finish(self, Z: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The (B, d_out) scores of the B rows whose leading blocks sum to
        the (B, ff_hidden) array Z: the last block's rows at ``index`` are
        added, then the second layer runs.  Z is overwritten, so it must be
        an array made for the call."""
        Z += self._views[-1][index]
        return self.output(Z)

    def __call__(self, *index) -> np.ndarray:
        return self.output(self.lead(*index))

    def one(self, rows) -> np.ndarray:
        """The (1, d_out) scores of the input reading row rows[b] of block b:
        ``__call__`` with one-element index arrays, bit for bit.

        The running sum over the gathered rows adds the blocks one after
        another, in order, as ``__call__`` does.  ``np.add.reduce`` would
        not always: over a (q, 1) array it sums pairwise.
        """
        Z = np.add.accumulate(self.proj[self._blocks, rows], axis=0)[-1:]
        return self.output(Z)

    def hidden(self, Z: np.ndarray) -> np.ndarray:
        """Z, the first layer's product X W1^T, with the bias, relu and mask
        applied in its own memory, so Z must be an array made for the call,
        not a view of one that is read again."""
        Z += self.b1
        np.maximum(Z, 0.0, out=Z)
        if self.mask is not None:
            Z *= self.mask
        return Z

    def second_layer(self, H: np.ndarray) -> np.ndarray:
        """The scores of the hidden rows H, a new array."""
        return H @ self.W2.T + self.b2

    def output(self, Z: np.ndarray) -> np.ndarray:
        """The network from the first layer's product Z = X W1^T onwards
        (``hidden``, so Z is overwritten, then ``second_layer``)."""
        return self.second_layer(self.hidden(Z))


class StackedFeedforward(RowFeedforward):
    """Scorers ``names`` in numpy, over the same inputs, as one network
    whose first layer stacks theirs.

    ``proj`` holds every scorer's projections side by side, (q, N,
    len(names) ff_hidden), each written into its column block by its own
    RowFeedforward, so a row gathers and sums its q projections once for all
    scorers, in the block order of RowFeedforward, and the bias, relu and
    mask run once over the stacked hidden row.  Each scorer's second layer
    then reads its column block of that row.  Every entry is the one the
    scorer alone would compute, so its rows keep their bits
    (tests/test_blas_bits.py).  ``scorers`` holds each scorer as a
    RowFeedforward over its column block of ``proj`` (views), and
    ``output`` returns one score array per scorer.
    """

    def __init__(self, params: ModelParams, names: tuple[str, ...],
                 M: np.ndarray, blocks: int,
                 masks: DropoutMasks | None = None):
        widths = [params.arrays[f"{name}.W1"].shape[0] for name in names]
        ends = np.cumsum(widths).tolist()
        self._cols = [slice(e - w, e) for w, e in zip(widths, ends)]
        self.proj = np.empty((blocks, M.shape[0], ends[-1]))
        self.scorers = tuple(
            RowFeedforward(params, name, M, blocks, masks,
                           out=self.proj[:, :, cols])
            for name, cols in zip(names, self._cols))
        self._views = tuple(self.proj)
        self._blocks = np.arange(blocks)
        self.b1 = np.concatenate([f.b1 for f in self.scorers])
        self.mask = (None if masks is None else
                     np.concatenate([f.mask for f in self.scorers]))

    def output(self, Z: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each scorer's scores of the stacked first-layer rows Z, which
        are overwritten."""
        H = self.hidden(Z)
        return tuple(f.second_layer(H[:, cols])
                     for f, cols in zip(self.scorers, self._cols))


@dataclass
class DropoutMasks:
    """Inverted-scale masks, fixed for one document pass.

    The same masks feed both the numpy scores used for decoding and the
    tape rebuild of the chosen decisions, so the decoded tree is the argmax
    of exactly the function being differentiated.
    """

    edu: np.ndarray                  # (n_edus, 4H)
    hidden: dict[str, np.ndarray]    # scorer name -> (ff_hidden,)


def make_dropout_masks(params: ModelParams, n_edus: int, dropout: float,
                       rng: np.random.Generator) -> DropoutMasks | None:
    if dropout <= 0.0:
        return None
    if not dropout < 1.0:
        raise ValueError(f"dropout rate {dropout} out of range")
    scale = 1.0 / (1.0 - dropout)

    def draw(shape):
        return (rng.random(shape) >= dropout) * scale

    hidden = {name: draw(params.ff_hidden)
              for name in (SPAN, REL, NUC, ACTION)}
    return DropoutMasks(draw((n_edus, params.edu_dim)), hidden)


def encode_document(doc: Document, params: ModelParams,
                    masks: DropoutMasks | None = None) -> Tensor:
    """The (n, 4H) EDU matrix as one tape node: embed every token, run both
    LSTM directions over the whole document, and gather each EDU's first-
    and last-token states.  The numpy scorers read its ``data``; the tape
    losses gather their inputs from the node itself.

    The tape holds a fixed number of nodes whatever the document's length:
    one gather per embedding table, one column concatenation of the token
    inputs, one fused ``ops.bilstm`` for both directions, one gather of the
    EDU rows and the dropout mask.
    """
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

    states = ops.bilstm(tensors["lstm_fwd.W"], tensors["lstm_fwd.b"],
                        tensors["lstm_bwd.W"], tensors["lstm_bwd.b"], X,
                        params.hidden)
    # EDU row: [fwd; bwd] at its first token, then at its last token.
    lengths = np.array([len(edu.tokens) for edu in doc.edus])
    last = np.cumsum(lengths) - 1
    first = last - lengths + 1
    edus = ops.take_rows(states, np.stack((first, last), axis=1))
    if masks is not None:
        edus = ops.cmul(edus, masks.edu)
    return edus

