"""Training loop: per-document margin losses, Adam updates, dev selection.

Three modes share one encoder pass per document: "chart" trains the global
margin loss, "transition" the shift-reduce action loss, and "joint" their
weighted sum.  Each epoch shuffles the training documents (seeded), updates
after every document, evaluates on dev, and records how many training
documents currently decode below their gold score (the missing-prediction
diagnostic).  The returned parameters are the snapshot with the best dev
score; ties keep the earlier epoch.  The snapshot is one copy, refreshed in
place when a later epoch scores higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoder, ops
from .chart import (
    DECODERS,
    ChartDiagnostics,
    NeuralOracle,
    NonFiniteScore,
    chart_loss,
    count_missing,
)
from .core import ConfigError, Document
from .data import CorpusVocabs, PretrainedEmbeddings
from .encoder import ModelParams, encode_document, make_dropout_masks
from .metrics import METRICS, EvalReport, evaluate_trees
from .ops import Tensor
from .transition import greedy_parse, transition_loss

MODES = ("chart", "transition", "joint")
PARSE_METHODS = ("exact", "partial", "complete", "transition")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8    # Kingma & Ba 2015
ADAM_BLOCK = 65536              # entries per in-place Adam block


@dataclass
class TrainConfig:
    max_epochs: int = 15
    lr: float = 0.001
    dropout: float = 0.2
    hidden: int = 200
    ff_hidden: int = 200
    word_dim: int = 300
    pos_dim: int = 300
    gamma: float = 1.0              # weight of the transition loss in joint mode
    mode: str = "chart"
    decoder: str = "partial"        # chart decoder used for training and eval
    seed: int = 0
    grad_clip: float | None = None
    selection: str = "relation_micro"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.decoder not in DECODERS:
            raise ConfigError(f"unknown decoder {self.decoder!r}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip)
                                               and self.grad_clip > 0.0):
            raise ConfigError("grad_clip must be None or finite and positive, "
                              f"got {self.grad_clip}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ConfigError(f"gamma must be finite and non-negative, "
                              f"got {self.gamma}")
        for key, least in dict(encoder.SMALLEST_SIZES, seed=0).items():
            if getattr(self, key) < least:
                bound = "at least 1" if least else "non-negative"
                raise ConfigError(f"{key} must be {bound}, "
                                  f"got {getattr(self, key)}")
        metric, _, averaging = self.selection.rpartition("_")
        if metric not in METRICS or averaging not in ("micro", "macro"):
            raise ConfigError(f"bad selection key {self.selection!r} "
                              "(want <metric>_<micro|macro>)")


def joint_loss(doc: Document, params: ModelParams, cfg: TrainConfig,
               masks=None) -> tuple[Tensor, ChartDiagnostics | None]:
    """Mode-dispatched loss; both losses read one EDU node, encoded once.
    Each loss raises ValueError for a document without a gold tree."""
    enc = encode_document(doc, params, masks)
    if cfg.mode == "transition":
        return transition_loss(doc, params, enc, masks), None
    loss, diag = chart_loss(doc, params, enc, cfg.decoder, masks)
    if cfg.mode == "chart" or cfg.gamma == 0.0:
        return loss, diag
    return ops.add(loss, ops.scale(transition_loss(doc, params, enc, masks),
                                   cfg.gamma)), diag


# --- optimizer ------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's moments and step count.  ``touched`` maps each table that has
    received an ``ops.RowGrad`` to a mask of the rows any gradient has
    reached so far; outside the mask m = v = 0.  It costs one bool per row."""
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    touched: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, arrays: dict[str, np.ndarray]) -> "AdamState":
        return cls({k: np.zeros_like(a) for k, a in arrays.items()},
                   {k: np.zeros_like(a) for k, a in arrays.items()})


def _rows_per_block(row_size: int) -> int:
    return max(1, ADAM_BLOCK // max(1, row_size))


def _blocks(n_rows: int, row_size: int) -> list[slice]:
    """Leading-axis slices of at most ADAM_BLOCK entries (one row at least)."""
    per = _rows_per_block(row_size)
    return [slice(r, r + per) for r in range(0, n_rows, per)]


def _largest_block(shape: tuple[int, ...]) -> int:
    row = math.prod(shape[1:])
    return min(shape[0], _rows_per_block(row)) * row


def _adam_block(x, m, v, g, scratch, lr: float, c1: float, c2: float) -> None:
    """The Adam update of one block, in place in x, m and v, through the
    two flat ``scratch`` buffers: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2)
    g g and x -= lr (m / c1) / (sqrt(v / c2) + eps), each operation in that
    order, so every entry has the bits of the whole-array update."""
    a, b = (buf[:g.size].reshape(g.shape) for buf in scratch)
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    a *= g
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    x -= a


def adam_step(arrays: dict[str, np.ndarray],
              grads: dict[str, np.ndarray | ops.RowGrad],
              state: AdamState, lr: float,
              clip: float | None = None) -> None:
    """One in-place Adam update (Kingma & Ba 2015); arrays keep their
    identity (shared storage).

    Each array is updated in blocks of whole rows, at most ADAM_BLOCK
    entries each, through two scratch buffers made once per call, so the
    step holds no temporary the size of a parameter; every entry goes
    through the same operations in the same order as a whole-array update.

    A gradient is an ndarray or an ``ops.RowGrad``.  For a RowGrad the
    update runs only on the rows in ``state.touched``, this step's among
    them, with g = 0 on the rows this step missed: the dense update's
    expressions in its order, so each of those rows gets the dense result
    bit for bit.  Every other row has m = v = g = 0, from which the dense
    update subtracts exactly 0.0, so skipping it changes nothing; the cost
    is O(touched rows * d), not O(V * d).  This is not lazy Adam: a touched
    row's moments decay at every step, as in the dense update.

    With ``clip``, every gradient is made dense first, so the global norm
    sums the arrays it always summed; those dense copies, and the scaled
    ones, are the size of the parameters.  A non-finite gradient raises
    FloatingPointError before anything changes.
    """
    for name, g in grads.items():
        values = g.sums() if isinstance(g, ops.RowGrad) else g
        row = math.prod(values.shape[1:])
        if not all(np.isfinite(values[s]).all()
                   for s in _blocks(len(values), row)):
            raise FloatingPointError(f"non-finite gradient in {name!r} "
                                     f"at step {state.t + 1}")
    if clip is not None:
        grads = {k: ops.dense(g) for k, g in grads.items()}
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > clip:
            factor = clip / norm
            grads = {k: g * factor for k, g in grads.items()}
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    size = max((_largest_block(g.shape) for g in grads.values()), default=0)
    scratch = np.empty(size), np.empty(size)
    for name, g in grads.items():
        x, m, v = arrays[name], state.m[name], state.v[name]
        row = math.prod(x.shape[1:])
        if isinstance(g, ops.RowGrad):
            mask = state.touched.setdefault(
                name, np.zeros(g.shape[0], dtype=bool))
            mask[g.rows()] = True
            rows = np.flatnonzero(mask)
            # where each of this step's rows sits among the touched ones
            at = np.searchsorted(rows, g.rows())
            sums = g.sums()
            for s in _blocks(rows.size, row):
                r = rows[s]
                lo, hi = np.searchsorted(at, (s.start, s.stop))
                g_rows = np.zeros((r.size, row))
                g_rows[at[lo:hi] - s.start] = sums[lo:hi]
                xr, mr, vr = x[r], m[r], v[r]
                _adam_block(xr, mr, vr, g_rows, scratch, lr, c1, c2)
                x[r], m[r], v[r] = xr, mr, vr
            continue
        mask = state.touched.get(name)    # must cover every m, v != 0
        for s in _blocks(len(x), row):
            if mask is not None:
                mask[s] |= np.any(g[s] != 0.0, axis=1)
            _adam_block(x[s], m[s], v[s], g[s], scratch, lr, c1, c2)


# --- prediction and evaluation -------------------------------------------

def predict_tree(doc: Document, params: ModelParams, method: str):
    """Parse one document with a chart decoder or the greedy transition parser.

    The document is encoded inside ``ops.no_tape()``, so no tape is
    recorded, and the oracle and the greedy parser keep only the EDU matrix
    and its projections: the encoding itself is freed before decoding
    starts.
    """
    if method == "transition":
        return greedy_parse(doc, params)
    decode = DECODERS.get(method)
    if decode is None:
        raise ValueError(f"unknown parse method {method!r}; "
                         f"choose from {PARSE_METHODS}")
    with ops.no_tape():
        oracle = NeuralOracle(params, encode_document(doc, params))
    tree, _ = decode(doc.n, oracle)
    return tree


def evaluate_model(docs, params: ModelParams, method: str,
                   trees: list | None = None) -> EvalReport:
    """Scores of the documents' predicted trees against gold.  ``trees``,
    when given, are those predictions, already decoded with ``method``."""
    pairs = []
    for x, doc in enumerate(docs):
        if doc.gold is None:
            raise ValueError(f"document {doc.doc_id} has no gold tree")
        tree = trees[x] if trees is not None else predict_tree(doc, params, method)
        pairs.append((doc.doc_id, tree, doc.gold))
    return evaluate_trees(pairs)


# --- the loop -------------------------------------------------------------

class TrainingDiverged(ConfigError):
    """Training produced a non-finite score or gradient; the usual remedy is
    a smaller ``lr`` or a ``grad_clip``."""


@dataclass
class EpochReport:
    epoch: int
    train_loss: float               # mean per-document loss
    micro: dict[str, float]         # dev F1 per metric
    macro: dict[str, float]
    missing: int                    # training docs decoding below gold score


REPORT_HEADER = ("epoch\ttrain_loss\tspan_micro\tnuclearity_micro\t"
                 "relation_micro\tspan_macro\tnuclearity_macro\t"
                 "relation_macro\tmissing")


def report_row(r: EpochReport) -> str:
    cells = [str(r.epoch), f"{r.train_loss:.6f}"]
    cells += [f"{r.micro[m]:.1f}" for m in METRICS]
    cells += [f"{r.macro[m]:.1f}" for m in METRICS]
    cells.append(str(r.missing))
    return "\t".join(cells)


def format_epoch(r: EpochReport) -> str:
    return (f"epoch {r.epoch:3d}  loss {r.train_loss:10.4f}  "
            f"dev S/N/R {r.micro['span']:5.1f}/{r.micro['nuclearity']:5.1f}/"
            f"{r.micro['relation']:5.1f} (micro)  missing {r.missing}")


@dataclass
class TrainResult:
    params: ModelParams
    reports: list[EpochReport]
    best_epoch: int
    best_score: float


def _selection_value(report: EvalReport, selection: str) -> float:
    metric, _, averaging = selection.rpartition("_")
    table = report.micro if averaging == "micro" else report.macro
    return table[metric]


def train(train_docs, dev_docs, vocabs: CorpusVocabs, cfg: TrainConfig,
          pretrained: PretrainedEmbeddings | None = None,
          log=None) -> TrainResult:
    cfg.validate()
    train_docs = list(train_docs)
    dev_docs = list(dev_docs)
    if not train_docs:
        raise ValueError("no training documents")
    if not dev_docs:
        raise ValueError("no dev documents")
    for kind, docs in (("training", train_docs), ("dev", dev_docs)):
        for doc in docs:
            if doc.gold is None:
                raise ValueError(
                    f"{kind} document {doc.doc_id} has no gold tree")

    init_ss, shuffle_ss, drop_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    params = ModelParams.init(vocabs.word, vocabs.pos, vocabs.rel,
                              np.random.default_rng(init_ss),
                              word_dim=cfg.word_dim, pos_dim=cfg.pos_dim,
                              hidden=cfg.hidden, ff_hidden=cfg.ff_hidden,
                              pretrained=pretrained)
    adam = AdamState.init(params.arrays)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    drop_rng = np.random.default_rng(drop_ss)
    eval_method = "transition" if cfg.mode == "transition" else cfg.decoder
    # After each epoch, dev evaluation and the missing count both decode
    # without dropout under the same parameters; when they also read the
    # same documents with the same decoder, one pass serves both.
    one_pass = (eval_method == cfg.decoder and len(dev_docs) == len(train_docs)
                and all(d is t for d, t in zip(dev_docs, train_docs)))

    reports: list[EpochReport] = []
    best_params = None
    best_score = float("-inf")
    best_epoch = -1
    for epoch in range(1, cfg.max_epochs + 1):
        total = 0.0
        for idx in shuffle_rng.permutation(len(train_docs)):
            doc = train_docs[idx]
            masks = make_dropout_masks(params, doc.n, cfg.dropout, drop_rng)
            # Overflow and invalid values are not warned about: the
            # finiteness checks turn them into TrainingDiverged.
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, _ = joint_loss(doc, params, cfg, masks)
                    total += loss.item()
                    ops.backward(loss)
                    del loss                # the tape is spent: free it
                    adam_step(params.arrays, params.leaf_gradients(), adam,
                              cfg.lr, clip=cfg.grad_clip)
            except (NonFiniteScore, FloatingPointError) as exc:
                raise TrainingDiverged(f"training diverged in epoch {epoch} "
                                       f"at document {doc.doc_id}: {exc}"
                                       ) from exc
            params.zero_grads()             # so are the gradients
        trees = [] if one_pass else None
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                missing = count_missing(train_docs, params, cfg.decoder, trees)
                dev_report = evaluate_model(dev_docs, params, eval_method,
                                            trees)
        except NonFiniteScore as exc:
            raise TrainingDiverged(f"training diverged in epoch {epoch}: "
                                   f"decoding after the update for document "
                                   f"{doc.doc_id} failed: {exc}") from exc
        report = EpochReport(epoch, total / len(train_docs),
                             dict(dev_report.micro), dict(dev_report.macro),
                             missing)
        reports.append(report)
        if log is not None:
            log(format_epoch(report))
        score = _selection_value(dev_report, cfg.selection)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            if best_params is None:
                best_params = params.copy()
            else:
                for name, a in params.arrays.items():
                    np.copyto(best_params.arrays[name], a)
    return TrainResult(best_params, reports, best_epoch, best_score)
