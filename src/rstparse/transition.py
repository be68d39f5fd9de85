"""Shift-reduce parsing over the same EDU matrix as the chart decoders.

A state is (stack of finished spans, queue of not-yet-shifted EDUs).  SHIFT
moves the next EDU onto the stack as a leaf; REDUCE merges the top two stack
entries under a relation and nuclearity.  Every binary tree over n EDUs has
exactly one derivation of length 2n - 1 (post-order), which is what the
oracle emits and the margin loss is teacher-forced on.

An action is an int, the index of its column in the action scorer's output
(``encoder.reduce_action`` and ``reduce_labels`` hold the layout).  Written
out, as ``oracle --replay`` prints and reads them, actions are ``SHIFT`` and
``REDUCE:<relation>:<NN|NS|SN>``.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .core import (
    Document,
    LabeledSpan,
    LEAF_RELATION,
    Nuclearity,
    RelationVocab,
    RstTree,
)
from .chart import NonFiniteScore, first_nonfinite
from .encoder import (
    ACTION,
    QUEUE_SLOTS,
    SHIFT,
    SLOTS,
    STACK_SLOTS,
    DropoutMasks,
    ModelParams,
    RowFeedforward,
    encode_document,
    feedforward,
    reduce_action,
    reduce_labels,
)
from .ops import Tensor

SHIFT_TOKEN = "SHIFT"
REDUCE_TOKEN = "REDUCE"


class ParserState:
    """Immutable configuration; apply_action returns a new state.

    ``stack`` holds (i, j) spans, last element on top.  ``shifted`` counts
    consumed EDUs, so the queue front is EDU shifted+1.  ``spans``/``splits``
    accumulate the constituents built so far.
    """

    __slots__ = ("n", "stack", "shifted", "spans", "splits")

    def __init__(self, n, stack, shifted, spans, splits):
        self.n = n
        self.stack = stack
        self.shifted = shifted
        self.spans = spans
        self.splits = splits


def initial_state(n: int) -> ParserState:
    if n < 1:
        raise ValueError("need at least one EDU")
    return ParserState(n, (), 0, (), ())


def is_terminal(state: ParserState) -> bool:
    return state.shifted == state.n and len(state.stack) == 1


def apply_action(state: ParserState, action: int) -> ParserState:
    if action == SHIFT:
        if state.shifted >= state.n:
            raise ValueError("SHIFT with an empty queue")
        t = state.shifted
        leaf = LabeledSpan(t, t + 1, LEAF_RELATION, Nuclearity.LEAF)
        return ParserState(state.n, state.stack + ((t, t + 1),), t + 1,
                           state.spans + (leaf,), state.splits)
    if len(state.stack) < 2:
        raise ValueError("REDUCE needs two stack entries")
    (li, lj), (ri, rj) = state.stack[-2], state.stack[-1]
    span = LabeledSpan(li, rj, *reduce_labels(action))
    return ParserState(state.n, state.stack[:-2] + ((li, rj),), state.shifted,
                       state.spans + (span,), state.splits + (((li, rj), lj),))


def finish(state: ParserState) -> RstTree:
    if not is_terminal(state):
        raise ValueError("derivation is not complete")
    return RstTree(state.spans, state.n, dict(state.splits))


def replay(actions, n: int) -> RstTree:
    state = initial_state(n)
    for step, action in enumerate(actions):
        try:
            state = apply_action(state, action)
        except ValueError as exc:
            raise ValueError(f"step {step}: {exc}") from None
    return finish(state)


def oracle_actions(tree: RstTree) -> list[int]:
    """The unique post-order derivation of a tree."""
    out: list[int] = []
    todo = [(0, tree.n, False)]     # (i, j, children done), in reverse order
    while todo:
        i, j, children_done = todo.pop()
        if children_done:
            out.append(reduce_action(*tree.label_at(i, j)))
        elif j == i + 1:
            out.append(SHIFT)
        else:
            k = tree.splits[(i, j)]
            todo += [(i, j, True), (k, j, False), (i, k, False)]
    return out


def serialize_actions(actions, rel_vocab: RelationVocab) -> str:
    parts = []
    for a in actions:
        if a == SHIFT:
            parts.append(SHIFT_TOKEN)
        else:
            rel, nuc = reduce_labels(a)
            parts.append(f"{REDUCE_TOKEN}:{rel_vocab.name(rel)}:{nuc.name}")
    return " ".join(parts)


def parse_actions(text: str, rel_vocab: RelationVocab) -> list[int]:
    out = []
    for item in text.split():
        if item == SHIFT_TOKEN:
            out.append(SHIFT)
            continue
        if not item.startswith(REDUCE_TOKEN + ":"):
            raise ValueError(f"unrecognized action {item!r}")
        rest = item[len(REDUCE_TOKEN) + 1:]
        rel_name, _, nuc_name = rest.rpartition(":")
        if not rel_name or nuc_name not in ("NN", "NS", "SN"):
            raise ValueError(f"unrecognized action {item!r}")
        try:
            rel = rel_vocab.index(rel_name)
        except KeyError:
            raise ValueError(f"unknown relation in action {item!r}") from None
        try:
            out.append(reduce_action(rel, Nuclearity[nuc_name]))
        except ValueError as exc:
            raise ValueError(f"action {item!r}: {exc}") from None
    return out


# --- neural scoring -------------------------------------------------------

def slot_rows(state: ParserState) -> list[int]:
    """The SLOTS rows of [M; 0] the action scorer's input concatenates.

    Each of the top three stack spans gives its first and last EDU rows (a
    span rep), each of the first three queued EDUs its own row; an empty
    slot reads row n, the zero row appended below the EDU matrix M.
    """
    pad = state.n
    rows = []
    for slot in range(STACK_SLOTS):
        if slot < len(state.stack):
            i, j = state.stack[-1 - slot]
            rows += (i, j - 1)
        else:
            rows += (pad, pad)
    for slot in range(QUEUE_SLOTS):
        edu = state.shifted + slot    # 0-based position of queued EDU
        rows.append(edu if edu < state.n else pad)
    return rows


def legal_moves(state: ParserState) -> tuple[bool, bool]:
    """(shift_ok, reduce_ok), the one rule of legality: SHIFT iff the queue
    is non-empty, every REDUCE iff the stack holds two spans or more."""
    return state.shifted < state.n, len(state.stack) >= 2


def legal_mask(state: ParserState, n_actions: int) -> np.ndarray:
    """legal_moves as a boolean mask over action indices, the form the
    loss's hinge reads."""
    shift_ok, reduce_ok = legal_moves(state)
    legal = np.full(n_actions, reduce_ok)
    legal[SHIFT] = shift_ok
    return legal


def greedy_parse(doc: Document, params: ModelParams,
                 enc: Tensor | None = None) -> RstTree:
    """Best legal action at each state, ties to the lowest action index.

    The first layer's slot projections of [M; 0] are made once per document
    (see RowFeedforward), so scoring a state is one gather of SLOTS rows of
    them and one sum.  ``enc`` is the EDU node encode_document returns; only
    its ``data`` is read.  Without one, the document is encoded here inside
    ``ops.no_tape()``, so no tape is recorded.  While no REDUCE is legal
    SHIFT is the only legal action, and the state is not scored.  A scored
    state with a NaN or infinite score raises NonFiniteScore; else the best
    is taken over the REDUCEs alone (index 1 on) once SHIFT is illegal.
    """
    if enc is None:
        with ops.no_tape():
            enc = encode_document(doc, params)
    M = enc.data
    padded = np.vstack((M, np.zeros((1, M.shape[1]))))
    scorer = RowFeedforward(params, ACTION, padded, SLOTS)
    state = initial_state(doc.n)
    while not is_terminal(state):
        shift_ok, reduce_ok = legal_moves(state)
        choice = SHIFT
        if reduce_ok:
            scores = scorer.one(slot_rows(state))[0]
            at = first_nonfinite(scores)
            if at is not None:    # every action so far added one span
                raise NonFiniteScore(f"non-finite score: action[{at[0]}] = "
                                     f"{scores[at]} at step {len(state.spans)}")
            choice = (int(np.argmax(scores)) if shift_ok
                      else 1 + int(np.argmax(scores[1:])))
        state = apply_action(state, choice)
    return finish(state)


def transition_loss(doc: Document, params: ModelParams, enc: Tensor,
                    masks: DropoutMasks | None = None) -> Tensor:
    """Per-state margin loss, teacher-forced along the gold derivation.

    For each visited state with gold action a*, every LEGAL action a pays
    max(0, 1 + S(s, a) - S(s, a*)); the total is divided by the full action
    inventory size.  The a = a* terms contribute a constant floor of
    (2n - 1) / |A|, so a fully separated model plateaus there, not at zero.

    ``enc`` is ``doc``'s EDU node M, ``encode_document(doc, params,
    masks)``, which the caller encodes.  The gold derivation fixes every
    state before any scoring, so the states' slot rows are collected first;
    the tape then holds one gather from [M; 0], one batched scorer and one
    hinge, whatever n is.
    """
    if doc.gold is None:
        raise ValueError(f"document {doc.doc_id} has no gold tree")
    gold = oracle_actions(doc.gold)
    rows, legal = [], []
    state = initial_state(doc.n)
    for action in gold:
        rows.append(slot_rows(state))
        legal.append(legal_mask(state, params.n_actions))
        state = apply_action(state, action)
    if not is_terminal(state):
        raise ValueError("gold derivation did not terminate")
    padded = ops.concat([enc, ops.zeros((1, enc.shape[1]))], axis=0)
    scores = feedforward(params, ACTION, ops.take_rows(padded, rows), masks)
    return ops.scale(ops.margin_hinge(scores, gold, np.array(legal)),
                     1.0 / params.n_actions)
