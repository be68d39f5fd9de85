"""Shift-reduce parsing over the same encoded document as the chart decoders.

A state is (stack of finished spans, queue of not-yet-shifted EDUs).  SHIFT
moves the next EDU onto the stack as a leaf; REDUCE merges the top two stack
entries under a relation and nuclearity.  Every binary tree over n EDUs has
exactly one derivation of length 2n - 1 (post-order), which is what the
oracle emits and the margin loss is teacher-forced on.

Action indexing is fixed: 0 = SHIFT, then REDUCE actions ordered by relation
index, nuclearity index within relation.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .core import (
    Action,
    Document,
    INTERNAL_NUCLEARITIES,
    LabeledSpan,
    LEAF_RELATION,
    Nuclearity,
    REDUCE,
    RelationVocab,
    RstTree,
    SHIFT,
)
from .encoder import (
    ACTION,
    DropoutMasks,
    EncodedDocument,
    Feedforward,
    ModelParams,
    RowFeedforward,
    encode_document,
)
from .ops import Tensor

STACK_SLOTS = 3
QUEUE_SLOTS = 3
SLOTS = 2 * STACK_SLOTS + QUEUE_SLOTS     # EDU rows per action-scorer input


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

    @property
    def queue(self) -> range:
        """1-based indices of the EDUs still waiting."""
        return range(self.shifted + 1, self.n + 1)


def initial_state(n: int) -> ParserState:
    if n < 1:
        raise ValueError("need at least one EDU")
    return ParserState(n, (), 0, (), ())


def is_terminal(state: ParserState) -> bool:
    return state.shifted == state.n and len(state.stack) == 1


def legal_actions(state: ParserState, n_rel: int) -> list[Action]:
    """Legal actions in index order: SHIFT first, then every REDUCE variant."""
    out = []
    if state.shifted < state.n:
        out.append(Action.shift())
    if len(state.stack) >= 2:
        for rel in range(1, n_rel):
            for nuc in INTERNAL_NUCLEARITIES:
                out.append(Action.reduce(rel, nuc))
    return out


def apply_action(state: ParserState, action: Action) -> ParserState:
    if action.kind == SHIFT:
        if state.shifted >= state.n:
            raise ValueError("SHIFT with an empty queue")
        t = state.shifted
        leaf = LabeledSpan(t, t + 1, LEAF_RELATION, Nuclearity.LEAF)
        return ParserState(state.n, state.stack + ((t, t + 1),), t + 1,
                           state.spans + (leaf,), state.splits)
    if len(state.stack) < 2:
        raise ValueError("REDUCE needs two stack entries")
    (li, lj), (ri, rj) = state.stack[-2], state.stack[-1]
    span = LabeledSpan(li, rj, action.relation, action.nuclearity)
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


def oracle_actions(tree: RstTree) -> list[Action]:
    """The unique post-order derivation of a tree."""
    out: list[Action] = []
    todo = [(0, tree.n, False)]     # (i, j, children done), in reverse order
    while todo:
        i, j, children_done = todo.pop()
        if children_done:
            rel, nuc = tree.label_at(i, j)
            out.append(Action.reduce(rel, nuc))
        elif j == i + 1:
            out.append(Action.shift())
        else:
            k = tree.splits[(i, j)]
            todo += [(i, j, True), (k, j, False), (i, k, False)]
    return out


def action_index(action: Action, n_rel: int) -> int:
    if action.kind == SHIFT:
        return 0
    return 1 + (action.relation - 1) * 3 + int(action.nuclearity)


def index_action(index: int, n_rel: int) -> Action:
    n_actions = 1 + 3 * (n_rel - 1)
    if not 0 <= index < n_actions:
        raise ValueError(f"action index {index} out of range 0..{n_actions - 1}")
    if index == 0:
        return Action.shift()
    rel, nuc = divmod(index - 1, 3)
    return Action.reduce(rel + 1, Nuclearity(nuc))


def serialize_actions(actions, rel_vocab: RelationVocab) -> str:
    parts = []
    for a in actions:
        if a.kind == SHIFT:
            parts.append(SHIFT)
        else:
            parts.append(f"{REDUCE}:{rel_vocab.name(a.relation)}"
                         f":{Nuclearity(a.nuclearity).name}")
    return " ".join(parts)


def parse_actions(text: str, rel_vocab: RelationVocab) -> list[Action]:
    out = []
    for item in text.split():
        if item == SHIFT:
            out.append(Action.shift())
            continue
        if not item.startswith(REDUCE + ":"):
            raise ValueError(f"unrecognized action {item!r}")
        rest = item[len(REDUCE) + 1:]
        rel_name, _, nuc_name = rest.rpartition(":")
        if not rel_name or nuc_name not in ("NN", "NS", "SN"):
            raise ValueError(f"unrecognized action {item!r}")
        try:
            rel = rel_vocab.index(rel_name)
        except KeyError:
            raise ValueError(f"unknown relation in action {item!r}") from None
        out.append(Action.reduce(rel, Nuclearity[nuc_name]))
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


def legal_mask(state: ParserState, n_actions: int) -> np.ndarray:
    """legal_actions as a boolean mask over action indices: SHIFT iff the
    queue is non-empty, every REDUCE iff the stack holds two spans or more."""
    legal = np.empty(n_actions, dtype=bool)
    legal[0] = state.shifted < state.n
    legal[1:] = len(state.stack) >= 2
    return legal


def greedy_parse(doc: Document, params: ModelParams,
                 enc: EncodedDocument | None = None) -> RstTree:
    """Best legal action at each state, ties to the lowest action index.

    The first layer's slot projections of [M; 0] are made once per document
    (see RowFeedforward), so scoring a state is one gather of SLOTS rows of
    them and one sum.  Only the EDU matrix is kept, so an encoding made here
    has its tape freed before the loop.  While the stack holds fewer than
    two spans SHIFT is the only legal action, and the state is not scored.
    """
    M = (enc if enc is not None else encode_document(doc, params)).matrix()
    padded = np.vstack((M, np.zeros((1, M.shape[1]))))
    scorer = RowFeedforward(Feedforward(params, ACTION), padded, SLOTS)
    reduce_only = np.arange(params.n_actions) > 0
    state = initial_state(doc.n)
    while not is_terminal(state):
        choice = 0
        if len(state.stack) >= 2:
            scores = scorer.one(slot_rows(state))[0]
            if state.shifted == state.n:
                scores = np.where(reduce_only, scores, -np.inf)
            choice = int(np.argmax(scores))
        state = apply_action(state, index_action(choice, params.n_rel))
    return finish(state)


def transition_loss(doc: Document, params: ModelParams,
                    masks: DropoutMasks | None = None,
                    enc: EncodedDocument | None = None) -> Tensor:
    """Per-state margin loss, teacher-forced along the gold derivation.

    For each visited state with gold action a*, every LEGAL action a pays
    max(0, 1 + S(s, a) - S(s, a*)); the total is divided by the full action
    inventory size.  The a = a* terms contribute a constant floor of
    (2n - 1) / |A|, so a fully separated model plateaus there, not at zero.

    The gold derivation fixes every state before any scoring, so the states'
    slot rows are collected first; the tape then holds one gather from
    [M; 0], one batched scorer and one hinge, whatever n is.
    """
    if doc.gold is None:
        raise ValueError(f"document {doc.doc_id} has no gold tree")
    if enc is None:
        enc = encode_document(doc, params, masks)
    rows, gold, legal = [], [], []
    state = initial_state(doc.n)
    for gold_action in oracle_actions(doc.gold):
        rows.append(slot_rows(state))
        gold.append(action_index(gold_action, params.n_rel))
        legal.append(legal_mask(state, params.n_actions))
        state = apply_action(state, gold_action)
    if not is_terminal(state):
        raise ValueError("gold derivation did not terminate")
    M = enc.tensor
    padded = ops.concat([M, ops.zeros((1, M.shape[1]))], axis=0)
    mask = masks.hidden_for(ACTION) if masks is not None else None
    scores = Feedforward(params, ACTION).apply(ops.take_rows(padded, rows), mask)
    return ops.scale(ops.margin_hinge(scores, gold, np.array(legal)),
                     1.0 / params.n_actions)
