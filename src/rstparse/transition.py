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
    encode_document,
    span_rep,
)
from .ops import Tensor

STACK_SLOTS = 3
QUEUE_SLOTS = 3


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

def state_rep(state: ParserState, enc: EncodedDocument) -> Tensor:
    """Top stack spans (8H each) then front queue EDUs (4H each), zero-padded."""
    h = enc.matrix().shape[1]         # 4H
    parts = []
    for slot in range(STACK_SLOTS):
        if slot < len(state.stack):
            i, j = state.stack[-1 - slot]
            parts.append(span_rep(enc, i, j))
        else:
            parts.append(ops.zeros(2 * h))
    for slot in range(QUEUE_SLOTS):
        edu = state.shifted + slot    # 0-based position of queued EDU
        if edu < state.n:
            parts.append(enc.edus[edu])
        else:
            parts.append(ops.zeros(h))
    return ops.concat(parts)


def state_rep_np(state: ParserState, matrix: np.ndarray) -> np.ndarray:
    h = matrix.shape[1]
    parts = []
    for slot in range(STACK_SLOTS):
        if slot < len(state.stack):
            i, j = state.stack[-1 - slot]
            parts.append(matrix[i])
            parts.append(matrix[j - 1])
        else:
            parts.append(np.zeros(2 * h))
    for slot in range(QUEUE_SLOTS):
        edu = state.shifted + slot
        parts.append(matrix[edu] if edu < state.n else np.zeros(h))
    return np.concatenate(parts)


def score_actions(state: ParserState, enc: EncodedDocument, params: ModelParams,
                  masks: DropoutMasks | None = None) -> Tensor:
    mask = masks.hidden_for(ACTION) if masks is not None else None
    return Feedforward(params, ACTION).apply(state_rep(state, enc), mask)


def greedy_parse(doc: Document, params: ModelParams,
                 enc: EncodedDocument | None = None) -> RstTree:
    """Best legal action at each state, ties to the lowest action index."""
    if enc is None:
        enc = encode_document(doc, params)
    matrix = enc.matrix()
    ff = Feedforward(params, ACTION)
    n_rel = params.n_rel
    state = initial_state(doc.n)
    while not is_terminal(state):
        scores = ff.apply_np(state_rep_np(state, matrix)[None, :])[0]
        legal = [action_index(a, n_rel) for a in legal_actions(state, n_rel)]
        choice = legal[int(np.argmax(scores[legal]))]
        state = apply_action(state, index_action(choice, n_rel))
    return finish(state)


def transition_loss(doc: Document, params: ModelParams,
                    masks: DropoutMasks | None = None,
                    enc: EncodedDocument | None = None) -> Tensor:
    """Per-state margin loss, teacher-forced along the gold derivation.

    For each visited state with gold action a*, every LEGAL action a pays
    max(0, 1 + S(s, a) - S(s, a*)); the total is divided by the full action
    inventory size.  The a = a* terms contribute a constant floor of
    (2n - 1) / |A|, so a fully separated model plateaus there, not at zero.
    """
    if doc.gold is None:
        raise ValueError(f"document {doc.doc_id} has no gold tree")
    if enc is None:
        enc = encode_document(doc, params, masks)
    n_rel = params.n_rel
    terms: list[Tensor] = []
    state = initial_state(doc.n)
    for gold_action in oracle_actions(doc.gold):
        scores = score_actions(state, enc, params, masks)
        star = ops.pick(scores, action_index(gold_action, n_rel))
        for a in legal_actions(state, n_rel):
            s_a = ops.pick(scores, action_index(a, n_rel))
            terms.append(ops.relu((s_a - star) + 1.0))
        state = apply_action(state, gold_action)
    if not is_terminal(state):
        raise ValueError("gold derivation did not terminate")
    return ops.scale(ops.addn(terms), 1.0 / params.n_actions)
