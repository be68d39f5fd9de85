"""Core data model for binary discourse trees: EDUs, labeled spans, trees.

Spans use fencepost indices 0..n; span (i, j) covers EDUs i+1..j (1-based), and
a span is a leaf exactly when j == i + 1.  Leaf spans carry the reserved labels
(LEAF_RELATION, Nuclearity.LEAF); internal spans carry a real relation and one
of NN/NS/SN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Mapping


class Nuclearity(IntEnum):
    """Direction marker of a relation; LEAF is reserved for leaf spans."""

    NN = 0
    NS = 1
    SN = 2
    LEAF = 3


NUM_NUCLEARITIES = 4
INTERNAL_NUCLEARITIES = (Nuclearity.NN, Nuclearity.NS, Nuclearity.SN)

# Reserved relation index for leaf spans; every vocabulary places it at row 0.
LEAF_RELATION = 0
LEAF_RELATION_NAME = "LEAF"

# Bytes one model's parameters (encoder.model_bytes) or one exact decode
# (chart._exact_bytes) may hold.  Both are worked out from sizes before
# anything is allocated, and read here at call time.
MEMORY_LIMIT = 2 ** 30


class DataError(ValueError):
    """An input the program cannot use: a corpus, model or embedding file,
    or a document it cannot decode.  The CLI exits with 1."""


class ConfigError(ValueError):
    """A setting the program cannot run with: a flag, config key or model
    size, or training that diverged under it.  The CLI exits with 2."""


class RelationVocab:
    """Relation inventory; index 0 is always the reserved leaf label."""

    def __init__(self, names: Iterable[str]):
        real = tuple(names)
        for name in real:
            if not name or any(c.isspace() for c in name) or "(" in name or ")" in name:
                raise ValueError(f"bad relation name {name!r}")
            if name == LEAF_RELATION_NAME:
                raise ValueError(f"{LEAF_RELATION_NAME!r} is reserved")
        if len(set(real)) != len(real):
            raise ValueError("duplicate relation names")
        self.names = (LEAF_RELATION_NAME,) + real
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown relation label {name!r}") from None

    def name(self, index: int) -> str:
        return self.names[index]

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, RelationVocab) and self.names == other.names

    def __repr__(self) -> str:
        return f"RelationVocab({list(self.names[1:])!r})"


@dataclass(frozen=True)
class Edu:
    """One elementary discourse unit: tokens with aligned POS tags, 1-based index."""

    tokens: tuple[str, ...]
    pos_tags: tuple[str, ...]
    index: int

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("EDU must contain at least one token")
        if len(self.tokens) != len(self.pos_tags):
            raise ValueError("tokens and POS tags must align")
        if self.index < 1:
            raise ValueError("EDU index is 1-based")


@dataclass(frozen=True)
class LabeledSpan:
    """A fencepost span (i, j) with a relation index and a nuclearity."""

    i: int
    j: int
    relation: int
    nuclearity: Nuclearity

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"bad span ({self.i}, {self.j})")
        if self.relation < 0:
            raise ValueError("relation index must be non-negative")

    @property
    def is_leaf(self) -> bool:
        return self.j == self.i + 1


class RstTree:
    """A binary discourse tree stored as a set of labeled spans plus split points.

    ``splits`` maps each internal span (i, j) to the fencepost k at which it is
    divided into (i, k) and (k, j).  The structure is not checked here; use
    :func:`validate_tree`.
    """

    __slots__ = ("spans", "n", "splits", "labels")

    def __init__(self, spans: Iterable[LabeledSpan], n: int,
                 splits: Mapping[tuple[int, int], int]):
        spans = frozenset(spans)
        labels: dict[tuple[int, int], tuple[int, Nuclearity]] = {}
        for s in spans:
            key = (s.i, s.j)
            if key in labels:
                raise ValueError(f"duplicate span {key}")
            labels[key] = (s.relation, s.nuclearity)
        self.spans = spans
        self.n = n
        self.splits = dict(splits)
        self.labels = labels

    def has_span(self, i: int, j: int) -> bool:
        return (i, j) in self.labels

    def label_at(self, i: int, j: int) -> tuple[int, Nuclearity]:
        return self.labels[(i, j)]

    def internal_items(self) -> Iterator[tuple[int, int, int, int, Nuclearity]]:
        """Yield (i, j, split, relation, nuclearity) for internal spans, sorted."""
        for (i, j) in sorted(k for k in self.labels if j_minus(k) >= 2):
            rel, nuc = self.labels[(i, j)]
            yield i, j, self.splits[(i, j)], rel, nuc

    def leaf_items(self) -> Iterator[tuple[int, int, Nuclearity]]:
        """Yield (i, relation, nuclearity) for each leaf span (i, i+1), in order."""
        for i in range(self.n):
            rel, nuc = self.labels[(i, i + 1)]
            yield i, rel, nuc

    def __eq__(self, other) -> bool:
        return (isinstance(other, RstTree) and self.n == other.n
                and self.spans == other.spans and self.splits == other.splits)

    def __repr__(self) -> str:
        return f"RstTree(n={self.n}, spans={len(self.spans)})"


def j_minus(pair: tuple[int, int]) -> int:
    return pair[1] - pair[0]


def structural_error(tree: RstTree) -> str | None:
    """Check span/split structure only, ignoring what the labels are.

    Returns None when the spans form a complete binary decomposition of (0, n),
    otherwise a description of the first violation.
    """
    n = tree.n
    if n < 1:
        return "EDU count must be at least 1"
    pairs = tree.labels
    if (0, n) not in pairs:
        return f"root span (0, {n}) absent"
    for t in range(1, n + 1):
        if (t - 1, t) not in pairs:
            return f"leaf span ({t - 1}, {t}) absent"
    if len(pairs) != 2 * n - 1:
        return f"expected {2 * n - 1} spans, found {len(pairs)}"
    for (i, j) in pairs:
        if not 0 <= i < j <= n:
            return f"span ({i}, {j}) out of bounds for n={n}"
    internal = {p for p in pairs if j_minus(p) >= 2}
    if set(tree.splits) != internal:
        missing = internal - set(tree.splits)
        if missing:
            return f"no split recorded for internal span {min(missing)}"
        extra = set(tree.splits) - internal
        return f"split recorded for non-member span {min(extra)}"
    for (i, j), k in sorted(tree.splits.items()):
        if not i < k < j:
            return f"split {k} of ({i}, {j}) out of range"
        if (i, k) not in pairs or (k, j) not in pairs:
            return f"children of ({i}, {j}) at split {k} are not member spans"
    return None


def validate_tree(tree: RstTree) -> str | None:
    """Full validity check: structure plus the leaf/internal label conventions.

    Returns None when the tree is valid, otherwise a description of the first
    violated constraint.
    """
    err = structural_error(tree)
    if err is not None:
        return err
    for s in sorted(tree.spans, key=lambda s: (s.i, s.j)):
        if s.is_leaf:
            if s.relation != LEAF_RELATION or s.nuclearity != Nuclearity.LEAF:
                return f"leaf span ({s.i}, {s.j}) must carry the reserved leaf labels"
        else:
            if s.relation == LEAF_RELATION:
                return f"internal span ({s.i}, {s.j}) carries the reserved leaf relation"
            if s.nuclearity not in INTERNAL_NUCLEARITIES:
                return f"internal span ({s.i}, {s.j}) carries leaf nuclearity"
    return None


@dataclass(frozen=True)
class Document:
    """An input document: ordered EDUs and an optional gold tree."""

    doc_id: str
    edus: tuple[Edu, ...]
    gold: RstTree | None = None

    def __post_init__(self):
        if not self.edus:
            raise ValueError("document must contain at least one EDU")
        for pos, edu in enumerate(self.edus, start=1):
            if edu.index != pos:
                raise ValueError(f"EDU at position {pos} has index {edu.index}")
        if self.gold is not None and self.gold.n != len(self.edus):
            raise ValueError("gold tree EDU count does not match document")

    @property
    def n(self) -> int:
        return len(self.edus)
