"""Corpus ingestion: EDU/tree file parsing, vocabularies, embeddings, splits.

On-disk layout of a corpus directory:

* ``relations.txt`` -- one relation label per line; blank lines and ``#``
  comments are ignored; the reserved leaf label is implicit.
* ``<doc_id>.edus`` -- one EDU per line; tokens as ``word_POS`` pairs joined by
  single spaces, split at the last unescaped underscore.  A backslash stands
  for the character after it, and a lone trailing backslash for itself, so
  literal underscores are written ``\\_`` and backslashes ``\\\\``.
* ``<doc_id>.tree`` -- one s-expression: ``(LEAF k)`` for EDU k (1-based) or
  ``(<NN|NS|SN> <Relation> <child> <child>)``.

Files are UTF-8 with LF line endings.  Every text file is opened with
``open_text``, so bytes that are not UTF-8, and errors in the text read
from it, raise a CorpusError naming the file.  An ``.edus`` file is read as
it is: a CR, or any whitespace in an EDU line but a space, is an error.
"""

from __future__ import annotations

import itertools
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DataError,
    Document,
    Edu,
    LabeledSpan,
    LEAF_RELATION,
    LEAF_RELATION_NAME,
    Nuclearity,
    INTERNAL_NUCLEARITIES,
    RelationVocab,
    RstTree,
    validate_tree,
)

MANIFEST_NAME = "relations.txt"

UNK = "<unk>"


class CorpusError(DataError):
    """Base class for corpus ingestion failures."""


class TreeSyntaxError(CorpusError):
    """Malformed .edus/.tree text; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EduCountMismatchError(CorpusError):
    pass


class UnknownRelationError(CorpusError):
    pass


class TreeInvariantError(CorpusError):
    pass


@contextmanager
def open_text(path: str, error: type[Exception] = CorpusError,
              newline: str | None = None):
    """``path`` opened as UTF-8 text, ``newline`` as ``open`` takes it.
    Bytes that are not UTF-8, met while the file is read, raise ``error``
    naming the file.  A CorpusError raised while it is open, such as a parse
    error in its text, keeps its type and gets the file's name before its
    message.  A file that cannot be opened stays an OSError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except CorpusError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class Vocab:
    """Token inventory with a reserved unknown entry at index 0."""

    def __init__(self, tokens: Iterable[str]):
        tokens = tuple(tokens)
        if UNK in tokens:
            raise ValueError(f"{UNK!r} is reserved")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens")
        self.tokens = (UNK,) + tokens
        self._index = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def from_documents(cls, docs: Sequence[Document], field: str) -> "Vocab":
        """Sorted vocabulary over ``tokens`` or ``pos_tags`` of the given docs."""
        seen: set[str] = set()
        for doc in docs:
            for edu in doc.edus:
                seen.update(getattr(edu, field))
        seen.discard(UNK)
        return cls(sorted(seen))

    def lookup(self, token: str) -> int:
        return self._index.get(token, 0)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens


@dataclass
class CorpusVocabs:
    word: Vocab
    pos: Vocab
    rel: RelationVocab


@dataclass
class Corpus:
    documents: tuple[Document, ...]
    rel_vocab: RelationVocab
    word_vocab: Vocab
    pos_vocab: Vocab

    @property
    def vocabs(self) -> CorpusVocabs:
        return CorpusVocabs(self.word_vocab, self.pos_vocab, self.rel_vocab)

    def __len__(self) -> int:
        return len(self.documents)


# --- token escaping -------------------------------------------------------

def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("_", "\\_")


def _split_token(item: str, line: int, column: int) -> tuple[str, str]:
    """Split ``word_POS`` at the last unescaped underscore, unescaping both
    halves in the same pass: a backslash stands for the character after it,
    and a lone trailing backslash stands for itself."""
    out = []
    sep = -1                    # index in ``out`` of the last unescaped "_"
    chars = iter(item)
    for c in chars:
        if c == "\\":
            c = next(chars, "\\")
        elif c == "_":
            sep = len(out)
        out.append(c)
    if sep <= 0 or sep == len(out) - 1:
        raise TreeSyntaxError(f"token {item!r} is not a word_POS pair", line, column)
    text = "".join(out)
    return text[:sep], text[sep + 1:]


# --- .edus files ----------------------------------------------------------

# Whitespace other than the space that separates an EDU line's tokens.
_OTHER_SPACE = re.compile(r"[^\S ]")


def parse_edus_text(text: str) -> tuple[Edu, ...]:
    edus = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        if bad := _OTHER_SPACE.search(line):
            raise TreeSyntaxError(f"whitespace {bad.group()!r} in EDU line",
                                  lineno, bad.start() + 1)
        tokens = []
        tags = []
        column = 1
        for item in line.split(" "):
            if item == "":
                raise TreeSyntaxError("double space in EDU line", lineno, column)
            word, tag = _split_token(item, lineno, column)
            tokens.append(word)
            tags.append(tag)
            column += len(item) + 1
        edus.append(Edu(tuple(tokens), tuple(tags), len(edus) + 1))
    if not edus:
        raise TreeSyntaxError("no EDUs in file", 1, 0)
    return tuple(edus)


def load_edus(path: str) -> tuple[Edu, ...]:
    """The EDUs of an ``.edus`` file, read untranslated (a CR is refused)."""
    with open_text(path, newline="") as fh:
        return parse_edus_text(fh.read())


# Any whitespace: exactly the characters str.isspace accepts.
_SPACE = re.compile(r"\s")


def serialize_edus(edus: Sequence[Edu]) -> str:
    lines = []
    for edu in edus:
        # one search per EDU; the first bad pair is looked for only on failure
        if (not all(edu.tokens) or not all(edu.pos_tags)
                or _SPACE.search("".join(edu.tokens) + "".join(edu.pos_tags))):
            for tok, tag in zip(edu.tokens, edu.pos_tags):
                if not tok or not tag or _SPACE.search(tok + tag):
                    raise ValueError(
                        f"token/tag {tok!r}/{tag!r} not serializable")
        lines.append(" ".join(f"{_escape(t)}_{_escape(p)}"
                              for t, p in zip(edu.tokens, edu.pos_tags)))
    return "\n".join(lines) + "\n"


# --- .tree files ----------------------------------------------------------

# A paren, or a run of characters that are neither parens nor whitespace.
# ``\s`` matches exactly the characters ``str.isspace`` accepts.
_SEXPR_TOKEN = re.compile(r"[()]|[^()\s]+")


def parse_tree_text(text: str, rel_vocab: RelationVocab,
                    n_edus: int | None = None) -> RstTree:
    """Parse one bracketed tree; checks labels and the span invariants."""
    tokens = _SEXPR_TOKEN.findall(text)
    if not tokens:
        raise TreeSyntaxError("empty tree file", 1, 0)

    pos = 0

    def where(index: int) -> tuple[int, int]:
        """Line and column, both 1-based, of token ``index``; only errors
        need one, so it is found by scanning the text again."""
        start = next(itertools.islice(_SEXPR_TOKEN.finditer(text), index, None)).start()
        return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)

    def take(what: str, want: str | None = None) -> str:
        """The next token; it must be ``want`` when that is given."""
        nonlocal pos
        if pos >= len(tokens):
            raise TreeSyntaxError(f"expected {what}, found end of input",
                                  *where(len(tokens) - 1))
        tok = tokens[pos]
        if want is not None and tok != want:
            raise TreeSyntaxError(f"expected {what}, found {tok!r}", *where(pos))
        pos += 1
        return tok

    spans: list[LabeledSpan] = []
    splits: dict[tuple[int, int], int] = {}
    # [nuclearity, relation] of each internal node whose ')' is still to
    # come, plus its left child's span once that is read.  A loop over this
    # stack instead of recursion reads trees of any depth.
    open_nodes: list[list] = []
    while True:
        take("'('", "(")
        head = take("node head")
        if head != LEAF_RELATION_NAME:
            if head not in ("NN", "NS", "SN"):
                raise TreeSyntaxError(f"expected NN, NS, SN or {LEAF_RELATION_NAME},"
                                      f" found {head!r}", *where(pos - 1))
            nuc = Nuclearity[head]
            rel_name = take("relation label")
            try:
                rel = rel_vocab.index(rel_name)
            except KeyError:
                line, col = where(pos - 1)
                raise UnknownRelationError(
                    f"line {line}, column {col}: unknown relation label {rel_name!r}"
                ) from None
            if rel == LEAF_RELATION:
                line, col = where(pos - 1)
                raise UnknownRelationError(
                    f"line {line}, column {col}: reserved label on internal node")
            open_nodes.append([nuc, rel])
            continue
        num = take("EDU number")
        if not num.isdigit() or int(num) < 1:
            raise TreeSyntaxError(f"bad EDU number {num!r}", *where(pos - 1))
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
        raise TreeSyntaxError(f"trailing content {tokens[pos]!r}", *where(pos))

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


def serialize_tree(tree: RstTree, rel_vocab: RelationVocab) -> str:
    """Render one tree as a single-line s-expression.

    Leaf nodes are written as ``(LEAF k)`` whatever labels they carry in
    memory, so the output of any decoder round-trips as a valid tree.
    """
    out: list[str] = []
    todo: list = [(0, tree.n)]      # spans to render and text to emit, in reverse
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        i, j = item
        if j == i + 1:
            out.append(f"({LEAF_RELATION_NAME} {j})")
            continue
        k = tree.splits[(i, j)]
        rel, nuc = tree.label_at(i, j)
        if nuc not in INTERNAL_NUCLEARITIES or rel == LEAF_RELATION:
            raise ValueError(f"internal span ({i}, {j}) carries leaf labels")
        out.append(f"({Nuclearity(nuc).name} {rel_vocab.name(rel)} ")
        todo += [")", (k, j), " ", (i, k)]
    return "".join(out) + "\n"


# --- corpus directories ---------------------------------------------------

def parse_manifest(text: str) -> RelationVocab:
    names = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == LEAF_RELATION_NAME:
            raise UnknownRelationError(
                f"line {lineno}: {LEAF_RELATION_NAME!r} is implicit, do not list it")
        names.append(line)
    try:
        return RelationVocab(names)
    except ValueError as exc:
        raise UnknownRelationError(str(exc)) from None


def load_corpus(directory: str) -> Corpus:
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise CorpusError(f"missing manifest {manifest}")
    with open_text(manifest) as fh:
        rel_vocab = parse_manifest(fh.read())

    docs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".edus"):
            continue
        doc_id = name[:-len(".edus")]
        edus = load_edus(os.path.join(directory, name))
        tree_path = os.path.join(directory, doc_id + ".tree")
        if not os.path.exists(tree_path):
            raise CorpusError(f"missing tree file for {doc_id}")
        with open_text(tree_path) as fh:
            gold = parse_tree_text(fh.read(), rel_vocab, n_edus=len(edus))
        docs.append(Document(doc_id, edus, gold))
    if not docs:
        raise CorpusError(f"no .edus files in {directory}")

    documents = tuple(docs)
    return Corpus(documents, rel_vocab,
                  Vocab.from_documents(documents, "tokens"),
                  Vocab.from_documents(documents, "pos_tags"))


def save_corpus(corpus: Corpus, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(corpus.rel_vocab.names[1:]) + "\n")
    for doc in corpus.documents:
        with open(os.path.join(directory, doc.doc_id + ".edus"), "w",
                  encoding="utf-8") as fh:
            fh.write(serialize_edus(doc.edus))
        if doc.gold is not None:
            with open(os.path.join(directory, doc.doc_id + ".tree"), "w",
                      encoding="utf-8") as fh:
                fh.write(serialize_tree(doc.gold, corpus.rel_vocab))


# --- splits ---------------------------------------------------------------

def split_train_dev(corpus: Corpus, dev_size: int,
                    seed: int) -> tuple[list[Document], list[Document]]:
    """Seeded uniform sample without replacement for the dev split."""
    docs = list(corpus.documents)
    if not 0 <= dev_size < len(docs):
        raise ValueError(f"dev_size {dev_size} out of range for {len(docs)} documents")
    rng = np.random.default_rng(seed)
    dev_idx = set(rng.choice(len(docs), size=dev_size, replace=False).tolist())
    train = [d for i, d in enumerate(docs) if i not in dev_idx]
    dev = [d for i, d in enumerate(docs) if i in dev_idx]
    return train, dev


# --- pretrained embeddings ------------------------------------------------

@dataclass
class PretrainedEmbeddings:
    """Frozen word vectors aligned with a vocabulary; absent tokens get zeros."""

    table: np.ndarray
    found: int
    vocab_size: int

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def coverage(self) -> float:
        return self.found / self.vocab_size if self.vocab_size else 0.0


def load_embeddings(path: str, vocab: Vocab) -> PretrainedEmbeddings:
    """Read a text embedding file (token then D floats per line).

    A word2vec-style header line, ``<count> <dim>`` as the first line, is
    skipped, and its dim is then required of every vector.  A value that is
    not a finite float raises CorpusError naming the file and line.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split()
            if lineno == 1 and len(fields) == 2 and all(
                    f.isdigit() for f in fields):
                dim = int(fields[1])
                continue
            if len(fields) < 2:
                raise CorpusError(f"line {lineno}: too few fields")
            token = fields[0]
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError:
                raise CorpusError(f"line {lineno}: unparseable float") from None
            # float() takes nan, inf and overflowing literals such as 1e999
            if not np.isfinite(vec).all():
                bad = fields[1 + int(np.argmin(np.isfinite(vec)))]
                raise CorpusError(f"line {lineno}: non-finite value {bad!r}")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise CorpusError(
                    f"line {lineno}: expected {dim} values, found {len(vec)}")
            vectors[token] = vec
    if not vectors:
        raise CorpusError(f"{path}: empty embedding file")

    table = np.zeros((len(vocab), dim))
    found = 0
    for i, token in enumerate(vocab.tokens):
        vec = vectors.get(token)
        if vec is not None:
            table[i] = vec
            found += 1
    return PretrainedEmbeddings(table, found, len(vocab))


# --- synthetic corpora ----------------------------------------------------

_WORDS = ("alpha", "bravo", "delta", "echo", "lima", "metric", "node", "onyx",
          "pivot", "quartz", "relay", "sigma", "tensor", "umbra", "vector", "zephyr")
_TAGS = ("NN", "VB", "JJ", "RB", "IN", "DT")


def random_tree(n: int, rel_vocab: RelationVocab, rng: np.random.Generator) -> RstTree:
    """Random binary tree over n EDUs by uniform split sampling.

    Draws k, then the relation, then the nuclearity at each internal span,
    in pre-order with the left subtree before the right, from an explicit
    stack, so any n works without recursion.
    """
    if n >= 2 and rel_vocab.size < 2:
        raise ValueError("need at least one real relation label")
    spans: list[LabeledSpan] = []
    splits: dict[tuple[int, int], int] = {}
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        if j == i + 1:
            spans.append(LabeledSpan(i, j, LEAF_RELATION, Nuclearity.LEAF))
            continue
        k = int(rng.integers(i + 1, j))
        rel = int(rng.integers(1, rel_vocab.size))
        nuc = INTERNAL_NUCLEARITIES[int(rng.integers(0, 3))]
        spans.append(LabeledSpan(i, j, rel, nuc))
        splits[(i, j)] = k
        stack.append((k, j))
        stack.append((i, k))
    return RstTree(spans, n, splits)


def generate_synthetic(n_docs: int, max_edus: int, rel_vocab: RelationVocab,
                       seed: int) -> Corpus:
    """Deterministic random corpus for tests and smoke runs."""
    if max_edus < 1:
        raise ValueError("max_edus must be at least 1")
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_docs):
        n = int(rng.integers(1, max_edus + 1))
        edus = []
        for t in range(n):
            length = int(rng.integers(1, 5))
            tokens = tuple(_WORDS[int(rng.integers(0, len(_WORDS)))]
                           for _ in range(length))
            tags = tuple(_TAGS[int(rng.integers(0, len(_TAGS)))]
                         for _ in range(length))
            edus.append(Edu(tokens, tags, t + 1))
        gold = random_tree(n, rel_vocab, rng)
        docs.append(Document(f"doc{d:04d}", tuple(edus), gold))
    documents = tuple(docs)
    return Corpus(documents, rel_vocab,
                  Vocab.from_documents(documents, "tokens"),
                  Vocab.from_documents(documents, "pos_tags"))
