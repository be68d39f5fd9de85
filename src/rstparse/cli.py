"""Command-line interface: train, parse, eval, oracle, compare.

Exit codes: 0 success, 1 data error, 2 configuration error.  Each exception
class the package defines derives from one of two bases in ``core``;
``main`` catches those two, and OSError (a file that cannot be opened) with
exit 1:

- ``DataError``, exit 1: ``data.CorpusError`` and its subclasses (an
  unreadable or malformed corpus, missing documents or predictions),
  ``encoder.ModelError`` (a model file that is not a valid model),
  ``chart.ExactTooLarge`` (a document too long to decode exactly) and
  ``chart.NonFiniteScore`` (a non-finite score).
- ``ConfigError``, exit 2: a bad config file, key or value, from the file
  or a flag (``TrainConfig.validate``), model sizes whose parameters exceed
  core.MEMORY_LIMIT, and ``training.TrainingDiverged``, whose remedy is a
  smaller lr or a grad_clip.  Flags argparse refuses exit with 2 too.

Training settings come from defaults, then an optional ``key = value`` config
file, then explicit flags, in that order.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import ops
from .chart import DECODERS, NeuralOracle, below_gold, score_tree
from .core import ConfigError, DataError, Document
from .data import (
    MANIFEST_NAME,
    CorpusError,
    load_corpus,
    load_edus,
    load_embeddings,
    open_text,
    parse_manifest,
    parse_tree_text,
    serialize_tree,
    split_train_dev,
)
from .encoder import ModelParams, encode_document
from .metrics import evaluate_trees, format_report, machine_rows
from .training import (
    PARSE_METHODS,
    REPORT_HEADER,
    TrainConfig,
    predict_tree,
    report_row,
    train,
)
from .transition import greedy_parse, oracle_actions, parse_actions, replay, \
    serialize_actions


def optional_float(text: str) -> float | None:
    return None if text.lower() == "none" else float(text)


# Each training setting, as a config key and a --flag: the fields of
# TrainConfig, typed as their defaults, and dev_size.
_COERCERS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
_COERCERS.update(grad_clip=optional_float, dev_size=int)


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open_text(path, ConfigError) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        coerce = _COERCERS.get(key)
        if coerce is None:
            raise ConfigError(f"{path}, line {lineno}: unknown key {key!r}")
        try:
            values[key] = coerce(raw)
        except ValueError:
            raise ConfigError(
                f"{path}, line {lineno}: bad value {raw!r} for {key!r}") from None
    return values


def build_train_config(args) -> tuple[TrainConfig, int]:
    values = parse_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _COERCERS
                  if hasattr(args, key))
    dev_size = values.pop("dev_size", 0)
    cfg = TrainConfig()
    for key, val in values.items():
        setattr(cfg, key, val)
    cfg.validate()
    if dev_size < 0:
        raise ConfigError("dev_size must be non-negative")
    return cfg, dev_size


# --- subcommands ----------------------------------------------------------

def cmd_train(args) -> int:
    cfg, dev_size = build_train_config(args)
    corpus = load_corpus(args.corpus)
    if corpus.rel_vocab.size < 2:
        raise CorpusError(f"{os.path.join(args.corpus, MANIFEST_NAME)} lists "
                          "no relations; training needs at least one")
    if dev_size == 0:
        train_docs, dev_docs = list(corpus.documents), list(corpus.documents)
    else:
        if dev_size >= len(corpus):
            raise ConfigError(f"dev_size {dev_size} leaves no training "
                              f"documents (corpus has {len(corpus)})")
        train_docs, dev_docs = split_train_dev(corpus, dev_size, cfg.seed)
    pretrained = None
    if args.embeddings:
        pretrained = load_embeddings(args.embeddings, corpus.word_vocab)
        print(f"embeddings: {pretrained.found}/{pretrained.vocab_size} tokens "
              f"covered ({100.0 * pretrained.coverage:.1f}%)")

    result = train(train_docs, dev_docs, corpus.vocabs, cfg,
                   pretrained=pretrained, log=print)
    result.params.save(args.out)
    report_path = args.report or args.out + ".report.tsv"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(REPORT_HEADER + "\n")
        for r in result.reports:
            fh.write(report_row(r) + "\n")
    print(f"best epoch {result.best_epoch} "
          f"({cfg.selection}={result.best_score:.1f})")
    print(f"model written to {args.out}")
    print(f"report written to {report_path}")
    return 0


def _load_documents(paths) -> list[Document]:
    """One document per path, its id the base name without ``.edus``.  Two
    paths with one id would write one prediction file, so they are a
    CorpusError."""
    docs, seen = [], {}
    for path in paths:
        doc_id = os.path.basename(path)
        if doc_id.endswith(".edus"):
            doc_id = doc_id[:-len(".edus")]
        if doc_id in seen:
            raise CorpusError(f"{seen[doc_id]} and {path} both give document "
                              f"id {doc_id!r}")
        seen[doc_id] = path
        docs.append(Document(doc_id, load_edus(path)))
    return docs


def cmd_parse(args) -> int:
    params = ModelParams.load(args.model)
    docs = _load_documents(args.edus)
    os.makedirs(args.out_dir, exist_ok=True)
    for doc in docs:
        tree = predict_tree(doc, params, args.decoder)
        out_path = os.path.join(args.out_dir, doc.doc_id + ".tree")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_tree(tree, params.rel_vocab))
        print(f"{doc.doc_id}: wrote {out_path}")
    return 0


def cmd_eval(args) -> int:
    gold = load_corpus(args.gold)
    missing = []
    pairs = []
    for doc in gold.documents:
        pred_path = os.path.join(args.pred, doc.doc_id + ".tree")
        if not os.path.exists(pred_path):
            missing.append(doc.doc_id)
            continue
        with open_text(pred_path) as fh:
            pred = parse_tree_text(fh.read(), gold.rel_vocab, n_edus=doc.n)
        pairs.append((doc.doc_id, pred, doc.gold))
    if missing:
        raise CorpusError(f"{args.pred}: missing predictions for: "
                          + " ".join(missing))
    report = evaluate_trees(pairs)
    print(format_report(report, per_doc=args.per_doc))
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(machine_rows(report)) + "\n")
    return 0


def cmd_oracle(args) -> int:
    with open_text(args.manifest) as fh:
        rel_vocab = parse_manifest(fh.read())
    with open_text(args.tree) as fh:
        tree = parse_tree_text(fh.read(), rel_vocab)
    actions = oracle_actions(tree)
    line = serialize_actions(actions, rel_vocab)
    print(line)
    if args.replay:
        rebuilt = replay(parse_actions(line, rel_vocab), tree.n)
        if rebuilt != tree:
            print("round trip FAILED", file=sys.stderr)
            return 1
        print(f"round trip ok ({len(actions)} actions)", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    params = ModelParams.load(args.model)
    corpus = load_corpus(args.corpus)
    if corpus.rel_vocab != params.rel_vocab:
        raise CorpusError(f"{args.corpus} has relations "
                          f"{list(corpus.rel_vocab.names[1:])}, the model "
                          f"{list(params.rel_vocab.names[1:])}")
    methods = list(PARSE_METHODS)

    scores: dict[str, list[float]] = {m: [] for m in methods}
    trees: dict[str, list] = {m: [] for m in methods}
    gold_scores: list[float] = []
    times = {m: 0.0 for m in methods}
    for doc in corpus.documents:
        with ops.no_tape():
            enc = encode_document(doc, params)
        oracle = NeuralOracle(params, enc)
        gold_scores.append(score_tree(doc.gold, oracle))
        for m in methods:
            t0 = time.perf_counter()
            if m == "transition":
                tree = greedy_parse(doc, params, enc)
            else:
                tree, _ = DECODERS[m](doc.n, oracle)
            times[m] += time.perf_counter() - t0
            trees[m].append(tree)
            scores[m].append(score_tree(tree, oracle))

    ids = [doc.doc_id for doc in corpus.documents]
    width = max(12, max(len(i) for i in ids) + 2)
    print(f"{'doc':{width}s} " + " ".join(f"{m:>12s}" for m in methods)
          + f" {'gold':>12s}")
    for row, doc_id in enumerate(ids):
        cells = " ".join(f"{scores[m][row]:12.4f}" for m in methods)
        print(f"{doc_id:{width}s} {cells} {gold_scores[row]:12.4f}")
    print()
    print(f"{'decoder':12s} {'span':>6s} {'nuc':>6s} {'rel':>6s} "
          f"{'missing':>8s} {'seconds':>8s}")
    for m in methods:
        report = evaluate_trees([(doc_id, tree, doc.gold) for doc_id, tree, doc
                                 in zip(ids, trees[m], corpus.documents)])
        miss = sum(below_gold(s, g) for s, g in zip(scores[m], gold_scores))
        print(f"{m:12s} {report.micro['span']:6.1f} "
              f"{report.micro['nuclearity']:6.1f} "
              f"{report.micro['relation']:6.1f} {miss:8d} {times[m]:8.3f}")
    return 0


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstparse",
        description="Discourse parsing with global chart decoders and a "
                    "shift-reduce parser over one shared representation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--report", help="epoch report path "
                                    "(default: <out>.report.tsv)")
    p.add_argument("--embeddings", help="GloVe-style pretrained vectors")
    for key, coerce in _COERCERS.items():    # absent unless given
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=coerce,
                       default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse .edus files with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--decoder", default="partial", choices=PARSE_METHODS)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("edus", nargs="+", help=".edus files")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predicted trees against a corpus")
    p.add_argument("--gold", required=True, help="gold corpus directory")
    p.add_argument("--pred", required=True, help="directory of .tree files")
    p.add_argument("--per-doc", dest="per_doc", action="store_true")
    p.add_argument("--tsv", help="write machine-readable rows here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="print the action derivation of a tree")
    p.add_argument("tree", help=".tree file")
    p.add_argument("--manifest", required=True, help="relations.txt")
    p.add_argument("--replay", action="store_true",
                   help="verify the derivation rebuilds the tree")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare",
                       help="run every decoder on a corpus and compare")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow ends in NonFiniteScore alone, with no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
