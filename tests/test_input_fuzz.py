"""Seeded random edits of the CLI's input files, driven through the CLI.

Each corpus case copies a small synthetic corpus, makes one to three edits
to one of its ``.edus``, ``.tree`` or ``relations.txt`` files (deleting,
inserting, replacing or duplicating characters or lines), and runs every
command that reads the edited file: ``parse`` with a tiny saved model,
``eval`` with the edited corpus as the gold side and, for a ``.tree`` edit,
as the predicted side, and ``oracle --replay``.  Each training case makes
one such edit to a ``--config`` file or an ``--embeddings`` file of tiny
sizes and runs ``train``; each size case appends one digit, or nine to
twelve, to one size in the config file and runs ``train``.

An edit to a data file may make a command fail, but only with exit code 1
and exactly one ``data error:`` or ``io error:`` line on stderr; an edit to
the config file only with exit code 2 and one ``config error:`` line.
numpy warnings are raised as errors, so one that escapes ends the case in a
traceback.
"""

import os
import random
import shutil
import warnings

import numpy as np
import pytest

from rstparse.cli import main
from rstparse.core import RelationVocab
from rstparse.data import MANIFEST_NAME, generate_synthetic, save_corpus
from rstparse.encoder import ModelParams
from rstparse.training import PARSE_METHODS

VOCAB = RelationVocab(["Cause", "Elaboration", "Joint"])
CASES = 300
TRAIN_CASES = 100
SIZE_CASES = 24
SIZES = ("hidden", "ff_hidden", "word_dim", "pos_dim")

# Every training setting, at sizes a single edit can raise only to two
# digits; a deleted line falls back to a default, the largest 300.
CONFIG = """# tiny sizes
max_epochs = 1
hidden = 2
ff_hidden = 2
word_dim = 2
pos_dim = 2
mode = joint
decoder = partial
dropout = 0.2
lr = 0.01
gamma = 1.0
grad_clip = none
selection = relation_micro
seed = 3
dev_size = 0
"""

# What an edit inserts: the format's own syntax, escapes, whitespace that
# only str.isspace knows, a byte that is not UTF-8 ("\udcff", written with
# surrogateescape) and text the parsers give meaning to.
PIECES = ("(", ")", "_", "\\", " ", "  ", "\n", "\t", "\x1c", "\u00a0",
          "\u2028", "\udcff", "0", "1", "7", "-3", "x", "\u00e9", "LEAF",
          "NN", "NS", "SN", "Cause", "Joint", "Nope", "#", "a_NN", "(LEAF 2)")


def edit_once(text: str, rng: random.Random) -> str:
    """``text`` after one random character or line edit."""
    kind = rng.choice(("delete", "insert", "replace", "duplicate"))
    if rng.random() < 0.3:
        lines = text.split("\n")
        at = rng.randrange(len(lines))
        if kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            new = "".join(rng.choices(PIECES, k=rng.randint(1, 4)))
            lines[at:at + (kind == "replace")] = [new]
        return "\n".join(lines)
    at = rng.randint(0, len(text))
    size = rng.randint(1, 3)
    piece = rng.choice(PIECES)
    if kind == "delete":
        return text[:at] + text[at + size:]
    if kind == "insert":
        return text[:at] + piece + text[at:]
    if kind == "replace":
        return text[:at] + piece + text[at + size:]
    return text[:at] + text[at:at + size] + text[at:]


def edit(text: str, rng: random.Random) -> str:
    """``text`` after one to three random character or line edits."""
    for _ in range(rng.randint(1, 3)):
        text = edit_once(text, rng)
    return text


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The clean corpus directory, its trees as a prediction directory, and
    a tiny model over its vocabularies."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = generate_synthetic(3, 5, VOCAB, seed=18)
    save_corpus(corpus, str(root / "corpus"))
    pred = root / "pred"
    pred.mkdir()
    for doc in corpus.documents:
        shutil.copy(root / "corpus" / f"{doc.doc_id}.tree", pred)
    model = str(root / "model.npz")
    ModelParams.init(corpus.word_vocab, corpus.pos_vocab, corpus.rel_vocab,
                     np.random.default_rng(0), word_dim=2, pos_dim=2,
                     hidden=2, ff_hidden=2).save(model)
    return root, [d.doc_id for d in corpus.documents], model


def test_edited_corpus_files_fail_only_with_a_data_error(clean, tmp_path,
                                                         capsys):
    root, doc_ids, model = clean
    clean_corpus, pred = str(root / "corpus"), str(root / "pred")
    wrong = []
    seen = set()
    for case in range(CASES):
        rng = random.Random(case)
        kind = rng.choice((".edus", ".tree", MANIFEST_NAME))
        doc_id = rng.choice(doc_ids)
        corpus = str(tmp_path / f"case{case}")
        shutil.copytree(clean_corpus, corpus)
        victim = os.path.join(
            corpus, MANIFEST_NAME if kind == MANIFEST_NAME else doc_id + kind)
        with open(victim, encoding="utf-8") as fh:
            text = edit(fh.read(), rng)
        with open(victim, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogateescape"))
        # The commands that read the edited file.
        argvs = [["eval", "--gold", corpus, "--pred", pred]]
        if kind == ".edus":
            argvs.append(["parse", "--model", model, "--out-dir",
                          str(tmp_path / "out"), "--decoder",
                          rng.choice(PARSE_METHODS)]
                         + [os.path.join(corpus, d + ".edus") for d in doc_ids])
        elif kind == ".tree":
            argvs.append(["eval", "--gold", clean_corpus, "--pred", corpus])
        if kind != ".edus":
            argvs.append(["oracle", os.path.join(corpus, doc_id + ".tree"),
                          "--manifest", os.path.join(corpus, MANIFEST_NAME),
                          "--replay"])
        for argv in argvs:
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            err = capsys.readouterr().err.splitlines()
            seen.add(code)
            if code == 0:
                continue
            if (code != 1 or len(err) != 1
                    or not err[0].startswith(("data error: ", "io error: "))):
                wrong.append((case, kind, argv[0], code, err))
        shutil.rmtree(corpus)
    assert not wrong, wrong[:5]
    assert seen == {0, 1}, "the edits should both keep and break some files"


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    """A 3-document corpus of at most 4 EDUs, and the clean config and
    3-line embedding file texts."""
    root = tmp_path_factory.mktemp("train_fuzz")
    corpus = generate_synthetic(3, 4, VOCAB, seed=18)
    save_corpus(corpus, str(root / "corpus"))
    words = corpus.word_vocab.tokens[1:4]
    vectors = ("0.5 -0.25", "1.0 0.75", "-1.5 2.0")
    embeddings = "".join(f"{w} {v}\n" for w, v in zip(words, vectors))
    return str(root / "corpus"), {"config": CONFIG, "embeddings": embeddings}


def test_edited_config_and_embeddings_fail_only_with_their_error(
        train_inputs, tmp_path, capsys):
    corpus, clean = train_inputs
    allowed = {"config": (2, ("config error: ",)),
               "embeddings": (1, ("data error: ", "io error: "))}
    wrong = []
    seen = set()
    for case in range(TRAIN_CASES):
        rng = random.Random(10_000 + case)
        kind = rng.choice(sorted(clean))
        texts = dict(clean, **{kind: edit_once(clean[kind], rng)})
        for name, text in texts.items():
            (tmp_path / name).write_bytes(
                text.encode("utf-8", "surrogateescape"))
        argv = ["train", "--corpus", corpus, "--out",
                str(tmp_path / "model.npz"), "--config",
                str(tmp_path / "config"), "--embeddings",
                str(tmp_path / "embeddings")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err.splitlines()
        seen.add(code)
        want, prefixes = allowed[kind]
        if code != 0 and (code != want or len(err) != 1
                          or not err[0].startswith(prefixes)):
            wrong.append((case, kind, code, err, texts[kind]))
    assert not wrong, wrong[:5]
    assert seen == {0, 1, 2}, "the edits should keep and break both files"


def test_grown_sizes_train_or_fail_with_a_config_error(train_inputs, tmp_path,
                                                       capsys):
    """A size grown by one digit still trains; grown by nine to twelve, its
    parameters exceed core.MEMORY_LIMIT, and ``train`` refuses it with exit
    code 2 and one ``config error:`` line naming the key, before anything
    of that size is allocated.  No digit count in between is drawn: a
    model of a few hundred megabytes would be built and trained."""
    corpus, clean = train_inputs
    wrong = []
    seen = set()
    for case in range(SIZE_CASES):
        rng = random.Random(20_000 + case)
        key = rng.choice(SIZES)
        digits = "".join(rng.choices("0123456789",
                                     k=rng.choice((1, rng.randint(9, 12)))))
        text = clean["config"].replace(f"\n{key} = 2\n",
                                       f"\n{key} = 2{digits}\n")
        assert text != clean["config"]
        (tmp_path / "config").write_text(text)
        argv = ["train", "--corpus", corpus, "--out",
                str(tmp_path / "model.npz"), "--config",
                str(tmp_path / "config")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err.splitlines()
        seen.add(code)
        if code != 0 and (code != 2 or len(err) != 1 or not err[0].startswith(
                f"config error: {key} = 2{digits} makes the model's")):
            wrong.append((case, key, digits, code, err))
    assert not wrong, wrong[:5]
    assert seen == {0, 2}, "the sizes should both train and be refused"
