"""README's code runs as it is written."""

import re
from pathlib import Path

import numpy as np

from rstparse.core import RelationVocab
from rstparse.data import generate_synthetic, save_corpus
from rstparse.encoder import ModelParams

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(title):
    """The first python block under README's ``## title`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    """The example, verbatim, in a directory holding the ``corpus`` and
    ``model.npz`` it reads."""
    corpus = generate_synthetic(3, 6, RelationVocab(["Cause", "Joint"]),
                                seed=5)
    save_corpus(corpus, str(tmp_path / "corpus"))
    ModelParams.init(corpus.word_vocab, corpus.pos_vocab, corpus.rel_vocab,
                     np.random.default_rng(0), word_dim=4, pos_dim=3,
                     hidden=4, ff_hidden=8).save(str(tmp_path / "model.npz"))
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(section_code("Library use"), str(README), "exec"), names)
    assert names["tree"].n == names["doc"].n
    assert isinstance(names["score"], float)
