import dataclasses
import os
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rstparse
from rstparse.cli import (
    ConfigError,
    build_parser,
    build_train_config,
    main,
    parse_config_file,
)
from rstparse.core import RelationVocab
from rstparse.data import generate_synthetic, load_corpus, save_corpus
from rstparse.encoder import ModelParams
from rstparse.training import TrainConfig

VOCAB = RelationVocab(["Cause", "Elaboration", "Joint"])


@pytest.fixture
def corpus_dir(tmp_path):
    corpus = generate_synthetic(3, 5, VOCAB, seed=31)
    path = tmp_path / "corpus"
    save_corpus(corpus, str(path))
    return str(path)


@pytest.fixture
def tiny_settings(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "# small everything, for smoke runs\n"
        "max_epochs = 2\n"
        "hidden = 2\n"
        "ff_hidden = 2\n"
        "word_dim = 2\n"
        "pos_dim = 2\n"
        "dropout = 0.0\n"
        "lr = 0.01\n"
        "seed = 7\n")
    return str(path)


class TestConfigFile:
    def test_parse_values_comments_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lr = 0.5  # step size\n\nmode = joint\ngrad_clip = none\n"
                     "dev_size = 2\n")
        values = parse_config_file(str(p))
        assert values == {"lr": 0.5, "mode": "joint", "grad_clip": None,
                          "dev_size": 2}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("learning_rate = 0.5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(p))

    def test_bad_value_and_syntax(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lr = fast\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(str(p))
        p.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(str(tmp_path / "nope.cfg"))


class TestPrecedence:
    def test_flags_override_file_overrides_defaults(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("lr = 0.5\nseed = 3\nhidden = 8\n")
        parser = build_parser()
        args = parser.parse_args(
            ["train", "--corpus", "x", "--out", "y",
             "--config", str(cfgfile), "--seed", "11"])
        cfg, dev_size = build_train_config(args)
        assert cfg.lr == 0.5          # from the file
        assert cfg.seed == 11         # flag wins
        assert cfg.hidden == 8        # from the file
        assert cfg.max_epochs == 15   # untouched default
        assert dev_size == 0

    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path):
        """Each TrainConfig field, and dev_size, read from a flag or from
        the config file; every value differs from its default."""
        want = dict(max_epochs=3, lr=0.5, dropout=0.1, hidden=4, ff_hidden=5,
                    word_dim=6, pos_dim=7, gamma=0.25, mode="joint",
                    decoder="exact", seed=9, grad_clip=2.5,
                    selection="span_macro", dev_size=1)
        keys = [f.name for f in dataclasses.fields(TrainConfig)]
        assert sorted(want) == sorted(keys + ["dev_size"])
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in want.items()))
        flags = [x for k, v in want.items()
                 for x in ("--" + k.replace("_", "-"), str(v))]
        base = ["train", "--corpus", "x", "--out", "y"]
        for argv in (flags, ["--config", str(cfgfile)]):
            cfg, dev_size = build_train_config(
                build_parser().parse_args(base + argv))
            assert dataclasses.asdict(cfg) | {"dev_size": dev_size} == want
            assert dataclasses.asdict(TrainConfig()).items().isdisjoint(
                dataclasses.asdict(cfg).items())

    def test_grad_clip_none_as_a_flag(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grad_clip = 2\n")
        args = build_parser().parse_args(
            ["train", "--corpus", "x", "--out", "y", "--config", str(cfgfile),
             "--grad-clip", "None"])
        assert build_train_config(args)[0].grad_clip is None

    def test_invalid_combination_is_a_config_error(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("dropout = 1.5\n")
        parser = build_parser()
        args = parser.parse_args(["train", "--corpus", "x", "--out", "y",
                                  "--config", str(cfgfile)])
        with pytest.raises(ConfigError):
            build_train_config(args)


class TestTrainCommand:
    def test_end_to_end(self, corpus_dir, tiny_settings, tmp_path, capsys):
        model = str(tmp_path / "model.npz")
        code = main(["train", "--corpus", corpus_dir, "--out", model,
                     "--config", tiny_settings])
        out = capsys.readouterr().out
        assert code == 0
        assert os.path.exists(model)
        report = model + ".report.tsv"
        assert os.path.exists(report)
        with open(report) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0].startswith("epoch\ttrain_loss")
        assert len(lines) == 3  # header + 2 epochs
        assert "best epoch" in out

    def test_identical_runs_byte_identical_reports(self, corpus_dir,
                                                   tiny_settings, tmp_path):
        reports = []
        for tag in ("a", "b"):
            model = str(tmp_path / f"m{tag}.npz")
            assert main(["train", "--corpus", corpus_dir, "--out", model,
                         "--config", tiny_settings]) == 0
            with open(model + ".report.tsv", "rb") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]

    def test_unknown_config_key_exit_code(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("momentum = 0.9\n")
        code = main(["train", "--corpus", corpus_dir,
                     "--out", str(tmp_path / "m.npz"), "--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_corpus_exit_code(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "m.npz")])
        assert code == 1
        assert "data error" in capsys.readouterr().err

    def test_dev_size_too_large(self, corpus_dir, tiny_settings, tmp_path,
                                capsys):
        code = main(["train", "--corpus", corpus_dir,
                     "--out", str(tmp_path / "m.npz"),
                     "--config", tiny_settings, "--dev-size", "3"])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--grad-clip", "-1"], ["--hidden", "0"],
                                       ["--mode", "beam"]])
    def test_bad_training_value_is_a_config_error(self, corpus_dir,
                                                  tiny_settings, tmp_path,
                                                  capsys, flags):
        model = tmp_path / "m.npz"
        code = main(["train", "--corpus", corpus_dir, "--out", str(model),
                     "--config", tiny_settings] + flags)
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not model.exists()

    def test_diverged_training_is_a_config_error(self, corpus_dir,
                                                 tiny_settings, tmp_path,
                                                 capsys):
        model = tmp_path / "m.npz"
        with np.errstate(all="ignore"):
            code = main(["train", "--corpus", corpus_dir, "--out", str(model),
                         "--config", tiny_settings, "--lr", "1e300",
                         "--mode", "joint"])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: training diverged in epoch 1" in err
        assert "document doc" in err and "non-finite" in err
        assert not model.exists()

    def test_diverged_training_prints_only_its_error(self, corpus_dir,
                                                     tiny_settings, tmp_path):
        # a fresh interpreter with numpy's default error handling, where
        # a RuntimeWarning would reach stderr
        src = os.path.dirname(os.path.dirname(rstparse.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "rstparse.cli", "train", "--corpus",
             corpus_dir, "--out", str(tmp_path / "m.npz"), "--config",
             tiny_settings, "--lr", "1e300", "--mode", "joint"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("config error: training diverged in "
                                   "epoch 1 at document doc")


class TestPipeline:
    @pytest.fixture
    def trained_model(self, corpus_dir, tiny_settings, tmp_path):
        model = str(tmp_path / "model.npz")
        assert main(["train", "--corpus", corpus_dir, "--out", model,
                     "--config", tiny_settings]) == 0
        return model

    def test_parse_eval_round_trip(self, corpus_dir, trained_model, tmp_path,
                                   capsys):
        pred_dir = str(tmp_path / "pred")
        edus = sorted(
            os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
            if f.endswith(".edus"))
        assert main(["parse", "--model", trained_model, "--out-dir", pred_dir,
                     "--decoder", "exact"] + edus) == 0
        written = sorted(os.listdir(pred_dir))
        assert len(written) == 3
        assert all(name.endswith(".tree") for name in written)

        capsys.readouterr()
        tsv = str(tmp_path / "scores.tsv")
        code = main(["eval", "--gold", corpus_dir, "--pred", pred_dir,
                     "--tsv", tsv, "--per-doc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Span" in out and "Relation" in out
        with open(tsv) as fh:
            rows = fh.read().strip().split("\n")
        assert any(r.startswith("<micro>") for r in rows)

    def test_exact_over_memory_limit_is_a_data_error(
            self, corpus_dir, trained_model, tmp_path, monkeypatch, capsys):
        from rstparse import chart

        monkeypatch.setattr(chart, "EXACT_MEMORY_LIMIT", 1000)
        edus = sorted(
            os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
            if f.endswith(".edus"))
        capsys.readouterr()
        code = main(["parse", "--model", trained_model, "--out-dir",
                     str(tmp_path / "pred"), "--decoder", "exact"] + edus)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("data error: exact decoding of n=")
        assert "over the limit of 1,000" in err
        assert "Traceback" not in err

    def test_eval_missing_prediction_fails(self, corpus_dir, trained_model,
                                           tmp_path, capsys):
        pred_dir = str(tmp_path / "pred")
        edus = sorted(
            os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
            if f.endswith(".edus"))
        assert main(["parse", "--model", trained_model, "--out-dir", pred_dir]
                    + edus) == 0
        removed = sorted(os.listdir(pred_dir))[0]
        os.unlink(os.path.join(pred_dir, removed))
        code = main(["eval", "--gold", corpus_dir, "--pred", pred_dir])
        err = capsys.readouterr().err
        assert code == 1
        assert removed[:-len(".tree")] in err

    @pytest.mark.parametrize("damage", ["random", "truncated", "shape"])
    def test_damaged_model_is_a_data_error(self, corpus_dir, trained_model,
                                           tmp_path, capsys, damage):
        import numpy as np

        from rstparse.encoder import ModelParams

        bad = tmp_path / "bad.npz"
        if damage == "random":
            bad.write_bytes(np.random.default_rng(1).bytes(300))
        elif damage == "truncated":
            with open(trained_model, "rb") as fh:
                bad.write_bytes(fh.read()[:-100])
        else:
            params = ModelParams.load(trained_model)
            params.arrays["nuc.W1"] = params.arrays["nuc.W1"][:, 1:]
            params.save(str(bad))
        edus = [os.path.join(corpus_dir, f) for f in sorted(os.listdir(corpus_dir))
                if f.endswith(".edus")]
        capsys.readouterr()
        code = main(["parse", "--model", str(bad), "--out-dir",
                     str(tmp_path / "pred")] + edus)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("data error:")
        assert "Traceback" not in err

    def test_compare_encodes_each_document_once(self, corpus_dir,
                                                trained_model, monkeypatch,
                                                capsys):
        from rstparse import cli

        calls = []
        encode = cli.encode_document

        def counting(doc, params, masks=None):
            calls.append(doc.doc_id)
            return encode(doc, params, masks)

        monkeypatch.setattr(cli, "encode_document", counting)
        monkeypatch.setattr("rstparse.transition.encode_document", counting)
        assert main(["compare", "--model", trained_model,
                     "--corpus", corpus_dir]) == 0
        assert len(calls) == 3 and len(set(calls)) == 3

    def test_compare_lists_all_methods(self, corpus_dir, trained_model,
                                       capsys):
        code = main(["compare", "--model", trained_model,
                     "--corpus", corpus_dir])
        out = capsys.readouterr().out
        assert code == 0
        for m in ("exact", "partial", "complete", "transition"):
            assert m in out
        assert "gold" in out

    def test_compare_counts_missing_as_training_does(
            self, corpus_dir, trained_model, monkeypatch, capsys):
        """A prediction 1e-13 under gold is missing in compare's column, as
        it is in count_missing and missing_prediction: both use below_gold."""
        from rstparse import cli

        load = cli.load_corpus
        golds = []

        def load_and_keep_golds(path):
            corpus = load(path)
            golds.extend(doc.gold for doc in corpus.documents)
            return corpus

        def score(tree, scores):      # every prediction 1e-13 under gold
            return 1.0 if any(tree is g for g in golds) else 1.0 - 1e-13

        monkeypatch.setattr(cli, "load_corpus", load_and_keep_golds)
        monkeypatch.setattr(cli, "score_tree", score)
        capsys.readouterr()
        assert main(["compare", "--model", trained_model,
                     "--corpus", corpus_dir]) == 0
        rows = capsys.readouterr().out.split("\n\n")[1].splitlines()[1:]
        missing = {row.split()[0]: int(row.split()[4]) for row in rows}
        assert missing == {"exact": 3, "partial": 3, "complete": 3,
                           "transition": 3}


class TestInputsMustMatch:
    def test_parse_rejects_files_with_one_document_id(self, corpus_dir,
                                                      tmp_path, capsys):
        """a/d.edus and b/d.edus would both write d.tree: a data error
        before anything is parsed or written."""
        corpus = load_corpus(corpus_dir)
        model = str(tmp_path / "model.npz")
        ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                         corpus.rel_vocab, np.random.default_rng(0),
                         word_dim=2, pos_dim=2, hidden=2,
                         ff_hidden=2).save(model)
        text = (tmp_path / "corpus" / "doc0000.edus").read_text()
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "d.edus")
            paths[-1].write_text(text)
        out = tmp_path / "out"
        code, line = one_error_line(["parse", "--model", model, "--out-dir",
                                     str(out)] + [str(p) for p in paths],
                                    capsys)
        assert code == 1
        assert line == (f"data error: {paths[0]} and {paths[1]} both give "
                        "document id 'd'")
        assert not out.exists()

    @pytest.mark.parametrize("names", [
        ["Cause", "Elaboration", "Joint", "Contrast", "Background"],
        ["Alpha", "Beta", "Gamma"],
    ])
    def test_compare_rejects_other_relations(self, names, corpus_dir,
                                             tmp_path, capsys):
        """A corpus whose relations are not the model's, in number or in
        name, is a data error naming both lists, not a traceback or gold
        trees scored under the wrong relation indices."""
        corpus = load_corpus(corpus_dir)
        model = str(tmp_path / "model.npz")
        ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                         corpus.rel_vocab, np.random.default_rng(0),
                         word_dim=2, pos_dim=2, hidden=2,
                         ff_hidden=2).save(model)
        other = str(tmp_path / "other")
        save_corpus(generate_synthetic(3, 5, RelationVocab(names), seed=31),
                    other)
        code, line = one_error_line(["compare", "--model", model,
                                     "--corpus", other], capsys)
        assert code == 1
        assert line == (f"data error: {other} has relations {names}, the "
                        "model ['Cause', 'Elaboration', 'Joint']")


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any text file a command reads ends in a
    typed error naming the file, with the documented exit code."""

    BAD = b"caf\xe9_NN is_VB\n"

    @pytest.mark.parametrize("entry", ["parse", "eval", "train-corpus",
                                       "train-config", "train-embeddings",
                                       "oracle"])
    def test_typed_error_names_the_file(self, entry, corpus_dir,
                                        tiny_settings, tmp_path, capsys):
        from rstparse.encoder import ModelParams
        from rstparse.data import load_corpus

        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.BAD)
        bad = str(bad)
        out = str(tmp_path / "out")
        if entry == "parse":
            corpus = load_corpus(corpus_dir)
            model = str(tmp_path / "model.npz")
            ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                             corpus.rel_vocab, np.random.default_rng(0),
                             word_dim=2, pos_dim=2, hidden=2,
                             ff_hidden=2).save(model)
            argv = ["parse", "--model", model, "--out-dir", out, bad]
        elif entry in ("eval", "train-corpus"):
            name = sorted(f for f in os.listdir(corpus_dir)
                          if f.endswith(".tree" if entry == "eval"
                                        else ".edus"))[0]
            bad = os.path.join(corpus_dir, name)
            with open(bad, "ab") as fh:
                fh.write(self.BAD)
            argv = (["eval", "--gold", corpus_dir, "--pred", out]
                    if entry == "eval" else
                    ["train", "--corpus", corpus_dir, "--out", out,
                     "--config", tiny_settings])
        elif entry == "train-config":
            argv = ["train", "--corpus", corpus_dir, "--out", out,
                    "--config", bad]
        elif entry == "train-embeddings":
            argv = ["train", "--corpus", corpus_dir, "--out", out,
                    "--config", tiny_settings, "--embeddings", bad]
        else:
            argv = ["oracle", os.path.join(corpus_dir, "doc0000.tree"),
                    "--manifest", bad]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        kind = "config" if entry == "train-config" else "data"
        assert code == (2 if kind == "config" else 1), err
        assert err.startswith(f"{kind} error: {bad}: not UTF-8 text"), err
        assert "Traceback" not in err


def one_error_line(argv, capsys):
    """main's exit code and its one stderr line; numpy warnings, raised as
    errors here, would end in a traceback instead."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return code, lines[0]


class TestNonFiniteModel:
    """A model that loads, with finite arrays, but whose scores overflow:
    every parse method ends in a data error naming the first bad score."""

    @pytest.fixture
    def save_model(self, corpus_dir, tmp_path):
        from rstparse.data import load_corpus
        from rstparse.encoder import ModelParams

        corpus = load_corpus(corpus_dir)

        def save(**values):
            params = ModelParams.init(
                corpus.word_vocab, corpus.pos_vocab, corpus.rel_vocab,
                np.random.default_rng(0), word_dim=2, pos_dim=2, hidden=2,
                ff_hidden=2)
            for name, value in values.items():
                params.arrays[name][...] = value
            path = str(tmp_path / "model.npz")
            params.save(path)
            return path

        return save

    def parse(self, model, decoder, corpus_dir, tmp_path, capsys):
        edus = sorted(os.path.join(corpus_dir, f)
                      for f in os.listdir(corpus_dir) if f.endswith(".edus"))
        return one_error_line(["parse", "--model", model, "--out-dir",
                               str(tmp_path / "pred"), "--decoder", decoder]
                              + edus, capsys)

    @pytest.mark.parametrize("decoder, message", [
        ("partial", "span[0, 1] = inf"),
        ("transition", "action[0] = -inf at step 2"),
    ])
    def test_overflowing_span_and_action_scores(
            self, decoder, message, save_model, corpus_dir, tmp_path, capsys):
        model = save_model(**{"span.W2": 1e308, "span.b1": 1.0,
                              "action.W2": -1e308, "action.b1": 1.0})
        code, line = self.parse(model, decoder, corpus_dir, tmp_path, capsys)
        assert code == 1
        assert line == f"data error: non-finite score: {message}"

    @pytest.mark.parametrize("decoder, cell", [
        ("exact", "0, 1, 0"), ("partial", "0, 1, 0"), ("complete", "0, 3, 2"),
    ])
    def test_overflowing_relation_scores(self, decoder, cell, save_model,
                                         corpus_dir, tmp_path, capsys):
        model = save_model(**{"rel.W2": 1e308, "rel.b1": 1.0})
        code, line = self.parse(model, decoder, corpus_dir, tmp_path, capsys)
        assert code == 1
        assert line == f"data error: non-finite score: rel[{cell}][0] = inf"


class TestMalformedFileNamed:
    """A file named on the command line that does not parse is named in
    the data error, before the line and column."""

    def test_parse(self, corpus_dir, tmp_path, capsys):
        from rstparse.data import load_corpus
        from rstparse.encoder import ModelParams

        corpus = load_corpus(corpus_dir)
        model = str(tmp_path / "model.npz")
        ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                         corpus.rel_vocab, np.random.default_rng(0),
                         word_dim=2, pos_dim=2, hidden=2,
                         ff_hidden=2).save(model)
        bad = tmp_path / "d.edus"
        bad.write_text("foo bar_NN\n")
        code, line = one_error_line(["parse", "--model", model, "--out-dir",
                                     str(tmp_path / "out"), str(bad)], capsys)
        assert code == 1
        assert line.startswith(f"data error: {bad}: line 1, column 1: ")

    def test_eval(self, corpus_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for name in os.listdir(corpus_dir):
            if name.endswith(".tree"):
                (pred / name).write_text("(NN Cause (LEAF 1)\n")
        bad = pred / "doc0000.tree"
        code, line = one_error_line(["eval", "--gold", corpus_dir, "--pred",
                                     str(pred)], capsys)
        assert code == 1
        assert line.startswith(f"data error: {bad}: line ")

    @pytest.mark.parametrize("which", ["tree", "manifest"])
    def test_oracle(self, which, corpus_dir, tmp_path, capsys):
        tree = os.path.join(corpus_dir, "doc0000.tree")
        manifest = os.path.join(corpus_dir, "relations.txt")
        bad = tmp_path / "bad"
        if which == "tree":
            bad.write_text("(NN Nope (LEAF 1) (LEAF 2))\n")
            tree = str(bad)
        else:
            bad.write_text("Cause\nCause\n")
            manifest = str(bad)
        code, line = one_error_line(["oracle", tree, "--manifest", manifest],
                                    capsys)
        assert code == 1
        assert line.startswith(f"data error: {bad}: ")


class TestOracleCommand:
    def test_replay_round_trip(self, corpus_dir, capsys):
        trees = sorted(f for f in os.listdir(corpus_dir)
                       if f.endswith(".tree"))
        manifest = os.path.join(corpus_dir, "relations.txt")
        code = main(["oracle", os.path.join(corpus_dir, trees[0]),
                     "--manifest", manifest, "--replay"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("SHIFT")
        assert "round trip ok" in captured.err


class TestArgparseBehavior:
    def test_usage_error_exit_code(self):
        assert main(["train"]) == 2      # missing required flags
        assert main([]) == 2             # missing subcommand

    def test_bad_choice_exit_code(self, tmp_path):
        code = main(["parse", "--model", "m", "--decoder", "beam",
                     "--out-dir", str(tmp_path), "x.edus"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--lr", "--grad-clip", "--dev-size"])
    def test_unreadable_train_value_exit_code(self, flag):
        assert main(["train", "--corpus", "x", "--out", "y", flag,
                     "fast"]) == 2


class TestNonFiniteEmbeddings:
    """float() reads nan, inf and an overflowing 1e999 without complaint;
    such a vector in an embedding file is a data error naming the file and
    line, not a run that diverges and blames the learning rate."""

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
    def test_train_names_file_and_line(self, value, corpus_dir, tiny_settings,
                                       tmp_path, capsys):
        words = load_corpus(corpus_dir).word_vocab.tokens
        path = tmp_path / "emb.txt"
        path.write_text(f"{words[1]} 0.5 0.25\n{words[2]} 0.5 {value}\n")
        code, line = one_error_line(
            ["train", "--corpus", corpus_dir, "--out",
             str(tmp_path / "model.npz"), "--config", tiny_settings,
             "--embeddings", str(path)], capsys)
        assert code == 1
        assert line == (f"data error: {path}: line 2: non-finite value "
                        f"'{value}'")


class TestMalformedModel:
    """A model file whose metadata or arrays do not hold what ``save``
    writes is a data error naming the file: no size read off a float, no
    imaginary part dropped with a warning, no non-finite embedding."""

    @pytest.fixture
    def rewrite(self, corpus_dir, tmp_path):
        """Save a small model (a pretrained table for every word type), let
        ``edit`` change its metadata dict and arrays, write them back."""
        from rstparse.data import PretrainedEmbeddings

        corpus = load_corpus(corpus_dir)
        words = len(corpus.word_vocab)
        pre = PretrainedEmbeddings(np.ones((words, 2)), words, words)
        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(0),
                                  word_dim=2, pos_dim=2, hidden=3, ff_hidden=1,
                                  pretrained=pre)
        path = str(tmp_path / "model.npz")
        params.save(path)

        def edit(change):
            import json

            with np.load(path) as npz:
                arrays = {k: npz[k] for k in npz.files}
            meta = json.loads(str(arrays["meta"]))
            change(meta, arrays)
            arrays["meta"] = np.array(json.dumps(meta))
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            return path

        return edit

    def compare(self, model, corpus_dir, capsys):
        return one_error_line(["compare", "--model", model, "--corpus",
                               corpus_dir], capsys)

    @pytest.mark.parametrize("key, value", [("hidden", 3.7),
                                            ("ff_hidden", True)])
    def test_size_that_is_not_an_integer(self, key, value, rewrite,
                                         corpus_dir, capsys):
        def change(meta, arrays):
            meta[key] = value

        model = rewrite(change)
        code, line = self.compare(model, corpus_dir, capsys)
        assert code == 1
        assert line == (f"data error: {model}: metadata '{key}' is {value!r}, "
                        "not an integer")

    @pytest.mark.parametrize("key, recast", [
        ("word_tokens", lambda names: list(range(1, len(names) + 1))),
        ("pos_tokens", lambda names: string.ascii_lowercase[:len(names)]),
        ("relations", lambda names: string.ascii_uppercase[:len(names)]),
    ], ids=["word_tokens-numbers", "pos_tokens-string", "relations-string"])
    def test_names_that_are_not_a_list_of_strings(self, key, recast, rewrite,
                                                  corpus_dir, capsys):
        """As many numbers, or a string of as many characters, would load
        as a vocabulary of the right size."""
        def change(meta, arrays):
            assert len(meta[key]) <= 26
            meta[key] = recast(meta[key])

        model = rewrite(change)
        code, line = self.compare(model, corpus_dir, capsys)
        assert code == 1
        assert line == (f"data error: {model}: metadata '{key}' is not a "
                        "list of strings")

    def test_complex_arrays(self, rewrite, corpus_dir, capsys):
        def change(meta, arrays):
            for k in arrays:
                if k.startswith("param/"):
                    arrays[k] = arrays[k].astype(np.complex128)

        model = rewrite(change)
        code, line = self.compare(model, corpus_dir, capsys)
        assert code == 1
        assert line == (f"data error: {model}: array 'word_emb' has "
                        "dtype complex128, not a real number type")

    def test_non_finite_pretrained_table(self, rewrite, corpus_dir, capsys):
        def change(meta, arrays):
            arrays["pretrained"][1, 0] = np.nan

        model = rewrite(change)
        code, line = self.compare(model, corpus_dir, capsys)
        assert code == 1
        assert line == (f"data error: {model}: pretrained table holds "
                        "non-finite values")
