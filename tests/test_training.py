import numpy as np
import pytest

from rstparse.chart import chart_loss
from rstparse.core import Document, RelationVocab
from rstparse.data import generate_synthetic
from rstparse.training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate_model,
    joint_loss,
    predict_tree,
    report_row,
    train,
)
from rstparse.transition import transition_loss

VOCAB = RelationVocab(["Cause", "Elaboration", "Joint"])


def tiny_config(**kw):
    base = dict(max_epochs=2, lr=0.01, dropout=0.0, hidden=2, ff_hidden=2,
                word_dim=2, pos_dim=2, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def tiny_corpus(seed=21):
    return generate_synthetic(4, 5, VOCAB, seed=seed)


class TestConfig:
    def test_validate_rejects_bad_values(self):
        for bad in (dict(mode="viterbi"), dict(decoder="beam"),
                    dict(max_epochs=0), dict(dropout=1.0), dict(lr=0.0),
                    dict(selection="bleu_micro"), dict(selection="span_mean")):
            with pytest.raises(ValueError):
                tiny_config(**bad).validate()

    def test_defaults_follow_reference_setup(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 15
        assert cfg.lr == 0.001
        assert cfg.dropout == 0.2
        assert cfg.hidden == 200
        assert cfg.ff_hidden == 200
        assert cfg.word_dim == 300
        assert cfg.pos_dim == 300
        assert cfg.gamma == 1.0
        assert cfg.mode == "chart"
        assert cfg.decoder == "partial"
        cfg.validate()


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        arrays = {"w": np.array([1.0, -2.0])}
        state = AdamState.init(arrays)
        adam_step(arrays, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(arrays["w"], [1.0, -2.0])

    def test_quadratic_convergence(self):
        arrays = {"x": np.array([5.0])}
        state = AdamState.init(arrays)
        for _ in range(200):
            adam_step(arrays, {"x": arrays["x"].copy()}, state, lr=0.1)
        assert abs(arrays["x"][0]) < 1e-3

    def test_update_is_in_place(self):
        arrays = {"w": np.ones(3)}
        ref = arrays["w"]
        state = AdamState.init(arrays)
        adam_step(arrays, {"w": np.ones(3)}, state, lr=0.1)
        assert arrays["w"] is ref
        assert not np.allclose(arrays["w"], 1.0)

    def test_non_finite_gradient_aborts(self):
        arrays = {"w": np.ones(2)}
        state = AdamState.init(arrays)
        with pytest.raises(FloatingPointError, match="w"):
            adam_step(arrays, {"w": np.array([1.0, np.nan])}, state, lr=0.1)

    def test_gradient_clipping_caps_the_norm(self):
        big = {"w": np.ones(4) * 1e6}
        unclipped = {"w": np.ones(4) * 1e6}
        s1, s2 = AdamState.init(big), AdamState.init(unclipped)
        adam_step(big, {"w": np.ones(4) * 1e6}, s1, lr=0.1, clip=1.0)
        adam_step(unclipped, {"w": np.ones(4) * 1e6}, s2, lr=0.1)
        # the Adam normalization makes both steps finite; the clipped state
        # must carry the capped first moment
        assert np.abs(s1.m["w"]).max() < np.abs(s2.m["w"]).max()

    def test_bias_correction_first_step_magnitude(self):
        # after one step the corrected update is lr * g / (|g| + eps)
        arrays = {"w": np.array([0.0])}
        state = AdamState.init(arrays)
        adam_step(arrays, {"w": np.array([4.0])}, state, lr=0.5)
        assert arrays["w"][0] == pytest.approx(-0.5, rel=1e-6)


class TestJointLoss:
    def test_gamma_zero_equals_chart_loss(self):
        corpus = tiny_corpus()
        doc = next(d for d in corpus.documents if d.n >= 2)
        cfg = tiny_config(mode="joint", gamma=0.0)
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(0),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        j, _ = joint_loss(doc, params, cfg)
        c, _ = chart_loss(doc, params, cfg.decoder)
        assert j.item() == pytest.approx(c.item(), abs=1e-12)

    def test_joint_adds_weighted_transition_loss(self):
        corpus = tiny_corpus()
        doc = next(d for d in corpus.documents if d.n >= 2)
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(0),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        c, _ = chart_loss(doc, params, "partial")
        t = transition_loss(doc, params)
        j, _ = joint_loss(doc, params, tiny_config(mode="joint", gamma=0.5))
        assert j.item() == pytest.approx(c.item() + 0.5 * t.item(), rel=1e-9)

    def test_transition_mode_has_no_chart_diagnostics(self):
        corpus = tiny_corpus()
        doc = corpus.documents[0]
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(0),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        loss, diag = joint_loss(doc, params, tiny_config(mode="transition"))
        assert diag is None
        assert loss.item() >= 0.0


class TestTrainLoop:
    def test_rejects_empty_splits_and_missing_gold(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        with pytest.raises(ValueError):
            train([], list(corpus.documents), corpus.vocabs, cfg)
        with pytest.raises(ValueError):
            train(list(corpus.documents), [], corpus.vocabs, cfg)
        stripped = [Document(d.doc_id, d.edus, None) for d in corpus.documents]
        with pytest.raises(ValueError):
            train(stripped, stripped, corpus.vocabs, cfg)

    def test_two_runs_are_identical(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        cfg = tiny_config(max_epochs=3, dropout=0.1, mode="joint")
        r1 = train(docs, docs, corpus.vocabs, cfg)
        r2 = train(docs, docs, corpus.vocabs, cfg)
        rows1 = [report_row(r) for r in r1.reports]
        rows2 = [report_row(r) for r in r2.reports]
        assert rows1 == rows2
        assert r1.best_epoch == r2.best_epoch
        for name in r1.params.arrays:
            np.testing.assert_array_equal(r1.params.arrays[name],
                                          r2.params.arrays[name])

    def test_dev_equal_to_train_is_decoded_once(self, monkeypatch):
        """With dev the training documents themselves and one decoder, the
        post-epoch pass decodes each document once and reports what the two
        separate passes report."""
        import rstparse.training as training

        corpus = generate_synthetic(6, 7, VOCAB, seed=5)
        docs = list(corpus.documents)
        # the same documents as new objects, in reverse order: decoded apart
        copies = [Document(d.doc_id, d.edus, d.gold) for d in reversed(docs)]
        predicted = []
        predict = training.predict_tree
        monkeypatch.setattr(training, "predict_tree",
                            lambda *a: predicted.append(a) or predict(*a))
        for mode in ("chart", "joint", "transition"):
            cfg = tiny_config(max_epochs=3, dropout=0.1, mode=mode)
            apart = train(docs, copies, corpus.vocabs, cfg)
            predicted.clear()
            shared = train(docs, docs, corpus.vocabs, cfg)
            # transition mode evaluates greedily, apart from the count
            want = 3 * len(docs) if mode == "transition" else 0
            assert len(predicted) == want
            assert ([report_row(r) for r in shared.reports]
                    == [report_row(r) for r in apart.reports])

    def test_selection_keeps_first_best_epoch(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        cfg = tiny_config(max_epochs=4)
        result = train(docs, docs, corpus.vocabs, cfg)
        values = [r.micro["relation"] for r in result.reports]
        assert result.best_score == max(values)
        assert result.best_epoch == 1 + values.index(max(values))

    def test_exact_training_decoder_never_misses(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        cfg = tiny_config(decoder="exact", max_epochs=2)
        result = train(docs, docs, corpus.vocabs, cfg)
        assert all(r.missing == 0 for r in result.reports)

    def test_training_moves_parameters(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        cfg = tiny_config(max_epochs=1)
        result = train(docs, docs, corpus.vocabs, cfg)
        from rstparse.encoder import ModelParams

        init_ss = np.random.SeedSequence(cfg.seed).spawn(3)[0]
        fresh = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                 corpus.rel_vocab,
                                 np.random.default_rng(init_ss),
                                 word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        moved = any(not np.array_equal(result.params.arrays[k],
                                       fresh.arrays[k])
                    for k in fresh.arrays)
        assert moved

    def test_transition_mode_evaluates_greedily(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        cfg = tiny_config(mode="transition", max_epochs=1)
        result = train(docs, docs, corpus.vocabs, cfg)
        report = evaluate_model(docs, result.params, "transition")
        assert result.reports[-1].micro == report.micro


class TestPredict:
    def test_all_methods_produce_well_formed_trees(self):
        from rstparse.core import structural_error, validate_tree
        from rstparse.encoder import ModelParams

        corpus = tiny_corpus()
        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(5),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        for doc in corpus.documents:
            for method in ("exact", "partial", "complete", "transition"):
                tree = predict_tree(doc, params, method)
                assert structural_error(tree) is None
                assert tree.n == doc.n
                if method == "transition":
                    # the state machine builds gold-convention labels
                    assert validate_tree(tree) is None

    def test_unknown_method(self):
        corpus = tiny_corpus()
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(5),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        with pytest.raises(ValueError):
            predict_tree(corpus.documents[0], params, "beam")
