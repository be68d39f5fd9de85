import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    RefAdamState,
    dense_moments,
    ref_adam_step,
    ref_take_rows,
    touched_rows,
)
from rstparse import ops
from rstparse.chart import NonFiniteScore, chart_loss
from rstparse.core import Document, Edu, RelationVocab
from rstparse.data import PretrainedEmbeddings, Vocab, generate_synthetic
from rstparse.encoder import ModelParams, encode_document, make_dropout_masks
from rstparse.training import (
    ADAM_BLOCK,
    AdamState,
    TrainConfig,
    TrainingDiverged,
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

    @pytest.mark.parametrize("key, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.1),
        ("grad_clip", 0.0), ("grad_clip", -1.0), ("grad_clip", float("nan")),
        ("grad_clip", float("inf")),
        ("gamma", -0.5), ("gamma", float("nan")), ("gamma", float("inf")),
        ("hidden", 0), ("ff_hidden", 0),
        ("word_dim", -1), ("pos_dim", -1),
    ])
    def test_validate_names_the_bad_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            tiny_config(**{key: value}).validate()

    def test_validate_accepts_the_edges(self):
        tiny_config(grad_clip=None, gamma=0.0, hidden=1, ff_hidden=1,
                    word_dim=0, pos_dim=0).validate()
        tiny_config(grad_clip=1e-3).validate()

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
        m1, m2 = dense_moments(s1, big)[0], dense_moments(s2, unclipped)[0]
        assert np.abs(m1["w"]).max() < np.abs(m2["w"]).max()

    def test_dense_gradient_extends_the_row_mask(self):
        # a table that has had row gradients, then a dense one, then rows
        rng = np.random.default_rng(4)
        start = rng.standard_normal((6, 2))
        dense_g = np.zeros((6, 2))
        dense_g[4] = rng.standard_normal(2)
        steps = [ops.RowGrad((6, 2), np.array([1, 1]), rng.standard_normal((2, 2))),
                 dense_g,
                 ops.RowGrad((6, 2), np.array([2]), rng.standard_normal((1, 2)))]
        rows, ref = {"w": start.copy()}, {"w": start.copy()}
        s_rows, s_ref = AdamState.init(rows), RefAdamState(ref)
        for g in steps:
            adam_step(rows, {"w": g}, s_rows, lr=0.1)
            ref_adam_step(ref, {"w": ops.dense(g)}, s_ref, lr=0.1)
        np.testing.assert_array_equal(touched_rows(s_rows, "w"), [1, 2, 4])
        assert rows["w"].tobytes() == ref["w"].tobytes()
        m, v = dense_moments(s_rows, rows)
        assert m["w"].tobytes() == s_ref.m["w"].tobytes()
        assert v["w"].tobytes() == s_ref.v["w"].tobytes()

    def test_clipping_sums_the_dense_gradient(self):
        # np.sum groups a dense table's terms otherwise than those of its
        # rows alone: with these draws two of the four norms differ in the
        # last bit, so the norm must be taken over the dense arrays
        start = np.random.default_rng(0).standard_normal((200, 4))
        rng = np.random.default_rng(1)
        rows, ref = {"w": start.copy()}, {"w": start.copy()}
        s_rows, s_ref = AdamState.init(rows), RefAdamState(ref)
        for _ in range(4):
            g = ops.RowGrad((200, 4), rng.integers(0, 200, size=30),
                            rng.standard_normal((30, 4)))
            adam_step(rows, {"w": g}, s_rows, lr=0.1, clip=0.5)
            ref_adam_step(ref, {"w": g.dense()}, s_ref, lr=0.1, clip=0.5)
        assert rows["w"].tobytes() == ref["w"].tobytes()
        m, v = dense_moments(s_rows, rows)
        assert m["w"].tobytes() == s_ref.m["w"].tobytes()
        assert v["w"].tobytes() == s_ref.v["w"].tobytes()

    def test_non_finite_row_gradient_aborts(self):
        arrays = {"w": np.ones((3, 2))}
        g = ops.RowGrad((3, 2), np.array([0, 2]),
                        np.array([[1.0, 2.0], [np.inf, 0.0]]))
        with pytest.raises(FloatingPointError, match="w"):
            adam_step(arrays, {"w": g}, AdamState.init(arrays), lr=0.1)
        np.testing.assert_array_equal(arrays["w"], 1.0)

    def test_bias_correction_first_step_magnitude(self):
        # after one step the corrected update is lr * g / (|g| + eps)
        arrays = {"w": np.array([0.0])}
        state = AdamState.init(arrays)
        adam_step(arrays, {"w": np.array([4.0])}, state, lr=0.5)
        assert arrays["w"][0] == pytest.approx(-0.5, rel=1e-6)

    def test_blocks_keep_the_whole_array_bits(self):
        """The update by blocks against the whole-array reference, byte for
        byte over 4 steps: arrays longer than two blocks with a partial
        last one, signed zeros, subnormals and gradients near 1e300 (whose
        squares overflow v to inf), and a row-gradient table whose touched
        rows span more than one block."""
        rng = np.random.default_rng(7)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300,
                             -1e300, 1.7e300])

        def draw(shape):
            a = rng.standard_normal(shape)
            flat = a.reshape(-1)
            at = rng.choice(flat.size, size=flat.size // 50, replace=False)
            flat[at] = rng.choice(specials, size=at.size)
            return a

        # vec: two full blocks and 1,234 entries; mat: 655, 655 and 190 rows
        shapes = {"vec": (2 * ADAM_BLOCK + 1234,), "mat": (1500, 100),
                  "emb": (3000, 50)}
        start = {k: draw(s) for k, s in shapes.items()}
        start["mat"][:3] = -0.0
        blocks, ref = ({k: a.copy() for k, a in start.items()}
                       for _ in range(2))
        s_blocks, s_ref = AdamState.init(blocks), RefAdamState(ref)
        for _ in range(4):
            grads = {k: draw(s) for k, s in shapes.items() if k != "emb"}
            grads["emb"] = ops.RowGrad((3000, 50),
                                       rng.integers(0, 3000, size=1200),
                                       draw((1200, 50)))
            with np.errstate(over="ignore"):
                adam_step(blocks, grads, s_blocks, lr=0.01)
                ref_adam_step(ref, {k: ops.dense(g) for k, g in grads.items()},
                              s_ref, lr=0.01)
        # the touched rows fill more than one block of 50-float rows
        assert touched_rows(s_blocks, "emb").size > ADAM_BLOCK // 50
        assert s_blocks.t == s_ref.t == 4
        assert np.isinf(s_ref.v["vec"]).any()
        m, v = dense_moments(s_blocks, blocks)
        for name in shapes:
            assert blocks[name].tobytes() == ref[name].tobytes(), name
            assert m[name].tobytes() == s_ref.m[name].tobytes(), name
            assert v[name].tobytes() == s_ref.v[name].tobytes(), name

    @pytest.mark.parametrize("shape", [(1_000_000,), (5_000, 200)])
    def test_update_allocates_no_array_of_the_parameter_size(self, shape):
        """A step on 1,000,000 entries allocates two 65,536-float blocks
        and little else, where a whole-array update would allocate about
        24 MiB of temporaries."""
        rng = np.random.default_rng(3)
        arrays = {"w": rng.standard_normal(shape)}
        grads = {"w": rng.standard_normal(shape)}
        state = AdamState.init(arrays)
        adam_step(arrays, grads, state, lr=0.1)     # makes m and v
        peak = traced_peak(lambda: adam_step(arrays, grads, state, lr=0.1))
        assert peak < 2 * 2 ** 20, peak


def adam_against_dense(start, schedule, clip=None, lr=0.01):
    """``adam_step`` over ``schedule``, one dict of gradients per step,
    against ``ref_adam_step`` on dense gradients with zeros for every
    array a step leaves out, under its own dense state: parameters and
    moments byte for byte after every step.  Returns the state and the
    dense moments after each step."""
    arrays = {k: a.copy() for k, a in start.items()}
    ref = {k: a.copy() for k, a in start.items()}
    state, ref_state = AdamState.init(arrays), RefAdamState(ref)
    history = []
    for step, grads in enumerate(schedule, 1):
        with np.errstate(over="ignore"):
            adam_step(arrays, grads, state, lr, clip=clip)
            ref_adam_step(ref, {k: (ops.dense(grads[k]) if k in grads
                                    else np.zeros_like(a))
                                for k, a in ref.items()},
                          ref_state, lr, clip=clip)
        m, v = dense_moments(state, arrays)
        for name in start:
            where = f"{name} at step {step}"
            assert arrays[name].tobytes() == ref[name].tobytes(), where
            assert m[name].tobytes() == ref_state.m[name].tobytes(), where
            assert v[name].tobytes() == ref_state.v[name].tobytes(), where
        history.append((m, v))
    return state, history


class TestAdamStateWhereGradientsReach:
    """Adam state made on first use against the dense reference, which
    holds dense m and v for every array from the start."""

    def test_row_store_grows_over_many_blocks(self):
        """20 steps, each reaching new rows of an (8,000, 40) table: the
        store ends up spanning several 65,536-entry blocks and grew by
        doubling, with every earlier row decaying at every step."""
        rng = np.random.default_rng(31)
        shape = (8000, 40)
        start = {"emb": rng.standard_normal(shape), "b": rng.standard_normal(7)}
        schedule = []
        for step in range(20):
            index = rng.integers(0, 400 * (step + 1), size=1000)
            schedule.append({"emb": ops.RowGrad(shape, index,
                                                 rng.standard_normal((1000, 40))),
                             "b": rng.standard_normal(7)})
        sizes = []
        arrays = {k: a.copy() for k, a in start.items()}
        state = AdamState.init(arrays)
        for grads in schedule:
            adam_step(arrays, grads, state, 0.01)
            sizes.append(len(state.rows["emb"].rows))
        store = state.rows["emb"]
        assert store.n > 3 * ADAM_BLOCK // 40
        assert store.n == np.unique(np.concatenate(
            [g["emb"].rows() for g in schedule])).size
        grown = sorted(set(sizes))
        assert all(b >= 2 * a for a, b in zip(grown, grown[1:])), grown
        # the same run against the dense reference, byte for byte
        state, _ = adam_against_dense(start, schedule)
        assert set(state.rows) == {"emb"} and set(state.m) == {"b"}

    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_first_use_and_unreached_arrays(self, clip):
        """A table fed a RowGrad, then a dense gradient reaching new rows,
        then a RowGrad; a table whose first gradient is dense, then a
        RowGrad; an array first reached at step 3; one reached at steps 1
        and 2 only, whose moments must still decay; one never reached,
        which gets no state.  With ``clip`` the reference's norm also sums
        the zeros of the arrays a step leaves out."""
        rng = np.random.default_rng(32)
        shape = (50, 4)
        start = {k: rng.standard_normal(s) for k, s in
                 dict(emb=shape, tab=shape, late=(3, 5), left=(6,),
                      never=(4, 4)).items()}
        dense_g = np.zeros(shape)
        dense_g[[3, 40, 41]] = rng.standard_normal((3, 4))
        dense_g[7] = -0.0                  # a signed zero, not a touch
        schedule = [
            {"emb": ops.RowGrad(shape, np.array([1, 5, 1]),
                                rng.standard_normal((3, 4))),
             "tab": rng.standard_normal(shape),
             "left": rng.standard_normal(6)},
            {"emb": dense_g, "left": rng.standard_normal(6)},
            {"emb": ops.RowGrad(shape, np.array([5, 9]),
                                rng.standard_normal((2, 4))),
             "tab": ops.RowGrad(shape, np.array([2]),
                                rng.standard_normal((1, 4))),
             "late": rng.standard_normal((3, 5))},
            {"late": rng.standard_normal((3, 5))},
            {}]
        state, history = adam_against_dense(start, schedule, clip=clip,
                                            lr=0.1)
        assert set(state.rows) == {"emb"}
        assert set(state.m) == {"tab", "late", "left"}
        np.testing.assert_array_equal(touched_rows(state, "emb"),
                                      [1, 3, 5, 9, 40, 41])
        m_left = [np.abs(m["left"]).sum() for m, _ in history]
        assert m_left[1] > m_left[2] > m_left[3] > m_left[4] > 0.0

    def test_clip_norm_without_unreached_arrays_keeps_the_bits(self):
        """Leaving out an array no gradient reached, as leaf_gradients does,
        leaves the clipped update of every other array as it was with that
        array's zeros in the norm."""
        rng = np.random.default_rng(33)
        start = {k: rng.standard_normal(s) for k, s in
                 dict(a=(30, 7), zero=(500, 3), c=(11,)).items()}
        arrays = [{k: a.copy() for k, a in start.items()} for _ in range(2)]
        states = [AdamState.init(a) for a in arrays]
        for _ in range(3):
            grads = {"a": rng.standard_normal((30, 7)) * 3.0,
                     "c": rng.standard_normal(11)}
            adam_step(arrays[0], dict(grads, zero=np.zeros((500, 3))),
                      states[0], 0.1, clip=0.7)
            adam_step(arrays[1], grads, states[1], 0.1, clip=0.7)
        for name in start:
            assert arrays[0][name].tobytes() == arrays[1][name].tobytes()
        assert "zero" in states[0].m and "zero" not in states[1].m
        m0, v0 = dense_moments(states[0], arrays[0])
        m1, v1 = dense_moments(states[1], arrays[1])
        for name in start:
            assert m0[name].tobytes() == m1[name].tobytes()
            assert v0[name].tobytes() == v1[name].tobytes()

    def test_state_costs_what_the_gradients_reach(self):
        """AdamState.init on a 20,000 x 300 table allocates under 64 KiB,
        and a step whose gradient reaches 100 new rows allocates a small
        multiple of the stored rows (100, then 200), not the table's
        45.8 MiB."""
        rng = np.random.default_rng(34)
        shape = (20_000, 300)
        arrays = {"emb": np.zeros(shape)}
        assert traced_peak(lambda: AdamState.init(arrays)) < 64 * 2 ** 10
        state = AdamState.init(arrays)
        for stored in (100, 200):
            index = rng.choice(np.arange(stored - 100, 20_000, 200), 100,
                               replace=False)
            g = ops.RowGrad(shape, index, rng.standard_normal((100, 300)))
            g.sums()
            peak = traced_peak(lambda: adam_step(arrays, {"emb": g}, state,
                                                 0.1))
            assert state.rows["emb"].n == stored
            assert peak < 8 * stored * 300 * 8, peak


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
        c, _ = chart_loss(doc, params, encode_document(doc, params),
                          cfg.decoder)
        assert j.item() == pytest.approx(c.item(), abs=1e-12)

    def test_joint_adds_weighted_transition_loss(self):
        corpus = tiny_corpus()
        doc = next(d for d in corpus.documents if d.n >= 2)
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(0),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        enc = encode_document(doc, params)
        c, _ = chart_loss(doc, params, enc, "partial")
        t = transition_loss(doc, params, enc)
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

    def test_dev_without_gold_is_refused_before_any_step(self, monkeypatch):
        import rstparse.training as training

        corpus = tiny_corpus()
        docs = list(corpus.documents)
        dev = docs[:1] + [Document(docs[1].doc_id, docs[1].edus, None)]
        steps = []
        monkeypatch.setattr(training, "adam_step",
                            lambda *args, **kw: steps.append(1))
        with pytest.raises(ValueError, match=f"dev document {docs[1].doc_id} "
                           "has no gold tree"):
            train(docs, dev, corpus.vocabs, tiny_config())
        assert steps == []

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

    def test_gradients_are_freed_before_the_post_epoch_pass(self,
                                                             monkeypatch):
        import rstparse.training as training

        corpus = tiny_corpus()
        docs = list(corpus.documents)
        freed = []
        count = training.count_missing

        def count_and_check(docs, params, *rest):
            freed.append([t.grad is None for t in params.tensors().values()])
            return count(docs, params, *rest)

        monkeypatch.setattr(training, "count_missing", count_and_check)
        train(docs, docs, corpus.vocabs, tiny_config(max_epochs=2,
                                                     mode="joint"))
        assert len(freed) == 2 and all(all(f) for f in freed)

    @pytest.mark.parametrize("corpus, cfg", [
        # selects epoch 2: the snapshot is copied, then refreshed once
        ((4, 5, 5), dict()),
        # every epoch improves: the snapshot is refreshed twice
        ((6, 7, 8), dict(lr=0.005, seed=1, hidden=4, ff_hidden=4)),
    ], ids=["earlier-epoch", "every-epoch-improves"])
    def test_snapshot_is_the_selected_epochs_parameters(self, corpus, cfg,
                                                        monkeypatch):
        """A 3-epoch run returns, byte for byte, the arrays a run of the
        same config stopped after its selected epoch b ends with."""
        import rstparse.training as training

        docs_n, edus, seed = corpus
        corpus = generate_synthetic(docs_n, edus, VOCAB, seed=seed)
        docs = list(corpus.documents)
        full = train(docs, docs, corpus.vocabs,
                     tiny_config(max_epochs=3, **cfg))
        b = full.best_epoch
        scores = [r.micro["relation"] for r in full.reports]
        if cfg:
            assert scores[0] < scores[1] < scores[2]
        else:
            assert b < 3
        trained = []                          # the parameters being trained
        evaluate = training.evaluate_model
        monkeypatch.setattr(training, "evaluate_model",
                            lambda docs, params, *rest: trained.append(params)
                            or evaluate(docs, params, *rest))
        train(docs, docs, corpus.vocabs, tiny_config(max_epochs=b, **cfg))
        for name, want in trained[-1].arrays.items():
            assert full.params.arrays[name].tobytes() == want.tobytes(), name

    def test_pretrained_table_is_one_read_only_copy(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        table = np.random.default_rng(2).standard_normal(
            (len(corpus.word_vocab), 2))
        pretrained = PretrainedEmbeddings(table, len(table), len(table))
        result = train(docs, docs, corpus.vocabs,
                       tiny_config(max_epochs=2), pretrained=pretrained)
        params = result.params
        assert not params.pretrained.flags.writeable
        assert params.pretrained.tobytes() == table.tobytes()
        assert table.flags.writeable              # the caller's is its own
        assert params.copy().pretrained is params.pretrained
        writeable = ModelParams(params.arrays, params.word_vocab,
                                params.pos_vocab, params.rel_vocab,
                                params.hidden, params.ff_hidden, table.copy())
        for doc in docs:
            assert (encode_document(doc, params).data.tobytes()
                    == encode_document(doc, writeable).data.tobytes())

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

    @pytest.mark.parametrize("method", ["exact", "partial", "complete"])
    def test_encoder_tape_is_freed_before_decoding(self, monkeypatch, method):
        from rstparse import chart, training

        corpus = tiny_corpus()
        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(5),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        encode, decode = training.encode_document, chart.DECODERS[method]
        refs, alive = [], []

        def encode_and_watch(*args):
            enc = encode(*args)
            refs.append(weakref.ref(enc))
            return enc

        def decode_and_check(n, oracle):
            alive.append(refs[-1]() is not None)
            return decode(n, oracle)

        monkeypatch.setattr(training, "encode_document", encode_and_watch)
        monkeypatch.setitem(chart.DECODERS, method, decode_and_check)
        predict_tree(corpus.documents[0], params, method)
        assert alive == [False]

    @pytest.mark.parametrize("n", [17, 65, 80])
    def test_transition_parse_peaks_no_higher_than_its_encoder(self, n):
        """The greedy parser keeps only the EDU matrix, so the encoder's
        tape is gone before its loop and the parse's traced peak is the
        encoder's own (perfbench's model shape: H = 64, 19 relations, EDUs
        of 3-12 tokens)."""
        doc, params = perfbench_shaped(n)
        predict_tree(doc, params, "transition")   # first-call set-up
        encoder = traced_peak(lambda: encode_document(doc, params))
        parse = traced_peak(lambda: predict_tree(doc, params, "transition"))
        assert parse <= encoder + 64 * 1024, (encoder, parse)

    @pytest.mark.parametrize("method", ["partial", "complete", "transition"])
    def test_a_parse_records_no_tape(self, monkeypatch, method):
        """A parse encodes inside ops.no_tape(), so at n = 80 (T = 600
        tokens, H = 64) its traced peak lies at least the LSTM's gates and
        cells, 8 * 10 T H bytes, below the same parse with the tape
        recorded.  Exact's peak is its decoder's, which the tape does not
        reach."""
        doc, params = perfbench_shaped(80)
        T = sum(len(edu.tokens) for edu in doc.edus)
        predict_tree(doc, params, method)         # first-call set-up
        free = traced_peak(lambda: predict_tree(doc, params, method))
        monkeypatch.setattr(ops, "no_tape", contextlib.nullcontext)
        taped = traced_peak(lambda: predict_tree(doc, params, method))
        assert taped - free >= 8 * 10 * T * params.hidden, (T, taped, free)

    def test_unknown_method(self):
        corpus = tiny_corpus()
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(5),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        with pytest.raises(ValueError):
            predict_tree(corpus.documents[0], params, "beam")


def perfbench_shaped(n):
    """A document of n EDUs of 3-12 tokens and a model of perfbench's shape:
    word_dim = hidden = ff_hidden = 64, pos_dim = 32, 19 relations."""
    words = ["w%d" % w for w in range(50)]
    edus = []
    for t in range(n):
        size = 3 + (7 * t) % 10
        tokens = tuple(words[(5 * t + k) % 50] for k in range(size))
        edus.append(Edu(tokens, ("T0",) * size, t + 1))
    rel = RelationVocab(["R%d" % r for r in range(1, 19)])
    params = ModelParams.init(Vocab(words), Vocab(["T0"]), rel,
                              np.random.default_rng(0), word_dim=64,
                              pos_dim=32, hidden=64, ff_hidden=64)
    return Document("d", tuple(edus), None), params


def traced_peak(run):
    """The traced peak of ``run()``, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _train_steps(corpus, cfg, dense, pretrained=None, steps=6):
    """``steps`` updates as train makes them, cycling through the documents;
    ``dense`` takes the dense references' gradients and Adam step."""
    params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                              corpus.rel_vocab, np.random.default_rng(5),
                              word_dim=cfg.word_dim, pos_dim=cfg.pos_dim,
                              hidden=cfg.hidden, ff_hidden=cfg.ff_hidden,
                              pretrained=pretrained)
    adam = (RefAdamState if dense else AdamState.init)(params.arrays)
    drop_rng = np.random.default_rng(9)
    docs = corpus.documents
    for s in range(steps):
        doc = docs[s % len(docs)]
        params.zero_grads()
        masks = make_dropout_masks(params, doc.n, cfg.dropout, drop_rng)
        loss, _ = joint_loss(doc, params, cfg, masks)
        ops.backward(loss)
        if dense:
            ref_adam_step(params.arrays, params.gradients(), adam, cfg.lr,
                          clip=cfg.grad_clip)
        else:
            adam_step(params.arrays, params.leaf_gradients(), adam, cfg.lr,
                      clip=cfg.grad_clip)
    return params, adam


class TestRowGradients:
    """Row gradients and Adam over touched rows against the dense reference:
    every parameter and moment byte for byte."""

    @pytest.mark.parametrize("case", ["joint-dropout", "chart", "clip",
                                      "pretrained"])
    def test_row_path_equals_dense_path(self, case, monkeypatch):
        corpus = generate_synthetic(5, 6, VOCAB, seed=8)
        cfg = tiny_config(lr=0.05, hidden=3, ff_hidden=3, word_dim=3,
                          pos_dim=2, mode="joint", dropout=0.2)
        pretrained = None
        if case == "chart":
            cfg = tiny_config(lr=0.05, mode="chart", dropout=0.0)
        elif case == "clip":
            cfg.grad_clip = 0.05
        elif case == "pretrained":
            table = np.random.default_rng(2).standard_normal(
                (len(corpus.word_vocab), 2))
            pretrained = PretrainedEmbeddings(table, len(table), len(table))
        params, adam = _train_steps(corpus, cfg, False, pretrained)
        with monkeypatch.context() as mp:
            mp.setattr(ops, "take_rows", ref_take_rows)
            ref_params, ref_adam = _train_steps(corpus, cfg, True, pretrained)
        assert adam.t == ref_adam.t == 6
        m, v = dense_moments(adam, params.arrays)
        for name, want in ref_params.arrays.items():
            assert params.arrays[name].tobytes() == want.tobytes(), name
            assert m[name].tobytes() == ref_adam.m[name].tobytes(), name
            assert v[name].tobytes() == ref_adam.v[name].tobytes(), name
        # the tables have row stores (with clip, fed dense gradients), and
        # some rows were skipped, so the test covers the skipping
        assert set(adam.rows) == {"word_emb", "pos_emb"}
        assert (touched_rows(adam, "word_emb").size
                < len(params.arrays["word_emb"]))

    def test_one_step_touches_only_the_document_rows(self):
        corpus = generate_synthetic(5, 6, VOCAB, seed=8)
        cfg = tiny_config(mode="joint", dropout=0.2)
        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                                  corpus.rel_vocab, np.random.default_rng(5),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
        before = params.arrays["word_emb"].copy()
        adam = AdamState.init(params.arrays)
        doc = corpus.documents[0]
        masks = make_dropout_masks(params, doc.n, cfg.dropout,
                                   np.random.default_rng(1))
        loss, _ = joint_loss(doc, params, cfg, masks)
        ops.backward(loss)
        g = params.tensors()["word_emb"].grad
        assert isinstance(g, ops.RowGrad)
        ids = np.unique([params.word_vocab.lookup(tok)
                         for edu in doc.edus for tok in edu.tokens])
        np.testing.assert_array_equal(g.rows(), ids)
        adam_step(params.arrays, params.leaf_gradients(), adam, cfg.lr)
        np.testing.assert_array_equal(touched_rows(adam, "word_emb"), ids)
        outside = np.ones(len(before), dtype=bool)
        outside[ids] = False
        assert outside.any()
        assert (params.arrays["word_emb"][outside].tobytes()
                == before[outside].tobytes())
        zeros = np.zeros((int(outside.sum()), 2)).tobytes()
        m, v = dense_moments(adam, params.arrays)
        assert m["word_emb"][outside].tobytes() == zeros
        assert v["word_emb"][outside].tobytes() == zeros
        assert not np.array_equal(params.arrays["word_emb"][ids], before[ids])


class TestDivergence:
    def test_huge_lr_ends_in_training_diverged(self):
        corpus = tiny_corpus()
        docs = list(corpus.documents)
        for mode in ("chart", "transition", "joint"):
            with pytest.raises(TrainingDiverged,
                               match=r"epoch 1 .*document doc\d+") as info:
                with np.errstate(all="ignore"):
                    train(docs, docs, corpus.vocabs,
                          tiny_config(mode=mode, lr=1e300, max_epochs=1))
            assert isinstance(info.value.__cause__,
                              (NonFiniteScore, FloatingPointError))

    def test_divergence_in_the_post_epoch_decoding(self):
        # one document: its single update already breaks the decoding after it
        corpus = generate_synthetic(1, 5, VOCAB, seed=31)
        docs = list(corpus.documents)
        with pytest.raises(TrainingDiverged,
                           match=r"epoch 1: decoding after the update for "
                                 r"document doc0000 failed: non-finite"):
            with np.errstate(all="ignore"):
                train(docs, docs, corpus.vocabs,
                      tiny_config(mode="joint", lr=1e300, max_epochs=1))
