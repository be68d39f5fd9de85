import numpy as np
import pytest

from rstparse import ops
from rstparse.core import Document, Edu, RelationVocab
from rstparse.data import PretrainedEmbeddings, Vocab
from rstparse.encoder import (
    ACTION,
    NUC,
    REL,
    SPAN,
    Feedforward,
    ModelError,
    ModelParams,
    RowFeedforward,
    encode_document,
    glorot,
    make_dropout_masks,
    span_rep,
)

from conftest import ref_encode_document, ref_feedforward, ref_projections


def make_doc(token_lists, doc_id="doc"):
    edus = []
    for idx, words in enumerate(token_lists, start=1):
        tags = ["T%d" % (i % 3) for i in range(len(words))]
        edus.append(Edu(tuple(words), tuple(tags), idx))
    return Document(doc_id, edus, None)


def small_params(hidden=3, ff_hidden=4, word_dim=2, pos_dim=2, seed=0,
                 pretrained=None, n_rel=3):
    doc = make_doc([["the", "cat"], ["sat", "down"], ["fast"]])
    wv = Vocab.from_documents([doc], "tokens")
    pv = Vocab.from_documents([doc], "pos_tags")
    rv = RelationVocab(["R%d" % i for i in range(1, n_rel)])
    rng = np.random.default_rng(seed)
    params = ModelParams.init(wv, pv, rv, rng, word_dim=word_dim,
                              pos_dim=pos_dim, hidden=hidden,
                              ff_hidden=ff_hidden, pretrained=pretrained)
    return doc, params


class TestInit:
    def test_shapes(self):
        doc, p = small_params()
        V, P = len(p.word_vocab), len(p.pos_vocab)
        assert p.arrays["word_emb"].shape == (V, 2)
        assert p.arrays["pos_emb"].shape == (P, 2)
        # 4H x (word_dim + pos_dim + H)
        assert p.arrays["lstm_fwd.W"].shape == (12, 7)
        assert p.arrays["lstm_bwd.b"].shape == (12,)
        assert p.arrays["span.W1"].shape == (4, 8 * 3)
        assert p.arrays["span.W2"].shape == (1, 4)
        assert p.arrays["rel.W1"].shape == (4, 16 * 3)
        assert p.arrays["rel.W2"].shape == (3, 4)
        assert p.arrays["nuc.W2"].shape == (4, 4)
        assert p.arrays["action.W1"].shape == (4, 9 * 4 * 3)
        assert p.arrays["action.W2"].shape == (1 + 3 * 2, 4)

    def test_embedding_ranges(self):
        doc, p = small_params(hidden=8, word_dim=50, pos_dim=50, seed=3)
        w = p.arrays["word_emb"]
        t = p.arrays["pos_emb"]
        assert np.all(np.abs(w) <= 0.1)
        assert np.all((t >= 0.0) & (t <= 1.0))
        assert t.mean() > 0.25  # one-sided draw, not centered

    def test_glorot_bound(self):
        rng = np.random.default_rng(0)
        W = glorot(rng, 30, 50)
        bound = np.sqrt(6.0 / 80.0)
        assert W.shape == (30, 50)
        assert np.all(np.abs(W) <= bound)
        assert np.abs(W).max() > 0.5 * bound  # actually fills the range

    def test_biases_start_at_zero(self):
        doc, p = small_params()
        for name, arr in p.arrays.items():
            if name.endswith(".b") or name.endswith(".b1") or name.endswith(".b2"):
                assert not arr.any(), name

    def test_same_seed_same_arrays(self):
        _, a = small_params(seed=11)
        _, b = small_params(seed=11)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_needs_real_relations(self):
        doc = make_doc([["a"]])
        wv = Vocab.from_documents([doc], "tokens")
        pv = Vocab.from_documents([doc], "pos_tags")
        with pytest.raises(ValueError):
            ModelParams.init(wv, pv, RelationVocab([]),
                             np.random.default_rng(0))

    def test_derived_sizes(self):
        doc, p = small_params(n_rel=5)
        assert p.n_rel == 5
        assert p.n_actions == 1 + 3 * 4
        assert p.edu_dim == 12


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        doc, p = small_params(seed=4)
        path = str(tmp_path / "model.npz")
        p.save(path)
        q = ModelParams.load(path)
        assert q.word_vocab == p.word_vocab
        assert q.pos_vocab == p.pos_vocab
        assert q.rel_vocab == p.rel_vocab
        assert q.hidden == p.hidden and q.ff_hidden == p.ff_hidden
        assert set(q.arrays) == set(p.arrays)
        for name in p.arrays:
            np.testing.assert_array_equal(q.arrays[name], p.arrays[name])
        assert q.pretrained is None

    def test_save_honors_exact_path(self, tmp_path):
        doc, p = small_params()
        path = str(tmp_path / "model.bin")
        p.save(path)
        assert (tmp_path / "model.bin").exists()
        assert not (tmp_path / "model.bin.npz").exists()
        ModelParams.load(path)

    def test_pretrained_round_trip(self, tmp_path):
        doc = make_doc([["the", "cat"], ["sat"]])
        wv = Vocab.from_documents([doc], "tokens")
        pv = Vocab.from_documents([doc], "pos_tags")
        table = np.arange(len(wv) * 3, dtype=np.float64).reshape(len(wv), 3)
        pre = PretrainedEmbeddings(table, found=2, vocab_size=len(wv))
        p = ModelParams.init(wv, pv, RelationVocab(["R1"]),
                             np.random.default_rng(0), word_dim=2, pos_dim=2,
                             hidden=2, ff_hidden=2, pretrained=pre)
        path = str(tmp_path / "m.npz")
        p.save(path)
        q = ModelParams.load(path)
        np.testing.assert_array_equal(q.pretrained, table)

    def test_random_bytes_are_a_model_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(np.random.default_rng(0).bytes(512))
        with pytest.raises(ModelError, match="not a readable model"):
            ModelParams.load(str(path))

    def test_truncated_file_is_a_model_error(self, tmp_path):
        doc, p = small_params()
        path = tmp_path / "model.npz"
        p.save(str(path))
        data = path.read_bytes()
        for cut in (0, 40, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ModelError):
                ModelParams.load(str(path))

    def test_wrong_shape_is_a_model_error(self, tmp_path):
        doc, p = small_params()
        p.arrays["rel.W2"] = np.zeros((p.n_rel + 2, p.ff_hidden))
        path = str(tmp_path / "model.npz")
        p.save(path)
        with pytest.raises(ModelError, match=r"'rel.W2' has shape \(5, 4\)"):
            ModelParams.load(path)

    def test_non_finite_array_is_a_model_error(self, tmp_path):
        doc, p = small_params()
        p.arrays["span.b1"][1] = np.inf
        path = str(tmp_path / "model.npz")
        p.save(path)
        with pytest.raises(ModelError, match="span.b1"):
            ModelParams.load(path)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelParams.load(str(tmp_path / "absent.npz"))

    def test_copy_is_deep_for_arrays(self):
        doc, p = small_params()
        q = p.copy()
        q.arrays["word_emb"][0, 0] = 99.0
        assert p.arrays["word_emb"][0, 0] != 99.0

    def test_tensors_share_storage(self):
        doc, p = small_params()
        t = p.tensors()["word_emb"]
        p.arrays["word_emb"][0, 0] = 0.05
        assert t.data[0, 0] == 0.05


class TestEncoding:
    def test_edu_and_span_shapes(self):
        doc, p = small_params(hidden=3)
        enc = encode_document(doc, p)
        assert enc.n == 3
        for e in enc.edus:
            assert e.shape == (12,)
        assert span_rep(enc, 0, 2).shape == (24,)
        M = enc.matrix()
        np.testing.assert_array_equal(span_rep(enc, 1, 3).data,
                                      np.concatenate([M[1], M[2]]))
        with pytest.raises(ValueError):
            span_rep(enc, 2, 2)

    def test_deterministic_encoding(self):
        doc, p = small_params(seed=9)
        a = encode_document(doc, p).matrix()
        b = encode_document(doc, p).matrix()
        np.testing.assert_array_equal(a, b)

    def test_zero_params_score_zero(self):
        doc, p = small_params()
        for name in p.arrays:
            p.arrays[name][:] = 0.0
        enc = encode_document(doc, p)
        for name, rows in ((SPAN, [[0, 1]]), (REL, [[0, 0, 1, 2]]),
                           (NUC, [[0, 1, 2, 2]])):
            X = ops.take_rows(enc.tensor, rows)
            assert not Feedforward(p, name).apply(X).data.any()

    def test_score_widths(self):
        doc, p = small_params(n_rel=4)
        enc = encode_document(doc, p)
        # span (0, 3) reads EDU rows 0 and 2; label rows of (0, 3) split at 2
        # read the child reps (0, 2) and (2, 3), and a leaf row (1, 2) reads
        # its own rep twice
        spans = ops.take_rows(enc.tensor, [[0, 2], [1, 1]])
        labels = ops.take_rows(enc.tensor, [[0, 1, 2, 2], [1, 1, 1, 1]])
        assert Feedforward(p, SPAN).apply(spans).shape == (2, 1)
        assert Feedforward(p, REL).apply(labels).shape == (2, 4)
        assert Feedforward(p, NUC).apply(labels).shape == (2, 4)

    def test_pretrained_channel_changes_encoding(self):
        doc, base = small_params(seed=2)
        wv, pv, rv = base.word_vocab, base.pos_vocab, base.rel_vocab
        table = np.ones((len(wv), 3))
        pre = PretrainedEmbeddings(table, found=len(wv) - 1,
                                   vocab_size=len(wv))
        p = ModelParams.init(wv, pv, rv, np.random.default_rng(2),
                             word_dim=2, pos_dim=2, hidden=3, ff_hidden=4,
                             pretrained=pre)
        # input dim now includes the frozen channel
        assert p.arrays["lstm_fwd.W"].shape == (12, 2 + 3 + 2 + 3)
        enc = encode_document(doc, p)
        assert enc.edus[0].shape == (12,)

    def test_encoder_gradient_matches_fd(self):
        doc, p = small_params(seed=6)

        def span_score(enc):     # span (0, 2): EDU rows 0 and 1
            X = ops.take_rows(enc.tensor, [[0, 1]])
            return ops.vsum(Feedforward(p, SPAN).apply(X))

        def value():
            return span_score(encode_document(doc, p)).item()

        p.zero_grads()
        ops.backward(span_score(encode_document(doc, p)))
        grads = p.gradients()

        eps = 1e-6
        rng = np.random.default_rng(0)
        for name in ("lstm_fwd.W", "lstm_bwd.W", "word_emb", "span.W1"):
            arr = p.arrays[name]
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=6, replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                up = value()
                flat[idx] = old - eps
                down = value()
                flat[idx] = old
                fd = (up - down) / (2 * eps)
                got = grads[name].reshape(-1)[idx]
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-8), name


    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("pretrained", [False, True])
    def test_encoding_equals_reference_composition(self, dropout, pretrained):
        # the EDU matrix and every parameter gradient, byte for byte, against
        # two one-direction LSTM nodes and a column concat
        rng = np.random.default_rng(5)
        doc = make_doc([["w%d" % rng.integers(9) for _ in range(k)]
                        for k in (3, 1, 7, 4, 12, 2)])
        wv = Vocab.from_documents([doc], "tokens")
        pv = Vocab.from_documents([doc], "pos_tags")
        pre = (PretrainedEmbeddings(rng.standard_normal((len(wv), 5)),
                                    found=len(wv) - 1, vocab_size=len(wv))
               if pretrained else None)
        p = ModelParams.init(wv, pv, RelationVocab(["R1", "R2"]), rng,
                             word_dim=6, pos_dim=3, hidden=5, ff_hidden=4,
                             pretrained=pre)
        for name in ("lstm_fwd.b", "lstm_bwd.b"):
            p.arrays[name][:] = rng.standard_normal(p.arrays[name].shape)
        masks = make_dropout_masks(p, doc.n, dropout, rng)
        upstream = rng.standard_normal((doc.n, p.edu_dim))
        got = []
        for encode in (lambda: encode_document(doc, p, masks).tensor,
                       lambda: ref_encode_document(doc, p, masks)):
            p.zero_grads()
            M = encode()
            ops.backward(ops.vsum(ops.cmul(M, upstream)))
            got.append([M.data] + list(p.gradients().values()))
        for a, b in zip(*got):
            assert a.tobytes() == b.tobytes()


class TestDropout:
    def test_disabled_returns_none(self):
        doc, p = small_params()
        assert make_dropout_masks(p, 3, 0.0, np.random.default_rng(0)) is None

    def test_rate_must_be_below_one(self):
        doc, p = small_params()
        with pytest.raises(ValueError):
            make_dropout_masks(p, 3, 1.0, np.random.default_rng(0))

    def test_mask_values_and_shapes(self):
        doc, p = small_params(hidden=5, ff_hidden=6)
        m = make_dropout_masks(p, 4, 0.25, np.random.default_rng(1))
        assert m.edu.shape == (4, 20)
        scale = 1.0 / 0.75
        assert set(np.unique(m.edu)) <= {0.0, scale}
        for name in (SPAN, REL, NUC, ACTION):
            h = m.hidden_for(name)
            assert h.shape == (6,)
            assert set(np.unique(h)) <= {0.0, scale}

    def test_feedforward_applies_mask_on_both_paths(self):
        doc, p = small_params()
        enc = encode_document(doc, p)
        X = ops.take_rows(enc.tensor, [[0, 1], [1, 2], [2, 2]])
        ff = Feedforward(p, SPAN)
        half = make_dropout_masks(p, doc.n, 0.5, np.random.default_rng(3))
        mask = half.hidden_for(SPAN)
        out = ff.apply(X, mask).data
        np.testing.assert_allclose(out, ff.output_np(X.data @ ff.W1.data.T, mask))
        # each row as the per-decision composition scores it
        for r in range(3):
            one = ref_feedforward(p, SPAN, ops.tensor(X.data[r]), half)
            np.testing.assert_allclose(out[r], one.data, rtol=0, atol=1e-12)
        # with the hidden layer fully dropped only the bias survives
        np.testing.assert_allclose(ff.apply(X, np.zeros(p.ff_hidden)).data,
                                   np.tile(ff.b2.data, (3, 1)))

    def test_row_feedforward_equals_feedforward_on_concatenated_rows(self):
        doc, p = small_params(seed=7)
        M = encode_document(doc, p).matrix()
        rng = np.random.default_rng(0)
        idx = [rng.integers(0, doc.n, size=10) for _ in range(4)]
        X = np.hstack([M[i] for i in idx])
        mask = make_dropout_masks(p, doc.n, 0.5, rng).hidden_for(REL)
        for m in (None, mask):
            ff = Feedforward(p, REL)
            np.testing.assert_allclose(RowFeedforward(ff, M, 4, m)(*idx),
                                       ff.apply(ops.tensor(X), m).data,
                                       rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="columns"):
            RowFeedforward(Feedforward(p, SPAN), M, 4)


class _Weights:
    """Just enough of ModelParams for ``Feedforward(_Weights(...), "ff")``."""

    def __init__(self, rng, d_in, ff_hidden, d_out):
        self._tensors = {
            "ff.W1": ops.tensor(rng.normal(size=(ff_hidden, d_in))),
            "ff.b1": ops.tensor(rng.normal(size=ff_hidden)),
            "ff.W2": ops.tensor(rng.normal(size=(d_out, ff_hidden))),
            "ff.b2": ops.tensor(rng.normal(size=d_out))}

    def tensors(self):
        return self._tensors


class TestRowFeedforward:
    def test_stacked_projections_equal_per_block_products(self):
        rng = np.random.default_rng(17)
        for q, d, ff_hidden, N in [(q, d, f, N) for q in (2, 4, 9)
                                   for d in (1, 3, 16, 256)
                                   for f in (2, 5, 64)
                                   for N in (1, 2, 81, 601)]:
            ff = Feedforward(_Weights(rng, q * d, ff_hidden, 3), "ff")
            M = rng.normal(size=(N, d))
            got = RowFeedforward(ff, M, q).proj
            assert got.shape == (q, N, ff_hidden)
            for b, want in enumerate(ref_projections(ff, M, q)):
                assert got[b].tobytes() == want.tobytes(), (q, d, N, b)

    def test_one_equals_batch_call_with_one_element_indices(self):
        rng = np.random.default_rng(23)
        for q in (2, 4, 9):
            for ff_hidden in (1, 2, 5, 64):
                for N in (2, 3, 10, 81, 300, 601):
                    ff = Feedforward(_Weights(rng, q * 4, ff_hidden, 7), "ff")
                    M = rng.normal(size=(N, 4))
                    mask = (rng.random(ff_hidden) >= 0.5) * 2.0
                    for m in (None, mask):
                        scorer = RowFeedforward(ff, M, q, m)
                        for _ in range(4):
                            rows = rng.integers(0, N, size=q).tolist()
                            got = scorer.one(rows)
                            want = scorer(*([r] for r in rows))
                            assert got.shape == (1, 7)
                            assert got.tobytes() == want.tobytes(), \
                                (q, ff_hidden, N, rows)
