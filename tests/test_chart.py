import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_force_best,
    make_tree,
    ref_decode_exact,
    ref_dense_tables,
    ref_score_nuc,
    ref_score_rel,
    ref_score_tree_symbolic,
    ref_split_totals,
    single_leaf,
)

from rstparse import chart, core, ops
from rstparse.chart import (
    ExactTooLarge,
    LossAugmented,
    NeuralOracle,
    ScoreTables,
    TableOracle,
    augment_tables,
    chart_loss,
    count_missing,
    decode_complete,
    decode_exact,
    decode_partial,
    get_decoder,
    hamming,
    missing_prediction,
    random_tables,
    score_tree,
    score_tree_symbolic,
)
from rstparse.core import Document, Edu, Nuclearity, RelationVocab
from rstparse.data import Vocab, random_tree
from rstparse.encoder import (
    NUC,
    REL,
    SPAN,
    ModelParams,
    encode_document,
    feedforward,
    make_dropout_masks,
)

from test_encoder import make_doc, small_params


def gold_tree(n, n_rel, rng):
    names = ["R%d" % i for i in range(1, n_rel)]
    return random_tree(n, RelationVocab(names), rng)


class TestScoreTree:
    def test_hand_example_excludes_root_span(self):
        oracle = TableOracle(3, span={(0, 1): 0.5, (1, 2): 2.0, (2, 3): 0.125,
                                      (1, 3): 0.25, (0, 3): 100.0},
                             rel={(0, 3, 1, 1): 1.0, (1, 3, 2, 2): 3.0,
                                  (0, 1, 0, 0): 4.0},
                             nuc={(0, 3, 1, 0): 0.5, (1, 3, 2, 1): 0.25,
                                  (0, 1, 0, 3): 0.5})
        tree = make_tree(3, {(0, 3): 1, (1, 3): 2},
                         labels={(0, 3): (1, Nuclearity.NN),
                                 (1, 3): (2, Nuclearity.NS)})
        # non-root spans 0.5+2+0.125+0.25, labels 1+0.5+3+0.25+4+0.5
        assert score_tree(tree, oracle) == 12.125

    def test_single_leaf_document(self):
        oracle = TableOracle(2, rel={(0, 1, 0, 0): 1.5},
                             nuc={(0, 1, 0, 3): 0.25})
        assert score_tree(single_leaf(), oracle) == 1.75
        tree, score = decode_exact(1, oracle)
        assert score == 1.75
        assert set(tree.labels) == {(0, 1)}

    def test_rejects_malformed_tree(self):
        tree = make_tree(3, {(0, 3): 1, (1, 3): 2})
        broken = type(tree)([s for s in tree.spans if (s.i, s.j) != (1, 2)],
                            3, tree.splits)
        with pytest.raises(ValueError):
            score_tree(broken, TableOracle(3))

    def test_rejects_out_of_range_labels(self):
        tree = make_tree(2, {(0, 2): 1}, labels={(0, 2): (7, Nuclearity.NN)})
        with pytest.raises(ValueError):
            score_tree(tree, TableOracle(3))


class TestDecoders:
    def test_exact_matches_brute_force(self):
        for n in range(2, 6):
            for seed in range(4):
                rng = np.random.default_rng(100 * n + seed)
                tabs = random_tables(n, 4, rng, quantum=2**-10)
                want_tree, want = brute_force_best(n, tabs)
                tree, got = decode_exact(n, tabs)
                assert got == pytest.approx(want, abs=1e-9)
                assert tree == want_tree
                assert score_tree(tree, tabs) == pytest.approx(got, abs=1e-9)

    def test_partial_and_complete_never_beat_exact(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            tabs = random_tables(n, 5, rng)
            _, exact = decode_exact(n, tabs)
            _, partial = decode_partial(n, tabs)
            _, complete = decode_complete(n, tabs)
            assert partial <= exact + 1e-9
            assert complete <= exact + 1e-9

    def test_decoded_score_equals_score_tree(self):
        rng = np.random.default_rng(5)
        tabs = random_tables(6, 4, rng)
        for decode in (decode_exact, decode_partial, decode_complete):
            tree, score = decode(6, tabs)
            assert score_tree(tree, tabs) == pytest.approx(score, abs=1e-9)

    def test_identical_on_two_edus(self):
        for seed in range(8):
            tabs = random_tables(2, 4, np.random.default_rng(seed))
            te, se = decode_exact(2, tabs)
            tp, sp = decode_partial(2, tabs)
            tc, sc = decode_complete(2, tabs)
            assert te == tp == tc
            assert se == pytest.approx(sp, abs=1e-12)
            assert se == pytest.approx(sc, abs=1e-12)

    def test_tie_breaks_prefer_low_split_and_low_label(self):
        # all-zero scores leave every decision tied
        tabs = TableOracle(4).tables(3)
        for decode in (decode_exact, decode_partial, decode_complete):
            tree, _ = decode(3, tabs)
            assert tree.splits[(0, 3)] == 1
            for i, j, k, l, p in tree.internal_items():
                assert l == 1
                assert p == Nuclearity.NN

    def test_partial_can_fall_strictly_short(self):
        # the span score pulls the split one way, the relation score the
        # other; a split-then-label decoder cannot see the relation pull
        oracle = TableOracle(2, span={(1, 3): 5.0}, rel={(0, 3, 2, 1): 10.0})
        _, exact = decode_exact(3, oracle)
        tree_p, partial = decode_partial(3, oracle)
        assert exact == 10.0
        assert partial == 5.0
        assert tree_p.splits[(0, 3)] == 1
        assert partial < exact

    def test_complete_independence_can_go_missing(self):
        oracle = TableOracle(2, span={(0, 2): 2.0},
                             rel={(0, 3, 1, 1): 10.0, (1, 3, 2, 1): 10.0},
                             nuc={(0, 3, 1, 0): 10.0, (1, 3, 2, 0): 10.0})
        gold = make_tree(3, {(0, 3): 1, (1, 3): 2},
                         labels={(0, 3): (1, Nuclearity.NN),
                                 (1, 3): (1, Nuclearity.NN),
                                 (0, 1): (1, Nuclearity.NN),
                                 (1, 2): (1, Nuclearity.NN),
                                 (2, 3): (1, Nuclearity.NN)})
        assert missing_prediction(3, oracle, gold, "complete")
        assert not missing_prediction(3, oracle, gold, "exact")

    def test_get_decoder_unknown_name(self):
        with pytest.raises(ValueError):
            get_decoder("beam")

    def test_rejects_empty_document(self):
        with pytest.raises(ValueError):
            decode_exact(0, TableOracle(3))


def signed_zeros(shape, rng):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


def fuzz_tables(x, rng):
    """Tables for the exact-decoder fuzz test: every third rounded to a
    coarse grid so that many decisions tie; every fourth with half its label
    rows all zeros of either sign, and every eighth with a signed-zero span
    table as well, so that whole scores can come out as -0.0."""
    n = int(rng.integers(1, 30))
    n_rel = int(rng.integers(2, 25))
    tabs = random_tables(n, n_rel, rng, quantum=0.25 if x % 3 == 0 else None)
    if x % 4 == 1:
        rows = rng.random(len(tabs.rel)) < 0.5
        tabs.rel[rows] = signed_zeros((rows.sum(), n_rel), rng)
        tabs.nuc[rows] = signed_zeros((rows.sum(), 4), rng)
    if x % 8 == 1:
        tabs.span[:] = signed_zeros(tabs.span.shape, rng)
    return tabs


class TestExactAgainstScalarLoop:
    def test_fuzz_trees_and_scores_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        negative_zeros = 0
        for x in range(300):
            tabs = fuzz_tables(x, rng)
            n = tabs.n
            gold = gold_tree(n, tabs.n_rel, rng)
            for scores in (tabs, LossAugmented(tabs, gold)):
                tree, score = decode_exact(n, scores)
                want_tree, want = ref_decode_exact(n, scores)
                assert tree == want_tree, (x, n, tabs.n_rel)
                assert tree.splits == want_tree.splits
                assert score.hex() == want.hex(), (x, score, want)
                negative_zeros += score.hex() == "-0x0.0p+0"
        # the signed-zero tables do reach the root
        assert negative_zeros > 0


class TestSplitTotals:
    def test_flat_offsets_equal_the_2d_reference(self):
        """The kernel all three decoders share reads the charts through
        strided views of their buffers, a Fortran-ordered chart through a
        copy; it must give the 2-D gather's bits for every width."""
        for n in list(range(1, 41)) + [80]:
            rng = np.random.default_rng(n)
            span, best = rng.standard_normal((2, n + 1, n + 1))
            # signed zeros and a coarse grid, so that sums tie and cancel
            span[rng.random(span.shape) < 0.2] = -0.0
            best = np.round(best * 8) / 8
            for s in (span, np.asfortranarray(span)):
                for width in range(2, n + 1):
                    got = chart._split_totals(s, best, width)
                    want = ref_split_totals(s, best, width)
                    assert got.shape == want.shape == (n + 1 - width,
                                                       width - 1)
                    assert got.tobytes() == want.tobytes(), (n, width)


def traced_peak(run):
    """Bytes ``run()`` allocates at its peak, beyond what was held before,
    as tracemalloc counts them."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def table_bytes(n, n_rel):
    """The dense label table of n EDUs: 8 bytes per relation and
    nuclearity entry of each of its rows(n) rows."""
    return 8 * (n + (n ** 3 - n) // 6) * (n_rel + 4)


class TestExactMemoryBudget:
    def test_budget_counts_width_rows_grids_and_batch(self):
        # the 40 x 40 cells x splits of width 41, the chart, the two grids
        # of 80 * 81 / 2 sums and a batch beside the partial block
        assert chart._exact_bytes(80, 19, 64) == (
            8 * 1600 * 35 + 40 * 81 ** 2 + 2 ** 14
            + 8 * 3240 * (3 * 64 + 7) + 8 * 1024 * (2 * 64 + 3 * 19 + 16))
        for n in range(1, 40):
            widest = max((n + 1 - w) * max(w - 1, 1) for w in range(1, n + 1))
            small = 8 * widest * 21 + 40 * (n + 1) ** 2 + 2 ** 14
            assert chart._exact_bytes(n, 5, 0) == small
            assert chart._exact_bytes(n, 5, 8) == (
                small + 8 * n * (n + 1) // 2 * 31 + 8 * 1024 * (16 + 15 + 16))
        # no term of the table's length: n, not memory, bounds exact
        # decoding now, at any first-layer width
        for n_rel, ff_hidden, largest in ((19, 64, 1087), (19, 200, 648),
                                          (19, 0, 3123)):
            assert (chart._exact_bytes(largest, n_rel, ff_hidden)
                    <= core.MEMORY_LIMIT
                    < chart._exact_bytes(largest + 1, n_rel, ff_hidden))
        assert chart._exact_bytes(326, 19, 64) < table_bytes(326, 19) / 10

    @pytest.mark.parametrize("n", [7, 40, 80])
    def test_traced_peak_is_within_the_budget(self, n):
        """decode_exact's traced peak stays within _exact_bytes for a
        neural scorer, plain and loss-augmented, and for its dense table;
        at 80 EDUs the neural budget is below one dense table, so a decode
        that held one would exceed it."""
        rng = np.random.default_rng(n)
        params = random_params(n_rel=19, seed=n, ff_hidden=64)
        oracle = NeuralOracle(params, encode_document(random_document(n, rng),
                                                      params))
        gold = gold_tree(n, params.n_rel, rng)
        tabs = oracle.tables()
        for scores in (oracle, LossAugmented(oracle, gold), tabs,
                       LossAugmented(tabs, gold)):
            budget = chart._exact_bytes(n, params.n_rel, scores.ff_hidden)
            peak = traced_peak(lambda: decode_exact(n, scores))
            assert peak <= budget, (type(scores).__name__, peak, budget)
        if n == 80:
            assert (chart._exact_bytes(n, params.n_rel, params.ff_hidden)
                    < table_bytes(n, params.n_rel))

    def test_loss_augmented_table_oracle_holds_one_table(self):
        """LossAugmented over a TableOracle holds the one table
        chart_scores builds and shifts each width's rows as they are read,
        so decode_exact holds that table and its own _exact_bytes, and not
        a second, shifted table."""
        n, n_rel = 60, 19
        gold = gold_tree(n, n_rel, np.random.default_rng(60))
        peak = traced_peak(
            lambda: decode_exact(n, LossAugmented(TableOracle(n_rel), gold)))
        # the ScoreTables' span and base, LossAugmented's span and gold
        # labels: five (n+1, n+1) arrays of 8 bytes
        table = table_bytes(n, n_rel) + 5 * 8 * (n + 1) ** 2
        budget = table + chart._exact_bytes(n, n_rel, 0)
        assert peak <= budget < peak + table_bytes(n, n_rel), (peak, budget)

    def test_raises_before_any_table_is_built(self, monkeypatch):
        rng = np.random.default_rng(6)
        params = random_params()
        doc = random_document(7, rng, gold_tree(7, params.n_rel, rng))
        oracle = NeuralOracle(params, encode_document(doc, params))
        need = chart._exact_bytes(7, params.n_rel, params.ff_hidden)
        monkeypatch.setattr(core, "MEMORY_LIMIT", need - 1)
        assert issubclass(ExactTooLarge, ValueError)
        with pytest.raises(ExactTooLarge, match=f"n=7 EDUs with n_rel="
                           f"{params.n_rel} relations needs {need:,} bytes"):
            decode_exact(7, oracle)
        with pytest.raises(ExactTooLarge):
            chart_loss(doc, params, "exact")
        # partial and complete have no such limit
        chart_loss(doc, params, "partial")
        monkeypatch.setattr(core, "MEMORY_LIMIT", need)
        decode_exact(7, oracle)
        # the refusal comes before anything large is allocated: at 80 EDUs
        # one grid of sums is 1.6 MB and one batch of first-layer rows
        # 0.5 MB, and the refused call allocates less than 16 KiB
        n = 80
        params = random_params(n_rel=19, seed=6, ff_hidden=64)
        oracle = NeuralOracle(params, encode_document(random_document(n, rng),
                                                      params))
        need = chart._exact_bytes(n, params.n_rel, params.ff_hidden)
        monkeypatch.setattr(core, "MEMORY_LIMIT", need - 1)

        def refused():
            with pytest.raises(ExactTooLarge):
                decode_exact(n, oracle)

        assert traced_peak(refused) < 2 ** 14


class TestHamming:
    def test_identical_is_zero(self):
        t = make_tree(4, {(0, 4): 2, (0, 2): 1, (2, 4): 3})
        assert hamming(t, t) == 0

    def test_label_mismatches_count_separately(self):
        gold = make_tree(2, {(0, 2): 1},
                         labels={(0, 2): (1, Nuclearity.NN)})
        pred_rel = make_tree(2, {(0, 2): 1},
                             labels={(0, 2): (2, Nuclearity.NN)})
        pred_both = make_tree(2, {(0, 2): 1},
                              labels={(0, 2): (2, Nuclearity.SN)})
        assert hamming(pred_rel, gold) == 1
        assert hamming(pred_both, gold) == 2

    def test_structure_mismatch_counts_predicted_side(self):
        gold = make_tree(3, {(0, 3): 1, (1, 3): 2})
        pred = make_tree(3, {(0, 3): 2, (0, 2): 1})
        # only (0, 2) is predicted and absent from gold
        assert hamming(pred, gold) == 1
        assert hamming(gold, pred) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming(make_tree(2, {(0, 2): 1}),
                    make_tree(3, {(0, 3): 1, (1, 3): 2}))


class TestAugmentation:
    def test_identity_on_quantized_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            tabs = random_tables(n, 4, rng, quantum=2**-10)
            gold = gold_tree(n, 4, rng)
            aug = augment_tables(tabs, gold)
            other = gold_tree(n, 4, rng)
            assert (score_tree(other, aug)
                    == score_tree(other, tabs) + hamming(other, gold))

    def test_gold_scores_unchanged_under_augmentation(self):
        rng = np.random.default_rng(3)
        tabs = random_tables(5, 4, rng, quantum=2**-10)
        gold = gold_tree(5, 4, rng)
        aug = augment_tables(tabs, gold)
        assert score_tree(gold, aug) == score_tree(gold, tabs)

    def test_exact_augmented_decode_dominates_gold(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            tabs = random_tables(n, 4, rng, quantum=2**-10)
            gold = gold_tree(n, 4, rng)
            _, aug_best = decode_exact(n, LossAugmented(tabs, gold))
            assert aug_best >= score_tree(gold, tabs) - 1e-12

    def test_size_mismatch_rejected(self):
        tabs = random_tables(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            augment_tables(tabs, make_tree(2, {(0, 2): 1}))


class TestNeuralOracle:
    def test_tables_match_tape_scorers(self):
        """Every entry of the dense tables equals the batched tape scorers
        applied to all spans and all label rows in one gather each."""
        doc, params = small_params(seed=13)
        n = doc.n
        I, J, K = all_rows(n)
        si, sj = np.triu_indices(n + 1, 1)
        for masks in (None, make_dropout_masks(params, doc.n, 0.3,
                                               np.random.default_rng(1))):
            enc = encode_document(doc, params, masks)
            tabs = NeuralOracle(params, enc, masks).tables()

            def tape(name, index):
                X = ops.take_rows(enc, index)
                return feedforward(params, name, X, masks).data

            span = tape(SPAN, np.stack((si, sj - 1), axis=1))[:, 0]
            np.testing.assert_allclose(tabs.span[si, sj], span, rtol=0,
                                       atol=1e-12)
            b = np.where(J == I + 1, I, K - 1)
            label_rows = np.stack((I, b, K, J - 1), axis=1)
            rows = [tabs.row_index(i, j, k) for i, j, k in zip(I, J, K)]
            np.testing.assert_allclose(tabs.rel[rows], tape(REL, label_rows),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(tabs.nuc[rows], tape(NUC, label_rows),
                                       rtol=0, atol=1e-12)

    def test_symbolic_score_equals_per_decision_reference(self):
        """The batched tape score of a tree equals the per-decision
        composition in value and in every parameter gradient."""
        rng = np.random.default_rng(17)
        params = random_params(n_rel=5, seed=17)
        for n in (1, 2, 7):
            doc = random_document(n, rng)
            tree = gold_tree(n, params.n_rel, rng)
            for masks in (None, make_dropout_masks(params, n, 0.3, rng)):
                got = []
                for score in (score_tree_symbolic, ref_score_tree_symbolic):
                    params.zero_grads()
                    enc = encode_document(doc, params, masks)
                    out = score(tree, params, enc, masks)
                    ops.backward(out)
                    got.append((out.item(), params.gradients()))
                (value, grads), (ref_value, ref_grads) = got
                assert value == pytest.approx(ref_value, abs=1e-12)
                for name, g in ref_grads.items():
                    np.testing.assert_allclose(grads[name], g, rtol=0,
                                               atol=1e-12, err_msg=name)

    def test_symbolic_score_matches_numeric(self):
        doc, params = small_params(seed=21)
        enc = encode_document(doc, params)
        tabs = NeuralOracle(params, enc).tables()
        tree, score = decode_exact(doc.n, tabs)
        sym = score_tree_symbolic(tree, params, enc)
        assert sym.item() == pytest.approx(score, abs=1e-9)

    def test_size_check(self):
        doc, params = small_params()
        enc = encode_document(doc, params)
        with pytest.raises(ValueError):
            decode_exact(doc.n + 1, NeuralOracle(params, enc))


class TestChartLoss:
    def test_zero_params_loss_equals_max_distance(self):
        doc, params = small_params(n_rel=3)
        doc2 = make_doc([["the", "cat"], ["sat", "down"]])
        from rstparse.core import Document

        gold = make_tree(2, {(0, 2): 1}, labels={(0, 2): (1, Nuclearity.NN)})
        doc2 = Document("d2", doc2.edus, gold)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        loss, diag = chart_loss(doc2, params, decoder="exact")
        # every tree scores zero, so the augmented decode maximizes the
        # distance: both leaves mislabeled twice, root relation and
        # nuclearity each flipped once
        assert diag.distance == 6
        assert loss.item() == 6.0
        assert diag.pred_score == diag.gold_score == 0.0
        assert not diag.missing

    def test_loss_nonnegative_and_consistent(self):
        doc, params = small_params(seed=31)
        gold = gold_tree(doc.n, params.n_rel, np.random.default_rng(2))
        from rstparse.core import Document

        doc = Document(doc.doc_id, doc.edus, gold)
        for decoder in ("exact", "partial", "complete"):
            loss, diag = chart_loss(doc, params, decoder=decoder)
            assert loss.item() >= 0.0
            assert diag.loss == pytest.approx(loss.item())
            assert diag.distance == hamming(diag.pred, gold)

    def test_loss_backward_populates_grads(self):
        doc, params = small_params(seed=8)
        gold = gold_tree(doc.n, params.n_rel, np.random.default_rng(4))
        from rstparse.core import Document

        doc = Document(doc.doc_id, doc.edus, gold)
        params.zero_grads()
        loss, diag = chart_loss(doc, params)
        if loss.item() > 0:
            ops.backward(loss)
            grads = params.gradients()
            assert any(np.abs(g).sum() > 0 for g in grads.values())

    def test_requires_gold(self):
        doc, params = small_params()
        with pytest.raises(ValueError):
            chart_loss(doc, params)

    def test_gold_prediction_builds_no_tape(self, monkeypatch):
        """The hinge is judged on score_tree's sums: gold predicted with a
        decoder total a last bit above gold's score_tree gives a constant
        zero, not a tape whose relu reads 0."""
        doc, params = small_params(seed=31)
        gold = gold_tree(doc.n, params.n_rel, np.random.default_rng(2))
        doc = Document(doc.doc_id, doc.edus, gold)
        oracle = NeuralOracle(params, encode_document(doc, params))
        above = np.nextafter(score_tree(gold, oracle), np.inf)
        monkeypatch.setitem(chart.DECODERS, "partial",
                            lambda n, scores: (gold, above))
        loss, diag = chart_loss(doc, params, "partial")
        assert diag.augmented_score > diag.gold_score
        assert diag.distance == 0 and not diag.missing
        assert loss._parents == () and loss.item() == 0.0

    def test_count_missing_zero_for_exact(self):
        doc, params = small_params(seed=2)
        rng = np.random.default_rng(9)
        from rstparse.core import Document

        docs = [Document(doc.doc_id, doc.edus,
                         gold_tree(doc.n, params.n_rel, rng))]
        assert count_missing(docs, params, "exact") == 0


class TestMissingCount:
    """The missing-prediction diagnostic scores the decoded tree and gold
    alike, with score_tree: a decoder's own running total adds in another
    order and reads label rows scored in other batches, so it can fall a
    last bit below the same tree's score_tree."""

    def test_own_prediction_as_gold_is_never_missing(self):
        rng = np.random.default_rng(29)
        params = random_params(n_rel=19, seed=7, ff_hidden=64)
        for n in range(2, 31):
            doc = random_document(n, rng)
            oracle = NeuralOracle(params, encode_document(doc, params))
            for name in ("exact", "partial", "complete"):
                pred, _ = get_decoder(name)(n, oracle)
                assert not missing_prediction(n, oracle, pred, name), (n, name)
                docs = [Document(doc.doc_id, doc.edus, pred)]
                assert count_missing(docs, params, name) == 0, (n, name)

    def test_exact_count_on_a_neural_oracle_is_zero(self):
        rng = np.random.default_rng(31)
        params = random_params(n_rel=19, seed=8, ff_hidden=64)
        docs = []
        for n in range(1, 31):
            doc = random_document(n, rng)
            oracle = NeuralOracle(params, encode_document(doc, params))
            pred, _ = decode_exact(n, oracle)
            for gold in (pred, gold_tree(n, params.n_rel, rng)):
                docs.append(Document(doc.doc_id, doc.edus, gold))
        assert count_missing(docs, params, "exact") == 0


class TestTableOracle:
    def test_out_of_range_entries_caught_at_table_build(self):
        oracle = TableOracle(3, span={(0, 9): 1.0})
        with pytest.raises(ValueError):
            oracle.tables(3)
        oracle = TableOracle(3, rel={(0, 3, 1, 5): 1.0})
        with pytest.raises(ValueError):
            oracle.tables(3)

    def test_needs_real_relation(self):
        with pytest.raises(ValueError):
            TableOracle(1)


class TestRandomTables:
    def test_quantum_grid(self):
        tabs = random_tables(5, 4, np.random.default_rng(0), quantum=2**-10)
        for arr in (tabs.span, tabs.rel, tabs.nuc):
            scaled = arr * 2**10
            np.testing.assert_array_equal(scaled, np.round(scaled))

    def test_row_index_validation(self):
        tabs = random_tables(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tabs.row_index(0, 1, 1)  # leaves use k = i
        with pytest.raises(ValueError):
            tabs.row_index(0, 3, 3)  # split outside the span
        with pytest.raises(ValueError):
            decode_exact(5, tabs)


def all_rows(n):
    """(i, j, k) of every label row, leaf rows with k = i, in table order."""
    cells = [(i, j, k) for i in range(n) for j in range(i + 1, n + 1)
             for k in ([i] if j == i + 1 else range(i + 1, j))]
    return tuple(np.array(c) for c in zip(*cells))


WORDS = ["w%d" % w for w in range(12)]


def random_document(n, rng, gold=None):
    edus = []
    for t in range(n):
        words = [WORDS[w] for w in rng.integers(0, len(WORDS),
                                                 size=int(rng.integers(1, 4)))]
        edus.append(Edu(tuple(words), tuple("T%d" % (len(w) % 3)
                                            for w in words), t + 1))
    return Document("d%d" % n, tuple(edus), gold)


def random_params(n_rel=6, seed=0, ff_hidden=8):
    return ModelParams.init(Vocab(WORDS), Vocab(["T0", "T1", "T2"]),
                            RelationVocab(["R%d" % r for r in range(1, n_rel)]),
                            np.random.default_rng(seed), word_dim=4, pos_dim=3,
                            hidden=4, ff_hidden=ff_hidden)


def refuse_tables(self):
    raise AssertionError("dense table requested")


class RowCounter:
    """A chart scorer that forwards to ScoreTables and counts the label
    rows it is asked for; no decoder may ask it for a dense table."""

    ff_hidden = 0

    def __init__(self, tabs):
        self.inner = tabs
        self.n, self.n_rel, self.span = tabs.n, tabs.n_rel, tabs.span
        self.rows = 0

    def labels(self, i, j, k):
        self.rows += len(i)
        return self.inner.labels(i, j, k)

    def rows_by_width(self):
        for rel, nuc in self.inner.rows_by_width():
            self.rows += len(rel)
            yield rel, nuc

    tables = refuse_tables


class ProtocolScorer:
    """A chart scorer with the protocol's members and nothing else, its
    rows those of ``tabs``."""

    def __init__(self, tabs):
        self.n, self.n_rel, self.span = tabs.n, tabs.n_rel, tabs.span
        self.ff_hidden = 0
        self.labels = tabs.labels
        self.rows_by_width = tabs.rows_by_width


class TestOnDemandRows:
    def test_rows_match_tables_and_tape_scorers(self, monkeypatch):
        rng = np.random.default_rng(3)
        params = random_params(n_rel=5, seed=3)
        doc = random_document(6, rng)
        all_masks = (None, make_dropout_masks(params, doc.n, 0.3,
                                              np.random.default_rng(1)))
        dense = [NeuralOracle(params, encode_document(doc, params, masks),
                              masks).tables() for masks in all_masks]
        monkeypatch.setattr(NeuralOracle, "tables", refuse_tables)
        for masks, tabs in zip(all_masks, dense):
            enc = encode_document(doc, params, masks)
            oracle = NeuralOracle(params, enc, masks)
            I, J, K = all_rows(doc.n)
            order = rng.permutation(len(I))
            rel, nuc = oracle.labels(I[order], J[order], K[order])
            np.testing.assert_allclose(rel, tabs.rel[order], rtol=0, atol=1e-12)
            np.testing.assert_allclose(nuc, tabs.nuc[order], rtol=0, atol=1e-12)
            for x in order[:12]:
                i, j, k = int(I[x]), int(J[x]), int(K[x])
                one_rel, one_nuc = oracle.labels([i], [j], [k])
                np.testing.assert_allclose(
                    one_rel[0], ref_score_rel(params, enc, i, j, k, masks).data,
                    rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    one_nuc[0], ref_score_nuc(params, enc, i, j, k, masks).data,
                    rtol=0, atol=1e-12)

    def test_partial_and_complete_agree_with_dense_tables(self):
        rng = np.random.default_rng(2020)
        params = random_params()
        vocab = RelationVocab(["R%d" % r for r in range(1, params.n_rel)])
        for _ in range(50):
            n = int(rng.integers(2, 41))
            doc = random_document(n, rng)
            gold = random_tree(n, vocab, rng)
            oracle = NeuralOracle(params, encode_document(doc, params))
            tabs = oracle.tables()
            lazy = (oracle, LossAugmented(oracle, gold))
            dense = (tabs, augment_tables(tabs, gold))
            for decode in (decode_partial, decode_complete):
                for lazy_s, dense_s in zip(lazy, dense):
                    tree, score = decode(n, lazy_s)
                    want_tree, want = decode(n, dense_s)
                    assert tree == want_tree
                    assert abs(score - want) <= 1e-9
                aug_tree, aug_score = decode(n, lazy[1])
                assert abs(aug_score - (score_tree(aug_tree, oracle)
                                        + hamming(aug_tree, gold))) <= 1e-9

    def test_lazy_augmentation_identity_is_exact_on_quantized_tables(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            tabs = random_tables(n, 4, rng, quantum=2**-10)
            gold = gold_tree(n, 4, rng)
            probe = gold_tree(n, 4, rng)
            aug = LossAugmented(tabs, gold)
            assert (score_tree(probe, aug)
                    == score_tree(probe, tabs) + hamming(probe, gold))
            dense = augment_tables(tabs, gold)
            I, J, K = all_rows(n)
            rel, nuc = aug.labels(I, J, K)
            np.testing.assert_array_equal(rel, dense.rel)
            np.testing.assert_array_equal(nuc, dense.nuc)
            np.testing.assert_array_equal(np.triu(aug.span, 1),
                                          np.triu(dense.span, 1))

    def test_decoders_read_only_the_rows_they_need(self):
        n = 9
        rng = np.random.default_rng(4)
        tabs = random_tables(n, 5, rng)
        gold = gold_tree(n, 5, rng)
        for augmented in (False, True):
            counter = RowCounter(tabs)
            scores = LossAugmented(counter, gold) if augmented else counter
            decode_partial(n, scores)
            assert counter.rows == n + n * (n - 1) // 2
            counter.rows = 0
            tree, _ = decode_complete(n, scores)
            # the labels pass, then score_tree
            assert counter.rows == 2 * (2 * n - 1)
            counter.rows = 0
            score_tree(tree, scores)
            assert counter.rows == 2 * n - 1
            # exact reads every row, once, and asks for no dense table
            counter.rows = 0
            decode_exact(n, scores)
            assert counter.rows == n + (n ** 3 - n) // 6

    def test_a_scorer_with_only_the_protocol_works_everywhere(self):
        """Every decoder, score_tree and LossAugmented read a chart scorer
        through n, n_rel, ff_hidden, span, labels and rows_by_width alone,
        with the bits of the ScoreTables whose rows it gives; shifting a
        ScoreTables, or its rows, leaves it as it was."""
        rng = np.random.default_rng(17)
        for n in (1, 2, 5, 9, 20):  # 20 EDUs fill two _BLOCK_ROWS blocks
            tabs = random_tables(n, 5, rng)
            gold = gold_tree(n, 5, rng)
            scorer = ProtocolScorer(tabs)
            assert set(vars(scorer)) == {"n", "n_rel", "ff_hidden", "span",
                                         "labels", "rows_by_width"}

            def arrays():
                return [a.tobytes() for a in (tabs.rel, tabs.nuc, tabs.span)]

            plain = arrays()
            dense = augment_tables(tabs, gold)
            assert arrays() == plain
            pairs = ((scorer, tabs), (LossAugmented(scorer, gold), dense))
            for decode in (decode_exact, decode_partial, decode_complete):
                for s, want_s in pairs:
                    tree, score = decode(n, s)
                    want_tree, want = decode(n, want_s)
                    assert tree == want_tree, (n, decode.__name__)
                    assert score.hex() == want.hex(), (n, decode.__name__)
                    assert (score_tree(tree, s).hex()
                            == score_tree(tree, want_s).hex())
            decode_exact(n, LossAugmented(tabs, gold))
            assert arrays() == plain
            aug = LossAugmented(scorer, gold).tables()
            for a, b in ((aug.rel, dense.rel), (aug.nuc, dense.nuc)):
                assert a.tobytes() == b.tobytes()

    def test_chart_loss_and_count_missing_skip_the_dense_table(self, monkeypatch):
        rng = np.random.default_rng(8)
        params = random_params()
        vocab = RelationVocab(["R%d" % r for r in range(1, params.n_rel)])
        docs = [random_document(n, rng, random_tree(n, vocab, rng))
                for n in (1, 3, 7)]
        masks = make_dropout_masks(params, 7, 0.2, rng)
        with monkeypatch.context() as m:
            m.setattr(NeuralOracle, "tables", refuse_tables)
            for decoder in ("exact", "partial", "complete"):
                loss, diag = chart_loss(docs[2], params, decoder, masks)
                assert diag.distance == hamming(diag.pred, docs[2].gold)
                count_missing(docs, params, decoder)
        # exact shifts each width's rows as they are computed, so it holds
        # no table: its traced peak is within decode_exact's budget, which
        # one table, 15.7 MB at n = 80, would exceed
        n = 80
        params = random_params(n_rel=19, seed=8, ff_hidden=64)
        doc = random_document(n, rng, gold_tree(n, params.n_rel, rng))
        masks = make_dropout_masks(params, n, 0.2, rng)
        enc = encode_document(doc, params, masks)
        budget = chart._exact_bytes(n, params.n_rel, params.ff_hidden)
        found = []
        peak = traced_peak(lambda: found.append(
            chart_loss(doc, params, "exact", masks, enc)))
        assert peak <= budget < table_bytes(n, params.n_rel), (peak, budget)
        diag = found[0][1]
        assert diag.loss > 0.0, "the hinge should be active, so the tape built"
        assert diag.distance == hamming(diag.pred, doc.gold)

    def test_table_has_the_bits_of_the_reference_build(self):
        """Each width's streamed rows (rows_by_width), and the dense table
        assembled from them (tables), equal the build that asked
        ``labels`` for every _BLOCK_ROWS block's rows byte for byte, plain
        and loss-augmented, with and without dropout; exact decoding reads
        the same tree and score from the stream as from that table.

        Up to 12 EDUs the table is one block, below OpenBLAS's small-matrix
        cut-off for the nuclearity layer at ff_hidden = 64 (301 rows), and
        up to 7 for the relation layer (64 rows); at 19, 24, 27, 35, 48, 57
        and 67 the last, partial block is below one of them; at 40, 80 and
        101 it is above both.  At ff_hidden = 16 with 4 relations even the
        full blocks are below both cut-offs (test_blas_bits)."""
        rng = np.random.default_rng(13)
        sizes = (*range(1, 30), 35, 40, 48, 57, 67, 80, 101)
        for ff_hidden, n_rel in ((64, 19), (16, 4), (8, 40)):
            params = random_params(n_rel=n_rel, seed=ff_hidden,
                                   ff_hidden=ff_hidden)
            for n in sizes:
                doc = random_document(n, rng)
                gold = gold_tree(n, n_rel, rng)
                for masks in (None, make_dropout_masks(params, n, 0.3, rng)):
                    oracle = NeuralOracle(
                        params, encode_document(doc, params, masks), masks)
                    for scores in (oracle, LossAugmented(oracle, gold)):
                        what = (ff_hidden, n_rel, n, masks is None,
                                type(scores).__name__)
                        want = ref_dense_tables(scores)
                        widths = scores.rows_by_width()
                        for width in range(1, n + 1):
                            at = chart._width_rows(want.base, width)
                            got = next(widths)
                            for a, b in zip(got, (want.rel, want.nuc)):
                                assert a.tobytes() == b[at].tobytes(), (
                                    what, width)
                        assert next(widths, None) is None
                        if n in (1, 7, 19, 40):
                            got = scores.tables()
                            for a, b in ((got.rel, want.rel),
                                         (got.nuc, want.nuc)):
                                assert a.tobytes() == b.tobytes(), what
                            np.testing.assert_array_equal(got.base, want.base)
                        if n <= 57:
                            tree, score = decode_exact(n, scores)
                            ref_tree, ref_score = decode_exact(n, want)
                            assert tree == ref_tree, what
                            assert score.hex() == ref_score.hex(), what

    def test_stream_puts_every_row_in_its_place_at_any_block_size(
            self, monkeypatch):
        """With a second layer whose every product is exact (one-hot W2
        rows, so no sum depends on a kernel's order), the stream gives each
        row the value ``labels`` gives it at any block size: whatever the
        number of full blocks, with or without a partial block, a last
        batch that needs padding or one that does not."""
        rng = np.random.default_rng(21)
        params = random_params(n_rel=5, seed=21, ff_hidden=8)
        for name in (REL, NUC):
            W2 = params.arrays[f"{name}.W2"]
            W2[...] = np.eye(*W2.shape)
            params.arrays[f"{name}.b1"][...] = 4.0
        for n in (1, 2, 5, 9, 14):
            doc = random_document(n, rng)
            gold = gold_tree(n, params.n_rel, rng)
            oracle = NeuralOracle(params, encode_document(doc, params))
            for scores in (oracle, LossAugmented(oracle, gold)):
                want = ref_dense_tables(scores)
                rows = len(want.rel)
                for block in (1, 2, 5, 7, rows - 1, rows, rows + 1, 1024):
                    if block < 1:
                        continue
                    monkeypatch.setattr(chart, "_BLOCK_ROWS", block)
                    got = scores.tables()
                    assert got.rel.tobytes() == want.rel.tobytes(), (n, block)
                    assert got.nuc.tobytes() == want.nuc.tobytes(), (n, block)

    def test_augmented_neural_table_is_the_plain_table_shifted(self):
        """LossAugmented(oracle, gold).tables() equals oracle.tables() with
        +1 on absent spans and +1 on every label but gold's in the rows of
        gold spans, bit for bit."""
        rng = np.random.default_rng(12)
        params = random_params(n_rel=5, seed=12)
        vocab = RelationVocab(["R%d" % r for r in range(1, params.n_rel)])
        for n in (1, 2, 6, 19):  # 19 EDUs fill two _BLOCK_ROWS blocks
            doc = random_document(n, rng)
            gold = random_tree(n, vocab, rng)
            for masks in (None, make_dropout_masks(params, n, 0.3, rng)):
                oracle = NeuralOracle(params, encode_document(doc, params, masks),
                                      masks)
                plain = oracle.tables()
                span = plain.span.copy()
                rel = plain.rel.copy()
                nuc = plain.nuc.copy()
                for i, j in zip(*np.triu_indices(n + 1, 1)):
                    if not gold.has_span(i, j):
                        span[i, j] += 1.0
                for row, (i, j, _) in enumerate(zip(*all_rows(n))):
                    if gold.has_span(i, j):
                        l, p = gold.label_at(i, j)
                        rel[row] += 1.0
                        rel[row, l] -= 1.0
                        nuc[row] += 1.0
                        nuc[row, int(p)] -= 1.0
                aug = LossAugmented(oracle, gold).tables()
                np.testing.assert_array_equal(np.triu(aug.span, 1),
                                              np.triu(span, 1))
                np.testing.assert_array_equal(aug.rel, rel)
                np.testing.assert_array_equal(aug.nuc, nuc)
                np.testing.assert_array_equal(aug.base, plain.base)


class TestNonFiniteScores:
    @pytest.mark.parametrize("decode", [decode_exact, decode_partial,
                                        decode_complete])
    def test_nan_span_named(self, decode):
        tabs = random_tables(5, 4, np.random.default_rng(0))
        tabs.span[1, 3] = np.nan
        with pytest.raises(ValueError, match=r"span\[1, 3\] = nan"):
            decode(5, tabs)

    @pytest.mark.parametrize("decode", [decode_exact, decode_partial,
                                        decode_complete])
    def test_infinite_label_named(self, decode):
        tabs = random_tables(5, 4, np.random.default_rng(0))
        tabs.nuc[tabs.row_index(0, 4, 2), 1] = -np.inf
        with pytest.raises(ValueError, match=r"nuc\[0, 4, 2\]\[1\] = -inf"):
            decode(5, tabs)

    def test_label_past_the_first_block_named(self):
        tabs = random_tables(20, 3, np.random.default_rng(2))  # 1,350 rows
        assert tabs.row_index(17, 20, 18) > chart._BLOCK_ROWS
        tabs.nuc[3, 0] = np.inf
        tabs.rel[tabs.row_index(17, 20, 18), 2] = np.nan
        # every relation row is checked before any nuclearity row
        with pytest.raises(ValueError, match=r"rel\[17, 20, 18\]\[2\] = nan"):
            decode_exact(20, tabs)

    def test_unused_entries_are_not_checked(self):
        # the span table's diagonal and lower triangle are never read
        tabs = random_tables(4, 3, np.random.default_rng(1))
        tabs.span[2, 1] = np.nan
        tabs.span[0, 0] = np.inf
        for decode in (decode_exact, decode_partial, decode_complete):
            decode(4, tabs)

    def test_neural_scores_checked_when_built(self):
        doc, params = small_params(seed=5)
        enc = encode_document(doc, params)
        params.arrays["rel.W1"][0, 0] = np.nan
        with pytest.raises(ValueError, match="rel projection"):
            NeuralOracle(params, enc)
        params.arrays["rel.W1"][0, 0] = 0.0
        params.arrays["span.b2"][0] = np.inf
        with pytest.raises(ValueError, match=r"span\[0, 1\]"):
            NeuralOracle(params, enc)
