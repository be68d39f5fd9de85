import numpy as np
import pytest

from conftest import (
    chain_tree,
    make_tree,
    queue,
    ref_apply,
    ref_greedy_parse,
    ref_legal_actions,
    ref_score_actions,
    ref_span_rep,
    ref_state_rep,
    ref_transition_loss,
)

from rstparse import ops
from rstparse.chart import NonFiniteScore
from rstparse.core import (
    INTERNAL_NUCLEARITIES,
    LEAF_RELATION,
    Document,
    Nuclearity,
    RelationVocab,
)
from rstparse.data import generate_synthetic, random_tree
from rstparse.encoder import (
    ACTION,
    SHIFT,
    action_count,
    encode_document,
    feedforward,
    make_dropout_masks,
    reduce_action,
    reduce_labels,
)
from rstparse.transition import (
    apply_action,
    finish,
    greedy_parse,
    initial_state,
    is_terminal,
    legal_mask,
    oracle_actions,
    parse_actions,
    replay,
    serialize_actions,
    slot_rows,
    transition_loss,
)

from test_chart import random_document, random_params
from test_encoder import small_params


class TestStateMachine:
    def test_initial_state(self):
        s = initial_state(3)
        assert s.stack == ()
        assert list(queue(s)) == [1, 2, 3]
        assert not is_terminal(s)
        with pytest.raises(ValueError):
            initial_state(0)

    def test_shift_then_reduce(self):
        s = initial_state(2)
        s = apply_action(s, SHIFT)
        s = apply_action(s, SHIFT)
        assert s.stack == ((0, 1), (1, 2))
        s = apply_action(s, reduce_action(1, Nuclearity.NS))
        assert s.stack == ((0, 2),)
        assert is_terminal(s)
        tree = finish(s)
        assert tree.splits == {(0, 2): 1}
        assert tree.label_at(0, 2) == (1, Nuclearity.NS)

    def test_illegal_moves_rejected(self):
        s = initial_state(1)
        with pytest.raises(ValueError):
            apply_action(s, reduce_action(1, Nuclearity.NN))
        s = apply_action(s, SHIFT)
        with pytest.raises(ValueError):
            apply_action(s, SHIFT)
        with pytest.raises(ValueError):
            finish(initial_state(2))

    def test_legal_actions_in_index_order(self):
        s = initial_state(3)
        assert ref_legal_actions(s, 3) == [SHIFT]
        s = apply_action(s, SHIFT)
        s = apply_action(s, SHIFT)
        acts = ref_legal_actions(s, 3)
        # SHIFT, then REDUCE over (relation, nuclearity) in index order
        assert acts == [SHIFT] + [reduce_action(r, p) for r in (1, 2)
                                  for p in INTERNAL_NUCLEARITIES]
        assert acts == list(range(7))
        # queue exhausted: reduces only
        s2 = apply_action(s, SHIFT)
        assert ref_legal_actions(s2, 3) == list(range(1, 7))

    def test_replay_reports_failing_step(self):
        with pytest.raises(ValueError, match="step 1"):
            replay([SHIFT, reduce_action(1, Nuclearity.NN)], 2)


class TestOracle:
    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(0)
        vocab = RelationVocab(["A", "B", "C"])
        for _ in range(60):
            n = int(rng.integers(1, 15))
            tree = random_tree(n, vocab, rng)
            actions = oracle_actions(tree)
            assert len(actions) == 2 * n - 1
            assert replay(actions, n) == tree

    def test_known_derivation(self):
        tree = make_tree(3, {(0, 3): 2, (0, 2): 1},
                         labels={(0, 3): (2, Nuclearity.NS),
                                 (0, 2): (1, Nuclearity.NN)})
        # SHIFT is 0, REDUCE(1, NN) is 1 and REDUCE(2, NS) is 1 + 3 + 1
        assert oracle_actions(tree) == [0, 0, 1, 0, 5]

    @pytest.mark.parametrize("right", [True, False])
    def test_deep_chain_round_trip(self, right):
        tree = chain_tree(5000, right)
        actions = oracle_actions(tree)
        assert len(actions) == 2 * 5000 - 1
        assert replay(actions, 5000) == tree


class TestActionIndexing:
    def test_bijection(self):
        """Every REDUCE index, for 2-20 relations, names one (relation,
        internal nuclearity) pair, relation-major, and maps back to itself."""
        for n_rel in range(2, 21):
            indices = list(range(SHIFT + 1, action_count(n_rel)))
            labels = [reduce_labels(a) for a in indices]
            assert labels == [(r, p) for r in range(1, n_rel)
                              for p in INTERNAL_NUCLEARITIES]
            assert all(type(p) is Nuclearity for _, p in labels)
            assert [reduce_action(r, p) for r, p in labels] == indices

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_labels(SHIFT)
        with pytest.raises(ValueError):
            reduce_labels(-1)

    def test_reduce_rejects_leaf_labels(self):
        with pytest.raises(ValueError):
            reduce_action(LEAF_RELATION, Nuclearity.NN)
        with pytest.raises(ValueError):
            reduce_action(1, Nuclearity.LEAF)


class TestSerialization:
    def test_round_trip(self):
        vocab = RelationVocab(["Cause", "Attribution"])
        actions = [SHIFT, SHIFT, reduce_action(2, Nuclearity.SN), SHIFT,
                   reduce_action(1, Nuclearity.NN)]
        text = serialize_actions(actions, vocab)
        assert text == ("SHIFT SHIFT REDUCE:Attribution:SN SHIFT "
                        "REDUCE:Cause:NN")
        assert parse_actions(text, vocab) == actions

    def test_parse_rejects_unknown_forms(self):
        vocab = RelationVocab(["Cause"])
        with pytest.raises(ValueError):
            parse_actions("POP", vocab)
        with pytest.raises(ValueError):
            parse_actions("REDUCE:Nope:NN", vocab)
        with pytest.raises(ValueError):
            parse_actions("REDUCE:Cause:XX", vocab)
        with pytest.raises(ValueError, match="LEAF"):
            parse_actions("REDUCE:LEAF:NN", vocab)


def action_input(state, enc):
    """The action scorer's input row: the state's slot rows of [M; 0]."""
    padded = ops.concat([enc, ops.zeros((1, enc.shape[1]))], axis=0)
    return ops.take_rows(padded, [slot_rows(state)])


class TestStateRep:
    def test_width_and_padding(self):
        doc, params = small_params(hidden=3)
        enc = encode_document(doc, params)
        s = initial_state(doc.n)
        # 3 empty stack slots (2 rows each) read the zero row n, then the
        # three queued EDUs
        assert slot_rows(s) == [3] * 6 + [0, 1, 2]
        rep = action_input(s, enc)
        # 2 reps per stack slot (3 slots) + 1 per queue slot (3 slots), 4H each
        assert rep.shape == (1, 9 * 12)
        np.testing.assert_array_equal(rep.data[0, :6 * 12], 0.0)
        np.testing.assert_array_equal(rep.data[0], ref_state_rep(s, enc).data)

    def test_filled_slots_match_span_reps(self):
        doc, params = small_params(hidden=3)
        enc = encode_document(doc, params)
        s = initial_state(doc.n)
        s = apply_action(s, SHIFT)
        s = apply_action(s, SHIFT)
        assert slot_rows(s) == [1, 1, 0, 0, 3, 3, 2, 3, 3]
        rep = action_input(s, enc).data[0]

        h = 12
        top = ref_span_rep(enc, 1, 2).data    # stack top fills the first slot
        below = ref_span_rep(enc, 0, 1).data
        np.testing.assert_array_equal(rep[:2 * h], top)
        np.testing.assert_array_equal(rep[2 * h:4 * h], below)
        np.testing.assert_array_equal(rep[4 * h:6 * h], 0.0)
        # one EDU left in the queue, then zero padding
        np.testing.assert_array_equal(rep[6 * h:7 * h], enc.data[2])
        np.testing.assert_array_equal(rep[7 * h:], 0.0)
        np.testing.assert_array_equal(rep, ref_state_rep(s, enc).data)

    def test_legal_mask_matches_legal_actions(self):
        vocab = RelationVocab(["A", "B", "C"])
        n_actions = 1 + 3 * (vocab.size - 1)
        tree = random_tree(6, vocab, np.random.default_rng(8))
        s = initial_state(6)
        for a in oracle_actions(tree) + [None]:
            want = ref_legal_actions(s, vocab.size)
            assert np.flatnonzero(legal_mask(s, n_actions)).tolist() == want
            if a is not None:
                s = apply_action(s, a)


class TestGreedyParse:
    def test_produces_valid_trees(self):
        from rstparse.core import validate_tree

        vocab = RelationVocab(["A", "B"])
        corpus = generate_synthetic(4, 7, vocab, seed=11)
        doc, params = small_params()
        for d in corpus.documents:
            p2 = params
            # vocabularies must match the corpus
            from rstparse.data import Vocab
            from rstparse.encoder import ModelParams

            wv = Vocab.from_documents(corpus.documents, "tokens")
            pv = Vocab.from_documents(corpus.documents, "pos_tags")
            p2 = ModelParams.init(wv, pv, vocab, np.random.default_rng(1),
                                  word_dim=2, pos_dim=2, hidden=2, ff_hidden=2)
            tree = greedy_parse(d, p2)
            assert validate_tree(tree) is None
            assert tree.n == d.n

    def test_zero_params_is_deterministic_right_branching(self):
        # with every score tied the lowest action index wins, so the parser
        # shifts while it can, then collapses the stack top-down; the result
        # is the right-branching tree with the lowest reduce labels
        doc, params = small_params(n_rel=3)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        tree = greedy_parse(doc, params)
        assert tree.splits == {(0, 3): 1, (1, 3): 2}
        for _, _, _, l, p in tree.internal_items():
            assert l == 1 and p == Nuclearity.NN

    def test_equals_per_decision_reference(self):
        """Greedy parses pick the same actions as scoring every state with
        the per-decision composition and taking the best legal action."""
        vocab = RelationVocab(["A", "B", "C", "D"])
        corpus = generate_synthetic(12, 12, vocab, seed=31)
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab, vocab,
                                  np.random.default_rng(4), word_dim=3,
                                  pos_dim=3, hidden=3, ff_hidden=5)
        for doc in corpus.documents:
            enc = encode_document(doc, params)
            s = initial_state(doc.n)
            while not is_terminal(s):
                scores = ref_score_actions(s, enc, params).data
                legal = ref_legal_actions(s, params.n_rel)
                best = legal[int(np.argmax(scores[legal]))]
                s = ref_apply(s, best)
            tree, ref = greedy_parse(doc, params, enc), finish(s)
            assert tree == ref and tree.labels == ref.labels

    def test_equals_reference_loop(self):
        """Trees and labels equal the loop that scored every state through
        the batch call, on 200 documents of 1-40 EDUs: random weights at
        two relation counts, all-zero weights (every score tied), weights
        scaled up a thousandfold, and action scores that are NaN, where
        the first scored state raises instead."""
        rng = np.random.default_rng(41)

        def zeroed(p):
            for arr in p.arrays.values():
                arr[:] = 0.0

        def scaled(p):
            for arr in p.arrays.values():
                arr *= 1e3

        def nan_actions(p):
            W2 = p.arrays["action.W2"]
            W2[rng.random(W2.shape[0]) < 0.3] = np.nan

        cases = [(6, None), (2, None), (4, zeroed), (19, scaled),
                 (5, nan_actions)]
        for seed, (n_rel, change) in enumerate(cases):
            params = random_params(n_rel=n_rel, seed=seed, ff_hidden=6)
            if change is not None:
                change(params)
            for n in range(1, 41):
                doc = random_document(n, rng)
                with np.errstate(over="ignore"):   # saturating sigmoids
                    ref = ref_greedy_parse(doc, params)
                    if change is nan_actions and n > 1:
                        with pytest.raises(NonFiniteScore,
                                           match=r"= nan at step 2$"):
                            greedy_parse(doc, params)
                        continue
                    tree = greedy_parse(doc, params)
                assert tree == ref and tree.labels == ref.labels, (seed, n)

    def test_precomputed_encoding_gives_the_same_tree(self):
        doc, params = small_params(seed=12, n_rel=4)
        enc = encode_document(doc, params)
        assert greedy_parse(doc, params, enc) == greedy_parse(doc, params)
        assert greedy_parse(doc, params, enc=enc) == greedy_parse(doc, params)


class TestTransitionLoss:
    def test_zero_params_loss_counts_legal_actions(self):
        doc, params = small_params(n_rel=3)
        gold = make_tree(doc.n, {(0, 3): 1, (1, 3): 2},
                         labels={(0, 3): (1, Nuclearity.NN),
                                 (1, 3): (2, Nuclearity.NS)})
        doc = Document(doc.doc_id, doc.edus, gold)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        loss = transition_loss(doc, params)
        # with all scores zero every legal action (gold included) contributes
        # exactly the margin 1, scaled by 1 / n_actions
        total = 0
        st = initial_state(doc.n)
        for a in oracle_actions(gold):
            total += len(ref_legal_actions(st, params.n_rel))
            st = apply_action(st, a)
        assert loss.item() == pytest.approx(total / params.n_actions)

    def test_floor_from_gold_action_terms(self):
        """The gold action competes against itself at hinge value one, so the
        loss can never drop below (2n - 1) / n_actions."""
        gold = make_tree(3, {(0, 3): 1, (1, 3): 2},
                         labels={(0, 3): (1, Nuclearity.NN),
                                 (1, 3): (2, Nuclearity.NS)})
        floor = (2 * 3 - 1) / 7.0
        for seed in range(4):
            doc, params = small_params(seed=seed, n_rel=3)
            doc2 = Document(doc.doc_id, doc.edus, gold)
            loss = transition_loss(doc2, params)
            assert loss.item() >= floor - 1e-12

    def test_requires_gold(self):
        doc, params = small_params()
        with pytest.raises(ValueError):
            transition_loss(doc, params)

    def test_score_actions_width(self):
        doc, params = small_params(n_rel=3)
        enc = encode_document(doc, params)
        s = initial_state(doc.n)
        scores = feedforward(params, ACTION, action_input(s, enc))
        assert scores.shape == (1, params.n_actions)
        np.testing.assert_allclose(scores.data[0],
                                   ref_score_actions(s, enc, params).data,
                                   rtol=0, atol=1e-12)

    def test_equals_per_decision_reference(self):
        """The batched loss equals the per-state, per-action composition in
        value and in every parameter gradient."""
        vocab = RelationVocab(["A", "B", "C"])
        corpus = generate_synthetic(4, 9, vocab, seed=23)
        from rstparse.encoder import ModelParams

        params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab, vocab,
                                  np.random.default_rng(2), word_dim=3,
                                  pos_dim=3, hidden=3, ff_hidden=5)
        rng = np.random.default_rng(5)
        for doc in corpus.documents:
            for masks in (None, make_dropout_masks(params, doc.n, 0.3, rng)):
                got = []
                for loss in (transition_loss, ref_transition_loss):
                    params.zero_grads()
                    enc = encode_document(doc, params, masks)
                    out = loss(doc, params, masks, enc)
                    ops.backward(out)
                    got.append((out.item(), params.gradients()))
                (value, grads), (ref_value, ref_grads) = got
                assert value == pytest.approx(ref_value, abs=1e-12)
                for name, g in ref_grads.items():
                    np.testing.assert_allclose(grads[name], g, rtol=0,
                                               atol=1e-12, err_msg=name)
