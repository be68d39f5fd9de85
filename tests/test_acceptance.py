"""Acceptance checks for the whole toolkit.

Each test guards one headline behavior end to end, with tolerances stated
inline: score agreement within 1e-9, gradient agreement within 1e-4 relative
error at epsilon 1e-5, and explicit wall-clock budgets where speed is the
claim.  The terminal summary prints one PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest

from conftest import brute_force_best, make_tree

from rstparse import ops
from rstparse.chart import (
    TableOracle,
    augment_tables,
    count_missing,
    decode_complete,
    decode_exact,
    decode_partial,
    hamming,
    missing_prediction,
    random_tables,
    score_tree,
)
from rstparse.core import Document, Nuclearity, RelationVocab
from rstparse.data import generate_synthetic, random_tree
from rstparse.metrics import aggregate, DocScore, PairCounts, evaluate_trees, score_pair
from rstparse.training import TrainConfig, joint_loss, train
from rstparse.transition import oracle_actions, replay

from test_encoder import small_params


def relation_vocab(n_rel):
    return RelationVocab(["R%d" % i for i in range(1, n_rel)])


def test_01_exact_decoder_matches_exhaustive_search():
    """Exact decoding equals brute force over every tree, for n up to 6."""
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for seed in range(10):
            rng = np.random.default_rng(1000 * n + seed)
            tabs = random_tables(n, 4, rng, quantum=2**-10)
            want_tree, want_score = brute_force_best(n, tabs)
            tree, score = decode_exact(n, tabs)
            assert abs(score - want_score) < 1e-9
            assert tree == want_tree
            assert tree.labels == want_tree.labels
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 50
    assert elapsed < 10.0, f"brute-force comparison too slow: {elapsed:.1f}s"


def test_02_decoder_scores_are_ordered():
    """Exact dominates both independence decoders; the gap can be strict."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        tabs = random_tables(n, int(rng.integers(3, 7)), rng)
        _, s_exact = decode_exact(n, tabs)
        _, s_partial = decode_partial(n, tabs)
        _, s_complete = decode_complete(n, tabs)
        assert s_partial <= s_exact + 1e-9
        assert s_complete <= s_exact + 1e-9

    # crafted instance: span scores prefer split 1, the relation score at
    # split 2 is worth twice as much, and only joint maximization sees it
    oracle = TableOracle(2, span={(1, 3): 5.0}, rel={(0, 3, 2, 1): 10.0})
    _, s_exact = decode_exact(3, oracle)
    _, s_partial = decode_partial(3, oracle)
    assert s_exact == 10.0 and s_partial == 5.0
    assert s_partial < s_exact


def test_03_loss_augmentation_equals_score_plus_distance():
    """Augmented tables shift every tree's score by its distance to gold."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        tabs = random_tables(n, 4, rng, quantum=2**-10)
        gold = random_tree(n, relation_vocab(4), rng)
        probe = random_tree(n, relation_vocab(4), rng)
        aug = augment_tables(tabs, gold)
        assert (score_tree(probe, aug)
                == score_tree(probe, tabs) + hamming(probe, gold))


def test_04_exact_decoding_never_under_shoots_gold():
    """No decoded tree scores below gold under exact search; the structure-only
    decoder can and does on a crafted instance."""
    rng = np.random.default_rng(44)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        tabs = random_tables(n, 4, rng)
        gold = random_tree(n, relation_vocab(4), rng)
        assert not missing_prediction(n, tabs, gold, "exact")

    # neural path: random parameters over a synthetic corpus
    corpus = generate_synthetic(6, 6, relation_vocab(3), seed=11)
    from rstparse.encoder import ModelParams

    params = ModelParams.init(corpus.word_vocab, corpus.pos_vocab,
                              corpus.rel_vocab, np.random.default_rng(5),
                              word_dim=4, pos_dim=4, hidden=4, ff_hidden=4)
    assert count_missing(corpus.documents, params, "exact") == 0

    # crafted instance: the span table prefers the wrong structure and the
    # label scores that reward gold are invisible to the structure pass
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


def test_05_derivations_round_trip():
    """Post-order action sequences rebuild their trees, length 2n - 1."""
    rng = np.random.default_rng(55)
    vocab = relation_vocab(5)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        tree = random_tree(n, vocab, rng)
        actions = oracle_actions(tree)
        assert len(actions) == 2 * n - 1
        rebuilt = replay(actions, n)
        assert rebuilt == tree
        assert rebuilt.labels == tree.labels


def _fd_check(doc, params, cfg, rng, eps=1e-5, tol=1e-4):
    def value():
        loss, _ = joint_loss(doc, params, cfg)
        return loss.item()

    params.zero_grads()
    loss, _ = joint_loss(doc, params, cfg)
    assert loss.item() > 0.0, f"{cfg.mode} loss inactive, test is vacuous"
    ops.backward(loss)
    grads = params.gradients()

    worst = 0.0
    families = {}
    for name, arr in params.arrays.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        if flat.size <= 24:
            coords = range(flat.size)
        else:
            coords = rng.choice(flat.size, size=12, replace=False)
        for idx in coords:
            old = flat[idx]
            flat[idx] = old + eps
            up = value()
            flat[idx] = old - eps
            down = value()
            flat[idx] = old
            fd = (up - down) / (2 * eps)
            a = gflat[idx]
            err = abs(a - fd) / max(1e-3, abs(a), abs(fd))
            worst = max(worst, err)
            assert err < tol, (f"{cfg.mode} grad mismatch at {name}[{idx}]: "
                               f"analytic {a:.3e} vs fd {fd:.3e}")
        family = name.split(".")[0].replace("lstm_fwd", "lstm").replace(
            "lstm_bwd", "lstm")
        families[family] = max(families.get(family, 0.0),
                               float(np.abs(grads[name]).max()))
    return worst, families


def _other_structure(tree):
    """The other binary tree over the same three EDUs, keeping the labels of
    the root, of the internal child span and of the leaves."""
    (child,) = [s for s in tree.splits if s != (0, 3)]
    if child == (0, 2):
        splits = {(0, 3): 1, (1, 3): 2}
    else:
        splits = {(0, 3): 2, (0, 2): 1}
    (other,) = [s for s in splits if s != (0, 3)]
    labels = {s: tree.label_at(*s) for s in ((0, 1), (1, 2), (2, 3), (0, 3))}
    labels[other] = tree.label_at(*child)
    return make_tree(3, splits, labels)


def test_06_loss_gradients_match_finite_differences():
    """Backward pass against central differences for all three objectives.

    The last case gives the chart loss a gold tree whose structure the
    prediction does not share, so the span scorer's gradient (pred minus
    gold) is not exactly zero."""
    covered = {}
    for mode, other_gold in (("chart", False), ("transition", False),
                             ("joint", False), ("chart", True)):
        doc, params = small_params(seed=6)
        gold = random_tree(doc.n, relation_vocab(params.n_rel),
                           np.random.default_rng(4))
        if other_gold:
            gold = _other_structure(gold)
        doc = Document(doc.doc_id, doc.edus, gold)
        cfg = TrainConfig(mode=mode, decoder="partial", gamma=1.0,
                          dropout=0.0, hidden=3, ff_hidden=4,
                          word_dim=2, pos_dim=2)
        if other_gold:
            # At n = 3 the partial decoder keeps gold's structure under
            # either gold and flips every label (distance 10, against 9 for
            # the other structure); complete takes its structure from the
            # augmented span scores alone.
            cfg.decoder = "complete"
            _, diag = joint_loss(doc, params, cfg)
            assert diag.pred.splits != gold.splits, "pred has gold's structure"
        worst, families = _fd_check(doc, params, cfg,
                                    np.random.default_rng(100))
        for fam, mag in families.items():
            covered[fam] = max(covered.get(fam, 0.0), mag)
    # every component of the model receives gradient from some objective
    for fam in ("word_emb", "pos_emb", "lstm", "span", "rel", "nuc", "action"):
        assert covered.get(fam, 0.0) > 0.0, f"no gradient reached {fam}"


@pytest.mark.parametrize("mode", ["chart", "transition", "joint"])
def test_07_model_can_memorize_a_small_corpus(mode):
    """Each training objective drives its parser to 100 F1 on what it saw."""
    corpus = generate_synthetic(4, 6, RelationVocab(["Cause", "Elab", "Joint"]),
                                seed=42)
    docs = list(corpus.documents)
    cfg = TrainConfig(mode=mode, max_epochs=60, hidden=32, ff_hidden=32,
                      word_dim=32, pos_dim=32, seed=5)
    t0 = time.perf_counter()
    result = train(docs, docs, corpus.vocabs, cfg)
    elapsed = time.perf_counter() - t0
    perfect = [r.epoch for r in result.reports
               if all(r.micro[m] == 100.0
                      for m in ("span", "nuclearity", "relation"))]
    assert perfect, f"{mode} never reached 100/100/100 in {cfg.max_epochs} epochs"
    assert elapsed < 120.0, f"{mode} training too slow: {elapsed:.0f}s"


def test_08_decoder_costs_scale_as_documented():
    """Growing the label set 10x slows exact decoding by at least 5x while the
    split-then-label decoder stays within 3x."""
    n = 40
    rng = np.random.default_rng(88)
    small = random_tables(n, 4, rng)
    large = random_tables(n, 40, rng)

    def med(decode, tabs, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            decode(n, tabs)
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]

    exact_ratio = med(decode_exact, large) / med(decode_exact, small)
    partial_ratio = med(decode_partial, large) / med(decode_partial, small)
    assert exact_ratio >= 5.0, f"exact ratio only {exact_ratio:.2f}"
    assert partial_ratio < 3.0, f"partial ratio {partial_ratio:.2f}"


def test_09_training_is_reproducible(tmp_path):
    """Identical seeded runs emit byte-identical epoch reports."""
    from rstparse.cli import main
    from rstparse.data import save_corpus
    from rstparse.encoder import ModelParams

    corpus = generate_synthetic(3, 5, relation_vocab(3), seed=17)
    corpus_dir = str(tmp_path / "corpus")
    save_corpus(corpus, corpus_dir)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max_epochs = 3\nhidden = 2\nff_hidden = 2\n"
                       "word_dim = 2\npos_dim = 2\ndropout = 0.1\n"
                       "mode = joint\nseed = 9\n")
    reports = []
    models = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"model_{tag}.npz")
        assert main(["train", "--corpus", corpus_dir, "--out", out,
                     "--config", str(cfgfile)]) == 0
        with open(out + ".report.tsv", "rb") as fh:
            reports.append(fh.read())
        models.append(ModelParams.load(out))
    assert reports[0] == reports[1]
    for name in models[0].arrays:
        np.testing.assert_array_equal(models[0].arrays[name],
                                      models[1].arrays[name])


def test_10_evaluation_matches_hand_computed_scores():
    """Known tree pairs produce the hand-checked Parseval-style numbers."""
    # identical trees: everything at 100
    tree = make_tree(4, {(0, 4): 2, (0, 2): 1, (2, 4): 3})
    report = evaluate_trees([("same", tree, tree)])
    assert all(v == 100.0 for v in report.micro.values())
    assert all(v == 100.0 for v in report.macro.values())

    # left vs right branching over three EDUs: 4 of 5 spans agree
    left = make_tree(3, {(0, 3): 2, (0, 2): 1})
    right = make_tree(3, {(0, 3): 1, (1, 3): 2})
    counts = score_pair(left, right)
    assert counts.triple("span") == (4, 5, 5)
    report = evaluate_trees([("pair", left, right)])
    assert report.micro["span"] == 80.0
    assert report.micro["nuclearity"] == 50.0
    assert report.micro["relation"] == 50.0

    # pooled counts diverge from averaged per-document F1
    big = DocScore("big", PairCounts(rel_matched=9, rel_pred=9, rel_gold=9))
    small = DocScore("small", PairCounts(rel_matched=0, rel_pred=3, rel_gold=3))
    merged = aggregate([big, small])
    assert merged.micro["relation"] == 75.0
    assert merged.macro["relation"] == 50.0
