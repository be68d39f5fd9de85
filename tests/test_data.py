import random
import re

import numpy as np
import pytest

from conftest import (
    chain_tree,
    make_tree,
    ref_parse_tree_text,
    ref_random_tree,
    ref_serialize_edus,
    ref_split_token,
)
from test_input_fuzz import edit

from rstparse import data
from rstparse.core import Edu, Nuclearity, RelationVocab, validate_tree
from rstparse.data import (
    CorpusError,
    EduCountMismatchError,
    TreeInvariantError,
    TreeSyntaxError,
    UnknownRelationError,
    Vocab,
    generate_synthetic,
    load_corpus,
    load_embeddings,
    parse_edus_text,
    parse_manifest,
    parse_tree_text,
    random_tree,
    save_corpus,
    serialize_edus,
    serialize_tree,
    split_train_dev,
)


VOCAB = RelationVocab(["Cause", "Elaboration", "Joint"])


class TestVocab:
    def test_unknown_token_maps_to_index_zero(self):
        v = Vocab(["cat", "dog"])
        assert v.lookup("cat") == 1
        assert v.lookup("zebra") == 0
        assert len(v) == 3

    def test_reserved_and_duplicate_tokens(self):
        with pytest.raises(ValueError):
            Vocab(["<unk>"])
        with pytest.raises(ValueError):
            Vocab(["a", "a"])

    def test_from_documents_is_sorted(self):
        corpus = generate_synthetic(3, 5, VOCAB, seed=0)
        v = Vocab.from_documents(corpus.documents, "tokens")
        assert list(v.tokens[1:]) == sorted(v.tokens[1:])


class TestEduFiles:
    def test_round_trip(self):
        text = "the_DT cat_NN\nsat_VBD\n"
        edus = parse_edus_text(text)
        assert len(edus) == 2
        assert edus[0].tokens == ("the", "cat")
        assert edus[0].pos_tags == ("DT", "NN")
        assert edus[1].index == 2
        assert serialize_edus(edus) == text

    def test_escaped_underscores_round_trip(self):
        edus = parse_edus_text(r"few\_shot_JJ back\\slash_NN" + "\n")
        assert edus[0].tokens == ("few_shot", "back\\slash")
        assert edus[0].pos_tags == ("JJ", "NN")
        again = parse_edus_text(serialize_edus(edus))
        assert again == edus

    def test_missing_separator_reports_position(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_edus_text("ok_NN bad\n")
        assert err.value.line == 1
        assert err.value.column == 7

    def test_empty_file_rejected(self):
        with pytest.raises(TreeSyntaxError):
            parse_edus_text("\n\n")

    @pytest.mark.parametrize("text, line, column", [
        ("the_DT cat_NN\r\nsat_VBD\r\n", 1, 14),    # CRLF line ends
        ("a_B\nc_D\te_F\n", 2, 4),
        ("a_B c\u00a0_D\n", 1, 6),
        ("a_B\n\u2028\n", 2, 1),
    ])
    def test_other_whitespace_reports_position(self, text, line, column):
        with pytest.raises(TreeSyntaxError, match="whitespace") as err:
            parse_edus_text(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_crlf_file_is_read_as_it_is(self, tmp_path):
        path = tmp_path / "d.edus"
        path.write_bytes(b"the_DT cat_NN\r\nsat_VBD\r\n")
        with pytest.raises(TreeSyntaxError, match=r"'\\r'") as err:
            data.load_edus(str(path))
        assert str(err.value).startswith(f"{path}: line 1, column 14: ")


class TestTreeFiles:
    def test_parse_known_tree(self):
        text = "(NS Cause (LEAF 1) (NN Joint (LEAF 2) (LEAF 3)))\n"
        tree = parse_tree_text(text, VOCAB)
        assert tree.n == 3
        assert tree.splits == {(0, 3): 1, (1, 3): 2}
        assert tree.label_at(0, 3) == (VOCAB.index("Cause"), Nuclearity.NS)
        assert tree.label_at(1, 3) == (VOCAB.index("Joint"), Nuclearity.NN)

    def test_serialize_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            tree = random_tree(n, VOCAB, rng)
            text = serialize_tree(tree, VOCAB)
            again = parse_tree_text(text, VOCAB, n_edus=n)
            assert again == tree
            assert again.labels == tree.labels

    @pytest.mark.parametrize("right", [True, False])
    def test_deep_chain_round_trip(self, right):
        tree = chain_tree(5000, right)
        assert validate_tree(tree) is None
        again = parse_tree_text(serialize_tree(tree, VOCAB), VOCAB, n_edus=5000)
        assert again == tree
        assert again.labels == tree.labels

    def test_syntax_error_positions(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree_text("(NS Cause (LEAF 1)", VOCAB)
        assert err.value.line == 1
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree_text("(XX Cause (LEAF 1) (LEAF 2))", VOCAB)
        assert err.value.column == 2
        with pytest.raises(TreeSyntaxError):
            parse_tree_text("(NS Cause (LEAF 1) (LEAF 2)) junk", VOCAB)
        with pytest.raises(TreeSyntaxError):
            parse_tree_text("", VOCAB)

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            parse_tree_text("(NS Contrast (LEAF 1) (LEAF 2))", VOCAB)

    def test_edu_count_mismatch(self):
        with pytest.raises(EduCountMismatchError):
            parse_tree_text("(NS Cause (LEAF 1) (LEAF 2))", VOCAB, n_edus=3)

    def test_non_adjacent_children(self):
        text = "(NS Cause (LEAF 1) (NN Joint (LEAF 3) (LEAF 4)))"
        with pytest.raises(TreeInvariantError):
            parse_tree_text(text, VOCAB)

    def test_serialize_rejects_leaf_labels_on_internal(self):
        bad = make_tree(2, {(0, 2): 1}, labels={(0, 2): (0, Nuclearity.NN)})
        with pytest.raises(ValueError):
            serialize_tree(bad, VOCAB)

    def test_decoded_leaf_labels_serialize_anyway(self):
        # decoders may label leaves arbitrarily; serialization normalizes
        tree = make_tree(2, {(0, 2): 1},
                         labels={(0, 1): (2, Nuclearity.NN),
                                 (1, 2): (1, Nuclearity.SN)})
        text = serialize_tree(tree, VOCAB)
        assert "(LEAF 1)" in text and "(LEAF 2)" in text


def outcome(parse, *args):
    """What ``parse`` returns, or its error's type, message, line and
    column (None where the error has none)."""
    try:
        result = parse(*args)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    if isinstance(result, tuple):
        return result
    return result, result.labels


# Separators and escapes, and whitespace that only str.isspace knows.
FUZZ_CHARS = ("a", "B", "7", "_", "\\", "(", ")", " ", "\n", "\t", "\x1c",
              "\u00a0", "\u2028")


class TestParsersEqualTheReferences:
    """The one-pass token scanner and the regex tree lexer against the
    two-pass split and per-character lexer in conftest: equal results, and
    equal error types, messages, lines and columns."""

    def test_split_token_fuzz(self):
        rng = random.Random(18)
        for _ in range(20000):
            item = "".join(rng.choices(FUZZ_CHARS, k=rng.randint(0, 9)))
            if rng.random() < 0.25:
                item += "\\"                   # a lone trailing backslash
            line, column = rng.randint(1, 9), rng.randint(1, 99)
            assert (outcome(data._split_token, item, line, column)
                    == outcome(ref_split_token, item, line, column)), item

    def test_parse_tree_text_fuzz(self):
        rng = random.Random(19)
        np_rng = np.random.default_rng(19)
        for _ in range(2500):
            n = rng.randint(1, 6)
            text = serialize_tree(random_tree(n, VOCAB, np_rng), VOCAB)
            # Respell the separators, then edit four texts in five.
            text = "".join(rng.choice((" ", "\n ", "\t", "\x1c", "\u00a0",
                                       "\u2028", "  "))
                           if c == " " and rng.random() < 0.3 else c
                           for c in text)
            if rng.random() < 0.8:
                text = edit(text, rng)
            for n_edus in (None, n, n + 1):
                assert (outcome(parse_tree_text, text, VOCAB, n_edus)
                        == outcome(ref_parse_tree_text, text, VOCAB, n_edus)
                        ), (text, n_edus)

    def test_serialize_edus_fuzz(self):
        """serialize_edus accepts what the per-character check accepted,
        with the same text, and rejects the rest with the same message:
        EDUs over FUZZ_CHARS' other characters, a field empty or given one
        of FUZZ_CHARS now and then."""
        rng = random.Random(22)
        word = [c for c in FUZZ_CHARS if not c.isspace()]
        seen = {"accepted": 0, "rejected": 0}

        def field():
            text = "".join(rng.choices(word, k=rng.randint(1, 3)))
            if rng.random() < 0.05:
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(FUZZ_CHARS) + text[at:]
            return "" if rng.random() < 0.02 else text

        def result(edus):
            try:
                return serialize_edus(edus)
            except ValueError as exc:
                return str(exc)

        for _ in range(5000):
            edus = []
            for index in range(1, rng.randint(1, 3) + 1):
                k = rng.randint(1, 4)
                edus.append(Edu(tuple(field() for _ in range(k)),
                                tuple(field() for _ in range(k)), index))
            try:
                want = ref_serialize_edus(edus)
                seen["accepted"] += 1
            except ValueError as exc:
                want = str(exc)
                seen["rejected"] += 1
            assert result(edus) == want, edus
        assert min(seen.values()) > 1000, seen

    def test_accepted_text_round_trips(self):
        """Every text parse_edus_text accepts re-parses from serialize_edus
        to the same EDUs: serialized EDUs over FUZZ_CHARS and a CR, with
        up to three of those characters inserted."""
        rng = random.Random(21)
        chars = FUZZ_CHARS + ("\r",)
        word = [c for c in chars if not c.isspace()]
        accepted = 0
        for _ in range(3000):
            edus = []
            for index in range(1, rng.randint(1, 3) + 1):
                k = rng.randint(1, 4)
                fields = ["".join(rng.choices(word, k=rng.randint(1, 4)))
                          for _ in range(2 * k)]
                edus.append(Edu(tuple(fields[:k]), tuple(fields[k:]), index))
            text = serialize_edus(edus)
            for _ in range(rng.randint(0, 3)):
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(chars) + text[at:]
            try:
                edus = parse_edus_text(text)
            except TreeSyntaxError:
                continue
            accepted += 1
            assert parse_edus_text(serialize_edus(edus)) == edus, text
        assert accepted > 1000, accepted

    def test_escaped_tokens_round_trip(self):
        rng = random.Random(20)

        def field():
            return "".join(rng.choices("a_\\", k=rng.randint(1, 6)))

        for _ in range(500):
            edus = []
            for index in range(1, rng.randint(1, 4) + 1):
                k = rng.randint(1, 5)
                edus.append(Edu(tuple(field() for _ in range(k)),
                                tuple(field() for _ in range(k)), index))
            assert parse_edus_text(serialize_edus(edus)) == tuple(edus)


class TestManifest:
    def test_comments_and_blanks(self):
        vocab = parse_manifest("# relations\nCause\n\nJoint\n")
        assert vocab.names == ("LEAF", "Cause", "Joint")

    def test_leaf_listed_is_an_error(self):
        with pytest.raises(UnknownRelationError):
            parse_manifest("Cause\nLEAF\n")

    def test_duplicates_rejected(self):
        with pytest.raises(UnknownRelationError):
            parse_manifest("Cause\nCause\n")


class TestCorpusIO:
    def test_save_load_round_trip(self, tmp_path):
        corpus = generate_synthetic(5, 6, VOCAB, seed=7)
        save_corpus(corpus, str(tmp_path / "c"))
        again = load_corpus(str(tmp_path / "c"))
        assert len(again) == 5
        assert again.rel_vocab == corpus.rel_vocab
        assert again.word_vocab == corpus.word_vocab
        for a, b in zip(again.documents, corpus.documents):
            assert a.doc_id == b.doc_id
            assert a.edus == b.edus
            assert a.gold == b.gold

    def test_error_messages_name_the_document(self, tmp_path):
        corpus = generate_synthetic(1, 4, VOCAB, seed=1)
        save_corpus(corpus, str(tmp_path / "c"))
        doc_id = corpus.documents[0].doc_id
        bad = tmp_path / "c" / (doc_id + ".tree")
        bad.write_text("(NS Nope (LEAF 1) (LEAF 2))\n")
        with pytest.raises(UnknownRelationError, match=doc_id):
            load_corpus(str(tmp_path / "c"))
        # a syntax error keeps its type and position
        bad.write_text("\n(NS Elaboration (LEAF 1)\n")
        with pytest.raises(TreeSyntaxError,
                           match=f"^{re.escape(str(bad))}: line 2, ") as err:
            load_corpus(str(tmp_path / "c"))
        assert err.value.line == 2

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest"):
            load_corpus(str(tmp_path))

    def test_missing_tree_policy(self, tmp_path):
        corpus = generate_synthetic(2, 4, VOCAB, seed=2)
        save_corpus(corpus, str(tmp_path / "c"))
        victim = corpus.documents[0].doc_id
        (tmp_path / "c" / (victim + ".tree")).unlink()
        with pytest.raises(CorpusError, match=f"missing tree file for {victim}"):
            load_corpus(str(tmp_path / "c"))


class TestSplit:
    def test_deterministic_disjoint_exhaustive(self):
        corpus = generate_synthetic(8, 5, VOCAB, seed=3)
        t1, d1 = split_train_dev(corpus, 3, seed=5)
        t2, d2 = split_train_dev(corpus, 3, seed=5)
        assert [d.doc_id for d in t1] == [d.doc_id for d in t2]
        assert [d.doc_id for d in d1] == [d.doc_id for d in d2]
        ids_t = {d.doc_id for d in t1}
        ids_d = {d.doc_id for d in d1}
        assert not ids_t & ids_d
        assert len(ids_t) + len(ids_d) == 8
        assert len(ids_d) == 3

    def test_different_seed_differs(self):
        corpus = generate_synthetic(10, 5, VOCAB, seed=3)
        picks = {tuple(sorted(d.doc_id for d in split_train_dev(corpus, 3, s)[1]))
                 for s in range(8)}
        assert len(picks) > 1

    def test_range_check(self):
        corpus = generate_synthetic(4, 5, VOCAB, seed=3)
        with pytest.raises(ValueError):
            split_train_dev(corpus, 4, seed=0)
        with pytest.raises(ValueError):
            split_train_dev(corpus, -1, seed=0)


class TestEmbeddings:
    def test_coverage_and_alignment(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\nibex 5.0 6.0\n")
        vocab = Vocab(["ant", "cat", "dog"])
        pre = load_embeddings(str(path), vocab)
        assert pre.dim == 2
        assert pre.found == 2
        assert pre.coverage == pytest.approx(0.5)
        np.testing.assert_array_equal(pre.table[vocab.lookup("cat")], [1.0, 2.0])
        np.testing.assert_array_equal(pre.table[vocab.lookup("ant")], [0.0, 0.0])
        np.testing.assert_array_equal(pre.table[0], [0.0, 0.0])

    def test_malformed_lines(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_embeddings(str(path), Vocab(["cat"]))
        path.write_text("cat one two\n")
        with pytest.raises(CorpusError, match="unparseable"):
            load_embeddings(str(path), Vocab(["cat"]))
        path.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            load_embeddings(str(path), Vocab(["cat"]))


    def test_word2vec_header_is_skipped(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\ncat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n")
        vocab = Vocab(["cat", "dog"])
        pre = load_embeddings(str(path), vocab)
        assert pre.dim == 3
        assert pre.found == 2
        np.testing.assert_array_equal(pre.table[vocab.lookup("dog")],
                                      [4.0, 5.0, 6.0])
        # the header's dim binds the vectors that follow
        path.write_text("1 3\ncat 1.0 2.0\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_embeddings(str(path), vocab)
        path.write_text("0 3\n")
        with pytest.raises(CorpusError, match="empty"):
            load_embeddings(str(path), vocab)


class TestSynthetic:
    def test_documents_are_valid(self):
        corpus = generate_synthetic(10, 8, VOCAB, seed=9)
        assert len(corpus) == 10
        for doc in corpus.documents:
            assert doc.gold is not None
            assert validate_tree(doc.gold) is None
            assert doc.gold.n == doc.n

    def test_same_seed_same_corpus(self):
        a = generate_synthetic(4, 6, VOCAB, seed=12)
        b = generate_synthetic(4, 6, VOCAB, seed=12)
        for da, db in zip(a.documents, b.documents):
            assert da.edus == db.edus
            assert da.gold == db.gold

    def test_random_tree_needs_relations(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_tree(3, RelationVocab([]), rng)
        # a single leaf needs no relation inventory
        t = random_tree(1, RelationVocab([]), rng)
        assert t.n == 1

    def test_random_tree_split_spread(self):
        rng = np.random.default_rng(4)
        seen = {random_tree(3, VOCAB, rng).splits[(0, 3)] for _ in range(40)}
        assert seen == {1, 2}

    def test_random_tree_draws_as_the_recursive_reference(self, monkeypatch):
        """Same draws in the same order: equal corpora over 200 seeds."""
        import rstparse.data as data

        for seed in range(200):
            got = generate_synthetic(4, 30, VOCAB, seed=seed)
            monkeypatch.setattr(data, "random_tree", ref_random_tree)
            want = generate_synthetic(4, 30, VOCAB, seed=seed)
            monkeypatch.undo()
            assert got.documents == want.documents
            for a, b in zip(got.documents, want.documents):
                assert list(a.gold.splits.items()) == \
                    list(b.gold.splits.items())

    def test_random_tree_5000_deep(self):
        """A generator that always returns its low bound splits one EDU off
        the left each time: a right chain 5,000 spans deep, no recursion."""

        class LowBound:
            def integers(self, low, high):
                assert low < high
                return low

        n = 5000
        tree = random_tree(n, VOCAB, LowBound())
        assert validate_tree(tree) is None
        assert tree.splits == {(i, n): i + 1 for i in range(n - 1)}
        assert {tree.label_at(i, n) for i in range(n - 1)} == {
            (1, Nuclearity.NN)}
