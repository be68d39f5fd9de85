"""The BLAS and numpy behaviour that the byte-for-byte guarantees rest on.

Several paths promise the bits of a reference: ``ops.bilstm`` those of two
one-direction LSTMs, ``RowFeedforward.one`` those of the batch call, the
stacked projections those of one fresh product per block, the exact
decoder's label rows, streamed by width from factored partial sums, those
of the dense table's row-by-row build, and the second layer
(``RowFeedforward.output``) run in place those of the out-of-place one.
Each promise
holds only because of how numpy and its BLAS pick their kernels.  A BLAS
that behaves otherwise fails the digests and the byte-for-byte grids; the
tests here say which assumption broke, and each message names the code that
relies on it.  Measured with numpy 2.4 on OpenBLAS 0.3.31.

One assumption is Python's own: ``data.parse_tree_text`` splits ``.tree``
text with the regex ``\\s``, and the text it must split as before was
split by ``str.isspace``.
"""

import re
import sys

import numpy as np

from conftest import ref_output_np
from rstparse.chart import NeuralOracle
from rstparse.encoder import (
    NUC,
    REL,
    DropoutMasks,
    RowFeedforward,
    encode_document,
    make_dropout_masks,
)

from test_chart import random_document, random_params

HIDDEN = (1, 2, 3, 5, 16, 64)
INPUT = (0, 1, 13, 96)


def second_layer(params, name, mask=None):
    """``RowFeedforward.output`` of label scorer ``name``, with ``mask`` as
    its hidden dropout mask: the second layer every chart and greedy score
    runs through."""
    M = np.zeros((1, params.edu_dim))
    masks = None if mask is None else DropoutMasks(M, {name: mask})
    return RowFeedforward(params, name, M, 4, masks).output


def test_bilstm_forward_gemv_keeps_bits_on_strided_operands():
    rng = np.random.default_rng(1)
    for H in HIDDEN:
        for d in INPUT:
            W = rng.normal(size=(4 * H, d + H))
            xh = rng.normal(size=(3, d + H, 2))    # bilstm's [x; h] layout
            z = np.empty(8 * H)
            for r in range(2):
                np.matmul(W, xh[1, :, r], out=z[r::2])
                want = W @ np.ascontiguousarray(xh[1, :, r])
                assert z[r::2].tobytes() == want.tobytes(), (
                    f"H={H}, d={d}: a gemv on stride-2 operands changed the "
                    "last bits; ops.bilstm's forward reads its interleaved "
                    "[x; h] and writes z this way, so its states stop "
                    "equalling conftest.ref_lstm's")


def test_bilstm_backward_product_on_contiguous_copies_keeps_bits():
    rng = np.random.default_rng(2)
    T = 3
    for H in HIDDEN:
        for d in INPUT:
            ws = [rng.normal(size=(4 * H, d + H)) for _ in range(2)]
            dZ = rng.normal(size=(T, 8 * H))   # interleaved by direction
            z_dirs = dZ.reshape(T, 4 * H, 2).transpose(0, 2, 1)
            w_h = [np.ascontiguousarray(w[:, d:]) for w in ws]
            dz = np.empty((2, 4 * H))
            dh_dir = np.empty((2, H))
            for s in range(T):
                np.copyto(dz, z_dirs[s])
                for r in range(2):
                    np.matmul(dz[r], w_h[r], out=dh_dir[r])
                    # ref_lstm: its own direction's contiguous dZ rows
                    ref_dZ = np.ascontiguousarray(z_dirs[:, r])
                    want = np.empty(H)
                    np.matmul(ref_dZ[s], np.ascontiguousarray(ws[r][:, d:]),
                              out=want)
                    assert dh_dir[r].tobytes() == want.tobytes(), (
                        f"H={H}, d={d}, step {s}: the product of contiguous "
                        "copies lost the bits of a fresh one; ops.bilstm's "
                        "backward sweep multiplies such copies of dZ_t and of "
                        "each recurrent block, so its gradients stop "
                        "equalling conftest.ref_lstm's")


def test_label_rows_depend_on_the_batch_only_below_the_small_matrix_cutoff():
    """OpenBLAS multiplies products of at most M N K = 76,800 with another
    kernel: 63 rows of the 19-wide relation layer, 300 of the 4-wide
    nuclearity layer, at ff_hidden = 64."""
    rng = np.random.default_rng(3)
    params = random_params(n_rel=19, seed=3, ff_hidden=64)
    Z = rng.normal(size=(2048, 64))
    for name, small in ((REL, 63), (NUC, 300)):
        output = second_layer(params, name)
        # output overwrites its input, so each call gets a copy
        whole = output(Z.copy())
        for size in (1, 2, 40, small):
            got = output(Z[:size].copy())
            assert (got != whole[:size]).any(), (
                f"{name}: {size} rows scored alone kept the bits they have in "
                "a batch of 2,048; chart.NeuralOracle.rows_by_width scores "
                "the dense layout's partial block whole, and "
                "missing_prediction and count_missing "
                "score both trees with score_tree, because below the cut-off "
                "they do not")
        for size, start in ((small + 1, 0), (small + 1, 100), (1024, 7),
                            (1024, 1024)):
            got = output(Z[start:start + size].copy())
            assert got.tobytes() == whole[start:start + size].tobytes(), (
                f"{name}: {size} rows from row {start} lost the bits they "
                "have in a batch of 2,048; chart.NeuralOracle.rows_by_width's "
                "batches of 1,024 are above the cut-off, where a row's bits "
                "should depend on neither its batch nor its place in it")


def test_a_full_block_gives_a_row_its_bits_wherever_it_is_placed():
    """In a batch of 1,024 rows, the dense layout's block size, a row's
    bits do not depend on its place in the batch nor on the other rows:
    at every label-layer shape the tests use, also those whose whole
    batch is below the small-matrix cut-off (16 x 4 and 8 x 4: 65,536 and
    32,768 products)."""
    rng = np.random.default_rng(8)
    for ff_hidden, n_rel in ((64, 19), (16, 4), (8, 40)):
        params = random_params(n_rel=n_rel, seed=ff_hidden,
                               ff_hidden=ff_hidden)
        Z = rng.normal(size=(3000, ff_hidden))
        for name in (REL, NUC):
            output = second_layer(params, name)
            whole = output(Z[:1024].copy())
            for shift in (1, 7, 100, 1000):
                moved = output(np.roll(Z[:1024], shift, axis=0))
                mixed = output(Z[shift:shift + 1024].copy())
                assert (moved.tobytes() == np.roll(whole, shift, axis=0)
                        .tobytes() and mixed[:1024 - shift].tobytes()
                        == whole[shift:].tobytes()), (
                    f"{name} at ff_hidden={ff_hidden}, n_rel={n_rel}: a row "
                    "moved within a batch of 1,024, or scored beside other "
                    "rows, lost its bits; chart.NeuralOracle.rows_by_width "
                    "scores the full blocks' rows in width order, in other "
                    "batches of 1,024 than the dense layout's blocks, so "
                    "its rows stop equalling conftest.ref_dense_tables'")


def test_accumulate_over_the_outer_axis_adds_in_block_order():
    rng = np.random.default_rng(4)
    shapes = [(9, 64)] * 2000 + [(q, f) for q in (2, 4, 9, 16)
                                 for f in (1, 2, 5, 64) for _ in range(50)]
    for q, f in shapes:
        rows = rng.normal(size=(q, f)) * 10.0 ** rng.uniform(-8, 8, (q, f))
        want = rows[:1].copy()
        for b in range(1, q):
            want += rows[b:b + 1]
        got = np.add.accumulate(rows, axis=0)[-1:]
        assert got.tobytes() == want.tobytes(), (
            f"({q}, {f}): np.add.accumulate over the outer axis did not add "
            "the rows one after another; RowFeedforward.one sums a state's "
            "gathered rows this way, so greedy_parse's scores stop "
            "equalling the batch call's")


def test_matmul_into_a_stacked_slice_gives_a_fresh_products_bits():
    rng = np.random.default_rng(5)
    for q, d, f, N in [(q, d, f, N) for q in (2, 4, 9) for d in (1, 7, 256)
                       for f in (1, 5, 64) for N in (1, 2, 81, 601)]:
        M = rng.normal(size=(N, d))
        W1 = rng.normal(size=(f, q * d))
        proj = np.empty((q, N, f))
        for b in range(q):
            W_b = W1[:, b * d:(b + 1) * d].T
            np.matmul(M, W_b, out=proj[b])
            assert proj[b].tobytes() == (M @ W_b).tobytes(), (
                f"q={q}, d={d}, ff={f}, N={N}, block {b}: np.matmul(..., "
                "out=) into a slice of a stacked array changed the bits of "
                "the product; RowFeedforward builds its projections this "
                "way, so every chart and greedy score would change")


def test_second_layer_in_place_keeps_the_out_of_place_bits():
    """Bias, relu and mask applied in the input's own memory give the bits
    of the out-of-place expressions, and the product of the array they
    leave gives those of a fresh one: for whole batches, and for the last
    row of a running sum, which RowFeedforward.one passes."""
    rng = np.random.default_rng(6)
    for H in HIDDEN:
        params = random_params(n_rel=19, seed=H, ff_hidden=H)
        for name in (REL, NUC):
            params.arrays[f"{name}.b1"][:] = rng.normal(size=H)
            mask = (rng.random(H) >= 0.3) / 0.7
            for m in (None, mask):
                output = second_layer(params, name, m)
                for size in (1, 2, 63, 300, 1024):
                    Z = rng.normal(size=(size, H))
                    got = output(Z.copy())
                    want = ref_output_np(params, name, Z, m)
                    assert got.tobytes() == want.tobytes(), (
                        f"H={H}, {name}, {size} rows: the second layer run in "
                        "place lost the bits of the out-of-place one; "
                        "RowFeedforward.output runs it so for every chart "
                        "and greedy score")
                Z = rng.normal(size=(9, H))
                got = output(np.add.accumulate(Z, axis=0)[-1:])
                want = ref_output_np(params, name,
                                     np.add.accumulate(Z, axis=0)[-1:], m)
                assert got.tobytes() == want.tobytes(), (
                    f"H={H}, {name}: the second layer run in place on the "
                    "last row of a running sum lost the bits of the "
                    "out-of-place one; RowFeedforward.one scores a greedy "
                    "state this way")


def test_gathered_rows_are_new_arrays_so_projections_stay_as_they_are():
    """Gathering rows with an index array, or with ``take``, copies them.
    RowFeedforward's ``lead``, ``finish`` and ``one`` and the dense table's
    streamed batches hand ``output`` only such copies, so its in-place bias,
    relu and mask never write into the projections every row reads, nor
    into the callers' index arrays."""
    rng = np.random.default_rng(7)
    params = random_params(n_rel=19, seed=7, ff_hidden=16)
    for name in (REL, NUC):
        params.arrays[f"{name}.b1"][:] = rng.normal(size=16)
    n = 30
    doc = random_document(n, rng)
    masks = make_dropout_masks(params, n, 0.3, rng)
    enc = encode_document(doc, params, masks)
    M = enc.data.copy()
    scorer = RowFeedforward(params, REL, enc.data, 4, masks)
    proj = scorer.proj.copy()
    idx = [rng.integers(0, n, size=50) for _ in range(4)]
    kept = [i.copy() for i in idx]
    Z = scorer.lead(*idx[:3])
    assert not np.shares_memory(Z, scorer.proj)
    scorer.finish(Z, idx[3])
    scorer(*idx)
    scorer.one([int(i[0]) for i in idx])
    Q = scorer.lead(*idx[:3])
    scorer.finish(Q.take(np.arange(10), axis=0), idx[3][:10])
    assert scorer.proj.tobytes() == proj.tobytes(), (
        "scoring rows changed RowFeedforward's projections: a gather "
        "returned a view, and output's in-place bias, relu and mask "
        "wrote into it")
    for a, b in zip(idx, kept):
        assert a.tobytes() == b.tobytes()
    oracle = NeuralOracle(params, enc, masks)
    scorers = (oracle._rel, oracle._nuc)
    projs = [s.proj.copy() for s in scorers]
    for _ in oracle.rows_by_width():
        pass
    oracle.labels(*kept[:3])
    for s, before in zip(scorers, projs):
        assert s.proj.tobytes() == before.tobytes(), (
            "streaming the label rows changed NeuralOracle's projections; "
            "its batches must gather copies of the sums before finish runs")
    assert enc.data.tobytes() == M.tobytes()


def test_regex_whitespace_is_exactly_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    by_regex = set(re.findall(r"\s", every))
    by_isspace = {c for c in every if c.isspace()}
    differ = sorted(f"U+{ord(c):04X}" for c in by_regex ^ by_isspace)
    assert not differ, (
        f"re's \\s and str.isspace disagree on {differ}: data._SEXPR_TOKEN "
        "splits .tree text at \\s, so its tokens stop equalling those of "
        "conftest.ref_tokenize_sexpr, which splits at str.isspace")
