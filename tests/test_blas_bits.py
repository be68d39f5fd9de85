"""The BLAS and numpy behaviour that the byte-for-byte guarantees rest on.

Several paths promise the bits of a reference: ``ops.bilstm`` those of two
one-direction LSTMs, ``RowFeedforward.one`` those of the batch call, the
stacked projections those of one fresh product per block.  Each promise
holds only because of how numpy and its BLAS pick their kernels.  A BLAS
that behaves otherwise fails the digests and the byte-for-byte grids; the
tests here say which assumption broke, and each message names the code that
relies on it.  Measured with numpy 2.4 on OpenBLAS 0.3.31.
"""

import numpy as np

from rstparse.encoder import NUC, REL, Feedforward

from test_chart import random_params

HIDDEN = (1, 2, 3, 5, 16, 64)
INPUT = (0, 1, 13, 96)


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
        ff = Feedforward(params, name)
        whole = ff.output_np(Z)
        for size in (1, 2, 40, small):
            got = ff.output_np(Z[:size])
            assert (got != whole[:size]).any(), (
                f"{name}: {size} rows scored alone kept the bits they have in "
                "a batch of 2,048; chart._dense_tables keeps its 1,024-row "
                "blocks, and missing_prediction and count_missing score both "
                "trees with score_tree, because below the cut-off they do not")
        for size, start in ((small + 1, 0), (small + 1, 100), (1024, 7),
                            (1024, 1024)):
            got = ff.output_np(Z[start:start + size])
            assert got.tobytes() == whole[start:start + size].tobytes(), (
                f"{name}: {size} rows from row {start} lost the bits they "
                "have in a batch of 2,048; chart._dense_tables's full blocks "
                "are above the cut-off, where a row's bits should depend on "
                "neither its batch nor its place in it")


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
