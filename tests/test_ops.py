"""Reverse-mode autodiff checks.

Every operator gets a finite-difference comparison on small random inputs;
a few structural cases (shared nodes, diamond graphs, repeated backward)
cover the tape mechanics.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    ref_backward,
    ref_lstm,
    ref_matvec,
    ref_mul,
    ref_narrow,
    ref_pick,
    ref_row,
    ref_row_grad_dense,
    ref_sigmoid,
    ref_take_rows,
    ref_tanh,
)
from rstparse import ops


RNG = np.random.default_rng(7)


def fd_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar fn at numpy point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2 * eps)
        it.iternext()
    return g


def check_unary(build, shape, rtol=1e-6):
    """build(Tensor) -> scalar Tensor; compare backward with central FD."""
    x0 = RNG.standard_normal(shape)
    x = ops.tensor(x0)
    out = build(x)
    ops.backward(out)

    def f(v):
        return build(ops.tensor(v)).item()

    want = fd_grad(f, x0)
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, want, rtol=rtol, atol=1e-8)


class TestForward:
    def test_tensor_and_zeros(self):
        t = ops.tensor([1.0, 2.0])
        assert t.shape == (2,)
        assert t.data.dtype == np.float64
        z = ops.zeros(3)
        assert np.all(z.data == 0.0)

    def test_item_requires_scalar(self):
        with pytest.raises(TypeError):
            ops.tensor([1.0, 2.0]).item()

    def test_matvec_shape_mismatch(self):
        w = ops.tensor(np.ones((2, 3)))
        x = ops.tensor(np.ones(4))
        with pytest.raises(ValueError):
            ref_matvec(w, x)

    def test_narrow_bounds(self):
        a = ops.tensor(np.arange(4.0))
        assert list(ref_narrow(a, 1, 3).data) == [1.0, 2.0]
        with pytest.raises(ValueError):
            ref_narrow(a, 2, 6)

    def test_pick_and_row(self):
        v = ops.tensor([1.0, 5.0, 9.0])
        assert ref_pick(v, 2).item() == 9.0
        m = ops.tensor(np.arange(6.0).reshape(3, 2))
        assert list(ref_row(m, 1).data) == [2.0, 3.0]
        with pytest.raises(IndexError):
            ref_pick(v, 3)
        with pytest.raises(IndexError):
            ref_row(m, 5)


class TestGradients:
    def test_add_addn_shift_scale(self):
        check_unary(lambda x: ops.vsum(ops.add(x, ops.scale(x, 2.0))), (4,))
        check_unary(lambda x: ops.vsum(ops.shift(x, 3.5)), (4,))
        check_unary(
            lambda x: ops.vsum(ops.addn([x, ops.scale(x, -0.5), x])), (3,))

    def test_mul_and_cmul(self):
        y0 = RNG.standard_normal(5)
        check_unary(lambda x: ops.vsum(ref_mul(x, ops.tensor(y0))), (5,))
        mask = RNG.random(5)
        check_unary(lambda x: ops.vsum(ops.cmul(x, mask)), (5,))

    def test_matvec_both_arguments(self):
        w0 = RNG.standard_normal((3, 4))
        x0 = RNG.standard_normal(4)

        # gradient in x
        check_unary(lambda x: ops.vsum(ref_matvec(ops.tensor(w0), x)), (4,))

        # gradient in w
        w = ops.tensor(w0)
        out = ops.vsum(ref_matvec(w, ops.tensor(x0)))
        ops.backward(out)
        want = fd_grad(
            lambda v: ops.vsum(ref_matvec(ops.tensor(v),
                                          ops.tensor(x0))).item(), w0)
        np.testing.assert_allclose(w.grad, want, rtol=1e-6, atol=1e-8)

    def test_concat_and_narrow(self):
        def build(x):
            joined = ops.concat([x, ops.scale(x, 3.0)])
            return ops.vsum(ref_narrow(joined, 1, 5))

        check_unary(build, (3,))

    def test_pick_and_row_gradients(self):
        check_unary(lambda x: ref_mul(ref_pick(x, 1), ref_pick(x, 1)), (3,))
        check_unary(lambda x: ops.add(ops.vsum(ref_row(x, 0)),
                                      ref_pick(ref_row(x, 1), 1)), (2, 3))

    def test_nonlinearities(self):
        for op in (ops.relu, ref_tanh, ref_sigmoid):
            # keep relu away from its kink
            x0 = RNG.standard_normal(6)
            x0[np.abs(x0) < 0.05] = 0.5
            x = ops.tensor(x0)
            out = ops.vsum(op(x))
            ops.backward(out)
            want = fd_grad(lambda v: ops.vsum(op(ops.tensor(v))).item(), x0)
            np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-8)

    def test_lstm_like_composition(self):
        """One gated recurrence step, the shape the encoder actually builds."""
        w0 = RNG.standard_normal((4, 6))
        b0 = RNG.standard_normal(4)
        x0 = RNG.standard_normal(6)

        def run(w0v):
            w = ops.tensor(w0v)
            b = ops.tensor(b0)
            x = ops.tensor(x0)
            z = ops.add(ref_matvec(w, x), b)
            gate = ref_sigmoid(ref_narrow(z, 0, 2))
            cand = ref_tanh(ref_narrow(z, 2, 4))
            return ops.vsum(ref_mul(gate, cand)), w

        out, w = run(w0)
        ops.backward(out)
        want = fd_grad(lambda v: run(v)[0].item(), w0)
        np.testing.assert_allclose(w.grad, want, rtol=1e-6, atol=1e-8)


def lstm_reference(W, b, xs, hidden):
    """One LSTM direction as a per-step composition of tape ops: the
    matvec/concat/narrow/sigmoid/tanh/mul chain that ops.bilstm fuses, with
    the reference copies of the ops the package no longer has."""
    h = ops.zeros(hidden)
    c = ops.zeros(hidden)
    out = []
    for x in xs:
        z = ops.add(ref_matvec(W, ops.concat([x, h])), b)
        gate_in = ref_sigmoid(ref_narrow(z, 0, hidden))
        gate_forget = ref_sigmoid(ref_narrow(z, hidden, 2 * hidden))
        cand = ref_tanh(ref_narrow(z, 2 * hidden, 3 * hidden))
        gate_out = ref_sigmoid(ref_narrow(z, 3 * hidden, 4 * hidden))
        c = ops.add(ref_mul(gate_forget, c), ref_mul(gate_in, cand))
        h = ref_mul(gate_out, ref_tanh(c))
        out.append(h)
    return out


def bilstm_inputs(hidden, d, T, rng=RNG):
    """W_f, b_f, W_b, b_b and X for ops.bilstm."""
    w = (4 * hidden, d + hidden)
    return (rng.standard_normal(w), rng.standard_normal(4 * hidden),
            rng.standard_normal(w), rng.standard_normal(4 * hidden),
            rng.standard_normal((T, d)))


def two_lstms(W_f, b_f, W_b, b_b, X, hidden):
    """What the encoder recorded before ops.bilstm: one reference LSTM node
    per direction and a column concat of their states."""
    return ops.concat([ref_lstm(W_f, b_f, X, hidden),
                       ref_lstm(W_b, b_b, X, hidden, reverse=True)], axis=1)


class TestSequenceOps:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("hidden, d, T", [(3, 4, 5), (32, 20, 30)])
    def test_lstm_forward_equals_per_step_composition(self, reverse, hidden,
                                                      d, T):
        # the forward half of ops.bilstm, or with reverse the backward half,
        # against the per-step composition over the rows in its order
        arrays = bilstm_inputs(hidden, d, T)
        W0, b0 = arrays[2:4] if reverse else arrays[:2]
        rows = [ops.tensor(x) for x in arrays[4]]
        want = lstm_reference(ops.tensor(W0), ops.tensor(b0),
                              rows[::-1] if reverse else rows, hidden)
        want = np.stack([h.data for h in (want[::-1] if reverse else want)])
        got = ops.bilstm(*(ops.tensor(a) for a in arrays), hidden).data
        np.testing.assert_array_equal(
            got[:, hidden:] if reverse else got[:, :hidden], want)

    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("hidden", [1, 3, 5, 64])
    def test_bilstm_equals_two_lstms_bit_for_bit(self, hidden, zero):
        # states and all five gradients, byte for byte; with zero, every
        # weight and bias is +0.0 or -0.0
        rng = np.random.default_rng(hidden + 100 * zero)
        for d in (0, 1, 13, 96):
            for T in (1, 2, 40, 600):
                arrays = bilstm_inputs(hidden, d, T, rng)
                if zero:
                    arrays = [np.where(rng.random(a.shape) < 0.5, -0.0, 0.0)
                              for a in arrays[:4]] + [arrays[4]]
                upstream = rng.standard_normal((T, 2 * hidden))
                got = []
                for op in (ops.bilstm, two_lstms):
                    leaves = [ops.tensor(a) for a in arrays]
                    out = op(*leaves, hidden)
                    ops.backward(ops.vsum(ops.cmul(out, upstream)))
                    got.append([out.data] + [leaf.grad for leaf in leaves])
                for a, b in zip(*got):
                    assert a.tobytes() == b.tobytes(), (d, T)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_gradients_match_finite_differences(self, reverse):
        # one direction of ops.bilstm: upstream only on its half of the
        # states, so the other direction's weights get no gradient
        hidden, T = 3, 5
        arrays = bilstm_inputs(hidden, 4, T)
        upstream = np.zeros((T, 2 * hidden))
        half = slice(hidden, None) if reverse else slice(None, hidden)
        upstream[:, half] = RNG.standard_normal((T, hidden))

        def loss(*leaves):
            out = ops.bilstm(*leaves, hidden)
            return ops.vsum(ops.cmul(out, upstream))

        leaves = [ops.tensor(a) for a in arrays]
        ops.backward(loss(*leaves))
        own, other = ((2, 3), (0, 1)) if reverse else ((0, 1), (2, 3))
        for slot in other:
            assert not np.any(leaves[slot].grad)
        for slot in own + (4,):
            def f(v, slot=slot):
                args = [ops.tensor(a) for a in arrays]
                args[slot] = ops.tensor(v)
                return loss(*args).item()

            np.testing.assert_allclose(leaves[slot].grad,
                                       fd_grad(f, arrays[slot]), rtol=1e-6,
                                       atol=1e-8)

    def test_bilstm_gradients_match_finite_differences(self):
        hidden, T = 3, 5
        arrays = bilstm_inputs(hidden, 4, T)
        upstream = RNG.standard_normal((T, 2 * hidden))   # on every output

        def loss(*leaves):
            out = ops.bilstm(*leaves, hidden)
            return ops.vsum(ops.cmul(out, upstream))

        leaves = [ops.tensor(a) for a in arrays]
        ops.backward(loss(*leaves))
        for slot, (leaf, a0) in enumerate(zip(leaves, arrays)):
            def f(v, slot=slot):
                args = [ops.tensor(a) for a in arrays]
                args[slot] = ops.tensor(v)
                return loss(*args).item()

            np.testing.assert_allclose(leaf.grad, fd_grad(f, a0), rtol=1e-6,
                                       atol=1e-8)

    @pytest.mark.parametrize("T", [5, 82, 600])
    def test_bilstm_holds_no_more_than_two_lstms_and_a_concat(self, T):
        # at the benchmark's widths (H = 64, d = 96): what the node keeps
        # after its forward pass, and the peak over forward and backward
        hidden = 64
        arrays = bilstm_inputs(hidden, 96, T)
        upstream = RNG.standard_normal((T, 2 * hidden))
        use = {}
        for op in (ops.bilstm, two_lstms):
            leaves = [ops.tensor(a) for a in arrays]
            tracemalloc.start()
            try:
                out = op(*leaves, hidden)
                held = tracemalloc.get_traced_memory()[0]
                ops.backward(ops.vsum(ops.cmul(out, upstream)))
                use[op] = held, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (held, peak), (ref_held, ref_peak) = use[ops.bilstm], use[two_lstms]
        assert held <= ref_held
        assert peak <= ref_peak

    def test_lstm_shape_mismatch(self):
        arrays = bilstm_inputs(3, 4, 5)
        with pytest.raises(ValueError, match="lstm shapes"):
            ops.bilstm(*(ops.tensor(a) for a in arrays[:4]),
                       ops.tensor(arrays[4][:, :3]), 3)
        with pytest.raises(ValueError, match="lstm shapes"):
            ops.bilstm(*(ops.tensor(a) for a in arrays[:3]),
                       ops.tensor(arrays[3][:-1]), ops.tensor(arrays[4]), 3)

    def test_take_rows_accumulates_repeated_indices(self):
        a = ops.tensor(np.arange(8.0).reshape(4, 2))
        out = ops.take_rows(a, [2, 0, 2, 2])
        np.testing.assert_array_equal(out.data, [[4, 5], [0, 1], [4, 5], [4, 5]])
        g = RNG.standard_normal((4, 2))
        ops.backward(ops.vsum(ops.cmul(out, g)))
        want = np.zeros((4, 2))
        want[2] = g[0] + g[2] + g[3]
        want[0] = g[1]
        np.testing.assert_allclose(a.grad.dense(), want, rtol=1e-15)

    def test_take_rows_with_row_pairs_concatenates_them(self):
        index = np.array([[1, 0], [2, 2]])
        a0 = RNG.standard_normal((3, 2))
        out = ops.take_rows(ops.tensor(a0), index)
        np.testing.assert_array_equal(out.data, np.hstack([a0[index[:, 0]],
                                                           a0[index[:, 1]]]))
        mask = RNG.standard_normal((2, 4))

        def build(x):
            return ops.vsum(ops.cmul(ops.take_rows(x, index), mask))

        x0 = RNG.standard_normal((3, 2))
        x = ops.tensor(x0)
        ops.backward(build(x))
        want = fd_grad(lambda v: build(ops.tensor(v)).item(), x0)
        np.testing.assert_allclose(x.grad.dense(), want, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("shape", [(40,), (25, 3)])
    def test_take_rows_row_grad_has_the_dense_bits(self, shape):
        rng = np.random.default_rng(len(shape))
        table = rng.standard_normal((9, 4))
        index = rng.integers(0, 8, size=shape)     # row 8 never gathered
        upstream = rng.standard_normal((shape[0], 4 * int(np.prod(shape[1:]))))
        grads = []
        for take in (ops.take_rows, ref_take_rows):
            a = ops.tensor(table)
            ops.backward(ops.vsum(ops.cmul(take(a, index), upstream)))
            grads.append(a.grad)
        rows, want = grads
        assert isinstance(rows, ops.RowGrad)
        assert rows.dense().tobytes() == want.tobytes()
        np.testing.assert_array_equal(rows.rows(), np.unique(index))
        assert rows.sums().tobytes() == want[rows.rows()].tobytes()

    @pytest.mark.parametrize("shape", [(60,), (30, 4)])
    def test_row_grad_dense_has_the_add_at_bytes(self, shape):
        # rows gathered up to a dozen times, -0.0 upstream values (a row
        # reached only by -0.0 sums to +0.0), one row never gathered
        rng = np.random.default_rng(sum(shape))
        index = rng.integers(0, 7, size=shape)
        index.flat[0] = 7                 # gathered once, with -0.0 only
        table = ops.tensor(rng.standard_normal((9, 3)))
        out = ops.take_rows(table, index)
        upstream = rng.standard_normal(out.shape)
        upstream[rng.random(out.shape) < 0.3] = -0.0
        upstream[0, :3] = -0.0
        ops.backward(ops.vsum(ops.cmul(out, upstream)))
        g = table.grad
        want = ref_row_grad_dense(g)
        assert g.dense().tobytes() == want.tobytes()
        assert not np.signbit(want[7:]).any()
        assert g.sums().tobytes() == want[g.rows()].tobytes()

    def test_row_grad_turns_dense_past_a_leaf(self):
        # through an op node, and meeting a second contribution
        a0 = np.random.default_rng(3).standard_normal((4, 2))
        for build in (lambda x: ops.take_rows(ops.scale(x, 2.0), [3, 1]),
                      lambda x: ops.concat([ops.take_rows(x, [3, 1]), x])):
            x = ops.tensor(a0)
            ops.backward(ops.vsum(build(x)))
            assert isinstance(x.grad, np.ndarray)
            want = fd_grad(lambda v: ops.vsum(build(ops.tensor(v))).item(), a0)
            np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-8)

    def test_concat_along_columns(self):
        mask = RNG.standard_normal((3, 6))

        def build(x):
            parts = [x, ops.scale(x, 2.0), ops.take_rows(x, [0, 0, 1])]
            return ops.vsum(ops.cmul(ops.concat(parts, axis=1), mask))

        check_unary(build, (3, 2))


class TestBatchOps:
    def test_linear_forward_and_shapes(self):
        X0, W0, b0 = (RNG.standard_normal(s) for s in ((5, 4), (3, 4), (3,)))
        out = ops.linear(ops.tensor(X0), ops.tensor(W0), ops.tensor(b0))
        np.testing.assert_allclose(out.data, X0 @ W0.T + b0, rtol=1e-15)
        with pytest.raises(ValueError, match="linear shapes"):
            ops.linear(ops.tensor(X0), ops.tensor(W0.T), ops.tensor(b0))
        with pytest.raises(ValueError, match="linear shapes"):
            ops.linear(ops.tensor(X0), ops.tensor(W0), ops.tensor(b0[:2]))

    def test_linear_gradients_in_every_argument(self):
        args = [RNG.standard_normal(s) for s in ((5, 4), (3, 4), (3,))]
        upstream = RNG.standard_normal((5, 3))
        for pos in range(3):
            def build(x, pos=pos):
                parts = [ops.tensor(a) for a in args]
                parts[pos] = x
                return ops.vsum(ops.cmul(ops.linear(*parts), upstream))

            x = ops.tensor(args[pos])
            ops.backward(build(x))
            want = fd_grad(lambda v: build(ops.tensor(v)).item(), args[pos])
            np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-8)

    @staticmethod
    def hinge_inputs():
        S0 = 2.0 * RNG.standard_normal((4, 6))
        gold = np.array([0, 3, 5, 2])
        legal = np.ones((4, 6), dtype=bool)
        legal[:, 1] = False
        legal[2, 3:5] = False
        legal[3, 0] = False
        # keep every margin away from relu's kink
        for r, g in enumerate(gold):
            margin = S0[r] - S0[r, g] + 1.0
            S0[r, np.abs(margin) < 0.05] += 0.1
        return S0, gold, legal

    def test_margin_hinge_value(self):
        S0, gold, legal = self.hinge_inputs()
        want = sum(max(0.0, (S0[r, a] - S0[r, gold[r]]) + 1.0)
                   for r in range(4) for a in range(6) if legal[r, a])
        got = ops.margin_hinge(ops.tensor(S0), gold, legal).item()
        assert got == pytest.approx(want, rel=1e-14)

    def test_margin_hinge_gradient_drops_illegal_columns(self):
        S0, gold, legal = self.hinge_inputs()
        S = ops.tensor(S0)
        ops.backward(ops.margin_hinge(S, gold, legal))
        want = fd_grad(lambda v: ops.margin_hinge(ops.tensor(v), gold,
                                                  legal).item(), S0)
        np.testing.assert_allclose(S.grad, want, rtol=1e-6, atol=1e-8)
        illegal = ~legal
        illegal[np.arange(4), gold] = False
        assert not S.grad[illegal].any()

    def test_margin_hinge_gradient_is_zero_at_the_kink(self):
        """A term at exactly 0 passes no gradient, as relu's does."""
        S = ops.tensor([[0.0, -1.0, 0.5]])
        legal = np.array([[True, True, False]])
        out = ops.margin_hinge(S, [0], legal)
        assert out.item() == 1.0       # the gold term's own margin
        ops.backward(out)
        np.testing.assert_array_equal(S.grad, 0.0)
        with pytest.raises(ValueError, match="hinge shapes"):
            ops.margin_hinge(S, [0], legal[:, :2])


class TestNoTape:
    @pytest.mark.parametrize("hidden", [1, 2, 3, 5, 16, 64])
    def test_bilstm_states_equal_the_taped_ones(self, hidden):
        # T brackets ops._BILSTM_CHUNK, the steps laid out at a time
        assert ops._BILSTM_CHUNK == 64
        rng = np.random.default_rng(hidden)
        for d in (0, 1, 13, 96):
            for T in (1, 63, 64, 65, 129):
                leaves = [ops.tensor(a)
                          for a in bilstm_inputs(hidden, d, T, rng)]
                taped = ops.bilstm(*leaves, hidden)
                with ops.no_tape():
                    free = ops.bilstm(*leaves, hidden)
                assert free.data.tobytes() == taped.data.tobytes(), (d, T)
                assert taped._parents and taped._vjp is not None

    def test_bilstm_inside_holds_its_states_and_one_chunk(self):
        # at the benchmark's widths: the (T, 2H) states, the chunk of
        # [x; h] inputs and no more than 64 KiB besides
        hidden, d, T = 64, 96, 600
        leaves = [ops.tensor(a) for a in bilstm_inputs(hidden, d, T)]
        tracemalloc.start()
        try:
            with ops.no_tape():
                ops.bilstm(*leaves, hidden)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = 8 * (ops._BILSTM_CHUNK + 1) * (d + hidden) * 2
        assert peak <= 8 * T * 2 * hidden + chunk + 64 * 1024, peak

    def test_bilstm_taped_holds_its_activations_and_one_chunk(self):
        # at the benchmark's widths: the 12 T H floats its VJP reads (gates,
        # cells, states), the chunk of [x; h] inputs and no more than 64 KiB
        # besides, so no step's row views outlive their chunk
        hidden, d, T = 64, 96, 600
        leaves = [ops.tensor(a) for a in bilstm_inputs(hidden, d, T)]
        tracemalloc.start()
        try:
            ops.bilstm(*leaves, hidden)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = 8 * (ops._BILSTM_CHUNK + 1) * (d + hidden) * 2
        assert peak <= 8 * 12 * T * hidden + chunk + 64 * 1024, peak

    def test_nodes_made_inside_hold_no_parents(self):
        W_f, b_f, W_b, b_b, X = (ops.tensor(a)
                                 for a in bilstm_inputs(3, 4, 5))
        with ops.no_tape():
            nodes = [ops.bilstm(W_f, b_f, W_b, b_b, X, 3),
                     ops.take_rows(X, [[0, 1], [4, 4]]),
                     ops.concat([X, X], axis=1), ops.add(X, X),
                     ops.addn([X, X]), ops.shift(X, 1.0), ops.scale(X, 2.0),
                     ops.cmul(X, X.data), ops.relu(X), ops.vsum(X),
                     ops.linear(X, ops.tensor(np.ones((2, 4))),
                                ops.tensor(np.ones(2))),
                     ops.margin_hinge(X, [0] * 5, np.ones((5, 4), bool))]
        for node in nodes:
            assert node._parents == () and node._vjp is None, node

    def test_recording_comes_back_after_an_exception_and_nesting(self):
        x = ops.tensor([1.0, 2.0])
        with pytest.raises(ZeroDivisionError):
            with ops.no_tape():
                1 / 0
        assert ops.scale(x, 2.0)._parents == (x,)
        with ops.no_tape():
            with ops.no_tape():
                pass
            assert ops.scale(x, 2.0)._parents == ()
        assert ops.scale(x, 2.0)._parents == (x,)

    def test_backward_refuses_to_run_inside(self):
        x = ops.tensor(2.0)
        out = ops.scale(x, 3.0)
        with ops.no_tape():
            with pytest.raises(RuntimeError, match="no_tape"):
                ops.backward(out)
        assert x.grad is None
        ops.backward(out)
        assert x.grad == 3.0


class TestTapeMechanics:
    def test_shared_node_accumulates(self):
        x = ops.tensor(3.0)
        y = ref_mul(x, x)  # d/dx = 2x via two paths into mul
        ops.backward(y)
        assert x.grad == pytest.approx(6.0)

    def test_diamond_graph(self):
        x = ops.tensor([1.0, 2.0])
        a = ops.scale(x, 2.0)
        b = ops.shift(x, 1.0)
        out = ops.vsum(ops.add(a, b))  # grad = 2 + 1 per entry
        ops.backward(out)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = ops.tensor(2.0)
        ops.backward(ops.scale(x, 3.0))
        ops.backward(ops.scale(x, 3.0))
        assert x.grad == pytest.approx(6.0)

    def test_backward_rejects_non_scalar(self):
        x = ops.tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            ops.backward(x)

    def test_deep_chain_no_recursion_limit(self):
        x = ops.tensor(0.5)
        y = x
        for _ in range(5000):
            y = ops.shift(y, 0.0)
        ops.backward(y)
        assert x.grad == pytest.approx(1.0)

    def test_leaf_grad_not_aliased_to_upstream(self):
        # the first gradient written into a leaf must be a private copy
        x = ops.tensor([1.0, 2.0])
        out = ops.vsum(x)
        ops.backward(out)
        g = x.grad.copy()
        ops.backward(ops.vsum(ops.scale(x, 2.0)))
        np.testing.assert_allclose(x.grad, g + 2.0)

    def test_uncopied_first_gradients_give_the_copying_bits(self):
        """backward keeps a node's first gradient as it is and sums out of
        place; every leaf gets the bits of the copying reference, over two
        calls."""
        rng = np.random.default_rng(11)
        x0, y0, z0, e0 = (rng.standard_normal((3, 2)) for _ in range(4))
        mask = rng.standard_normal((6, 2))

        def graph():
            x, y, z, e = (ops.tensor(v) for v in (x0, y0, z0, e0))
            w = ops.tensor(np.ones(2))
            # add hands one array to a and to b, and each then gets a
            # second gradient
            a, b = ops.scale(x, 2.0), ops.relu(y)
            terms = [ops.vsum(ops.cmul(ops.add(a, b), mask[:3])),
                     ops.vsum(ops.cmul(a, mask[3:])),
                     ops.vsum(ops.scale(b, -1.5))]
            # concat hands its views to the leaf z and to the node c, which
            # then gets a second gradient
            c = ops.scale(z, 0.5)
            terms += [ops.vsum(ops.cmul(ops.concat([z, c]), mask)),
                      ops.vsum(ops.cmul(c, mask[:3])),
                      ops.vsum(ops.take_rows(e, [2, 0, 2])),
                      # -0.0 reaches w, whose gradient is +0.0
                      ops.vsum(ops.scale(w, -0.0))]
            return ops.addn(terms), (x, y, z, e, w)

        bits = []
        for backward in (ops.backward, ref_backward):
            root, leaves = graph()
            backward(root)
            first = [type(t.grad) for t in leaves]
            backward(root)
            bits.append((first, [ops.dense(t.grad).tobytes() for t in leaves]))
        assert bits[0] == bits[1]
        assert bits[0][0][3] is ops.RowGrad
        assert bits[0][1][4] == np.zeros(2).tobytes()

    def test_first_leaf_gradient_is_one_new_array_with_the_copying_bits(self):
        """A leaf's first dense gradient is stored as g + 0.0, a new array
        of the leaf's shape made in one pass, not zeros then += g: the bits
        of the copying reference, -0.0 made +0.0, for a leaf whose gradient
        is all signed zeros, a 0-d leaf, a leaf reached through two parents,
        a RowGrad leaf and a RowGrad that meets a second contribution, over
        two calls."""
        rng = np.random.default_rng(12)
        zeros = np.where(rng.random((4, 3)) < 0.5, -0.0, 0.0)
        x0, z0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        table = rng.standard_normal((5, 3))

        def graph():
            x, z, s, t1, t2 = (ops.tensor(v) for v in
                               (x0, z0, np.array(1.5), table, table))
            terms = [ops.vsum(ops.cmul(z, zeros)),       # only signed zeros
                     ops.vsum(ops.scale(s, -0.0)),       # a 0-d -0.0
                     ops.vsum(ops.cmul(x, zeros)),       # x, two parents
                     ops.vsum(ops.scale(x, -2.0)),
                     ops.vsum(ops.take_rows(t1, [4, 0, 4])),
                     ops.vsum(ops.cmul(ops.take_rows(t2, [1, 1]), zeros[:2])),
                     ops.vsum(ops.scale(t2, 0.5))]
            return ops.addn(terms), (x, z, s, t1, t2)

        bits = []
        for backward in (ops.backward, ref_backward):
            root, leaves = graph()
            backward(root)
            first = [(type(t.grad), ops.dense(t.grad).tobytes())
                     for t in leaves]
            backward(root)
            bits.append((first, [ops.dense(t.grad).tobytes() for t in leaves]))
        assert bits[0] == bits[1]
        first = bits[0][0]
        assert [kind for kind, _ in first] == [np.ndarray, np.ndarray,
                                               np.ndarray, ops.RowGrad,
                                               np.ndarray]
        assert first[1][1] == np.zeros((4, 3)).tobytes()
        assert first[2][1] == np.zeros(()).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_owned_gradients_give_the_copying_bits(self, seed):
        """backward adds into and stores only the arrays it owns: every
        leaf gets the bits and the kind of the copying reference, over two
        calls on one root, and no two leaves' gradients share memory.  The
        graph has add's one g for both parents, addn's, concat's split
        views, shift's pass-through of a g another node holds, a VJP that
        returns a view of its g, one that returns one new array to two
        parents, a RowGrad meeting a dense gradient, a RowGrad leaf, a leaf
        reached three times, 0-d leaves and a 0-d node whose three terms
        are numpy scalars, and signed zeros."""
        rng = np.random.default_rng(seed)
        zeros = np.where(rng.random((4, 3)) < 0.5, -0.0, 0.0)
        x0, y0, z0 = (rng.standard_normal((4, 3)) for _ in range(3))
        table0, w0 = rng.standard_normal((6, 3)), rng.standard_normal((3, 3))
        b0, mask = rng.standard_normal(3), rng.standard_normal((8, 3))

        def view(t):
            return ops.Tensor(t.data, (t,), lambda g: (g[...],))

        def graph():
            x, y, z, t1, t2, w, b, k1, k2, k3, k4, p, q = (
                ops.tensor(v) for v in (x0, y0, z0, table0, table0, w0, b0)
                + (x0, y0, z0, x0, y0, z0))
            s, u = ops.tensor(np.array(0.7)), ops.tensor(np.array(-0.0))
            h = ops.linear(ops.relu(x), w, b)           # new base arrays
            a = ops.scale(y, 2.0)
            # one new array for both p and q: neither may own it
            both = ops.Tensor(np.array(0.0), (p, q),
                              lambda g: (np.full((4, 3), g) * 0.5,) * 2)
            r = ops.shift(s, 0.5)
            terms = [ops.vsum(ops.cmul(ops.add(h, a), mask[:4])),
                     ops.vsum(ops.cmul(h, mask[4:])),
                     ops.vsum(ops.shift(a, 1.0)),
                     both,
                     ops.vsum(ops.cmul(ops.concat([x, a]), mask)),
                     ops.vsum(ops.scale(x, -1.5)),      # x's third parent
                     ops.vsum(ops.take_rows(t1, [5, 0, 5])),
                     ops.vsum(ops.cmul(ops.take_rows(t2, [1, 1]),
                                       zeros[:2])),
                     ops.vsum(ops.scale(t2, 0.25)),
                     ops.vsum(ops.cmul(z, zeros)),      # only signed zeros
                     ops.vsum(ops.cmul(ops.add(ops.shift(k1, 1.0),
                                               ops.shift(k2, 1.0)),
                                       mask[2:6])),
                     ops.vsum(ops.cmul(ops.add(view(k3), view(k4)),
                                       mask[1:5])),
                     ops.addn([ops.scale(r, 3.0), ops.scale(r, -0.5),
                               ops.scale(r, 2.0)]),
                     ops.scale(u, -0.0),
                     ops.addn([ops.vsum(ops.cmul(h, zeros))] * 2)]
            return ops.addn(terms), (x, y, z, t1, t2, w, b, s, u, k1, k2,
                                     k3, k4, p, q)
        def storage(g):
            return g.values if isinstance(g, ops.RowGrad) else g

        runs = []
        for backward in (ops.backward, ref_backward):
            root, leaves = graph()
            calls = []
            for _ in range(2):
                backward(root)
                stored = [storage(t.grad) for t in leaves]
                for i, one in enumerate(stored):
                    for other in stored[i + 1:]:
                        assert not np.shares_memory(one, other)
                calls.append([(type(t.grad), ops.dense(t.grad).tobytes())
                              for t in leaves])
            runs.append(calls)
        assert runs[0] == runs[1]
        kinds = [kind for kind, _ in runs[0][0]]
        assert kinds[3] is ops.RowGrad and kinds.count(ops.RowGrad) == 1
        assert runs[0][0][2][1] == np.zeros((4, 3)).tobytes()
        assert runs[0][0][8][1] == np.zeros(()).tobytes()
