"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the recorded graph once, in reverse topological order, accumulating gradients
into every node it can reach.  Only the operations the parsers run exist:
sums (``add``, ``addn``, ``vsum``), a constant shift and scale, a product
with a constant array (``cmul``), batched affine maps over the rows of a
matrix (``linear``), concatenation, row gathers (``take_rows``), ``relu``,
a masked margin hinge over a matrix of scores (``margin_hinge``), and one
fused sequence op, ``bilstm``, which runs both directions of a
bidirectional LSTM as a single node, advancing them in one loop, with
hand-written backpropagation through time.  A loss over a batch of
decisions is then a fixed number of nodes, however many decisions it has.
Expressions are calls, ``shift(add(a, scale(b, -1.0)), c)`` for
a - b + c: a Tensor has no arithmetic operators.  The gradient a row
gather sends to its table is a ``RowGrad``, the gathered rows with their
upstream gradients, made dense only where something needs the whole
array.  Everything is computed at 64-bit precision.

Inside ``no_tape()`` nothing is recorded: every node is made without
parents or VJP, so it holds only its result, and ``bilstm`` keeps none of
the activations its backward pass would read.  Parsing runs its encoder so.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np


_recording = True      # False inside no_tape()


@contextlib.contextmanager
def no_tape():
    """Make nodes that record no parents and no VJP until the block ends;
    the setting before it comes back on exit, also on an exception."""
    global _recording
    before, _recording = _recording, False
    try:
        yield
    finally:
        _recording = before


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if not _recording:
            _parents, _vjp = (), None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def tensor(data) -> Tensor:
    """A leaf node (parameter or constant)."""
    return Tensor(data)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data + b.data, (a, b), lambda g: (g, g))


def addn(terms: list[Tensor]) -> Tensor:
    """Sum of same-shaped tensors; keeps the graph shallow for long sums."""
    if not terms:
        raise ValueError("empty sum")
    out = terms[0].data.copy()
    for t in terms[1:]:
        out += t.data
    return Tensor(out, tuple(terms), lambda g: tuple(g for _ in terms))


def shift(a: Tensor, c: float) -> Tensor:
    return Tensor(a.data + c, (a,), lambda g: (g,))


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.data * c, (a,), lambda g: (g * c,))


def cmul(a: Tensor, mask: np.ndarray) -> Tensor:
    """Elementwise product with a constant array (dropout masks, fixed weights)."""
    mask = np.asarray(mask, dtype=np.float64)
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def linear(X: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Rows of X (B, d) through W (m, d) plus the bias b (m,): X W^T + b."""
    x, w = X.data, W.data
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]
            or b.data.shape != (w.shape[0],)):
        raise ValueError(f"bad linear shapes {x.shape} @ {w.shape}^T "
                         f"+ {b.data.shape}")
    return Tensor(x @ w.T + b.data, (X, W, b),
                  lambda g: (g @ w, g.T @ x, g.sum(axis=0)))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenation along ``axis`` (rows of 1-D vectors, columns with axis=1)."""
    sizes = [p.data.shape[axis] for p in parts]
    cuts = np.cumsum(sizes)[:-1]
    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  tuple(parts), lambda g: tuple(np.split(g, cuts, axis=axis)))


class RowGrad:
    """The gradient of a table read through ``take_rows``, kept as rows.

    ``index`` holds the gathered row numbers in gather order, flattened, and
    ``values`` the upstream gradient of each, one row per index entry; no
    (V, d) array is allocated until ``dense()`` asks for one.  ``rows()`` are
    the distinct row numbers, ascending, and ``sums()`` each one's summed
    gradient.  Both forms add a row's terms in index order from 0.0, so each
    row has the same bits in either, and the bits of ``np.add.at``.
    """

    def __init__(self, shape: tuple[int, int], index: np.ndarray,
                 values: np.ndarray):
        self.shape = shape
        self.index = index
        self.values = values

    def dense(self) -> np.ndarray:
        """The (V, d) gradient, built one occurrence rank at a time: the
        first gathers of each row are added at once, then the second ones,
        and so on.  No row repeats within a rank, so each rank is one
        buffered ``out[rows] += values``, which for the few-rank gathers of
        the EDU matrix is much cheaper than ``np.add.at``."""
        index = self.index
        out = np.zeros(self.shape)
        order = np.argsort(index, kind="stable")
        ranked = index[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        rank = np.arange(index.size) - np.repeat(
            starts, np.diff(np.r_[starts, index.size]))
        by_rank = order[np.argsort(rank, kind="stable")]
        stop = 0
        for count in np.bincount(rank).tolist():
            at = by_rank[stop:stop + count]
            stop += count
            out[index[at]] += self.values[at]
        return out

    @functools.cached_property
    def _reduced(self) -> tuple[np.ndarray, np.ndarray]:
        rows, where = np.unique(self.index, return_inverse=True)
        sums = np.zeros((rows.size, self.shape[1]))
        np.add.at(sums, where, self.values)
        return rows, sums

    def rows(self) -> np.ndarray:
        return self._reduced[0]

    def sums(self) -> np.ndarray:
        return self._reduced[1]


def dense(g):
    """A gradient as an ndarray: ``g`` itself, or a RowGrad's ``dense()``."""
    return g.dense() if isinstance(g, RowGrad) else g


def take_rows(a: Tensor, index) -> Tensor:
    """Rows of a 2-D tensor gathered by an integer array.

    An index of shape (m,) gives an (m, d) result; one of shape (m, q) gives
    (m, q * d), each result row concatenating its q gathered rows.  Repeated
    indices add their gradients.  The gradient for ``a`` is a RowGrad, so a
    gather of a few rows from a large table costs O(m * d) in the backward
    pass; ``backward`` turns it dense where it meets anything but a leaf.
    """
    index = np.asarray(index, dtype=np.intp)
    gathered = a.data[index]
    shape = a.data.shape
    flat = index.ravel()

    def vjp(g):
        return (RowGrad(shape, flat, g.reshape(flat.size, shape[1])),)

    return Tensor(gathered.reshape(index.shape[0], -1), (a,), vjp)


_BILSTM_CHUNK = 64      # steps whose [x; h] inputs are laid out at a time


def bilstm(W_f: Tensor, b_f: Tensor, W_b: Tensor, b_b: Tensor, X: Tensor,
           hidden: int) -> Tensor:
    """A bidirectional LSTM over the rows of X (T, d): the (T, 2H) states
    [fwd | bwd], row t of each half being that direction's state at x_t.

    Each direction's step computes z = W [x; h_prev] + b with W of shape
    (4H, d + H), gates i, f, g, o in that order, c = f c_prev + i g and
    h = o tanh(c), from zero states; the forward direction reads the rows
    first to last and the backward one last to first.  One Python loop
    advances both.  Their states are interleaved by (unit, direction), so
    step s runs each direction's matrix-vector product and then every
    elementwise step once, on one contiguous array covering both: 2
    products and 11 other numpy calls per step.  The ufuncs are those of
    the per-step composition, in its order, so each half equals a
    one-direction LSTM bit for bit.  Only the products read strided
    vectors; the backward sweep's products are fed contiguous copies, as
    strided operands there change the last bits.

    The node keeps the activated gates, the cells and its result, about
    12 T H floats; inside ``no_tape()`` the same loop writes every step's
    gates and cell into one reused row, so only the result, 2 T H floats,
    is left.  Its VJP is backpropagation through time written out
    (Werbos 1990): one backward sweep of both directions, T steps of one
    product with each W's recurrent block, then per direction
    dW = dZ^T [X | H_prev], db the column sum of dZ and dX = dZ W_x, where
    dZ holds the pre-activation gradients; X's gradient is the sum of the
    two dX.
    """
    H = hidden
    x = X.data
    T, d = x.shape
    ws = (W_f.data, W_b.data)
    for w, b in zip(ws, (b_f.data, b_b.data)):
        if w.shape != (4 * H, d + H) or b.shape != (4 * H,):
            raise ValueError(f"bad lstm shapes W {w.shape}, b {b.shape} "
                             f"for input width {d} and hidden {H}")
    xs = (x, x[::-1])                     # the rows in each direction's order
    bias = np.stack((b_f.data, b_b.data), axis=1).ravel()
    # Step s writes gates[at] and cells[at + keep], at = s * keep: its own
    # rows when recording, row 0 of both, reused, inside no_tape().
    keep = int(_recording)
    gates = np.empty((T if keep else 1, 8 * H))   # blocks i, f, g, o of 2H
    ig, fg, gg, og = (gates[:, k * 2 * H:(k + 1) * 2 * H] for k in range(4))
    cells = np.zeros((T * keep + 1, 2 * H))       # the zero state first
    out = np.empty((T, 2 * H))
    # xh[j, :, r] is direction r's [x; h_prev] at the chunk's j-th step;
    # the output multiply writes both h straight into the next step's row.
    rows = min(_BILSTM_CHUNK, T) + 1
    xh = np.zeros((rows, d + H, 2))
    x_in = (xh[:, :, 0], xh[:, :, 1])
    h_in = xh[:, d:].reshape(rows, 2 * H)
    z = np.empty(8 * H)
    z_dir = (z[0::2], z[1::2])
    z_g = z[4 * H:6 * H]
    tmp = np.empty(2 * H)
    for s0 in range(0, T, _BILSTM_CHUNK):
        m = min(_BILSTM_CHUNK, T - s0)
        for r in range(2):
            x_in[r][:m, :d] = xs[r][s0:s0 + m]
        for s in range(s0, s0 + m):
            j = s - s0
            at = s * keep
            np.matmul(ws[0], x_in[0][j], out=z_dir[0])
            np.matmul(ws[1], x_in[1][j], out=z_dir[1])
            z += bias
            act = gates[at]
            np.negative(z, out=act)
            np.exp(act, out=act)
            act += 1.0
            np.divide(1.0, act, out=act)
            g_s = gg[at]
            np.tanh(z_g, out=g_s)
            c = cells[at + keep]
            np.multiply(fg[at], cells[at], out=c)
            np.multiply(ig[at], g_s, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(og[at], tmp, out=h_in[j + 1])
        out[s0:s0 + m, :H] = xh[1:m + 1, d:, 0]
        out[T - s0 - m:T - s0, H:] = xh[m:0:-1, d:, 1]
        h_in[0] = h_in[m]
    hs = (out[:, :H], out[::-1, H:])      # each direction's states by step

    def vjp(g_out):
        tanh_c = np.tanh(cells[1:])
        # dZ[s] = [dc * cell_in, dh * out_gate] at step s, interleaved as
        # the gates are: the per-step factors are written into dZ first and
        # multiplied in place during the sweep; only dh and dc carry across
        # steps.
        dZ = np.empty((T, 8 * H))
        zi, zf, zg, zo = (dZ[:, k * 2 * H:(k + 1) * 2 * H] for k in range(4))
        np.multiply(gg, ig, out=zi)
        zi *= 1.0 - ig
        np.multiply(cells[:-1], fg, out=zf)
        zf *= 1.0 - fg
        np.multiply(gg, gg, out=zg)
        np.subtract(1.0, zg, out=zg)
        np.multiply(ig, zg, out=zg)
        to_cell = og * (1.0 - tanh_c * tanh_c)
        np.multiply(tanh_c, og, out=zo)
        zo *= 1.0 - og
        del tanh_c
        g_steps = np.empty((T, H, 2))
        g_steps[:, :, 0] = g_out[:, :H]
        g_steps[:, :, 1] = g_out[::-1, H:]
        g_steps = g_steps.reshape(T, 2 * H)
        z_cell = dZ[:, :6 * H].reshape(T, 3, 2 * H)
        z_dirs = dZ.reshape(T, 4 * H, 2).transpose(0, 2, 1)
        w_h = [np.ascontiguousarray(w[:, d:]) for w in ws]
        dh = np.zeros(2 * H)              # gradient reaching h from step s+1
        dc = np.zeros(2 * H)              # and reaching c from step s+1
        dz = np.empty((2, 4 * H))         # dZ[s] of each direction
        dh_dir = np.empty((2, H))
        dh_units = dh.reshape(H, 2)
        tmp = np.empty(2 * H)
        for s in range(T - 1, -1, -1):
            dh += g_steps[s]
            np.multiply(dh, to_cell[s], out=tmp)
            dc += tmp
            cell_part, out_part = z_cell[s], zo[s]
            np.multiply(cell_part, dc, out=cell_part)
            np.multiply(out_part, dh, out=out_part)
            np.copyto(dz, z_dirs[s])
            np.matmul(dz[0], w_h[0], out=dh_dir[0])
            np.matmul(dz[1], w_h[1], out=dh_dir[1])
            np.copyto(dh_units, dh_dir.T)
            dc *= fg[s]
        del g_steps, to_cell, w_h
        grads = []
        for r, w in enumerate(ws):
            dZ_r = np.ascontiguousarray(z_dirs[:, r])
            xh_r = np.empty((T, d + H))   # [X | H_prev] in step order
            xh_r[:, :d] = xs[r]
            xh_r[0, d:] = 0.0
            xh_r[1:, d:] = hs[r][:-1]
            grads += [dZ_r.T @ xh_r, dZ_r.sum(axis=0), dZ_r @ w[:, :d]]
            del dZ_r, xh_r
        dX = grads[2]
        dX += grads[5][::-1]
        return grads[0], grads[1], grads[3], grads[4], dX

    return Tensor(out, (W_f, b_f, W_b, b_b, X), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return Tensor(out, (a,), lambda g: (g * (a.data > 0.0),))


def margin_hinge(S: Tensor, gold, legal) -> Tensor:
    """Sum over legal (r, a) of max(0, (S[r, a] - S[r, gold[r]]) + 1).

    S holds one row of scores per decision, ``gold`` the gold column of each
    row and ``legal`` a boolean mask of S's shape.  As relu does, the
    gradient is zero where a term is exactly 0.
    """
    rows = np.arange(S.data.shape[0])
    gold = np.asarray(gold, dtype=np.intp)
    legal = np.asarray(legal, dtype=bool)
    if legal.shape != S.data.shape or gold.shape != rows.shape:
        raise ValueError(f"bad hinge shapes: scores {S.data.shape}, "
                         f"gold {gold.shape}, legal {legal.shape}")
    margins = (S.data - S.data[rows, gold][:, None]) + 1.0
    active = legal & (margins > 0.0)

    def vjp(g):
        out = g * active
        out[rows, gold] -= g * active.sum(axis=1)
        return (out,)

    return Tensor(np.maximum(margins, 0.0)[legal].sum(), (S,), vjp)


def vsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    shape = a.data.shape
    return Tensor(a.data.sum(), (a,), lambda g: (np.full(shape, g),))


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(node) into node.grad for every reachable node.

    The root must be a scalar.  Gradients add up across calls until the
    tensors' .grad fields are cleared.  A leaf whose only gradient comes
    from one ``take_rows`` keeps it as that RowGrad; a RowGrad that reaches
    an op node, or meets a second contribution, is made dense first, so op
    VJPs and every other leaf see ndarrays.
    """
    if root.data.shape != ():
        raise ValueError("backward expects a scalar root")
    if not _recording:
        raise RuntimeError("backward inside no_tape(), where no graph is "
                           "recorded")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray | RowGrad] = {id(root): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None and isinstance(g, RowGrad):
                node.grad = g
                continue
            node.grad = (np.zeros(node.data.shape) if node.grad is None
                         else dense(node.grad))
            node.grad += dense(g)
            continue
        for parent, pg in zip(node._parents, node._vjp(dense(g))):
            # A first gradient is kept as it is and sums are made out of
            # place: a VJP may hand one array, or views of it, to several
            # parents, so no stored gradient is ever written to.
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = (pg if isinstance(pg, RowGrad) else
                                     np.asarray(pg, dtype=np.float64))
            else:
                grads[id(parent)] = dense(acc) + dense(pg)
