"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the recorded graph once, in reverse topological order, accumulating gradients
into every node it can reach.  Only the operations the parsers need exist:
dense matvec, batched affine maps over the rows of a matrix (``linear``),
concatenation, slicing, element picks and row gathers, elementwise
nonlinearities, sums, a masked margin hinge over a matrix of scores
(``margin_hinge``), and one fused sequence op, ``lstm``, which runs a whole
LSTM direction as a single node with hand-written backpropagation through
time.  A loss over a batch of decisions is then a fixed number of nodes,
however many decisions it has.  The gradient a row gather sends to its
table is a ``RowGrad``, the gathered rows with their upstream gradients,
made dense only where something needs the whole array.  Everything is
computed at 64-bit precision.
"""

from __future__ import annotations

import functools

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return shift(self, -float(other))

    def __rsub__(self, other):
        return shift(scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

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


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def cmul(a: Tensor, mask: np.ndarray) -> Tensor:
    """Elementwise product with a constant array (dropout masks, fixed weights)."""
    mask = np.asarray(mask, dtype=np.float64)
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """(m, k) @ (k,) -> (m,)."""
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        raise ValueError(f"bad matvec shapes {w.data.shape} @ {x.data.shape}")
    return Tensor(w.data @ x.data, (w, x),
                  lambda g: (np.outer(g, x.data), w.data.T @ g))


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


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-D tensor."""
    size = a.data.shape[0]
    if not 0 <= start <= stop <= size:
        raise ValueError(f"narrow [{start}:{stop}] out of bounds for size {size}")

    def vjp(g):
        out = np.zeros(size)
        out[start:stop] = g
        return (out,)

    return Tensor(a.data[start:stop], (a,), vjp)


def pick(a: Tensor, index: int) -> Tensor:
    """Scalar element of a 1-D tensor."""
    size = a.data.shape[0]

    def vjp(g):
        out = np.zeros(size)
        out[index] = g
        return (out,)

    return Tensor(a.data[index], (a,), vjp)


def row(a: Tensor, index: int) -> Tensor:
    """One row of a 2-D tensor (embedding lookup)."""
    shape = a.data.shape

    def vjp(g):
        out = np.zeros(shape)
        out[index] = g
        return (out,)

    return Tensor(a.data[index], (a,), vjp)


class RowGrad:
    """The gradient of a table read through ``take_rows``, kept as rows.

    ``index`` holds the gathered row numbers in gather order, flattened, and
    ``values`` the upstream gradient of each, one row per index entry; no
    (V, d) array is allocated until ``dense()`` asks for one.  ``rows()`` are
    the distinct row numbers, ascending, and ``sums()`` each one's summed
    gradient.  Both forms add a row's terms with ``np.add.at`` in index order
    from 0.0, so each row has the same bits in either.
    """

    def __init__(self, shape: tuple[int, int], index: np.ndarray,
                 values: np.ndarray):
        self.shape = shape
        self.index = index
        self.values = values

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, self.index, self.values)
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


def lstm(W: Tensor, b: Tensor, X: Tensor, hidden: int,
         reverse: bool = False) -> Tensor:
    """One LSTM direction over the rows of X (T, d); the (T, H) hidden states.

    Step t computes z = W [x_t; h_{t-1}] + b with W of shape (4H, d + H),
    gates i, f, g, o in that order, c_t = f c_{t-1} + i g and
    h_t = o tanh(c_t), from zero states.  With ``reverse`` the rows are read
    last to first; row t of the result is still the state at x_t.

    The node keeps the activated gates and the cells, O(T (d + 6H)) floats
    with X and the result.  Its VJP is backpropagation through time written
    out (Werbos 1990): one backward sweep of T products with W's recurrent
    block, then dW = dZ^T [X | H_prev], db the column sum of dZ and
    dX = dZ W_x, where dZ holds the pre-activation gradients.
    """
    H = hidden
    w, bias = W.data, b.data
    xs = X.data[::-1] if reverse else X.data
    T, d = xs.shape
    if w.shape != (4 * H, d + H) or bias.shape != (4 * H,):
        raise ValueError(f"bad lstm shapes W {w.shape}, b {bias.shape} "
                         f"for input width {d} and hidden {H}")
    gates = np.empty((T, 4 * H))
    cells = np.empty((T, H))
    hs = np.empty((T, H))
    # Each step applies the ufuncs of matvec, add, sigmoid, tanh and mul in
    # their order, written into preallocated rows, so the states equal the
    # per-step composition bit for bit: sigmoid(z) = 1 / (1 + exp(-z)) on all
    # four blocks, then tanh over the g block.
    xh = np.zeros(d + H)                  # [x_t; h_{t-1}]
    z = np.empty(4 * H)
    tmp = np.empty(H)
    c = np.zeros(H)
    for t in range(T):
        xh[:d] = xs[t]
        np.matmul(w, xh, out=z)
        z += bias
        act = gates[t]
        np.negative(z, out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        np.tanh(z[2 * H:3 * H], out=act[2 * H:3 * H])
        np.multiply(act[H:2 * H], c, out=cells[t])
        np.multiply(act[:H], act[2 * H:3 * H], out=tmp)
        cells[t] += tmp
        c = cells[t]
        np.tanh(c, out=tmp)
        np.multiply(act[3 * H:], tmp, out=hs[t])
        xh[d:] = hs[t]

    def vjp(g_out):
        g_out = g_out[::-1] if reverse else g_out
        i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
        tanh_c = np.tanh(cells)
        c_prev = np.vstack((np.zeros((1, H)), cells[:-1]))
        h_prev = np.vstack((np.zeros((1, H)), hs[:-1]))
        # dZ_t = [dc_t * cell_in_t, dh_t * out_t] with the per-step factors
        # precomputed; only dh and dc carry across steps.
        cell_in = np.hstack((g * i * (1.0 - i), c_prev * f * (1.0 - f),
                             i * (1.0 - g * g))).reshape(T, 3, H)
        to_cell = o * (1.0 - tanh_c * tanh_c)
        out = tanh_c * o * (1.0 - o)
        w_h = np.ascontiguousarray(w[:, d:])
        dZ = np.empty((T, 4 * H))
        dZ_cell = dZ[:, :3 * H].reshape(T, 3, H)
        dh = np.zeros(H)                  # gradient reaching h_t from step t+1
        dc = np.zeros(H)                  # and reaching c_t from step t+1
        tmp = np.empty(H)
        for t in range(T - 1, -1, -1):
            dh += g_out[t]
            np.multiply(dh, to_cell[t], out=tmp)
            dc += tmp
            np.multiply(cell_in[t], dc, out=dZ_cell[t])
            np.multiply(out[t], dh, out=dZ[t, 3 * H:])
            np.matmul(dZ[t], w_h, out=dh)
            dc *= f[t]
        dW = dZ.T @ np.hstack((xs, h_prev))
        dX = dZ @ w[:, :d]
        return dW, dZ.sum(axis=0), dX[::-1] if reverse else dX

    return Tensor(hs[::-1] if reverse else hs, (W, b, X), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return Tensor(out, (a,), lambda g: (g * (a.data > 0.0),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


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
            if pg is None:
                continue
            # A first gradient is kept as it is and sums are made out of
            # place: a VJP may hand one array, or views of it, to several
            # parents, so no stored gradient is ever written to.
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = (pg if isinstance(pg, RowGrad) else
                                     np.asarray(pg, dtype=np.float64))
            else:
                grads[id(parent)] = dense(acc) + dense(pg)
