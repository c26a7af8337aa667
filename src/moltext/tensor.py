"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tape records every gradient-relevant operation in execution order; backward
walks the records in exact reverse, so the topological order is the recording
order by construction. Tensors are thin wrappers around float64 arrays.
Recording only happens while a Tape is active (use it as a context manager)
and only for outputs that depend on a requires_grad leaf; forward-only code
pays no tape cost. Inside no_grad() nothing is recorded and every output is a
constant, whatever tape is active.

.grad is the one gradient store, and backward keeps it the way PyTorch does
by default: every gradient is added into .grad (None is no gradient yet), not
replaced, so a loss may be backpropagated one term (and one tape) at a time.
An intermediate's .grad is taken and cleared when the record that produced it
runs, so after backward only leaves (tracked tensors no record produced, such
as parameters) hold one, and backward holds only the gradients still to be
consumed. Every backward returns a gradient for each of its inputs, and
Tape.backward alone decides who keeps one: it adds a gradient only into an
input that requires one.
linear is one record for x @ w + b, so a layer keeps no x @ w intermediate,
and its two in-place epilogues fold a ReLU (relu=True) or a residual add
(residual=r) into the same record, so the tape never holds a pre-activation
or an un-added output. _relu_ is the one home of the ReLU mask rule, shared
by linear and relu. embedding_lookup adds a constant block (positions) into
its gathered rows the same way, embedding_sum sums several lookups in one
record, and neighbor_sum's eps= folds in GIN's (1 + eps) * x self term. Each
fused record gives the bytes, forward and backward, of the records it replaces.
add, sub and mul share one broadcasting rule, _binary. row_norms is the one
clamped row norm, of cosine_similarity_matrix and evaluation's unit rows.

stop_gradient is an identity in the forward pass and an exact zero backward:
it returns an untracked copy, so nothing upstream of it ever receives a
gradient entry. check_gradient compares tape gradients against central
finite differences coordinate by coordinate.
"""

from __future__ import annotations

import contextlib

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class NonScalarLossError(ValueError):
    pass


# innermost last; None marks a no_grad() region
_ACTIVE_TAPES: list["Tape | None"] = []


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Operation recorder; one active per training step, reset by replacement."""

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPES.remove(self)
        return False

    def __len__(self) -> int:
        return len(self._records)

    def mark(self) -> int:
        """Current record count; pair two marks to bracket a subgraph."""
        return len(self._records)

    def outputs_between(self, start: int, end: int) -> list[Tensor]:
        return [out for _, out, _ in self._records[start:end]]

    def backward(self, loss: Tensor) -> None:
        """Add the loss's gradient into .grad of every leaf it depends on; intermediate gradients are freed.

        Each record, in reverse, takes its output's .grad, clears it, and adds its inputs' gradients into
        theirs; its backward returns one for every input, and only an input that requires a gradient keeps
        it. A leaf's contributions are added to the .grad it already holds in the order the records
        run, so when two losses share only leaves, backpropagating the one recorded later first, then the
        other, gives the bytes of one backward over their sum. A gradient that another tape's backward left
        on one of this tape's intermediates flows on into this graph: two tapes that share an intermediate
        give the gradient of their sum.
        """
        if loss.data.shape != ():
            raise NonScalarLossError(f"loss must be a scalar, got shape {loss.data.shape}")
        _accumulate(loss, np.ones((), dtype=np.float64))
        for inputs, out, back in reversed(self._records):
            g_out, out.grad = out.grad, None
            if g_out is None:
                continue
            for tensor, g_in in zip(inputs, back(g_out)):
                if tensor.requires_grad:
                    _accumulate(tensor, g_in)


def _accumulate(tensor: Tensor, g: np.ndarray) -> None:
    """The one gradient rule: g is added into .grad, None meaning no gradient yet."""
    tensor.grad = g if tensor.grad is None else tensor.grad + g


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


@contextlib.contextmanager
def no_grad():
    """Forward code inside records nothing and returns constants."""
    _ACTIVE_TAPES.append(None)
    try:
        yield
    finally:
        _ACTIVE_TAPES.pop()


def _emit(inputs: tuple[Tensor, ...], out_data: np.ndarray, back) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE_TAPES and _ACTIVE_TAPES[-1] is None:
        return out  # inside no_grad(): a constant
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _ACTIVE_TAPES and out.requires_grad:
        _ACTIVE_TAPES[-1]._records.append((inputs, out, back))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Primitives. Each backward takes the output gradient and returns one gradient
# per recorded input, aligned with the input tuple, constants included.


def _binary(name: str, a, b, op, grad_a, grad_b) -> Tensor:
    """op(a, b) under numpy broadcasting; each grad_*(g, a, b) is summed back to its operand's shape."""
    a, b = _wrap(a), _wrap(b)
    x, y = a.data, b.data
    try:
        out = op(x, y)
    except ValueError:
        raise ShapeMismatchError(f"{name}: cannot broadcast {x.shape} with {y.shape}") from None

    def back(g):
        return _unbroadcast(grad_a(g, x, y), x.shape), _unbroadcast(grad_b(g, x, y), y.shape)

    return _emit((a, b), out, back)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data
    return _emit((a, b), out, lambda g: (g @ b_data.T, a_data.T @ g))


def _relu_(out: np.ndarray) -> np.ndarray:
    """The ReLU mask rule, in place: keep entries > 0, zero the rest; returns the mask backward multiplies by.

    -0.0 and -inf become +0.0, as np.where(mask, x, 0.0) gives; NaN stays NaN.
    """
    mask = out > 0
    np.maximum(out, 0.0, out=out)
    out += 0.0  # max(-0.0, 0.0) may be -0.0
    return mask


def linear(x, w, b, relu: bool = False, residual=None) -> Tensor:
    """x @ w + b as one record, with the arithmetic of add(matmul(x, w), b).

    Two in-place epilogues fold the next layer's op into the same record, in this
    order: relu=True gives relu(linear(x, w, b)) and residual=r gives
    add(r, linear(...)), byte for byte, with the gradients accumulated in the order
    those records would. The pre-activation and the un-added output are never
    tensors of the tape.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatchError(f"linear: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data
    try:
        out += b.data
    except ValueError:
        raise ShapeMismatchError(f"linear: bias {b.data.shape} does not broadcast to {out.shape}") from None
    mask = _relu_(out) if relu else None
    inputs = (x, w, b)
    if residual is not None:
        residual = _wrap(residual)
        if residual.data.shape != out.shape:
            raise ShapeMismatchError(f"linear: residual {residual.data.shape} for output {out.shape}")
        np.add(residual.data, out, out=out)
        inputs = (residual, *inputs)
    x_data, w_data, b_shape = x.data, w.data, b.data.shape

    def back(g):
        g_residual = (g,) if residual is not None else ()
        if mask is not None:
            g = g * mask
        return (*g_residual, g @ w_data.T, x_data.T @ g, _unbroadcast(g, b_shape))

    return _emit(inputs, out, back)


def relu(x) -> Tensor:
    x = _wrap(x)
    out = x.data.copy()
    mask = _relu_(out)
    return _emit((x,), out, lambda g: (g * mask,))


def tensor_sum(x) -> Tensor:
    x = _wrap(x)
    shape = x.data.shape
    return _emit((x,), np.asarray(x.data.sum()), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean(x) -> Tensor:
    x = _wrap(x)
    shape, size = x.data.shape, x.data.size
    return _emit((x,), np.asarray(x.data.mean()), lambda g: (np.broadcast_to(g / size, shape).copy(),))


def row_log_softmax(x) -> Tensor:
    """Row-wise log-softmax of a 2-D tensor, computed without exponentiating first; never -inf traps."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"row_log_softmax expects 2-D input, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = np.exp(out)

    def back(g):
        return (g - y * g.sum(axis=1, keepdims=True),)

    return _emit((x,), out, back)


def concat_rows(tensors) -> Tensor:
    """Stack 1-D tensors (as rows) and 2-D tensors along axis 0."""
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeMismatchError("concat_rows needs at least one tensor")
    rows = [t.data.reshape(1, -1) if t.data.ndim == 1 else t.data for t in tensors]
    for t, block in zip(tensors, rows):
        if block.ndim != 2:
            raise ShapeMismatchError(f"concat_rows expects 1-D or 2-D tensors, got {t.data.shape}")
        if block.shape[1] != rows[0].shape[1]:
            raise ShapeMismatchError(f"concat_rows width mismatch: {block.shape[1]} vs {rows[0].shape[1]}")
    shapes = [t.data.shape for t in tensors]
    cuts = np.cumsum([block.shape[0] for block in rows[:-1]], dtype=np.int64)
    out = np.concatenate(rows, axis=0)
    return _emit(tuple(tensors), out, lambda g: tuple(p.reshape(s) for p, s in zip(np.split(g, cuts), shapes)))


def _gather(table: Tensor, ids) -> tuple[np.ndarray, np.ndarray]:
    """The int64 ids and the rows of `table` they select (a copy), refused unless both are well formed."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatchError(f"embedding ids must be 1-D, got {ids.shape}")
    if table.data.ndim != 2:
        raise ShapeMismatchError(f"embedding table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range for table of {table.data.shape[0]} rows")
    return ids, table.data[ids]


def _scatter(g: np.ndarray, ids: np.ndarray, table_shape: tuple) -> np.ndarray:
    """The rows of g added into a zero table at their ids: a lookup's backward.

    One bincount over (id, column) cells adds each cell's terms from 0.0 in row
    order, the sums np.add.at makes, without add.at's per-row loop (with no ids,
    bincount returns ints, hence the astype).
    """
    rows, width = table_shape
    cells = (ids[:, None] * width + np.arange(width)).ravel()
    acc = np.bincount(cells, weights=g.ravel(), minlength=rows * width)
    return acc.astype(np.float64, copy=False).reshape(table_shape)


def embedding_lookup(table: Tensor, ids, plus=None) -> Tensor:
    """Rows of `table` selected by integer ids; backward scatter-adds.

    `plus`, a constant array, is added into the gathered rows in place: the bytes
    of add(embedding_lookup(table, ids), Tensor(plus)) in one record.
    """
    ids, out = _gather(table, ids)
    if plus is not None:
        try:
            out += np.asarray(plus, dtype=np.float64)
        except ValueError:
            raise ShapeMismatchError(f"embedding_lookup: {np.shape(plus)} does not broadcast to {out.shape}") from None
    table_shape = table.data.shape
    return _emit((table,), out, lambda g: (_scatter(g, ids, table_shape),))


def embedding_sum(tables, ids_per_table) -> Tensor:
    """One lookup per table, the gathered rows summed in pairs, as one record.

    Four tables give the bytes of add(add(l0, l1), add(l2, l3)), l_i =
    embedding_lookup(tables[i], ids_per_table[i]), forward and backward; an odd
    table out joins the next round. Backward scatter-adds the output gradient
    into each table as its lookup's backward does.
    """
    tables = list(tables)
    if not tables or len(tables) != len(ids_per_table):
        raise ShapeMismatchError(f"embedding_sum: {len(tables)} tables for {len(ids_per_table)} id arrays")
    gathered = [_gather(table, ids) for table, ids in zip(tables, ids_per_table)]
    rows = [out for _, out in gathered]
    if any(block.shape != rows[0].shape for block in rows):
        raise ShapeMismatchError(f"embedding_sum: lookups of shapes {[block.shape for block in rows]}")
    while len(rows) > 1:
        for a, b in zip(rows[::2], rows[1::2]):
            a += b  # each block is its own gathered copy
        rows = rows[::2]
    lookups = [(ids, table.data.shape) for (ids, _), table in zip(gathered, tables)]

    def back(g):
        return tuple(_scatter(g, ids, shape) for ids, shape in lookups)

    return _emit(tuple(tables), rows[0], back)


def _edge_sum(x: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Rows x[src[e]] summed into row dst[e] of an (n, width) zero array, one edge slot at a time.

    A row is its first edge's term plus (-0.0 + its later terms, in edge order):
    np.add.reduceat's bits on numpy 2.4 for rows of up to 8 edges.
    """
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    if src.size:
        ordered = src[np.argsort(dst, kind="stable")]
        degree = np.bincount(dst, minlength=n)
        start = np.cumsum(degree) - degree
        rows = np.flatnonzero(degree)
        out[rows] = x[ordered[start[rows]]]
        rows = np.flatnonzero(degree > 1)
        rest = x[ordered[start[rows] + 1]]  # -0.0 + v is v
        for s in range(2, degree.max()):
            later = np.flatnonzero(degree[rows] > s)
            rest[later] += x[ordered[start[rows[later]] + s]]
        out[rows] += rest
    return out


def neighbor_sum(x, src, dst, eps=None) -> Tensor:
    """Edge-list message sum over the rows of a 2-D x: out[i] = sum of x[src[e]] where dst[e] == i.

    Costs O(edges * width), never O(rows^2). A row is its first term plus the
    rest summed from -0.0 in edge order, so its value does not depend on which
    other rows share the tensor. Backward is the same sum over the reversed edges.

    eps=e, a scalar, folds GIN's self term into the same record: the bytes of
    add(mul(x, add(e, 1.0)), neighbor_sum(x, src, dst)), forward and backward,
    x's two gradients added in the order those records give them (the
    neighbour sum's first). The product and the sum are never tape tensors.
    """
    x = _wrap(x)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"neighbor_sum expects 2-D input, got {x.data.shape}")
    if src.ndim != 1 or src.shape != dst.shape:
        raise ShapeMismatchError(f"neighbor_sum edges must be matching 1-D arrays: {src.shape}, {dst.shape}")
    n = x.data.shape[0]
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise IndexError(f"neighbor_sum edge endpoint out of range for {n} rows")
    out = _edge_sum(x.data, src, dst, n)
    if eps is None:
        return _emit((x,), out, lambda g: (_edge_sum(g, dst, src, n),))
    eps = _wrap(eps)
    if eps.data.shape != ():
        raise ShapeMismatchError(f"neighbor_sum: eps must be a scalar, got shape {eps.data.shape}")
    scale = eps.data + 1.0
    np.add(x.data * scale, out, out=out)
    x_data = x.data

    def back(g):
        return _edge_sum(g, dst, src, n), g * scale, _unbroadcast(g * x_data, ())

    return _emit((x, x, eps), out, back)


def attention(q, k, v, key_bias: np.ndarray, slots: np.ndarray) -> Tensor:
    """Single-head scaled dot-product attention of each sequence over its own keys.

    q, k and v hold one (N, d) row per token. key_bias is a (B, L) constant
    added to every score of key slot (b, l), and slots[i] = b * L + l places
    token row i in that padded layout. Slots with no token row are zero; give
    them, like any masked key, a -1e30 bias, which gives exactly zero weight
    after the softmax shift. The (B, L, L) scores are softmaxed over keys and
    the attended rows come back as (N, d), in token-row order.

    The padded q, k and v blocks are rebuilt in the backward rather than kept
    alive on the tape.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    key_bias = np.asarray(key_bias, dtype=np.float64)
    slots = np.asarray(slots, dtype=np.int64)
    if q.data.ndim != 2 or q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeMismatchError(f"attention: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    n, d = q.data.shape
    if key_bias.ndim != 2 or slots.shape != (n,):
        raise ShapeMismatchError(f"attention: key_bias {key_bias.shape} and slots {slots.shape} for {n} rows")
    batch, length = key_bias.shape
    scale = 1.0 / np.sqrt(d)

    def padded(rows):
        buf = np.zeros((batch * length, d), dtype=np.float64)
        buf[slots] = rows
        return buf.reshape(batch, length, d)

    def token_rows(blocks):
        return blocks.reshape(batch * length, d)[slots]

    # one (B, L, L) buffer turns from scores into probabilities in place
    p = padded(q.data) @ padded(k.data).transpose(0, 2, 1)
    p *= scale
    p += key_bias[:, None, :]
    p -= p.max(axis=2, keepdims=True)
    with np.errstate(under="ignore"):  # a masked key's exp underflows to exactly 0.0, whatever np.seterr says
        np.exp(p, out=p)
    p /= p.sum(axis=2, keepdims=True)
    out = token_rows(p @ padded(v.data))

    def back(g):
        # each padded block is built where it is first used and dropped after its last use
        g3 = padded(g)
        # ds = p * (dp - rowsum(dp * p)) * scale, one buffer updated in place
        ds = g3 @ padded(v.data).transpose(0, 2, 1)
        ds -= (ds * p).sum(axis=2, keepdims=True)
        ds *= p
        ds *= scale
        gq = token_rows(ds @ padded(k.data))
        gk = token_rows(ds.transpose(0, 2, 1) @ padded(q.data))
        return gq, gk, token_rows(p.transpose(0, 2, 1) @ g3)

    return _emit((q, k, v), out, back)


def l2_norm_sq(x) -> Tensor:
    """Per-row squared L2 norm of a 2-D tensor: (N, D) -> (N,)."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"l2_norm_sq expects 2-D input, got {x.data.shape}")
    x_data = x.data
    return _emit((x,), (x_data * x_data).sum(axis=1), lambda g: (g[:, None] * 2.0 * x_data,))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, clamped at 1e-12.

    An all-zero row divided by its norm gives zeros instead of NaN; away from
    that floor the clamp is exact identity.
    """
    return np.maximum(np.sqrt((x * x).sum(axis=1)), 1e-12)


def cosine_similarity_matrix(a, b) -> Tensor:
    """All-pairs cosine similarity: (N, D) x (M, D) -> (N, M), both sides scaled by row_norms."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeMismatchError(f"cosine_similarity_matrix: {a.data.shape} x {b.data.shape}")
    na, nb = row_norms(a.data), row_norms(b.data)
    a_hat = a.data / na[:, None]
    b_hat = b.data / nb[:, None]
    c = a_hat @ b_hat.T

    def back(g):
        row_dot = (g * c).sum(axis=1, keepdims=True)
        col_dot = (g * c).sum(axis=0)[:, None]
        ga = (g @ b_hat - row_dot * a_hat) / na[:, None]
        gb = (g.T @ a_hat - col_dot * b_hat) / nb[:, None]
        return ga, gb

    return _emit((a, b), c, back)


def diag_part(x) -> Tensor:
    x = _wrap(x)
    if x.data.ndim != 2 or x.data.shape[0] != x.data.shape[1]:
        raise ShapeMismatchError(f"diag_part expects a square matrix, got {x.data.shape}")
    return _emit((x,), np.diagonal(x.data).copy(), lambda g: (np.diag(g),))


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    old = x.data.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError(f"cannot reshape {old} into {shape}") from None
    return _emit((x,), out.copy(), lambda g: (g.reshape(old),))


def stop_gradient(x: Tensor) -> Tensor:
    """Identity forward, exact zero backward: returns an untracked copy."""
    return Tensor(x.data.copy(), requires_grad=False)


# ---------------------------------------------------------------------------


def check_gradient(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    Error per coordinate is |a - n| / max(1e-12, |a| + |n|). `f` must map the
    tensor to a scalar Tensor and be side-effect free.
    """
    x.grad = None
    with Tape() as tape:
        loss = f(x)
    if loss.data.shape != ():
        raise NonScalarLossError(f"check_gradient needs a scalar loss, got {loss.data.shape}")
    tape.backward(loss)
    analytic = np.zeros_like(x.data) if x.grad is None else np.array(x.grad, dtype=np.float64)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x).data)
        flat[i] = orig - h
        f_minus = float(f(x).data)
        flat[i] = orig
        num_flat[i] = (f_plus - f_minus) / (2.0 * h)

    rel = np.abs(analytic - numeric) / np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    return float(rel.max()) if rel.size else 0.0
