"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tape records every gradient-relevant operation in execution order; backward
walks the records in exact reverse, so the topological order is the recording
order by construction. Tensors are thin wrappers around float64 arrays.
Recording only happens while a Tape is active (use it as a context manager)
and only for outputs that depend on a requires_grad leaf; forward-only code
pays no tape cost. Inside no_grad() nothing is recorded and every output is a
constant, whatever tape is active.

Backward keeps gradients the way PyTorch does by default: .grad is filled on
leaves only (tracked tensors no record produced, such as parameters), and
each intermediate gradient is dropped as soon as the record that produced its
tensor has run, so backward holds only the gradients still to be consumed.
linear is one record for x @ w + b, so a layer keeps no x @ w intermediate.

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

    @property
    def shape(self) -> tuple:
        return self.data.shape

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
        """Fill .grad on every leaf the loss depends on; intermediate gradients are freed."""
        if loss.data.shape != ():
            raise NonScalarLossError(f"loss must be a scalar, got shape {loss.data.shape}")
        produced = {id(out) for _, out, _ in self._records}
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        leaves: dict[int, Tensor] = {} if id(loss) in produced else {id(loss): loss}
        for inputs, out, back in reversed(self._records):
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for tensor, g_in in zip(inputs, back(g_out)):
                if g_in is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                if key in grads:
                    grads[key] = grads[key] + g_in
                else:
                    grads[key] = g_in
                    if key not in produced:
                        leaves[key] = tensor
        for key, tensor in leaves.items():
            tensor.grad = grads[key]


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


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeMismatchError(f"{op}: cannot broadcast {a.data.shape} with {b.data.shape}") from None


# ---------------------------------------------------------------------------
# Primitives. Each backward takes the output gradient and returns per-input
# gradients aligned with the recorded input tuple.


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "add")
    out = a.data + b.data
    a_on, b_on = a.requires_grad, b.requires_grad

    def back(g):
        return (
            _unbroadcast(g, a.data.shape) if a_on else None,
            _unbroadcast(g, b.data.shape) if b_on else None,
        )

    return _emit((a, b), out, back)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "sub")
    out = a.data - b.data
    a_on, b_on = a.requires_grad, b.requires_grad

    def back(g):
        return (
            _unbroadcast(g, a.data.shape) if a_on else None,
            _unbroadcast(-g, b.data.shape) if b_on else None,
        )

    return _emit((a, b), out, back)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "mul")
    out = a.data * b.data
    a_data, b_data = a.data, b.data
    a_on, b_on = a.requires_grad, b.requires_grad

    def back(g):
        return (
            _unbroadcast(g * b_data, a_data.shape) if a_on else None,
            _unbroadcast(g * a_data, b_data.shape) if b_on else None,
        )

    return _emit((a, b), out, back)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data
    a_on, b_on = a.requires_grad, b.requires_grad

    def back(g):
        return (g @ b_data.T if a_on else None, a_data.T @ g if b_on else None)

    return _emit((a, b), out, back)


def linear(x, w, b) -> Tensor:
    """x @ w + b as one record, with the arithmetic of add(matmul(x, w), b)."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatchError(f"linear: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data
    try:
        out += b.data
    except ValueError:
        raise ShapeMismatchError(f"linear: bias {b.data.shape} does not broadcast to {out.shape}") from None
    x_data, w_data, b_shape = x.data, w.data, b.data.shape
    x_on, w_on, b_on = x.requires_grad, w.requires_grad, b.requires_grad

    def back(g):
        return (
            g @ w_data.T if x_on else None,
            x_data.T @ g if w_on else None,
            _unbroadcast(g, b_shape) if b_on else None,
        )

    return _emit((x, w, b), out, back)


def relu(x) -> Tensor:
    x = _wrap(x)
    mask = x.data > 0
    out = x.data * mask
    out += 0.0  # -0.0 from negative inputs becomes +0.0, as np.where(mask, x, 0.0) gives
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
    rows = []
    counts = []
    width = None
    for t in tensors:
        block = t.data.reshape(1, -1) if t.data.ndim == 1 else t.data
        if block.ndim != 2:
            raise ShapeMismatchError(f"concat_rows expects 1-D or 2-D tensors, got {t.data.shape}")
        if width is None:
            width = block.shape[1]
        elif block.shape[1] != width:
            raise ShapeMismatchError(f"concat_rows width mismatch: {block.shape[1]} vs {width}")
        rows.append(block)
        counts.append(block.shape[0])
    out = np.concatenate(rows, axis=0)
    shapes = [t.data.shape for t in tensors]

    def back(g):
        grads = []
        offset = 0
        for count, shape in zip(counts, shapes):
            grads.append(g[offset : offset + count].reshape(shape))
            offset += count
        return tuple(grads)

    return _emit(tuple(tensors), out, back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of `table` selected by integer ids; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatchError(f"embedding ids must be 1-D, got {ids.shape}")
    if table.data.ndim != 2:
        raise ShapeMismatchError(f"embedding table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range for table of {table.data.shape[0]} rows")
    out = table.data[ids]
    table_shape = table.data.shape

    def back(g):
        acc = np.zeros(table_shape, dtype=np.float64)
        np.add.at(acc, ids, g)
        return (acc,)

    return _emit((table,), out, back)


def _edge_sum(x: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Rows x[src[e]] summed into row dst[e] of an (n, width) zero array, in edge order."""
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    if src.size:
        order = np.argsort(dst, kind="stable")
        targets, starts = np.unique(dst[order], return_index=True)
        out[targets] = np.add.reduceat(x[src[order]], starts, axis=0)
    return out


def neighbor_sum(x, src, dst) -> Tensor:
    """Edge-list message sum over the rows of a 2-D x: out[i] = sum of x[src[e]] where dst[e] == i.

    Costs O(edges * width), never O(rows^2). Each row adds its terms in edge
    order, so a row's value does not depend on which other rows share the
    tensor. Backward is the same sum over the reversed edges.
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
    return _emit((x,), _edge_sum(x.data, src, dst, n), lambda g: (_edge_sum(g, dst, src, n),))


def attention(q, k, v, key_bias: np.ndarray, slots: np.ndarray) -> Tensor:
    """Single-head scaled dot-product attention of each sequence over its own keys.

    q, k and v hold one (N, d) row per token. key_bias is a (B, L) constant
    added to every score of key slot (b, l), and slots[i] = b * L + l places
    token row i in that padded layout. Slots with no token row are zero; give
    them, like any masked key, a -1e30 bias, which gives exactly zero weight
    after the softmax shift. The (B, L, L) scores are softmaxed over keys and
    the attended rows come back as (N, d), in token-row order.

    A shifted score below -746 has exp exactly 0.0, so such dead scores are
    zeroed rather than exponentiated: np.exp of a huge negative number takes
    a slow underflow path. The padded q, k and v blocks are rebuilt in the
    backward rather than kept alive on the tape.
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
    dead = p < -746.0
    np.copyto(p, 0.0, where=dead)
    np.exp(p, out=p)
    np.copyto(p, 0.0, where=dead)
    p /= p.sum(axis=2, keepdims=True)
    out = token_rows(p @ padded(v.data))

    def back(g):
        q3, k3, v3, g3 = padded(q.data), padded(k.data), padded(v.data), padded(g)
        # ds = p * (dp - rowsum(dp * p)) * scale, one buffer updated in place
        ds = g3 @ v3.transpose(0, 2, 1)
        ds -= (ds * p).sum(axis=2, keepdims=True)
        ds *= p
        ds *= scale
        return (
            token_rows(ds @ k3),
            token_rows(ds.transpose(0, 2, 1) @ q3),
            token_rows(p.transpose(0, 2, 1) @ g3),
        )

    return _emit((q, k, v), out, back)


def l2_norm_sq(x) -> Tensor:
    """Per-row squared L2 norm of a 2-D tensor: (N, D) -> (N,)."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"l2_norm_sq expects 2-D input, got {x.data.shape}")
    x_data = x.data
    return _emit((x,), (x_data * x_data).sum(axis=1), lambda g: (g[:, None] * 2.0 * x_data,))


def cosine_similarity_matrix(a, b) -> Tensor:
    """All-pairs cosine similarity: (N, D) x (M, D) -> (N, M).

    Row norms are clamped at 1e-12 so an all-zero row yields zeros instead of
    NaN; away from that floor the clamp is exact identity.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeMismatchError(f"cosine_similarity_matrix: {a.data.shape} x {b.data.shape}")
    na = np.maximum(np.sqrt((a.data * a.data).sum(axis=1)), 1e-12)
    nb = np.maximum(np.sqrt((b.data * b.data).sum(axis=1)), 1e-12)
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
    n = x.data.shape[0]

    def back(g):
        acc = np.zeros((n, n), dtype=np.float64)
        np.fill_diagonal(acc, g)
        return (acc,)

    return _emit((x,), np.diagonal(x.data).copy(), back)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    old = x.data.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError(f"cannot reshape {old} into {shape}") from None
    return _emit((x,), out.copy(), lambda g: (g.reshape(old),))


def scale(x, factor: float) -> Tensor:
    return mul(x, float(factor))


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
