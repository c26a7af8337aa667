"""Gradient-check case builders for every tensor primitive.

Each case is (name, build) where build(rng) returns (f, x): a scalar-valued
function of one tracked tensor, randomized per trial. Shared between the unit
tests and the acceptance suite so both sweep the same surface.
"""

import numpy as np

from moltext import tensor as T


def _t(rng, *shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


def _const(rng, *shape):
    return T.Tensor(rng.normal(size=shape))


def _to_scalar(rng, shape):
    """Random linear functional so every output coordinate matters."""
    w = _const(rng, *shape)
    return lambda out: T.tensor_sum(T.mul(out, w))


def add_same(rng):
    b = _const(rng, 4, 5)
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.add(x, b)), _t(rng, 4, 5)


def add_rowvec(rng):
    b = _const(rng, 5)
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.add(x, b)), _t(rng, 4, 5)


def add_rowvec_side(rng):
    a = _const(rng, 4, 5)
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.add(a, x)), _t(rng, 5)


def add_scalar(rng):
    s = _to_scalar(rng, (3, 3))
    return lambda x: s(T.add(x, 0.7)), _t(rng, 3, 3)


def sub_same(rng):
    b = _const(rng, 4, 3)
    s = _to_scalar(rng, (4, 3))
    return lambda x: s(T.sub(b, x)), _t(rng, 4, 3)


def mul_same(rng):
    b = _const(rng, 4, 3)
    s = _to_scalar(rng, (4, 3))
    return lambda x: s(T.mul(x, b)), _t(rng, 4, 3)


def mul_scalar_tensor(rng):
    a = _const(rng, 4, 3)
    s = _to_scalar(rng, (4, 3))
    return lambda x: s(T.mul(a, x)), _t(rng)


def matmul_left(rng):
    b = _const(rng, 5, 3)
    s = _to_scalar(rng, (4, 3))
    return lambda x: s(T.matmul(x, b)), _t(rng, 4, 5)


def matmul_right(rng):
    a = _const(rng, 4, 5)
    s = _to_scalar(rng, (4, 3))
    return lambda x: s(T.matmul(a, x)), _t(rng, 5, 3)


def _linear_case(role):
    """x (4, 5) @ w (5, 3) + b (3,), with the tracked tensor in one of the three roles."""

    def build(rng):
        shapes = [(4, 5), (5, 3), (3,)]
        args = [_const(rng, *shape) for shape in shapes]
        s = _to_scalar(rng, (4, 3))

        def f(x):
            return s(T.linear(*args[:role], x, *args[role + 1 :]))

        return f, _t(rng, *shapes[role])

    return build


def relu_case(rng):
    x = _t(rng, 4, 5)
    # central differences straddle the kink if a coordinate sits within h of 0
    x.data[np.abs(x.data) < 1e-2] += 0.05
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.relu(x)), x


def sum_case(rng):
    return lambda x: T.tensor_sum(x), _t(rng, 4, 6)


def mean_case(rng):
    return lambda x: T.mean(x), _t(rng, 4, 6)


def row_log_softmax_case(rng):
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.row_log_softmax(x)), _t(rng, 4, 5)


def concat_rows_case(rng):
    a = _const(rng, 5)
    b = _const(rng, 2, 5)
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.concat_rows([a, x, b])), _t(rng, 5)


def embedding_case(rng):
    ids = rng.integers(0, 6, size=7)  # repeats exercise scatter-add
    s = _to_scalar(rng, (7, 3))
    return lambda x: s(T.embedding_lookup(x, ids)), _t(rng, 6, 3)


def neighbor_sum_case(rng):
    # directed edges with repeats and self-loops; row 5 has no incoming edge
    src = rng.integers(0, 6, size=9)
    dst = rng.integers(0, 5, size=9)
    s = _to_scalar(rng, (6, 3))
    return lambda x: s(T.neighbor_sum(x, src, dst)), _t(rng, 6, 3)


def _attention_case(role):
    """Two sequences of 4 and 2 token rows in a (2, 4) layout; one [PAD]-masked key."""

    def build(rng):
        slots = np.array([0, 1, 2, 3, 4, 5])
        key_bias = np.full((2, 4), -1e30)
        key_bias.reshape(-1)[slots] = 0.0
        key_bias[0, 2] = -1e30
        others = [_const(rng, 6, 3) for _ in range(2)]
        s = _to_scalar(rng, (6, 3))

        def f(x):
            qkv = list(others)
            qkv.insert(role, x)
            return s(T.attention(*qkv, key_bias, slots))

        return f, _t(rng, 6, 3)

    return build


def l2_norm_sq_case(rng):
    s = _to_scalar(rng, (4,))
    return lambda x: s(T.l2_norm_sq(x)), _t(rng, 4, 3)


def cosine_a(rng):
    b = _const(rng, 5, 3)
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.cosine_similarity_matrix(x, b)), _t(rng, 4, 3)


def cosine_b(rng):
    a = _const(rng, 4, 3)
    s = _to_scalar(rng, (4, 5))
    return lambda x: s(T.cosine_similarity_matrix(a, x)), _t(rng, 5, 3)


def diag_part_case(rng):
    s = _to_scalar(rng, (5,))
    return lambda x: s(T.diag_part(x)), _t(rng, 5, 5)


def reshape_case(rng):
    s = _to_scalar(rng, (2, 6))
    return lambda x: s(T.reshape(x, (2, 6))), _t(rng, 4, 3)


PRIMITIVE_CASES = [
    ("add_same", add_same),
    ("add_rowvec", add_rowvec),
    ("add_rowvec_side", add_rowvec_side),
    ("add_scalar", add_scalar),
    ("sub", sub_same),
    ("mul_same", mul_same),
    ("mul_scalar_tensor", mul_scalar_tensor),
    ("matmul_left", matmul_left),
    ("matmul_right", matmul_right),
    ("linear_x", _linear_case(0)),
    ("linear_w", _linear_case(1)),
    ("linear_b", _linear_case(2)),
    ("relu", relu_case),
    ("sum", sum_case),
    ("mean", mean_case),
    ("row_log_softmax", row_log_softmax_case),
    ("concat_rows", concat_rows_case),
    ("embedding_lookup", embedding_case),
    ("neighbor_sum", neighbor_sum_case),
    ("attention_q", _attention_case(0)),
    ("attention_k", _attention_case(1)),
    ("attention_v", _attention_case(2)),
    ("l2_norm_sq", l2_norm_sq_case),
    ("cosine_a", cosine_a),
    ("cosine_b", cosine_b),
    ("diag_part", diag_part_case),
    ("reshape", reshape_case),
]
