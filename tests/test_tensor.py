"""Autodiff engine checks: forward values, tape semantics, gradients vs central differences."""

import zlib

import numpy as np
import pytest

from moltext import tensor as T
from moltext import toydata
from moltext.chem import batch_columns, parse_smiles
from moltext.tensor import (
    NonScalarLossError,
    ShapeMismatchError,
    Tape,
    Tensor,
    check_gradient,
    stop_gradient,
)
from moltext.encoders import ModelConfig, MolTextModel, build_vocab, tokenize
from moltext.losses import er_loss
from primitive_cases import PRIMITIVE_CASES


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestForward:
    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_row_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 6)))
        e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
        np.testing.assert_allclose(T.row_log_softmax(x).data, np.log(e / e.sum(axis=1, keepdims=True)), atol=1e-12)

    def test_row_log_softmax_extreme_logits_finite(self):
        x = Tensor([[0.0, -2000.0, 1000.0]])
        out = T.row_log_softmax(x).data
        assert np.all(np.isfinite(out))

    def test_cosine_self_is_one(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 8)))
        c = T.cosine_similarity_matrix(a, a)
        np.testing.assert_allclose(np.diag(c.data), 1.0, atol=1e-12)
        assert np.all(c.data <= 1.0 + 1e-12) and np.all(c.data >= -1.0 - 1e-12)

    def test_concat_rows_stacks(self):
        out = T.concat_rows([Tensor([1.0, 2.0]), Tensor([[3.0, 4.0], [5.0, 6.0]])])
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4], [5, 6]])

    def test_embedding_lookup(self):
        table = Tensor([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = T.embedding_lookup(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, [[4, 5], [0, 1], [4, 5]])
        with pytest.raises(IndexError):
            T.embedding_lookup(table, [3])

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeMismatchError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
        with pytest.raises(ShapeMismatchError):
            T.row_log_softmax(Tensor(np.ones(3)))
        with pytest.raises(ShapeMismatchError):
            T.diag_part(Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeMismatchError):
            T.concat_rows([Tensor(np.ones(3)), Tensor(np.ones(4))])


class TestShapeMessages:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_ops_name_themselves(self, op):
        with pytest.raises(ShapeMismatchError) as info:
            getattr(T, op)(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
        assert str(info.value) == f"{op}: cannot broadcast (2, 3) with (2, 4)"

    @pytest.mark.parametrize(
        "tensors, message",
        [
            ([], "concat_rows needs at least one tensor"),
            ([Tensor(np.ones(2)), Tensor(np.ones((1, 2, 1)))], "concat_rows expects 1-D or 2-D tensors, got (1, 2, 1)"),
            ([Tensor(np.ones((2, 3))), Tensor(np.ones(4))], "concat_rows width mismatch: 4 vs 3"),
            # checked tensor by tensor: the width mismatch comes before the later 3-D input
            ([Tensor(np.ones(3)), Tensor(np.ones(4)), Tensor(np.ones((1, 1, 1)))], "concat_rows width mismatch: 4 vs 3"),
        ],
        ids=["empty", "3-D", "width", "first-fault-first"],
    )
    def test_concat_rows_messages(self, tensors, message):
        with pytest.raises(ShapeMismatchError) as info:
            T.concat_rows(tensors)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: T.neighbor_sum(np.ones(3), [0], [1]), ShapeMismatchError, "neighbor_sum expects 2-D input, got (3,)"),
            (lambda: T.neighbor_sum(np.ones((3, 2)), [0, 1], [1]), ShapeMismatchError,
             "neighbor_sum edges must be matching 1-D arrays: (2,), (1,)"),
            (lambda: T.neighbor_sum(np.ones((3, 2)), [[0]], [[1]]), ShapeMismatchError,
             "neighbor_sum edges must be matching 1-D arrays: (1, 1), (1, 1)"),
            (lambda: T.neighbor_sum(np.ones((3, 2)), [0], [3]), IndexError, "neighbor_sum edge endpoint out of range for 3 rows"),
            (lambda: T.neighbor_sum(np.ones((3, 2)), [-1], [0]), IndexError, "neighbor_sum edge endpoint out of range for 3 rows"),
            (lambda: T.attention(np.ones((2, 4)), np.ones((2, 4)), np.ones((3, 4)), np.zeros((1, 2)), [0, 1]),
             ShapeMismatchError, "attention: q (2, 4), k (2, 4), v (3, 4)"),
            (lambda: T.attention(np.ones(4), np.ones(4), np.ones(4), np.zeros((1, 2)), [0, 1]),
             ShapeMismatchError, "attention: q (4,), k (4,), v (4,)"),
            (lambda: T.attention(np.ones((2, 4)), np.ones((2, 4)), np.ones((2, 4)), np.zeros(2), [0, 1]),
             ShapeMismatchError, "attention: key_bias (2,) and slots (2,) for 2 rows"),
            (lambda: T.attention(np.ones((2, 4)), np.ones((2, 4)), np.ones((2, 4)), np.zeros((1, 2)), [0]),
             ShapeMismatchError, "attention: key_bias (1, 2) and slots (1,) for 2 rows"),
            (lambda: T.embedding_lookup(Tensor(np.ones((3, 2))), [[0, 1]]), ShapeMismatchError,
             "embedding ids must be 1-D, got (1, 2)"),
            (lambda: T.embedding_lookup(Tensor(np.ones(3)), [0]), ShapeMismatchError, "embedding table must be 2-D, got (3,)"),
            (lambda: T.embedding_lookup(Tensor(np.ones((3, 2))), [0, 1], plus=np.ones((3, 2))), ShapeMismatchError,
             "embedding_lookup: (3, 2) does not broadcast to (2, 2)"),
            (lambda: T.linear(np.ones((2, 3)), np.ones((3, 4)), np.zeros(4), residual=np.ones(4)), ShapeMismatchError,
             "linear: residual (4,) for output (2, 4)"),
            (lambda: T.l2_norm_sq(np.ones(3)), ShapeMismatchError, "l2_norm_sq expects 2-D input, got (3,)"),
            (lambda: T.cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4))), ShapeMismatchError,
             "cosine_similarity_matrix: (2, 3) x (2, 4)"),
            (lambda: T.cosine_similarity_matrix(np.ones(3), np.ones((2, 3))), ShapeMismatchError,
             "cosine_similarity_matrix: (3,) x (2, 3)"),
            (lambda: T.reshape(np.ones((2, 3)), (4, 2)), ShapeMismatchError, "cannot reshape (2, 3) into (4, 2)"),
        ],
        ids=["neighbor-1-D", "neighbor-edge-lengths", "neighbor-edge-2-D", "neighbor-past-end", "neighbor-negative",
             "attention-v", "attention-1-D", "attention-key-bias", "attention-slots", "embedding-ids", "embedding-table",
             "embedding-plus", "linear-residual", "l2-norm-sq", "cosine-width", "cosine-1-D", "reshape"],
    )
    def test_primitive_shape_and_range_messages(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message

    def test_concat_rows_splits_the_gradient_back_to_each_shape(self):
        parts = [Tensor(np.ones(3), requires_grad=True), Tensor(np.ones((0, 3)), requires_grad=True),
                 Tensor(np.ones((2, 3)), requires_grad=True)]
        g = np.arange(9.0).reshape(3, 3)
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(T.concat_rows(parts), g))
        tape.backward(loss)
        for part, rows in zip(parts, (g[0], g[1:1], g[1:])):
            assert same_bits(part.grad, rows)

    def test_diag_part_backward_is_a_diagonal_of_positive_zeros(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(T.diag_part(x), [-1.0, 2.0, -0.0]))
        tape.backward(loss)
        expected = np.zeros((3, 3))
        expected[[0, 1, 2], [0, 1, 2]] = [-1.0, 2.0, -0.0]
        assert same_bits(x.grad, expected)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_diamond_accumulates(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(T.add(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(NonScalarLossError):
            tape.backward(y)

    def test_no_recording_without_tape(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        y = T.mul(x, x)  # outside any active tape
        assert len(tape) == 0 and y.requires_grad

    def test_constants_not_recorded(self):
        with Tape() as tape:
            T.mul(Tensor([1.0]), Tensor([2.0]))
        assert len(tape) == 0

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(77)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            with Tape() as tape:
                loss = T.mean(T.relu(T.matmul(x, w)))
            tape.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_backward_per_term_matches_one_backward_of_the_sum(self):
        # one tape over add(later, first) reaches w through later's records first; backward of later's
        # own tape, then of first's, adds into w.grad in that same order, so the bits agree. Each term
        # reaches w through several records, and the values span 16 decades, so any other order shows.
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        x = [Tensor(rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 8, size=(5, 4))) for _ in range(4)]

        def first(w):
            return T.add(T.tensor_sum(T.matmul(x[0], w)), T.tensor_sum(T.relu(T.matmul(x[1], w))))

        def later(w):
            return T.add(T.mean(T.mul(T.matmul(x[2], w), T.matmul(x[3], w))), T.tensor_sum(T.mul(w, w)))

        w = Tensor(w0.copy(), requires_grad=True)
        with Tape() as tape:
            a = first(w)
            total = T.add(later(w), a)
        tape.backward(total)
        want = w.grad
        w = Tensor(w0.copy(), requires_grad=True)
        for term in (later, first):
            with Tape() as tape:
                loss = term(w)
            tape.backward(loss)
        assert same_bits(w.grad, want)

    def test_backward_adds_into_grad_until_it_is_cleared(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        grads = []
        for _ in range(2):
            with Tape() as tape:
                loss = T.tensor_sum(T.relu(T.matmul(x, w)))  # one contribution to w
            tape.backward(loss)
            grads.append(w.grad)
        assert same_bits(grads[1], grads[0] + grads[0])
        w.grad = None  # what Adam.step does once it has read it
        with Tape() as tape:
            loss = T.tensor_sum(T.relu(T.matmul(x, w)))
        tape.backward(loss)
        assert same_bits(w.grad, grads[0])
        # check_gradient clears .grad itself, so a held gradient does not leak into its answer
        x = Tensor([0.5, -1.5, 2.0], requires_grad=True)
        clean = check_gradient(lambda t: T.tensor_sum(T.mul(t, t)), x)
        x.grad = np.full(3, 1e6)
        assert check_gradient(lambda t: T.tensor_sum(T.mul(t, t)), x) == clean <= 1e-8
        assert same_bits(x.grad, 2.0 * x.data)

    def test_a_tape_backpropagating_into_another_tapes_intermediate_adds_to_it(self):
        # tape B's loss reads y, which tape A produced: B leaves its gradient in y.grad, and A's backward
        # carries it on into w, so the two tapes give the bits of one backward over both terms
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 8, size=(5, 4)))
        w0 = rng.normal(size=(4, 3))

        def term_a(y):
            return T.tensor_sum(T.relu(y))

        def term_b(y):
            return T.mean(T.mul(y, y))

        w = Tensor(w0.copy(), requires_grad=True)
        with Tape() as tape:
            y = T.matmul(x, w)
            total = T.add(term_a(y), term_b(y))
        tape.backward(total)
        want = w.grad
        w = Tensor(w0.copy(), requires_grad=True)
        with Tape() as tape_a:
            y = T.matmul(x, w)
            loss_a = term_a(y)
        with Tape() as tape_b:
            loss_b = term_b(y)
        tape_b.backward(loss_b)
        assert w.grad is None and y.grad is not None
        tape_a.backward(loss_a)
        assert same_bits(w.grad, want) and y.grad is None

    def test_backward_clears_every_intermediate_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            h = T.relu(T.matmul(x, w))
            loss = T.add(T.tensor_sum(h), T.mean(T.mul(h, h)))  # h feeds three records
            T.tensor_sum(T.mul(w, w))  # recorded after the loss, so it receives no gradient
        tape.backward(loss)
        assert w.grad is not None
        assert all(out.grad is None for out in tape.outputs_between(0, len(tape)))

    # primitive -> (its call, its input shapes): the primitives that take a parameter beside a constant
    MIXED_INPUTS = {
        "add": (T.add, [(3, 4), (1, 4)]),
        "sub": (T.sub, [(3, 1), (3, 4)]),
        "mul": (T.mul, [(3, 4), (4,)]),
        "matmul": (T.matmul, [(3, 5), (5, 4)]),
        "linear": (lambda x, w, b, r: T.linear(x, w, b, relu=True, residual=r), [(3, 5), (5, 4), (4,), (3, 4)]),
        "embedding_sum": (lambda a, b: T.embedding_sum([a, b], [[0, 2, 2], [1, 1, 0]]), [(3, 4), (2, 4)]),
        "neighbor_sum_eps": (lambda x, eps: T.neighbor_sum(x, [0, 1, 2, 2], [1, 2, 0, 1], eps=eps), [(3, 4), ()]),
    }

    @pytest.mark.parametrize("name", list(MIXED_INPUTS))
    def test_a_constant_input_keeps_no_gradient_and_changes_no_other(self, name):
        # Tape.backward alone decides who keeps a gradient: making any one input a constant leaves it no
        # .grad and every tracked input's .grad the bits it has when all are tracked
        call, shapes = self.MIXED_INPUTS[name]
        rng = np.random.default_rng(9)
        values = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape) for shape in shapes]

        def grads(tracked):
            inputs = [Tensor(v, requires_grad=on) for v, on in zip(values, tracked)]
            with Tape() as tape:
                out = call(*inputs)
                loss = T.tensor_sum(T.mul(out, Tensor(rng.normal(size=out.data.shape))))
            tape.backward(loss)
            return [t.grad for t in inputs]

        state = rng.bit_generator.state
        every = grads([True] * len(values))
        for constant in range(len(values)):
            rng.bit_generator.state = state  # the same output weights
            tracked = [i != constant for i in range(len(values))]
            got = grads(tracked)
            assert got[constant] is None
            assert all(same_bits(g, want) for g, want, on in zip(got, every, tracked) if on)

    @pytest.mark.parametrize("n_ids", [0, 1, 500])
    def test_embedding_lookup_backward_sums_as_add_at(self, n_ids):
        rng = np.random.default_rng(n_ids)
        vocab, dim = 12, 5
        # heavy repeats: id 3 fills about half the slots, ids 10 and 11 never appear
        ids = np.where(rng.random(n_ids) < 0.5, 3, rng.integers(0, 10, size=n_ids))
        g = rng.normal(size=(n_ids, dim)) * 10.0 ** rng.integers(-12, 12, size=(n_ids, dim))
        g[rng.random(n_ids) < 0.2] = -0.0
        g[ids == 7] = -0.0  # an id whose every row is -0.0: add.at's sum is +0.0
        table = Tensor(rng.normal(size=(vocab, dim)), requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(T.embedding_lookup(table, ids), Tensor(g)))
        tape.backward(loss)
        expected = np.zeros((vocab, dim))
        np.add.at(expected, ids, g)
        assert same_bits(table.grad, expected)
        assert np.array_equal(np.signbit(table.grad), np.signbit(expected))


class TestStopGradient:
    def test_forward_identity(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        y = stop_gradient(x)
        np.testing.assert_array_equal(y.data, x.data)
        assert not y.requires_grad

    def test_blocks_all_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(stop_gradient(x))
        tape.backward(loss)
        assert x.grad is None

    def test_partial_block_exact(self):
        # d/dx sum(x * sg(x)) must equal the frozen copy of x, bit for bit
        x = Tensor([1.5, -0.25, 4.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(x, stop_gradient(x)))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, x.data)

    def test_matches_frozen_copy_oracle(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        frozen = Tensor(x.data.copy())  # independent constant snapshot

        with Tape() as tape:
            loss = T.tensor_sum(T.mul(x, stop_gradient(x)))
        tape.backward(loss)
        live_grad = x.grad.copy()

        err = check_gradient(lambda t: T.tensor_sum(T.mul(t, frozen)), x)
        assert err <= 1e-7
        np.testing.assert_array_equal(live_grad, frozen.data)

    def test_tape_audit_no_flow_into_blocked_branch(self):
        w = Tensor(np.random.default_rng(6).normal(size=(3, 3)), requires_grad=True)
        x = Tensor(np.eye(3))
        with Tape() as tape:
            m0 = tape.mark()
            branch = T.matmul(x, w)  # will be cut off below
            m1 = tape.mark()
            loss = T.tensor_sum(T.add(T.matmul(x, w), stop_gradient(branch)))
        tape.backward(loss)
        assert w.grad is not None
        for out in tape.outputs_between(m0, m1):
            assert out.grad is None


class TestCheckGradient:
    def test_quadratic_is_clean(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        assert check_gradient(lambda t: T.tensor_sum(T.mul(t, t)), x) <= 1e-7

    def test_unused_input_reports_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert check_gradient(lambda t: T.tensor_sum(Tensor([3.0])), x) == 0.0

    def test_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NonScalarLossError):
            check_gradient(lambda t: T.mul(t, t), x)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,build", PRIMITIVE_CASES, ids=[n for n, _ in PRIMITIVE_CASES])
    def test_primitive(self, name, build):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(20):
            f, x = build(rng)
            worst = max(worst, check_gradient(f, x))
        assert worst <= 1e-4, f"{name}: worst relative error {worst:.3e}"


class TestLeanPaths:
    """The one-record and in-place paths give the same bits as the plain formulas."""

    @staticmethod
    def outputs_and_grads(layer, arrays, g):
        """layer's forward bytes and every input's gradient of sum(out * g), and the records it leaves."""
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = layer(*tensors)
            loss = T.tensor_sum(T.mul(out, Tensor(g)))
        tape.backward(loss)
        return len(tape), [out.data, *(t.grad for t in tensors)]

    @pytest.mark.parametrize("bias_shape", [(4,), (1, 4), (7, 4)])
    def test_linear_matches_add_of_matmul(self, bias_shape):
        rng = np.random.default_rng(21)
        arrays = rng.normal(size=(7, 5)), rng.normal(size=(5, 4)), rng.normal(size=bias_shape)
        g = rng.normal(size=(7, 4))
        records, got = self.outputs_and_grads(T.linear, arrays, g)
        _, want = self.outputs_and_grads(lambda x, w, b: T.add(T.matmul(x, w), b), arrays, g)
        assert records == 3  # linear, mul, sum
        for a, b in zip(got, want):
            assert same_bits(a, b)

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatchError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatchError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros((2, 2, 4))))

    def test_relu_matches_where(self):
        x0 = np.array([[-0.0, 0.0, -1.5, 2.5], [1e-300, -1e-300, 7.0, -0.0]])
        g = np.arange(8.0).reshape(2, 4) - 3.5
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            out = T.relu(x)
            loss = T.tensor_sum(T.mul(out, Tensor(g)))
        tape.backward(loss)
        assert same_bits(out.data, np.where(x0 > 0, x0, 0.0))
        assert not np.signbit(out.data).any()
        assert same_bits(x.grad, g * (x0 > 0))

    def test_relu_zeroes_minus_infinity(self):
        # keep > 0 and zero the rest, -inf included, with no invalid-value warning; NaN stays NaN
        pre = np.array([[-np.inf, np.inf, np.nan, -1.0, 2.0]])
        want = np.array([[0.0, np.inf, np.nan, 0.0, 2.0]])
        g = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        with np.errstate(invalid="raise"):
            for layer, arrays in (
                (T.relu, (pre,)),
                (lambda x, w, b: T.linear(x, w, b, relu=True), (np.zeros((1, 2)), np.zeros((2, 5)), pre)),
            ):
                _, (out, *grads) = self.outputs_and_grads(layer, arrays, g)
                assert same_bits(out, want) and same_bits(grads[-1], g * (pre > 0))

    @staticmethod
    def edge_rows():
        """x (4, 3), w (3, 5), b (5,) whose pre-activations hold -0.0 (where BLAS keeps the sign of
        underflowed products), an exact 0.0 and NaN, with negatives and positives around them."""
        x = np.array([[1e-200, 1e-200, 1e-200], [1.0, -1.0, 0.0], [np.nan, 1.0, 1.0], [0.5, -2.0, 1.5]])
        w = np.array([[-1e-200, 2.0, 0.3, -1.0, 4.0], [-1e-200, 2.0, -0.7, 1.0, -4.0], [-1e-200, 7.0, 1.1, -0.2, 0.5]])
        b = np.array([-0.0, 0.0, -0.1, 0.2, -0.0])
        return x, w, b

    def test_linear_relu_matches_relu_of_linear(self):
        x, w, b = self.edge_rows()
        g = np.arange(20.0).reshape(4, 5) - 9.5
        records, got = self.outputs_and_grads(lambda x, w, b: T.linear(x, w, b, relu=True), (x, w, b), g)
        parent_records, want = self.outputs_and_grads(lambda x, w, b: T.relu(T.linear(x, w, b)), (x, w, b), g)
        assert (records, parent_records) == (3, 4)  # one record fewer: linear, mul, sum
        assert np.isnan(got[0]).any() and (got[0] == 0.0).any()
        for a, b in zip(got, want):
            assert same_bits(a, b)

    def test_linear_residual_matches_add_of_linear(self):
        x, w, b = self.edge_rows()
        r = np.array([[-0.0, 0.0, 1.0, -0.0, np.nan]] * 4)
        r[1] = [0.0, -0.0, -0.0, 2.0, -1.0]
        g = np.arange(20.0).reshape(4, 5) - 9.5
        records, got = self.outputs_and_grads(
            lambda r, x, w, b: T.linear(x, w, b, residual=r), (r, x, w, b), g
        )
        parent_records, want = self.outputs_and_grads(
            lambda r, x, w, b: T.add(r, T.linear(x, w, b)), (r, x, w, b), g
        )
        assert (records, parent_records) == (3, 4)
        for a, b in zip(got, want):
            assert same_bits(a, b)

    def test_lookup_plus_matches_add_of_lookup(self):
        table = np.array([[-0.0, 0.0, 1.5], [np.nan, -2.0, -0.0], [0.25, -0.0, 0.0], [3.0, 4.0, -5.0]])
        ids = np.array([0, 2, 1, 0, 3, 2])
        plus = np.array([[-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, np.nan, 0.0]] * 2)
        g = np.arange(18.0).reshape(6, 3) - 8.5
        records, got = self.outputs_and_grads(lambda t: T.embedding_lookup(t, ids, plus=plus), (table,), g)
        parent_records, want = self.outputs_and_grads(
            lambda t: T.add(T.embedding_lookup(t, ids), Tensor(plus)), (table,), g
        )
        assert (records, parent_records) == (3, 4)
        for a, b in zip(got, want):
            assert same_bits(a, b)

    def test_embedding_sum_matches_pairwise_adds_of_lookups(self):
        rng = np.random.default_rng(31)
        tables = [np.array([[-0.0, 0.0, 1.5], [np.nan, -2.0, -0.0]]), rng.normal(size=(4, 3)),
                  np.array([[-0.0, -0.0, -0.0], [1e300, -1e-300, 0.0], [-1e300, 3.0, -0.0]]), rng.normal(size=(2, 3))]
        ids = [np.array([0, 1, 0, 0, 1]), np.array([3, 3, 0, 2, 1]), np.array([0, 1, 2, 0, 0]), np.array([1, 0, 1, 1, 0])]
        g = np.arange(15.0).reshape(5, 3) - 6.5
        records, got = self.outputs_and_grads(lambda *t: T.embedding_sum(t, ids), tables, g)

        def pairwise(*t):
            lookups = [T.embedding_lookup(table, i) for table, i in zip(t, ids)]
            return T.add(T.add(lookups[0], lookups[1]), T.add(lookups[2], lookups[3]))

        parent_records, want = self.outputs_and_grads(pairwise, tables, g)
        assert (records, parent_records) == (3, 9)
        for a, b in zip(got, want):
            assert same_bits(a, b)
        _, got = self.outputs_and_grads(lambda *t: T.embedding_sum(t, ids[:3]), tables[:3], g)
        _, want = self.outputs_and_grads(
            lambda *t: T.add(T.add(*(T.embedding_lookup(table, i) for table, i in zip(t[:2], ids))),
                             T.embedding_lookup(t[2], ids[2])), tables[:3], g)
        for a, b in zip(got, want):
            assert same_bits(a, b)

    def test_embedding_sum_refusals(self):
        table = Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeMismatchError, match=r"^embedding_sum: 1 tables for 2 id arrays$"):
            T.embedding_sum([table], [[0], [1]])
        with pytest.raises(ShapeMismatchError, match=r"^embedding_sum: lookups of shapes \[\(1, 2\), \(2, 2\)\]$"):
            T.embedding_sum([table, table], [[0], [1, 2]])
        with pytest.raises(IndexError, match=r"^embedding id out of range for table of 3 rows$"):
            T.embedding_sum([table, table], [[0], [3]])

    @pytest.mark.parametrize("later_use", [False, True])
    def test_neighbor_sum_eps_matches_the_gin_update(self, later_use):
        # row 0 has three incoming edges and a self-loop, row 3 none; eps below -1 flips the self term.
        # With a later use, x's gradient holds two terms before these records add theirs, so the order
        # of those two additions shows in the bits.
        src, dst = np.array([1, 2, 0, 3, 0, 2]), np.array([0, 0, 0, 0, 1, 2])
        rng = np.random.default_rng(32)
        x = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        if not later_use:
            x[:3] = [[-0.0, 0.0, 1.5], [np.nan, -2.0, -0.0], [0.25, -0.0, 1e-300]]
        g = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))

        def then(out, h):
            return T.add(out, T.mul(h, h)) if later_use else out

        for eps in (np.array(0.0), np.array(-0.0), np.array(-1.0), np.array(0.37)):
            arrays = (x, eps)
            records, got = self.outputs_and_grads(lambda h, e: then(T.neighbor_sum(h, src, dst, eps=e), h), arrays, g)
            parent_records, want = self.outputs_and_grads(
                lambda h, e: then(T.add(T.mul(h, T.add(e, 1.0)), T.neighbor_sum(h, src, dst)), h), arrays, g
            )
            assert parent_records - records == 3
            for a, b in zip(got, want):
                assert same_bits(a, b)
        with pytest.raises(ShapeMismatchError, match=r"^neighbor_sum: eps must be a scalar, got shape \(3,\)$"):
            T.neighbor_sum(Tensor(x), src, dst, eps=np.zeros(3))

    @staticmethod
    def plain_attention(q, k, v, key_bias, slots, g):
        """Forward and backward written out without dead-score skipping or in-place updates."""
        batch, length = key_bias.shape
        d = q.shape[1]
        scale = 1.0 / np.sqrt(d)

        def padded(rows):
            buf = np.zeros((batch * length, d))
            buf[slots] = rows
            return buf.reshape(batch, length, d)

        def token_rows(blocks):
            return blocks.reshape(batch * length, d)[slots]

        q3, k3, v3, g3 = padded(q), padded(k), padded(v), padded(g)
        p = q3 @ k3.transpose(0, 2, 1)
        p *= scale
        p += key_bias[:, None, :]
        p -= p.max(axis=2, keepdims=True)
        with np.errstate(under="ignore"):
            np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        dp = g3 @ v3.transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=2, keepdims=True)) * scale
        return (
            token_rows(p @ v3),
            token_rows(ds @ k3),
            token_rows(ds.transpose(0, 2, 1) @ q3),
            token_rows(p.transpose(0, 2, 1) @ g3),
        )

    def test_attention_matches_plain_formula_with_dead_scores(self):
        rng = np.random.default_rng(8)
        # two sequences of 5 and 3 rows in a (2, 6) layout; in the first, valid
        # keys sit 800, 746.5 and 740 below the rest, one more is [PAD]-masked
        slots = np.array([0, 1, 2, 3, 4, 6, 7, 8])
        key_bias = np.full((2, 6), -1e30)
        key_bias.reshape(-1)[slots] = 0.0
        key_bias[0, 1], key_bias[0, 2], key_bias[0, 3], key_bias[0, 4] = -800.0, -746.5, -740.0, -1e30
        q0, k0, v0, g = (rng.normal(size=(8, 3)) for _ in range(4))
        q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        with Tape() as tape:
            out = T.attention(q, k, v, key_bias, slots)
            loss = T.tensor_sum(T.mul(out, Tensor(g)))
        tape.backward(loss)
        want = self.plain_attention(q0, k0, v0, key_bias, slots, g)
        for a, b in zip([out.data, q.grad, k.grad, v.grad], want):
            assert same_bits(a, b)

    def test_attention_masked_keys_do_not_trip_an_underflow_trap(self):
        # a masked key's exp underflows to exactly 0.0; a caller's np.seterr(under="raise") must not fail on it
        rng = np.random.default_rng(8)
        slots = np.array([0, 1, 2, 3, 4, 6, 7, 8])
        key_bias = np.full((2, 6), -1e30)
        key_bias.reshape(-1)[slots] = 0.0
        key_bias[0, 4] = -1e30
        q, k, v = (rng.normal(size=(8, 3)) for _ in range(3))
        want = T.attention(q, k, v, key_bias, slots).data
        with np.errstate(under="raise"):
            got = T.attention(q, k, v, key_bias, slots).data
        assert same_bits(got, want)


def reduceat_edge_sum(x, src, dst, n):
    """The edge sum through np.add.reduceat over dst-sorted edges: the oracle for rows of up to 8 edges."""
    out = np.zeros((n, x.shape[1]))
    if src.size:
        order = np.argsort(dst, kind="stable")
        targets, starts = np.unique(dst[order], return_index=True)
        out[targets] = np.add.reduceat(x[src[order]], starts, axis=0)
    return out


def edge_order_sum(x, src, dst, n):
    """The documented order, one row at a time: first term + (-0.0 + the later terms, in edge order)."""
    out = np.zeros((n, x.shape[1]))
    for row in range(n):
        terms = [x[j] for j, i in zip(src, dst) if i == row]
        if terms:
            rest = np.full(x.shape[1], -0.0)
            for term in terms[1:]:
                rest = rest + term
            out[row] = terms[0] + rest
    return out


def neighbor_sum_bits(x0, src, dst, g):
    """neighbor_sum's forward rows and the gradient of sum(out * g) with respect to x."""
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        out = T.neighbor_sum(x, src, dst)
        loss = T.tensor_sum(T.mul(out, Tensor(g)))
    tape.backward(loss)
    return out.data, x.grad


def with_signed_zeros(rng, shape):
    """Normal values with about a quarter +0.0 and a quarter -0.0 entries."""
    values = rng.normal(size=shape)
    pick = rng.random(shape)
    values[pick < 0.25] = 0.0
    values[pick > 0.75] = -0.0
    return values


class TestNeighborSumBits:
    """neighbor_sum's bits against np.add.reduceat and against the documented edge order.

    reduceat is compared only on data with no zeros: numpy versions may differ
    in the value a pairwise sum starts from, which shows only in a zero's sign.
    Signed zeros are checked against the explicit reference.
    """

    @pytest.fixture(scope="class")
    def pool_graphs(self):
        return [parse_smiles(smiles) for smiles in toydata.smiles_pool(4634)]

    @pytest.mark.parametrize("batch", [1, 32, 4634])
    def test_pool_edges_match_reduceat(self, pool_graphs, batch):
        rng = np.random.default_rng(batch)
        for first in range(0, len(pool_graphs), batch):
            _, kinds, src, dst, _ = batch_columns(pool_graphs[first : first + batch])
            x, g = rng.normal(size=(2, len(kinds), 3))
            out, grad = neighbor_sum_bits(x, src, dst, g)
            assert same_bits(out, reduceat_edge_sum(x, src, dst, len(kinds)))
            assert same_bits(grad, reduceat_edge_sum(g, dst, src, len(kinds)))

    def test_self_loops_repeats_and_empty_rows(self):
        rng = np.random.default_rng(19)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            src = rng.integers(0, n, size=int(rng.integers(0, 14)))
            dst = rng.integers(0, max(n - 1, 1), size=src.size)  # row n - 1 gets no edge when n > 1
            if np.bincount(dst, minlength=n).max(initial=0) > 8 or np.bincount(src, minlength=n).max(initial=0) > 8:
                continue
            x, g = rng.normal(size=(2, n, 4))
            out, grad = neighbor_sum_bits(x, src, dst, g)
            assert same_bits(out, reduceat_edge_sum(x, src, dst, n)), trial
            assert same_bits(grad, reduceat_edge_sum(g, dst, src, n)), trial
            x, g = with_signed_zeros(rng, (2, n, 4))
            out, grad = neighbor_sum_bits(x, src, dst, g)
            assert same_bits(out, edge_order_sum(x, src, dst, n)), trial
            assert same_bits(grad, edge_order_sum(g, dst, src, n)), trial

    @pytest.mark.parametrize("degree", [9, 10, 11, 12])
    def test_high_in_degree_star_sums_in_edge_order(self, degree):
        # beyond 8 edges reduceat switches to a pairwise sum; neighbor_sum keeps the edge order.
        # Row 0 has a self-loop and an edge to and from each leaf, so it has `degree` incoming
        # edges both forward and over the reversed edges of the backward pass.
        rng = np.random.default_rng(degree)
        n = degree
        leaves = np.arange(1, n)
        edges = rng.permutation(np.concatenate([[[0, 0]], np.c_[leaves, 0 * leaves], np.c_[0 * leaves, leaves]]))
        src, dst = edges.T
        spread = rng.normal(size=(2, n, 5)) * 10.0 ** rng.integers(-8, 9, size=(2, n, 5))
        for x, g in [spread, with_signed_zeros(rng, (2, n, 5))]:
            x[:, 0] = -0.0  # a column of -0.0 terms sums to -0.0
            out, grad = neighbor_sum_bits(x, src, dst, g)
            assert same_bits(out, edge_order_sum(x, src, dst, n))
            assert same_bits(grad, edge_order_sum(g, dst, src, n))
            assert np.signbit(out[0, 0])


class TestTargetBranchAudit:
    """Acceptance test 2 audits a target branch; these controls show the audit can fail.

    With .grad filled on leaves only, the outputs recorded inside a branch
    never carry a gradient, so the check that matters is on the parameters:
    a target branch left on the tape must change some text parameter's
    gradient against the constant-target oracle, and er_loss must not.
    """

    @staticmethod
    def setup_model():
        vocab = build_vocab(["soluble ring acid aromatic polar salt binds receptor amine toxic"], cap=64)
        cfg = ModelConfig(hidden_dim=8, embed_dim=8, projection_dim=4, gin_layers=1, text_blocks=1, max_len=12)
        model = MolTextModel(cfg, vocab, seed=5)
        texts = ["soluble ring acid", "aromatic polar salt", "binds receptor amine"]
        texts_ids = [tokenize(vocab, t, 12) for t in texts]
        tilde_ids = [tokenize(vocab, f"{t} [SEP] toxic ring", 12) for t in texts]
        return model, texts_ids, tilde_ids

    @staticmethod
    def text_grads(model, build_loss):
        params = model.parameters()
        with Tape() as tape:
            loss = build_loss()
        tape.backward(loss)
        grads = {n: p.grad for n, p in params.items() if n.startswith(("text.", "proj_text."))}
        for p in params.values():
            p.grad = None
        return loss.item(), grads

    def test_live_target_branch_changes_gradients_er_loss_does_not(self):
        model, texts_ids, tilde_ids = self.setup_model()
        targets = Tensor(model.embed_texts(tilde_ids).data)  # computed off any tape

        def distance(z_tilde):
            return T.mean(T.l2_norm_sq(T.sub(T.concat_rows([model.embed_texts(texts_ids)]), z_tilde)))

        oracle_loss, oracle = self.text_grads(model, lambda: distance(targets))
        live_loss, live = self.text_grads(model, lambda: distance(model.embed_texts(tilde_ids)))
        real_loss, real = self.text_grads(model, lambda: er_loss(model.embed_texts, [texts_ids], [tilde_ids]))

        assert oracle_loss == live_loss == real_loss
        assert any(
            float(np.max(np.abs(live[n] - oracle[n]))) > 1e-6 for n in oracle
        ), "a live target branch left every text gradient unchanged"
        for name, grad in oracle.items():
            assert same_bits(real[name], grad), name
