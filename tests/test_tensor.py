"""Autodiff engine checks: forward values, tape semantics, gradients vs central differences."""

import zlib

import numpy as np
import pytest

from moltext import tensor as T
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

    @pytest.mark.parametrize("bias_shape", [(4,), (1, 4), (7, 4)])
    def test_linear_matches_add_of_matmul(self, bias_shape):
        rng = np.random.default_rng(21)
        x0, w0, b0 = rng.normal(size=(7, 5)), rng.normal(size=(5, 4)), rng.normal(size=bias_shape)
        g = Tensor(rng.normal(size=(7, 4)))

        def run(layer):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
            with Tape() as tape:
                out = layer(x, w, b)
                loss = T.tensor_sum(T.mul(out, g))
            tape.backward(loss)
            return len(tape), [out.data, x.grad, w.grad, b.grad]

        records, got = run(T.linear)
        _, want = run(lambda x, w, b: T.add(T.matmul(x, w), b))
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
