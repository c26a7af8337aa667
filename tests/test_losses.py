"""Loss checks: pseudo-label algebra, directional cross-entropies, the InfoNCE
limit, regularization gradients through stop_gradient, and decomposition."""

import numpy as np
import pytest

from moltext import tensor as T
from moltext.losses import (
    LossConfig,
    er_loss,
    infonce_directions,
    infonce_loss,
    pseudo_labels,
    s2p_loss,
    total_loss,
)
from moltext.tensor import Tape, Tensor


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestPseudoLabels:
    def test_uniform_similarities_give_uniform_rows(self):
        out = pseudo_labels(np.full((3, 3), 0.42), tau1=0.07)
        np.testing.assert_allclose(out, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_closed_form_two_entries(self):
        # softmax([1, 0]) = [e/(e+1), 1/(e+1)]
        out = pseudo_labels(np.array([1.0, 0.0]), tau1=1.0)
        e = np.e
        np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_one_hot_limit(self):
        sims = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
        out = pseudo_labels(sims, tau1=1e-3)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-9)

    def test_rows_sum_to_one_across_temperatures(self):
        rng = np.random.default_rng(0)
        for tau1 in (1e-4, 0.01, 0.1, 1.0, 10.0):
            sims = rng.uniform(0, 1, size=(6, 6))
            np.testing.assert_allclose(pseudo_labels(sims, tau1).sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_temperature_stays_finite(self):
        out = pseudo_labels(np.array([[1.0, 0.0, 0.5]]), tau1=1e-6)
        assert np.all(np.isfinite(out))

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            pseudo_labels(np.ones(3), tau1=0.0)

    def test_three_dimensional_similarities_rejected(self):
        with pytest.raises(ValueError, match=r"^similarities must be 1-D or 2-D, got shape \(2, 2, 2\)$"):
            pseudo_labels(np.ones((2, 2, 2)), tau1=0.1)


class TestS2P:
    def test_single_pair_is_zero(self):
        z_t = Tensor([[1.0, 0.0]])
        z_m = Tensor([[0.0, 1.0]])
        t2m, m2t = s2p_loss(z_t, z_m, np.array([[1.0]]), LossConfig())
        assert t2m.item() == 0.0 and m2t.item() == 0.0

    def test_uniform_case_equals_log_n(self):
        # equal similarities and identical embeddings: predictions match the
        # uniform pseudo-labels exactly, so each direction is the entropy log N
        n = 5
        z = Tensor(np.tile(np.array([[0.6, 0.8]]), (n, 1)))
        t2m, m2t = s2p_loss(z, z, np.ones((n, n)), LossConfig(tau1=0.3, tau2=0.7))
        np.testing.assert_allclose(t2m.item(), np.log(n), atol=1e-12)
        np.testing.assert_allclose(m2t.item(), np.log(n), atol=1e-12)

    def test_matched_prediction_equals_entropy(self):
        # build embeddings whose prediction rows equal the pseudo-label rows,
        # so the cross-entropy collapses to the Shannon entropy of the labels
        rng = np.random.default_rng(1)
        n, tau1, tau2 = 4, 0.5, 0.05
        sims = rng.uniform(0, 1, size=(n, n))
        y = pseudo_labels(sims, tau1)
        target = tau2 * (np.log(y) - np.log(y).mean(axis=1, keepdims=True))
        assert np.all(np.abs(target).sum(axis=1) ** 2 <= 1.0)
        z_mol = np.zeros((n, 2 * n))
        z_mol[:, :n] = np.eye(n)
        z_text = np.zeros((n, 2 * n))
        z_text[:, :n] = target
        z_text[np.arange(n), n + np.arange(n)] = np.sqrt(1.0 - (target**2).sum(axis=1))
        cfg = LossConfig(tau1=tau1, tau2=tau2)
        t2m, _ = s2p_loss(Tensor(z_text), Tensor(z_mol), sims, cfg)
        entropy = -(y * np.log(y)).sum(axis=1).mean()
        np.testing.assert_allclose(t2m.item(), entropy, atol=1e-9)

    def test_t2m_matches_directional_infonce_at_identity(self):
        rng = np.random.default_rng(2)
        z_t = Tensor(unit_rows(rng, 6, 8))
        z_m = Tensor(unit_rows(rng, 6, 8))
        cfg = LossConfig(tau1=1e-3, tau2=0.2)
        t2m, _ = s2p_loss(z_t, z_m, np.eye(6), cfg)
        nce_t2m, _ = infonce_directions(z_m, z_t, tau=0.2)
        assert abs(t2m.item() - nce_t2m.item()) <= 1e-6

    def test_infonce_limit_total(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z_t = Tensor(unit_rows(rng, 8, 16))
            z_m = Tensor(unit_rows(rng, 8, 16))
            cfg = LossConfig(tau1=1e-4, tau2=0.1)
            t2m, m2t = s2p_loss(z_t, z_m, np.eye(8), cfg)
            s2p_total = t2m.item() + m2t.item()
            nce = infonce_loss(z_m, z_t, tau=0.1).item()
            assert abs(s2p_total - nce) <= 1e-5

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(4)
        n = 7
        z_t, z_m = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
        sims = rng.uniform(0, 1, size=(n, n))
        cfg = LossConfig()
        base = [x.item() for x in s2p_loss(Tensor(z_t), Tensor(z_m), sims, cfg)]
        perm = rng.permutation(n)
        permuted = [
            x.item()
            for x in s2p_loss(Tensor(z_t[perm]), Tensor(z_m[perm]), sims[np.ix_(perm, perm)], cfg)
        ]
        np.testing.assert_allclose(permuted, base, atol=1e-12)

    def test_finite_for_huge_embeddings(self):
        rng = np.random.default_rng(5)
        z_t = Tensor(rng.normal(scale=1e6, size=(5, 8)))
        z_m = Tensor(rng.normal(scale=1e6, size=(5, 8)))
        cfg = LossConfig(tau1=1e-4, tau2=1e-4)
        t2m, m2t = s2p_loss(z_t, z_m, rng.uniform(0, 1, (5, 5)), cfg)
        assert np.isfinite(t2m.item()) and np.isfinite(m2t.item())

    def test_shape_validation(self):
        z = Tensor(np.ones((3, 4)))
        with pytest.raises(ValueError):
            s2p_loss(z, Tensor(np.ones((2, 4))), np.eye(3), LossConfig())
        with pytest.raises(ValueError):
            s2p_loss(z, z, np.eye(4), LossConfig())


class TestInfoNCE:
    def test_single_pair_is_zero(self):
        z = Tensor([[0.6, 0.8]])
        assert infonce_loss(z, z, tau=0.1).item() == 0.0

    def test_identical_embeddings(self):
        # uniform softmax in both directions: each direction contributes log N,
        # and the loss is their unhalved sum
        n = 6
        z = Tensor(np.tile(np.array([[1.0, 2.0, 2.0]]), (n, 1)))
        np.testing.assert_allclose(infonce_loss(z, z, tau=0.1).item(), 2 * np.log(n), atol=1e-9)

    def test_saturated_diagonal_near_zero(self):
        # orthogonal pairs aligned on the diagonal at low temperature
        z = Tensor(np.eye(3, 8))
        assert infonce_loss(z, z, tau=0.05).item() < 1e-8

    def test_swap_symmetry(self):
        rng = np.random.default_rng(6)
        z_m = Tensor(unit_rows(rng, 5, 8))
        z_t = Tensor(unit_rows(rng, 5, 8))
        a = infonce_loss(z_m, z_t, tau=0.2).item()
        b = infonce_loss(z_t, z_m, tau=0.2).item()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_directions_sum_to_loss(self):
        rng = np.random.default_rng(7)
        z_m = Tensor(unit_rows(rng, 4, 6))
        z_t = Tensor(unit_rows(rng, 4, 6))
        t2m, m2t = infonce_directions(z_m, z_t, tau=0.3)
        np.testing.assert_allclose(
            infonce_loss(z_m, z_t, tau=0.3).item(), t2m.item() + m2t.item(), atol=1e-15
        )


    def test_bad_tau_or_batch_mismatch_rejected(self):
        z = Tensor(np.ones((3, 4)))
        with pytest.raises(ValueError, match=r"^tau must be positive, got 0.0$"):
            infonce_directions(z, z, tau=0.0)
        with pytest.raises(ValueError, match=r"^batch sizes disagree between embeddings$"):
            infonce_directions(z, Tensor(np.ones((2, 4))), tau=0.1)


class TestER:
    def test_worked_single_pair(self):
        # f(t) = [1, 0], frozen target [0, 1]: squared distance 2
        def f_text(ids):
            return Tensor([1.0, 0.0]) if ids == [1] else Tensor([0.0, 1.0])

        assert er_loss(f_text, [[1]], [[2]]).item() == pytest.approx(2.0)

    def test_identical_texts_give_zero(self):
        w = Tensor(np.random.default_rng(8).normal(size=(3, 4)), requires_grad=True)

        def f_text(ids):
            onehot = np.zeros((1, 3))
            onehot[0, ids[0]] = 1.0
            return T.reshape(T.matmul(Tensor(onehot), w), (4,))

        assert er_loss(f_text, [[0], [1]], [[0], [1]]).item() == 0.0

    def test_gradient_matches_frozen_target_oracle(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def f_text(ids):
            sel = np.zeros((1, 5))
            for i in ids:
                sel[0, i] += 1.0
            return T.reshape(T.matmul(Tensor(sel), w), (4,))

        texts, tildes = [[0], [1, 2]], [[3], [4, 0]]
        with Tape() as tape:
            loss = er_loss(f_text, texts, tildes)
        tape.backward(loss)
        live = w.grad.copy()

        # oracle: targets precomputed outside the tape, plain constants
        targets = np.stack([f_text(ids).data for ids in tildes])
        w.grad = None
        with Tape() as tape:
            z = T.concat_rows([f_text(ids) for ids in texts])
            frozen = T.mean(T.l2_norm_sq(T.sub(z, Tensor(targets))))
        tape.backward(frozen)
        np.testing.assert_allclose(live, w.grad, atol=1e-12)
        assert loss.item() == pytest.approx(frozen.item(), abs=1e-15)

    def test_no_gradient_reaches_tilde_branch(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f_text(ids):
            sel = np.zeros((1, 4))
            sel[0, ids[0]] = 1.0
            return T.reshape(T.matmul(Tensor(sel), w), (3,))

        with Tape() as tape:
            z = T.concat_rows([f_text([0])])
            m0 = tape.mark()
            z_tilde = T.concat_rows([f_text([1])])
            m1 = tape.mark()
            loss = T.mean(T.l2_norm_sq(T.sub(z, T.stop_gradient(z_tilde))))
        tape.backward(loss)
        assert w.grad is not None
        for out in tape.outputs_between(m0, m1):
            assert out.grad is None

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError):
            er_loss(lambda ids: Tensor([0.0]), [[1]], [])


class TestTotalLoss:
    def test_weighted_sum(self):
        total = total_loss(Tensor(1.0), Tensor(2.0), Tensor(0.5), alpha=2.0)
        assert total.item() == pytest.approx(4.0)

    def test_alpha_zero_drops_er(self):
        total = total_loss(Tensor(1.0), Tensor(2.0), Tensor(100.0), alpha=0.0)
        assert total.item() == pytest.approx(3.0)

    def test_missing_er_counts_as_zero(self):
        total = total_loss(Tensor(1.0), Tensor(2.0), None, alpha=5.0)
        assert total.item() == pytest.approx(3.0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = rng.normal(size=3)
            alpha = float(rng.uniform(0, 3))
            total = total_loss(Tensor(a), Tensor(b), Tensor(c), alpha)
            assert abs(total.item() - (a + b + alpha * c)) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(tau1=0.0)
        with pytest.raises(ValueError):
            LossConfig(tau=-1.0)
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)


class TestLossGradients:
    def test_s2p_end_to_end_gradcheck(self):
        rng = np.random.default_rng(12)
        sims = rng.uniform(0, 1, size=(4, 4))
        cfg = LossConfig(tau1=0.5, tau2=0.5)
        z_m = Tensor(unit_rows(rng, 4, 6))

        def f(z_t):
            t2m, m2t = s2p_loss(z_t, z_m, sims, cfg)
            return T.add(t2m, m2t)

        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        assert T.check_gradient(f, x) <= 1e-4

    def test_infonce_gradcheck(self):
        rng = np.random.default_rng(13)
        z_t = Tensor(unit_rows(rng, 4, 6))
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        assert T.check_gradient(lambda z: infonce_loss(z, z_t, tau=0.3), x) <= 1e-4
