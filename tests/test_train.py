"""Optimizer and training-loop tests."""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from moltext.data import AugmentationConfig, load_corpus, sample_er_batch, sample_training_batch
import moltext.train as train_module
from moltext.encoders import ModelConfig, MolTextModel, build_vocab, load_checkpoint, tokenize
from moltext import tensor as T
from moltext.losses import LossConfig, er_loss, infonce_directions, s2p_loss
from moltext.simindex import batch_tanimoto, build_topk
from moltext.tensor import Tape, Tensor
from moltext.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MODES, Adam, TrainConfig, _schedule, train
from moltext.toydata import make_corpus, write_corpus_jsonl

TINY_MODEL = dict(
    hidden_dim=8,
    embed_dim=8,
    projection_dim=4,
    gin_layers=1,
    text_blocks=1,
    max_len=16,
    vocab_cap=128,
)


def tiny_config(mode="amole", **kw):
    defaults = dict(
        epochs=1,
        batch_size=4,
        learning_rate=1e-3,
        mode=mode,
        seed=0,
        loss=LossConfig(),
        augmentation=AugmentationConfig(k=3, p=0.5, seed=7),
        model=ModelConfig(**TINY_MODEL),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_corpus(tmp_path, n=8, descs=2, multi_fraction=1.0, name="corpus.jsonl"):
    records = make_corpus(n, descriptions_per_molecule=descs, seed=3, multi_fraction=multi_fraction)
    path = tmp_path / name
    write_corpus_jsonl(str(path), records)
    return load_corpus(str(path), radius=2, nbits=512)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([1.0, -1.0])
    opt = Adam({"p": p}, 0.1)
    opt.step()
    # first step moves by lr * g / (|g| + eps) ~= lr * sign(g)
    np.testing.assert_allclose(p.data, [0.9, -1.9], atol=1e-6)


def test_adam_zero_grad_first_step_no_move():
    p = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = np.zeros(1)
    opt = Adam({"p": p}, 1e-3)
    opt.step()
    np.testing.assert_array_equal(p.data, [3.0])


def test_adam_missing_grad_treated_as_zero():
    p = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = None
    opt = Adam({"p": p}, 1e-3)
    opt.step()
    np.testing.assert_array_equal(p.data, [3.0])


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=5)
    p = Tensor(x0.copy(), requires_grad=True)
    opt = Adam({"p": p}, 0.05)

    # reference loop written independently of the class
    x = x0.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)  # the published defaults
    for t in range(1, 51):
        g = rng.normal(size=5)
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - 0.05 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, x, rtol=0, atol=1e-12)


def test_adam_grad_clip_scales_update():
    big = Tensor(np.array([0.0]), requires_grad=True)
    small = Tensor(np.array([0.0]), requires_grad=True)
    big.grad = np.array([30.0])
    small.grad = np.array([40.0])
    opt = Adam({"a": big, "b": small}, 0.1, grad_clip=5.0)
    opt.step()
    # global norm sqrt(30^2 + 40^2) = 50 -> scale 0.1; clipped grads (3, 4)
    expect_a = -0.1 * 3.0 / (3.0 + 1e-8)
    expect_b = -0.1 * 4.0 / (4.0 + 1e-8)
    np.testing.assert_allclose(big.data, [expect_a], atol=1e-12)
    np.testing.assert_allclose(small.data, [expect_b], atol=1e-12)


@pytest.mark.parametrize("grad_clip", [5.0, 1e6], ids=["at-the-norm", "far-above"])
def test_adam_grad_clip_at_or_above_the_norm_changes_no_byte(grad_clip):
    # gradients of norm exactly 5 each step: a clip that does not fire leaves every update as without one
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=2)
    plain, clipped = (Tensor(x0.copy(), requires_grad=True) for _ in range(2))
    opts = Adam({"p": plain}, 0.05), Adam({"p": clipped}, 0.05, grad_clip=grad_clip)
    for _ in range(5):
        a, b = rng.choice([-1.0, 1.0], size=2) * (3.0, 4.0)
        for p, opt in zip((plain, clipped), opts):
            p.grad = np.array([a, b])
            opt.step()
    assert clipped.data.tobytes() == plain.data.tobytes() and not np.array_equal(plain.data, x0)
    assert opts[1].m["p"].tobytes() == opts[0].m["p"].tobytes() and opts[1].v["p"].tobytes() == opts[0].v["p"].tobytes()


def test_adam_zero_grad_clears():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.ones(1)
    opt = Adam({"p": p}, 1e-3)
    opt.zero_grad()
    assert p.grad is None


# ---------------------------------------------------------------------------
# Config validation


def test_bad_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        tiny_config(mode="nonsense")


def test_bad_schedule_rejected():
    with pytest.raises(ValueError, match="lr_schedule"):
        tiny_config(lr_schedule="linear")


def test_bad_batch_size_rejected():
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(batch_size=0)


def test_attention_block_may_reach_but_not_pass_the_limit():
    # 16 x 1024**2 is exactly MAX_ATTENTION_SCORES
    assert TrainConfig(batch_size=16, model=ModelConfig(max_len=1024)).batch_size == 16
    with pytest.raises(ValueError, match=r"^batch_size 17 x max_len 1024\*\*2 = 17825792 attention scores exceed the limit of 16777216$"):
        TrainConfig(batch_size=17, model=ModelConfig(max_len=1024))


def test_mode_table_covers_grid():
    assert set(MODES) == {"baseline", "ablation1", "ablation2", "ablation3", "ablation4", "amole"}
    augmenting = {m for m, (aug, _, _) in MODES.items() if aug}
    assert augmenting == {"ablation1", "ablation2", "ablation3", "amole"}
    with_er = {m for m, (_, _, er) in MODES.items() if er}
    assert with_er == {"ablation3", "ablation4", "amole"}


def test_schedule_values():
    cfg = tiny_config(learning_rate=0.4, lr_schedule="cosine")
    assert _schedule(cfg, 1, 10) == pytest.approx(0.4)
    assert _schedule(cfg, 6, 10) == pytest.approx(0.4 * 0.5 * (1 + math.cos(math.pi * 0.5)))
    constant = tiny_config(learning_rate=0.4)
    assert _schedule(constant, 9, 10) == 0.4


# ---------------------------------------------------------------------------
# Training loop behavior


def test_augmenting_mode_requires_index(tmp_path):
    corpus = toy_corpus(tmp_path)
    with pytest.raises(ValueError, match="similarity index"):
        train(corpus, None, tiny_config(mode="amole"))


def test_index_k_mismatch_rejected(tmp_path):
    corpus = toy_corpus(tmp_path)
    index = build_topk(corpus.fingerprints(), k=5)
    with pytest.raises(ValueError, match="k=5"):
        train(corpus, index, tiny_config(mode="amole"))


@pytest.mark.parametrize("corpus_n, index_n", [(12, 30), (30, 12)])
def test_index_row_count_mismatch_rejected(tmp_path, corpus_n, index_n):
    corpus = toy_corpus(tmp_path, n=corpus_n)
    other = toy_corpus(tmp_path, n=index_n, name="other.jsonl")
    index = build_topk(other.fingerprints(), k=3)
    message = f"index has {index_n} rows but the corpus has {corpus_n} molecules"
    with pytest.raises(ValueError, match=message):
        train(corpus, index, tiny_config(mode="amole"))


def test_baseline_runs_without_index(tmp_path):
    corpus = toy_corpus(tmp_path)
    result = train(corpus, None, tiny_config(mode="baseline"))
    assert result.steps == math.ceil(len(corpus.pairs) / 4)
    assert len(result.metrics) == result.steps


@pytest.mark.parametrize("mode", sorted(MODES))
def test_metrics_records_shape_and_decomposition(tmp_path, mode):
    corpus = toy_corpus(tmp_path)
    index = build_topk(corpus.fingerprints(), k=3)
    alpha = 0.3
    result = train(corpus, index, tiny_config(mode=mode, epochs=2, loss=LossConfig(alpha=alpha)))
    for record in result.metrics:
        assert list(record) == ["step", "s2p_t2m", "s2p_m2t", "er", "total"]
        # the float64 sum of the two scalars the step backpropagates, as perfbench checks it
        assert record["total"] == record["s2p_t2m"] + record["s2p_m2t"] + alpha * record["er"]
        assert (record["er"] > 0.0) == MODES[mode][2]
    assert [r["step"] for r in result.metrics] == list(range(1, result.steps + 1))


def test_infonce_modes_log_directions_in_s2p_slots(tmp_path):
    corpus = toy_corpus(tmp_path)
    result = train(corpus, None, tiny_config(mode="baseline"))
    for record in result.metrics:
        assert record["er"] == 0.0
        assert record["total"] == pytest.approx(record["s2p_t2m"] + record["s2p_m2t"], abs=1e-12)


def test_max_steps_caps_run(tmp_path):
    corpus = toy_corpus(tmp_path)
    result = train(corpus, None, tiny_config(mode="baseline", epochs=10, max_steps=3))
    assert result.steps == 3
    assert len(result.metrics) == 3


def test_bit_identical_reruns(tmp_path):
    corpus = toy_corpus(tmp_path)
    index = build_topk(corpus.fingerprints(), k=3)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    res_a = train(corpus, index, tiny_config(), metrics_path=str(path_a))
    res_b = train(corpus, index, tiny_config(), metrics_path=str(path_b))
    assert res_a.metrics == res_b.metrics
    assert path_a.read_bytes() == path_b.read_bytes()
    for name, p in res_a.model.parameters().items():
        np.testing.assert_array_equal(p.data, res_b.model.parameters()[name].data)


def test_seed_changes_trajectory(tmp_path):
    corpus = toy_corpus(tmp_path)
    index = build_topk(corpus.fingerprints(), k=3)
    res_a = train(corpus, index, tiny_config(seed=0))
    res_b = train(corpus, index, tiny_config(seed=1))
    assert res_a.metrics != res_b.metrics


def test_loss_decreases_on_toy_run(tmp_path):
    corpus = toy_corpus(tmp_path, n=8, descs=1)
    index = build_topk(corpus.fingerprints(), k=3)
    cfg = tiny_config(mode="ablation2", epochs=12, learning_rate=3e-3)
    result = train(corpus, index, cfg)
    first = np.mean([r["total"] for r in result.metrics[:3]])
    last = np.mean([r["total"] for r in result.metrics[-3:]])
    assert last < first


def test_er_mode_without_eligible_molecules_warns_and_matches_plain(tmp_path):
    corpus = toy_corpus(tmp_path, descs=1)
    index = build_topk(corpus.fingerprints(), k=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res_amole = train(corpus, index, tiny_config(mode="amole"))
    assert any("skipped" in str(w.message) for w in caught)
    res_plain = train(corpus, index, tiny_config(mode="ablation2"))
    assert res_amole.metrics == res_plain.metrics
    for name, p in res_amole.model.parameters().items():
        np.testing.assert_array_equal(p.data, res_plain.model.parameters()[name].data)


def test_er_weight_changes_trajectory(tmp_path):
    corpus = toy_corpus(tmp_path, descs=2)
    index = build_topk(corpus.fingerprints(), k=3)
    res_on = train(corpus, index, tiny_config(mode="amole", loss=LossConfig(alpha=1.0)))
    res_off = train(corpus, index, tiny_config(mode="amole", loss=LossConfig(alpha=0.0)))
    assert any(r["er"] > 0.0 for r in res_on.metrics)
    totals_on = [r["total"] for r in res_on.metrics]
    totals_off = [r["total"] for r in res_off.metrics]
    assert totals_on != totals_off


def test_checkpoints_written_and_roundtrip(tmp_path):
    corpus = toy_corpus(tmp_path)
    index = build_topk(corpus.fingerprints(), k=3)
    ckpt = tmp_path / "model.amck"
    result = train(
        corpus,
        index,
        tiny_config(epochs=1, checkpoint_interval=2),
        checkpoint_path=str(ckpt),
    )
    assert ckpt.exists()
    assert not (tmp_path / "model.amck.tmp").exists()
    loaded = load_checkpoint(str(ckpt))
    for name, p in result.model.parameters().items():
        np.testing.assert_array_equal(p.data, loaded.parameters()[name].data)


@pytest.mark.parametrize("interval, saves", [(2, 2), (3, 2), (0, 1)])
def test_each_checkpoint_is_saved_once(tmp_path, monkeypatch, interval, saves):
    # 4 steps: one save at each multiple of the interval and one after the last step, never the same step twice
    corpus = toy_corpus(tmp_path)
    calls = []
    real = train_module.save_checkpoint

    def counted(path, model):
        calls.append(path)
        real(path, model)

    monkeypatch.setattr(train_module, "save_checkpoint", counted)
    cfg = tiny_config(mode="baseline", max_steps=4, checkpoint_interval=interval)
    result = train(corpus, None, cfg, checkpoint_path=str(tmp_path / "model.amck"))
    assert result.steps == 4 and len(calls) == saves


def test_metrics_file_is_valid_jsonl(tmp_path):
    corpus = toy_corpus(tmp_path)
    path = tmp_path / "metrics.jsonl"
    result = train(corpus, None, tiny_config(mode="baseline"), metrics_path=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == result.steps
    for line, record in zip(lines, result.metrics):
        assert json.loads(line) == record


def test_failed_run_keeps_the_previous_metrics_file(tmp_path, monkeypatch):
    corpus = toy_corpus(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "metrics.jsonl"
    train(corpus, None, tiny_config(mode="baseline"), metrics_path=str(path))
    before = path.read_bytes()
    real = train_module.metrics_record

    def fail_at_step_two(step, *args):
        if step == 2:
            raise RuntimeError("step 2 failed")
        return real(step, *args)

    monkeypatch.setattr(train_module, "metrics_record", fail_at_step_two)
    with pytest.raises(RuntimeError, match="step 2"):
        train(corpus, None, tiny_config(mode="baseline", seed=1), metrics_path=str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl"]


def test_training_token_ids_match_tokenize(tmp_path, monkeypatch):
    corpus = toy_corpus(tmp_path, n=8, descs=3)
    max_len = 6  # shorter than the toy descriptions: texts and ER targets truncate
    batches, er_batches, embedded = [], [], []

    def spy(fn, store):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            store.append(out)
            return out

        return wrapped

    monkeypatch.setattr(train_module, "sample_training_batch", spy(train_module.sample_training_batch, batches))
    monkeypatch.setattr(train_module, "sample_er_batch", spy(train_module.sample_er_batch, er_batches))
    embed_texts = MolTextModel.embed_texts
    monkeypatch.setattr(
        MolTextModel, "embed_texts", lambda model, ids_batch: embedded.append(ids_batch) or embed_texts(model, ids_batch)
    )
    cfg = tiny_config(max_steps=3, model=ModelConfig(**{**TINY_MODEL, "max_len": max_len}))
    vocab = train(corpus, build_topk(corpus.fingerprints(), k=3), cfg).model.vocab

    assert len(batches) == len(er_batches) == 3 and len(embedded) == 9
    for step, (batch, er_batch) in enumerate(zip(batches, er_batches)):
        tildes, ers, texts = embedded[3 * step : 3 * step + 3]  # ER's frozen target, ER's live side, the batch
        assert texts == [tokenize(vocab, item.description, max_len) for item in batch.items]
        assert ers == [tokenize(vocab, item.text, max_len) for item in er_batch.items]
        assert tildes == [tokenize(vocab, item.text_tilde, max_len) for item in er_batch.items]
    assert any(len(ids) == max_len for ids in texts)


def test_backward_peak_stays_near_the_leaf_gradients(tmp_path, monkeypatch):
    # Backward must hold the parameters' gradients plus only the intermediate
    # gradients still to be consumed. On this step (default ModelConfig, batch
    # 8; two backwards, the regularizer's then the pair's) each traced peak is
    # about 1.1x the parameter bytes; keeping every intermediate gradient until
    # backward ends took about 4.1x.
    corpus = toy_corpus(tmp_path, n=24, descs=3)
    peaks = []
    backward = Tape.backward

    def measured(tape, loss):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not was_tracing:
                tracemalloc.stop()

    monkeypatch.setattr(Tape, "backward", measured)
    cfg = tiny_config(max_steps=1, batch_size=8, model=ModelConfig())
    result = train(corpus, build_topk(corpus.fingerprints(), k=3), cfg)
    param_bytes = sum(p.data.nbytes for p in result.model.parameters().values())
    assert len(peaks) == 2
    for peak in peaks:
        assert peak <= 2 * param_bytes, f"backward peak {peak} B for {param_bytes} B of parameters"


def one_tape_train(corpus, index, cfg):
    """train()'s loop as it was with one tape per step: both losses recorded, then one backward over total."""
    augment, objective, use_er = MODES[cfg.mode]
    aug_cfg = cfg.augmentation if augment else replace(cfg.augmentation, p=0.0)
    vocab = build_vocab(corpus.all_descriptions(), cap=cfg.model.vocab_cap)
    model = MolTextModel(cfg.model, vocab, seed=cfg.seed)
    optimizer = Adam(model.parameters(), cfg.learning_rate, cfg.grad_clip)
    batch_rng = np.random.default_rng(aug_cfg.seed)
    er_rng = np.random.default_rng((cfg.seed, 1))
    fingerprints = corpus.fingerprints()
    ids = lambda text: tokenize(vocab, text, cfg.model.max_len)  # noqa: E731
    metrics = []
    for step in range(1, cfg.max_steps + 1):
        batch = sample_training_batch(corpus, index, aug_cfg, cfg.batch_size, batch_rng)
        with Tape() as tape:
            z_mol = model.embed_molecules([corpus.graphs[item.mol_idx] for item in batch.items])
            z_text = model.embed_texts([ids(item.description) for item in batch.items])
            if objective == "s2p":
                sims = batch_tanimoto(fingerprints[[item.source_idx for item in batch.items]],
                                      fingerprints[[item.mol_idx for item in batch.items]])
                t2m, m2t = s2p_loss(z_text, z_mol, sims, cfg.loss)
            else:
                t2m, m2t = infonce_directions(z_mol, z_text, cfg.loss.tau)
            er_term = None
            if use_er:
                er_batch = sample_er_batch(corpus, cfg.batch_size, er_rng)
                er_term = er_loss(model.embed_texts, [[ids(item.text) for item in er_batch.items]],
                                  [[ids(item.text_tilde) for item in er_batch.items]])
            er_weighted = T.mul(er_term if use_er else Tensor(0.0), float(cfg.loss.alpha))
            total = T.add(T.add(t2m, m2t), er_weighted)
        tape.backward(total)
        optimizer.step(_schedule(cfg, step, cfg.max_steps))
        optimizer.zero_grad()
        er = 0.0 if er_term is None else er_term.item()
        metrics.append(train_module.metrics_record(step, t2m.item(), m2t.item(), er, total.item()))
    return model, metrics


@pytest.mark.parametrize("mode", ["amole", "ablation3", "ablation4", "baseline"])
def test_a_tape_per_loss_term_is_the_one_tape_step_byte_for_byte(tmp_path, mode):
    # both sides run in this process, so BLAS has the same thread count on each
    corpus = toy_corpus(tmp_path, n=24, descs=3)
    index = build_topk(corpus.fingerprints(), k=3)
    cfg = tiny_config(mode=mode, max_steps=3, batch_size=8, grad_clip=1.0, lr_schedule="cosine",
                      loss=LossConfig(alpha=0.3), model=ModelConfig())
    model, metrics = one_tape_train(corpus, index, cfg)
    result = train(corpus, index, cfg)
    assert json.dumps(result.metrics) == json.dumps(metrics)
    assert result.metrics[-1]["er"] != 0.0 or not MODES[mode][2]
    for name, p in result.model.parameters().items():
        assert p.data.tobytes() == model.parameters()[name].data.tobytes(), name


def test_training_memory_is_bounded_by_the_parameters(tmp_path):
    # Traced peak of a short amole run, default ModelConfig, batch 16: model, Adam moments, gradients and
    # one loss term's tape at a time. With both loss terms on one tape it read 11.3x the parameter bytes;
    # with a tape per term, each dropped after its backward, and the leaner GIN tape it reads 7.8x.
    corpus = toy_corpus(tmp_path, n=24, descs=3)
    index = build_topk(corpus.fingerprints(), k=3)
    cfg = tiny_config(max_steps=3, batch_size=16, model=ModelConfig())
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = train(corpus, index, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    param_bytes = sum(p.data.nbytes for p in result.model.parameters().values())
    assert peak <= 9.5 * param_bytes, f"training peak {peak} B for {param_bytes} B of parameters"
