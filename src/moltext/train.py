"""Training loop for the joint molecule-text model.

Six modes cover the ablation grid: which objective (pseudo-label
cross-entropy vs one-hot InfoNCE), whether neighbor substitution runs, and
whether the text regularizer is added.

    baseline    InfoNCE, no substitution, no regularizer
    ablation1   InfoNCE + substitution
    ablation2   pseudo-label objective + substitution
    ablation3   InfoNCE + substitution + regularizer
    ablation4   pseudo-label objective + regularizer, no substitution
    amole       pseudo-label objective + substitution + regularizer

Every step logs one JSONL record {step, s2p_t2m, s2p_m2t, er, total}; in
InfoNCE modes the two directional InfoNCE terms land in the s2p slots, and
total is s2p_t2m + s2p_m2t + alpha * er, the sum of the two scalars the step
backpropagates. Adam keeps its published betas (0.9, 0.999) and eps 1e-8, and
each step the text regularizer draws `batch_size` molecules with at least two
descriptions, with replacement. The optimization step is single-threaded and
fully deterministic: identical seeds give byte-identical metrics and
checkpoints. A checkpoint is saved every `checkpoint_interval` steps and after
the last step, once each; the metrics file is written once, after the loop.

A step holds one loss term's tape at a time. The regularizer's (ER's) graph
shares only parameters with the contrastive one, so with ER active a step
first records alpha * er on its own tape, backpropagates it and drops the
tape; then it records both encoders and s2p_t2m + s2p_m2t on a second tape and
backpropagates that into the same .grad (Tape.backward adds). ER goes first
because that is the order in which one backward over both terms sums each
parameter's gradient, so the parameters keep every byte. Adam steps with no
tape alive.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .chem import EXACT_NBITS, write_atomic
from .data import AugmentationConfig, Corpus, sample_er_batch, sample_training_batch
from .encoders import (MAX_ATTENTION_SCORES, ModelConfig, MolTextModel, bounded, build_vocab, check_fields,
                       save_checkpoint, tokenize)
from .losses import LossConfig, er_loss, infonce_directions, s2p_loss
from .simindex import SimilarityIndex, batch_tanimoto
from .tensor import Tape, Tensor

# mode -> (substitute molecules, objective, add regularizer)
MODES = {
    "baseline": (False, "infonce", False),
    "ablation1": (True, "infonce", False),
    "ablation2": (True, "s2p", False),
    "ablation3": (True, "infonce", True),
    "ablation4": (False, "s2p", True),
    "amole": (True, "s2p", True),
}

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the published defaults (Kingma & Ba, ICLR 2015)


@dataclass
class TrainConfig:
    epochs: int = bounded(5, min=1)
    max_steps: int | None = bounded(None, min=1)
    batch_size: int = bounded(16, min=1)
    learning_rate: float = bounded(1e-3, above=0)
    grad_clip: float | None = bounded(None, above=0)
    lr_schedule: str = bounded("constant", choices=("constant", "cosine"))
    checkpoint_interval: int = bounded(0, min=0)  # steps between snapshots; 0 saves only at the end
    mode: str = bounded("amole", choices=sorted(MODES))
    seed: int = bounded(0, min=0)
    fingerprint_radius: int = bounded(2, min=0, max=4)
    fingerprint_nbits: int = bounded(2048, min=64, below=EXACT_NBITS, multiple=64)
    loss: LossConfig = field(default_factory=LossConfig)
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        check_fields(self)
        if (scores := self.batch_size * self.model.max_len**2) > MAX_ATTENTION_SCORES:
            raise ValueError(f"batch_size {self.batch_size} x max_len {self.model.max_len}**2 = {scores} "
                             f"attention scores exceed the limit of {MAX_ATTENTION_SCORES}")


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float, grad_clip: float | None = None):
        self.params = params
        self.lr = learning_rate
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        grads = {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in self.params.items()
        }
        if self.grad_clip is not None:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > self.grad_clip:
                factor = self.grad_clip / norm
                grads = {name: g * factor for name, g in grads.items()}
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            # in place: m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g^2
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / c1
            v_hat = v / c2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass
class TrainResult:
    model: MolTextModel
    metrics: list[dict]
    steps: int


def _schedule(cfg: TrainConfig, step: int, total: int) -> float:
    if cfg.lr_schedule == "cosine":
        return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * (step - 1) / total))
    return cfg.learning_rate


def metrics_record(step: int, t2m: float, m2t: float, er: float, total: float) -> dict:
    return {"step": step, "s2p_t2m": t2m, "s2p_m2t": m2t, "er": er, "total": total}


def train(
    corpus: Corpus,
    index: SimilarityIndex | None,
    cfg: TrainConfig,
    metrics_path: str | None = None,
    checkpoint_path: str | None = None,
) -> TrainResult:
    augment, objective, use_er = MODES[cfg.mode]
    if augment and cfg.augmentation.p > 0:
        if index is None:
            raise ValueError(f"mode {cfg.mode!r} substitutes molecules and needs a similarity index")
        if index.k != cfg.augmentation.k:
            raise ValueError(f"index was built with k={index.k} but the config says k={cfg.augmentation.k}")
        if index.n != len(corpus):
            raise ValueError(f"index has {index.n} rows but the corpus has {len(corpus)} molecules")
    aug_cfg = cfg.augmentation if augment else replace(cfg.augmentation, p=0.0)

    vocab = build_vocab(corpus.all_descriptions(), cap=cfg.model.vocab_cap)
    model = MolTextModel(cfg.model, vocab, seed=cfg.seed)
    # evaluation's rule for token ids, each text tokenized once per run
    ids = functools.cache(lambda text: tokenize(vocab, text, cfg.model.max_len))
    optimizer = Adam(model.parameters(), cfg.learning_rate, cfg.grad_clip)

    batch_rng = np.random.default_rng(aug_cfg.seed)
    er_rng = np.random.default_rng((cfg.seed, 1))

    er_active = use_er and bool(corpus.er_eligible)
    if use_er and not er_active:
        warnings.warn(
            f"mode {cfg.mode!r} asks for the text regularizer but no molecule has "
            "two descriptions; the term is skipped",
            stacklevel=2,
        )

    steps_per_epoch = max(1, math.ceil(len(corpus.pairs) / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)
    fingerprints = corpus.fingerprints()

    metrics: list[dict] = []
    for step in range(1, total_steps + 1):
        er, weighted_er = 0.0, 0.0
        if er_active:
            er_batch = sample_er_batch(corpus, cfg.batch_size, er_rng)
            with Tape() as tape:
                er_term = er_loss(
                    model.embed_texts,
                    [[ids(item.text) for item in er_batch.items]],
                    [[ids(item.text_tilde) for item in er_batch.items]],
                )
                weighted = T.mul(er_term, float(cfg.loss.alpha))
            tape.backward(weighted)
            del tape  # its activations go before the pair's are recorded
            er, weighted_er = er_term.item(), weighted.item()

        batch = sample_training_batch(corpus, index, aug_cfg, cfg.batch_size, batch_rng)
        graphs = [corpus.graphs[item.mol_idx] for item in batch.items]
        with Tape() as tape:
            z_mol = model.embed_molecules(graphs)
            z_text = model.embed_texts([ids(item.description) for item in batch.items])
            if objective == "s2p":
                # pseudo-labels compare each text's own molecule with the molecules embedded
                sims = batch_tanimoto(
                    fingerprints[[item.source_idx for item in batch.items]],
                    fingerprints[[item.mol_idx for item in batch.items]],
                )
                t2m, m2t = s2p_loss(z_text, z_mol, sims, cfg.loss)
            else:
                t2m, m2t = infonce_directions(z_mol, z_text, cfg.loss.tau)
            pair = T.add(t2m, m2t)
        tape.backward(pair)
        del tape  # before Adam's clip copies and the next step's batches
        optimizer.step(_schedule(cfg, step, total_steps))
        optimizer.zero_grad()
        metrics.append(metrics_record(step, t2m.item(), m2t.item(), er, pair.item() + weighted_er))

        if checkpoint_path and (step == total_steps or cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0):
            save_checkpoint(checkpoint_path, model)

    if metrics_path:
        # one rename at the end: a run that fails part-way leaves the previous file
        write_atomic(metrics_path, "".join(json.dumps(record) + "\n" for record in metrics).encode())
    return TrainResult(model=model, metrics=metrics, steps=total_steps)
