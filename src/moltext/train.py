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
InfoNCE modes the two directional InfoNCE terms land in the s2p slots, so
total = s2p_t2m + s2p_m2t + alpha * er holds in every mode to the last bit.
The optimization step is single-threaded and fully deterministic: identical
seeds give byte-identical metrics and checkpoints.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chem import write_atomic
from .data import (
    AugmentationConfig,
    Corpus,
    NoEligibleMoleculesError,
    sample_er_batch,
    sample_training_batch,
)
from .encoders import CLS_ID, SEP_ID, ModelConfig, MolTextModel, build_vocab_and_ids, check_types, save_checkpoint
from .losses import LossConfig, er_loss, infonce_directions, s2p_loss, total_loss
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


@dataclass
class TrainConfig:
    epochs: int = 5
    max_steps: int | None = None
    batch_size: int = 16
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None
    lr_schedule: str = "constant"  # or "cosine"
    checkpoint_interval: int = 0  # steps between snapshots; 0 saves only at the end
    mode: str = "amole"
    seed: int = 0
    er_min_descriptions: int = 2
    er_batch_size: int | None = None  # defaults to batch_size
    fingerprint_radius: int = 2
    fingerprint_nbits: int = 2048
    loss: LossConfig = field(default_factory=LossConfig)
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        check_types(
            self,
            ints=("epochs", "max_steps", "batch_size", "checkpoint_interval", "seed", "er_min_descriptions",
                  "er_batch_size", "fingerprint_radius", "fingerprint_nbits"),
            reals=("learning_rate", "adam_beta1", "adam_beta2", "adam_eps", "grad_clip"),
            strs=("lr_schedule", "mode"),
            optional=("max_steps", "er_batch_size", "grad_clip"),
        )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {sorted(MODES)}, got {self.mode!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"lr_schedule must be 'constant' or 'cosine', got {self.lr_schedule!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be null or >= 1, got {self.max_steps}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("learning_rate", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(f"grad_clip must be null or > 0, got {self.grad_clip}")
        if self.checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.lr = cfg.learning_rate
        self.beta1 = cfg.adam_beta1
        self.beta2 = cfg.adam_beta2
        self.eps = cfg.adam_eps
        self.grad_clip = cfg.grad_clip
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
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            # in place: m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g^2
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / c1
            v_hat = v / c2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)

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


def metrics_record(step: int, t2m: float, m2t: float, er: float, alpha: float) -> dict:
    return {
        "step": step,
        "s2p_t2m": t2m,
        "s2p_m2t": m2t,
        "er": er,
        "total": t2m + m2t + alpha * er,
    }


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
    aug_cfg = cfg.augmentation
    if not augment:
        aug_cfg = AugmentationConfig(k=cfg.augmentation.k, p=0.0, seed=cfg.augmentation.seed)

    # each description is tokenized once per run; slicing the cached ids gives
    # exactly what tokenize() would for a batch text or an ER target
    vocab, word_ids = build_vocab_and_ids(corpus.all_descriptions(), cap=cfg.model.vocab_cap)
    model = MolTextModel(cfg.model, vocab, seed=cfg.seed)
    optimizer = Adam(model.parameters(), cfg)

    batch_rng = np.random.default_rng(aug_cfg.seed)
    er_rng = np.random.default_rng((cfg.seed, 1))

    er_active = False
    if use_er:
        eligible = sum(
            1 for m in corpus.molecules if len(m.descriptions) >= cfg.er_min_descriptions
        )
        if eligible:
            er_active = True
        else:
            warnings.warn(
                f"mode {cfg.mode!r} asks for the text regularizer but no molecule has "
                f">= {cfg.er_min_descriptions} descriptions; the term is skipped",
                stacklevel=2,
            )

    steps_per_epoch = max(1, math.ceil(len(corpus.pairs) / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)
    er_batch_size = cfg.er_batch_size or cfg.batch_size
    max_len = cfg.model.max_len

    metrics: list[dict] = []
    for step in range(1, total_steps + 1):
        batch = sample_training_batch(corpus, index, aug_cfg, cfg.batch_size, batch_rng)
        graphs = [corpus.molecules[item.mol_idx].graph for item in batch.items]
        token_ids = [[CLS_ID, *word_ids[item.description]][:max_len] for item in batch.items]

        with Tape() as tape:
            z_mol = model.embed_molecules(graphs)
            z_text = model.embed_texts(token_ids)
            if objective == "s2p":
                sims = batch_tanimoto(
                    batch.source_fingerprints(corpus), batch.batch_fingerprints(corpus)
                )
                t2m, m2t = s2p_loss(z_text, z_mol, sims, cfg.loss)
            else:
                t2m, m2t = infonce_directions(z_mol, z_text, cfg.loss.tau)
            er_term = None
            if er_active:
                er_batch = sample_er_batch(
                    corpus, er_batch_size, er_rng, cfg.er_min_descriptions
                )
                texts = [word_ids[item.text] for item in er_batch.items]
                siblings = [word_ids[item.sibling] for item in er_batch.items]
                er_term = er_loss(
                    model.embed_texts,
                    [[[CLS_ID, *a][:max_len] for a in texts]],
                    [[[CLS_ID, *a, SEP_ID, *b][:max_len] for a, b in zip(texts, siblings)]],
                )
            out = total_loss(t2m, m2t, er_term, cfg.loss.alpha)
        tape.backward(out.total)
        optimizer.step(_schedule(cfg, step, total_steps))
        optimizer.zero_grad()

        record = metrics_record(
            step, out.s2p_t2m.item(), out.s2p_m2t.item(), out.er.item(), cfg.loss.alpha
        )
        metrics.append(record)

        if checkpoint_path and cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
            save_checkpoint(checkpoint_path, model)

    if metrics_path:
        # one rename at the end: a run that fails part-way leaves the previous file
        write_atomic(metrics_path, "".join(json.dumps(record) + "\n" for record in metrics).encode())
    if checkpoint_path:
        save_checkpoint(checkpoint_path, model)
    return TrainResult(model=model, metrics=metrics, steps=total_steps)
