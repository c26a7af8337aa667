"""Contrastive objectives over joint-space embeddings.

s2p_loss replaces one-hot contrastive targets with soft pseudo-labels: each
row of the structural similarity matrix is pushed through a softmax at
temperature tau1 and used as the target distribution for the cosine
prediction softmax at temperature tau2, in both the text-to-molecule and
molecule-to-text directions. As tau1 -> 0 with a strictly diagonally dominant
similarity matrix the pseudo-labels collapse to one-hot and the sum of both
directions converges to infonce_loss at tau2; infonce_loss is accordingly the
UNHALVED sum of the two directional cross-entropy means.

er_loss pulls the embedding of a description toward the frozen embedding of
that description concatenated (via [SEP]) with another description of the
same molecule; the sign is positive: training minimizes the distance. The
target side is computed under no_grad, so it records nothing on the tape and
enters the loss as a constant. The trainer hands er_loss each batch as one
element together with the batched text encoder, so each side is one forward.
total_loss returns the one scalar training minimizes, which the trainer logs;
it backpropagates alpha * er and s2p_t2m + s2p_m2t on tapes of their own.

Both losses predict with _log_pred, the row_log_softmax (never log(softmax),
so every loss stays finite for any finite embeddings) of cosine logits over a
temperature; each sums its own cross-entropy, as the two sum in different orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import bounded, check_fields
from .tensor import Tensor


@dataclass
class LossConfig:
    tau1: float = bounded(0.1, above=0)  # pseudo-label temperature over structural similarities
    tau2: float = bounded(0.1, above=0)  # prediction temperature over cosine similarities
    tau: float = bounded(0.1, above=0)  # InfoNCE temperature
    alpha: float = bounded(1.0, min=0)  # weight of the regularization term

    def __post_init__(self):
        check_fields(self)


def pseudo_labels(sims: np.ndarray, tau1: float) -> np.ndarray:
    """Row-stabilized softmax of sims / tau1; accepts a row or a matrix."""
    if tau1 <= 0:
        raise ValueError(f"tau1 must be positive, got {tau1}")
    sims = np.asarray(sims, dtype=np.float64)
    squeeze = sims.ndim == 1
    if squeeze:
        sims = sims[None, :]
    if sims.ndim != 2:
        raise ValueError(f"similarities must be 1-D or 2-D, got shape {sims.shape}")
    shifted = sims / tau1
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out[0] if squeeze else out


def _log_pred(rows: Tensor, cols: Tensor, tau: float) -> Tensor:
    """log softmax_row(cos(rows, cols) / tau): the prediction of both contrastive losses."""
    return T.row_log_softmax(T.mul(T.cosine_similarity_matrix(rows, cols), 1.0 / tau))


def _soft_cross_entropy(targets: np.ndarray, z_rows: Tensor, z_cols: Tensor, tau2: float) -> Tensor:
    """-(1/N) * sum_ij targets_ij * _log_pred(rows, cols, tau2)_ij."""
    return T.mul(T.tensor_sum(T.mul(Tensor(targets), _log_pred(z_rows, z_cols, tau2))), -1.0 / targets.shape[0])


def s2p_loss(
    z_text: Tensor, z_mol: Tensor, sims: np.ndarray, cfg: LossConfig
) -> tuple[Tensor, Tensor]:
    """Both directional pseudo-label cross-entropies: (text->mol, mol->text).

    sims[i, j] is the structural similarity between the source molecule of
    text i and batch molecule j; it enters as a constant (no gradient).
    """
    sims = np.asarray(sims, dtype=np.float64)
    n = z_text.data.shape[0]
    if z_text.data.ndim != 2 or z_mol.data.ndim != 2 or z_mol.data.shape[0] != n:
        raise ValueError(f"embedding shapes disagree: {z_text.data.shape} vs {z_mol.data.shape}")
    if sims.shape != (n, n):
        raise ValueError(f"similarity matrix must be ({n}, {n}), got {sims.shape}")
    t2m = _soft_cross_entropy(pseudo_labels(sims, cfg.tau1), z_text, z_mol, cfg.tau2)
    m2t = _soft_cross_entropy(pseudo_labels(sims.T, cfg.tau1), z_mol, z_text, cfg.tau2)
    return t2m, m2t


def infonce_directions(z_mol: Tensor, z_text: Tensor, tau: float) -> tuple[Tensor, Tensor]:
    """One-hot directional cross-entropy means: (text->mol, mol->text)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = z_mol.data.shape[0]
    if z_text.data.shape[0] != n:
        raise ValueError("batch sizes disagree between embeddings")

    def direction(rows, cols):
        return T.mul(T.tensor_sum(T.diag_part(_log_pred(rows, cols, tau))), -1.0 / n)

    return direction(z_text, z_mol), direction(z_mol, z_text)


def infonce_loss(z_mol: Tensor, z_text: Tensor, tau: float) -> Tensor:
    return T.add(*infonce_directions(z_mol, z_text, tau))


def er_loss(f_text, texts: list, tildes: list) -> Tensor:
    """(1/N) sum_i || f_text(t_i) - f_text(t~_i) ||^2, the target side a constant.

    f_text maps one element of texts to a row, or to a block of rows when the
    element is itself a batch (model.embed_texts over [token_lists]).

    The frozen target side runs first: no_grad records nothing, so the tape is
    the same, but its forward temporaries are freed before the live side's
    activations are held on the tape, not on top of them.
    """
    if len(texts) != len(tildes) or not texts:
        raise ValueError(f"need matching non-empty batches, got {len(texts)} and {len(tildes)}")
    with T.no_grad():
        z_tilde = T.concat_rows([f_text(ids) for ids in tildes])
    z = T.concat_rows([f_text(ids) for ids in texts])
    return T.mean(T.l2_norm_sq(T.sub(z, z_tilde)))


def total_loss(s2p_t2m: Tensor, s2p_m2t: Tensor, er: Tensor | None, alpha: float) -> Tensor:
    """s2p_t2m + s2p_m2t + alpha * er, the one scalar training minimizes; a missing er counts as zero."""
    if er is None:
        er = Tensor(0.0)
    return T.add(T.add(s2p_t2m, s2p_m2t), T.mul(er, float(alpha)))
