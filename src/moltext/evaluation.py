"""Zero-shot protocols, a linear probe, and the significance statistics.

Four ways to read out a trained joint embedding:

  * retrieval   pick the right counterpart among sampled distractors
  * qa          pick the option whose text lands closest to the molecule
  * screening   rank a library against one textual prompt
  * probe       logistic heads on frozen molecule embeddings

plus rank-based ROC AUC and a one-sided paired t-test for comparing runs.
All randomness flows through seeded generators, so every protocol returns
identical numbers for identical inputs.

Every protocol embeds through `embed_molecule_matrix` / `embed_text_matrix`,
which embed each distinct input once, in batched forwards of at most
`EMBED_CHUNK` items, and hand the rows back in input order; nothing embeds
one item at a time. Texts count as equal when their token ids are, and go
through in non-decreasing token length, so a chunk pads little; molecules
count as equal when their atoms and bonds are, and go through in first
occurrence order. Equal inputs therefore get bit-identical rows, and their
scores tie exactly. A text row's last bits depend on the texts it shares a
chunk with, so changing the chunking may move them, but never a report.
Retrieval draws each query's distractors with its own `rng.choice`
call, in query order, then scores a block of queries at once; blocks are
sized so the gathered candidates stay near `RETRIEVAL_BLOCK_BYTES`, and each
query's scores come from the same BLAS matrix-vector product as scoring it
alone, so results do not depend on the block size. QA scores all items in
one such product over (items, options, dim), so every item must have the
same number of options. Every cosine is a dot product of rows that
`_unit_rows` scales to 1 by `tensor.row_norms`, the training cosine's norm.
`_betacf` runs one Lentz update for every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ProbeItem, QAItem, RetrievalItem, ScreeningItem
from .encoders import MAX_ATTENTION_SCORES, MolTextModel, tokenize
from .tensor import Tensor, row_norms
from .train import Adam


class DatasetTooSmallError(ValueError):
    pass


class TopNExceedsDatasetError(ValueError):
    pass


class AllLabelsMissingError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass


class ZeroVarianceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Shared embedding helpers (inference only, nothing is recorded)

# most distinct items per batched forward: bounds the (chunk, atoms) readout
# selector and, with MAX_ATTENTION_SCORES, the (chunk, L, L) attention scores,
# so peak memory does not grow with the dataset
EMBED_CHUNK = 32

# bytes of gathered candidate rows per block of retrieval queries
RETRIEVAL_BLOCK_BYTES = 1 << 20

# paired_ttest scales its inputs so the largest |value| has this binary exponent
TTEST_EXPONENT = 256


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / row_norms(x)[:, None]


def _embed_distinct(embed, items: list, keys, size: int, by_length: bool) -> np.ndarray:
    """embed(items).data in input order, each distinct key embedded once, at most `size` per call.

    The distinct items go in first-occurrence order, or with `by_length` stably
    sorted by len(item).
    """
    if not items:
        raise ValueError("nothing to embed")
    slot_of: dict = {}
    slots = np.array([slot_of.setdefault(key, len(slot_of)) for key in keys], dtype=np.intp)
    distinct = [items[i] for i in np.unique(slots, return_index=True)[1]]  # slot order is first occurrence
    order = np.arange(len(distinct))
    if by_length:
        order = np.argsort([len(item) for item in distinct], kind="stable")
    chunks = [order[lo : lo + size] for lo in range(0, len(order), size)]
    rows = np.concatenate([embed([distinct[i] for i in chunk]).data for chunk in chunks])
    return rows[np.argsort(order)[slots]]


def embed_molecule_matrix(model: MolTextModel, graphs) -> np.ndarray:
    graphs = list(graphs)
    keys = [(tuple(g.atom_kinds), tuple(g.bond_triples)) for g in graphs]
    return _embed_distinct(model.embed_molecules, graphs, keys, EMBED_CHUNK, by_length=False)


def embed_text_matrix(model: MolTextModel, texts) -> np.ndarray:
    texts = list(texts)
    max_len = model.config.max_len
    ids_of = {text: tokenize(model.vocab, text, max_len) for text in dict.fromkeys(texts)}
    ids = [ids_of[text] for text in texts]
    size = min(EMBED_CHUNK, max(1, MAX_ATTENTION_SCORES // max_len**2))
    return _embed_distinct(model.embed_texts, ids, map(tuple, ids), size, by_length=True)


# ---------------------------------------------------------------------------
# Retrieval: given one side, find the true counterpart among n_options
# candidates (the counterpart plus sampled distractors)


@dataclass
class RetrievalResult:
    direction: str
    n_options: int
    trials: int
    accuracies: list[float]  # percent, one per trial
    mean: float
    std: float


def eval_retrieval(
    model: MolTextModel,
    items: list[RetrievalItem],
    direction: str = "given_text",
    n_options: int = 20,
    trials: int = 1,
    seed: int = 0,
) -> RetrievalResult:
    if direction not in ("given_text", "given_molecule"):
        raise ValueError(f"direction must be 'given_text' or 'given_molecule', got {direction!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_options < 2:
        raise ValueError(f"n_options must be >= 2, the counterpart and at least one distractor, got {n_options}")
    n = len(items)
    if n < n_options:
        raise DatasetTooSmallError(f"need at least {n_options} items, got {n}")

    z_mol = _unit_rows(embed_molecule_matrix(model, [it.graph for it in items]))
    z_text = _unit_rows(embed_text_matrix(model, [it.description for it in items]))
    queries, candidates = (z_text, z_mol) if direction == "given_text" else (z_mol, z_text)

    # queries per scored block: the gathered (rows, n_options, dim) candidates
    # stay near RETRIEVAL_BLOCK_BYTES
    rows = max(1, RETRIEVAL_BLOCK_BYTES // (n_options * candidates.shape[1] * candidates.itemsize))
    rng = np.random.default_rng(seed)
    accuracies = []
    for _ in range(trials):
        correct = 0
        for lo in range(0, n, rows):
            truth = np.arange(lo, min(lo + rows, n))
            # one draw per query, in query order: the random stream of a per-query loop
            others = np.array([rng.choice(n - 1, size=n_options - 1, replace=False) for _ in truth])
            others += others >= truth[:, None]  # skip the truth
            pools = np.sort(np.column_stack([truth, others]), axis=1)  # ties resolve to the lowest index
            # a stacked matmul makes the same BLAS matrix-vector call per query as
            # `candidates[pool] @ query`, so scores (and their ties) are bit-identical
            scores = np.matmul(candidates[pools], queries[truth, :, None])[:, :, 0]
            best = np.take_along_axis(pools, scores.argmax(axis=1)[:, None], axis=1)[:, 0]
            correct += int(np.count_nonzero(best == truth))
        accuracies.append(100.0 * correct / n)
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies, ddof=1)) if trials > 1 else 0.0
    return RetrievalResult(direction, n_options, trials, accuracies, mean, std)


# ---------------------------------------------------------------------------
# Multiple choice: each option is appended to the question, the option whose
# text embedding lies closest to the molecule wins


@dataclass
class QAResult:
    n_items: int
    correct: int
    accuracy: float  # percent


def eval_qa(model: MolTextModel, items: list[QAItem]) -> QAResult:
    if not items:
        raise DatasetTooSmallError("no question items")
    if len(counts := {len(item.options) for item in items}) > 1:
        raise ValueError(f"every item needs the same number of options, got {sorted(counts)}")
    texts = [f"{item.question} {option}" for item in items for option in item.options]
    z_texts = _unit_rows(embed_text_matrix(model, texts)).reshape(len(items), counts.pop(), -1)
    z_mols = _unit_rows(embed_molecule_matrix(model, [item.graph for item in items]))
    scores = np.matmul(z_texts, z_mols[:, :, None])[:, :, 0]
    correct = int(np.count_nonzero(scores.argmax(axis=1) == [item.answer_index for item in items]))
    return QAResult(len(items), correct, 100.0 * correct / len(items))


# ---------------------------------------------------------------------------
# Screening: rank the library against one prompt, report the fraction of
# actives inside the top n


@dataclass
class ScreeningResult:
    top_n: int
    hits: int
    hit_rate: float
    prevalence: float


def eval_screening(
    model: MolTextModel, items: list[ScreeningItem], prompt: str, top_n: int
) -> ScreeningResult:
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if top_n > len(items):
        raise TopNExceedsDatasetError(f"top_n={top_n} but the dataset has {len(items)} entries")
    z_mol = _unit_rows(embed_molecule_matrix(model, [it.graph for it in items]))
    z_p = _unit_rows(embed_text_matrix(model, [prompt]))[0]
    scores = z_mol @ z_p
    top = np.lexsort((np.arange(len(items)), -scores))[:top_n]  # score desc, then position asc
    hits = int(sum(items[int(i)].label for i in top))
    prevalence = sum(it.label for it in items) / len(items)
    return ScreeningResult(top_n=top_n, hits=hits, hit_rate=hits / top_n, prevalence=prevalence)


# ---------------------------------------------------------------------------
# Probe: logistic heads on frozen molecule embeddings, one per task, trained
# full batch with Adam at PROBE_LEARNING_RATE on an 8:1:1 split; the epoch with
# the best validation AUC supplies the reported test AUC
PROBE_LEARNING_RATE = 0.05


@dataclass
class ProbeResult:
    test_aucs: list[float]
    mean_auc: float
    best_epochs: list[int]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _auc_or_chance(labels: np.ndarray, scores: np.ndarray) -> float:
    # empty and single-class splits carry no ranking signal; count them as chance
    if len(set(labels.tolist())) < 2:
        return 0.5
    return roc_auc(labels, scores)


def finetune_probe(
    model: MolTextModel,
    items: list[ProbeItem],
    epochs: int = 100,
    seed: int = 0,
) -> ProbeResult:
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(items) < 3:
        raise DatasetTooSmallError("need at least 3 items for a train/val/test split")
    x = embed_molecule_matrix(model, [it.graph for it in items])
    n, dim = x.shape
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = n_test = max(1, round(0.1 * n))
    test_idx = perm[:n_test]
    val_idx = perm[n_test : n_test + n_val]
    train_idx = perm[n_test + n_val :]

    n_tasks = len(items[0].labels)
    test_aucs = []
    best_epochs = []
    for task in range(n_tasks):
        raw = np.array(
            [-1 if it.labels[task] is None else int(it.labels[task]) for it in items], dtype=np.int64
        )
        if np.all(raw < 0):
            raise AllLabelsMissingError(f"task {task} has no labels at all")

        tr, va, te = (idx[raw[idx] >= 0] for idx in (train_idx, val_idx, test_idx))
        if len(tr) == 0:
            raise AllLabelsMissingError(f"task {task} has no labeled training items")

        w, b = Tensor(np.zeros(dim)), Tensor(0.0)
        adam = Adam({"w": w, "b": b}, PROBE_LEARNING_RATE)
        x_tr, y_tr = x[tr], raw[tr].astype(np.float64)
        best_val = -1.0
        best_epoch = 0
        best_params = (w.data.copy(), b.data.copy())
        for epoch in range(1, epochs + 1):
            p = _sigmoid(x_tr @ w.data + b.data)
            w.grad = x_tr.T @ (p - y_tr) / len(tr)
            b.grad = np.mean(p - y_tr)
            adam.step()
            val_auc = _auc_or_chance(raw[va], x[va] @ w.data + b.data)
            if val_auc > best_val:  # strict: ties keep the earlier epoch
                best_val = val_auc
                best_epoch = epoch
                best_params = (w.data.copy(), b.data.copy())
        w_best, b_best = best_params
        test_aucs.append(_auc_or_chance(raw[te], x[te] @ w_best + b_best))
        best_epochs.append(best_epoch)
    return ProbeResult(test_aucs, float(np.mean(test_aucs)), best_epochs)


# ---------------------------------------------------------------------------
# Statistics


def roc_auc(labels, scores) -> float:
    """Rank-based AUC with tie-averaged ranks; needs both classes present."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise LengthMismatchError(f"shapes disagree: {labels.shape} vs {scores.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one item of each class")
    # a tie block of c scores ending at sorted position e (1-based) shares the rank e - (c - 1) / 2;
    # NaN scores form one block above every number, whatever order the sort leaves them in
    _, block, counts = np.unique(scores, return_inverse=True, return_counts=True, equal_nan=True)
    average_rank = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = float(np.sum(average_rank[block][labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300

    def lentz(aa, c, d):
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        return c, 1.0 / d

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    # c starts infinite, so the first term leaves it at 1.0 and gives d = 1 / (1 - qab * x / qap)
    c, d = lentz(-qab * x / qap, math.inf, 1.0)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        c, d = lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d * c
        c, d = lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-14:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """P(T >= t) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    x = df / (df + t * t)
    half = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return half if t >= 0 else 1.0 - half


@dataclass
class TTestResult:
    t: float
    df: int
    p_value: float  # one-sided, alternative mean(a - b) > 0
    mean_diff: float


def paired_ttest(a, b) -> TTestResult:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatchError(f"shapes disagree: {a.shape} vs {b.shape}")
    if len(a) < 2:
        raise ValueError("need at least two paired observations")
    # scaling by a power of two is exact, so t and the mean keep every bit, but with the largest
    # |value| brought into [2**(TTEST_EXPONENT - 1), 2**TTEST_EXPONENT) no difference or square overflows
    top = float(max(np.abs(a).max(), np.abs(b).max()))
    shift = TTEST_EXPONENT - math.frexp(top)[1]
    d = np.ldexp(a, shift) - np.ldexp(b, shift)
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("all paired differences are identical")
    n = len(d)
    mean = float(np.mean(d))
    t = mean / (sd / math.sqrt(n))
    with np.errstate(over="ignore"):
        mean_diff = float(np.ldexp(mean, -shift))
    if not (math.isfinite(t) and math.isfinite(mean_diff)):
        raise ValueError(f"t {t} and mean difference {mean_diff} are not both finite")
    df = n - 1
    return TTestResult(t=t, df=df, p_value=student_t_sf(t, df), mean_diff=mean_diff)
