"""Joint-space encoders: a GIN over molecular graphs and a toy transformer over text.

The molecular side embeds per-atom features (element, degree, formal charge,
aromatic flag), runs sum-aggregation message passing with a learnable epsilon
per layer, h_v <- MLP((1 + eps) * h_v + sum of neighbor h_u), and sums its
atoms. The result is permutation invariant up to float addition order.

The text side is a word-level tokenizer with reserved ids 0..3 for [PAD],
[CLS], [SEP], [UNK], sinusoidal positions, and single-head attention blocks
with residual connections, mean-pooled over the non-pad positions. [PAD]
positions are masked out of attention and pooling, so appending pad tokens
never changes the output.

Both encoders run a whole batch as one forward, one tape record per layer:
a batch of graphs is one disconnected graph whose neighbour sums run over the
directed edge list of `chem.batch_columns`, and a batch of token lists is one
set of token rows that attention lays out as a padded (B, L) block. A ReLU or
residual add rides in its linear layer's record (`tensor.linear`'s epilogues),
the positions in the token embedding's, the four atom feature lookups share one
record (`tensor.embedding_sum`) and each GIN layer's (1 + eps) * h rides in its
neighbour sum's, so the tape holds no pre-activation, un-added output, partial
sum or position-less row that backward never reads.
Embedding one item is the batch of one, so per-item and batched embeddings come
from the same code.

A linear projection head per side maps both encoders into one joint space of
dimension projection_dim; cosine similarity there is the retrieval signal
everywhere downstream.

One table, _param_table, declares every parameter once: its name, shape and
init. MolTextModel holds them in one dict by name, built in table order from a
seeded rng or from a checkpoint's payload, and its forwards look them up by
name. Checkpoints (magic "AMCK") hold the config, the vocabulary, the tensor
table derived from _param_table, and every parameter's float64 bytes.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
import struct
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .chem import Atom, MolecularGraph, atom_features, batch_columns, read_framed, write_atomic
from .tensor import Tensor

PAD_ID, CLS_ID, SEP_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[UNK]")

# fixed element slots; anything else lands in the trailing OTHER row
ELEMENT_VOCAB = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "H")
_ELEMENT_SLOT = {element: slot for slot, element in enumerate(ELEMENT_VOCAB)}

MAX_PARAMETERS = 1 << 26  # float64 values (512 MiB); training adds a gradient and Adam's two moments to each
MAX_ATTENTION_SCORES = 1 << 24  # float64 values in one (batch, max_len, max_len) block (128 MiB); backward holds ~3
AMCK_MAGIC = b"AMCK"
AMCK_VERSION = 1

_WORD_RE = re.compile(r"[a-z0-9]+")


class EmptyGraphError(ValueError):
    pass


class EmptyTokenListError(ValueError):
    pass


class EmptyDescriptionError(ValueError):
    pass


def bounded(default, **bounds):
    """A config field holding `default`, with bounds for check_fields: min, above, max, below, multiple, choices."""
    return field(default=default, metadata=bounds)


_KINDS = {"int": (numbers.Integral, "an int"), "float": (numbers.Real, "a number"), "str": (str, "a str")}
_BOUNDS = {"min": (operator.ge, ">="), "above": (operator.gt, ">"), "max": (operator.le, "<="),
           "below": (operator.lt, "<"), "multiple": (lambda value, step: value % step == 0, "a multiple of")}


def check_fields(config) -> None:
    """Refuse a config field whose value breaks its annotation or its bounds, with a ValueError naming it.

    An annotation is `int`, `float` or `str`, optionally `| None`; other fields (nested
    configs) are skipped. int and float refuse bool, and float refuses NaN, infinities and ints too
    large for a float.
    """
    for f in fields(config):
        kind, _, optional = f.type.partition(" | ")
        if kind not in _KINDS:
            continue
        value = getattr(config, f.name)
        if value is None and optional:
            continue
        cls, what = _KINDS[kind]
        if not isinstance(value, cls) or isinstance(value, bool):
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
        # a comparison, not float(value): NaN fails it, and a huge int does not overflow
        big = sys.float_info.max
        if kind == "float" and not -big <= value <= big:
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for key, limit in f.metadata.items():
            if key == "choices":
                ok, need = value in limit, f"one of {list(limit)}"
            else:
                test, op = _BOUNDS[key]
                ok, need = test(value, limit), f"{op} {limit}"
            if not ok:
                raise ValueError(f"{f.name} must be {'null or ' if optional else ''}{need}, got {value!r}")


@dataclass
class ModelConfig:
    hidden_dim: int = bounded(64, min=1, max=4096)
    embed_dim: int = bounded(64, min=1, max=4096)
    projection_dim: int = bounded(32, min=1, max=4096)
    gin_layers: int = bounded(2, min=1, max=64)
    text_blocks: int = bounded(2, min=1, max=64)
    max_len: int = bounded(64, min=1, max=4096)
    vocab_cap: int = bounded(2000, min=len(RESERVED_TOKENS) + 1)

    def __post_init__(self):
        check_fields(self)


# ---------------------------------------------------------------------------
# Tokenization


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric word tokens; the literal '[SEP]' survives as is."""
    if "[SEP]" not in text:
        # the word pattern never spans whitespace, so one pass equals the chunk loop
        return _WORD_RE.findall(text.lower())
    out = []
    for chunk in text.split():
        if chunk == "[SEP]":
            out.append(chunk)
        else:
            out.extend(_WORD_RE.findall(chunk.lower()))
    return out


def has_word(text: str) -> bool:
    """Whether `text` holds a word: a token of `word_tokens` other than '[SEP]'."""
    if "[SEP]" not in text:
        return _WORD_RE.search(text.lower()) is not None
    return any(tok != "[SEP]" for tok in word_tokens(text))


def build_vocab(texts, cap: int = 2000) -> dict[str, int]:
    """Frequency-ranked word vocabulary with the four reserved ids in front; a repeated text counts each time."""
    if cap <= len(RESERVED_TOKENS):
        raise ValueError(f"vocab cap must exceed {len(RESERVED_TOKENS)}")
    counts = Counter(tok for text in texts for tok in word_tokens(text) if tok != "[SEP]")
    vocab = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for word, _ in ranked[: cap - len(RESERVED_TOKENS)]:
        vocab[word] = len(vocab)
    return vocab


def tokenize(vocab: dict[str, int], text: str, max_len: int = 64) -> list[int]:
    """[CLS] plus word ids, truncated to max_len; unknown words become [UNK].

    The one rule for token ids: training and every eval protocol embed what this returns.
    """
    return [CLS_ID, *(SEP_ID if tok == "[SEP]" else vocab.get(tok, UNK_ID) for tok in word_tokens(text))][:max_len]


def concat_with_sep(a: str, b: str) -> str:
    if not has_word(a) or not has_word(b):
        raise EmptyDescriptionError("cannot join a description that holds no word")
    return f"{a} [SEP] {b}"


# ---------------------------------------------------------------------------
# Parameters: one table declares every tensor of the model


def _param_table(config: ModelConfig, vocab_size: int) -> list[tuple[str, tuple, float | None]]:
    """(name, shape, init std) of every parameter, in parameter order, which is also the init draw order.

    A std draws N(0, std^2) entries from the model's rng: 0.02 for embeddings,
    sqrt(1/fan_in) for weights. None is zeros and draws nothing.
    """
    h, e, out = config.hidden_dim, config.embed_dim, config.projection_dim

    def linear(prefix, suffix, fan_in, fan_out):
        weight = (f"{prefix}w{suffix}", (fan_in, fan_out), np.sqrt(1.0 / fan_in))
        return [weight, (f"{prefix}b{suffix}", (fan_out,), None)]

    rows = {"element": len(ELEMENT_VOCAB) + 1, "degree": 9, "charge": 5, "aromatic": 2}
    table = [(f"gin.{feature}_emb", (n, h), 0.02) for feature, n in rows.items()]
    for i in range(config.gin_layers):
        pre = f"gin.layer{i}."
        table += [(pre + "eps", (), None), *linear(pre, "1", h, h), *linear(pre, "2", h, h)]
    table.append(("text.token_emb", (vocab_size, e), 0.02))
    for i in range(config.text_blocks):
        pre = f"text.block{i}."
        for c in "qkvo":
            table += linear(pre, c, e, e)
        table += linear(pre + "ffn_", "1", e, 2 * e) + linear(pre + "ffn_", "2", 2 * e, e)
    for side, dim in (("mol", h), ("text", e)):
        table += linear(f"proj_{side}.", "", dim, out)
    return table


# ---------------------------------------------------------------------------
# The model: a GIN over molecular graphs, a transformer over token ids, and a
# projection head per side


def _gin_features(atom: Atom) -> tuple[int, int, int]:
    """Element slot, formal charge clipped to -2..2 and shifted to 0..4, and aromatic flag."""
    element = _ELEMENT_SLOT.get(atom.element, len(ELEMENT_VOCAB))
    return element, min(max(atom.formal_charge, -2), 2) + 2, int(atom.aromatic)


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    out = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return out


class MolTextModel:
    """Every parameter of _param_table in `params`, by name: drawn from `seed`, or views of `weights`.

    `weights` is a flat float64 array of every parameter back to back in table order, as a
    checkpoint's payload holds them; with it nothing is drawn. Over MAX_PARAMETERS values, nothing is built.
    """

    def __init__(self, config: ModelConfig, vocab: dict[str, int], seed: int = 0, weights: np.ndarray | None = None):
        table = _param_table(config, len(vocab))
        if (count := sum(math.prod(shape) for _, shape, _ in table)) > MAX_PARAMETERS:
            sizes = ", ".join(f"{k} {v}" for k, v in asdict(config).items() if k.endswith(("dim", "layers", "blocks")))
            raise ValueError(f"{count} model parameters exceed the limit of {MAX_PARAMETERS}: {sizes}, vocab {len(vocab)}")
        self.config = config
        self.vocab = vocab
        self.positions = sinusoidal_positions(config.max_len, config.embed_dim)  # constant, not learned
        rng = np.random.default_rng(seed) if weights is None else None
        self.params: dict[str, Tensor] = {}
        offset = 0
        for name, shape, std in table:
            size = math.prod(shape)
            if weights is not None:
                data = weights[offset : offset + size].reshape(shape)
            else:
                data = np.zeros(shape) if std is None else rng.normal(0.0, std, size=shape)
            offset += size
            self.params[name] = Tensor(data, requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def encode_graphs(self, graphs) -> Tensor:
        """Graphs -> (B, hidden_dim) sums of each graph's atom rows, from one pass over all their atoms.

        The batch is one disconnected graph: atoms and bonds are concatenated
        with offsets, neighbour sums run over the edge list, and a (B, atoms)
        selector sums each graph's own atoms.
        """
        if not graphs:
            raise ValueError("cannot encode an empty batch of graphs")
        if not all(graph.atom_kinds for graph in graphs):
            raise EmptyGraphError("cannot encode a graph with no atoms")
        p = self.params
        # each bond is two directed edges, so every atom sums all its neighbours
        sizes, kinds, src, dst, _ = batch_columns(graphs)
        el, chg, aro = atom_features(kinds, _gin_features, np.int64).T
        n = len(kinds)
        deg = np.minimum(np.bincount(dst, minlength=n), 8)

        h = T.embedding_sum([p[f"gin.{feature}_emb"] for feature in ("element", "degree", "charge", "aromatic")],
                            [el, deg, chg, aro])
        for i in range(self.config.gin_layers):
            pre = f"gin.layer{i}."
            mixed = T.neighbor_sum(h, src, dst, eps=p[pre + "eps"])
            hidden = T.linear(mixed, p[pre + "w1"], p[pre + "b1"], relu=True)
            h = T.linear(hidden, p[pre + "w2"], p[pre + "b2"])
        selector = np.zeros((len(sizes), n))
        selector[np.repeat(np.arange(len(sizes)), sizes), np.arange(n)] = 1.0
        return T.matmul(Tensor(selector), h)

    def encode_ids(self, ids_batch) -> Tensor:
        """Token id lists -> (B, embed_dim) means of each list's non-pad rows, from one pass over all their tokens.

        Row-wise layers (embeddings, Q/K/V, FFN, residuals) run on the real
        token rows only; attention lays them out as a padded (B, L) batch, L
        the longest list, and masks every [PAD] id and padding slot.
        """
        if not ids_batch:
            raise ValueError("cannot encode an empty batch of token lists")
        for ids in ids_batch:
            if len(ids) == 0:
                raise EmptyTokenListError("cannot encode an empty token list")
            if len(ids) > self.config.max_len:
                raise ValueError(f"sequence of {len(ids)} tokens exceeds max_len {self.config.max_len}")
        p = self.params
        lengths = np.array([len(ids) for ids in ids_batch])
        ids_arr = np.concatenate([np.asarray(ids, dtype=np.int64) for ids in ids_batch])
        batch, width = len(lengths), int(lengths.max())
        seq = np.repeat(np.arange(batch), lengths)
        starts = np.cumsum(lengths) - lengths
        pos = np.arange(len(ids_arr)) - starts[seq]
        nonpad = ids_arr != PAD_ID
        counts = np.bincount(seq[nonpad], minlength=batch)
        if not counts.all():
            raise EmptyTokenListError("token list holds only [PAD]")
        slots = seq * width + pos
        # -1e30 gives exactly zero attention after the softmax shift, which is
        # what makes pad-append invariance exact rather than approximate
        key_bias = np.full((batch, width), -1e30)
        key_bias.reshape(-1)[slots[nonpad]] = 0.0

        x = T.embedding_lookup(p["text.token_emb"], ids_arr, plus=self.positions[pos])
        for i in range(self.config.text_blocks):
            pre = f"text.block{i}."
            q = T.linear(x, p[pre + "wq"], p[pre + "bq"])
            k = T.linear(x, p[pre + "wk"], p[pre + "bk"])
            v = T.linear(x, p[pre + "wv"], p[pre + "bv"])
            attended = T.attention(q, k, v, key_bias, slots)
            x = T.linear(attended, p[pre + "wo"], p[pre + "bo"], residual=x)
            hidden = T.linear(x, p[pre + "ffn_w1"], p[pre + "ffn_b1"], relu=True)
            x = T.linear(hidden, p[pre + "ffn_w2"], p[pre + "ffn_b2"], residual=x)
        selector = np.zeros((batch, len(ids_arr)))
        rows = np.flatnonzero(nonpad)
        selector[seq[rows], rows] = 1.0 / counts[seq[rows]]
        return T.matmul(Tensor(selector), x)

    def _project(self, side: str, x: Tensor) -> Tensor:
        """The `side` ("mol" or "text") projection head: one linear map."""
        p, pre = self.params, f"proj_{side}."
        return T.linear(x, p[pre + "w"], p[pre + "b"])

    def embed_molecule(self, graph: MolecularGraph) -> Tensor:
        """Graph -> joint-space vector of shape (projection_dim,); a batch of one."""
        return T.reshape(self._project("mol", self.encode_graphs([graph])), (self.config.projection_dim,))

    def embed_text(self, ids: list[int]) -> Tensor:
        """Token ids -> joint-space vector of shape (projection_dim,); a batch of one."""
        return T.reshape(self._project("text", self.encode_ids([ids])), (self.config.projection_dim,))

    def embed_molecules(self, graphs) -> Tensor:
        """Graphs -> (B, projection_dim) joint-space rows from one batched forward."""
        return self._project("mol", self.encode_graphs(graphs))

    def embed_texts(self, ids_batch) -> Tensor:
        """Token id lists -> (B, projection_dim) joint-space rows from one batched forward."""
        return self._project("text", self.encode_ids(ids_batch))


# ---------------------------------------------------------------------------
# Checkpoints: magic "AMCK", u32 version, u32 header length, JSON header with
# the model config, vocabulary, and (name, shape, offset) per tensor, then the
# raw little-endian float64 payload.


_AMCK_HEADER = struct.Struct("<4sII")


def _tensor_table(config: ModelConfig, vocab_size: int) -> list[dict]:
    """(name, shape, offset) of every parameter, in parameter order: the payload is their float64 bytes back to back."""
    table, offset = [], 0
    for name, shape, _ in _param_table(config, vocab_size):
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return table


def save_checkpoint(path: str, model: MolTextModel) -> None:
    header = {"config": asdict(model.config), "vocab": model.vocab,
              "tensors": _tensor_table(model.config, len(model.vocab))}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blobs = [tensor.data.astype("<f8", copy=False).data for tensor in model.parameters().values()]
    write_atomic(path, _AMCK_HEADER.pack(AMCK_MAGIC, AMCK_VERSION, len(header_bytes)), header_bytes, *blobs)


def load_checkpoint(path: str) -> MolTextModel:
    """The model a checkpoint holds; its tensor table and vocab must be exactly what save_checkpoint writes.

    Both are checked, and the payload length too, before any tensor is allocated;
    the parameters are then views of one copy of the payload, with no init draw,
    and a payload holding a NaN or an infinity is refused with the tensor it is in.
    """
    (header_len,), raw = read_framed(path, _AMCK_HEADER, AMCK_MAGIC, AMCK_VERSION, "checkpoint file")
    try:
        header = json.loads(raw[:header_len].decode("utf-8"))
        config = ModelConfig(**header["config"])
        vocab, tensors = header["vocab"], header["tensors"]
        ids = list(vocab.values())
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})") from exc
    if (any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids)))
            or any(vocab.get(tok) != i for i, tok in enumerate(RESERVED_TOKENS))):
        raise ValueError(f"{path}: vocab ids must be the ints 0..{len(ids) - 1}, each once, "
                         f"with {' '.join(RESERVED_TOKENS)} at 0..3")
    table = _tensor_table(config, len(vocab))
    if tensors != table:
        raise ValueError(f"{path}: tensor table is not the one save_checkpoint writes for its config and vocab")
    payload = memoryview(raw)[header_len:]
    needed = 8 * sum(math.prod(entry["shape"]) for entry in table)
    if len(payload) != needed:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes but its tensors take {needed}")
    weights = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(weights).all():
        at = 8 * np.flatnonzero(~np.isfinite(weights))[0]
        name = next(entry["name"] for entry in reversed(table) if entry["offset"] <= at)
        raise ValueError(f"{path}: tensor {name} holds a non-finite value")
    return MolTextModel(config, vocab, weights=weights)
