"""Joint-space encoders: a GIN over molecular graphs and a toy transformer over text.

The molecular side embeds per-atom features (element, degree, formal charge,
aromatic flag), runs sum-aggregation message passing with a learnable epsilon
per layer, h_v <- MLP((1 + eps) * h_v + sum of neighbor h_u), and pools atoms
by sum or mean. The result is permutation invariant up to float addition
order.

The text side is a word-level tokenizer with reserved ids 0..3 for [PAD],
[CLS], [SEP], [UNK], sinusoidal positions, and single-head attention blocks
with residual connections. [PAD] positions are masked out of attention and
pooling, so appending pad tokens never changes the output.

Both encoders run a whole batch as one forward, one tape record per layer:
a batch of graphs is one disconnected graph whose neighbour sums run over its
edge list, and a batch of token lists is one set of token rows that attention
lays out as a padded (B, L) block. Embedding one item is the batch of one, so
per-item and batched embeddings come from the same code.

Projection heads map both encoders into one joint space of dimension
projection_dim; cosine similarity there is the retrieval signal everywhere
downstream. Checkpoints serialize every parameter plus the vocabulary into a
single binary file (magic "AMCK").
"""

from __future__ import annotations

import json
import numbers
import re
import struct
import sys
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .chem import Atom, MolecularGraph, atom_features, batch_columns, write_atomic
from .tensor import Tensor

PAD_ID, CLS_ID, SEP_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[UNK]")

# fixed element slots; anything else lands in the trailing OTHER row
ELEMENT_VOCAB = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "H")
_ELEMENT_SLOT = {element: slot for slot, element in enumerate(ELEMENT_VOCAB)}

AMCK_MAGIC = b"AMCK"
AMCK_VERSION = 1

_WORD_RE = re.compile(r"[a-z0-9]+")


class EmptyGraphError(ValueError):
    pass


class EmptyTokenListError(ValueError):
    pass


class EmptyDescriptionError(ValueError):
    pass


def check_types(config, ints=(), reals=(), strs=(), optional=()) -> None:
    """Refuse a config field of the wrong type with a ValueError naming it.

    ints and reals refuse bool and str, and reals refuse NaN, infinities and ints too large for a
    float; a field named in `optional` may also be None.
    """
    kinds = ((ints, numbers.Integral, "an int"), (reals, numbers.Real, "a number"), (strs, str, "a str"))
    for names, kind, what in kinds:
        for name in names:
            value = getattr(config, name)
            if isinstance(value, bool) or not (isinstance(value, kind) or (value is None and name in optional)):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            # a comparison, not float(value): NaN fails it, and a huge int does not overflow
            big = sys.float_info.max
            if kind is numbers.Real and value is not None and not -big <= value <= big:
                raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class ModelConfig:
    hidden_dim: int = 64
    embed_dim: int = 64
    projection_dim: int = 32
    gin_layers: int = 2
    text_blocks: int = 2
    max_len: int = 64
    vocab_cap: int = 2000
    text_pooling: str = "mean"  # "mean" over non-pad positions, or "cls"
    gin_readout: str = "sum"  # or "mean"
    mlp_projection: bool = False

    def __post_init__(self):
        for name in ("hidden_dim", "embed_dim", "projection_dim", "gin_layers", "text_blocks", "max_len", "vocab_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if not isinstance(self.mlp_projection, bool):
            raise ValueError(f"mlp_projection must be a bool, got {self.mlp_projection!r}")
        if self.text_pooling not in ("mean", "cls"):
            raise ValueError(f"text_pooling must be 'mean' or 'cls', got {self.text_pooling!r}")
        if self.gin_readout not in ("sum", "mean"):
            raise ValueError(f"gin_readout must be 'sum' or 'mean', got {self.gin_readout!r}")


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


def _word_ids(vocab: dict[str, int], tokens: list[str]) -> list[int]:
    return [SEP_ID if tok == "[SEP]" else vocab.get(tok, UNK_ID) for tok in tokens]


def build_vocab(texts, cap: int = 2000) -> dict[str, int]:
    """Frequency-ranked word vocabulary with the four reserved ids in front."""
    return build_vocab_and_ids(texts, cap)[0]


def build_vocab_and_ids(texts, cap: int = 2000) -> tuple[dict[str, int], dict[str, list[int]]]:
    """build_vocab(texts, cap) plus each distinct text's untruncated word ids, no [CLS].

    Every text is tokenized once. ([CLS_ID] + ids[t])[:max_len] equals
    tokenize(vocab, t, max_len), and ([CLS_ID] + ids[a] + [SEP_ID] + ids[b])[:max_len]
    equals tokenize(vocab, concat_with_sep(a, b), max_len).
    """
    if cap <= len(RESERVED_TOKENS):
        raise ValueError(f"vocab cap must exceed {len(RESERVED_TOKENS)}")
    texts = list(texts)
    tokens = {text: word_tokens(text) for text in dict.fromkeys(texts)}
    counts = Counter()
    for text in texts:  # a repeated text counts each time
        counts.update(tok for tok in tokens[text] if tok != "[SEP]")
    vocab = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for word, _ in ranked[: cap - len(RESERVED_TOKENS)]:
        vocab[word] = len(vocab)
    return vocab, {text: _word_ids(vocab, toks) for text, toks in tokens.items()}


def tokenize(vocab: dict[str, int], text: str, max_len: int = 64) -> list[int]:
    """[CLS] plus word ids, truncated to max_len; unknown words become [UNK]."""
    return ([CLS_ID] + _word_ids(vocab, word_tokens(text)))[:max_len]


def concat_with_sep(a: str, b: str) -> str:
    if not a.strip() or not b.strip():
        raise EmptyDescriptionError("cannot join an empty description")
    return f"{a} [SEP] {b}"


# ---------------------------------------------------------------------------
# Parameter initialization helpers


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(fan_in, fan_out))


def _emb_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=(rows, cols))


def _param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# Molecular encoder


def _gin_features(atom: Atom) -> tuple[int, int, int]:
    """Element slot, formal charge clipped to -2..2 and shifted to 0..4, and aromatic flag."""
    element = _ELEMENT_SLOT.get(atom.element, len(ELEMENT_VOCAB))
    return element, min(max(atom.formal_charge, -2), 2) + 2, int(atom.aromatic)


class GinEncoder:
    """Sum-aggregation message passing with learnable epsilon per layer."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        h = config.hidden_dim
        self.config = config
        self.element_emb = _param(_emb_init(rng, len(ELEMENT_VOCAB) + 1, h))
        self.degree_emb = _param(_emb_init(rng, 9, h))
        self.charge_emb = _param(_emb_init(rng, 5, h))
        self.aromatic_emb = _param(_emb_init(rng, 2, h))
        self.layers = []
        for _ in range(config.gin_layers):
            self.layers.append(
                {
                    "eps": _param(0.0),
                    "w1": _param(_linear_init(rng, h, h)),
                    "b1": _param(np.zeros(h)),
                    "w2": _param(_linear_init(rng, h, h)),
                    "b2": _param(np.zeros(h)),
                }
            )

    def parameters(self, prefix: str = "gin") -> dict[str, Tensor]:
        out = {
            f"{prefix}.element_emb": self.element_emb,
            f"{prefix}.degree_emb": self.degree_emb,
            f"{prefix}.charge_emb": self.charge_emb,
            f"{prefix}.aromatic_emb": self.aromatic_emb,
        }
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.items():
                out[f"{prefix}.layer{i}.{key}"] = tensor
        return out

    def encode_batch(self, graphs) -> Tensor:
        """Graphs -> (B, hidden_dim) readout rows from one pass over all their atoms.

        The batch is one disconnected graph: atoms and bonds are concatenated
        with offsets, neighbour sums run over the edge list, and a (B, atoms)
        selector reads out each graph's own atoms.
        """
        if not graphs:
            raise ValueError("cannot encode an empty batch of graphs")
        if not all(graph.atom_kinds for graph in graphs):
            raise EmptyGraphError("cannot encode a graph with no atoms")
        sizes, kinds, bonds = batch_columns(graphs)
        el, chg, aro = atom_features(kinds, _gin_features, np.int64).T
        # each bond is two directed edges, so every atom sums all its neighbours
        src = np.concatenate([bonds[:, 0], bonds[:, 1]])
        dst = np.concatenate([bonds[:, 1], bonds[:, 0]])
        n = len(kinds)
        deg = np.minimum(np.bincount(dst, minlength=n), 8)

        h = T.add(
            T.add(T.embedding_lookup(self.element_emb, el), T.embedding_lookup(self.degree_emb, deg)),
            T.add(T.embedding_lookup(self.charge_emb, chg), T.embedding_lookup(self.aromatic_emb, aro)),
        )
        for layer in self.layers:
            mixed = T.add(T.mul(h, T.add(layer["eps"], 1.0)), T.neighbor_sum(h, src, dst))
            hidden = T.relu(T.linear(mixed, layer["w1"], layer["b1"]))
            h = T.linear(hidden, layer["w2"], layer["b2"])
        owner = np.repeat(np.arange(len(sizes)), sizes)
        selector = np.zeros((len(sizes), n))
        weight = 1.0 if self.config.gin_readout == "sum" else 1.0 / sizes[owner]
        selector[owner, np.arange(n)] = weight
        return T.matmul(Tensor(selector), h)


# ---------------------------------------------------------------------------
# Text encoder


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    out = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return out


class TextEncoder:
    """Single-head attention blocks over word embeddings with [PAD] masking."""

    def __init__(self, config: ModelConfig, vocab_size: int, rng: np.random.Generator):
        e = config.embed_dim
        f = 2 * e
        self.config = config
        self.vocab_size = vocab_size
        self.token_emb = _param(_emb_init(rng, vocab_size, e))
        self.positions = sinusoidal_positions(config.max_len, e)  # constant, not learned
        self.blocks = []
        for _ in range(config.text_blocks):
            self.blocks.append(
                {
                    "wq": _param(_linear_init(rng, e, e)),
                    "bq": _param(np.zeros(e)),
                    "wk": _param(_linear_init(rng, e, e)),
                    "bk": _param(np.zeros(e)),
                    "wv": _param(_linear_init(rng, e, e)),
                    "bv": _param(np.zeros(e)),
                    "wo": _param(_linear_init(rng, e, e)),
                    "bo": _param(np.zeros(e)),
                    "ffn_w1": _param(_linear_init(rng, e, f)),
                    "ffn_b1": _param(np.zeros(f)),
                    "ffn_w2": _param(_linear_init(rng, f, e)),
                    "ffn_b2": _param(np.zeros(e)),
                }
            )

    def parameters(self, prefix: str = "text") -> dict[str, Tensor]:
        out = {f"{prefix}.token_emb": self.token_emb}
        for i, block in enumerate(self.blocks):
            for key, tensor in block.items():
                out[f"{prefix}.block{i}.{key}"] = tensor
        return out

    def encode_batch(self, ids_batch) -> Tensor:
        """Token id lists -> (B, embed_dim) pooled rows from one pass over all their tokens.

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

        x = T.add(T.embedding_lookup(self.token_emb, ids_arr), Tensor(self.positions[pos]))
        for block in self.blocks:
            q = T.linear(x, block["wq"], block["bq"])
            k = T.linear(x, block["wk"], block["bk"])
            v = T.linear(x, block["wv"], block["bv"])
            attended = T.attention(q, k, v, key_bias, slots)
            x = T.add(x, T.linear(attended, block["wo"], block["bo"]))
            hidden = T.relu(T.linear(x, block["ffn_w1"], block["ffn_b1"]))
            x = T.add(x, T.linear(hidden, block["ffn_w2"], block["ffn_b2"]))
        selector = np.zeros((batch, len(ids_arr)))
        if self.config.text_pooling == "mean":
            rows = np.flatnonzero(nonpad)
            selector[seq[rows], rows] = 1.0 / counts[seq[rows]]
        else:
            selector[np.arange(batch), starts] = 1.0  # [CLS] rows
        return T.matmul(Tensor(selector), x)


# ---------------------------------------------------------------------------
# Projection heads and the combined model


class ProjectionHead:
    def __init__(self, in_dim: int, out_dim: int, mlp: bool, rng: np.random.Generator):
        self.mlp = mlp
        if mlp:
            self.w1 = _param(_linear_init(rng, in_dim, in_dim))
            self.b1 = _param(np.zeros(in_dim))
            self.w2 = _param(_linear_init(rng, in_dim, out_dim))
            self.b2 = _param(np.zeros(out_dim))
        else:
            self.w = _param(_linear_init(rng, in_dim, out_dim))
            self.b = _param(np.zeros(out_dim))

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        if self.mlp:
            return {
                f"{prefix}.w1": self.w1,
                f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2,
                f"{prefix}.b2": self.b2,
            }
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def apply(self, x: Tensor) -> Tensor:
        if self.mlp:
            return T.linear(T.relu(T.linear(x, self.w1, self.b1)), self.w2, self.b2)
        return T.linear(x, self.w, self.b)


class MolTextModel:
    def __init__(self, config: ModelConfig, vocab: dict[str, int], seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.vocab = vocab
        self.gin = GinEncoder(config, rng)
        self.text = TextEncoder(config, len(vocab), rng)
        self.proj_mol = ProjectionHead(config.hidden_dim, config.projection_dim, config.mlp_projection, rng)
        self.proj_text = ProjectionHead(config.embed_dim, config.projection_dim, config.mlp_projection, rng)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.gin.parameters("gin"))
        out.update(self.text.parameters("text"))
        out.update(self.proj_mol.parameters("proj_mol"))
        out.update(self.proj_text.parameters("proj_text"))
        return out

    def embed_molecule(self, graph: MolecularGraph) -> Tensor:
        """Graph -> joint-space vector of shape (projection_dim,); a batch of one."""
        return T.reshape(self.proj_mol.apply(self.gin.encode_batch([graph])), (self.config.projection_dim,))

    def embed_text(self, ids: list[int]) -> Tensor:
        """Token ids -> joint-space vector of shape (projection_dim,); a batch of one."""
        return T.reshape(self.proj_text.apply(self.text.encode_batch([ids])), (self.config.projection_dim,))

    def embed_molecules(self, graphs) -> Tensor:
        """Graphs -> (B, projection_dim) joint-space rows from one batched forward."""
        return self.proj_mol.apply(self.gin.encode_batch(graphs))

    def embed_texts(self, ids_batch) -> Tensor:
        """Token id lists -> (B, projection_dim) joint-space rows from one batched forward."""
        return self.proj_text.apply(self.text.encode_batch(ids_batch))


# ---------------------------------------------------------------------------
# Checkpoints: magic "AMCK", u32 version, u32 header length, JSON header with
# the model config, vocabulary, and (name, shape, offset) per tensor, then the
# raw little-endian float64 payload.


def save_checkpoint(path: str, model: MolTextModel) -> None:
    params = model.parameters()
    entries = []
    offset = 0
    blobs = []
    for name, tensor in params.items():
        blob = tensor.data.astype("<f8").tobytes()
        entries.append({"name": name, "shape": list(tensor.data.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "config": asdict(model.config),
        "vocab": model.vocab,
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, struct.pack("<4sII", AMCK_MAGIC, AMCK_VERSION, len(header_bytes)), header_bytes, *blobs)


def load_checkpoint(path: str) -> MolTextModel:
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise ValueError(f"{path}: truncated checkpoint header")
        magic, version, header_len = struct.unpack("<4sII", head)
        if magic != AMCK_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        if version != AMCK_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        raw_header = fh.read(header_len)
        payload = fh.read()

    try:
        header = json.loads(raw_header.decode("utf-8"))
        config = ModelConfig(**header["config"])
        vocab = {str(k): int(v) for k, v in header["vocab"].items()}
        entries = [(e["name"], tuple(map(int, e["shape"])), int(e["offset"])) for e in header["tensors"]]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})") from exc
    model = MolTextModel(config, vocab, seed=0)
    params = model.parameters()
    names_on_disk = {name for name, _, _ in entries}
    if names_on_disk != set(params):
        missing = sorted(set(params) - names_on_disk)
        extra = sorted(names_on_disk - set(params))
        raise ValueError(f"{path}: tensor names mismatch (missing {missing}, extra {extra})")
    needed = 0
    for name, shape, offset in entries:
        tensor = params[name]
        if tuple(tensor.data.shape) != shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        size = tensor.data.size
        if not 0 <= offset <= len(payload) - 8 * size:
            raise ValueError(f"{path}: tensor {name} at offset {offset} runs past the payload")
        flat = np.frombuffer(payload, dtype="<f8", count=size, offset=offset)
        tensor.data = flat.reshape(shape).astype(np.float64)
        needed += 8 * size
    if needed != len(payload):
        raise ValueError(f"{path}: payload holds {len(payload)} bytes but its tensors take {needed}")
    return model
