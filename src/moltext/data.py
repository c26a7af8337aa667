"""Corpus and evaluation datasets (JSONL) plus the two training samplers.

The training corpus is one JSON object per line: {"id", "smiles",
"descriptions": [...]}. Loading is eager and strict: every SMILES is parsed
and every validation failure reports its line number, then the whole corpus
is fingerprinted into one store. A loaded `Corpus` is columns: the graphs, the
descriptions, and the fingerprints as one packed (n, nbits/64) uint64 matrix,
row i for molecule i. `fingerprint_corpus`, what `ingest` runs, gives the same
rows, one array per piece of lines, and the same errors while holding only the
rows, once, the id set and one piece of lines. Evaluation datasets reuse the
same shape with task-specific fields. Every text a model embeds (a description,
a question, an option) must hold a word by `has_word`'s rule, or its line is
refused. Training and evaluation embed a text as `encoders.tokenize`'s ids.

Batch sampling enumerates (molecule, description) pairs and draws uniformly
without replacement, so molecules with more descriptions show up
proportionally more often. With probability p an item's molecule is swapped
for a uniform draw from its top-k similarity neighbors while the description
stays put; the similarity matrix for the loss is always computed against the
ORIGINAL molecule's fingerprint row. The regularization sampler draws molecules
from `Corpus.er_eligible`, those with at least two descriptions, with
replacement, and pairs two distinct descriptions per item.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# compute_fingerprint is re-exported beside parse_smiles; perfbench wraps both names here
from .chem import (  # noqa: F401
    MolecularGraph,
    SmilesError,
    compute_fingerprint,
    compute_fingerprints,
    parse_smiles,
    pieces,
)
from .encoders import bounded, check_fields, concat_with_sep, has_word
from .simindex import SimilarityIndex


class CorpusError(ValueError):
    """Malformed corpus or dataset file; message carries the line number."""


class DuplicateIdError(CorpusError):
    pass


class BatchLargerThanCorpusError(ValueError):
    pass


class NoEligibleMoleculesError(ValueError):
    pass


class MalformedQAItemError(CorpusError):
    pass


@dataclass(eq=False)
class Corpus:
    """Molecule i is graphs[i], descriptions[i] and fingerprint row i; the samplers read `pairs` and `er_eligible`."""

    graphs: list[MolecularGraph]
    descriptions: list[list[str]]
    fingerprint_matrix: np.ndarray  # (n, nbits/64) uint64

    def __post_init__(self):
        self.pairs = [(i, d) for i, texts in enumerate(self.descriptions) for d in range(len(texts))]
        self.er_eligible = [i for i, texts in enumerate(self.descriptions) if len(texts) >= 2]

    def __len__(self) -> int:
        return len(self.graphs)

    def fingerprints(self) -> np.ndarray:
        """The packed (n, nbits/64) uint64 fingerprint matrix, one row per molecule."""
        return self.fingerprint_matrix

    def all_descriptions(self) -> list[str]:
        return [text for texts in self.descriptions for text in texts]


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise CorpusError(f"{where}: missing required field {key!r}")
    return record[key]


def _require_words(value, key: str, where: str, error=CorpusError) -> None:
    """Refuse a text field that is not a string holding a word."""
    if not isinstance(value, str) or not has_word(value):
        raise error(f"{where}: {key!r} must be a string holding at least one word, got {json.dumps(value)[:60]}")


def _load_lines(path: str, own_fields, empty: str = "dataset holds no items") -> Iterator[tuple]:
    """Yield one (id, smiles, graph, *own_fields(record, where)) row per non-blank line, as it is read.

    Every line is a JSON object with `id` and `smiles`; its own fields are checked before its SMILES is
    parsed. Every error names `path:line`, and a file without a line is refused once it is read through.
    """
    found = False
    # an undecodable byte arrives as a lone surrogate, which no UTF-8 text decodes to
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as e:
                    raise CorpusError(f"{where}: not UTF-8: {e}") from None
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as e:  # also an integer too long to convert, or nesting too deep
                raise CorpusError(f"{where}: invalid JSON: {e}") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: expected a JSON object, got {type(record).__name__}")
            item_id = _require(record, "id", where)
            smiles = _require(record, "smiles", where)
            own = own_fields(record, where)
            if not isinstance(smiles, str):
                raise CorpusError(f"{where}: 'smiles' must be a string")
            try:
                graph = parse_smiles(smiles)
            except SmilesError as e:
                raise CorpusError(f"{where}: bad SMILES {smiles!r}: {e}") from None
            found = True
            yield item_id, smiles, graph, *own
    if not found:
        raise CorpusError(f"{path}: {empty}")


def _corpus_lines(path: str) -> Iterator[tuple]:
    """A corpus's (id, smiles, graph, descriptions) rows as `_load_lines` reads them; an id seen before is refused."""
    seen_ids = set()

    def own_fields(record, where):
        descriptions = _require(record, "descriptions", where)
        if not isinstance(descriptions, list) or not descriptions:
            raise CorpusError(f"{where}: 'descriptions' must be a non-empty list")
        for d in descriptions:
            _require_words(d, "descriptions", where)
        key = (type(record["id"]).__name__, str(record["id"]))
        if key in seen_ids:
            raise DuplicateIdError(f"{where}: duplicate molecule id {record['id']!r}")
        seen_ids.add(key)
        return (list(descriptions),)

    return _load_lines(path, own_fields, empty="corpus holds no molecules")


def load_corpus(path: str, radius: int = 2, nbits: int = 2048) -> Corpus:
    """Parse and check every line (errors name their line), then fingerprint the corpus into one store."""
    rows = list(_corpus_lines(path))
    graphs = [graph for _, _, graph, _ in rows]
    descriptions = [texts for _, _, _, texts in rows]
    return Corpus(graphs, descriptions, compute_fingerprints(graphs, radius=radius, nbits=nbits))


def fingerprint_corpus(path: str, radius: int = 2, nbits: int = 2048) -> list[np.ndarray]:
    """The packed rows of `load_corpus(path, radius, nbits).fingerprints()`, byte for byte, in bounded memory.

    The checked lines' graphs are cut by `chem.pieces` as they are read, and
    each piece's rows are one array, for `chem.write_fingerprints(path, *rows)`;
    so the rows are held once, beside the id set and one piece of lines. Every
    error is load_corpus's, in its order: a bad radius or nbits is raised only
    once every line has passed its checks.
    """
    graphs = (graph for _, _, graph, _ in _corpus_lines(path))
    try:
        compute_fingerprints([], radius=radius, nbits=nbits)  # checks the parameters
    except ValueError:
        for _ in graphs:
            pass
        raise
    return [compute_fingerprints(piece, radius=radius, nbits=nbits) for piece in pieces(graphs)]


# ---------------------------------------------------------------------------
# Training samplers


@dataclass
class AugmentationConfig:
    k: int = bounded(10, min=1)
    p: float = bounded(0.5, min=0, max=1)  # substitution probability
    seed: int = bounded(0, min=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainingItem:
    source_idx: int  # the molecule whose description this is
    mol_idx: int  # the molecule actually embedded (neighbor when substituted)
    description: str
    substituted: bool


@dataclass
class TrainingBatch:
    items: list[TrainingItem]


def sample_training_batch(
    corpus: Corpus, index: SimilarityIndex | None, cfg: AugmentationConfig, batch_size: int, rng: np.random.Generator
) -> TrainingBatch:
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if batch_size > len(corpus.pairs):
        raise BatchLargerThanCorpusError(
            f"batch_size {batch_size} exceeds the {len(corpus.pairs)} available (molecule, description) pairs"
        )
    if cfg.p > 0 and index is None:
        raise ValueError("augmentation with p > 0 needs a similarity index")
    chosen = rng.choice(len(corpus.pairs), size=batch_size, replace=False)
    items = []
    for pair_idx in chosen:
        mol_idx, desc_idx = corpus.pairs[int(pair_idx)]
        substituted = False
        batch_idx = mol_idx
        # p == 0 draws nothing, keeping the stream equal to unaugmented sampling
        if cfg.p > 0 and rng.random() < cfg.p:
            neighbors = index.ids[mol_idx]
            if len(neighbors):
                batch_idx = int(neighbors[rng.integers(len(neighbors))])
                substituted = True
        items.append(TrainingItem(mol_idx, batch_idx, corpus.descriptions[mol_idx][desc_idx], substituted))
    return TrainingBatch(items=items)


@dataclass
class ERItem:
    """One regularizer pair; `train` embeds both texts as `encoders.tokenize` ids."""

    mol_idx: int
    text: str  # t
    text_tilde: str  # t [SEP] t', t' a distinct description of the same molecule


@dataclass
class ERBatch:
    items: list[ERItem]


def sample_er_batch(corpus: Corpus, batch_size: int, rng: np.random.Generator) -> ERBatch:
    """Molecules drawn with replacement among `corpus.er_eligible`, those with two or more descriptions."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    eligible = corpus.er_eligible
    if not eligible:
        raise NoEligibleMoleculesError("no molecule has two descriptions; regularization has nothing to pair")
    items = []
    for _ in range(batch_size):
        mol_idx = eligible[int(rng.integers(len(eligible)))]
        descs = corpus.descriptions[mol_idx]
        d1, d2 = rng.choice(len(descs), size=2, replace=False)
        text = descs[int(d1)]
        items.append(ERItem(mol_idx, text, concat_with_sep(text, descs[int(d2)])))
    return ERBatch(items=items)


# ---------------------------------------------------------------------------
# Evaluation datasets


@dataclass
class DatasetLine:
    """The fields every evaluation dataset line holds; each protocol's item adds its own."""

    item_id: object
    smiles: str
    graph: MolecularGraph


@dataclass
class RetrievalItem(DatasetLine):
    description: str


@dataclass
class QAItem(DatasetLine):
    question: str
    options: list[str]
    answer_index: int


@dataclass
class ScreeningItem(DatasetLine):
    label: int


@dataclass
class ProbeItem(DatasetLine):
    labels: list[int | None]


def load_retrieval_dataset(path: str) -> list[RetrievalItem]:
    def own_fields(record, where):
        description = _require(record, "description", where)
        _require_words(description, "description", where)
        return (description,)

    return [RetrievalItem(*row) for row in _load_lines(path, own_fields)]


def load_qa_dataset(path: str) -> list[QAItem]:
    def own_fields(record, where):
        question = _require(record, "question", where)
        options = _require(record, "options", where)
        answer_index = _require(record, "answer_index", where)
        _require_words(question, "question", where, MalformedQAItemError)
        if not isinstance(options, list) or len(options) != 5:
            raise MalformedQAItemError(f"{where}: need exactly 5 options, got {len(options) if isinstance(options, list) else type(options).__name__}")
        for option in options:
            _require_words(option, "options", where, MalformedQAItemError)
        if isinstance(answer_index, bool) or not isinstance(answer_index, int) or not 0 <= answer_index < 5:
            raise MalformedQAItemError(f"{where}: answer_index must be an int in 0..4")
        return question, options, answer_index

    return [QAItem(*row) for row in _load_lines(path, own_fields)]


def load_screening_dataset(path: str) -> list[ScreeningItem]:
    def own_fields(record, where):
        label = _require(record, "label", where)
        if type(label) is not int or label not in (0, 1):  # true and 1.0 both equal 1; only an int is a label
            raise CorpusError(f"{where}: 'label' must be 0 or 1")
        return (label,)

    return [ScreeningItem(*row) for row in _load_lines(path, own_fields)]


def load_probe_dataset(path: str) -> list[ProbeItem]:
    n_tasks = None

    def own_fields(record, where):
        nonlocal n_tasks
        labels = _require(record, "labels", where)
        if not isinstance(labels, list) or not labels:
            raise CorpusError(f"{where}: 'labels' must be a non-empty list")
        for lab in labels:
            if not (lab is None or (type(lab) is int and lab in (0, 1))):
                raise CorpusError(f"{where}: labels must be 0, 1, or null")
        if n_tasks is None:
            n_tasks = len(labels)
        elif len(labels) != n_tasks:
            raise CorpusError(f"{where}: expected {n_tasks} labels, got {len(labels)}")
        return (list(labels),)

    return [ProbeItem(*row) for row in _load_lines(path, own_fields)]
