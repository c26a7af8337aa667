"""Corpus and evaluation datasets (JSONL) plus the two training samplers.

The training corpus is one JSON object per line: {"id", "smiles",
"descriptions": [...]}. Loading is eager and strict: every SMILES is parsed
and every validation failure reports its line number, then the whole corpus
is fingerprinted in one batch. Evaluation datasets reuse the same shape with task-specific fields.

Batch sampling enumerates (molecule, description) pairs and draws uniformly
without replacement, so molecules with more descriptions show up
proportionally more often. With probability p an item's molecule is swapped
for a uniform draw from its top-k similarity neighbors while the description
stays put; the similarity matrix for the loss is always computed against the
ORIGINAL molecule's fingerprint. The regularization sampler draws molecules
with at least `min_descriptions` descriptions (with replacement) and pairs
two distinct descriptions per item.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# compute_fingerprint is re-exported beside parse_smiles; perfbench wraps both names here
from .chem import (  # noqa: F401
    Fingerprint,
    MolecularGraph,
    SmilesError,
    compute_fingerprint,
    compute_fingerprints,
    parse_smiles,
)
from .encoders import check_types, concat_with_sep
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


@dataclass
class Molecule:
    mol_id: object
    smiles: str
    graph: MolecularGraph
    fingerprint: Fingerprint
    descriptions: list[str]


@dataclass
class Corpus:
    molecules: list[Molecule]
    radius: int
    nbits: int

    def __post_init__(self):
        # (molecule index, description index) pairs are the sampling universe
        self.pairs = [
            (i, d) for i, mol in enumerate(self.molecules) for d in range(len(mol.descriptions))
        ]

    def __len__(self) -> int:
        return len(self.molecules)

    def fingerprints(self) -> list[Fingerprint]:
        return [m.fingerprint for m in self.molecules]

    def all_descriptions(self) -> list[str]:
        return [text for m in self.molecules for text in m.descriptions]


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise CorpusError(f"{where}: missing required field {key!r}")
    return record[key]


def _load_lines(path: str, own_fields, empty: str = "dataset holds no items") -> list[tuple]:
    """One (id, smiles, graph, *own_fields(record, where)) row per non-blank line.

    Every line is a JSON object with `id` and `smiles`; its own fields are checked before its SMILES is
    parsed. Every error names `path:line`, and a file without a line is refused.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
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
            rows.append((item_id, smiles, graph, *own))
    if not rows:
        raise CorpusError(f"{path}: {empty}")
    return rows


def load_corpus(path: str, radius: int = 2, nbits: int = 2048) -> Corpus:
    """Parse and check every line (errors name their line), then fingerprint the corpus in one batch."""
    seen_ids = set()

    def own_fields(record, where):
        descriptions = _require(record, "descriptions", where)
        if not isinstance(descriptions, list) or not descriptions:
            raise CorpusError(f"{where}: 'descriptions' must be a non-empty list")
        for d in descriptions:
            if not isinstance(d, str) or not d.strip():
                raise CorpusError(f"{where}: descriptions must be non-empty strings")
        key = (type(record["id"]).__name__, str(record["id"]))
        if key in seen_ids:
            raise DuplicateIdError(f"{where}: duplicate molecule id {record['id']!r}")
        seen_ids.add(key)
        return (list(descriptions),)

    rows = _load_lines(path, own_fields, empty="corpus holds no molecules")
    fingerprints = compute_fingerprints([graph for _, _, graph, _ in rows], radius=radius, nbits=nbits)
    molecules = [
        Molecule(mol_id=mol_id, smiles=smiles, graph=graph, fingerprint=fp, descriptions=descriptions)
        for (mol_id, smiles, graph, descriptions), fp in zip(rows, fingerprints)
    ]
    return Corpus(molecules=molecules, radius=radius, nbits=nbits)


# ---------------------------------------------------------------------------
# Training samplers


@dataclass
class AugmentationConfig:
    k: int = 10
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_types(self, ints=("k", "seed"), reals=("p",))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"substitution probability must lie in [0, 1], got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class TrainingItem:
    source_idx: int  # the molecule whose description this is
    mol_idx: int  # the molecule actually embedded (neighbor when substituted)
    description: str
    substituted: bool


@dataclass
class TrainingBatch:
    items: list[TrainingItem]

    def source_fingerprints(self, corpus: Corpus) -> list[Fingerprint]:
        return [corpus.molecules[item.source_idx].fingerprint for item in self.items]

    def batch_fingerprints(self, corpus: Corpus) -> list[Fingerprint]:
        return [corpus.molecules[item.mol_idx].fingerprint for item in self.items]


def sample_training_batch(
    corpus: Corpus,
    index: SimilarityIndex | None,
    cfg: AugmentationConfig,
    batch_size: int,
    rng: np.random.Generator,
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
        description = corpus.molecules[mol_idx].descriptions[desc_idx]
        substituted = False
        batch_idx = mol_idx
        # p == 0 draws nothing, keeping the stream equal to unaugmented sampling
        if cfg.p > 0 and rng.random() < cfg.p:
            neighbors = index.ids[mol_idx]
            if len(neighbors):
                batch_idx = int(neighbors[rng.integers(len(neighbors))])
                substituted = True
        items.append(
            TrainingItem(
                source_idx=mol_idx,
                mol_idx=batch_idx,
                description=description,
                substituted=substituted,
            )
        )
    return TrainingBatch(items=items)


@dataclass
class ERItem:
    mol_idx: int
    text: str  # t
    text_tilde: str  # t [SEP] t', a distinct description of the same molecule
    sibling: str  # t'


@dataclass
class ERBatch:
    items: list[ERItem]


def sample_er_batch(
    corpus: Corpus,
    batch_size: int,
    rng: np.random.Generator,
    min_descriptions: int = 2,
) -> ERBatch:
    """Molecules drawn with replacement among those with enough descriptions."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    eligible = [i for i, m in enumerate(corpus.molecules) if len(m.descriptions) >= min_descriptions]
    if not eligible:
        raise NoEligibleMoleculesError(
            f"no molecule has >= {min_descriptions} descriptions; regularization has nothing to pair"
        )
    items = []
    for _ in range(batch_size):
        mol_idx = eligible[int(rng.integers(len(eligible)))]
        descs = corpus.molecules[mol_idx].descriptions
        d1, d2 = rng.choice(len(descs), size=2, replace=False)
        text, sibling = descs[int(d1)], descs[int(d2)]
        items.append(
            ERItem(
                mol_idx=mol_idx,
                text=text,
                text_tilde=concat_with_sep(text, sibling),
                sibling=sibling,
            )
        )
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
        if not isinstance(description, str) or not description.strip():
            raise CorpusError(f"{where}: 'description' must be a non-empty string")
        return (description,)

    return [RetrievalItem(*row) for row in _load_lines(path, own_fields)]


def load_qa_dataset(path: str) -> list[QAItem]:
    def own_fields(record, where):
        question = _require(record, "question", where)
        options = _require(record, "options", where)
        answer_index = _require(record, "answer_index", where)
        if not isinstance(options, list) or len(options) != 5:
            raise MalformedQAItemError(f"{where}: need exactly 5 options, got {len(options) if isinstance(options, list) else type(options).__name__}")
        if not all(isinstance(o, str) and o.strip() for o in options):
            raise MalformedQAItemError(f"{where}: options must be non-empty strings")
        if not isinstance(answer_index, int) or not 0 <= answer_index < 5:
            raise MalformedQAItemError(f"{where}: answer_index must be an int in 0..4")
        return question, options, answer_index

    return [QAItem(*row) for row in _load_lines(path, own_fields)]


def load_screening_dataset(path: str) -> list[ScreeningItem]:
    def own_fields(record, where):
        label = _require(record, "label", where)
        if label not in (0, 1):
            raise CorpusError(f"{where}: 'label' must be 0 or 1")
        return (int(label),)

    return [ScreeningItem(*row) for row in _load_lines(path, own_fields)]


def load_probe_dataset(path: str) -> list[ProbeItem]:
    n_tasks = None

    def own_fields(record, where):
        nonlocal n_tasks
        labels = _require(record, "labels", where)
        if not isinstance(labels, list) or not labels:
            raise CorpusError(f"{where}: 'labels' must be a non-empty list")
        for lab in labels:
            if lab not in (0, 1, None):
                raise CorpusError(f"{where}: labels must be 0, 1, or null")
        if n_tasks is None:
            n_tasks = len(labels)
        elif len(labels) != n_tasks:
            raise CorpusError(f"{where}: expected {n_tasks} labels, got {len(labels)}")
        return (list(labels),)

    return [ProbeItem(*row) for row in _load_lines(path, own_fields)]
