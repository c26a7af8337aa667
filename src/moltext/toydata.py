"""Deterministic synthetic corpora and evaluation datasets for demos and tests.

Molecules come from a generated pool of small organic-subset SMILES (chains,
rings, branches, heteroatoms). Every molecule gets a unique tag word in its
description so text-molecule alignment is actually learnable at toy scale.
Everything is a pure function of its arguments; the same seed gives the same
bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .chem import write_atomic

_HETERO_TAILS = ["O", "N", "S", "Cl", "Br", "F", "I", "P"]
_FAMILY_WORDS = {
    "chain": "straight chain backbone",
    "ring": "saturated ring core",
    "aromatic": "aromatic ring core",
    "branched": "branched backbone",
}


def smiles_pool(n: int) -> list[str]:
    """First n members of a deterministic pool of distinct SMILES, each parseable (test_chem's pool digest pins it)."""
    out: list[str] = []
    seen = set()

    def push(smiles: str):
        if len(out) >= n or smiles in seen:
            return
        seen.add(smiles)
        out.append(smiles)

    length = 1
    while len(out) < n and length < 40:
        chain = "C" * length
        push(chain)
        for tail in _HETERO_TAILS:
            push(chain + tail)
        if length >= 3:
            push("C1" + "C" * (length - 2) + "C1")  # ring of `length` atoms
        if length >= 3:
            push("CC(C)" + "C" * (length - 3) if length > 3 else "CC(C)C")
            push("CC(=O)" + "C" * (length - 3) if length > 3 else "CC(=O)C")
        push("c1ccccc1" + "C" * (length - 1))
        push("c1ccncc1" + "C" * (length - 1))
        length += 1
    # combinatorial stage for large pools: two heteroatoms spliced into a chain
    for a in range(1, 9):
        for b in range(1, 9):
            for x in _HETERO_TAILS:
                for y in _HETERO_TAILS:
                    if len(out) >= n:
                        return out
                    push("C" * a + x + "C" * b + y)
    if len(out) < n:
        raise ValueError(f"pool exhausted at {len(out)} < {n} molecules")
    return out


def _family(smiles: str) -> str:
    if smiles.startswith("c1"):
        return "aromatic"
    if "1" in smiles:
        return "ring"
    if "(" in smiles:
        return "branched"
    return "chain"


def _tag(i: int) -> str:
    # base-26 letters make tags that survive the word tokenizer unchanged
    letters = ""
    v = i
    while True:
        letters = chr(ord("a") + v % 26) + letters
        v //= 26
        if v == 0:
            break
    return "tag" + letters


def make_corpus(
    n_molecules: int,
    descriptions_per_molecule: int = 1,
    seed: int = 0,
    multi_fraction: float = 1.0,
) -> list[dict]:
    """Corpus records with unique tag words; extra descriptions are seeded paraphrases.

    With descriptions_per_molecule > 1, only the first multi_fraction of the
    molecules get the extra descriptions (the rest keep one), which makes
    eligibility thresholds testable.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i, smiles in enumerate(smiles_pool(n_molecules)):
        tag = _tag(i)
        family = _FAMILY_WORDS[_family(smiles)]
        size = sum(ch.isupper() or ch in "cnosp" for ch in smiles)
        base = f"compound {tag} shows a {family} with {size} heavy atoms"
        descriptions = [base]
        if i < int(round(multi_fraction * n_molecules)):
            words = base.split()
            for _ in range(descriptions_per_molecule - 1):
                while True:
                    shuffled = [words[j] for j in rng.permutation(len(words))]
                    if shuffled != words:
                        break
                descriptions.append(" ".join(shuffled))
        records.append({"id": i, "smiles": smiles, "descriptions": descriptions})
    return records


def make_retrieval_dataset(records: list[dict]) -> list[dict]:
    return [
        {"id": r["id"], "smiles": r["smiles"], "description": r["descriptions"][0]} for r in records
    ]


def make_qa_dataset(records: list[dict], seed: int = 0) -> list[dict]:
    """One 5-option question per molecule: pick the tag that names it."""
    if len(records) < 5:
        raise ValueError("need at least 5 molecules to build distractor options")
    rng = np.random.default_rng(seed)
    tags = [_tag(i) for i in range(len(records))]
    items = []
    for i, record in enumerate(records):
        others = [t for j, t in enumerate(tags) if j != i]
        pick = rng.choice(len(others), size=4, replace=False)
        options = [others[int(j)] for j in pick]
        answer_index = int(rng.integers(5))
        options.insert(answer_index, tags[i])
        items.append(
            {
                "id": record["id"],
                "smiles": record["smiles"],
                "question": "which tag marks this compound",
                "options": options,
                "answer_index": answer_index,
            }
        )
    return items


def make_screening_dataset(records: list[dict], prevalence: float = 0.3, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    labels = (rng.random(len(records)) < prevalence).astype(int)
    return [
        {"id": r["id"], "smiles": r["smiles"], "label": int(lab)} for r, lab in zip(records, labels)
    ]


def make_probe_dataset(
    records: list[dict], tasks: int = 2, missing_fraction: float = 0.1, seed: int = 0
) -> list[dict]:
    """Binary labels keyed to simple structural facts, with a few holes."""
    rng = np.random.default_rng(seed)
    items = []
    for record in records:
        smiles = record["smiles"]
        facts = [
            int(any(ch in smiles for ch in "NOS")),  # has a heteroatom
            int("1" in smiles),  # has a ring
            int(len(smiles) > 6),  # larger than hexane-ish
        ]
        labels: list[int | None] = [facts[t % len(facts)] for t in range(tasks)]
        for t in range(tasks):
            if rng.random() < missing_fraction:
                labels[t] = None
        items.append({"id": record["id"], "smiles": smiles, "labels": labels})
    return items


def write_jsonl(path: str, items: list[dict]) -> None:
    write_atomic(path, "".join(json.dumps(item, sort_keys=True) + "\n" for item in items).encode("utf-8"))


write_corpus_jsonl = write_jsonl
