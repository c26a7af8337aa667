"""Seeded input files for the benchmark workloads.

The seed picks molecules from the whole ``moltext.toydata`` SMILES pool and
generates their texts. The program under test only sees the files written
here, never the seed. Every function is a pure function of its arguments, so
one seed always gives the same bytes.
"""

from __future__ import annotations

import numpy as np

from moltext import toydata

# smiles_pool raises past this size; the benchmark samples from all of it
POOL_SIZE = 4634

_WORDS = (
    "acid active alkyl amine aromatic atom backbone basic binding bond branched "
    "carbon chain charged compact core cyclic dense donor electron ester flexible "
    "fragment group halogen heavy hydrophobic hydroxyl inert kinase ligand linear "
    "lipid long metabolite methyl moiety nitrogen oxygen polar potent reactive "
    "receptor ring rigid saturated scaffold short side soluble stable substituent "
    "sulfur target terminal toxic volatile weak"
).split()

QA_QUESTION = "which tag marks this compound"


def tag(i: int) -> str:
    """Unique word naming molecule i; base-26 letters survive the tokenizer."""
    letters = ""
    while True:
        letters = chr(ord("a") + i % 26) + letters
        i //= 26
        if i == 0:
            return "tag" + letters


def pick_smiles(rng: np.random.Generator, n: int) -> list[str]:
    pool = toydata.smiles_pool(POOL_SIZE)
    return [pool[int(j)] for j in rng.choice(len(pool), size=n, replace=False)]


def description(rng: np.random.Generator, i: int, min_words: int, max_words: int) -> str:
    words = rng.choice(len(_WORDS), size=int(rng.integers(min_words, max_words + 1)))
    return f"compound {tag(i)} " + " ".join(_WORDS[int(w)] for w in words)


def corpus(
    rng: np.random.Generator,
    n: int,
    descriptions: tuple[int, int],
    words: tuple[int, int],
) -> list[dict]:
    """n records; each gets a uniform draw from the inclusive `descriptions` range
    of texts, and each text a uniform draw from the inclusive `words` range."""
    records = []
    for i, smiles in enumerate(pick_smiles(rng, n)):
        count = int(rng.integers(descriptions[0], descriptions[1] + 1))
        texts = [description(rng, i, *words) for _ in range(count)]
        records.append({"id": i, "smiles": smiles, "descriptions": texts})
    return records


def qa_dataset(rng: np.random.Generator, records: list[dict]) -> list[dict]:
    """Five options per molecule: its own tag plus four other tags."""
    items = []
    for i, record in enumerate(records):
        others = rng.choice(len(records) - 1, size=4, replace=False)
        options = [tag(int(j) + (j >= i)) for j in others]
        answer = int(rng.integers(5))
        options.insert(answer, tag(i))
        items.append(
            {
                "id": record["id"],
                "smiles": record["smiles"],
                "question": QA_QUESTION,
                "options": options,
                "answer_index": answer,
            }
        )
    return items


def eval_datasets(rng: np.random.Generator, records: list[dict]) -> dict[str, list[dict]]:
    seed = int(rng.integers(2**31))
    return {
        "retrieval": toydata.make_retrieval_dataset(records),
        "qa": qa_dataset(rng, records),
        "screening": toydata.make_screening_dataset(records, prevalence=0.3, seed=seed),
        "probe": toydata.make_probe_dataset(records, tasks=2, seed=seed),
    }
