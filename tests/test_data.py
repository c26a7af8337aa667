"""Corpus loading, dataset loaders, and sampler behavior (substitution stats, eligibility)."""

import json

import numpy as np
import pytest

from moltext import toydata
from moltext.chem import tanimoto
from moltext.data import (
    AugmentationConfig,
    BatchLargerThanCorpusError,
    CorpusError,
    DuplicateIdError,
    MalformedQAItemError,
    NoEligibleMoleculesError,
    load_corpus,
    load_probe_dataset,
    load_qa_dataset,
    load_retrieval_dataset,
    load_screening_dataset,
    sample_er_batch,
    sample_training_batch,
)
from moltext.encoders import SEP_ID, build_vocab, tokenize
from moltext.simindex import build_topk


@pytest.fixture
def corpus_path(tmp_path):
    records = toydata.make_corpus(20, descriptions_per_molecule=2, seed=1)
    path = str(tmp_path / "corpus.jsonl")
    toydata.write_corpus_jsonl(path, records)
    return path


class TestLoadCorpus:
    def test_happy_path(self, corpus_path):
        corpus = load_corpus(corpus_path, radius=2, nbits=512)
        assert len(corpus) == 20
        assert len(corpus.pairs) == 40  # two descriptions each
        assert corpus.molecules[0].fingerprint.nbits == 512
        assert corpus.molecules[0].graph.atoms

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "smiles": "C", "descriptions": ["x"]}\n{oops\n')
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(str(path))

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "smiles": "C"}\n')
        with pytest.raises(CorpusError, match="descriptions"):
            load_corpus(str(path))

    def test_empty_descriptions_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "smiles": "C", "descriptions": []}\n')
        with pytest.raises(CorpusError, match=":1:"):
            load_corpus(str(path))
        path.write_text('{"id": 0, "smiles": "C", "descriptions": ["  "]}\n')
        with pytest.raises(CorpusError):
            load_corpus(str(path))

    def test_bad_smiles_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": 0, "smiles": "C", "descriptions": ["x"]}\n'
            '{"id": 1, "smiles": "C(C", "descriptions": ["y"]}\n'
        )
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": 7, "smiles": "C", "descriptions": ["x"]}\n'
            '{"id": 7, "smiles": "CC", "descriptions": ["y"]}\n'
        )
        with pytest.raises(DuplicateIdError):
            load_corpus(str(path))


class TestTrainingSampler:
    def make(self, corpus_path, p, k=5):
        corpus = load_corpus(corpus_path, nbits=512)
        index = build_topk(corpus.fingerprints(), k=k)
        return corpus, index, AugmentationConfig(k=k, p=p, seed=0)

    def test_without_replacement(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=0.5)
        rng = np.random.default_rng(0)
        batch = sample_training_batch(corpus, index, cfg, 40, rng)
        pairs = [(item.source_idx, item.description) for item in batch.items]
        assert len(set(pairs)) == len(pairs) == 40

    def test_batch_too_large(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=0.0)
        with pytest.raises(BatchLargerThanCorpusError):
            sample_training_batch(corpus, index, cfg, 41, np.random.default_rng(0))

    def test_p_zero_matches_unaugmented(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=0.0)
        b1 = sample_training_batch(corpus, index, cfg, 16, np.random.default_rng(9))
        b2 = sample_training_batch(corpus, None, cfg, 16, np.random.default_rng(9))
        assert b1 == b2
        assert not any(item.substituted for item in b1.items)

    def test_p_one_substitutes_into_neighbor_set(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            batch = sample_training_batch(corpus, index, cfg, 16, rng)
            for item in batch.items:
                assert item.substituted
                assert item.mol_idx in index.neighbor_ids(item.source_idx)
                assert item.description in corpus.molecules[item.source_idx].descriptions

    def test_substitution_rate_monte_carlo(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=0.3)
        rng = np.random.default_rng(42)
        total, substituted = 0, 0
        for _ in range(250):
            batch = sample_training_batch(corpus, index, cfg, 40, rng)
            total += len(batch.items)
            substituted += sum(item.substituted for item in batch.items)
        rate = substituted / total
        assert abs(rate - 0.3) < 0.02  # 10000 draws, 3 sigma is about 0.014

    def test_source_fingerprint_is_original(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=1.0)
        batch = sample_training_batch(corpus, index, cfg, 16, np.random.default_rng(5))
        sources = batch.source_fingerprints(corpus)
        for item, fp in zip(batch.items, sources):
            assert fp == corpus.molecules[item.source_idx].fingerprint
            if item.mol_idx != item.source_idx:
                assert fp != corpus.molecules[item.mol_idx].fingerprint or tanimoto(
                    fp, corpus.molecules[item.mol_idx].fingerprint
                ) == 1.0

    def test_deterministic_given_seed(self, corpus_path):
        corpus, index, cfg = self.make(corpus_path, p=0.5)
        b1 = sample_training_batch(corpus, index, cfg, 16, np.random.default_rng(11))
        b2 = sample_training_batch(corpus, index, cfg, 16, np.random.default_rng(11))
        assert b1 == b2

    def test_p_positive_without_index_rejected(self, corpus_path):
        corpus, _, cfg = self.make(corpus_path, p=0.5)
        with pytest.raises(ValueError):
            sample_training_batch(corpus, None, cfg, 4, np.random.default_rng(0))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            AugmentationConfig(p=1.5)
        with pytest.raises(ValueError):
            AugmentationConfig(k=0)


class TestERSampler:
    def test_no_eligible_molecules(self, tmp_path):
        records = toydata.make_corpus(5, descriptions_per_molecule=1, seed=0)
        path = str(tmp_path / "single.jsonl")
        toydata.write_corpus_jsonl(path, records)
        corpus = load_corpus(path, nbits=512)
        with pytest.raises(NoEligibleMoleculesError):
            sample_er_batch(corpus, 4, np.random.default_rng(0))

    def test_pairs_distinct_descriptions_of_same_molecule(self, corpus_path):
        corpus = load_corpus(corpus_path, nbits=512)
        rng = np.random.default_rng(1)
        batch = sample_er_batch(corpus, 32, rng)
        assert len(batch.items) == 32
        for item in batch.items:
            descs = corpus.molecules[item.mol_idx].descriptions
            assert item.text in descs
            assert item.text_tilde.startswith(item.text + " [SEP] ")
            other = item.text_tilde[len(item.text) + len(" [SEP] ") :]
            assert other in descs and other != item.text

    def test_tilde_tokenizes_with_sep_and_prefix(self, corpus_path):
        corpus = load_corpus(corpus_path, nbits=512)
        vocab = build_vocab(corpus.all_descriptions(), cap=500)
        batch = sample_er_batch(corpus, 16, np.random.default_rng(2))
        for item in batch.items:
            t_ids = tokenize(vocab, item.text, max_len=64)
            tilde_ids = tokenize(vocab, item.text_tilde, max_len=64)
            assert SEP_ID in tilde_ids
            assert tilde_ids[: len(t_ids)] == t_ids

    def test_min_descriptions_threshold(self, tmp_path):
        records = toydata.make_corpus(10, descriptions_per_molecule=3, seed=3, multi_fraction=0.5)
        path = str(tmp_path / "mixed.jsonl")
        toydata.write_corpus_jsonl(path, records)
        corpus = load_corpus(path, nbits=512)
        batch = sample_er_batch(corpus, 64, np.random.default_rng(4), min_descriptions=3)
        eligible = {i for i, m in enumerate(corpus.molecules) if len(m.descriptions) >= 3}
        assert {item.mol_idx for item in batch.items} <= eligible

    def test_deterministic(self, corpus_path):
        corpus = load_corpus(corpus_path, nbits=512)
        b1 = sample_er_batch(corpus, 8, np.random.default_rng(7))
        b2 = sample_er_batch(corpus, 8, np.random.default_rng(7))
        assert b1 == b2


class TestEvalLoaders:
    def test_retrieval(self, tmp_path):
        records = toydata.make_corpus(8, seed=5)
        path = str(tmp_path / "retrieval.jsonl")
        toydata.write_jsonl(path, toydata.make_retrieval_dataset(records))
        items = load_retrieval_dataset(path)
        assert len(items) == 8 and items[0].description

    def test_qa_happy_and_malformed(self, tmp_path):
        records = toydata.make_corpus(8, seed=6)
        path = str(tmp_path / "qa.jsonl")
        toydata.write_jsonl(path, toydata.make_qa_dataset(records, seed=6))
        items = load_qa_dataset(path)
        assert all(len(item.options) == 5 for item in items)
        assert all(0 <= item.answer_index < 5 for item in items)

        bad = tmp_path / "qa_bad.jsonl"
        bad.write_text(
            json.dumps(
                {"id": 0, "smiles": "C", "question": "q", "options": ["a", "b", "c", "d"], "answer_index": 0}
            )
            + "\n"
        )
        with pytest.raises(MalformedQAItemError):
            load_qa_dataset(str(bad))
        bad.write_text(
            json.dumps(
                {"id": 0, "smiles": "C", "question": "q", "options": ["a", "b", "c", "d", "e"], "answer_index": 5}
            )
            + "\n"
        )
        with pytest.raises(MalformedQAItemError):
            load_qa_dataset(str(bad))

    def test_screening(self, tmp_path):
        records = toydata.make_corpus(10, seed=7)
        path = str(tmp_path / "screen.jsonl")
        toydata.write_jsonl(path, toydata.make_screening_dataset(records, prevalence=0.4, seed=7))
        items = load_screening_dataset(path)
        assert {item.label for item in items} <= {0, 1}

        bad = tmp_path / "screen_bad.jsonl"
        bad.write_text('{"id": 0, "smiles": "C", "label": 2}\n')
        with pytest.raises(CorpusError):
            load_screening_dataset(str(bad))

    def test_probe(self, tmp_path):
        records = toydata.make_corpus(10, seed=8)
        path = str(tmp_path / "probe.jsonl")
        toydata.write_jsonl(path, toydata.make_probe_dataset(records, tasks=3, seed=8))
        items = load_probe_dataset(path)
        assert all(len(item.labels) == 3 for item in items)

        bad = tmp_path / "probe_bad.jsonl"
        bad.write_text('{"id": 0, "smiles": "C", "labels": [0, 1]}\n{"id": 1, "smiles": "N", "labels": [0]}\n')
        with pytest.raises(CorpusError, match=":2:"):
            load_probe_dataset(str(bad))


# One valid line's own fields per loader; each file's line 1 is valid, so errors name line 2
_OWN_FIELDS = {
    load_corpus: ({"descriptions": ["a ring"]}, "corpus holds no molecules"),
    load_retrieval_dataset: ({"description": "a ring"}, "dataset holds no items"),
    load_qa_dataset: (
        {"question": "which?", "options": ["a", "b", "c", "d", "e"], "answer_index": 0},
        "dataset holds no items",
    ),
    load_screening_dataset: ({"label": 1}, "dataset holds no items"),
    load_probe_dataset: ({"labels": [0, None]}, "dataset holds no items"),
}


@pytest.mark.parametrize("loader", list(_OWN_FIELDS), ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "broken, message",
    [
        pytest.param({"smiles": "CC"}, ":2: missing required field 'id'", id="missing_id"),
        pytest.param({"id": 1}, ":2: missing required field 'smiles'", id="missing_smiles"),
        pytest.param({"id": 1, "smiles": "C(C"}, ":2: bad SMILES 'C(C': 1 unclosed '('", id="bad_smiles"),
        pytest.param(None, None, id="empty_file"),
    ],
)
def test_every_loader_shares_the_line_prelude(tmp_path, loader, broken, message):
    own, empty = _OWN_FIELDS[loader]
    path = tmp_path / "data.jsonl"
    if broken is None:
        path.write_text("\n  \n")  # blank lines only
        expected = f"{path}: {empty}"
    else:
        lines = [{"id": 0, "smiles": "C", **own}, {**broken, **own}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        expected = f"{path}{message}"
    with pytest.raises(CorpusError) as info:
        loader(str(path))
    assert str(info.value) == expected


@pytest.mark.parametrize("line, kind", [("5", "int"), ('"idsmiles"', "str"), ("[1]", "list")])
def test_a_line_that_is_not_an_object_is_refused(tmp_path, line, kind):
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(CorpusError) as info:
        load_screening_dataset(str(path))
    assert str(info.value) == f"{path}:1: expected a JSON object, got {kind}"


class TestToyData:
    def test_pool_distinct_and_parseable(self):
        pool = toydata.smiles_pool(200)
        assert len(pool) == len(set(pool)) == 200

    def test_corpus_deterministic(self):
        a = toydata.make_corpus(30, descriptions_per_molecule=2, seed=9)
        b = toydata.make_corpus(30, descriptions_per_molecule=2, seed=9)
        assert a == b

    def test_tags_unique(self):
        records = toydata.make_corpus(50, seed=10)
        tags = [r["descriptions"][0].split()[1] for r in records]
        assert len(set(tags)) == 50

    def test_paraphrases_differ_but_share_words(self):
        records = toydata.make_corpus(10, descriptions_per_molecule=2, seed=11)
        for r in records:
            a, b = r["descriptions"]
            assert a != b and sorted(a.split()) == sorted(b.split())
