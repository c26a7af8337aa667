"""Protocol and statistics tests.

The selection mechanics (argmax, tie rules, splits) are pinned with planted
embeddings; the statistics are checked against independent oracles, including
scipy as an external reference.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats

from moltext import evaluation
from moltext import tensor as T
from moltext.chem import parse_smiles
from moltext.data import (
    ProbeItem,
    QAItem,
    RetrievalItem,
    ScreeningItem,
    load_probe_dataset,
    load_qa_dataset,
    load_retrieval_dataset,
    load_screening_dataset,
)
from moltext.encoders import ModelConfig, MolTextModel, build_vocab, tokenize
from moltext.evaluation import (
    AllLabelsMissingError,
    DatasetTooSmallError,
    LengthMismatchError,
    TopNExceedsDatasetError,
    ZeroVarianceError,
    embed_molecule_matrix,
    embed_text_matrix,
    eval_qa,
    eval_retrieval,
    eval_screening,
    finetune_probe,
    paired_ttest,
    regularized_incomplete_beta,
    roc_auc,
    student_t_sf,
)
from moltext.toydata import (
    make_corpus,
    make_probe_dataset,
    make_qa_dataset,
    make_retrieval_dataset,
    make_screening_dataset,
    write_jsonl,
)


def tiny_model(seed=0):
    cfg = ModelConfig(
        hidden_dim=8,
        embed_dim=8,
        projection_dim=4,
        gin_layers=1,
        text_blocks=1,
        max_len=16,
        vocab_cap=128,
    )
    vocab = build_vocab(["alpha beta gamma delta epsilon zeta"], cap=128)
    return MolTextModel(cfg, vocab, seed=seed)


def retrieval_items(n):
    records = make_corpus(n, seed=5)
    return [
        RetrievalItem(r["id"], r["smiles"], parse_smiles(r["smiles"]), r["descriptions"][0])
        for r in records
    ]


def plant_embeddings(monkeypatch, mol_rows, text_map):
    """Route the embedding helpers through fixed lookup tables."""
    monkeypatch.setattr(
        evaluation, "embed_molecule_matrix", lambda model, graphs: mol_rows[: len(graphs)]
    )
    monkeypatch.setattr(
        evaluation, "embed_text_matrix", lambda model, texts: np.stack([text_map[t] for t in texts])
    )


# ---------------------------------------------------------------------------
# Embedding helpers


def test_matrix_helpers_shapes():
    model = tiny_model()
    items = retrieval_items(4)
    m = embed_molecule_matrix(model, [it.graph for it in items])
    t = embed_text_matrix(model, [it.description for it in items])
    assert m.shape == (4, 4) and t.shape == (4, 4)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(t))


def test_unit_rows_scale_by_the_clamped_row_norm_bit_for_bit():
    rng = np.random.default_rng(8)
    x = np.vstack([rng.normal(size=(6, 5)), np.zeros((1, 5)), 1e-200 * rng.normal(size=(1, 5)), 1e150 * np.ones((1, 5))])
    unit = evaluation._unit_rows(x)
    assert unit.tobytes() == (x / T.row_norms(x)[:, None]).tobytes()
    # the rule np.linalg.norm gives, with an all-zero row becoming zeros
    assert unit.tobytes() == (x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)).tobytes()
    assert np.array_equal(unit[6], np.zeros(5)) and not np.signbit(unit[6]).any()


def count_batches(monkeypatch, model):
    """Record every batch the model's embed_texts / embed_molecules receive, by method name."""
    batches = {"embed_texts": [], "embed_molecules": []}
    for name, seen in batches.items():
        def hook(batch, forward=getattr(model, name), seen=seen):
            seen.append(list(batch))
            return forward(batch)

        monkeypatch.setattr(model, name, hook)
    return batches


def input_order_matrix(embed, items):
    """The input-order chunking the distinct-input helper replaced, kept as the reference."""
    chunk = evaluation.EMBED_CHUNK
    return np.concatenate([embed(items[i : i + chunk]).data for i in range(0, len(items), chunk)])


def test_text_matrix_embeds_each_distinct_token_list_once_by_length(monkeypatch):
    monkeypatch.setattr(evaluation, "EMBED_CHUNK", 4)
    model = tiny_model(seed=3)
    words = "alpha beta gamma delta epsilon zeta".split()
    rng = np.random.default_rng(11)
    texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 21)))) for _ in range(30)]
    # repeats: the same string, the same ids spelled differently, unknown words that all
    # become [UNK], and long texts equal up to max_len (16) that truncate to the same ids
    texts += [texts[4], texts[4].upper() + " !", "alpha omega", "alpha psi", texts[0], texts[9]]
    texts += ["beta " * 15 + "gamma", "beta " * 15 + "delta zeta"]
    ids = [tuple(tokenize(model.vocab, t, model.config.max_len)) for t in texts]
    assert len(set(ids)) < len(set(texts)) < len(texts)
    batches = count_batches(monkeypatch, model)

    rows = embed_text_matrix(model, texts)

    embedded = [tuple(item) for batch in batches["embed_texts"] for item in batch]
    assert Counter(embedded) == Counter(set(ids))  # each distinct token list exactly once
    assert [len(item) for item in embedded] == sorted(len(item) for item in embedded)
    assert all(1 <= len(batch) <= 4 for batch in batches["embed_texts"])
    alone = np.concatenate([model.embed_texts([list(key)]).data for key in ids])
    np.testing.assert_allclose(rows, alone, rtol=0, atol=1e-12)  # rows in input order
    for i in range(len(ids)):
        for j in range(i):
            if ids[i] == ids[j]:
                assert rows[i].tobytes() == rows[j].tobytes()


def test_molecule_matrix_embeds_each_distinct_graph_once_in_first_order(monkeypatch):
    monkeypatch.setattr(evaluation, "EMBED_CHUNK", 3)
    model = tiny_model(seed=4)
    smiles = [r["smiles"] for r in make_corpus(8, seed=0)]
    order = [0, 1, 2, 1, 3, 0, 4, 5, 6, 6, 7, 2]
    graphs = [parse_smiles(smiles[k]) for k in order]  # equal graphs, parsed separately
    batches = count_batches(monkeypatch, model)

    rows = embed_molecule_matrix(model, graphs)

    embedded = [item for batch in batches["embed_molecules"] for item in batch]
    assert embedded == [parse_smiles(s) for s in smiles]  # once each, in first-occurrence order
    assert [len(batch) for batch in batches["embed_molecules"]] == [3, 3, 2]
    alone = np.concatenate([model.embed_molecules([g]).data for g in graphs])
    np.testing.assert_allclose(rows, alone, rtol=0, atol=1e-12)
    for i, a in enumerate(order):
        for j, b in enumerate(order[:i]):
            if a == b:
                assert rows[i].tobytes() == rows[j].tobytes()


@pytest.mark.parametrize("chunk", [3, 32])
def test_molecule_matrix_without_repeats_keeps_input_order_chunks(monkeypatch, chunk):
    monkeypatch.setattr(evaluation, "EMBED_CHUNK", chunk)
    model = tiny_model(seed=5)
    graphs = [parse_smiles(r["smiles"]) for r in make_corpus(40, seed=0)]
    expected = input_order_matrix(model.embed_molecules, graphs)
    assert embed_molecule_matrix(model, graphs).tobytes() == expected.tobytes()


@pytest.fixture
def toy_eval(tmp_path):
    """A model and every protocol's items from one seeded toy corpus.

    Descriptions are cut to a seeded 2 to 10 words, so their untruncated token
    lengths run from 3 to past max_len (8); each tag is an option of about five
    questions, so QA option texts repeat.
    """
    rng = np.random.default_rng(17)
    records = make_corpus(70, seed=17)
    for record in records:
        words = record["descriptions"][0].split()
        record["descriptions"] = [" ".join(words[: int(rng.integers(2, len(words) + 1))])]
    files = {
        "retrieval": (make_retrieval_dataset(records), load_retrieval_dataset),
        "qa": (make_qa_dataset(records, seed=17), load_qa_dataset),
        "screening": (make_screening_dataset(records, seed=17), load_screening_dataset),
        "probe": (make_probe_dataset(records, tasks=2, seed=17), load_probe_dataset),
    }
    items = {}
    for name, (lines, load) in files.items():
        write_jsonl(str(tmp_path / f"{name}.jsonl"), lines)
        items[name] = load(str(tmp_path / f"{name}.jsonl"))
    qa_texts = [f"{q.question} {o}" for q in items["qa"] for o in q.options]
    texts = [r.description for r in items["retrieval"]] + qa_texts
    cfg = ModelConfig(hidden_dim=8, embed_dim=8, projection_dim=4, gin_layers=2, text_blocks=2, max_len=8)
    model = MolTextModel(cfg, build_vocab(texts, cap=cfg.vocab_cap), seed=17)
    lengths = {len(tokenize(model.vocab, r.description, 64)) for r in items["retrieval"]}
    assert min(lengths) < cfg.max_len < max(lengths)
    assert len(set(qa_texts)) < len(qa_texts)
    return model, items


def all_reports(model, items):
    reports = {
        direction: eval_retrieval(model, items["retrieval"], direction=direction, n_options=6, trials=4, seed=3)
        for direction in ("given_text", "given_molecule")
    }
    reports["qa"] = eval_qa(model, items["qa"])
    reports["screening"] = eval_screening(model, items["screening"], "aromatic ring core", top_n=10)
    reports["probe"] = finetune_probe(model, items["probe"], epochs=30, seed=3)
    return {name: dataclasses.asdict(report) for name, report in reports.items()}


@pytest.mark.parametrize("chunk", [4, 32])
def test_reports_do_not_depend_on_how_inputs_are_chunked(monkeypatch, toy_eval, chunk):
    model, items = toy_eval
    monkeypatch.setattr(evaluation, "EMBED_CHUNK", chunk)
    distinct = all_reports(model, items)
    max_len = model.config.max_len
    monkeypatch.setattr(
        evaluation, "embed_molecule_matrix", lambda model, graphs: input_order_matrix(model.embed_molecules, graphs)
    )
    monkeypatch.setattr(
        evaluation,
        "embed_text_matrix",
        lambda model, texts: input_order_matrix(model.embed_texts, [tokenize(model.vocab, t, max_len) for t in texts]),
    )
    assert all_reports(model, items) == distinct


def test_duplicate_inputs_tie_exactly_and_the_lower_index_wins(tmp_path):
    model = tiny_model(seed=6)
    cases = {
        "given_text": [("CCO", "alpha beta"), ("CCO", "gamma delta epsilon zeta")],  # one molecule twice
        "given_molecule": [("CCO", "alpha beta"), ("c1ccccc1", "alpha beta")],  # one description twice
    }
    for direction, pairs in cases.items():
        path = tmp_path / f"{direction}.jsonl"
        write_jsonl(str(path), [{"id": i, "smiles": s, "description": d} for i, (s, d) in enumerate(pairs)])
        items = load_retrieval_dataset(str(path))
        if direction == "given_text":
            candidates = embed_molecule_matrix(model, [it.graph for it in items])
        else:
            candidates = embed_text_matrix(model, [it.description for it in items])
        assert candidates[0].tobytes() == candidates[1].tobytes()
        # both queries see the same two candidates tie; item 0 wins both, so only query 0 is right
        result = eval_retrieval(model, items, direction=direction, n_options=2, trials=3, seed=0)
        assert result.accuracies == [50.0, 50.0, 50.0]


# ---------------------------------------------------------------------------
# Retrieval


def test_retrieval_perfect_when_embeddings_align(monkeypatch):
    items = retrieval_items(8)
    eye = np.eye(8)
    text_map = {it.description: eye[i] for i, it in enumerate(items)}
    plant_embeddings(monkeypatch, eye, text_map)
    result = eval_retrieval(tiny_model(), items, n_options=5, trials=3, seed=1)
    assert result.accuracies == [100.0, 100.0, 100.0]
    assert result.mean == 100.0 and result.std == 0.0


def test_retrieval_tie_goes_to_lowest_index(monkeypatch):
    items = retrieval_items(3)
    same = np.tile(np.array([1.0, 0.0, 0.0]), (3, 1))  # all candidates identical
    text_map = {it.description: np.array([1.0, 0.0, 0.0]) for it in items}
    plant_embeddings(monkeypatch, same, text_map)
    result = eval_retrieval(tiny_model(), items, n_options=3, trials=1, seed=0)
    # every pool is {0,1,2}; the tie always resolves to item 0
    assert result.accuracies == [pytest.approx(100.0 / 3)]


def test_retrieval_directions_differ_in_queries(monkeypatch):
    items = retrieval_items(6)
    eye = np.eye(6)
    # molecule side is planted to be wrong for one specific item
    mol = eye.copy()
    text_map = {it.description: eye[i] for i, it in enumerate(items)}
    plant_embeddings(monkeypatch, mol, text_map)
    a = eval_retrieval(tiny_model(), items, direction="given_text", n_options=4, seed=3)
    b = eval_retrieval(tiny_model(), items, direction="given_molecule", n_options=4, seed=3)
    assert a.mean == b.mean == 100.0


def test_retrieval_determinism_and_seed_sensitivity():
    model = tiny_model()
    items = retrieval_items(30)
    r1 = eval_retrieval(model, items, n_options=10, trials=4, seed=9)
    r2 = eval_retrieval(model, items, n_options=10, trials=4, seed=9)
    assert r1 == r2
    r3 = eval_retrieval(model, items, n_options=10, trials=8, seed=10)
    assert r3.accuracies != r1.accuracies + r1.accuracies  # different draws


def test_retrieval_stats_consistent():
    model = tiny_model()
    items = retrieval_items(25)
    result = eval_retrieval(model, items, n_options=5, trials=5, seed=2)
    assert result.mean == pytest.approx(float(np.mean(result.accuracies)))
    assert result.std == pytest.approx(float(np.std(result.accuracies, ddof=1)))
    single = eval_retrieval(model, items, n_options=5, trials=1, seed=2)
    assert single.std == 0.0


def test_retrieval_dataset_too_small():
    with pytest.raises(DatasetTooSmallError):
        eval_retrieval(tiny_model(), retrieval_items(5), n_options=20)


def test_retrieval_bad_direction():
    with pytest.raises(ValueError, match="direction"):
        eval_retrieval(tiny_model(), retrieval_items(5), direction="sideways", n_options=3)


def test_retrieval_loader_roundtrip(tmp_path):
    records = make_corpus(6, seed=1)
    path = tmp_path / "retrieval.jsonl"
    write_jsonl(str(path), make_retrieval_dataset(records))
    items = load_retrieval_dataset(str(path))
    assert len(items) == 6
    result = eval_retrieval(tiny_model(), items, n_options=3, trials=2, seed=0)
    assert len(result.accuracies) == 2


def loop_retrieval_accuracies(queries, candidates, n_options, trials, seed):
    """One query at a time: the per-query loop the block scoring replaced, kept as the reference."""
    n = len(queries)
    rng = np.random.default_rng(seed)
    accuracies = []
    for _ in range(trials):
        correct = 0
        for i in range(n):
            others = rng.choice(n - 1, size=n_options - 1, replace=False)
            others = np.where(others >= i, others + 1, others)
            pool = np.sort(np.concatenate(([i], others)))
            scores = candidates[pool] @ queries[i]
            if pool[int(np.argmax(scores))] == i:
                correct += 1
        accuracies.append(100.0 * correct / n)
    return accuracies


@pytest.mark.parametrize("direction", ["given_text", "given_molecule"])
@pytest.mark.parametrize("n_options", [1, 2, 7, 23])
@pytest.mark.parametrize("block_bytes", [1, 3 * 23 * 4 * 8, evaluation.RETRIEVAL_BLOCK_BYTES])
@pytest.mark.parametrize("values", ["grid", "normal"])
def test_retrieval_blocks_match_per_query_loop(monkeypatch, direction, n_options, block_bytes, values):
    n, dim = 23, 4  # 23 is prime: blocks of 2 to 22 rows leave a short last one
    rng = np.random.default_rng(n_options)
    if values == "grid":  # few distinct rows: many exact ties, on both sides
        z_mol = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
        z_text = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
    else:
        z_mol, z_text = rng.normal(size=(n, dim)), rng.normal(size=(n, dim))
        z_mol[5] = z_mol[17]  # planted ties: one row copies a later row, one an earlier row
        z_text[9] = z_text[2]
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: z_mol)
    monkeypatch.setattr(evaluation, "embed_text_matrix", lambda model, texts: z_text)
    monkeypatch.setattr(evaluation, "RETRIEVAL_BLOCK_BYTES", block_bytes)
    unit_mol, unit_text = evaluation._unit_rows(z_mol), evaluation._unit_rows(z_text)
    queries, candidates = (unit_text, unit_mol) if direction == "given_text" else (unit_mol, unit_text)

    if n_options < 2:  # the counterpart alone is no choice: refused, not scored 100%
        with pytest.raises(ValueError, match="n_options must be >= 2"):
            eval_retrieval(None, retrieval_items(n), direction=direction, n_options=n_options, trials=3, seed=4)
        return
    result = eval_retrieval(None, retrieval_items(n), direction=direction, n_options=n_options, trials=3, seed=4)
    assert result.accuracies == loop_retrieval_accuracies(queries, candidates, n_options, 3, 4)


def test_retrieval_matches_per_query_loop_on_a_model():
    model = tiny_model(seed=2)
    items = retrieval_items(40)
    unit_mol = evaluation._unit_rows(embed_molecule_matrix(model, [it.graph for it in items]))
    unit_text = evaluation._unit_rows(embed_text_matrix(model, [it.description for it in items]))
    for direction, queries, candidates in (
        ("given_text", unit_text, unit_mol),
        ("given_molecule", unit_mol, unit_text),
    ):
        result = eval_retrieval(model, items, direction=direction, n_options=10, trials=4, seed=6)
        assert result.accuracies == loop_retrieval_accuracies(queries, candidates, 10, 4, 6)


# ---------------------------------------------------------------------------
# Multiple choice


def qa_item(answer_index):
    return QAItem(0, "CCO", parse_smiles("CCO"), "which tag names it?", list("abcde"), answer_index)


def plant_molecules(monkeypatch, v):
    """Every molecule embeds to v."""
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: np.tile(v, (len(graphs), 1)))


def test_qa_picks_nearest_option(monkeypatch):
    v = np.array([1.0, 0.0, 0.0, 0.0])
    text_map = {f"which tag names it? {o}": np.eye(4)[3] for o in "abcde"}
    text_map["which tag names it? c"] = v
    monkeypatch.setattr(
        evaluation, "embed_text_matrix", lambda model, texts: np.stack([text_map[t] for t in texts])
    )
    plant_molecules(monkeypatch, v)
    assert eval_qa(None, [qa_item(2)]).accuracy == 100.0
    assert eval_qa(None, [qa_item(0)]).accuracy == 0.0


def test_qa_tie_goes_to_first_option(monkeypatch):
    v = np.array([1.0, 0.0])
    monkeypatch.setattr(
        evaluation, "embed_text_matrix", lambda model, texts: np.tile(v, (len(texts), 1))
    )
    plant_molecules(monkeypatch, v)
    assert eval_qa(None, [qa_item(0)]).correct == 1
    assert eval_qa(None, [qa_item(1)]).correct == 0


def test_qa_empty_rejected():
    with pytest.raises(DatasetTooSmallError):
        eval_qa(tiny_model(), [])


def test_qa_items_with_different_option_counts_are_refused():
    """Scores are one (items, options) block; items of 4 and 6 options would misalign in it."""
    four, six = qa_item(0), qa_item(1)
    four.options, six.options = list("abcd"), list("abcdef")
    with pytest.raises(ValueError) as info:
        eval_qa(tiny_model(), [four, six])
    assert str(info.value) == "every item needs the same number of options, got [4, 6]"


def test_qa_counts(monkeypatch):
    rng = np.random.default_rng(0)
    vecs = rng.normal(size=(6, 4))
    monkeypatch.setattr(
        evaluation,
        "embed_text_matrix",
        lambda model, texts: np.stack([vecs[hash(t) % 6] for t in texts]),
    )
    plant_molecules(monkeypatch, vecs[0])
    result = eval_qa(None, [qa_item(i % 5) for i in range(8)])
    assert result.n_items == 8
    assert result.accuracy == pytest.approx(100.0 * result.correct / 8)


def test_qa_matches_per_item_reference():
    """On a real model, the batched molecule path picks what one embed_molecule per item picks."""
    records = make_corpus(30, seed=2)
    items = [
        QAItem(q["id"], q["smiles"], parse_smiles(q["smiles"]), q["question"], q["options"], q["answer_index"])
        for q in make_qa_dataset(records, seed=3)
    ]
    texts = [f"{item.question} {option}" for item in items for option in item.options]
    cfg = ModelConfig(hidden_dim=8, embed_dim=8, projection_dim=4, gin_layers=2, text_blocks=1, max_len=16)
    model = MolTextModel(cfg, build_vocab(texts, cap=cfg.vocab_cap), seed=5)

    z_texts = evaluation._unit_rows(embed_text_matrix(model, texts))
    picks = []
    for k, item in enumerate(items):
        z_m = model.embed_molecule(item.graph).data
        z_m = z_m / max(float(np.linalg.norm(z_m)), 1e-12)
        picks.append(int(np.argmax(z_texts[5 * k : 5 * k + 5] @ z_m)))
    correct = sum(pick == item.answer_index for pick, item in zip(picks, items))
    assert 0 < correct < len(items)  # the reference is not degenerate

    result = eval_qa(model, items)
    assert (result.n_items, result.correct) == (len(items), correct)
    assert result.accuracy == 100.0 * correct / len(items)


# ---------------------------------------------------------------------------
# Screening


def screening_items(labels):
    return [ScreeningItem(i, "CCO", parse_smiles("CCO"), lab) for i, lab in enumerate(labels)]


def test_screening_ranks_and_counts(monkeypatch):
    # scores 0, 1, 1 and 1/sqrt(2): items 1 and 2 tie at the top, item 0 ranks last
    mol = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    plant_embeddings(monkeypatch, mol, {"actives please": np.array([1.0, 0.0])})
    result = eval_screening(tiny_model(), screening_items([1, 0, 1, 0]), "actives please", top_n=2)
    assert result.hits == 1 and result.hit_rate == 0.5
    assert result.prevalence == 0.5
    # score descending, then position ascending
    hits = [eval_screening(tiny_model(), screening_items(labels), "actives please", top_n).hits
            for labels, top_n in [([0, 1, 0, 0], 1), ([0, 0, 1, 0], 1), ([0, 0, 0, 1], 3), ([1, 0, 0, 0], 3)]]
    assert hits == [1, 0, 1, 0]


def test_screening_top_n_bounds():
    items = screening_items([1, 0, 1])
    with pytest.raises(TopNExceedsDatasetError):
        eval_screening(tiny_model(), items, "anything", top_n=4)
    with pytest.raises(ValueError, match="top_n"):
        eval_screening(tiny_model(), items, "anything", top_n=0)


def test_screening_deterministic():
    items = screening_items([1, 0, 1, 0, 1])
    model = tiny_model()
    a = eval_screening(model, items, "polar solvent", top_n=3)
    b = eval_screening(model, items, "polar solvent", top_n=3)
    assert a == b


# ---------------------------------------------------------------------------
# Probe


def probe_items_linear(n, missing_every=0):
    """Labels follow the first embedding coordinate; optional missing holes."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(n, 3))
    labels = (x[:, 0] > 0).astype(int)
    items = []
    for i in range(n):
        lab = None if missing_every and i % missing_every == 0 else int(labels[i])
        items.append(ProbeItem(i, "CCO", parse_smiles("CCO"), [lab]))
    return items, x


def test_probe_learns_separable_task(monkeypatch):
    items, x = probe_items_linear(100)
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: x)
    result = finetune_probe(tiny_model(), items, epochs=60, seed=0)
    assert result.test_aucs[0] >= 0.9
    assert 1 <= result.best_epochs[0] <= 60


def test_probe_handles_missing_labels(monkeypatch):
    items, x = probe_items_linear(40, missing_every=5)
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: x)
    result = finetune_probe(tiny_model(), items, epochs=30, seed=1)
    assert 0.0 <= result.test_aucs[0] <= 1.0


def test_probe_all_missing_task_rejected(monkeypatch):
    items, x = probe_items_linear(10)
    items = [ProbeItem(it.item_id, it.smiles, it.graph, [None]) for it in items]
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: x)
    with pytest.raises(AllLabelsMissingError):
        finetune_probe(tiny_model(), items, epochs=5)


def test_probe_deterministic(monkeypatch):
    items, x = probe_items_linear(30)
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: x)
    a = finetune_probe(tiny_model(), items, epochs=20, seed=3)
    b = finetune_probe(tiny_model(), items, epochs=20, seed=3)
    assert a == b


def test_probe_snapshot_survives_in_place_adam(monkeypatch):
    # the best epoch's weights must be a copy: an optimizer that updates
    # .data in place would otherwise turn them into the last epoch's
    rng = np.random.default_rng(12)
    x = rng.normal(size=(60, 3))
    noisy = (x[:, 0] + 2.0 * rng.normal(size=60) > 0).astype(int)
    items = [ProbeItem(i, "CCO", parse_smiles("CCO"), [int(noisy[i])]) for i in range(60)]
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: x)
    monkeypatch.setattr(evaluation, "PROBE_LEARNING_RATE", 0.5)
    want = finetune_probe(tiny_model(), items, epochs=40, seed=2)
    assert want.best_epochs[0] < 40

    step = evaluation.Adam.step

    def in_place_step(self, lr=None):
        before = {name: p.data for name, p in self.params.items()}
        step(self, lr)
        for name, p in self.params.items():
            before[name][...] = p.data
            p.data = before[name]

    monkeypatch.setattr(evaluation.Adam, "step", in_place_step)
    assert finetune_probe(tiny_model(), items, epochs=40, seed=2) == want


def test_probe_needs_three_items():
    with pytest.raises(DatasetTooSmallError):
        finetune_probe(tiny_model(), [ProbeItem(0, "C", parse_smiles("C"), [1])] * 2, epochs=1)


def test_probe_multi_task(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 3))
    items = [
        ProbeItem(i, "CCO", parse_smiles("CCO"), [int(x[i, 0] > 0), int(x[i, 1] > 0)])
        for i in range(30)
    ]
    monkeypatch.setattr(evaluation, "embed_molecule_matrix", lambda model, graphs: x)
    result = finetune_probe(tiny_model(), items, epochs=40, seed=0)
    assert len(result.test_aucs) == 2
    assert result.mean_auc == pytest.approx(float(np.mean(result.test_aucs)))


# ---------------------------------------------------------------------------
# AUC


def test_auc_hand_case():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0


def test_auc_all_tied_is_half():
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(5, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 6, size=n).astype(float) / 5.0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        oracle = wins / (len(pos) * len(neg))
        assert abs(roc_auc(labels, scores) - oracle) <= 1e-12


def loop_roc_auc(labels, scores):
    """The tie loop roc_auc used before its ranks came from np.unique: the bit-for-bit reference."""
    labels, scores = np.asarray(labels), np.asarray(scores, dtype=np.float64)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks_sorted = np.arange(1, len(labels) + 1, dtype=np.float64)
    i = 0
    while i < len(labels):
        j = i
        while j < len(labels) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks_sorted[i:j] = 0.5 * (i + 1 + j)
        i = j
    ranks = np.empty(len(labels))
    ranks[order] = ranks_sorted
    return (float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_matches_the_tie_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for trial in range(300):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        # every other vector on a coarse grid, so tie blocks of every size occur
        scores = rng.normal(size=n) if trial % 2 else rng.integers(0, 6, size=n) / 5.0
        assert np.float64(roc_auc(labels, scores)).tobytes() == np.float64(loop_roc_auc(labels, scores)).tobytes()


def test_auc_ranks_nan_scores_as_one_block_above_every_number():
    labels = [0, 1, 1, 0, 1, 0]
    scores = [0.2, np.nan, 0.7, np.nan, 0.2, 0.9]
    tied_top = [np.inf if np.isnan(v) else v for v in scores]
    assert roc_auc(labels, scores) == roc_auc(labels, tied_top)


def test_auc_errors():
    with pytest.raises(ValueError, match="each class"):
        roc_auc([1, 1, 1], [0.1, 0.2, 0.3])
    with pytest.raises(LengthMismatchError):
        roc_auc([0, 1], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="0 or 1"):
        roc_auc([0, 2, 1], [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# Incomplete beta and the t-test


def _probe_labelled_outside_training():
    test_row = np.random.default_rng(0).permutation(10)[0]  # the 8:1:1 split's one test item at seed 0
    items = [ProbeItem(i, "CCO", parse_smiles("CCO"), [1 if i == test_row else None]) for i in range(10)]
    return finetune_probe(tiny_model(), items, epochs=5, seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: embed_text_matrix(tiny_model(), []), "nothing to embed"),
        (lambda: eval_retrieval(None, retrieval_items(3), n_options=2, trials=0), "trials must be >= 1"),
        (_probe_labelled_outside_training, "task 0 has no labeled training items"),
        (lambda: regularized_incomplete_beta(0.0, 0.5, 0.3), "a and b must be positive"),
        (lambda: regularized_incomplete_beta(-1.0, 0.5, 0.3), "a and b must be positive"),
        (lambda: regularized_incomplete_beta(2.0, 0.5, 1.5), "x must lie in [0, 1], got 1.5"),
        (lambda: regularized_incomplete_beta(2.0, 0.5, -0.25), "x must lie in [0, 1], got -0.25"),
        (lambda: student_t_sf(1.0, 0), "df must be >= 1"),
    ],
    ids=["no-texts", "no-trials", "probe-test-labels-only", "a-zero", "a-negative", "x-above", "x-below", "df-zero"],
)
def test_refused_inputs_name_what_is_wrong(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_incomplete_beta_bounds_and_symmetry():
    assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0
    for a, b, x in [(2.0, 0.5, 0.3), (5.0, 5.0, 0.7), (0.5, 0.5, 0.2), (10.0, 2.0, 0.9)]:
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-12)


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = float(rng.uniform(0.2, 20.0))
        b = float(rng.uniform(0.2, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        want = float(scipy.special.betainc(a, b, x))
        assert abs(regularized_incomplete_beta(a, b, x) - want) <= 1e-12


def test_student_t_sf_against_scipy():
    for df in (1, 2, 4, 5, 10, 30, 100):
        for t in (-4.0, -1.5, -0.3, 0.0, 0.5, 1.0, 2.5, 4.2426, 8.0):
            want = float(scipy.stats.t.sf(t, df))
            assert abs(student_t_sf(t, df) - want) <= 1e-6


def test_ttest_worked_case():
    result = paired_ttest([2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 1.0, 1.0, 1.0])
    assert result.t == pytest.approx(4.242640687, abs=1e-8)
    assert result.df == 4
    assert result.mean_diff == pytest.approx(3.0)
    want = float(scipy.stats.t.sf(result.t, 4))
    assert result.p_value == pytest.approx(want, abs=1e-9)
    assert 0.006 < result.p_value < 0.007


def test_ttest_negative_direction():
    result = paired_ttest([1.0, 2.0, 1.5], [2.0, 3.0, 2.6])
    assert result.t < 0
    assert result.p_value > 0.5


def test_ttest_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        a = rng.normal(size=n)
        b = a - rng.normal(loc=0.3, scale=0.5, size=n)
        ours = paired_ttest(a, b)
        ref = scipy.stats.ttest_rel(a, b, alternative="greater")
        assert ours.t == pytest.approx(float(ref.statistic), abs=1e-10)
        assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-6)


def test_ttest_errors():
    with pytest.raises(ZeroVarianceError):
        paired_ttest([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
    with pytest.raises(LengthMismatchError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="two paired"):
        paired_ttest([1.0], [0.5])
