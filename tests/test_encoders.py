"""Tokenizer, GIN, text encoder, projection, and checkpoint round-trip checks."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moltext import encoders, evaluation, tensor as T
from moltext.chem import Atom, Bond, MolecularGraph, parse_smiles
from moltext.encoders import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    EmptyDescriptionError,
    EmptyGraphError,
    EmptyTokenListError,
    ModelConfig,
    MolTextModel,
    build_vocab,
    concat_with_sep,
    has_word,
    load_checkpoint,
    save_checkpoint,
    tokenize,
    word_tokens,
)
from moltext.losses import er_loss
from moltext.tensor import Tape, Tensor, check_gradient
from test_chem import HAND_SMILES


def tiny_config(**overrides):
    base = dict(
        hidden_dim=16,
        embed_dim=16,
        projection_dim=8,
        gin_layers=2,
        text_blocks=2,
        max_len=16,
        vocab_cap=64,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, **overrides):
    vocab = build_vocab(
        ["a molecule that dissolves in water", "toxic aromatic ring system", "sweet sugar alcohol"],
        cap=64,
    )
    return MolTextModel(tiny_config(**overrides), vocab, seed=seed)


class TestTokenizer:
    def test_reserved_ids(self):
        vocab = build_vocab(["hello world"], cap=10)
        assert vocab["[PAD]"] == PAD_ID == 0
        assert vocab["[CLS]"] == CLS_ID == 1
        assert vocab["[SEP]"] == SEP_ID == 2
        assert vocab["[UNK]"] == UNK_ID == 3
        assert vocab["hello"] >= 4 and vocab["world"] >= 4

    def test_empty_text_is_just_cls(self):
        vocab = build_vocab(["x"], cap=10)
        assert tokenize(vocab, "") == [CLS_ID]

    def test_known_and_unknown_words(self):
        vocab = build_vocab(["solvent binds protein"], cap=10)
        ids = tokenize(vocab, "Solvent binds kryptonite!")
        assert ids[0] == CLS_ID
        assert ids[1] == vocab["solvent"] and ids[2] == vocab["binds"]
        assert ids[3] == UNK_ID

    def test_punctuation_and_case_folding(self):
        vocab = build_vocab(["anti-viral agent, 50mg"], cap=20)
        assert tokenize(vocab, "ANTI-VIRAL agent, 50mg") == tokenize(vocab, "anti viral agent 50mg")

    def test_sep_literal_maps_to_sep_id(self):
        vocab = build_vocab(["a b"], cap=10)
        ids = tokenize(vocab, "a [SEP] b")
        assert ids.count(SEP_ID) == 1
        assert ids == [CLS_ID, vocab["a"], SEP_ID, vocab["b"]]

    def test_truncation(self):
        vocab = build_vocab(["w"], cap=10)
        ids = tokenize(vocab, " ".join(["w"] * 100), max_len=16)
        assert len(ids) == 16 and ids[0] == CLS_ID

    def test_vocab_cap(self):
        texts = [f"word{i}" for i in range(100)]
        vocab = build_vocab(texts, cap=20)
        assert len(vocab) == 20

    def test_vocab_rank_is_frequency_then_alpha(self):
        vocab = build_vocab(["b b b", "a a", "c c"], cap=10)
        assert vocab["b"] == 4 and vocab["a"] == 5 and vocab["c"] == 6

    def test_concat_with_sep(self):
        assert concat_with_sep("first", "second") == "first [SEP] second"
        joined = concat_with_sep(concat_with_sep("a", "b"), "c")
        vocab = build_vocab(["a b c"], cap=10)
        assert tokenize(vocab, joined).count(SEP_ID) == 2
        with pytest.raises(EmptyDescriptionError):
            concat_with_sep("", "b")
        with pytest.raises(EmptyDescriptionError):
            concat_with_sep("a", "   ")
        # the rule is has_word's: punctuation and a bare [SEP] hold no word
        with pytest.raises(EmptyDescriptionError):
            concat_with_sep("!!!", "x")
        with pytest.raises(EmptyDescriptionError):
            concat_with_sep("[SEP]", "x")

    def test_tilde_starts_with_original_tokens(self):
        vocab = build_vocab(["alpha beta gamma delta"], cap=10)
        t = "alpha beta"
        tilde = concat_with_sep(t, "gamma delta")
        t_ids = tokenize(vocab, t)
        tilde_ids = tokenize(vocab, tilde)
        assert tilde_ids[: len(t_ids)] == t_ids
        assert SEP_ID in tilde_ids

    @pytest.mark.parametrize(
        "text",
        [
            "x[SEP]y",
            "[sep]",
            "\u212a",  # KELVIN SIGN lowercases to ASCII k
            "\u0130",  # LATIN CAPITAL I WITH DOT lowercases to i plus a combining dot
            "a [SEP] b",
            "[SEP][SEP] [SEP]",
            "Tab\tand\nnew\u2003line, ΣΑΣ 50mg",
            "",
        ],
    )
    def test_word_tokens_fast_path_matches_chunk_loop(self, text):
        chunk_loop = []
        for chunk in text.split():
            chunk_loop.extend([chunk] if chunk == "[SEP]" else re.findall("[a-z0-9]+", chunk.lower()))
        assert word_tokens(text) == chunk_loop

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=6), st.sampled_from(["[SEP]", "[sep]", "\u212a", " ", "\t\n"]))).map("".join))
    @example("x[SEP]y")
    @example("[SEP]")
    @example("\u212a")  # KELVIN SIGN lowercases to ASCII k
    @example(" \t\n\u2003")
    @example("")
    def test_has_word_is_a_word_token_other_than_sep(self, text):
        assert has_word(text) == any(tok != "[SEP]" for tok in word_tokens(text))

    def test_repeated_text_counts_each_time(self):
        vocab = build_vocab(["b", "b", "a"], cap=10)
        assert vocab["b"] == 4 and vocab["a"] == 5

    def test_a_cap_of_only_the_reserved_tokens_is_refused(self):
        with pytest.raises(ValueError, match=r"^vocab cap must exceed 4$"):
            build_vocab(["b a"], cap=4)


class TestGin:
    def test_deterministic(self):
        g = parse_smiles("CCO")
        m1, m2 = tiny_model(seed=3), tiny_model(seed=3)
        np.testing.assert_array_equal(m1.embed_molecule(g).data, m2.embed_molecule(g).data)

    def test_seed_changes_weights(self):
        g = parse_smiles("CCO")
        assert not np.array_equal(tiny_model(seed=1).embed_molecule(g).data, tiny_model(seed=2).embed_molecule(g).data)

    def test_atom_order_invariance(self):
        model = tiny_model(seed=7)
        for a, b in [("CCO", "OCC"), ("CC(N)=O", "NC(C)=O"), ("c1ccccc1O", "Oc1ccccc1")]:
            ea = model.embed_molecule(parse_smiles(a)).data
            eb = model.embed_molecule(parse_smiles(b)).data
            np.testing.assert_allclose(ea, eb, atol=1e-9)

    def test_permutation_invariance_random_graphs(self):
        rng = np.random.default_rng(19)
        model = tiny_model(seed=11)
        elements = ["C", "N", "O", "S"]
        for _ in range(100):
            n = int(rng.integers(2, 9))
            atoms = [Atom(element=elements[rng.integers(4)], aromatic=bool(rng.integers(2))) for _ in range(n)]
            bonds = []
            for i in range(1, n):
                bonds.append(Bond(int(rng.integers(0, i)), i, "single"))
            g = MolecularGraph(atoms=atoms, bonds=bonds)
            base = model.embed_molecule(g).data
            perm = rng.permutation(n)
            inverse = np.argsort(perm)
            pg = MolecularGraph(
                atoms=[atoms[perm[i]] for i in range(n)],
                bonds=[Bond(int(inverse[b.a]), int(inverse[b.b]), b.order) for b in bonds],
            )
            np.testing.assert_allclose(model.embed_molecule(pg).data, base, atol=1e-9)

    def test_different_molecules_embed_differently(self):
        model = tiny_model(seed=13)
        e1 = model.embed_molecule(parse_smiles("CCO")).data
        e2 = model.embed_molecule(parse_smiles("c1ccccc1")).data
        assert not np.allclose(e1, e2)

    def test_empty_graph_rejected(self):
        model = tiny_model()
        with pytest.raises(EmptyGraphError):
            model.encode_graphs([MolecularGraph(atoms=[], bonds=[])])

    def test_projection_dim(self):
        model = tiny_model()
        assert model.embed_molecule(parse_smiles("CC")).data.shape == (8,)


class TestTextEncoder:
    def test_deterministic(self):
        m = tiny_model(seed=2)
        ids = tokenize(m.vocab, "toxic aromatic ring")
        np.testing.assert_array_equal(m.embed_text(ids).data, m.embed_text(ids).data)

    def test_pad_append_invariance_exact(self):
        m = tiny_model(seed=4)
        ids = tokenize(m.vocab, "sweet sugar alcohol")
        base = m.embed_text(ids).data
        for extra in (1, 3, 8):
            padded = ids + [PAD_ID] * extra
            np.testing.assert_allclose(m.embed_text(padded).data, base, atol=1e-12)

    def test_token_order_matters(self):
        m = tiny_model(seed=6)
        a = m.embed_text([CLS_ID, 4, 5]).data
        b = m.embed_text([CLS_ID, 5, 4]).data
        assert not np.allclose(a, b)

    def test_empty_token_list_rejected(self):
        m = tiny_model()
        with pytest.raises(EmptyTokenListError):
            m.embed_text([])
        with pytest.raises(EmptyTokenListError):
            m.embed_text([PAD_ID, PAD_ID])

    def test_too_long_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            m.embed_text([CLS_ID] + [4] * 64)

    def test_projection_dim(self):
        m = tiny_model()
        assert m.embed_text([CLS_ID, 4]).data.shape == (8,)


class TestEndToEndGradients:
    def test_gradients_flow_through_both_encoders(self):
        model = tiny_model(seed=21)
        g = parse_smiles("CCO")
        ids = tokenize(model.vocab, "a molecule that dissolves")

        def loss_for(param):
            def f(_):
                zg = T.reshape(model.embed_molecule(g), (1, 8))
                zt = T.reshape(model.embed_text(ids), (1, 8))
                return T.tensor_sum(T.cosine_similarity_matrix(zt, zg))

            return f

        for name in ["gin.layer0.w1", "gin.element_emb", "text.block1.wq", "proj_mol.w", "gin.layer1.eps"]:
            param = model.parameters()[name]
            err = check_gradient(loss_for(param), param)
            assert err <= 1e-4, f"{name}: {err:.3e}"

    def test_all_parameters_receive_gradients(self):
        model = tiny_model(seed=22)
        g = parse_smiles("CCN")
        ids = tokenize(model.vocab, "toxic ring")
        with Tape() as tape:
            zg = T.reshape(model.embed_molecule(g), (1, 8))
            zt = T.reshape(model.embed_text(ids), (1, 8))
            loss = T.tensor_sum(T.cosine_similarity_matrix(zt, zg))
        tape.backward(loss)
        skippable = {"gin.charge_emb"}  # only one charge bucket appears in this input
        for name, param in model.parameters().items():
            if param.grad is None:
                # embeddings for feature values absent from the input stay untouched
                assert name in skippable or "emb" in name, f"{name} got no gradient"


# ---------------------------------------------------------------------------
# Batched forwards against a per-item reference: the dense-adjacency GIN and
# the one-sequence-at-a-time attention, written in plain numpy


def _weights(model, prefix):
    """Every parameter under `prefix` by its name after it, as arrays: {"w1": ..., "b1": ...}."""
    return {name[len(prefix):]: p.data for name, p in model.parameters().items() if name.startswith(prefix)}


def _ref_project(model, side, row):
    head = _weights(model, f"proj_{side}.")
    return row @ head["w"] + head["b"]


def reference_molecule(model, graph):
    gin = _weights(model, "gin.")
    n = len(graph.atoms)
    vocab = encoders.ELEMENT_VOCAB
    el = [vocab.index(a.element) if a.element in vocab else len(vocab) for a in graph.atoms]
    deg = [min(graph.degree(i), 8) for i in range(n)]
    chg = [min(max(a.formal_charge, -2), 2) + 2 for a in graph.atoms]
    aro = [int(a.aromatic) for a in graph.atoms]
    h = (gin["element_emb"][el] + gin["degree_emb"][deg]) + (
        gin["charge_emb"][chg] + gin["aromatic_emb"][aro]
    )
    adj = np.zeros((n, n))
    for bond in graph.bonds:
        adj[bond.a, bond.b] = adj[bond.b, bond.a] = 1.0
    for i in range(model.config.gin_layers):
        layer = _weights(model, f"gin.layer{i}.")
        mixed = h * (layer["eps"] + 1.0) + adj @ h
        hidden = np.maximum(mixed @ layer["w1"] + layer["b1"], 0.0)
        h = hidden @ layer["w2"] + layer["b2"]
    return _ref_project(model, "mol", h.sum(axis=0))


def reference_text(model, ids):
    ids = np.asarray(ids)
    nonpad = ids != PAD_ID
    bias = np.where(nonpad, 0.0, -1e30)
    x = model.parameters()["text.token_emb"].data[ids] + model.positions[: len(ids)]
    for i in range(model.config.text_blocks):
        b = _weights(model, f"text.block{i}.")
        q, k, v = (x @ b[f"w{c}"] + b[f"b{c}"] for c in "qkv")
        scores = q @ k.T / np.sqrt(model.config.embed_dim) + bias
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        x = x + ((p @ v) @ b["wo"] + b["bo"])
        ffn = np.maximum(x @ b["ffn_w1"] + b["ffn_b1"], 0.0) @ b["ffn_w2"]
        x = x + (ffn + b["ffn_b2"])
    return _ref_project(model, "text", x[nonpad].mean(axis=0))


BATCH_SMILES = ["C", "CCO", "c1ccccc1O", "[NH4+]", "CC(N)=O", "O", "OCC(O)CO", "C1CC1"]
BATCH_IDS = [
    [CLS_ID, 4, 5, 6, 7, 8, 9],
    [CLS_ID],
    [CLS_ID, 4, PAD_ID, 5, PAD_ID, 6],  # [PAD] ids inside the sequence
    [CLS_ID, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8],  # exactly max_len
    [CLS_ID, 9, SEP_ID, 10, PAD_ID, PAD_ID],
    [PAD_ID, 5, 4],  # only the first slot is masked
    [CLS_ID, UNK_ID, 6],
]


def per_atom_encode_batch(model, graphs):
    """MolTextModel.encode_graphs as it featurized before the columnar graph: one Python pass per atom and bond."""
    el, chg, aro, src, dst, sizes = [], [], [], [], [], []
    offset = 0
    for graph in graphs:
        for atom in graph.atoms:
            try:
                el.append(encoders.ELEMENT_VOCAB.index(atom.element))
            except ValueError:
                el.append(len(encoders.ELEMENT_VOCAB))
            chg.append(min(max(atom.formal_charge, -2), 2) + 2)
            aro.append(int(atom.aromatic))
        for bond in graph.bonds:
            src.append(offset + bond.a)
            dst.append(offset + bond.b)
        sizes.append(len(graph.atoms))
        offset += len(graph.atoms)
    src, dst = np.array(src + dst, dtype=np.int64), np.array(dst + src, dtype=np.int64)
    deg = np.minimum(np.bincount(dst, minlength=offset), 8)
    gin = model.parameters()
    h = T.add(
        T.add(T.embedding_lookup(gin["gin.element_emb"], el), T.embedding_lookup(gin["gin.degree_emb"], deg)),
        T.add(T.embedding_lookup(gin["gin.charge_emb"], chg), T.embedding_lookup(gin["gin.aromatic_emb"], aro)),
    )
    for i in range(model.config.gin_layers):
        layer = {key: gin[f"gin.layer{i}.{key}"] for key in ("eps", "w1", "b1", "w2", "b2")}
        mixed = T.add(T.mul(h, T.add(layer["eps"], 1.0)), T.neighbor_sum(h, src, dst))
        hidden = T.relu(T.linear(mixed, layer["w1"], layer["b1"]))
        h = T.linear(hidden, layer["w2"], layer["b2"])
    sizes = np.array(sizes)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    selector = np.zeros((len(sizes), offset))
    selector[owner, np.arange(offset)] = 1.0
    return T.matmul(Tensor(selector), h)


class TestBatchedMatchesPerItem:
    def test_molecules(self):
        model = tiny_model(seed=41)
        graphs = [parse_smiles(s) for s in BATCH_SMILES]
        ref = np.stack([reference_molecule(model, g) for g in graphs])
        batched = model.embed_molecules(graphs).data
        single = np.stack([model.embed_molecule(g).data for g in graphs])
        assert batched.shape == (len(graphs), 8)
        np.testing.assert_allclose(batched, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(single, ref, rtol=0, atol=1e-12)

    def test_texts(self):
        model = tiny_model(seed=42)
        ref = np.stack([reference_text(model, ids) for ids in BATCH_IDS])
        batched = model.embed_texts(BATCH_IDS).data
        single = np.stack([model.embed_text(ids).data for ids in BATCH_IDS])
        assert batched.shape == (len(BATCH_IDS), 8)
        np.testing.assert_allclose(batched, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(single, ref, rtol=0, atol=1e-12)

    def test_batch_order_and_neighbours_do_not_matter(self):
        model = tiny_model(seed=43)
        graphs = [parse_smiles(s) for s in BATCH_SMILES]
        rev_mol = model.embed_molecules(graphs[::-1]).data[::-1]
        np.testing.assert_allclose(rev_mol, model.embed_molecules(graphs).data, rtol=0, atol=1e-12)
        rev_text = model.embed_texts(BATCH_IDS[::-1]).data[::-1]
        np.testing.assert_allclose(rev_text, model.embed_texts(BATCH_IDS).data, rtol=0, atol=1e-12)

    def test_eval_matrices_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(evaluation, "EMBED_CHUNK", 3)  # 8 items -> chunks of 3, 3, 2
        model = tiny_model(seed=44)
        graphs = [parse_smiles(s) for s in BATCH_SMILES]
        texts = ["sweet sugar alcohol", "", "toxic", "a molecule that dissolves in water toxic aromatic ring",
                 "ring", "water water", "sugar [SEP] ring", "alcohol"]
        mols = evaluation.embed_molecule_matrix(model, graphs)
        np.testing.assert_allclose(
            mols, np.stack([reference_molecule(model, g) for g in graphs]), rtol=0, atol=1e-12
        )
        token_ids = [tokenize(model.vocab, t, model.config.max_len) for t in texts]
        np.testing.assert_allclose(
            evaluation.embed_text_matrix(model, texts),
            np.stack([reference_text(model, ids) for ids in token_ids]),
            rtol=0,
            atol=1e-12,
        )

    def test_gin_columns_equal_per_atom_featurization(self):
        # brackets, charges beyond +-2, explicit H, aromatic atoms, and Fe, Cu,
        # Co, Na and Se outside ELEMENT_VOCAB, in batches of mixed sizes
        model = tiny_model(seed=46)
        graphs = [parse_smiles(s) for s in HAND_SMILES]
        graphs.append(MolecularGraph(atoms=[Atom("Xx", formal_charge=-7), Atom("c", aromatic=True)],
                                     bonds=[Bond(1, 0, "aromatic")]))
        for lo, hi in [(0, len(graphs)), (0, 1), (3, 12), (40, len(graphs))]:
            batch = graphs[lo:hi]
            with T.no_grad():
                columns = model.encode_graphs(batch).data
                per_atom = per_atom_encode_batch(model, batch).data
            assert np.array_equal(columns, per_atom)

    def test_batch_rejects_bad_members(self):
        model = tiny_model()
        with pytest.raises(EmptyGraphError):
            model.embed_molecules([parse_smiles("CC"), MolecularGraph(atoms=[], bonds=[])])
        with pytest.raises(EmptyTokenListError):
            model.embed_texts([[CLS_ID, 4], [PAD_ID]])
        with pytest.raises(ValueError, match=r"^cannot encode an empty batch of token lists$"):
            model.embed_texts([])
        with pytest.raises(ValueError, match=r"^cannot encode an empty batch of graphs$"):
            model.embed_molecules([])

    def test_er_target_branch_records_nothing(self):
        model = tiny_model(seed=45)
        texts = [[CLS_ID, 4, 5], [CLS_ID, 6], [CLS_ID, 7, 8, 9]]
        tildes = [t + [SEP_ID, 10, 11] for t in texts]
        for f_text, t_arg, tilde_arg in (
            (model.embed_texts, [texts], [tildes]),
            (model.embed_text, texts, tildes),
        ):
            with Tape() as tape:
                loss = er_loss(f_text, t_arg, tilde_arg)
            with Tape() as live_only:
                z = T.concat_rows([f_text(ids) for ids in t_arg])
                targets = Tensor(np.stack([reference_text(model, ids) for ids in tildes]))
                oracle = T.mean(T.l2_norm_sq(T.sub(z, targets)))
            assert len(tape) == len(live_only)
            assert loss.item() == pytest.approx(oracle.item(), rel=1e-12)


class TestTapeHolds:
    """What a forward leaves on the tape, with one text block and one GIN layer: each layer is one record,
    and no record output is a pre-activation, an un-added output or a gathered row before its position."""

    @staticmethod
    def recorded(forward):
        with Tape() as tape:
            out = forward()
        return len(tape), sum(t.data.nbytes for t in tape.outputs_between(0, len(tape))), out.data.shape

    def test_text_forward(self):
        model = tiny_model(seed=46, gin_layers=1, text_blocks=1)
        ids_batch = [[CLS_ID, 4, 5, 6], [CLS_ID, 7]]
        records, held, (batch, e) = self.recorded(lambda: model.encode_ids(ids_batch))
        rows = sum(len(ids) for ids in ids_batch)
        # embedding plus positions; q, k, v; attention; output projection plus residual;
        # FFN-in plus ReLU (2e wide); FFN-out plus residual; pooling
        assert records == 9
        assert held <= 8 * ((1 + 3 + 1 + 1 + 2 + 1) * rows * e + batch * e)

    def test_graph_forward(self):
        model = tiny_model(seed=46, gin_layers=1, text_blocks=1)
        graphs = [parse_smiles("CCO"), parse_smiles("c1ccccc1")]
        records, held, (batch, h) = self.recorded(lambda: model.encode_graphs(graphs))
        atoms = sum(len(graph.atoms) for graph in graphs)
        # the four embeddings summed; (1 + eps) * h plus the neighbour sum; first linear plus ReLU;
        # second linear; readout
        assert records == 5
        assert held <= 8 * ((1 + 1 + 1 + 1) * atoms * h + batch * h)


# sha256 of save_checkpoint(MolTextModel(cfg, GOLDEN_VOCAB, seed=0)): pins every parameter's name, shape,
# order and init draw. The payload is the bytes the per-encoder classes wrote; the header's config holds
# the seven ModelConfig fields
GOLDEN_VOCAB = {tok: i for i, tok in enumerate(encoders.RESERVED_TOKENS + ("ring", "toxic", "sweet", "alcohol"))}
GOLDEN_AMCK_SHA256 = "14987ef8415bdb031feefaeeb3703f46908dd5159b4aa93189c8c897361f0750"


@pytest.mark.parametrize("key, bound", [("hidden_dim", 4096), ("embed_dim", 4096), ("projection_dim", 4096),
                                        ("max_len", 4096), ("gin_layers", 64), ("text_blocks", 64)])
def test_model_config_sizes_are_bounded(key, bound):
    assert getattr(ModelConfig(**{key: bound}), key) == bound
    with pytest.raises(ValueError, match=f"^{key} must be <= {bound}, got {bound + 1}$"):
        ModelConfig(**{key: bound + 1})


class TestCheckpoint:
    def test_initial_checkpoint_matches_golden_digest(self, tmp_path):
        cfg = ModelConfig(hidden_dim=8, embed_dim=8, projection_dim=4, gin_layers=2, text_blocks=2, max_len=16)
        path = tmp_path / "model.amck"
        save_checkpoint(str(path), MolTextModel(cfg, GOLDEN_VOCAB, seed=0))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_AMCK_SHA256

    def test_load_then_save_reproduces_the_bytes(self, tmp_path):
        first, second = tmp_path / "a.amck", tmp_path / "b.amck"
        save_checkpoint(str(first), tiny_model(seed=36))
        save_checkpoint(str(second), load_checkpoint(str(first)))
        assert second.read_bytes() == first.read_bytes()

    def test_load_draws_nothing_and_checks_before_building(self, tmp_path, monkeypatch):
        path = tmp_path / "m.amck"
        save_checkpoint(str(path), tiny_model(seed=37))
        raw = path.read_bytes()
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("load drew random numbers"))
        loaded = load_checkpoint(str(path))
        assert all(p.data.flags.writeable for p in loaded.parameters().values())
        monkeypatch.setattr(encoders, "MolTextModel", lambda *a, **k: pytest.fail("built before the checks"))
        short = tmp_path / "short.amck"
        short.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload holds"):
            load_checkpoint(str(short))
        wide = tmp_path / "wide.amck"
        wide.write_bytes(raw.replace(b'"hidden_dim":16', b'"hidden_dim":17'))
        with pytest.raises(ValueError, match="tensor table"):
            load_checkpoint(str(wide))

    def test_round_trip_exact(self, tmp_path):
        model = tiny_model(seed=31)
        path = str(tmp_path / "model.amck")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.vocab == model.vocab
        assert loaded.config == model.config
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, param.data)

    def test_round_trip_reproduces_embeddings(self, tmp_path):
        model = tiny_model(seed=32)
        path = str(tmp_path / "model.amck")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        g = parse_smiles("CCO")
        ids = tokenize(model.vocab, "sweet sugar")
        np.testing.assert_array_equal(loaded.embed_molecule(g).data, model.embed_molecule(g).data)
        np.testing.assert_array_equal(loaded.embed_text(ids).data, model.embed_text(ids).data)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = tiny_model(seed=33)
        p1, p2 = str(tmp_path / "a.amck"), str(tmp_path / "b.amck")
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_magic_and_version(self, tmp_path):
        model = tiny_model(seed=34)
        path = str(tmp_path / "m.amck")
        save_checkpoint(path, model)
        raw = open(path, "rb").read()
        assert raw[:4] == b"AMCK"
        bad = tmp_path / "bad.amck"
        bad.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(ValueError):
            load_checkpoint(str(bad))

    def test_no_tmp_file_left_behind(self, tmp_path):
        model = tiny_model(seed=35)
        path = str(tmp_path / "m.amck")
        save_checkpoint(path, model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.amck"]
