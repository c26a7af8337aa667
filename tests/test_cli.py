"""End-to-end command tests driven through main().

Each command prints a JSON report; files and stdout must be byte-identical
across reruns with the same seed.
"""

import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from moltext import chem, cli, data, evaluation, simindex, toydata
from moltext.chem import compute_fingerprint, parse_smiles, tanimoto
from moltext.cli import build_parser, main, resolve_train_config
from moltext.data import load_corpus
from moltext.encoders import MAX_ATTENTION_SCORES, MAX_PARAMETERS, ModelConfig, MolTextModel, build_vocab, load_checkpoint, save_checkpoint
from moltext.simindex import read_index
from moltext.train import MODES, TrainConfig
from moltext.chem import Fingerprint, read_fingerprints, write_fingerprints
from moltext.toydata import (
    make_corpus,
    make_probe_dataset,
    make_qa_dataset,
    make_retrieval_dataset,
    make_screening_dataset,
    write_corpus_jsonl,
    write_jsonl,
)
from test_chem import fail_writes
from test_data import BAD_OWN_FIELDS

TINY_MODEL = dict(
    hidden_dim=8,
    embed_dim=8,
    projection_dim=4,
    gin_layers=1,
    text_blocks=1,
    max_len=16,
    vocab_cap=128,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, datasets, and an untrained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    records = make_corpus(24, descriptions_per_molecule=2, seed=9)
    write_corpus_jsonl(str(root / "corpus.jsonl"), records)
    write_jsonl(str(root / "retrieval.jsonl"), make_retrieval_dataset(records))
    write_jsonl(str(root / "qa.jsonl"), make_qa_dataset(records, seed=1))
    write_jsonl(str(root / "screening.jsonl"), make_screening_dataset(records, seed=2))
    write_jsonl(str(root / "probe.jsonl"), make_probe_dataset(records, seed=3))

    corpus = load_corpus(str(root / "corpus.jsonl"))
    vocab = build_vocab(corpus.all_descriptions(), cap=128)
    model = MolTextModel(ModelConfig(**TINY_MODEL), vocab, seed=0)
    save_checkpoint(str(root / "model.amck"), model)
    return root


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_refused_by_parser(capsys, *argv):
    """(exit code, stdout, stderr) of a command the parser refuses: SystemExit before any command runs."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.fixture
def no_input_read(monkeypatch):
    """cli's checkpoint and fingerprint-store readers, each replaced by a stub that fails if called."""

    def never(*args, **kwargs):
        raise AssertionError("the command read an input file")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    monkeypatch.setattr(cli, "read_packed_fingerprints", never)


def run_json(capsys, *argv):
    """The report of a command that succeeds, printed once as sorted, indented JSON."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    return report


# ---------------------------------------------------------------------------
# ingest and index


def test_ingest_writes_store(workdir, capsys):
    out = workdir / "fps.amfp"
    report = run_json(
        capsys, "ingest", "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out)
    )
    assert report["command"] == "ingest"
    assert report["molecules"] == 24
    assert len(read_fingerprints(str(out))) == 24


def test_ingest_missing_corpus_is_validation_error(workdir, capsys):
    code, _, err = run(
        capsys, "ingest", "--corpus", str(workdir / "nope.jsonl"), "--out", str(workdir / "x.amfp")
    )
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize("nbits", [1 << 24, 1 << 40])
def test_ingest_refuses_width_the_index_cannot_count(capsys, tmp_path, nbits):
    corpus = str(tmp_path / "two.jsonl")
    write_corpus_jsonl(corpus, make_corpus(2, seed=2))
    out = tmp_path / "wide.amfp"
    code, _, err = run(capsys, "ingest", "--corpus", corpus, "--out", str(out), "--nbits", str(nbits))
    assert code == 1
    assert "internal error" not in err and str(1 << 24) in err
    assert not out.exists() and not (tmp_path / "wide.amfp.tmp").exists()


@pytest.mark.parametrize(
    "smiles, shown",
    [
        ("[CH99999999999999999999999]C", "hydrogen count 99999999999999999999999"),
        ("[C+18446744073709551617]C", "charge +18446744073709551617"),
        ("[CH255]C", "hydrogen count 255"),  # 255 is the fingerprint hash's "no H written" mark
        # ring-bond digits outside ASCII, which str.isdigit accepts
        ("C\u0663CC\u0663", "unknown atom symbol '\u0663'"),
        ("C\u00b2CC\u00b2", "unknown atom symbol '\u00b2'"),
        ("C%1\u00b2CC%1\u00b2", "'%' ring tag needs two digits"),
    ],
)
def test_ingest_refuses_bracket_counts_beyond_opensmiles(capsys, tmp_path, smiles, shown):
    corpus = tmp_path / "bad.jsonl"
    write_corpus_jsonl(str(corpus), [{"id": 0, "smiles": "CCO", "descriptions": ["an alcohol"]}])
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": 1, "smiles": smiles, "descriptions": ["a bad atom"]}) + "\n")
    out = tmp_path / "bad.amfp"
    code, _, err = run(capsys, "ingest", "--corpus", str(corpus), "--out", str(out))
    assert code == 1
    assert "internal error" not in err and f"{corpus}:2:" in err and shown in err
    assert not out.exists()


# ingest streams its corpus in pieces of lines; every error stays what one whole-corpus load raised


@pytest.fixture
def hashed_pieces(monkeypatch):
    """Pieces of 8 atoms, a line or two of pool molecules; returns the size of each hashed batch, in order."""
    monkeypatch.setattr(chem, "PIECE_ATOMS", 8)
    sizes = []
    real = data.compute_fingerprints

    def spy(graphs, **kwargs):
        sizes.append(len(graphs))
        return real(graphs, **kwargs)

    monkeypatch.setattr(data, "compute_fingerprints", spy)
    return sizes


def _corpus_with_line_8(path, line: bytes) -> None:
    """Seven good lines, `line` as line 8, then two more good lines."""
    good = [json.dumps(r).encode() + b"\n" for r in make_corpus(9, seed=4)]
    path.write_bytes(b"".join(good[:7]) + line + b"\n" + b"".join(good[7:]))


@pytest.mark.parametrize(
    "line, message",
    [
        (b'{"id": 70, "smiles": "C(C", "descriptions": ["a ring"]}', "bad SMILES 'C(C': 1 unclosed '('"),
        (b'{"id": 2, "smiles": "CC", "descriptions": ["a chain"]}', "duplicate molecule id 2"),
        (b"\xff", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["bad_smiles", "duplicate_id", "not_utf8"],
)
@pytest.mark.parametrize("bad_option", [(), ("--nbits", "100"), ("--radius", "5")], ids=["", "nbits", "radius"])
def test_streamed_ingest_keeps_every_line_error(capsys, tmp_path, hashed_pieces, line, message, bad_option):
    """A bad line after the first piece fails as at one batch, and comes before a bad --nbits or --radius."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "fps.amfp"
    _corpus_with_line_8(corpus, line)
    code, stdout, err = run(capsys, "ingest", "--corpus", str(corpus), "--out", str(out), *bad_option)
    assert (code, stdout, err) == (1, "", f"error: {corpus}:8: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]
    # good lines were hashed before line 8 was read, unless a parameter was bad
    assert hashed_pieces[0] == 0 and (sum(hashed_pieces) > 1) == (not bad_option)


@pytest.mark.parametrize(
    "bad_option, message",
    [(("--nbits", "100"), "nbits must be a positive multiple of 64"), (("--radius", "5"), "radius must be in 0..4")],
)
def test_streamed_ingest_refuses_a_bad_option_after_every_line(capsys, tmp_path, hashed_pieces, bad_option, message):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "fps.amfp"
    write_corpus_jsonl(str(corpus), make_corpus(9, seed=4))
    code, stdout, err = run(capsys, "ingest", "--corpus", str(corpus), "--out", str(out), *bad_option)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"] and hashed_pieces == [0]


@pytest.mark.parametrize("count", [1, 24])
def test_streamed_ingest_writes_the_whole_corpus_store(capsys, tmp_path, hashed_pieces, count):
    """Pieces of a line or two write the bytes of the whole corpus's store, one-line corpus included."""
    corpus, out, whole = tmp_path / "corpus.jsonl", tmp_path / "fps.amfp", tmp_path / "whole.amfp"
    write_corpus_jsonl(str(corpus), make_corpus(count, seed=9))
    report = run_json(capsys, "ingest", "--corpus", str(corpus), "--out", str(out), "--nbits", "1024")
    assert report["molecules"] == count == sum(hashed_pieces) and len(hashed_pieces) > min(count, 3)
    write_fingerprints(str(whole), load_corpus(str(corpus), nbits=1024).fingerprints())
    assert out.read_bytes() == whole.read_bytes()


def test_ingest_memory_is_bounded_by_the_rows(capsys, tmp_path):
    """20,000 lines: 5.1 MB of packed rows, held once, and one piece.
    A whole-corpus load took a 102 MiB traced peak."""
    pool = toydata.smiles_pool(4634)
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "fps.amfp"
    picks = np.random.default_rng(7).integers(0, 4634, size=20000)
    with open(corpus, "w", encoding="utf-8") as fh:
        for i, pick in enumerate(picks):
            fh.write(json.dumps({"id": i, "smiles": pool[pick], "descriptions": [f"molecule {i}", "a pool molecule"]}))
            fh.write("\n")
    tracemalloc.start()
    try:
        code = main(["ingest", "--corpus", str(corpus), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["molecules"] == 20000
    assert peak < 32 << 20, peak


def test_ingest_holds_wide_rows_once(capsys, tmp_path):
    """50 molecules of 2,097,152 bits: 12.5 MiB of packed rows, written from the pieces' own arrays.
    Joining the pieces into one array first held the rows twice, a traced peak of 2.0x them."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "fps.amfp"
    write_corpus_jsonl(str(corpus), make_corpus(50))
    nbits = 1 << 21
    tracemalloc.start()
    try:
        code = main(["ingest", "--corpus", str(corpus), "--out", str(out), "--nbits", str(nbits)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 50 * nbits // 8
    assert code == 0 and json.loads(capsys.readouterr().out)["molecules"] == 50
    assert out.stat().st_size == 20 + rows
    assert peak < 1.5 * rows, peak / rows


def test_index_threads_default_to_one():
    args = build_parser().parse_args(["index", "--fingerprints", "f.amfp", "--k", "3", "--out", "t.amix"])
    assert args.threads == 1


def test_index_matches_bruteforce_oracle(workdir, capsys, tmp_path):
    records = make_corpus(3, seed=2)
    write_corpus_jsonl(str(tmp_path / "three.jsonl"), records)
    run_json(
        capsys, "ingest", "--corpus", str(tmp_path / "three.jsonl"), "--out", str(tmp_path / "three.amfp")
    )
    report = run_json(
        capsys,
        "index",
        "--fingerprints",
        str(tmp_path / "three.amfp"),
        "--k",
        "2",
        "--out",
        str(tmp_path / "three.amix"),
        "--threads",
        "2",
    )
    assert report["command"] == "index" and report["count"] == 3
    index = read_index(str(tmp_path / "three.amix"))
    fps = read_fingerprints(str(tmp_path / "three.amfp"))
    for i in range(3):
        sims = sorted(
            ((tanimoto(fps[i], fps[j]), j) for j in range(3) if j != i),
            key=lambda t: (-t[0], t[1]),
        )
        assert index.neighbors[i] == [(j, s) for s, j in sims]


def test_index_refuses_fingerprints_too_wide_for_exact_counts(capsys, tmp_path):
    store = str(tmp_path / "wide.amfp")
    wide = Fingerprint(nbits=1 << 24, words=np.zeros(1 << 18, dtype=np.uint64))
    write_fingerprints(store, [wide, wide])
    code, _, err = run(capsys, "index", "--fingerprints", store, "--k", "1", "--out", str(tmp_path / "w.amix"))
    assert code == 1
    assert "internal error" not in err and "exact" in err
    assert not (tmp_path / "w.amix").exists()


def test_index_of_the_widest_fingerprints_runs_under_a_memory_limit(capsys, tmp_path):
    # 100 fingerprints of 16,777,152 bits make a 200 MB store; unpacked at one byte
    # per bit the store takes 1.6 GB, so under a 1.5 GB address-space limit the
    # build must unpack it a few rows at a time
    nbits, k = 16777152, 5
    records = make_corpus(100, seed=2)
    write_corpus_jsonl(str(tmp_path / "corpus.jsonl"), records)
    store, out = str(tmp_path / "wide.amfp"), str(tmp_path / "wide.amix")
    run_json(capsys, "ingest", "--corpus", str(tmp_path / "corpus.jsonl"), "--nbits", str(nbits), "--out", store)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from moltext.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["index", "--fingerprints", store, "--k", str(k), "--out", out]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    os.remove(store)  # 200 MB that would outlive the test in pytest's kept temporary directories
    index = read_index(out)
    # a few rows against the pair-at-a-time oracle, one full-width fingerprint at a time
    graphs = [parse_smiles(record["smiles"]) for record in records]
    rows = {i: compute_fingerprint(graphs[i], radius=2, nbits=nbits) for i in (0, 57, 99)}
    sims = {i: [] for i in rows}
    for j, graph in enumerate(graphs):
        fp = compute_fingerprint(graph, radius=2, nbits=nbits)
        for i in rows:
            if j != i:
                sims[i].append((tanimoto(rows[i], fp), j))
    for i, row in sims.items():
        assert index.neighbors[i] == [(j, s) for s, j in sorted(row, key=lambda t: (-t[0], t[1]))[:k]]


def test_index_refuses_k_beyond_the_file_format_before_building(capsys, tmp_path, monkeypatch):
    records = make_corpus(3, seed=2)
    write_corpus_jsonl(str(tmp_path / "three.jsonl"), records)
    store = str(tmp_path / "three.amfp")
    run_json(capsys, "ingest", "--corpus", str(tmp_path / "three.jsonl"), "--out", store)

    def no_tiles(*args):
        raise AssertionError("the index was built before k was checked")

    monkeypatch.setattr(simindex, "_counts", no_tiles)
    code, out, err = run_refused_by_parser(
        capsys, "index", "--fingerprints", store, "--k", "5000000000", "--out", str(tmp_path / "k.amix")
    )
    assert code == 1 and out == ""
    assert "internal error" not in err and "4294967295" in err
    assert not (tmp_path / "k.amix").exists()


def test_index_of_an_empty_store_names_the_file(capsys, tmp_path):
    store = tmp_path / "empty.amfp"
    store.write_bytes(struct.pack("<4sIIQ", b"AMFP", 1, 64, 0))
    code, _, err = run(capsys, "index", "--fingerprints", str(store), "--k", "2", "--out", str(tmp_path / "e.amix"))
    assert code == 1
    assert str(store) in err and "zero fingerprints" in err
    assert not (tmp_path / "e.amix").exists()


def test_index_missing_store_fails(workdir, capsys):
    code, _, err = run(
        capsys,
        "index",
        "--fingerprints",
        str(workdir / "absent.amfp"),
        "--k",
        "2",
        "--out",
        str(workdir / "absent.amix"),
    )
    assert code == 1


# ---------------------------------------------------------------------------
# train


def train_config(workdir, mode="amole", **extra):
    cfg = {
        "epochs": 1,
        "batch_size": 8,
        "mode": mode,
        "seed": 0,
        "augmentation": {"k": 3, "p": 0.5, "seed": 7},
        "model": dict(TINY_MODEL),
        "corpus": str(workdir / "corpus.jsonl"),
    }
    cfg.update(extra)
    return cfg


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return str(path)


@pytest.fixture(scope="module")
def trained(workdir, tmp_path_factory):
    """One full CLI pipeline run: ingest -> index -> train."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["ingest", "--corpus", str(workdir / "corpus.jsonl"), "--out", str(root / "fps.amfp")]) == 0
    assert (
        main(
            [
                "index",
                "--fingerprints",
                str(root / "fps.amfp"),
                "--k",
                "3",
                "--out",
                str(root / "nn.amix"),
            ]
        )
        == 0
    )
    cfg = train_config(
        workdir,
        index=str(root / "nn.amix"),
        metrics=str(root / "metrics.jsonl"),
        checkpoint=str(root / "model.amck"),
    )
    config_path = write_config(root / "config.json", cfg)
    assert main(["train", "--config", config_path]) == 0
    return root, config_path


def test_train_writes_outputs(trained, capsys):
    root, config_path = trained
    assert (root / "metrics.jsonl").exists()
    assert (root / "model.amck").exists()
    lines = (root / "metrics.jsonl").read_text().splitlines()
    assert lines and all(
        list(json.loads(line)) == ["step", "s2p_t2m", "s2p_m2t", "er", "total"] for line in lines
    )


def test_train_rerun_is_byte_identical(trained, workdir, capsys, tmp_path):
    root, _ = trained
    cfg = train_config(
        workdir,
        index=str(root / "nn.amix"),
        metrics=str(tmp_path / "metrics2.jsonl"),
        checkpoint=str(tmp_path / "model2.amck"),
    )
    config_path = write_config(tmp_path / "config.json", cfg)
    report = run_json(capsys, "train", "--config", config_path)
    assert report["command"] == "train"
    assert report["steps"] == len((root / "metrics.jsonl").read_text().splitlines())
    assert (tmp_path / "metrics2.jsonl").read_bytes() == (root / "metrics.jsonl").read_bytes()
    assert (tmp_path / "model2.amck").read_bytes() == (root / "model.amck").read_bytes()


def test_train_flag_overrides_mode_and_seed(workdir, capsys, tmp_path):
    cfg = train_config(workdir, mode="amole")
    config_path = write_config(tmp_path / "config.json", cfg)
    report = run_json(capsys, "train", "--config", config_path, "--mode", "baseline", "--seed", "5")
    assert report["mode"] == "baseline"


def test_train_from_flags_alone_trains_and_its_errors_name_no_config(workdir, capsys, tmp_path):
    flags = ["train", "--corpus", str(workdir / "corpus.jsonl"), "--mode", "baseline"]
    checkpoint, metrics = tmp_path / "m.amck", tmp_path / "m.jsonl"
    report = run_json(capsys, *flags, "--seed", "3", "--checkpoint", str(checkpoint), "--metrics", str(metrics))
    # every other field keeps its default: 5 epochs of ceil(48 pairs / 16) steps
    assert report["mode"] == "baseline" and report["steps"] == 15
    assert load_checkpoint(str(checkpoint)).config == ModelConfig()
    assert len(metrics.read_text().splitlines()) == 15
    code, out, err = run(capsys, *flags, "--seed", "-1")
    assert code == 1 and not out
    assert err == "error: seed must be >= 0, got -1\n"


def test_a_refused_flag_value_names_no_config_file(workdir, capsys, tmp_path):
    config_path = write_config(tmp_path / "train.json", train_config(workdir, mode="baseline"))
    code, out, err = run(capsys, "train", "--config", config_path, "--seed", "-1")
    assert code == 1 and not out
    assert err == "error: seed must be >= 0, got -1\n"
    # a flag still replaces the file's value before the file's values are checked
    config_path = write_config(tmp_path / "bad.json", train_config(workdir, mode="baseline", seed=-1, max_steps=1))
    assert run_json(capsys, "train", "--config", config_path, "--seed", "0")["steps"] == 1


def test_train_unknown_top_level_key_rejected(workdir, capsys, tmp_path):
    cfg = train_config(workdir, mode="baseline")
    cfg["learning_rte"] = 0.1
    config_path = write_config(tmp_path / "config.json", cfg)
    code, _, err = run(capsys, "train", "--config", config_path)
    assert code == 1
    assert "learning_rte" in err


def test_train_unknown_nested_key_rejected(workdir, capsys, tmp_path):
    cfg = train_config(workdir, mode="baseline")
    cfg["loss"] = {"tau_one": 0.1}
    config_path = write_config(tmp_path / "config.json", cfg)
    code, _, err = run(capsys, "train", "--config", config_path)
    assert code == 1
    assert "tau_one" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", "5"),
        ("epochs", 2.5),
        ("epochs", 0),
        ("max_steps", 0),
        ("max_steps", "10"),
        ("batch_size", True),
        ("seed", "1"),
        ("checkpoint_interval", "x"),
        ("er_batch_size", [4]),
        ("fingerprint_nbits", "2048"),
        ("learning_rate", "0.001"),
        ("grad_clip", "1"),
        ("adam_eps", None),
        ("mode", ["amole"]),
        ("lr_schedule", {"name": "cosine"}),
        ("loss.tau1", "0.1"),
        ("loss.alpha", False),
        ("augmentation.k", "3"),
        ("augmentation.p", None),
        ("augmentation.seed", 1.5),
        ("grad_clip", -1.0),
        ("grad_clip", 0),
        ("learning_rate", float("nan")),
        ("learning_rate", 0),
        ("learning_rate", float("inf")),
        ("adam_eps", 0.0),
        ("adam_beta1", 1.5),
        ("adam_beta2", 1.0),
        ("adam_beta2", -0.1),
        ("checkpoint_interval", -3),
        ("loss.tau", float("nan")),
        ("loss.tau2", float("-inf")),
        pytest.param("loss.alpha", 10**400, id="loss.alpha-int_beyond_float"),
        ("augmentation.p", float("nan")),
        ("er_min_descriptions", 1),
        ("er_min_descriptions", 0),
        ("er_batch_size", 0),
        ("er_batch_size", -4),
        ("fingerprint_radius", 9),
        ("fingerprint_radius", -1),
        ("seed", -1),
        ("augmentation.seed", -1),
        ("model.vocab_cap", 4),
        ("fingerprint_nbits", 100),
        ("fingerprint_nbits", 0),
        ("fingerprint_nbits", 1 << 24),
        ("corpus", ["a"]),
        ("corpus", {"a": 1}),
        ("corpus", 3.5),
        ("corpus", 0),
        ("corpus", True),
        ("index", ["a"]),
        ("checkpoint", ["a"]),
        ("metrics", ["a"]),
        ("model.max_len", 10**12),
        ("model.max_len", 4097),
        ("model.projection_dim", 4097),
        ("model.gin_layers", 65),
        ("model.text_blocks", 65),
        # Adam's betas and eps, er_batch_size and er_min_descriptions are not config keys: any value of them
        # (the adam_* and er_* cases above too) is an unknown key; an ER batch this large would exhaust memory
        ("er_batch_size", 10**7),
    ],
)
def test_train_config_value_of_wrong_type_or_range_exits_one(workdir, capsys, tmp_path, monkeypatch, key, value):
    cfg = train_config(workdir, mode="baseline", max_steps=5)
    *nest, name = key.split(".")
    (cfg.setdefault(nest[0], {}) if nest else cfg)[name] = value
    config_path = write_config(tmp_path / "config.json", cfg)
    # refused while the config is parsed, before the corpus is read
    monkeypatch.setattr(cli, "load_corpus", lambda *a, **kw: pytest.fail("the corpus was read"))
    code, out, err = run(capsys, "train", "--config", config_path)
    assert code == 1 and not out
    # the file is named once, then the key, after its section if it has one ("loss: tau1 must be ...")
    prefix = f"error: {config_path}: "
    assert err.startswith(prefix) and config_path not in err[len(prefix):]
    assert err[len(prefix):].startswith(": ".join(nest + [name]))


def test_train_model_too_large_to_build_exits_one_under_a_memory_limit(workdir, tmp_path):
    # every size is within its bound, but the GIN weights alone would take about 17 GB;
    # under a 2 GB address-space limit the refusal must come before any allocation fails
    cfg = train_config(workdir, mode="baseline", max_steps=1, model={"hidden_dim": 4096, "gin_layers": 64})
    config_path = write_config(tmp_path / "config.json", cfg)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from moltext.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["train", "--config", config_path, "--checkpoint", str(tmp_path / "m.amck"), "--metrics", str(tmp_path / "m.jsonl")]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and not done.stdout
    shown = re.fullmatch(r"error: (\d+) model parameters exceed the limit of (\d+): hidden_dim 4096, embed_dim \d+, "
                         r"projection_dim \d+, gin_layers 64, text_blocks \d+, vocab \d+\n", done.stderr)
    assert shown and int(shown[1]) > 2 * 10**9 and int(shown[2]) == MAX_PARAMETERS
    assert not (tmp_path / "m.amck").exists()


def test_train_attention_too_large_to_hold_exits_one_under_a_memory_limit(tmp_path):
    # every field is within its bound, but texts of 4,096 tokens in batches of 4 need
    # (4, 4096, 4096) float64 scores, 512 MiB a block; under a 1.5 GB address-space
    # limit the config must be refused before any block is allocated
    records = make_corpus(8, descriptions_per_molecule=1, seed=9)
    for record in records:
        record["descriptions"] = [" ".join(f"w{record['id']}x{i}" for i in range(4100))]
    write_corpus_jsonl(str(tmp_path / "corpus.jsonl"), records)
    cfg = train_config(tmp_path, mode="baseline", max_steps=1, batch_size=4, model={**TINY_MODEL, "max_len": 4096})
    config_path = write_config(tmp_path / "config.json", cfg)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from moltext.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["train", "--config", config_path, "--checkpoint", str(tmp_path / "m.amck"), "--metrics", str(tmp_path / "m.jsonl")]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and not done.stdout
    assert done.stderr == (f"error: {config_path}: batch_size 4 x max_len 4096**2 = {4 * 4096**2} "
                           f"attention scores exceed the limit of {MAX_ATTENTION_SCORES}\n")
    assert not (tmp_path / "m.amck").exists()


def test_eval_texts_of_a_long_max_len_embed_under_a_memory_limit(tmp_path):
    # with max_len 4096 one text's (1, 4096, 4096) float64 attention scores take 128 MiB;
    # the eight texts below in one chunk would take 1 GiB a block, so under a 1 GiB
    # address-space limit eval must embed them one at a time
    records = make_corpus(8, descriptions_per_molecule=1, seed=9)
    for shift, record in enumerate(records):
        record["descriptions"] = [" ".join(f"w{(i + shift) % 50}" for i in range(4100))]
    write_jsonl(str(tmp_path / "retrieval.jsonl"), make_retrieval_dataset(records))
    vocab = build_vocab([record["descriptions"][0] for record in records], cap=128)
    assert len(vocab) == 54  # every word is in the vocabulary: no text is shortened to [UNK]s
    model = MolTextModel(ModelConfig(**{**TINY_MODEL, "max_len": 4096}), vocab, seed=0)
    save_checkpoint(str(tmp_path / "model.amck"), model)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from moltext.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["eval", "retrieval", "--checkpoint", str(tmp_path / "model.amck"),
            "--data", str(tmp_path / "retrieval.jsonl"), "--options", "2", "--trials", "1", "--seed", "0"]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["n_options"] == 2 and len(report["accuracies"]) == 1


@pytest.mark.parametrize(
    "text", ['{"epochs": 1,}', '{mode: "amole"}', "[1, 2]", ""], ids=["trailing-comma", "bare-key", "list", "empty"]
)
def test_train_config_that_is_not_a_json_object_names_the_file(capsys, tmp_path, text):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    code, out, err = run(capsys, "train", "--config", str(config_path))
    assert code == 1 and not out
    assert err.startswith(f"error: {config_path}: ")


def _model_not_an_object(tmp_path):
    config = write_config(tmp_path / "config.json", {"corpus": "corpus.jsonl", "model": 3})
    return ["train", "--config", config], f"{config}: model: expected a JSON object, got int"


def _out_in_a_missing_directory(tmp_path):
    write_corpus_jsonl(str(tmp_path / "corpus.jsonl"), make_corpus(2))
    argv = ["ingest", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "missing" / "fps.amfp")]
    return argv, f"directory for --out does not exist: {tmp_path / 'missing'}"


@pytest.mark.parametrize("case", [_model_not_an_object, _out_in_a_missing_directory])
def test_refusal_prints_its_exact_message(capsys, tmp_path, case):
    argv, message = case(tmp_path)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "missing").exists()


def _forbid_work(monkeypatch):
    """Make every load and work function the CLI calls fail, so a refusal must come before them."""

    def never(*args, **kwargs):
        raise AssertionError("the command ran before checking its outputs")

    for name in ("fingerprint_corpus", "read_packed_fingerprints", "build_topk", "load_corpus", "train",
                 "load_checkpoint"):
        monkeypatch.setattr(cli, name, never)


# command line, then its refusal; every case runs in a directory holding the files below and a directory d
_OUTPUT_REFUSALS = {
    "ingest-over-corpus": (["ingest", "--corpus", "corpus.jsonl", "--out", "corpus.jsonl"],
                           "--out names the same file as --corpus: corpus.jsonl"),
    "ingest-into-directory": (["ingest", "--corpus", "corpus.jsonl", "--out", "d"], "--out is a directory: d"),
    "index-over-store": (["index", "--fingerprints", "fps.amfp", "--k", "2", "--out", "./fps.amfp"],
                         "--out names the same file as --fingerprints: ./fps.amfp"),
    "index-into-directory": (["index", "--fingerprints", "fps.amfp", "--k", "2", "--out", "d"],
                             "--out is a directory: d"),
    "train-checkpoint-directory": (["train", "--corpus", "corpus.jsonl", "--checkpoint", "d", "--metrics", "m.jsonl"],
                                   "checkpoint is a directory: d"),
    "train-metrics-directory": (["train", "--corpus", "corpus.jsonl", "--metrics", "d"], "metrics is a directory: d"),
    "train-checkpoint-over-metrics": (["train", "--corpus", "corpus.jsonl", "--checkpoint", "m.jsonl",
                                       "--metrics", "m.jsonl"], "checkpoint names the same file as metrics: m.jsonl"),
    "train-checkpoint-over-corpus": (["train", "--corpus", "corpus.jsonl", "--checkpoint", "corpus.jsonl"],
                                     "checkpoint names the same file as corpus: corpus.jsonl"),
    "train-checkpoint-over-linked-index": (["train", "--corpus", "corpus.jsonl", "--index", "nn.amix",
                                            "--checkpoint", "link"], "checkpoint names the same file as index: link"),
    "train-metrics-over-corpus": (["train", "--corpus", "corpus.jsonl", "--metrics", "corpus.jsonl"],
                                  "metrics names the same file as corpus: corpus.jsonl"),
    "train-metrics-over-index": (["train", "--corpus", "corpus.jsonl", "--index", "nn.amix", "--metrics", "nn.amix"],
                                 "metrics names the same file as index: nn.amix"),
    "train-checkpoint-over-config": (["train", "--config", "c.json", "--checkpoint", "c.json"],
                                     "checkpoint names the same file as --config: c.json"),
    "train-metrics-over-config": (["train", "--config", "c.json", "--metrics", "./c.json"],
                                  "metrics names the same file as --config: ./c.json"),
    "train-config-key-names-config": (["train", "--config", "self.json"],
                                      "checkpoint names the same file as --config: self.json"),
    "eval-into-missing-directory": (["eval", "qa", "--checkpoint", "model.amck", "--data", "qa.jsonl",
                                     "--out", "missing/qa.json"], "directory for --out does not exist: {tmp}/missing"),
    "eval-into-directory": (["eval", "qa", "--checkpoint", "model.amck", "--data", "qa.jsonl", "--out", "d"],
                            "--out is a directory: d"),
    "eval-over-checkpoint": (["eval", "qa", "--checkpoint", "model.amck", "--data", "qa.jsonl", "--out", "model.amck"],
                             "--out names the same file as --checkpoint: model.amck"),
    "eval-over-data": (["eval", "probe", "--checkpoint", "model.amck", "--data", "qa.jsonl", "--out", "qa.jsonl"],
                       "--out names the same file as --data: qa.jsonl"),
}


@pytest.mark.parametrize("argv, message", _OUTPUT_REFUSALS.values(), ids=_OUTPUT_REFUSALS)
def test_output_paths_are_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, message):
    for name in ("corpus.jsonl", "fps.amfp", "nn.amix", "model.amck", "qa.jsonl"):
        (tmp_path / name).write_bytes(f"the bytes of {name}\n".encode())
    (tmp_path / "c.json").write_text(json.dumps({"corpus": "corpus.jsonl"}))
    (tmp_path / "self.json").write_text(json.dumps({"corpus": "corpus.jsonl", "checkpoint": "self.json"}))
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to("nn.amix")
    _forbid_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert run(capsys, *argv) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "corpus.jsonl", "d", "fps.amfp", "link",
                                                          "model.amck", "nn.amix", "qa.jsonl", "self.json"]


_EMPTY_OUTPUTS = {
    "ingest": (["ingest", "--corpus", "corpus.jsonl", "--out", ""], "--out"),
    "index": (["index", "--fingerprints", "fps.amfp", "--k", "2", "--out", ""], "--out"),
    "eval": (["eval", "qa", "--checkpoint", "model.amck", "--data", "qa.jsonl", "--out", ""], "--out"),
    "train-checkpoint": (["train", "--config", "config.json"], "checkpoint"),
    "train-metrics": (["train", "--corpus", "corpus.jsonl", "--metrics", ""], "metrics"),
}


@pytest.mark.parametrize("argv, what", _EMPTY_OUTPUTS.values(), ids=_EMPTY_OUTPUTS)
def test_empty_output_path_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, what):
    for name in ("corpus.jsonl", "fps.amfp", "model.amck", "qa.jsonl"):
        (tmp_path / name).write_bytes(f"the bytes of {name}\n".encode())
    (tmp_path / "config.json").write_text(json.dumps({"corpus": "corpus.jsonl", "checkpoint": ""}))
    _forbid_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(capsys, *argv) == (1, "", f"error: {what} is an empty path\n")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "command, flags",
    [
        (["ingest"], ["--corpus CORPUS", "--out OUT", "--radius RADIUS", "--nbits NBITS"]),
        (["index"], ["--fingerprints FINGERPRINTS", "--k K", "--out OUT", "--threads THREADS"]),
        (["train"], ["--config CONFIG", "--corpus CORPUS", "--index INDEX", "--checkpoint CHECKPOINT",
                     "--metrics METRICS", f"--mode {{{','.join(sorted(MODES))}}}", "--seed SEED"]),
        (["ttest"], ["--a A", "--b B"]),
        (["eval", "retrieval"], ["--direction {given_text,given_molecule}", "--options OPTIONS", "--trials TRIALS",
                                 "--seed SEED"]),
        (["eval", "qa"], []),
        (["eval", "screening"], ["--prompt PROMPT", "--top-n TOP_N"]),
        (["eval", "probe"], ["--epochs EPOCHS", "--seed SEED"]),
    ],
    ids=" ".join,
)
def test_help_lists_every_flag_in_order(capsys, command, flags):
    if command[0] == "eval":  # the checkpoint and dataset, the protocol's own flags, then where the report goes
        flags = ["--checkpoint CHECKPOINT", "--data DATA", *flags, "--out OUT"]
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert re.findall(r"^  (--\S+ \S+)", capsys.readouterr().out, flags=re.M) == flags


def test_readme_train_config_example_builds(tmp_path):
    # the example in README's "Train config" section stays a config that train accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Train config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config_path = tmp_path / "train.json"
    config_path.write_text(block)
    args = build_parser().parse_args(["train", "--config", str(config_path)])
    cfg, paths = resolve_train_config(args.config, args)
    example = json.loads(block)
    assert paths == {key: example[key] for key in ("corpus", "index", "checkpoint", "metrics")}
    built = asdict(cfg)
    for key, value in example.items():
        if isinstance(value, dict):
            assert {**built[key], **value} == built[key]
        elif key not in paths:
            assert built[key] == value


def test_readme_train_config_bounds_name_only_settable_keys():
    # every key README's bounds list names is one a train config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Train config", 1)[1].split("```json\n", 1)[0]
    bullets = [para for para in section.split("\n\n") if para.startswith("- ")]
    assert len(bullets) == 1
    settable = set()
    for key, value in asdict(TrainConfig()).items():
        settable.add(key)
        for name in value if isinstance(value, dict) else ():
            settable |= {name, f"{key}.{name}"}
    named = re.findall(r"`([a-z_.]+)`", bullets[0])
    assert "fingerprint_nbits" in named and "model.vocab_cap" in named
    assert [key for key in named if key not in settable] == []


def test_train_without_corpus_rejected(capsys, tmp_path):
    config_path = write_config(tmp_path / "config.json", {"mode": "baseline"})
    code, _, err = run(capsys, "train", "--config", config_path)
    assert code == 1
    assert "corpus" in err


def test_train_augmenting_mode_needs_index_file(workdir, capsys, tmp_path):
    cfg = train_config(workdir, mode="amole")
    config_path = write_config(tmp_path / "config.json", cfg)
    code, _, err = run(capsys, "train", "--config", config_path)
    assert code == 1
    assert "index" in err


def test_train_index_of_other_corpus_size_rejected(workdir, capsys, tmp_path):
    # an index built from 12 molecules cannot serve the 24-molecule corpus
    small = tmp_path / "small.jsonl"
    write_corpus_jsonl(str(small), make_corpus(12, descriptions_per_molecule=2, seed=4))
    assert main(["ingest", "--corpus", str(small), "--out", str(tmp_path / "small.amfp")]) == 0
    index_path = str(tmp_path / "small.amix")
    assert main(["index", "--fingerprints", str(tmp_path / "small.amfp"), "--k", "3", "--out", index_path]) == 0
    capsys.readouterr()
    config_path = write_config(tmp_path / "config.json", train_config(workdir, index=index_path))
    code, _, err = run(capsys, "train", "--config", config_path)
    assert code == 1
    assert "internal error" not in err
    assert index_path in err and "12" in err and "24" in err


def test_train_index_of_other_k_names_the_index_and_the_config_key(trained, workdir, capsys, tmp_path):
    # the index was built at k=3; a config that leaves augmentation.k at its default asks for 10
    index_path = str(trained[0] / "nn.amix")
    cfg = train_config(workdir, index=index_path)
    del cfg["augmentation"]
    code, out, err = run(capsys, "train", "--config", write_config(tmp_path / "config.json", cfg))
    assert code == 1 and out == ""
    assert err == f"error: {index_path}: index was built with k=3 but augmentation.k is 10\n"


_TRAIN_OVERFLOW = (r"error: train: (overflow|invalid value) encountered in \w+; lower learning_rate or loss\.alpha, "
                   r"or raise loss\.tau or loss\.tau2\n")


@pytest.mark.parametrize("action", ["default", "error"])
def test_train_overflow_exits_one_and_writes_nothing(workdir, capsys, tmp_path, action):
    # Adam's first step moves every weight by about the learning rate, so the second forward pass overflows
    paths = {key: str(tmp_path / name) for key, name in (("checkpoint", "model.amck"), ("metrics", "m.jsonl"))}
    cfg = train_config(workdir, mode="baseline", max_steps=3, learning_rate=1e300, **paths)
    config_path = write_config(tmp_path / "config.json", cfg)
    with warnings.catch_warnings():  # whether or not a RuntimeWarning is an error, as in CI
        warnings.simplefilter(action, RuntimeWarning)
        code, out, err = run(capsys, "train", "--config", config_path)
    assert code == 1 and not out
    assert re.fullmatch(_TRAIN_OVERFLOW, err)
    assert not any(os.path.exists(path) for path in paths.values())


@pytest.mark.parametrize(
    "mode, settings",
    [
        ("baseline", {"learning_rate": 1e300, "grad_clip": 1e-6}),
        ("ablation4", {"loss": {"alpha": 1e308}}),
        ("ablation4", {"loss": {"tau2": 1e-300}, "grad_clip": 1.0}),
        ("baseline", {"loss": {"tau": 1e-300}}),
    ],
    ids=["learning_rate-clipped", "alpha", "tau2-clipped", "tau"],
)
def test_train_overflow_hint_names_the_settings_that_can_cause_it(workdir, capsys, tmp_path, mode, settings):
    # clipping cannot stop any of these, so the hint does not offer it
    config_path = write_config(tmp_path / "config.json", train_config(workdir, mode=mode, max_steps=3, **settings))
    code, out, err = run(capsys, "train", "--config", config_path)
    assert code == 1 and not out
    assert re.fullmatch(_TRAIN_OVERFLOW, err)


def test_train_corrupt_index_exits_one(trained, workdir, capsys, tmp_path):
    root, _ = trained
    raw = bytearray((root / "nn.amix").read_bytes())
    raw[20:24] = struct.pack("<I", 0xFFFFFFF0)  # molecule 0 claims ~4e9 neighbors
    index_path = tmp_path / "bad.amix"
    index_path.write_bytes(bytes(raw))
    config_path = write_config(tmp_path / "config.json", train_config(workdir, index=str(index_path)))
    code, _, err = run(capsys, "train", "--config", config_path)
    assert code == 1
    assert "internal error" not in err and str(index_path) in err


# ---------------------------------------------------------------------------
# eval


def _rewrite_checkpoint(src, dst, edit_header=None, extra_payload=b"", overwrite=None):
    """Copy a checkpoint with its header edited, bytes appended to its payload, or one float64 of its payload
    set: `overwrite` is (tensor name, index in that tensor, value)."""
    raw = src.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    payload = bytearray(raw[12 + header_len :]) + extra_payload
    if overwrite:
        name, index, value = overwrite
        at = next(entry["offset"] for entry in header["tensors"] if entry["name"] == name) + 8 * index
        payload[at : at + 8] = struct.pack("<d", value)
    if edit_header:
        edit_header(header)
    header_bytes = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<I", len(header_bytes)) + header_bytes + payload)


@pytest.mark.parametrize(
    "edit_header, extra_payload, overwrite",
    [
        (lambda h: h.pop("config"), b"", None),
        (lambda h: h["config"].update(layers=3), b"", None),
        (lambda h: h["tensors"][0].pop("shape"), b"", None),
        (None, b"\x00" * 8, None),
        (lambda h: h["tensors"][0].update(offset=1 << 40), b"", None),
        (None, b"", ("proj_mol.w", 0, math.nan)),
        (None, b"", ("proj_text.b", 3, -math.inf)),
        (None, b"", ("proj_mol.w", 0, 1e300)),
    ],
    ids=["no-config", "unknown-config-key", "no-shape", "trailing-payload", "offset-out-of-range", "nan-weight",
         "inf-weight", "huge-weight"],
)
def test_eval_malformed_checkpoint_exits_one(workdir, capsys, tmp_path, edit_header, extra_payload, overwrite):
    bad = tmp_path / "bad.amck"
    _rewrite_checkpoint(workdir / "model.amck", bad, edit_header, extra_payload, overwrite)
    for action in ("default", "error"):  # whether or not a RuntimeWarning is an error, as in CI
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code, out, err = run(capsys, "eval", "qa", "--checkpoint", str(bad), "--data", str(workdir / "qa.jsonl"))
        assert code == 1 and not out
        assert "internal error" not in err and str(bad) in err
        if overwrite and math.isfinite(overwrite[2]):  # finite but huge: the forward pass overflows
            assert re.fullmatch(f"error: eval-qa: overflow encountered in \\w+; checkpoint {re.escape(str(bad))} "
                                "holds weights too large to evaluate\n", err)
        elif overwrite:  # a NaN or an infinity is refused with the tensor it is in
            assert err == f"error: {bad}: tensor {overwrite[0]} holds a non-finite value\n"


def test_eval_checks_the_dataset_exists_before_reading_the_checkpoint(workdir, capsys, monkeypatch, tmp_path):
    def unreadable(path):
        raise ValueError(f"{path}: truncated checkpoint")

    monkeypatch.setattr(cli, "load_checkpoint", unreadable)
    missing = tmp_path / "missing.jsonl"
    code, out, err = run(capsys, "eval", "qa", "--checkpoint", str(workdir / "model.amck"), "--data", str(missing))
    assert code == 1 and not out
    assert err == f"error: dataset not found: {missing}\n"


def _swap_offsets(header, a="gin.layer0.b1", b="gin.layer0.b2"):
    by_name = {entry["name"]: entry for entry in header["tensors"]}
    by_name[a]["offset"], by_name[b]["offset"] = by_name[b]["offset"], by_name[a]["offset"]


def _word_id(header, word_id, new_id):
    word = next(w for w, i in header["vocab"].items() if i == word_id)
    header["vocab"][word] = new_id


@pytest.mark.parametrize(
    "edit_header",
    [
        lambda h: [entry.update(offset=0) for entry in h["tensors"]],
        _swap_offsets,
        lambda h: h["tensors"][0].update(offset=4),
        lambda h: h["tensors"][0].update(shape=[12, 8.5]),
        lambda h: _word_id(h, 4, len(h["vocab"]) + 10),
        lambda h: _word_id(h, 4, "4"),
        lambda h: _word_id(h, 5, 4),
        lambda h: (_word_id(h, 4, 3), h["vocab"].update({"[UNK]": 4})),
    ],
    ids=["overlapping-offsets", "reordered-offsets", "misaligned-offset", "fractional-shape",
         "vocab-id-out-of-range", "vocab-id-str", "vocab-id-twice", "reserved-token-moved"],
)
def test_eval_checkpoint_unlike_what_save_checkpoint_writes_exits_one(workdir, capsys, tmp_path, edit_header):
    bad = tmp_path / "bad.amck"
    _rewrite_checkpoint(workdir / "model.amck", bad, edit_header)
    code, out, err = run(capsys, "eval", "qa", "--checkpoint", str(bad), "--data", str(workdir / "qa.jsonl"))
    assert code == 1 and not out
    assert "internal error" not in err and str(bad) in err


@pytest.mark.parametrize("fmt", ["amfp", "amix", "amck"])
@pytest.mark.parametrize(
    "corrupt, shown",
    [
        (lambda raw, size: b"NOPE" + raw[4:], "b'NOPE'"),
        (lambda raw, size: raw[:4] + struct.pack("<I", 2) + raw[8:], "version 2"),
        (lambda raw, size: raw[: size - 1], "truncated"),
    ],
    ids=["bad-magic", "other-version", "short-header"],
)
def test_every_file_format_refuses_a_bad_frame(trained, workdir, capsys, tmp_path, fmt, corrupt, shown):
    root, _ = trained
    good, reader, size = {
        "amfp": (root / "fps.amfp", read_fingerprints, 20),
        "amix": (root / "nn.amix", read_index, 20),
        "amck": (workdir / "model.amck", load_checkpoint, 12),
    }[fmt]
    bad = tmp_path / f"bad.{fmt}"
    bad.write_bytes(corrupt(good.read_bytes(), size))
    with pytest.raises(ValueError, match=shown) as info:
        reader(str(bad))
    assert str(info.value).startswith(f"{bad}: ")
    argv = {
        "amfp": ["index", "--fingerprints", str(bad), "--k", "2", "--out", str(tmp_path / "out.amix")],
        "amix": ["train", "--config", write_config(tmp_path / "config.json", train_config(workdir, index=str(bad)))],
        "amck": ["eval", "qa", "--checkpoint", str(bad), "--data", str(workdir / "qa.jsonl")],
    }[fmt]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert "internal error" not in err and str(bad) in err and shown in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("hidden_dim", "8"),
        ("hidden_dim", -1),
        ("embed_dim", 0),
        ("gin_layers", 1.5),
        ("text_blocks", True),
        ("max_len", None),
        ("vocab_cap", -128),
        ("mlp_projection", "false"),
        ("mlp_projection", 0),
        ("max_len", 10**12),
        ("max_len", 4097),
        ("projection_dim", 4097),
        ("gin_layers", 65),
        ("text_blocks", 65),
    ],
)
def test_eval_checkpoint_config_of_wrong_type_exits_one(trained, workdir, capsys, tmp_path, key, value):
    root, _ = trained
    bad = tmp_path / "bad.amck"
    _rewrite_checkpoint(root / "model.amck", bad, lambda h: h["config"].update({key: value}))
    code, _, err = run(capsys, "eval", "qa", "--checkpoint", str(bad), "--data", str(workdir / "qa.jsonl"))
    assert code == 1
    assert "internal error" not in err and str(bad) in err and key in err


@pytest.mark.parametrize("protocol, broken", BAD_OWN_FIELDS, ids=str)
def test_eval_dataset_line_with_bad_own_field_exits_one(workdir, capsys, tmp_path, protocol, broken):
    first = json.loads((workdir / f"{protocol}.jsonl").read_text().splitlines()[0])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**first, **broken}) + "\n")
    extra = ["--prompt", "a ring", "--top-n", "1"] if protocol == "screening" else []
    checkpoint = str(workdir / "model.amck")
    code, out, err = run(capsys, "eval", protocol, "--checkpoint", checkpoint, "--data", str(bad), *extra)
    assert code == 1 and not out and err.startswith(f"error: {bad}:1: ")


@pytest.mark.parametrize("options", ["1", "0", "-3"])
def test_eval_retrieval_refuses_fewer_than_two_options(workdir, capsys, no_input_read, options):
    # one option is the counterpart alone, a trivial 100%; zero options leaves nothing to score
    code, out, err = run_refused_by_parser(
        capsys,
        "eval",
        "retrieval",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "retrieval.jsonl"),
        "--options",
        options,
    )
    assert code == 1
    assert out == ""
    assert f"argument --options: {options} is below the minimum of 2" in err


def test_eval_retrieval_deterministic_stdout_and_file(workdir, capsys, tmp_path):
    argv = [
        "eval",
        "retrieval",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "retrieval.jsonl"),
        "--options",
        "10",
        "--trials",
        "3",
        "--seed",
        "4",
    ]
    code, out1, _ = run(capsys, *argv, "--out", str(tmp_path / "r1.json"))
    assert code == 0
    code, out2, _ = run(capsys, *argv, "--out", str(tmp_path / "r2.json"))
    assert code == 0
    assert out1 == out2
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert json.loads(out1)["trials"] == 3


def test_failed_report_write_keeps_the_old_report(workdir, capsys, tmp_path, monkeypatch):
    report = tmp_path / "qa.json"
    report.write_text("old report\n")
    fail_writes(monkeypatch)
    code, out, err = run(
        capsys, "eval", "qa", "--checkpoint", str(workdir / "model.amck"), "--data", str(workdir / "qa.jsonl"),
        "--out", str(report),
    )
    assert code == 1 and out == "" and "No space left on device" in err
    assert report.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["qa.json"]


def test_eval_qa_runs(workdir, capsys):
    report = run_json(
        capsys,
        "eval",
        "qa",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "qa.jsonl"),
    )
    assert report["n_items"] == 24
    assert report["accuracy"] == pytest.approx(100.0 * report["correct"] / 24)


def test_eval_screening_runs(workdir, capsys):
    report = run_json(
        capsys,
        "eval",
        "screening",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "screening.jsonl"),
        "--prompt",
        "ring with heteroatoms",
        "--top-n",
        "5",
    )
    assert report["top_n"] == 5
    assert report["hit_rate"] == pytest.approx(report["hits"] / 5)


@pytest.mark.parametrize("prompt", ["", "   ", "!!!", "[SEP]", "[SEP] ?"])
def test_eval_screening_refuses_a_prompt_with_no_words(workdir, capsys, prompt):
    argv = ["eval", "screening", "--checkpoint", str(workdir / "model.amck"),
            "--data", str(workdir / "screening.jsonl"), "--prompt", prompt, "--top-n", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1 and not out.out
    assert f"argument --prompt: {prompt!r} holds no words" in out.err


def test_eval_screening_top_n_too_big(workdir, capsys):
    code, _, err = run(
        capsys,
        "eval",
        "screening",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "screening.jsonl"),
        "--prompt",
        "anything",
        "--top-n",
        "999",
    )
    assert code == 1


def test_eval_probe_runs_and_repeats(workdir, capsys):
    argv = [
        "eval",
        "probe",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "probe.jsonl"),
        "--epochs",
        "10",
        "--seed",
        "2",
    ]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    report = json.loads(out1)
    assert len(report["test_aucs"]) == 2
    assert all(0.0 <= v <= 1.0 for v in report["test_aucs"])


@pytest.mark.parametrize("epochs", ["0", "-3"])
def test_eval_probe_refuses_fewer_than_one_epoch(workdir, capsys, no_input_read, epochs):
    code, out, err = run_refused_by_parser(
        capsys,
        "eval",
        "probe",
        "--checkpoint",
        str(workdir / "model.amck"),
        "--data",
        str(workdir / "probe.jsonl"),
        "--epochs",
        epochs,
    )
    assert code == 1
    assert out == ""
    assert f"argument --epochs: {epochs} is below the minimum of 1" in err


@pytest.mark.parametrize("value", [10**6, 10**18])
@pytest.mark.parametrize(
    "protocol, flag, limit", [("retrieval", "--trials", cli.MAX_TRIALS), ("probe", "--epochs", cli.MAX_PROBE_EPOCHS)]
)
def test_eval_refuses_a_loop_count_beyond_its_limit_at_parse_time(
    workdir, capsys, monkeypatch, protocol, flag, limit, value
):
    def never(*args, **kwargs):
        raise AssertionError("the command ran past the parser")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    argv = ["eval", protocol, "--checkpoint", str(workdir / "model.amck"),
            "--data", str(workdir / f"{protocol}.jsonl"), flag, str(value)]
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert exc.value.code == 1 and not out.out
    assert f"argument {flag}: {value} is above the limit of {limit}" in out.err
    # the limit itself is a count the command runs
    assert getattr(build_parser().parse_args(argv[:-1] + [str(limit)]), flag[2:]) == limit
    with pytest.raises(SystemExit):
        main(argv[:-1] + ["3.5"])
    assert f"argument {flag}: invalid int value: '3.5'" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["retrieval", "probe"])
def test_eval_refuses_a_negative_seed_at_parse_time(workdir, capsys, monkeypatch, protocol):
    def never(*args, **kwargs):
        raise AssertionError("the command ran past the parser")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    with pytest.raises(SystemExit) as exc:
        main(["eval", protocol, "--checkpoint", str(workdir / "model.amck"),
              "--data", str(workdir / f"{protocol}.jsonl"), "--seed", "-1"])
    out = capsys.readouterr()
    assert exc.value.code == 1 and not out.out
    assert "argument --seed: -1 is below the minimum of 0" in out.err


# subcommand, the arguments it needs besides the flag, the flag, a value below its minimum, the minimum
_COUNT_FLAGS = [
    (["eval", "retrieval"], [], "--trials", "0", 1),
    (["eval", "retrieval"], [], "--options", "1", 2),
    (["eval", "probe"], [], "--epochs", "0", 1),
    (["eval", "screening"], ["--prompt", "a ring", "--top-n", "5"], "--top-n", "0", 1),
    (["index"], ["--k", "3"], "--k", "0", 1),
    (["index"], ["--k", "3"], "--threads", "0", 1),
]


@pytest.mark.parametrize("command, needed, flag, value, low", _COUNT_FLAGS, ids=[case[2] for case in _COUNT_FLAGS])
def test_a_count_flag_below_its_minimum_is_refused_before_any_input_is_read(
    workdir, capsys, tmp_path, no_input_read, command, needed, flag, value, low
):
    if command == ["index"]:
        store = tmp_path / "fps.amfp"
        store.write_bytes(b"")  # present, so only the stubbed reader stands between the flag and the work
        inputs = ["--fingerprints", str(store), "--out", str(tmp_path / "nn.amix")]
    else:
        protocol = command[1]
        inputs = ["--checkpoint", str(workdir / "model.amck"), "--data", str(workdir / f"{protocol}.jsonl")]
    code, out, err = run_refused_by_parser(capsys, *command, *inputs, *needed, flag, value)
    assert code == 1 and out == ""
    assert f"argument {flag}: {value} is below the minimum of {low}" in err
    assert not (tmp_path / "nn.amix").exists()


# protocol: flags away from every default, and the same run as a library call
_LIBRARY_RUNS = {
    "retrieval": (
        ["--direction", "given_molecule", "--options", "6", "--trials", "2", "--seed", "5"],
        lambda model, items: evaluation.eval_retrieval(
            model, items, direction="given_molecule", n_options=6, trials=2, seed=5
        ),
        data.load_retrieval_dataset,
    ),
    "qa": ([], evaluation.eval_qa, data.load_qa_dataset),
    "screening": (
        ["--prompt", "an aromatic ring", "--top-n", "7"],
        lambda model, items: evaluation.eval_screening(model, items, prompt="an aromatic ring", top_n=7),
        data.load_screening_dataset,
    ),
    "probe": (
        ["--epochs", "12", "--seed", "3"],
        lambda model, items: evaluation.finetune_probe(model, items, epochs=12, seed=3),
        data.load_probe_dataset,
    ),
}


@pytest.mark.parametrize("protocol", list(_LIBRARY_RUNS))
def test_eval_report_is_the_library_result(workdir, capsys, tmp_path, protocol):
    flags, run_library, load = _LIBRARY_RUNS[protocol]
    checkpoint, dataset = str(workdir / "model.amck"), str(workdir / f"{protocol}.jsonl")
    out = tmp_path / "report.json"
    code, stdout, err = run(
        capsys, "eval", protocol, "--checkpoint", checkpoint, "--data", dataset, *flags, "--out", str(out)
    )
    assert code == 0, err
    report = {"command": f"eval-{protocol}", **vars(run_library(load_checkpoint(checkpoint), load(dataset)))}
    assert stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert out.read_text(encoding="utf-8") == stdout


# ---------------------------------------------------------------------------
# ttest


def test_ttest_reads_lists_and_reports(capsys, tmp_path):
    (tmp_path / "a.json").write_text("[2.0, 3.0, 4.0, 5.0, 6.0]")
    (tmp_path / "b.json").write_text("[1.0, 1.0, 1.0, 1.0, 1.0]")
    report = run_json(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert report["command"] == "ttest"
    assert report["df"] == 4
    assert report["t"] == pytest.approx(4.242640687, abs=1e-8)
    assert 0.006 < report["p_value"] < 0.007


def test_ttest_reads_retrieval_reports(capsys, tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({"accuracies": [60.0, 62.0, 61.0, 65.0]}))
    (tmp_path / "b.json").write_text(json.dumps({"accuracies": [50.0, 51.0, 49.0, 55.0]}))
    report = run_json(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert report["p_value"] < 0.05


def test_ttest_zero_variance_is_validation_error(capsys, tmp_path):
    (tmp_path / "a.json").write_text("[1.0, 2.0, 3.0]")
    (tmp_path / "b.json").write_text("[0.0, 1.0, 2.0]")
    code, _, err = run(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 1


@pytest.mark.parametrize(
    "a, b, t, mean_diff",
    [
        ('{"accuracies": [1e308, 1.5e308]}', "[0, 0]", 5.0, 1.25e308),  # t of [1, 1.5] against [0, 0]
        ("[1e308, -1e308]", "[-1e308, 1e308]", 0.0, 0.0),  # a - b overflows
        ("[1e308, -1e308]", "[0, 0]", 0.0, 0.0),  # the squared differences overflow
        ("[1e-308, 2e-308]", "[0, 0]", 3.0, 1.5e-308),  # the squared deviations underflow to zero variance
    ],
    ids=["huge-mean", "huge-differences", "huge-squares", "tiny-squares"],
)
def test_ttest_reports_finite_input_near_the_float_limit(capsys, tmp_path, a, b, t, mean_diff):
    (tmp_path / "a.json").write_text(a)
    (tmp_path / "b.json").write_text(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_json(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert report["t"] == pytest.approx(t, abs=1e-12)
    assert report["mean_diff"] == pytest.approx(mean_diff, rel=1e-15)
    assert report["p_value"] == pytest.approx(0.5 - math.atan(t) / math.pi, abs=1e-12)  # Student's t sf, df 1


def test_ttest_refuses_a_mean_difference_beyond_the_float_range(capsys, tmp_path):
    (tmp_path / "a.json").write_text("[1.7e308, 1.5e308]")
    (tmp_path / "b.json").write_text("[-1.7e308, -1.5e308]")
    code, out, err = run(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path / 'a.json'} vs {tmp_path / 'b.json'}: ")
    assert "mean difference inf" in err


@pytest.mark.parametrize(
    "payload, position, shown",
    [
        ("[1.0, NaN, 3.0]", 1, "NaN"),
        ("[Infinity, 2.0, 3.0]", 0, "Infinity"),
        ('{"accuracies": [1.0, 2.0, -Infinity]}', 2, "-Infinity"),
        ("[1.0, 2.0, true]", 2, "true"),
        ("[1.0, 2.0, 1e999]", 2, "Infinity"),
        pytest.param("[1.0, 2.0, 1" + "0" * 400 + "]", 2, "1" + "0" * 400 + ", not a finite number", id="int-beyond-float"),
    ],
)
def test_ttest_refuses_non_finite_and_boolean_values(capsys, tmp_path, payload, position, shown):
    (tmp_path / "a.json").write_text(payload)
    (tmp_path / "b.json").write_text("[1.0, 1.5, 2.5]")
    code, out, err = run(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 1
    assert out == ""
    assert f"{tmp_path / 'a.json'}: value {position} is {shown}" in err


@pytest.mark.parametrize("raw", [b"[1.0, 2.0,", b"[1.0, 2.0, \xff]"], ids=["not-json", "not-utf8"])
def test_ttest_names_a_values_file_that_does_not_decode(capsys, tmp_path, raw):
    (tmp_path / "a.json").write_bytes(raw)
    (tmp_path / "b.json").write_text("[1.0, 1.5, 2.5]")
    code, out, err = run(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path / 'a.json'}: ")


_DEEP_JSON = "[" * 100_000 + "]" * 100_000

# reader -> (the bad file's bytes, argv given the bad file and the shared workdir, how the refusal starts)
_UNPARSABLE_JSON = {
    "corpus-line": (
        _DEEP_JSON + "\n",
        lambda bad, w: ["ingest", "--corpus", bad, "--out", str(w / "deep.amfp")],
        "{bad}:1: invalid JSON: ",
    ),
    "corpus-id-digits": (
        '{"id": ' + "7" * 5001 + ', "smiles": "C", "descriptions": ["a methyl group"]}\n',
        lambda bad, w: ["ingest", "--corpus", bad, "--out", str(w / "deep.amfp")],
        "{bad}:1: invalid JSON: ",
    ),
    "dataset-line": (
        _DEEP_JSON + "\n",
        lambda bad, w: ["eval", "qa", "--checkpoint", str(w / "model.amck"), "--data", bad],
        "{bad}:1: invalid JSON: ",
    ),
    "train-config": (_DEEP_JSON, lambda bad, w: ["train", "--config", bad], "{bad}: "),
    "values-file": (_DEEP_JSON, lambda bad, w: ["ttest", "--a", bad, "--b", bad], "{bad}: "),
    "checkpoint-header": (
        None,  # the header of the workdir's checkpoint replaced by _DEEP_JSON
        lambda bad, w: ["eval", "qa", "--checkpoint", bad, "--data", str(w / "qa.jsonl")],
        "{bad}: malformed checkpoint header (RecursionError: ",
    ),
}


@pytest.mark.parametrize("reader", list(_UNPARSABLE_JSON))
def test_json_the_parser_refuses_exits_one_naming_the_file(workdir, capsys, tmp_path, reader):
    # nested too deep for the decoder's recursion, or an integer past Python's digit limit
    if reader == "corpus-id-digits" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    text, argv, shown = _UNPARSABLE_JSON[reader]
    bad = tmp_path / "bad"
    if text is None:
        raw, header = (workdir / "model.amck").read_bytes(), _DEEP_JSON.encode("utf-8")
        bad.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header)
    else:
        bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv(str(bad), workdir))
    assert code == 1 and out == ""
    assert err.startswith("error: " + shown.format(bad=bad))


def test_ttest_rejects_non_numeric_payload(capsys, tmp_path):
    (tmp_path / "a.json").write_text('{"mean": 3.0}')
    (tmp_path / "b.json").write_text("[1.0, 2.0]")
    code, _, err = run(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 1


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index", "--k", "2", "--out", "x.amix"])
    assert exc.value.code == 1


def test_bad_direction_choice_exits_one(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "eval",
                "retrieval",
                "--checkpoint",
                str(workdir / "model.amck"),
                "--data",
                str(workdir / "retrieval.jsonl"),
                "--direction",
                "sideways",
            ]
        )
    assert exc.value.code == 1
