"""End-to-end command tests driven through main().

Each command prints a JSON report; files and stdout must be byte-identical
across reruns with the same seed.
"""

import json
import struct

import numpy as np
import pytest

from moltext import data, evaluation, simindex
from moltext.chem import tanimoto
from moltext.cli import build_parser, main
from moltext.data import load_corpus
from moltext.encoders import ModelConfig, MolTextModel, build_vocab, load_checkpoint, save_checkpoint
from moltext.simindex import read_index
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


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
    assert report["count"] == 3
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


def test_index_refuses_k_beyond_the_file_format_before_building(capsys, tmp_path, monkeypatch):
    records = make_corpus(3, seed=2)
    write_corpus_jsonl(str(tmp_path / "three.jsonl"), records)
    store = str(tmp_path / "three.amfp")
    run_json(capsys, "ingest", "--corpus", str(tmp_path / "three.jsonl"), "--out", store)

    def no_tiles(*args):
        raise AssertionError("the index was built before k was checked")

    monkeypatch.setattr(simindex, "_tanimoto", no_tiles)
    code, out, err = run(capsys, "index", "--fingerprints", store, "--k", "5000000000", "--out", str(tmp_path / "k.amix"))
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
    assert report["steps"] == len((root / "metrics.jsonl").read_text().splitlines())
    assert (tmp_path / "metrics2.jsonl").read_bytes() == (root / "metrics.jsonl").read_bytes()
    assert (tmp_path / "model2.amck").read_bytes() == (root / "model.amck").read_bytes()


def test_train_flag_overrides_mode_and_seed(workdir, capsys, tmp_path):
    cfg = train_config(workdir, mode="amole")
    config_path = write_config(tmp_path / "config.json", cfg)
    report = run_json(capsys, "train", "--config", config_path, "--mode", "baseline", "--seed", "5")
    assert report["mode"] == "baseline"


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
    ],
)
def test_train_config_value_of_wrong_type_or_range_exits_one(workdir, capsys, tmp_path, key, value):
    cfg = train_config(workdir, mode="baseline", max_steps=5)
    *nest, name = key.split(".")
    (cfg.setdefault(nest[0], {}) if nest else cfg)[name] = value
    config_path = write_config(tmp_path / "config.json", cfg)
    code, out, err = run(capsys, "train", "--config", config_path)
    assert code == 1 and not out
    assert "internal error" not in err and name in err


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


def _rewrite_checkpoint(src, dst, edit_header=None, extra_payload=b""):
    raw = src.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    if edit_header:
        edit_header(header)
    header_bytes = json.dumps(header).encode("utf-8")
    payload = raw[12 + header_len :] + extra_payload
    dst.write_bytes(raw[:8] + struct.pack("<I", len(header_bytes)) + header_bytes + payload)


@pytest.mark.parametrize(
    "edit_header, extra_payload",
    [
        (lambda h: h.pop("config"), b""),
        (lambda h: h["config"].update(layers=3), b""),
        (lambda h: h["tensors"][0].pop("shape"), b""),
        (None, b"\x00" * 8),
        (lambda h: h["tensors"][0].update(offset=1 << 40), b""),
    ],
    ids=["no-config", "unknown-config-key", "no-shape", "trailing-payload", "offset-out-of-range"],
)
def test_eval_malformed_checkpoint_exits_one(workdir, capsys, tmp_path, edit_header, extra_payload):
    bad = tmp_path / "bad.amck"
    _rewrite_checkpoint(workdir / "model.amck", bad, edit_header, extra_payload)
    code, _, err = run(capsys, "eval", "qa", "--checkpoint", str(bad), "--data", str(workdir / "qa.jsonl"))
    assert code == 1
    assert "internal error" not in err and str(bad) in err


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
    ],
)
def test_eval_checkpoint_config_of_wrong_type_exits_one(trained, workdir, capsys, tmp_path, key, value):
    root, _ = trained
    bad = tmp_path / "bad.amck"
    _rewrite_checkpoint(root / "model.amck", bad, lambda h: h["config"].update({key: value}))
    code, _, err = run(capsys, "eval", "qa", "--checkpoint", str(bad), "--data", str(workdir / "qa.jsonl"))
    assert code == 1
    assert "internal error" not in err and str(bad) in err and key in err


@pytest.mark.parametrize("options", ["1", "0", "-3"])
def test_eval_retrieval_refuses_fewer_than_two_options(workdir, capsys, options):
    # one option is the counterpart alone, a trivial 100%; zero options leaves nothing to score
    code, out, err = run(
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
    assert "n_options must be >= 2" in err and f"got {options}" in err


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
def test_eval_probe_refuses_fewer_than_one_epoch(workdir, capsys, epochs):
    code, out, err = run(
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
    assert f"epochs must be >= 1, got {epochs}" in err


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
    report.pop("ranked_ids", None)  # screening prints the counts, not the ranking
    assert stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert out.read_text(encoding="utf-8") == stdout


# ---------------------------------------------------------------------------
# ttest


def test_ttest_reads_lists_and_reports(capsys, tmp_path):
    (tmp_path / "a.json").write_text("[2.0, 3.0, 4.0, 5.0, 6.0]")
    (tmp_path / "b.json").write_text("[1.0, 1.0, 1.0, 1.0, 1.0]")
    report = run_json(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
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
    "payload, position, shown",
    [
        ("[1.0, NaN, 3.0]", 1, "NaN"),
        ("[Infinity, 2.0, 3.0]", 0, "Infinity"),
        ('{"accuracies": [1.0, 2.0, -Infinity]}', 2, "-Infinity"),
        ("[1.0, 2.0, true]", 2, "true"),
        ("[1.0, 2.0, 1e999]", 2, "Infinity"),
    ],
)
def test_ttest_refuses_non_finite_and_boolean_values(capsys, tmp_path, payload, position, shown):
    (tmp_path / "a.json").write_text(payload)
    (tmp_path / "b.json").write_text("[1.0, 1.5, 2.5]")
    code, out, err = run(capsys, "ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 1
    assert out == ""
    assert f"{tmp_path / 'a.json'}: value {position} is {shown}" in err


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
