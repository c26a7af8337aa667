"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every workload drives the pipeline through ``moltext.cli.main(argv)`` in this
process, the way a user runs it, with paths relative to the run directory.
A pass writes the same outputs every time it runs, so every pass of a run,
and every run of one seed, must produce the same bytes.

Why these workloads:

- ``prep``: ingest and index nearly the whole toy pool. SMILES parsing,
  fingerprint hashing and the O(n^2) top-k build only dominate at thousands
  of molecules; the tensor, encoder and loss layers do no work here.
- ``train``: ``amole`` training with substitution, soft targets and the text
  regularizer all active, on texts from a few words up to near ``max_len``.
  Tensor, encoder, loss, sampling and Adam do almost all the work; the index
  only serves neighbour lookups and one batch similarity matrix per step.
- ``eval``: every evaluation protocol and a t-test against a checkpoint made
  in set-up. The same encoders run forward only, per item, with no tape
  backward and no Adam; the losses and the regularizer are bypassed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import inputs
import moltext.cli
from moltext import toydata
from moltext.chem import compute_fingerprint, parse_smiles, read_fingerprints, tanimoto, write_fingerprints
from moltext.encoders import ModelConfig, load_checkpoint
from moltext.simindex import read_index

METRIC_KEYS = ["step", "s2p_t2m", "s2p_m2t", "er", "total"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[f"{directory}/{name}"] = sha256(fh.read())
    return out


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Session:
    """Counts every CLI call and output check of one run, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # set while passes run: CLI times are then scaled by reference kernel samples
        self.meter = None
        self.raw_s = 0.0  # unscaled seconds of the metered commands

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def cli(self, argv: list[str]) -> tuple[str, float]:
        """Run one moltext command in-process; returns its stdout and wall seconds.

        With a meter set, the seconds are scaled and the raw seconds add to `raw_s`.
        """
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = moltext.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            elapsed = perf_counter() - start
        if code != 0:
            self.fail(f"moltext {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        if self.meter is not None:
            self.raw_s += elapsed
            elapsed = self.meter.scale(elapsed)
        return out.getvalue(), elapsed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def checked(self, what: str, fn) -> None:
        """Run a group of checks; an exception inside it counts as one failure."""
        try:
            fn()
        except Exception as exc:  # a crashing check is a failed check, not a crashed run
            self.attempted += 1
            self.fail(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class PassResult:
    seconds: dict[str, float]  # wall time per CLI command, scaled by the reference kernel
    reports: dict[str, str]  # captured stdout per CLI command
    digests: dict[str, str] = field(default_factory=dict)
    raw_wall_s: float = 0.0  # the same commands' seconds before scaling
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())


def _median(values) -> float:
    return float(np.median(list(values)))


# ---------------------------------------------------------------------------
# prep: ingest then index over nearly the whole pool


class Prep:
    name = "prep"
    sizes = {
        "full": {"molecules": 4600, "k": 10, "oracle_rows": 16, "fp_rows": 32, "thread_subset": 400},
        "tiny": {"molecules": 200, "k": 10, "oracle_rows": 4, "fp_rows": 8, "thread_subset": 100},
    }

    def __init__(self, size: str, seed: int):
        self.p = self.sizes[size]
        self.seed = seed
        self.threads = nproc()

    def setup(self, session: Session) -> None:
        rng = np.random.default_rng(self.seed)
        records = inputs.corpus(rng, self.p["molecules"], descriptions=(1, 2), words=(3, 12))
        toydata.write_corpus_jsonl("inputs/corpus.jsonl", records)

    def run_pass(self, session: Session) -> PassResult:
        ingest, ingest_s = session.cli(
            ["ingest", "--corpus", "inputs/corpus.jsonl", "--out", "out/fps.amfp",
             "--radius", "2", "--nbits", "2048"]
        )
        index, index_s = session.cli(
            ["index", "--fingerprints", "out/fps.amfp", "--k", str(self.p["k"]),
             "--out", "out/topk.amix", "--threads", str(self.threads)]
        )
        return PassResult({"ingest": ingest_s, "index": index_s}, {"ingest": ingest, "index": index})

    def items(self) -> int:
        return self.p["molecules"]

    def figures(self, passes: list[PassResult]) -> dict:
        return {
            "ingest_mol_per_s": self.p["molecules"] / _median(r.seconds["ingest"] for r in passes),
            "index_s": _median(r.seconds["index"] for r in passes),
        }

    def check(self, session: Session, last: PassResult) -> None:
        n, k = self.p["molecules"], self.p["k"]
        rng = np.random.default_rng((self.seed, 1))
        records = read_jsonl("inputs/corpus.jsonl")

        def reports():
            ingest = json.loads(last.reports["ingest"])
            session.check(ingest["molecules"] == n and ingest["nbits"] == 2048, f"ingest report {ingest}")
            index = json.loads(last.reports["index"])
            session.check(index["count"] == n and index["k"] == k, f"index report {index}")

        def amfp_round_trip():
            fps = read_fingerprints("out/fps.amfp")
            session.check(len(fps) == n, f".amfp holds {len(fps)} fingerprints, expected {n}")
            write_fingerprints("check/fps.amfp", fps)
            with open("out/fps.amfp", "rb") as a, open("check/fps.amfp", "rb") as b:
                session.check(a.read() == b.read(), ".amfp does not round-trip byte for byte")
            for i in rng.choice(n, size=self.p["fp_rows"], replace=False):
                expected = compute_fingerprint(parse_smiles(records[i]["smiles"]), radius=2, nbits=2048)
                session.check(fps[i] == expected, f".amfp row {i} differs from its SMILES")

        def index_oracle():
            fps = read_fingerprints("out/fps.amfp")
            index = read_index("out/topk.amix")
            session.check(index.n == n and index.k == k, f".amix holds n={index.n} k={index.k}")
            for i in rng.choice(n, size=self.p["oracle_rows"], replace=False):
                sims = [(-tanimoto(fps[i], fps[j]), j) for j in range(n) if j != i]
                expected = [(j, -s) for s, j in sorted(sims)[:k]]
                session.check(index.neighbors[i] == expected, f".amix row {i} disagrees with the oracle")

        def threads_agree():
            subset = records[: self.p["thread_subset"]]
            toydata.write_corpus_jsonl("check/subset.jsonl", subset)
            session.cli(["ingest", "--corpus", "check/subset.jsonl", "--out", "check/subset.amfp"])
            for threads in (1, self.threads):
                session.cli(
                    ["index", "--fingerprints", "check/subset.amfp", "--k", str(k),
                     "--out", f"check/subset-t{threads}.amix", "--threads", str(threads)]
                )
            with open("check/subset-t1.amix", "rb") as a, open(f"check/subset-t{self.threads}.amix", "rb") as b:
                session.check(a.read() == b.read(), f".amix differs between --threads 1 and {self.threads}")

        session.checked("prep reports", reports)
        session.checked("amfp round trip", amfp_round_trip)
        session.checked("index oracle", index_oracle)
        session.checked("threads determinism", threads_agree)


# ---------------------------------------------------------------------------
# train: amole training with a prebuilt index


class Train:
    name = "train"
    sizes = {
        "full": {"molecules": 300, "steps": 20, "checkpoint_interval": 10, "last": 5},
        "tiny": {"molecules": 40, "steps": 4, "checkpoint_interval": 2, "last": 2},
    }
    batch = 16
    k = 10
    alpha = 0.2

    def __init__(self, size: str, seed: int):
        self.p = self.sizes[size]
        self.seed = seed

    def setup(self, session: Session) -> None:
        rng = np.random.default_rng(self.seed)
        # max_len is 64 tokens: [CLS] + "compound" + tag + at most 60 words
        records = inputs.corpus(rng, self.p["molecules"], descriptions=(2, 4), words=(3, 60))
        toydata.write_corpus_jsonl("inputs/corpus.jsonl", records)
        session.cli(["ingest", "--corpus", "inputs/corpus.jsonl", "--out", "inputs/fps.amfp"])
        session.cli(
            ["index", "--fingerprints", "inputs/fps.amfp", "--k", str(self.k),
             "--out", "inputs/topk.amix", "--threads", str(nproc())]
        )
        write_json(
            "inputs/train.json",
            {
                "corpus": "inputs/corpus.jsonl",
                "index": "inputs/topk.amix",
                "checkpoint": "out/model.amck",
                "metrics": "out/metrics.jsonl",
                "mode": "amole",
                "epochs": 1000,
                "max_steps": self.p["steps"],
                "batch_size": self.batch,
                "checkpoint_interval": self.p["checkpoint_interval"],
                # the README's example settings; without clipping, ER can diverge
                "learning_rate": 1e-3,
                "grad_clip": 1.0,
                "lr_schedule": "cosine",
                "loss": {"alpha": self.alpha},
                "seed": int(rng.integers(2**31)),
                "augmentation": {"k": self.k, "p": 0.5, "seed": int(rng.integers(2**31))},
            },
        )

    def run_pass(self, session: Session) -> PassResult:
        report, seconds = session.cli(["train", "--config", "inputs/train.json"])
        return PassResult({"train": seconds}, {"train": report})

    def items(self) -> int:
        return self.p["steps"] * self.batch

    def figures(self, passes: list[PassResult]) -> dict:
        records = read_jsonl("out/metrics.jsonl")
        last = records[-self.p["last"] :]
        return {
            "train_pairs_per_s": self.items() / _median(r.seconds["train"] for r in passes),
            "train_loss_last": sum(r["total"] for r in last) / len(last),
        }

    def check(self, session: Session, last: PassResult) -> None:
        steps = self.p["steps"]

        def metrics_file():
            with open("out/metrics.jsonl", "r", encoding="utf-8") as fh:
                records = [json.loads(line, object_pairs_hook=list) for line in fh]
            session.check(len(records) == steps, f"metrics hold {len(records)} steps, expected {steps}")
            for number, pairs in enumerate(records, start=1):
                session.check([k for k, _ in pairs] == METRIC_KEYS, f"metrics keys {[k for k, _ in pairs]}")
                r = dict(pairs)
                session.check(r["step"] == number, f"metrics step {r['step']} at line {number}")
                session.check(
                    r["total"] == r["s2p_t2m"] + r["s2p_m2t"] + self.alpha * r["er"],
                    f"step {number}: total is not s2p_t2m + s2p_m2t + alpha*er",
                )
                session.check(all(math.isfinite(v) for _, v in pairs), f"step {number}: non-finite value")

        def report():
            rep = json.loads(last.reports["train"])
            final = read_jsonl("out/metrics.jsonl")[-1]
            session.check(rep["steps"] == steps and rep["mode"] == "amole", f"train report {rep}")
            session.check(rep["final"] == final, "train report's final record differs from the metrics file")

        def checkpoint():
            model = load_checkpoint("out/model.amck")
            session.check(model.config == ModelConfig(), "checkpoint config is not the default ModelConfig")

        session.checked("metrics file", metrics_file)
        session.checked("train report", report)
        session.checked("checkpoint", checkpoint)


# ---------------------------------------------------------------------------
# eval: every protocol plus a t-test against a checkpoint made in set-up


class Eval:
    name = "eval"
    sizes = {
        "full": {"items": 1000, "checkpoint_steps": 10, "top_n": 100},
        "tiny": {"items": 40, "checkpoint_steps": 2, "top_n": 10},
    }
    options = 20
    trials = 5
    epochs = 100
    tasks = 2
    prompt = "polar aromatic ring binding the target receptor"

    def __init__(self, size: str, seed: int):
        self.p = self.sizes[size]
        self.seed = seed
        self.eval_seed = int(np.random.default_rng((seed, 2)).integers(2**31))

    def setup(self, session: Session) -> None:
        rng = np.random.default_rng(self.seed)
        records = inputs.corpus(rng, self.p["items"], descriptions=(1, 1), words=(3, 30))
        toydata.write_corpus_jsonl("inputs/corpus.jsonl", records)
        for name, items in inputs.eval_datasets(rng, records).items():
            toydata.write_jsonl(f"inputs/{name}.jsonl", items)
        write_json(
            "inputs/checkpoint.json",
            {"mode": "baseline", "epochs": 1000, "max_steps": self.p["checkpoint_steps"],
             "seed": int(rng.integers(2**31))},
        )
        session.cli(
            ["train", "--config", "inputs/checkpoint.json", "--corpus", "inputs/corpus.jsonl",
             "--checkpoint", "inputs/model.amck"]
        )

    def run_pass(self, session: Session) -> PassResult:
        ck = ["--checkpoint", "inputs/model.amck"]
        seed = ["--seed", str(self.eval_seed)]
        commands = {
            "retrieval_text": ["eval", "retrieval", *ck, "--data", "inputs/retrieval.jsonl",
                               "--direction", "given_text", "--options", str(self.options),
                               "--trials", str(self.trials), *seed, "--out", "out/retrieval_text.json"],
            "retrieval_mol": ["eval", "retrieval", *ck, "--data", "inputs/retrieval.jsonl",
                              "--direction", "given_molecule", "--options", str(self.options),
                              "--trials", str(self.trials), *seed, "--out", "out/retrieval_mol.json"],
            "qa": ["eval", "qa", *ck, "--data", "inputs/qa.jsonl", "--out", "out/qa.json"],
            "screening": ["eval", "screening", *ck, "--data", "inputs/screening.jsonl",
                          "--prompt", self.prompt, "--top-n", str(self.p["top_n"]), "--out", "out/screening.json"],
            "probe": ["eval", "probe", *ck, "--data", "inputs/probe.jsonl", "--epochs", str(self.epochs),
                      *seed, "--out", "out/probe.json"],
            "ttest": ["ttest", "--a", "out/retrieval_text.json", "--b", "out/retrieval_mol.json"],
        }
        seconds, reports = {}, {}
        for name, argv in commands.items():
            reports[name], seconds[name] = session.cli(argv)
        return PassResult(seconds, reports)

    def items(self) -> int:
        # rows scored: two retrieval directions, QA, screening and probe
        return 5 * self.p["items"]

    def figures(self, passes: list[PassResult]) -> dict:
        return {"eval_s": _median(r.wall_s for r in passes)}

    def check(self, session: Session, last: PassResult) -> None:
        n = self.p["items"]

        def parsed(name):
            return json.loads(last.reports[name])

        def retrieval():
            for name, direction in (("retrieval_text", "given_text"), ("retrieval_mol", "given_molecule")):
                rep = parsed(name)
                acc = rep["accuracies"]
                session.check(
                    rep["direction"] == direction and rep["n_options"] == self.options
                    and rep["trials"] == self.trials and len(acc) == self.trials,
                    f"{name} report shape {rep}",
                )
                session.check(all(0.0 <= a <= 100.0 for a in acc), f"{name} accuracies out of range: {acc}")
                session.check(min(acc) <= rep["mean"] <= max(acc) and rep["std"] >= 0.0, f"{name} mean/std {rep}")

        def qa():
            rep = parsed("qa")
            session.check(rep["n_items"] == n and 0 <= rep["correct"] <= n, f"qa report {rep}")
            session.check(rep["accuracy"] == 100.0 * rep["correct"] / n, f"qa accuracy {rep}")

        def screening():
            rep = parsed("screening")
            top_n = self.p["top_n"]
            session.check(rep["top_n"] == top_n and 0 <= rep["hits"] <= top_n, f"screening report {rep}")
            session.check(rep["hit_rate"] == rep["hits"] / top_n, f"screening hit rate {rep}")
            session.check(0.0 <= rep["prevalence"] <= 1.0, f"screening prevalence {rep}")

        def probe():
            rep = parsed("probe")
            aucs = rep["test_aucs"]
            session.check(len(aucs) == self.tasks and all(0.0 <= a <= 1.0 for a in aucs), f"probe aucs {aucs}")
            session.check(0.0 <= rep["mean_auc"] <= 1.0, f"probe mean auc {rep}")
            session.check(all(1 <= e <= self.epochs for e in rep["best_epochs"]), f"probe epochs {rep}")

        def ttest():
            rep = parsed("ttest")
            session.check(rep["df"] == self.trials - 1 and 0.0 <= rep["p_value"] <= 1.0, f"ttest report {rep}")
            session.check(math.isfinite(rep["t"]) and math.isfinite(rep["mean_diff"]), f"ttest values {rep}")

        def out_files():
            for name in ("retrieval_text", "retrieval_mol", "qa", "screening", "probe"):
                with open(f"out/{name}.json", "r", encoding="utf-8") as fh:
                    session.check(fh.read() == last.reports[name], f"out/{name}.json differs from stdout")

        for name, fn in (("retrieval", retrieval), ("qa", qa), ("screening", screening),
                         ("probe", probe), ("ttest", ttest), ("report files", out_files)):
            session.checked(f"eval {name}", fn)


WORKLOADS = {cls.name: cls for cls in (Prep, Train, Eval)}


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
