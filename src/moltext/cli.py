"""Command-line pipeline: ingest, index, train, eval, ttest.

One subcommand per process. Every command reads only its declared inputs,
writes only its declared outputs, and prints a JSON report to stdout. All
randomness comes from --seed (or the config seed); reruns with the same
arguments produce byte-identical reports and files. --threads changes wall
time only, never bytes.

Exit codes: 0 success, 1 validation or usage error, 2 unexpected runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .chem import read_fingerprints, write_atomic, write_fingerprints
from .data import (
    AugmentationConfig,
    load_corpus,
    load_probe_dataset,
    load_qa_dataset,
    load_retrieval_dataset,
    load_screening_dataset,
)
from .encoders import ModelConfig, load_checkpoint
from .evaluation import (
    eval_qa,
    eval_retrieval,
    eval_screening,
    finetune_probe,
    paired_ttest,
)
from .losses import LossConfig
from .simindex import build_topk, read_index, write_index
from .train import MODES, TrainConfig, train

_PATH_KEYS = ("corpus", "index", "checkpoint", "metrics")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@dataclass
class CliConfig:
    """Resolved train invocation: hyperparameters plus file locations."""

    train: TrainConfig
    corpus: str
    index: str | None
    checkpoint: str | None
    metrics: str | None


def _build_dataclass(cls, raw, where: str):
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    return cls(**raw)


def resolve_train_config(config_path: str | None, args) -> CliConfig:
    raw = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
    known = {f.name for f in fields(TrainConfig)} | set(_PATH_KEYS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    kwargs = {k: v for k, v in raw.items() if k not in _PATH_KEYS}
    kwargs["loss"] = _build_dataclass(LossConfig, raw.get("loss", {}), "loss")
    kwargs["augmentation"] = _build_dataclass(
        AugmentationConfig, raw.get("augmentation", {}), "augmentation"
    )
    kwargs["model"] = _build_dataclass(ModelConfig, raw.get("model", {}), "model")
    if args.mode is not None:
        kwargs["mode"] = args.mode
    if args.seed is not None:
        kwargs["seed"] = args.seed
    cfg = TrainConfig(**kwargs)

    paths = {k: raw.get(k) for k in _PATH_KEYS}
    for key in _PATH_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            paths[key] = flag
    if not paths["corpus"]:
        raise ValueError("no corpus given (config key 'corpus' or flag --corpus)")
    return CliConfig(train=cfg, **paths)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ValueError(f"{what} not found: {path}")
    return path


def _require_outdir(path: str, what: str) -> str:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"directory for {what} does not exist: {parent}")
    return path


def _emit(report: dict, out: str | None = None) -> None:
    """Print the report; with `out`, first write it there atomically, so a failed write prints nothing."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        write_atomic(out, text.encode("utf-8"))
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    _require_file(args.corpus, "corpus")
    _require_outdir(args.out, "--out")
    corpus = load_corpus(args.corpus, radius=args.radius, nbits=args.nbits)
    write_fingerprints(args.out, corpus.fingerprints())
    _emit(
        {
            "command": "ingest",
            "molecules": len(corpus),
            "radius": args.radius,
            "nbits": args.nbits,
            "out": args.out,
        }
    )
    return 0


def cmd_index(args) -> int:
    _require_file(args.fingerprints, "fingerprint store")
    _require_outdir(args.out, "--out")
    fingerprints = read_fingerprints(args.fingerprints)
    index = build_topk(fingerprints, k=args.k, threads=args.threads)
    write_index(args.out, index)
    _emit({"command": "index", "count": index.n, "k": args.k, "out": args.out})
    return 0


def cmd_train(args) -> int:
    cli = resolve_train_config(args.config, args)
    _require_file(cli.corpus, "corpus")
    if cli.index is not None:
        _require_file(cli.index, "similarity index")
    if cli.checkpoint is not None:
        _require_outdir(cli.checkpoint, "checkpoint")
    if cli.metrics is not None:
        _require_outdir(cli.metrics, "metrics")

    corpus = load_corpus(cli.corpus, radius=cli.train.fingerprint_radius, nbits=cli.train.fingerprint_nbits)
    index = None
    if cli.index is not None:
        index = read_index(cli.index)
        if index.n != len(corpus.molecules):
            raise ValueError(
                f"{cli.index}: index has {index.n} rows but the corpus has {len(corpus.molecules)} molecules"
            )
    result = train(
        corpus,
        index,
        cli.train,
        metrics_path=cli.metrics,
        checkpoint_path=cli.checkpoint,
    )
    _emit(
        {
            "command": "train",
            "mode": cli.train.mode,
            "steps": result.steps,
            "final": result.metrics[-1],
            "checkpoint": cli.checkpoint,
            "metrics": cli.metrics,
        }
    )
    return 0


def _report(command: str, result, out: str | None, drop=()) -> int:
    """Emit a result dataclass as {"command": ..., **its fields}, less `drop`."""
    report = {"command": command, **vars(result)}
    for key in drop:
        del report[key]
    _emit(report, out)
    return 0


def cmd_eval_retrieval(args) -> int:
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    items = load_retrieval_dataset(_require_file(args.data, "dataset"))
    result = eval_retrieval(
        model, items, direction=args.direction, n_options=args.options, trials=args.trials, seed=args.seed
    )
    return _report("eval-retrieval", result, args.out)


def cmd_eval_qa(args) -> int:
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    items = load_qa_dataset(_require_file(args.data, "dataset"))
    return _report("eval-qa", eval_qa(model, items), args.out)


def cmd_eval_screening(args) -> int:
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    items = load_screening_dataset(_require_file(args.data, "dataset"))
    result = eval_screening(model, items, prompt=args.prompt, top_n=args.top_n)
    return _report("eval-screening", result, args.out, drop=("ranked_ids",))


def cmd_eval_probe(args) -> int:
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    items = load_probe_dataset(_require_file(args.data, "dataset"))
    result = finetune_probe(model, items, epochs=args.epochs, seed=args.seed)
    return _report("eval-probe", result, args.out)


def _load_values(path: str) -> list[float]:
    with open(_require_file(path, "values file"), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "accuracies" in data:
        data = data["accuracies"]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of numbers or a report with 'accuracies'")
    values = []
    for pos, v in enumerate(data):
        # bool is an int subclass, and json reads NaN and Infinity as floats
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{path}: value {pos} is {json.dumps(v)}, not a number")
        try:
            value = float(v)
        except OverflowError:  # an integer too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{path}: value {pos} is {json.dumps(v)}, not a finite number")
        values.append(value)
    return values


def cmd_ttest(args) -> int:
    return _report("ttest", paired_ttest(_load_values(args.a), _load_values(args.b)), None)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moltext", description="Molecule-text embedding pipeline.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse a corpus and write its fingerprint store")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--nbits", type=int, default=2048)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build the exact top-k similarity index")
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored (default 1): the index is built one tile at a time and BLAS "
        "already uses every core; the output bytes never depend on it",
    )
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--index", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--mode", default=None, choices=sorted(MODES))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="run an evaluation protocol on a checkpoint")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True, parser_class=_Parser)

    p = eval_sub.add_parser("retrieval", help="counterpart retrieval among sampled distractors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--direction", default="given_text", choices=("given_text", "given_molecule"))
    p.add_argument("--options", type=int, default=20)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_retrieval)

    p = eval_sub.add_parser("qa", help="five-option multiple choice")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_qa)

    p = eval_sub.add_parser("screening", help="rank a library against a prompt")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--top-n", dest="top_n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_screening)

    p = eval_sub.add_parser("probe", help="logistic heads on frozen embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_probe)

    p = sub.add_parser("ttest", help="one-sided paired t-test over two reports")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_ttest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # anything unexpected is a runtime failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
