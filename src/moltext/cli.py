"""Command-line pipeline: ingest, index, train, eval, ttest.

One subcommand per process. Every command reads only its declared inputs,
checks its output paths before any work, writes only its declared outputs,
and returns a JSON report; `main` is the one place reports are printed and
written. All randomness comes from --seed (or the config seed); reruns with
the same arguments produce byte-identical reports and files. `index
--threads` is checked and otherwise changes nothing.

Exit codes: 0 success, 1 validation or usage error or a numeric overflow (a
NaN or an infinity from finite inputs, such as a huge learning rate or huge
checkpoint weights), 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from .chem import compute_fingerprints, read_packed_fingerprints, write_atomic, write_fingerprints
from .chem import read_fingerprints  # noqa: F401  perfbench wraps this name here
from .data import (
    fingerprint_corpus,
    load_corpus,
    load_probe_dataset,
    load_qa_dataset,
    load_retrieval_dataset,
    load_screening_dataset,
)
from .encoders import has_word, load_checkpoint
from .evaluation import (
    eval_qa,
    eval_retrieval,
    eval_screening,
    finetune_probe,
    paired_ttest,
)
from .simindex import AMIX_MAX_K, build_topk, read_index, write_index
from .train import MODES, IndexMismatchError, TrainConfig, train

_PATH_KEYS = ("corpus", "index", "checkpoint", "metrics")
# `eval retrieval` runs one pass per trial and `eval probe` one per epoch; larger values run for hours
MAX_TRIALS = 1_000
MAX_PROBE_EPOCHS = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_dataclass(cls, raw):
    """cls(**raw), each field whose default is a dataclass built from its own object; its errors name it."""
    if not isinstance(raw, dict):
        raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:  # named first, like the key of any other config error
        raise ValueError(f"{', '.join(unknown)}: unknown {'key' if len(unknown) == 1 else 'keys'}")
    kwargs = dict(raw)
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            try:
                kwargs[f.name] = _build_dataclass(f.default_factory, raw.get(f.name, {}))
            except ValueError as exc:
                raise ValueError(f"{f.name}: {exc}") from None
    return cls(**kwargs)


def resolve_train_config(config_path: str | None, args) -> tuple[TrainConfig, dict]:
    """The TrainConfig and the four paths of a train invocation: the config file, then its flags."""
    flags = {key: getattr(args, key) for key in ("mode", "seed") if getattr(args, key) is not None}
    TrainConfig(**flags)  # each flag value is checked alone first, so its error names no file
    raw = {}
    try:
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        paths = {key: raw.pop(key, None) for key in _PATH_KEYS}
        for key, path in paths.items():
            if path is not None and not isinstance(path, str):
                raise ValueError(f"{key} must be a path string or null, got {path!r}")
        raw.update(flags)
        cfg = _build_dataclass(TrainConfig, raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        if config_path:
            raise ValueError(f"{config_path}: {exc}") from None
        raise
    for key in _PATH_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            paths[key] = flag
    if not paths["corpus"]:
        raise ValueError("no corpus given (config key 'corpus' or flag --corpus)")
    return cfg, paths


def _prompt(text: str) -> str:
    """The --prompt value, refused when the tokenizer finds no word in it."""
    if not has_word(text):
        raise argparse.ArgumentTypeError(f"{text!r} holds no words")
    return text


def _int_within(low: float = -math.inf, high: float = math.inf):
    """An argparse type: an int, refused below `low` or above `high` before anything runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum of {low}")
        if value > high:
            raise argparse.ArgumentTypeError(f"{value} is above the limit of {high}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _nbits(text: str) -> int:
    """The --nbits type: an int that compute_fingerprints takes as a width, refused before anything runs."""
    value = int(text)
    try:
        compute_fingerprints([], nbits=value)  # an empty batch only checks its parameters
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_nbits.__name__ = "int"  # as _int_within's parse


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ValueError(f"{what} not found: {path}")
    return path


def _require_outdir(path: str, what: str, others: dict) -> None:
    """Refuse an output path that is empty, in a missing directory, a directory, or the same file as an `others` one."""
    if not path:
        raise ValueError(f"{what} is an empty path")
    if os.path.isdir(path):
        raise ValueError(f"{what} is a directory: {path}")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"directory for {what} does not exist: {parent}")
    for other, other_path in others.items():
        if other_path is not None and os.path.realpath(other_path) == os.path.realpath(path):
            raise ValueError(f"{what} names the same file as {other}: {path}")


# ---------------------------------------------------------------------------
# Subcommands: each returns its report; main names the command and prints it


def cmd_ingest(args) -> dict:
    _require_file(args.corpus, "corpus")
    _require_outdir(args.out, "--out", {"--corpus": args.corpus})
    # streamed: the corpus's graphs and descriptions are never all held at once
    stores = fingerprint_corpus(args.corpus, radius=args.radius, nbits=args.nbits)
    write_fingerprints(args.out, *stores)
    return {"molecules": sum(map(len, stores)), "radius": args.radius, "nbits": args.nbits, "out": args.out}


def cmd_index(args) -> dict:
    _require_file(args.fingerprints, "fingerprint store")
    _require_outdir(args.out, "--out", {"--fingerprints": args.fingerprints})
    index = build_topk(read_packed_fingerprints(args.fingerprints), k=args.k, threads=args.threads)
    write_index(args.out, index)
    return {"count": index.n, "k": args.k, "out": args.out}


def cmd_train(args) -> dict:
    cfg, paths = resolve_train_config(args.config, args)
    _require_file(paths["corpus"], "corpus")
    if paths["index"] is not None:
        _require_file(paths["index"], "similarity index")
    for key in ("checkpoint", "metrics"):
        if paths[key] is not None:
            others = {other: path for other, path in paths.items() if other != key}
            _require_outdir(paths[key], key, {"--config": args.config, **others})

    corpus = load_corpus(paths["corpus"], radius=cfg.fingerprint_radius, nbits=cfg.fingerprint_nbits)
    index = None if paths["index"] is None else read_index(paths["index"])
    try:
        result = train(corpus, index, cfg, metrics_path=paths["metrics"], checkpoint_path=paths["checkpoint"])
    except IndexMismatchError as exc:
        raise ValueError(f"{paths['index']}: {exc}") from None
    return {
        "mode": cfg.mode,
        "steps": result.steps,
        "final": result.metrics[-1],
        "checkpoint": paths["checkpoint"],
        "metrics": paths["metrics"],
    }


def cmd_eval(args) -> dict:
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.data, "dataset")
    if args.out is not None:
        _require_outdir(args.out, "--out", {"--checkpoint": args.checkpoint, "--data": args.data})
    model = load_checkpoint(args.checkpoint)
    result = args.run(model, args.load(args.data), **{key: getattr(args, key) for key in args.params})
    return vars(result)


def _load_values(path: str) -> list[float]:
    with open(_require_file(path, "values file"), "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ValueError(f"{path}: {exc}") from exc
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


def cmd_ttest(args) -> dict:
    a, b = _load_values(args.a), _load_values(args.b)
    try:
        result = paired_ttest(a, b)
    except ValueError as exc:
        raise ValueError(f"{args.a} vs {args.b}: {exc}") from exc
    return vars(result)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moltext", description="Molecule-text embedding pipeline.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse a corpus and write its fingerprint store")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=_int_within(low=0, high=4), default=2)
    p.add_argument("--nbits", type=_nbits, default=2048)
    p.set_defaults(func=cmd_ingest, name="ingest")

    p = sub.add_parser("index", help="build the exact top-k similarity index")
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--k", type=_int_within(low=1, high=AMIX_MAX_K), required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--threads",
        type=_int_within(low=1),
        default=1,
        help="accepted and ignored (default 1): the index is built one tile at a time and BLAS "
        "already uses every core; the output bytes never depend on it",
    )
    p.set_defaults(func=cmd_index, name="index")

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--index", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--mode", default=None, choices=sorted(MODES))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train, name="train")

    p_eval = sub.add_parser("eval", help="run an evaluation protocol on a checkpoint")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True, parser_class=_Parser)

    # protocol: help, its own options (each dest is the runner's keyword), dataset loader, runner; the
    # report is the runner's result. Built on each call, so the loaders and runners are looked up when
    # main runs (perfbench's --trace wraps these module names while its passes run).
    seed = ("--seed", {"type": _int_within(low=0), "default": 0})  # numpy draws from non-negative seeds only
    protocols = {
        "retrieval": (
            "counterpart retrieval among sampled distractors",
            [("--direction", {"default": "given_text", "choices": ("given_text", "given_molecule")}),
             ("--options", {"dest": "n_options", "metavar": "OPTIONS", "type": _int_within(low=2), "default": 20}),
             ("--trials", {"type": _int_within(low=1, high=MAX_TRIALS), "default": 1}), seed],
            load_retrieval_dataset, eval_retrieval,
        ),
        "qa": ("five-option multiple choice", [], load_qa_dataset, eval_qa),
        "screening": (
            "rank a library against a prompt",
            [("--prompt", {"required": True, "type": _prompt}),
             ("--top-n", {"type": _int_within(low=1), "required": True})],
            load_screening_dataset, eval_screening,
        ),
        "probe": (
            "logistic heads on frozen embeddings",
            [("--epochs", {"type": _int_within(low=1, high=MAX_PROBE_EPOCHS), "default": 100}), seed],
            load_probe_dataset, finetune_probe,
        ),
    }
    for name, (help_text, options, load, run) in protocols.items():
        p = eval_sub.add_parser(name, help=help_text)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        params = [p.add_argument(flag, **kwargs).dest for flag, kwargs in options]
        p.add_argument("--out")
        p.set_defaults(func=cmd_eval, name=f"eval-{name}", load=load, run=run, params=params)

    p = sub.add_parser("ttest", help="one-sided paired t-test over two reports")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_ttest, name="ttest")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):  # no overflow or NaN reaches a report or the metrics file
            report = args.func(args)
        text = json.dumps({"command": args.name, **report}, sort_keys=True, indent=2) + "\n"
        if args.func is cmd_eval and args.out is not None:  # written first, so a failed write prints nothing
            write_atomic(args.out, text.encode("utf-8"))
        sys.stdout.write(text)
        return 0
    except FloatingPointError as exc:
        hint = ""
        if args.func is cmd_train:
            # clipping cannot help: the clip norm squares the gradient, and Adam's step scales with the rate
            hint = "; lower learning_rate or loss.alpha, or raise loss.tau or loss.tau2"
        elif args.func is cmd_eval:
            hint = f"; checkpoint {args.checkpoint} holds weights too large to evaluate"
        sys.stderr.write(f"error: {args.name}: {exc}{hint}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # anything unexpected is a runtime failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
