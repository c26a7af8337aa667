"""Spans around every moltext layer, recorded from outside the package.

While a `Recorder` is installed, each public moltext function is replaced at
the name its caller looks it up by (``moltext.data.parse_smiles``,
``moltext.cli.read_index``, ``moltext.train.Adam.step``, ...) with a wrapper
that records a span: name, start, end and the span that was open when it
started. Spans stay in memory and are written once, when the run ends.
Counts that need the call's arguments or result (pairs compared, substituted
items, padding, tape size) are recorded by the same wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

import moltext.cli
import moltext.data
import moltext.encoders
import moltext.evaluation
import moltext.tensor
import moltext.train


class Recorder:
    """In-memory span list for one process; spans nest through a stack."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []  # -1 for a root span
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0)
            self._open.append(idx)
            self.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter_ns()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, busy ns and self ns (busy minus direct children)."""
        children = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            busy = self.ends[idx] - self.starts[idx]
            entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["busy_ns"] += busy
            entry["self_ns"] += busy - children[idx]
        return out

    def write(self, path: str) -> None:
        names = sorted(set(self.names))
        code = {name: i for i, name in enumerate(names)}
        spans = [
            [code[n], p, s, e]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["name", "parent", "start_ns", "end_ns"],
                    "names": names,
                    "spans": spans,
                    "counts": dict(self.counts),
                    "summary": self.summary(),
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Counts taken at the layer boundaries


def _count_pairs(counts, args, result):
    counts["simindex.pairs"] += len(args[0]) ** 2


def _count_substituted(counts, args, batch):
    counts["data.items"] += len(batch.items)
    counts["data.substituted"] += sum(item.substituted for item in batch.items)


def _count_padding(counts, args, result):
    lengths = [len(ids) for ids in args[1]]
    longest = max(lengths)
    counts["encoders.text_slots"] += longest * len(lengths)
    counts["encoders.text_pad"] += sum(longest - n for n in lengths)


def _count_tape(counts, args, result):
    counts["tensor.tape_records"] += len(args[0])


def _targets():
    """(owner, attribute, span name, count hook) for every wrapped call site."""
    cli, data, tr = moltext.cli, moltext.data, moltext.train
    model = moltext.encoders.MolTextModel
    ev = moltext.evaluation
    return [
        (cli, "main", "cli", None),
        (data, "parse_smiles", "chem.parse", None),
        (data, "compute_fingerprint", "chem.fingerprint", None),
        (cli, "write_fingerprints", "chem.amfp_write", None),
        (cli, "read_fingerprints", "chem.amfp_read", None),
        (cli, "build_topk", "simindex.build_topk", _count_pairs),
        (cli, "write_index", "simindex.amix_write", None),
        (cli, "read_index", "simindex.amix_read", None),
        (tr, "batch_tanimoto", "simindex.batch_tanimoto", None),
        (cli, "load_corpus", "data.load_corpus", None),
        (cli, "load_retrieval_dataset", "data.load_dataset", None),
        (cli, "load_qa_dataset", "data.load_dataset", None),
        (cli, "load_screening_dataset", "data.load_dataset", None),
        (cli, "load_probe_dataset", "data.load_dataset", None),
        (tr, "sample_training_batch", "data.sample_training_batch", _count_substituted),
        (tr, "sample_er_batch", "data.sample_er_batch", None),
        (model, "embed_molecules", "encoders.embed_molecules", None),
        (model, "embed_texts", "encoders.embed_texts", _count_padding),
        (model, "embed_molecule", "encoders.embed_molecule", None),
        (model, "embed_text", "encoders.embed_text", None),
        (tr, "save_checkpoint", "encoders.save_checkpoint", None),
        (cli, "load_checkpoint", "encoders.load_checkpoint", None),
        (tr, "s2p_loss", "losses.s2p", None),
        (tr, "er_loss", "losses.er", None),
        (moltext.tensor.Tape, "backward", "tensor.backward", _count_tape),
        (tr.Adam, "step", "train.adam_step", None),
        (cli, "train", "train.train", None),
        (cli, "eval_retrieval", "evaluation.retrieval", None),
        (cli, "eval_qa", "evaluation.qa", None),
        (cli, "eval_screening", "evaluation.screening", None),
        (cli, "finetune_probe", "evaluation.probe", None),
        (cli, "paired_ttest", "evaluation.ttest", None),
        (ev, "embed_molecule_matrix", "evaluation.embed_molecule_matrix", None),
        (ev, "embed_text_matrix", "evaluation.embed_text_matrix", None),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every target with a recording wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, span, ns per unit) for mean busy time per call

_PER_CALL = [
    ("chem.parse_us", "us", "chem.parse", 1e3),
    ("chem.fingerprint_us", "us", "chem.fingerprint", 1e3),
    ("chem.amfp_write_ms", "ms", "chem.amfp_write", 1e6),
    ("chem.amfp_read_ms", "ms", "chem.amfp_read", 1e6),
    ("simindex.build_topk_s", "s", "simindex.build_topk", 1e9),
    ("simindex.amix_write_ms", "ms", "simindex.amix_write", 1e6),
    ("simindex.amix_read_ms", "ms", "simindex.amix_read", 1e6),
    ("simindex.batch_tanimoto_us", "us", "simindex.batch_tanimoto", 1e3),
    ("data.load_corpus_s", "s", "data.load_corpus", 1e9),
    ("data.load_dataset_ms", "ms", "data.load_dataset", 1e6),
    ("data.sample_training_batch_us", "us", "data.sample_training_batch", 1e3),
    ("data.sample_er_batch_us", "us", "data.sample_er_batch", 1e3),
    ("encoders.embed_molecules_ms", "ms", "encoders.embed_molecules", 1e6),
    ("encoders.embed_texts_ms", "ms", "encoders.embed_texts", 1e6),
    ("encoders.save_checkpoint_ms", "ms", "encoders.save_checkpoint", 1e6),
    ("encoders.embed_molecule_us", "us", "encoders.embed_molecule", 1e3),
    ("encoders.embed_text_us", "us", "encoders.embed_text", 1e3),
    ("encoders.load_checkpoint_ms", "ms", "encoders.load_checkpoint", 1e6),
    ("losses.s2p_ms", "ms", "losses.s2p", 1e6),
    ("losses.er_ms", "ms", "losses.er", 1e6),
    ("tensor.backward_ms", "ms", "tensor.backward", 1e6),
    ("train.adam_step_ms", "ms", "train.adam_step", 1e6),
    ("evaluation.retrieval_s", "s", "evaluation.retrieval", 1e9),
    ("evaluation.qa_s", "s", "evaluation.qa", 1e9),
    ("evaluation.screening_s", "s", "evaluation.screening", 1e9),
    ("evaluation.probe_s", "s", "evaluation.probe", 1e9),
    ("evaluation.embed_molecule_matrix_ms", "ms", "evaluation.embed_molecule_matrix", 1e6),
    ("evaluation.embed_text_matrix_ms", "ms", "evaluation.embed_text_matrix", 1e6),
]


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reads 0
    return num / den if den else 0.0


def layer_metrics(
    recorder: Recorder, untraced_s: list[float], traced_s: list[float], time_scale: float
) -> dict:
    """Every per-layer metric, from the spans of the traced passes.

    `untraced_s` and `traced_s` are the wall times of the alternating untraced
    and traced passes of the same run; their medians give the overhead. Span
    times are multiplied by `time_scale`, the traced passes' reference scale.
    """
    summary = recorder.summary()
    counts = recorder.counts

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    metrics = {}
    for name, unit, span, scale in _PER_CALL:
        entry = summary.get(span, {"calls": 0, "busy_ns": 0})
        metrics[name] = (_ratio(entry["busy_ns"], entry["calls"]) * time_scale / scale, unit)
    metrics["simindex.pairs_compared"] = (
        _ratio(counts["simindex.pairs"], calls("simindex.build_topk")),
        "count",
    )
    metrics["data.substituted_share"] = (
        _ratio(counts["data.substituted"], counts["data.items"]),
        "share",
    )
    metrics["encoders.text_pad_share"] = (
        _ratio(counts["encoders.text_pad"], counts["encoders.text_slots"]),
        "share",
    )
    metrics["tensor.tape_records_per_step"] = (
        _ratio(counts["tensor.tape_records"], calls("tensor.backward")),
        "count",
    )
    metrics["train.steps"] = (_ratio(calls("train.adam_step"), calls("train.train")), "count")
    cli = summary.get("cli", {"calls": 0, "self_ns": 0})
    metrics["cli.self_ms"] = (_ratio(cli["self_ns"], cli["calls"]) * time_scale / 1e6, "ms")
    overhead = 100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
