"""Benchmark of the moltext pipeline, driven through its command line in-process.

    python3 perfbench/run.py --workload prep|train|eval --seed N --seconds S --trace 0|1

Run it from the repository root. It imports ``moltext`` from ``src/``, makes
the workload's inputs from the seed, sets them up several times, then repeats
the workload's CLI commands until ``--seconds`` have passed. The outputs are
checked afterwards, outside the timed region. Every reported time is scaled
by the reference kernel in ``reference.py``, sampled around each set-up and
each command.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate and the last line holds the
per-layer metrics; the spans go to ``trace.json`` in the run directory. The
line before the last holds provenance, per-workload figures, artifact digests
and any failed check. See README.md beside this file for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# every run compiles the package from source, so import time does not depend
# on whether an earlier run left bytecode behind
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("prep", "train", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test only")
    parser.add_argument("--workdir", default=str(ROOT / "perfbench" / "_runs"),
                        help="where run directories go (default: perfbench/_runs)")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "moltext" / "__init__.py").is_file():
        sys.stderr.write(f"error: no moltext sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = perf_counter()
    import numpy as np

    import reference
    import tracing
    import workloads

    import_s = perf_counter() - started
    meter = reference.Meter()

    run_dir = Path(args.workdir) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)

    workload = workloads.WORKLOADS[args.workload](args.size, args.seed % 2**63)
    session = workloads.Session()

    setup_raw, setup_scaled, input_digests = [], [], []
    for _ in range(SETUP_REPEATS):
        workloads.reset_dir("inputs")
        raw, scaled = meter.time(lambda: workload.setup(session))
        setup_raw.append(raw)
        setup_scaled.append(scaled)
        input_digests.append(workloads.file_digests("inputs"))
    session.check(
        all(d == input_digests[0] for d in input_digests),
        "set-up repeats produced different inputs",
    )

    recorder = tracing.Recorder()
    passes = []
    workloads.reset_dir("out")
    session.meter = meter
    start = perf_counter()
    while True:
        trace_this = args.trace == 1 and len(passes) % 2 == 1
        session.raw_s = 0.0
        with tracing.installed(recorder) if trace_this else nullcontext():
            result = workload.run_pass(session)
        result.raw_wall_s = session.raw_s
        result.traced = trace_this
        result.digests = workloads.file_digests("out")
        result.digests.update(
            {f"stdout:{name}": workloads.sha256(text.encode()) for name, text in result.reports.items()}
        )
        passes.append(result)
        # stop before a pass that would end past --seconds; trace runs need one of each kind
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds and len(passes) >= 1 + args.trace:
            break
    session.meter = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    session.check(
        all(p.digests == passes[0].digests for p in passes),
        "passes produced different outputs",
    )
    workloads.reset_dir("check")
    workload.check(session, passes[-1])

    untraced = [p for p in passes if not p.traced]
    with_trace = [p for p in passes if p.traced]
    if args.trace:
        metrics = tracing.layer_metrics(
            recorder,
            [p.wall_s for p in untraced],
            [p.wall_s for p in with_trace],
            sum(p.wall_s for p in with_trace) / sum(p.raw_wall_s for p in with_trace),
        )
        recorder.write("trace.json")
    else:
        import_scaled = import_s * reference.REF_S / meter.samples[0]
        metrics = {
            "setup_s": {"value": import_scaled + statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "items_per_s": {
                "value": workload.items() / statistics.median(p.wall_s for p in passes),
                "unit": "1/s",
            },
        }
    raw = {
        "setup_s": import_s + statistics.median(setup_raw),
        "items_per_s": workload.items() / statistics.median(p.raw_wall_s for p in untraced),
    }

    figures = {}
    session.checked("figures", lambda: figures.update(workload.figures(untraced)))
    correct = session.failed == 0
    detail = {
        "provenance": provenance(np, args),
        "raw": raw,
        "import_s": import_s,
        "setup_repeats_s": setup_raw,
        "passes": [
            {"traced": p.traced, "seconds": p.seconds, "raw_wall_s": p.raw_wall_s} for p in passes
        ],
        "reference": {"ref_s": reference.REF_S, "kernel_s": meter.samples},
        "figures": figures,
        "ops_failed_ratio": session.failed / session.attempted,
        "digests": {"inputs": input_digests[0], "outputs": passes[0].digests},
        "problems": session.problems,
    }
    with open("report.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    for name in ("inputs", "out", "check"):
        shutil.rmtree(name, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
