"""Run one ProvMark benchmark workload, or all of them.

    python3 perfbench/run.py --workload table2-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  Every operation's result is checked
against ``reference.json`` and the paper's Table 2 expectations.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it print every metric the workload
supports, by name with its unit.  A stamped record of the run (and, when
traced, its spans) is written under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: bump when a change to the harness makes records incomparable
HARNESS_VERSION = 1
SCHEMA_VERSION = 1
WORKLOAD_NAMES = (
    "table2-sweep", "scale-tail", "fleet-backlog", "interactive-http",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(ROOT / ".perfbench" / "results"),
        help="directory for the stamped run records and span files",
    )
    return parser.parse_args(argv)


def benchmark_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a child process would count towards ``peak_rss_mb``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    tiny: bool = False,
    oracle=None,
) -> Dict[str, object]:
    """Set up, measure and tear down one workload; returns its record."""
    from metrics import (
        END_TO_END, PER_LAYER, end_to_end, layer_metrics, trace_overhead_pct,
    )
    from oracle import Oracle
    from tracing import Tracer
    from workloads import WORKLOADS, cleanup

    oracle = oracle if oracle is not None else Oracle.load()
    workdir = ROOT / ".perfbench" / "tmp" / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, oracle, workdir, tiny=tiny)
    tracer = Tracer(enabled=False)
    samples = []
    cpus = os.sched_getaffinity(0)
    try:
        workload.prepare()
        if trace:
            samples.append(workload.measure(seconds / 2, Tracer(False)))
            # the traced half runs on a restarted, instrumented system
            tracer = Tracer(enabled=True)
            workload.stop()
            workload.start(tracer)
        samples.append(workload.measure(
            seconds / 2 if trace else seconds, tracer
        ))
    finally:
        tracer.close()
        workload.stop()
        cleanup(workdir)
        os.sched_setaffinity(0, cpus)

    measured = samples[-1]
    if trace:
        values = layer_metrics(measured, tracer)
        values["trace.overhead_pct"] = trace_overhead_pct(samples[0], measured)
        units = PER_LAYER
    else:
        values = end_to_end(measured, workload.setup)
        units = {key: unit for key, (unit, _) in END_TO_END.items()}
    every = [workload.warm] + samples
    attempted = sum(s.attempted for s in every)
    failed = sum(s.failed for s in every)
    record = {
        "schema": SCHEMA_VERSION,
        "harness": HARNESS_VERSION,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "finished_at": time.time(),
        "samples": dict(measured.counts(), setup=len(workload.setup)),
        "fill_s": workload.fill_s,
        "windows_ops_per_s": measured.windows,
        "correct": sum(s.wrong for s in every) == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for s in every for p in s.problems][:20],
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in values.items()
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    if trace:
        tracer.write(out_dir / "spans" / f"{stem}.jsonl")
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return record


def result_line(record: Dict[str, object], spec: Dict[str, object]) -> str:
    """The last stdout line: only the metrics BENCHMARK.json names."""
    listed = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = record["metrics"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: metrics[m["name"]]
            for m in listed if m["name"] in metrics
        },
    })


def print_record(record: Dict[str, object]) -> None:
    name = record["workload"]
    print(
        f"# {name}: seed {record['seed']}, {record['seconds']:g}s, "
        f"trace {record['trace']}, fill {record['fill_s']:.2f}s, "
        f"samples {record['samples']}, "
        f"attempted {record['attempted']}, failed {record['failed']}"
    )
    for problem in record["problems"]:
        print(f"# {name}: FAILED {problem}")
    for key, metric in sorted(record["metrics"].items()):
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (peak memory is per process)."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", args.out,
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            status = done.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(
            f"perfbench: no ProvMark sources at {SRC}; run from the "
            "repository root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    spec = benchmark_spec()
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        Path(args.out),
    )
    print_record(record)
    print(result_line(record, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
