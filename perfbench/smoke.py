"""Smoke tests for the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/smoke.py

Each workload runs at its tiny size, untraced and traced; a corrupted
reference fingerprint must surface as a failed, incorrect run; the
compare verdicts follow their rules; and the entry point refuses to
run without the sources it measures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from oracle import Oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _listed(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_reports_every_metric(tmp_path, workload, trace):
    record = run.run_workload(
        workload, seed=7, seconds=0.5, trace=bool(trace), out_dir=tmp_path,
        tiny=True,
    )
    assert record["failed"] == 0, record["problems"]
    assert record["correct"]
    assert record["attempted"] >= 2
    line = json.loads(run.result_line(record, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = _listed("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    assert (tmp_path / "spans").exists() == bool(trace)


def test_corrupted_fingerprint_is_reported_as_a_failure(tmp_path):
    good = Oracle.load()
    corrupted = Oracle({
        key: ("0" * 64 if key.endswith("/spade") else value)
        for key, value in good.fingerprints.items()
    })
    record = run.run_workload(
        "table2-sweep", seed=7, seconds=0.5, trace=False, out_dir=tmp_path,
        tiny=True, oracle=corrupted,
    )
    assert record["failed"] >= 1
    assert not record["correct"]
    assert record["metrics"]["failed_ratio"]["value"] > 0
    assert any("differs from the reference" in p for p in record["problems"])
    assert json.loads(run.result_line(record, SPEC))["correct"] is False


def _values(fn):
    return [(s, fn(s)) for s in range(10)]


def test_compare_verdicts():
    base = _values(lambda s: 100.0 + s % 3)
    faster = _values(lambda s: 80.0 + s % 3)
    slower = _values(lambda s: 130.0 + s % 3)
    noisy = _values(lambda s: 71.0 + (s % 2) * 60)
    assert compare.verdict(base, faster, "lower", 0.1) == "improved"
    assert compare.verdict(base, slower, "lower", 0.1) == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1) == "unchanged"
    assert compare.verdict(base, noisy, "lower", 0.25) == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1) == "worse"


def test_compare_counts_failures_in_a_minority_of_runs():
    base = [compare.Run(s, {"failed_ratio": 0.0}, 100, 0) for s in range(10)]
    change = [
        compare.Run(s, {"failed_ratio": 0.01 if s < 4 else 0.0}, 100,
                    1 if s < 4 else 0)
        for s in range(10)
    ]
    # the per-run median is still 0, the pooled ratio is not
    assert compare.failure_verdict(base, change) == "worse"
    assert compare.failure_verdict(change, base) == "improved"
    assert compare.failure_verdict(base, list(base)) == "unchanged"
    line = [
        row for row in compare.compare({"w": base}, {"w": change})
        if "failed_ratio" in row
    ]
    assert line and "worse" in line[0]


def test_compare_keeps_repeated_seeds(tmp_path):
    for n, value in enumerate((10.0, 12.0)):
        (tmp_path / f"w-seed1-trace0-{n}.json").write_text(json.dumps({
            "workload": "w", "seed": 1, "trace": 0, "attempted": 5,
            "failed": 0,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        }))
    runs = compare.load_runs(tmp_path)
    assert [r.metrics["ops_per_s"] for r in runs["w"]] == [10.0, 12.0]
    line = compare.compare(runs, runs)[1]
    assert "n=2/2, pairs=2" in line


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-tail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
