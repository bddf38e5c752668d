"""Correctness oracle: reference fingerprints and paper expectations.

Every result the benchmark receives is checked twice: its
classification must equal the registry's Table 2 expectation for the
tool (``get_benchmark(name).expectation(tool)``), and the
``graph_fingerprint`` of its target graph must equal the reference
computed once with the solver's fast paths and decomposition switched
off.  Target graphs do not depend on the run seed, so one fingerprint
per (benchmark, tool) covers every seed a workload draws.

Regenerate ``reference.json`` after a deliberate change to results::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

TOOLS = ("spade", "opus", "camflow")
#: the scale benchmark of the scale-tail workload
SCALE_BENCHMARK = "scale128"
#: seed the reference runs use (any seed gives the same target graphs)
REFERENCE_SEED = 1


def reference_keys() -> Iterable[Tuple[str, str]]:
    from repro.suite.registry import TABLE2_ORDER

    for name in tuple(TABLE2_ORDER) + (SCALE_BENCHMARK,):
        for tool in TOOLS:
            yield name, tool


class Oracle:
    """Checks results against stored fingerprints and expectations."""

    def __init__(self, fingerprints: Dict[str, str]) -> None:
        self.fingerprints = dict(fingerprints)
        self._expected: Dict[Tuple[str, str], Optional[str]] = {}

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Oracle":
        return cls(json.loads(path.read_text())["fingerprints"])

    def expected_classification(self, benchmark: str, tool: str):
        key = (benchmark, tool)
        if key not in self._expected:
            from repro.suite.registry import get_benchmark

            expectation = get_benchmark(benchmark).expectation(tool)
            self._expected[key] = expectation[0] if expectation else None
        return self._expected[key]

    def problem(self, result) -> str:
        """'' when a BenchmarkResult is right, else what is wrong."""
        from repro.graph.stats import graph_fingerprint

        key = f"{result.benchmark}/{result.tool}"
        expected = self.expected_classification(result.benchmark, result.tool)
        if expected is None:
            return f"{key}: no paper expectation to check against"
        if result.classification.value != expected:
            return (
                f"{key}: classified {result.classification.value}, "
                f"paper expects {expected}"
            )
        reference = self.fingerprints.get(key)
        if reference is None:
            return f"{key}: no reference fingerprint"
        if graph_fingerprint(result.target_graph) != reference:
            return f"{key}: target graph differs from the reference"
        return ""


def compute_reference() -> Dict[str, str]:
    """Fingerprints from the unoptimised, undecomposed solver."""
    from repro.api import BenchmarkService, RunRequest
    from repro.graph.stats import graph_fingerprint
    from repro.solver.native import solver_decomposition, solver_optimizations

    service = BenchmarkService()
    fingerprints: Dict[str, str] = {}
    try:
        with solver_optimizations(False), solver_decomposition(False):
            for name, tool in reference_keys():
                result = service.run(RunRequest(
                    benchmark=name, tool=tool, seed=REFERENCE_SEED,
                )).result
                fingerprints[f"{name}/{tool}"] = graph_fingerprint(
                    result.target_graph
                )
    finally:
        service.close()
    return fingerprints


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    fingerprints = compute_reference()
    REFERENCE_PATH.write_text(json.dumps({
        "solver": {"optimizations": False, "decomposition": False},
        "seed": REFERENCE_SEED,
        "fingerprints": fingerprints,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fingerprints)} fingerprints to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
