"""Compare two result sets of ``run.py`` records.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` records that ``run.py --out DIR``
wrote (untraced runs only are compared).  For every workload and
end-to-end metric this prints each side's median and quartiles and a
verdict:

* ``improved`` — the change wins at least nine tenths of the paired
  runs (paired by seed, repeats of a seed in the order they ran; in
  seed order when the sets share no seeds; ties count for neither
  side), and the medians differ by more than the base's own spread (the
  distance between its quartiles); or the spread is wider than the
  bound but every change run beats every base run;
* ``worse`` — the change's median is worse than the base's by more than
  the metric's bound;
* ``unresolved`` — either side's spread, as a share of its median, is
  wider than the bound, or the change is better by more than the bound
  without meeting the pair rule;
* ``unchanged`` — otherwise.

``failed_ratio`` is judged on failed over attempted operations pooled
across each set, so a failure in a minority of runs still counts: any
rise is ``worse``.

Bounds come from ``BENCHMARK.json``; metrics it does not gate use
:data:`DEFAULT_BOUND`.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END  # noqa: E402

#: bound for end-to-end metrics BENCHMARK.json does not list
DEFAULT_BOUND = 0.1


class Run(NamedTuple):
    seed: int
    metrics: Dict[str, float]
    attempted: int
    failed: int


#: workload -> every untraced run (a seed may appear more than once)
Runs = Dict[str, List[Run]]
#: (seed, value) of one metric in every run of a side
Values = List[Tuple[int, float]]


def load_runs(directory: Path) -> Runs:
    """Untraced records, in file-name order: by seed, then by time."""
    runs: Runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        runs[record["workload"]].append(Run(
            int(record["seed"]),
            {
                name: float(metric["value"])
                for name, metric in record["metrics"].items()
            },
            int(record["attempted"]),
            int(record["failed"]),
        ))
    return runs


def bounds() -> Dict[str, float]:
    spec_path = HERE.parent / "BENCHMARK.json"
    listed = {}
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        listed = {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
    return {name: listed.get(name, DEFAULT_BOUND) for name in END_TO_END}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: Values, change: Values) -> List[Tuple[float, float]]:
    """Runs of the same seed, the n-th repeat with the n-th; with no
    shared seed, the sides in seed order."""
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for seed, value in change:
        by_seed[seed].append(value)
    common = {seed for seed, _ in base} & set(by_seed)
    if not common:
        return list(zip(
            [v for _, v in sorted(base)], [v for _, v in sorted(change)]
        ))
    paired: List[Tuple[float, float]] = []
    for seed in sorted(common):
        mine = [v for s, v in base if s == seed]
        paired.extend(zip(mine, by_seed[seed]))
    return paired


def verdict(base: Values, change: Values, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base_values = [v for _, v in base]
    change_values = [v for _, v in change]
    b1, b_med, b3 = quartiles(base_values)
    c1, c_med, c3 = quartiles(change_values)
    paired = pairs(base, change)
    wins = sum(1 for a, b in paired if sign * (b - a) > 0)
    gain = sign * (c_med - b_med)
    if wins >= 0.9 * len(paired) and gain > (b3 - b1):
        return "improved"
    if gain < -bound * abs(b_med):
        return "worse"
    spread = max(
        (b3 - b1) / abs(b_med) if b_med else 0.0,
        (c3 - c1) / abs(c_med) if c_med else 0.0,
    )
    if spread > bound:
        if min(sign * v for v in change_values) > max(
            sign * v for v in base_values
        ):
            return "improved"
        return "unresolved"
    if gain > bound * abs(b_med):
        return "unresolved"  # better, but the pair rule does not hold
    return "unchanged"


def pooled_failures(runs: List[Run]) -> float:
    attempted = sum(run.attempted for run in runs)
    return sum(run.failed for run in runs) / attempted if attempted else 0.0


def failure_verdict(base: List[Run], change: List[Run]) -> str:
    """Failures have no noise to allow for: any rise is worse."""
    a, b = pooled_failures(base), pooled_failures(change)
    if b > a:
        return "worse"
    return "improved" if b < a else "unchanged"


def compare(base: Runs, change: Runs) -> List[str]:
    lines = []
    limits = bounds()
    header = (
        f"{'workload':<18} {'metric':<24} {'unit':<6} "
        f"{'base q1/med/q3':>30} {'change q1/med/q3':>30}  verdict"
    )
    lines.append(header)
    for workload in sorted(set(base) | set(change)):
        ours, theirs = base.get(workload, []), change.get(workload, [])
        for name, (unit, better) in END_TO_END.items():
            a = [(r.seed, r.metrics[name]) for r in ours if name in r.metrics]
            b = [(r.seed, r.metrics[name]) for r in theirs
                 if name in r.metrics]
            if not a or not b:
                continue
            if name == "failed_ratio":
                result = failure_verdict(ours, theirs)
                qa = f"pooled {pooled_failures(ours):.4g}"
                qb = f"pooled {pooled_failures(theirs):.4g}"
            else:
                result = verdict(a, b, better, limits[name])
                qa = "/".join(f"{v:.4g}" for v in quartiles([v for _, v in a]))
                qb = "/".join(f"{v:.4g}" for v in quartiles([v for _, v in b]))
            lines.append(
                f"{workload:<18} {name:<24} {unit:<6} {qa:>30} {qb:>30}  "
                f"{result} (n={len(a)}/{len(b)}, "
                f"pairs={len(pairs(a, b))})"
            )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load_runs(Path(args[0])), load_runs(Path(args[1]))
    if not base or not change:
        print("compare: no untraced records in one of the result sets",
              file=sys.stderr)
        return 2
    print("\n".join(compare(base, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
