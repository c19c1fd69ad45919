"""Compare two directories of benchmark result records.

Usage (from the repository root)::

    python bench/compare.py DIR_A DIR_B

``DIR_A`` holds the parent's untraced records and ``DIR_B`` the
change's, written by ``bench/run.py --out DIR``.  Runs pair up per
workload in seed order, then run order, so alternate the two sides when
producing them (A, B, B, A, ...) with the same seeds.  For every
(workload, end-to-end metric) the script prints both sides' median and
quartiles, the change's win share over the pairs, and a verdict, using
the metric's direction and bound from ``BENCHMARK.json``:

* ``improved`` — at least 10 pairs, the change wins at least 90 % of
  them (ties count for neither side), and the medians differ by more
  than the parent's own quartile spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
* ``unresolved`` — neither, but the parent's quartile spread is wider
  than the bound and not every change run beats every parent run;
* ``unchanged`` — otherwise.

The share of failed operations is compared too: any increase is
``worse``.  The exit status is 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10


def load_records(directory: str) -> Dict[str, List[dict]]:
    """Untraced records per workload, in seed order, then run order."""
    records: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("schema") == "repro.bench/v1" and not record["trace"]:
            records.setdefault(record["workload"], []).append((record["seed"], path.name, record))
    return {name: [r for _, _, r in sorted(rows, key=lambda row: row[:2])] for name, rows in records.items()}


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: Sequence[float], b: Sequence[float], higher_is_better: bool, bound: float) -> dict:
    """Classify the change ``b`` against the parent ``a`` (paired by index)."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    gain = sign * (b_med - a_med)
    spread = a_q3 - a_q1
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs) and gain > spread:
        label = "improved"
    elif gain < -bound * abs(a_med):
        label = "worse"
    elif spread > bound * abs(a_med) and not min(sign * y for y in b) > max(sign * x for x in a):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"pairs": len(pairs), "wins": wins, "a_med": a_med, "b_med": b_med, "verdict": label}


def failed_share(records: Sequence[dict]) -> float:
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / attempted if attempted else 0.0


def compare(dir_a: str, dir_b: str, spec: Optional[dict] = None) -> List[dict]:
    spec = spec or json.loads(BENCHMARK_JSON.read_text())
    side_a, side_b = load_records(dir_a), load_records(dir_b)
    rows = []
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            row = verdict(a, b, metric["better"] == "higher", metric["bound"])
            rows.append(dict(row, workload=workload, metric=name, unit=metric["unit"], a=a, b=b))
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": [share_a], "b": [share_b], "a_med": share_a, "b_med": share_b,
            "pairs": min(len(runs_a), len(runs_b)), "wins": 0,
            "verdict": "worse" if share_b > share_a else "unchanged",
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", help="parent commit's result records")
    parser.add_argument("dir_b", help="change's result records")
    args = parser.parse_args(argv)
    rows = compare(args.dir_a, args.dir_b)
    if not rows:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 2
    header = f"{'workload':13s} {'metric':15s} {'A q1 / median / q3':>32s} {'B q1 / median / q3':>32s} {'change':>8s} {'wins':>7s}  verdict"
    print(header)
    for row in rows:
        a_q, b_q = quartiles(row["a"]), quartiles(row["b"])
        change = (row["b_med"] - row["a_med"]) / row["a_med"] if row["a_med"] else 0.0
        print(
            f"{row['workload']:13s} {row['metric']:15s} "
            f"{a_q[0]:10.4g} {a_q[1]:10.4g} {a_q[2]:10.4g} "
            f"{b_q[0]:10.4g} {b_q[1]:10.4g} {b_q[2]:10.4g} "
            f"{change:+8.2%} {row['wins']:3d}/{row['pairs']:<3d}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
