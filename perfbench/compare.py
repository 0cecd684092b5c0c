"""Compare benchmark runs of two commits, metric by metric and workload by workload.

    python3 perfbench/compare.py base.jsonl head.jsonl

Each file holds the runs `run.py --out FILE` appended (untraced runs only are
compared); perfbench/results/ keeps the runs of earlier commits as bases.  For
every workload in both files and every end-to-end metric of BENCHMARK.json,
this prints the median and quartiles of each side and a flag:

worse       head's median is worse than base's by more than the metric's bound
better      head's median is better by more than base's own quartile spread,
            and head wins at least 9 in 10 of the paired runs
unresolved  base's quartile spread is wider than the bound, and not every head
            run is better than every base run
unchanged   otherwise

Runs are paired by seed where both sides ran the same seeds, else in file
order.  Exit status 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> list of {"seed", "metrics": {name: value}} of untraced runs."""
    runs = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        prov = record["provenance"]
        if prov["trace"]:
            continue
        values = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs[prov["workload"]].append({"seed": prov["seed"], "metrics": values})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], head: list[dict], name: str) -> list[tuple[float, float]]:
    base_by_seed = {r["seed"]: r["metrics"][name] for r in base}
    head_by_seed = {r["seed"]: r["metrics"][name] for r in head}
    common = sorted(set(base_by_seed) & set(head_by_seed))
    if common:
        return [(base_by_seed[s], head_by_seed[s]) for s in common]
    return [(b["metrics"][name], h["metrics"][name]) for b, h in zip(base, head)]


def verdict(metric: dict, base: list[float], head: list[float], paired) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    q1, med_base, q3 = quartiles(base)
    med_head = statistics.median(head)
    scale = abs(med_base) or 1.0
    worse_by = sign * (med_head - med_base) / scale
    spread = (q3 - q1) / scale
    head_all_better = all(sign * h < sign * b for h in head for b in base)
    if spread > metric["bound"]:
        return "better" if head_all_better else "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    wins = sum(sign * h < sign * b for b, h in paired)
    if -worse_by > spread and wins >= 0.9 * len(paired):
        return "better"
    return "unchanged"


def compare(base_runs: dict, head_runs: dict, end_to_end: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(base_runs) & set(head_runs)):
        base, head = base_runs[workload], head_runs[workload]
        for metric in end_to_end:
            name = metric["name"]
            if any(name not in r["metrics"] for r in base + head):
                continue
            b = [r["metrics"][name] for r in base]
            h = [r["metrics"][name] for r in head]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": quartiles(b),
                "head": quartiles(h),
                "n": (len(b), len(h)),
                "verdict": verdict(metric, b, h, pairs(base, head, name)),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load_runs(args.base), load_runs(args.head), end_to_end)
    if not rows:
        sys.stderr.write("error: the two files share no workload\n")
        return 2
    print(f"{'workload':<18} {'metric':<14} {'unit':<5} "
          f"{'base median [q1, q3]':<36} {'head median [q1, q3]':<36} {'n':<7} verdict")
    for r in rows:
        (b1, bm, b3), (h1, hm, h3) = r["base"], r["head"]
        print(f"{r['workload']:<18} {r['metric']:<14} {r['unit']:<5} "
              f"{f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':<36} {f'{hm:.6g} [{h1:.6g}, {h3:.6g}]':<36} "
              f"{'%d/%d' % r['n']:<7} {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
