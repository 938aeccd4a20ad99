"""Compare two sets of recorded runs, workload by workload and metric by metric.

Each input is a JSON-lines file written by run.py --record. The first is
the parent, the second the change. For every workload and end-to-end
metric in BENCHMARK.json it prints both sides' median and quartiles, the
regression bound and one verdict:

- improved: the change wins at least 9 of every 10 pairs (at least ten
  pairs, ties count for neither) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
- unresolved: either side's interquartile range, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the bound;
- no worse: otherwise.

Runs pair by seed when both sides ran the same seeds, else in file order.
Traced runs are listed with their per-layer medians, without verdicts.
The exit code is 1 when any verdict is "worse".
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    by_seed_p = {r["seed"]: r for r in parent}
    by_seed_c = {r["seed"]: r for r in change}
    if len(by_seed_p) == len(parent) and len(by_seed_c) == len(change) and by_seed_p.keys() & by_seed_c.keys():
        return [(by_seed_p[s], by_seed_c[s]) for s in by_seed_p if s in by_seed_c]
    return list(zip(parent, change))


def verdict(parent_vals, change_vals, paired, better: str, bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent_vals)
    c1, cm, c3 = quartiles(change_vals)
    wins = sum(1 for a, b in paired if sign * (b - a) > 0)
    gain = sign * (cm - pm)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = sign * (min(change_vals, key=lambda v: sign * v) - max(parent_vals, key=lambda v: sign * v)) > 0
    info = {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins, "pairs": len(paired),
            "change_frac": (cm - pm) / pm if pm else 0.0, "spread": spread}
    if len(paired) >= 10 and wins >= 0.9 * len(paired) and gain > p3 - p1:
        return "improved", info
    if spread > bound and not all_better:
        return "unresolved", info
    if -gain > bound * abs(pm):
        return "worse", info
    return "no worse", info


def main(parent_path: str, change_path: str, benchmark_path) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(parent_path), load(change_path)
    worse = False
    print(f"parent: {parent_path}\nchange: {change_path}")
    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change':>8} {'bound':>6} {'wins':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get((workload, 0), []), change.get((workload, 0), [])
        if not p_runs or not c_runs:
            print(f"{workload:<12} (no untraced runs on {'both sides' if not p_runs and not c_runs else 'one side'})")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            paired = [(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"])
                      for a, b in pairs(p_runs, c_runs)]
            v, info = verdict(pv, cv, paired, m["better"], m["bound"])
            worse |= v == "worse"
            fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"  # noqa: E731
            print(f"{workload:<12} {name:<12} {fmt(info['parent']):>30} {fmt(info['change']):>30} "
                  f"{info['change_frac']:>+8.1%} {m['bound']:>6.2f} {info['wins']:>3}/{info['pairs']:<3}  {v}")
        failed = [sum(r["result"]["failed"] for r in runs) for runs in (p_runs, c_runs)]
        if any(failed):
            print(f"{workload:<12} failed operations: parent {failed[0]}, change {failed[1]}")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get((workload, 1), []), change.get((workload, 1), [])
        if not p_runs or not c_runs:
            continue
        print(f"\nper-layer medians, {workload} ({len(p_runs)} parent, {len(c_runs)} change traced runs)")
        for m in spec["per_layer"]:
            name = m["name"]
            pm = statistics.median(r["result"]["metrics"][name]["value"] for r in p_runs)
            cm = statistics.median(r["result"]["metrics"][name]["value"] for r in c_runs)
            if pm or cm:
                print(f"  {name:<40} {pm:>14.6g} {cm:>14.6g} {m['unit']}")
    return 1 if worse else 0
