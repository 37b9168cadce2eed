"""Compare two sets of run reports metric by metric.

For every workload and end-to-end metric in BENCHMARK.json, prints the
ratio of medians (B over A) with both sides' quartiles. A pair is
"unresolved" when either side's interquartile spread, as a share of
its median, exceeds the metric's bound; otherwise it is "worse" when B
is worse than A by more than the bound and "within bound" if not. No
verdict of a gain is made here. Traced reports of the same workload and
seed must repeat their work counts exactly; mismatches are listed.
"""

from __future__ import annotations

import glob
import json
import os

from summary import quartiles, relative_spread
from tracer import REPEATING_COUNTS


def load_reports(directory: str) -> list:
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            report = json.load(handle)
        if isinstance(report, dict) and report.get("kind") == "run":
            reports.append(report)
    return reports


def _values(reports, workload, metric):
    return [r["end_to_end"][metric]["value"] for r in reports
            if r["workload"] == workload and r["trace"] == 0
            and metric in r.get("end_to_end", {})]


def verdict(a, b, bound: float, better: str) -> tuple[float, str]:
    ratio = quartiles(b)[1] / quartiles(a)[1]
    if max(relative_spread(a), relative_spread(b)) > bound:
        return ratio, "unresolved"
    worse = ratio > 1.0 + bound if better == "lower" else ratio < 1.0 - bound
    return ratio, "worse" if worse else "within bound"


def count_mismatches(side_a, side_b) -> list:
    """(workload, seed, count) triples whose traced counts differ."""
    seen: dict = {}
    out = []
    for report in side_a + side_b:
        if report["trace"] != 1:
            continue
        key = (report["workload"], report["seed"])
        counts = {c: report["per_layer"][c]["value"]
                  for c in REPEATING_COUNTS}
        if key in seen and seen[key] != counts:
            out.extend((key[0], key[1], c) for c in REPEATING_COUNTS
                       if seen[key][c] != counts[c])
        seen.setdefault(key, counts)
    return out


def compare_dirs(dir_a: str, dir_b: str, benchmark_json: str) -> str:
    with open(benchmark_json) as handle:
        spec = json.load(handle)
    side_a, side_b = load_reports(dir_a), load_reports(dir_b)
    lines = [f"{'workload':18s} {'metric':16s} {'B/A':>8s}  "
             f"{'A q1/med/q3':>30s}  {'B q1/med/q3':>30s}  verdict"]
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = _values(side_a, workload, metric["name"])
            b = _values(side_b, workload, metric["name"])
            if not a or not b:
                lines.append(f"{workload:18s} {metric['name']:16s} "
                             f"{'':>8s}  missing on "
                             f"{'A' if not a else 'B'}")
                continue
            ratio, word = verdict(a, b, metric["bound"], metric["better"])
            qa = "/".join(f"{x:.4g}" for x in quartiles(a))
            qb = "/".join(f"{x:.4g}" for x in quartiles(b))
            lines.append(f"{workload:18s} {metric['name']:16s} "
                         f"{ratio:8.4f}  {qa:>30s}  {qb:>30s}  {word} "
                         f"(bound {metric['bound']}, n={len(a)}/{len(b)})")
    for workload, seed, count in count_mismatches(side_a, side_b):
        lines.append(f"count mismatch: {workload} seed {seed} {count}")
    return "\n".join(lines)
