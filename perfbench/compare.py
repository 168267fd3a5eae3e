"""Compare benchmark records of a parent commit and a change.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that ``run.py --out FILE`` appends.  Runs of
the two sides are paired by workload and seed; run the pairs alternating which
side goes first.  For every workload and end-to-end metric the script prints
each side's median and quartiles, the share of pairs the change won (ties
count for neither) and a verdict:

* gain: at least 10 pairs, the change wins at least 90% of them, its median
  is better than the parent's by more than the parent's interquartile
  distance, and no more checks fail than at the parent;
* regression: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: not a regression, but the parent's own spread (interquartile
  distance over median) exceeds the bound and not every change run beats
  every parent run;
* unchanged: otherwise.

Below each workload's metrics, ``run_wall_s`` shows the raw wall-time medians
of a pass next to the scaled ``run_s`` (non-gating; see ``speed.py``).

The call counts of traced runs (``counts`` in the record) depend only on the
code and the seed, so on each side every traced run of one workload and seed
must report the same counts; a mismatch is reported as a failed check.
Per-layer medians from traced runs follow, labelled non-gating.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("smoke"):
                records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(records: list[dict], workload: str, metric: str) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for rec in records:
        if rec["workload"] == workload and rec["trace"] == 0:
            value = rec["run_wall_s"] if metric == "run_wall_s" else rec["result"]["metrics"][metric]["value"]
            out.setdefault(rec["seed"], []).append(value)
    return out


def count_mismatches(records: list[dict]) -> list[tuple[str, int]]:
    """Workload and seed pairs whose traced passes did not all count the same calls."""
    seen: dict[tuple[str, int], set] = {}
    for rec in records:
        if rec["trace"] == 1:
            key = (rec["workload"], rec["seed"])
            seen.setdefault(key, set()).update(tuple(c) for c in rec["counts"])
    return [key for key, counts in sorted(seen.items()) if len(counts) > 1]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float, failed_p: int, failed_c: int) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0  # positive differences are worse
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cm - pm) / pm
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and sign * (pm - cm) > p3 - p1
            and failed_c <= failed_p):
        return "gain", share
    if worse_by > bound:
        return "regression", share
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    for side, recs in (("parent", parent), ("change", change)):
        env = recs[0]["env"] if recs else {}
        print(f"{side}: {len(recs)} runs, git {env.get('git_sha')}, {env.get('cpu_model')}, "
              f"nproc {env.get('nproc')}, python {env.get('python')}, numpy {env.get('numpy')}, "
              f"scipy {env.get('scipy')}, blas threads {env.get('blas_threads')}")
    print()
    mismatched = {"parent": count_mismatches(parent), "change": count_mismatches(change)}
    for side, keys in mismatched.items():
        for workload, seed in keys:
            print(f"failed check ({side}): traced counts differ between runs of {workload} seed {seed}")
    header = f"{'workload':16} {'metric':12} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'won':>6}  verdict"
    print(header)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        failed_p = sum(r["result"]["failed"] for r in parent if r["workload"] == workload)
        failed_c = sum(r["result"]["failed"] for r in change if r["workload"] == workload)
        failed_p += sum(1 for w, _ in mismatched["parent"] if w == workload)
        failed_c += sum(1 for w, _ in mismatched["change"] if w == workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ps, cs = by_seed(parent, workload, name), by_seed(change, workload, name)
            pv = [v for vs in ps.values() for v in vs]
            cv = [v for vs in cs.values() for v in vs]
            if not pv or not cv:
                continue
            pairs = [pc for seed in ps.keys() & cs.keys() for pc in zip(ps[seed], cs[seed])]
            label, share = verdict(pv, cv, pairs, metric["better"], metric["bound"], failed_p, failed_c)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            p_text = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            c_text = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            print(f"{workload:16} {name:12} {p_text:34} {c_text:34} {share:6.0%}  "
                  f"{label} ({len(pairs)} pairs)")
        pw = [v for vs in by_seed(parent, workload, "run_wall_s").values() for v in vs]
        cw = [v for vs in by_seed(change, workload, "run_wall_s").values() for v in vs]
        if pw and cw:
            (p1, pm, p3), (c1, cm, c3) = quartiles(pw), quartiles(cw)
            p_text = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            c_text = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            print(f"{workload:16} {'run_wall_s':12} {p_text:34} {c_text:34} {'':6}  raw wall time (non-gating)")
        if failed_p or failed_c:
            print(f"{workload:16} failed checks: parent {failed_p}, change {failed_c}")
    print()
    print("per-layer medians from traced runs (non-gating)")
    for workload in workloads:
        tp = [r for r in parent if r["workload"] == workload and r["trace"] == 1]
        tc = [r for r in change if r["workload"] == workload and r["trace"] == 1]
        if not tp or not tc:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            mp = statistics.median(r["result"]["metrics"][name]["value"] for r in tp)
            mc = statistics.median(r["result"]["metrics"][name]["value"] for r in tc)
            ratio = f"{mc / mp:8.3f}x" if mp else "        -"
            print(f"  {workload:16} {name:32} {mp:>14.6g} -> {mc:<14.6g} {ratio}  (non-gating)")
    return 1 if any(mismatched.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
