#!/usr/bin/env python3
"""Compare two result sets of bench_e2e under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py results/set_a.json results/set_b.json

A is the parent (or the first of two runs of one commit), B the change.
One row per workload x end-to-end metric, with the median and quartiles
of both sides over their rounds, and a verdict:

``better``      B's median is better than A's by more than the bound, or
                every round of B reads better than every round of A
``within``      the medians differ by no more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  the spread between rounds (either side) is wider than the
                bound, so the data cannot say

As in the driver's own acceptance test, ``setup_s`` is judged on its
medians alone: cold paths are the noisiest thing measured here, and its
spread is reported (by the quartiles) but not tested.
``fail_frac`` has the absolute bound 0: any rise is ``worse``.
Exits 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness as hz  # noqa: E402

CONTRACT_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def verdict(a: list[float], b: list[float], better: str, bound: float,
            test_spread: bool = True) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is B against A as a share of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    a_med, b_med = hz.median(a), hz.median(b)
    worsening = sign * (b_med - a_med) / abs(a_med)
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "better", worsening
    if test_spread and max(hz.spread(a), hz.spread(b)) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def compare(a: dict, b: dict, contract: dict) -> list[dict]:
    rows = []
    for name in (w["name"] for w in contract["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            rows.append({"workload": name, "metric": "*", "verdict": "missing"})
            continue
        for meta in contract["end_to_end"]:
            ma, mb = wa["metrics"].get(meta["name"]), wb["metrics"].get(meta["name"])
            row = {"workload": name, "metric": meta["name"], "unit": meta["unit"]}
            if not ma or not mb or "values" not in ma or "values" not in mb:
                row["verdict"] = "skipped"
            else:
                row["verdict"], row["worsening"] = verdict(
                    ma["values"], mb["values"], meta["better"], meta["bound"],
                    test_spread=meta["name"] != "setup_s")
                row["a"] = hz.quartiles(ma["values"])
                row["b"] = hz.quartiles(mb["values"])
            rows.append(row)
        rows.append({
            "workload": name, "metric": "fail_frac", "unit": "frac",
            "a": (wa["fail_frac"],) * 3, "b": (wb["fail_frac"],) * 3,
            "verdict": "worse" if wb["fail_frac"] > wa["fail_frac"] else "within",
            "worsening": wb["fail_frac"] - wa["fail_frac"],
        })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    with open(CONTRACT_PATH) as fh:
        contract = json.load(fh)
    for side, doc in (("A", a), ("B", b)):
        print(f"{side}: {doc.get('git_commit')} mode={doc.get('mode')} rounds={doc.get('rounds')} "
              f"window={doc.get('window_seconds')}s cpus={doc.get('host', {}).get('cpus')}")
    print(f"{'workload':<13} {'metric':<12} {'A q1':>9} {'A med':>9} {'A q3':>9}   "
          f"{'B q1':>9} {'B med':>9} {'B q3':>9}  {'worsening':>9}  verdict")
    rows = compare(a, b, contract)
    for r in rows:
        if "a" not in r:
            print(f"{r['workload']:<13} {r['metric']:<12} {'':>62} {r['verdict']}")
            continue
        nums = " ".join(f"{x:>9.4g}" for x in r["a"]) + "   " + " ".join(
            f"{x:>9.4g}" for x in r["b"])
        print(f"{r['workload']:<13} {r['metric']:<12} {nums}  {r['worsening']:>+9.1%}  "
              f"{r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved", "missing")]
    print(f"{len(rows)} rows: " + ", ".join(
        f"{sum(r['verdict'] == v for r in rows)} {v}"
        for v in ("better", "within", "worse", "unresolved", "skipped", "missing")))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
