"""Compare two sets of benchmark records: a parent commit against a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-trace0-seed<n>.json`` records that
``run.py --out DIR`` writes.  Runs are paired by workload and seed.  For
each workload and end-to-end metric in BENCHMARK.json this prints both
sides' medians and quartiles, the share of pairs the change won and a
verdict (rules in DESIGN.md, "Verdicts"):

* ``improved``: at least 10 pairs, the change won at least 9/10 of them
  (ties count for neither), and the medians differ, in the change's favour,
  by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: the relative interquartile range of either side exceeds
  the bound and not every change run beats every parent run;
* ``unchanged``: otherwise.

An ``improved`` verdict is downgraded to ``unresolved`` when the change
failed a larger share of operations than the parent.  The exit code is 1
when any verdict is ``worse``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(directory):
    """{workload: {seed: record}} for the untraced records in ``directory``."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0-seed*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Apply the rules in the module docstring to two parallel value lists."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    n = len(parent)
    if n >= 10 and wins >= 0.9 * n and worse_by < 0 and abs(cm - pm) > p3 - p1:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins, worse_by, spread


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="directory of the parent commit's records")
    ap.add_argument("change", help="directory of the change's records")
    ap.add_argument("--benchmark", default=str(BENCHMARK), help="BENCHMARK.json with the bounds")
    args = ap.parse_args(argv)

    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    parent, change = load_records(args.parent), load_records(args.change)
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        print(f"\n== {workload}: {len(seeds)} pairs (seeds {seeds})")
        if not seeds:
            continue
        p_recs = [parent[workload][s] for s in seeds]
        c_recs = [change[workload][s] for s in seeds]
        if len({r["seconds"] for r in p_recs + c_recs}) > 1:
            print("   warning: run length differs between records")
        if len(seeds) < 10:
            print("   note: fewer than 10 pairs, so no gain can be claimed")
        p_fail, c_fail = failed_share(p_recs), failed_share(c_recs)
        print(f"   failed share: parent {p_fail:.4g}, change {c_fail:.4g}")
        print(f"   {'metric':<27} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'gain':>8} {'won':>7} {'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_recs]
            cv = [r["metrics"][name]["value"] for r in c_recs]
            result, wins, worse_by, spread = verdict(pv, cv, m["better"], m["bound"])
            if result == "improved" and c_fail > p_fail:
                result = "unresolved"
            any_worse |= result == "worse"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"   {name:<27} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] {cm:12.5g} [{c1:9.5g}, {c3:9.5g}]"
                  f" {-worse_by:+8.1%} {wins:3d}/{len(seeds):<3d} {spread:7.1%} {m['bound']:6.0%}"
                  f"  {result}  ({m['unit']}, {m['better']} is better)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
