#!/usr/bin/env python3
"""Compare a bench_micro --json run against the checked-in baseline.

Wall-clock comparison is machine-speed invariant: per-query ratios
(current/baseline) are normalized by their median, so a CI runner that is
uniformly 2x slower than the machine that produced the baseline passes
unchanged, while one query regressing relative to the others fails. The
flip side: a *uniform* slowdown of every query is absorbed by the
normalization — the modeled-seconds check below is the backstop, since
modeled time is deterministic and host-independent.

Each row's wall statistic is its minimum over the bench's timed passes
(`wall_min_seconds`; the benches run one warm-up pass first): a busy host
only ever adds time, so the minimum is the sample least disturbed by it.

Modeled seconds must match the baseline closely; they only move when the
cost model, plans, or storage charging change, and such a change should be
deliberate — regenerate the baseline with:
    bench_micro --benchmark_filter=BM_BPlusTreeProbe --json bench/BENCH_micro.baseline.json
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {q["name"]: q for q in doc["queries"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="max normalized wall-clock ratio (1.25 = +25%%)")
    ap.add_argument("--modeled-tolerance", type=float, default=0.10,
                    help="max relative drift in modeled seconds")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    common = sorted(set(base) & set(cur))
    if not common:
        print("no common queries between baseline and current run")
        return 1
    missing = sorted(set(base) - set(cur))
    if missing:
        print(f"queries missing from current run: {', '.join(missing)}")
        return 1

    for doc, path in ((base, args.baseline), (cur, args.current)):
        stale = sorted(n for n in common if "wall_min_seconds" not in doc[n])
        if stale:
            print(f"{path}: rows without wall_min_seconds ({', '.join(stale)});"
                  " regenerate it with the current bench")
            return 1

    ratios = {}
    for name in common:
        b = base[name]["wall_min_seconds"]
        c = cur[name]["wall_min_seconds"]
        if b <= 0:
            print(f"{name}: baseline wall_min_seconds {b} is not positive")
            return 1
        ratios[name] = c / b
    median = statistics.median(ratios.values())

    failed = False
    print(f"median wall ratio (machine speed factor): {median:.3f}")
    print(f"{'query':<8}{'base_ms':>10}{'cur_ms':>10}{'norm_ratio':>12}"
          f"{'modeled_drift':>15}")
    for name in common:
        b, c = base[name], cur[name]
        norm = ratios[name] / median if median > 0 else float("inf")
        bm, cm = b["modeled_seconds"], c["modeled_seconds"]
        drift = abs(cm - bm) / bm if bm > 0 else (0.0 if cm == bm else 1.0)
        marks = []
        if norm > args.threshold:
            marks.append(f"WALL REGRESSION >{args.threshold:.2f}x")
            failed = True
        if drift > args.modeled_tolerance:
            marks.append("MODELED DRIFT (regenerate baseline if intended)")
            failed = True
        print(f"{name:<8}{b['wall_min_seconds']*1e3:>10.2f}"
              f"{c['wall_min_seconds']*1e3:>10.2f}{norm:>12.3f}{drift:>14.1%}"
              f"  {' '.join(marks)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
