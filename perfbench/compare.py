"""Compare benchmark result sets, or report the spread within one.

    python3 perfbench/compare.py diff BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py spread RESULTS.jsonl

A result set is a JSON-lines file written by sweep.py: one record per run
with its workload, seed, trace flag and result line. Each (workload, metric)
gets its own row.

`diff` gives each side's median and quartiles, the pairs NEW wins (runs are
paired by seed; ties count for neither side) and a verdict:

- gain: NEW wins at least 9/10 of the pairs and the medians differ by more
  than BASE's quartile distance;
- worse: NEW's median is worse than BASE's by more than the metric's bound
  in BENCHMARK.json, whatever the spread;
- unresolved: BASE's quartile distance, as a share of its median, exceeds the
  bound, and not every NEW run is better than every BASE run;
- no change: otherwise.

Per-layer metrics have no bound, so they can only be a gain, a loss (the
gain rule mirrored) or no change. `diff` exits 1 if any row is worse.

`spread` gives, per end-to-end metric, the quartile distance of its values
as a share of their median, as `statistics.quantiles(values, n=4)` gives the
quartiles, against the metric's bound. It exits 1 if any spread exceeds its
bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec():
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def series(records):
    """{(workload, metric): {seed: value}} over records that produced a result."""
    out = {}
    for rec in records:
        for name, metric in (rec.get("result") or {}).get("metrics", {}).items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = metric["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Verdict for one (workload, metric); base and new map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, n_med, _ = quartiles(list(new.values()))
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    beyond_spread = abs(n_med - b_med) > b_q3 - b_q1
    if pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > 0 and beyond_spread:
        return "gain", wins, len(pairs)
    if bound is None:
        lost = pairs and losses >= 0.9 * len(pairs) and sign * (n_med - b_med) < 0 and beyond_spread
        return ("loss" if lost else "no change"), wins, len(pairs)
    if sign * (b_med - n_med) > bound * abs(b_med):
        return "worse", wins, len(pairs)
    all_better = min(sign * v for v in new.values()) > max(sign * v for v in base.values())
    if (b_q3 - b_q1) > bound * abs(b_med) and not all_better:
        return "unresolved", wins, len(pairs)
    return "no change", wins, len(pairs)


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def diff(base_path, new_path):
    spec = load_spec()
    base, new = series(load_records(base_path)), series(load_records(new_path))
    print(f"{'workload':<12} {'metric':<46} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'wins':>6}  verdict")
    any_worse = False
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        meta = spec.get(name)
        if meta is None:
            continue
        v, wins, n = verdict(base[key], new[key], meta["better"], meta.get("bound"))
        any_worse |= v == "worse"
        print(f"{workload:<12} {name:<46} {_fmt(quartiles(list(base[key].values()))):<30} "
              f"{_fmt(quartiles(list(new[key].values()))):<30} {wins:>3}/{n:<2}  {v}")
    return 1 if any_worse else 0


def spread(path):
    spec = load_spec()
    too_wide = False
    print(f"{'workload':<12} {'metric':<18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  status")
    for (workload, name), values in sorted(series(load_records(path)).items()):
        meta = spec.get(name)
        if meta is None or meta.get("bound") is None:
            continue
        q1, med, q3 = quartiles(list(values.values()))
        share = (q3 - q1) / abs(med)
        bound = meta["bound"]
        if share <= bound / 3:
            status = "steady"
        elif share <= bound:
            status = "within bound"
        else:
            status = "TOO WIDE"
            too_wide = True
        print(f"{workload:<12} {name:<18} {len(values):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{share:>8.4f} {bound:>6}  {status}")
    return 1 if too_wide else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("diff", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("new")
    p = sub.add_parser("spread", help="quartile spread of each end-to-end metric")
    p.add_argument("results")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.base, args.new)
    return spread(args.results)


if __name__ == "__main__":
    sys.exit(main())
