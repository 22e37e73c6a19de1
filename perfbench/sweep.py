"""Run the benchmark over several seeds and workloads into one result set.

    python3 perfbench/sweep.py --out results.jsonl [--seeds 10] [--trace 0]
        [--against OTHER_CHECKOUT --against-out other.jsonl]

Each run is `run.py` in its own process, one after another, on seeds 1 to
--seeds and all workloads, with `run_seconds` from BENCHMARK.json. Every run
appends one JSON line (workload, seed, trace, result, detail) to --out; a run
that fails is recorded with a null result. With --against, every
(seed, workload) also runs in the other checkout, written to --against-out,
and the two alternate which runs first, so slow drift of the host speed
falls on both sides alike. At the end the spread of each end-to-end metric is
printed as by `compare.py spread`.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-figure", "reanalyze", "predict")


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "result": None, "detail": None}
    if proc.returncode == 0 and len(lines) >= 2:
        record["result"] = json.loads(lines[-1])
        record["detail"] = json.loads(lines[-2])["perfbench"]
    else:
        record["error"] = (proc.stderr or proc.stdout)[-2000:]
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, default=None, help="another checkout to interleave")
    parser.add_argument("--against-out", default=None)
    args = parser.parse_args(argv)
    if (args.against is None) != (args.against_out is None):
        parser.error("--against and --against-out go together")
    seconds = json.loads(compare.BENCHMARK.read_text())["run_seconds"]
    sides = [(ROOT, args.out)] + ([(args.against.resolve(), args.against_out)] if args.against else [])
    runs = 0
    for seed in range(1, args.seeds + 1):
        for workload in WORKLOADS:
            runs += 1
            for root, out in sides if runs % 2 else sides[::-1]:
                start = time.perf_counter()
                record = run_once(root, workload, seed, seconds, args.trace)
                with open(out, "a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                status = "ok" if record["result"] else "FAILED"
                print(f"{root.name} {workload} seed={seed}: {status} in "
                      f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.trace:
        return 0
    worst = 0
    for _, out in sides:
        print(out)
        worst = max(worst, compare.spread(out))
    return worst


if __name__ == "__main__":
    sys.exit(main())
