"""dsff-lab benchmark entry point.

    python3 perfbench/run.py --workload {cold-figure,reanalyze,predict} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, not from an installed copy. This launcher starts
`bench.py` as a child process with one BLAS/OpenMP thread set in the child's
environment only, gives it a scratch directory inside the checkout, enforces a
deadline, and relays its output. On any failure it exits nonzero and prints no
result line. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-figure", "reanalyze", "predict")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    return args


def main(argv=None):
    args = _args(argv)
    if not (ROOT / "src" / "dsff_lab" / "cli.py").is_file():
        print(f"error: no dsff_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "DSFF_LAB_CACHE_DIR"}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    # a SIGTERM unwinds through the finally below, which stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # own session, so a kill also reaches the interpreters bench.py starts
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"error: benchmark child exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
