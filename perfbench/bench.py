"""One benchmark run of one dsff-lab workload, in the process that generates the load.

    python3 perfbench/bench.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

`run.py` starts this script with one BLAS/OpenMP thread and `src/` on the
import path; use that entry point. The run:

1. repeats the workload's timed pass, tracing off, while another pass fits
   into `--seconds`; `wall_s` is the median pass and each throughput is the
   stage's items over its seconds, summed over all passes;
2. sets up three times, before the passes, halfway through them and after
   them: each time it starts fresh interpreters that import `dsff_lab.cli`,
   and on `reanalyze` it samples the input cache. `setup_s` is the median
   start plus the median sampling time, so it spans the run as the passes do;
3. with `--trace 1`, runs one more pass with every public dsff_lab function
   wrapped (see tracing.py) and reports per-layer figures instead;
4. checks the outputs by routes independent of the code under test.

The last line of stdout is the result JSON; the line before it is a detail
record (machine block, calibration, per-pass figures, checks). Operations are
CLI calls and `dsff_point` calls; one fails on a nonzero exit, an exception
or a failed output check.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

import dsff_lab  # noqa: E402  (import path is set by run.py)

if Path(dsff_lab.__file__).resolve().parent != ROOT / "src" / "dsff_lab":
    sys.exit(f"error: dsff_lab imported from {dsff_lab.__file__}, not from {ROOT / 'src'}")

from dsff_lab import cli, estimator, kernels, spectra  # noqa: E402
from dsff_lab.bessel import bessel_j  # noqa: E402
from dsff_lab.ensembles import EnsembleSpec, sample_matrix  # noqa: E402
from dsff_lab.quadrature import disk_grid, real_axis_correction_integral  # noqa: E402
from dsff_lab.theory import ComplexTime  # noqa: E402

from tracing import Tracer, instrument  # noqa: E402


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads (see README.md for the reasons)."""

    cold_n: int = 256
    cold_m: int = 32
    cold_workers: int = 2
    cold_rays: int = 6
    cold_points: int = 80
    re_n: int = 128
    re_m: int = 500
    re_rays: int = 4
    re_points: int = 120
    re_scatter: int = 120
    pr_n: int = 256
    pr_rays: int = 3
    pr_points: int = 60
    pr_verify: int = 2
    starts: int = 3
    check_rows: int = 3


FULL = Sizes()


# ---------------------------------------------------------------------------
# operations


class Ops:
    """Runs and counts operations; keeps the first errors for the detail record."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def cli(self, argv):
        """Run `dsff-lab argv` in-process; returns its wall time in seconds."""
        self.attempted += 1
        sink = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(f"dsff-lab {' '.join(argv)}: {code!r} {sink.getvalue()[-300:]}")
        return elapsed

    def point(self, sset, tau):
        """One `dsff_point` call; returns the estimate or None if it raised."""
        self.attempted += 1
        try:
            return estimator.dsff_point(sset, tau)
        except Exception:
            self.fail(f"dsff_point({tau}): {traceback.format_exc(limit=3)}")
            return None


def _seeds(seed, count):
    """Independent 63-bit seeds derived from the workload seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count, np.uint64) >> 1]


# ---------------------------------------------------------------------------
# workloads: each pass returns {"wall_s", "stages": {rate name: [items, seconds]}}
# and leaves its outputs in workdir


class Workload:
    main = side = ""

    def __init__(self, sizes, seed, workdir, ops):
        self.sizes = sizes
        self.seed = seed
        self.dir = Path(workdir)
        self.ops = ops

    def path(self, name):
        return str(self.dir / name)

    def setup(self, k):
        """The k-th preparation of the input; returns its seconds, or None without one.

        The first one, before the passes, makes the input the passes use.
        """
        return None

    def serial_sample_s(self):
        """Time of the pass's sample_spectra call at parallelism=1, or None without one."""
        return None


class ColdFigure(Workload):
    """The paper's figure from nothing: sample, then estimate, theory and compare per ray.

    The first ray is the README/A1 grid (theta=0, |tau| 0.3 to 25, 80 log
    points); the others repeat it at theta = k pi/10 to cover the quadrant
    of the (t, s) plane.
    """

    # the analysis is about 5% of a pass, too short to time steadily on its own,
    # so the side rate is figure points per second of the whole pass
    main, side = "sample_per_s", "figure_points_per_s"

    def __init__(self, *a):
        super().__init__(*a)
        z = self.sizes
        self.spec = EnsembleSpec("complex", "gaussian", z.cold_n)
        self.master_seed = _seeds(self.seed, 1)[0]
        self.rays = [repr(k * math.pi / 10) for k in range(z.cold_rays)]

    def run_pass(self):
        z, ops = self.sizes, self.ops
        start = time.perf_counter()
        t_sample = ops.cli(
            ["sample", "--n", str(z.cold_n), "--m", str(z.cold_m), "--field", "complex",
             "--distribution", "gaussian", "--workers", str(z.cold_workers),
             "--seed", str(self.master_seed), "--out", self.path("cache.bin")]
        )
        t_est = t_analysis = 0.0
        for k, theta in enumerate(self.rays):
            grid = ["--theta", theta, "--tau-min", "0.3", "--tau-max", "25", "--points", str(z.cold_points)]
            est, thy = self.path(f"estimate-{k}.csv"), self.path(f"theory-{k}.csv")
            t = ops.cli(["estimate", "--spectra", self.path("cache.bin"), *grid, "--out", est])
            t_est += t
            t_analysis += t + ops.cli(["theory", "--n", str(z.cold_n), "--beta", "2", "--kappa4", "0",
                                       *grid, "--out", thy])
            t_analysis += ops.cli(["compare", "--estimate", est, "--theory", thy, "--out",
                                   self.path(f"compare-{k}.csv"), "--svg", self.path(f"compare-{k}.svg")])
        wall = time.perf_counter() - start
        points = len(self.rays) * z.cold_points
        return {
            "wall_s": wall,
            "stages": {
                "sample_per_s": [z.cold_m, t_sample],
                "estimate_points_per_s": [points, t_est],
                "analysis_points_per_s": [points, t_analysis],
                "figure_points_per_s": [points, wall],
            },
        }

    def serial_sample_s(self):
        start = time.perf_counter()
        spectra.sample_spectra(self.spec, self.sizes.cold_m, self.master_seed, parallelism=1)
        return time.perf_counter() - start

    def checks(self, rng):
        sset = spectra.load_spectra(self.path("cache.bin"))
        yield from _cache_checks(sset, self.spec, self.master_seed, rng)
        csvs = [self.path(f"estimate-{k}.csv") for k in range(len(self.rays))]
        yield from _estimate_checks(sset, csvs, rng, self.sizes.check_rows)
        for k in range(len(self.rays)):
            yield _check_svg(self.path(f"compare-{k}.svg"))


class Reanalyze(Workload):
    """Analyse an existing cache again: estimate rays, then scattered single points."""

    main, side = "estimate_points_per_s", "point_estimates_per_s"

    def __init__(self, *a):
        super().__init__(*a)
        z = self.sizes
        self.spec = EnsembleSpec("real", "gaussian", z.re_n)
        self.master_seed, tau_seed = _seeds(self.seed, 2)
        rng = np.random.default_rng(tau_seed)
        r = rng.uniform(0.1, 2.0 * math.sqrt(z.re_n), z.re_scatter)
        theta = rng.uniform(0.0, math.pi / 2, z.re_scatter)
        self.taus = [ComplexTime.from_polar(float(a), float(b)) for a, b in zip(r, theta)]
        # rays spread over [0, pi/2], both ends included
        step = math.pi / (2 * max(z.re_rays - 1, 1))
        self.rays = [repr(k * step) for k in range(z.re_rays)]
        self.points = []

    def setup(self, k):
        z = self.sizes
        out = self.path("cache.bin" if k == 0 else "setup.bin")
        seconds = self.ops.cli(
            ["sample", "--n", str(z.re_n), "--m", str(z.re_m), "--field", "real",
             "--distribution", "gaussian", "--workers", "1", "--seed", str(self.master_seed),
             "--out", out]
        )
        if k:
            os.remove(out)
        return seconds

    def run_pass(self):
        z, ops = self.sizes, self.ops
        start = time.perf_counter()
        t_est = sum(
            ops.cli(["estimate", "--spectra", self.path("cache.bin"), "--theta", theta,
                     "--points", str(z.re_points), "--out", self.path(f"estimate-{k}.csv")])
            for k, theta in enumerate(self.rays)
        )
        t0 = time.perf_counter()
        sset = spectra.load_spectra(self.path("cache.bin"))
        self.points = [(tau, ops.point(sset, tau)) for tau in self.taus]
        t_points = time.perf_counter() - t0
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "stages": {
                "estimate_points_per_s": [len(self.rays) * z.re_points, t_est],
                "point_estimates_per_s": [len(self.taus), t_points],
            },
        }

    def checks(self, rng):
        sset = spectra.load_spectra(self.path("cache.bin"))
        yield from _cache_checks(sset, self.spec, self.master_seed, rng)
        csvs = [self.path(f"estimate-{k}.csv") for k in range(len(self.rays))]
        yield from _estimate_checks(sset, csvs, rng, self.sizes.check_rows)
        picks = rng.choice(len(self.points), min(self.sizes.check_rows, len(self.points)), replace=False)
        for i in sorted(picks):
            tau, est = self.points[i]
            ok = est is not None and _rel_close(est.k_mean, _double_sum_k(sset, tau.t, tau.s))
            yield _result(f"dsff_point[{i}] k_mean matches double sum", ok)


class Predict(Workload):
    """Tabulate predictions on several rays and run the self-check gate; no spectra."""

    main, side = "theory_points_per_s", "verify_per_s"

    def __init__(self, *a):
        super().__init__(*a)
        z = self.sizes
        offset = float(np.random.default_rng(_seeds(self.seed, 1)[0]).uniform())
        # seeded ray angles, one per sector of [0, pi/2)
        self.rays = [repr((k + offset) * math.pi / (2 * z.pr_rays)) for k in range(z.pr_rays)]

    def run_pass(self):
        z, ops = self.sizes, self.ops
        start = time.perf_counter()
        common = ["--n", str(z.pr_n), "--points", str(z.pr_points)]
        t_thy = 0.0
        for k, theta in enumerate(self.rays):
            for beta in ("1", "2"):
                t_thy += ops.cli(["theory", *common, "--beta", beta, "--theta", theta,
                                  "--out", self.path(f"theory-b{beta}-{k}.csv")])
        t_thy += ops.cli(["theory", *common, "--exact-gaussian", "--theta", "0",
                          "--out", self.path("exact.csv")])
        t_verify = sum(ops.cli(["verify", "--out", self.path("verify.json")]) for _ in range(z.pr_verify))
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "stages": {
                "theory_points_per_s": [(2 * len(self.rays) + 1) * z.pr_points, t_thy],
                "verify_per_s": [z.pr_verify, t_verify],
            },
        }

    def checks(self, rng):
        fine = disk_grid(800, 1024)
        for k in range(len(self.rays)):
            rows = _read_rows(self.path(f"theory-b1-{k}.csv"))
            for i in sorted(rng.choice(len(rows), min(self.sizes.check_rows, len(rows)), replace=False)):
                row = rows[i]
                t, s, n = row["t"], row["s"], row["N"]
                x = math.hypot(t, s)
                from_csv = n * row["e_real_axis"] - (-bessel_j(0, x) + bessel_j(0, abs(t)) / 2 + math.cos(t) / 2)
                ok = abs(from_csv - real_axis_correction_integral(t, s, fine)) <= 1e-9
                yield _result(f"theory-b1-{k} row {i} real-axis integral on 800x1024 grid", ok)
        with open(self.path("verify.json")) as fh:
            yield _result("verify report all_passed", json.load(fh).get("all_passed") is True)


WORKLOADS = {"cold-figure": ColdFigure, "reanalyze": Reanalyze, "predict": Predict}


# ---------------------------------------------------------------------------
# independent output checks


def _result(name, ok):
    return {"name": name, "passed": bool(ok)}


def _rel_close(a, b, rel=1e-12):
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


def _double_sum_k(sset, t, s):
    """mean |L|^2 / N^2 as the double sum over eigenvalue pairs (no per-sample L)."""
    total = 0.0
    for eigs in sset.eigenvalues:
        dx = eigs.real[:, None] - eigs.real[None, :]
        dy = eigs.imag[:, None] - eigs.imag[None, :]
        total += float(np.cos(t * dx + s * dy).sum())
    return total / sset.m / sset.n**2


def _read_rows(path):
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _cache_checks(sset, spec, master_seed, rng):
    n = spec.n
    for i in sorted(rng.choice(sset.m, min(3, sset.m), replace=False)):
        trace = np.trace(sample_matrix(spec, master_seed, int(i)).entries)
        ok = abs(sset.eigenvalues[i].sum() - trace) <= 1e-10 * n
        yield _result(f"cache sample {i} eigenvalue sum equals matrix trace", ok)
    head = min(4, sset.m)
    redrawn = spectra.sample_spectra(spec, head, master_seed, parallelism=1)
    ok = redrawn.eigenvalues.tobytes() == np.ascontiguousarray(sset.eigenvalues[:head]).tobytes()
    yield _result(f"first {head} samples redrawn serially are byte-identical", ok)


def _estimate_checks(sset, csvs, rng, per_file):
    for path in csvs:
        rows = _read_rows(path)
        for i in sorted(rng.choice(len(rows), min(per_file, len(rows)), replace=False)):
            row = rows[i]
            ok = _rel_close(row["k_mean"], _double_sum_k(sset, row["t"], row["s"]))
            yield _result(f"{Path(path).name} row {i} k_mean matches double sum", ok)


def _check_svg(path):
    try:
        ok = ET.parse(path).getroot().tag.endswith("svg")
    except (ET.ParseError, OSError):
        ok = False
    return _result("compare SVG parses as XML", ok)


# ---------------------------------------------------------------------------
# machine block and calibration


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsff_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_block():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "kernel_backend": kernels.backend(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


_CALIBRATION = np.random.default_rng(12345).standard_normal(1 << 16)


def calibrate(duration=0.3):
    """Calls per second of a fixed numpy loop; recorded, never used to scale a metric."""
    calls = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < duration:
        np.exp(1j * _CALIBRATION).sum()
        calls += 1
    return calls / elapsed


def interpreter_starts(count):
    """Wall times of fresh interpreters importing dsff_lab.cli, in this process's environment."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls, which quantizes the measured time
        subprocess.run([sys.executable, "-c", "import dsff_lab.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# the run


def run(workload_name, seed, seconds, trace, workdir, sizes=FULL):
    """One benchmark run; returns (result, detail) as JSON-ready dicts."""
    ops = Ops()
    work = WORKLOADS[workload_name](sizes, seed, workdir, ops)
    machine = machine_block()
    calibration = [calibrate()]

    # set-up is sampled before, halfway through and after the passes, because
    # the host speed drifts over a run; a single sample at the start read far
    # wider from run to run than the passes did
    starts, prepared = [], []

    def set_up():
        starts.extend(interpreter_starts(sizes.starts))
        prepared.append(work.setup(len(prepared)))

    set_up()
    passes = []
    while True:
        passes.append(work.run_pass())
        elapsed = sum(p["wall_s"] for p in passes)
        typical = statistics.median(p["wall_s"] for p in passes)
        # a run cannot end before this: the median pass is at most `elapsed`
        if len(prepared) == 1 and elapsed >= seconds / 2:
            set_up()
        if elapsed + typical > seconds:
            break
    set_up()
    calibration.append(calibrate())
    timed_setups = [p for p in prepared if p is not None]
    setup_s = statistics.median(starts) + (statistics.median(timed_setups) if timed_setups else 0.0)

    def rate(key):
        """Items per second of one stage over all passes of the run."""
        return sum(p["stages"][key][0] for p in passes) / sum(p["stages"][key][1] for p in passes)

    wall_s = statistics.median(p["wall_s"] for p in passes)
    if trace:
        metrics = traced_pass(work, wall_s)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "main_items_per_s": (rate(work.main), "1/s"),
            "side_items_per_s": (rate(work.side), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    rng = np.random.default_rng(_seeds(seed, 3)[2])
    checks = []
    try:
        for check in work.checks(rng):
            checks.append(check)
            if not check["passed"]:
                ops.fail(f"check failed: {check['name']}")
    except Exception:
        ops.fail(f"checks raised: {traceback.format_exc(limit=3)}")
    failed = min(ops.failed, ops.attempted)
    result = {
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(bool(trace)),
        "sizes": asdict(sizes),
        "machine": machine,
        "calibration_calls_per_s": calibration,
        "setup": {"interpreter_starts_s": starts, "input_s": timed_setups, "setup_s": setup_s},
        "passes": passes,
        "stage_rates": {k: rate(k) for k in passes[0]["stages"]},
        "checks": checks,
        "errors": ops.errors,
    }
    return result, detail


LAYER_METRICS = (
    # (metric name, span name, field, unit)
    ("ensembles.sample_matrix.calls", "ensembles.sample_matrix", "calls", "count"),
    ("ensembles.sample_matrix.busy_s", "ensembles.sample_matrix", "busy_s", "s"),
    ("spectra.eigenvalues.calls", "spectra.eigenvalues", "calls", "count"),
    ("spectra.eigenvalues.busy_s", "spectra.eigenvalues", "busy_s", "s"),
    ("spectra.sample_spectra.wall_s", "spectra.sample_spectra", "busy_s", "s"),
    ("spectra.sample_spectra.self_s", "spectra.sample_spectra", "self_s", "s"),
    ("spectra.save_spectra.bytes", "spectra.save_spectra", "bytes", "B"),
    ("spectra.save_spectra.busy_s", "spectra.save_spectra", "busy_s", "s"),
    ("spectra.load_spectra.bytes", "spectra.load_spectra", "bytes", "B"),
    ("spectra.load_spectra.busy_s", "spectra.load_spectra", "busy_s", "s"),
    ("kernels.linear_stat_sums.calls", "kernels.linear_stat_sums", "calls", "count"),
    ("kernels.linear_stat_sums.busy_s", "kernels.linear_stat_sums", "busy_s", "s"),
    ("kernels.linear_stat_sums.phase_terms", "kernels.linear_stat_sums", "phase_terms", "count"),
    ("kernels.linear_stat_sums.bytes_computed", "kernels.linear_stat_sums", "bytes_computed", "B"),
    ("kernels.linear_stat_sums.minor_faults", "kernels.linear_stat_sums", "minor_faults", "count"),
    ("kernels.linear_stat_sums.sys_s", "kernels.linear_stat_sums", "sys_s", "s"),
    ("estimator.dsff_grid.self_s", "estimator.dsff_grid", "self_s", "s"),
    ("estimator.dsff_point.calls", "estimator.dsff_point", "calls", "count"),
    ("estimator.dsff_point.self_s", "estimator.dsff_point", "self_s", "s"),
    ("estimator.estimate_from_linear_stats.calls", "estimator.estimate_from_linear_stats", "calls", "count"),
    ("estimator.estimate_from_linear_stats.busy_s", "estimator.estimate_from_linear_stats", "busy_s", "s"),
    ("theory.dsff_theory.calls", "theory.dsff_theory", "calls", "count"),
    ("theory.dsff_theory.self_s", "theory.dsff_theory", "self_s", "s"),
    ("quadrature.real_axis_correction_integral.calls", "quadrature.real_axis_correction_integral", "calls", "count"),
    ("quadrature.real_axis_correction_integral.busy_s", "quadrature.real_axis_correction_integral", "busy_s", "s"),
    ("quadrature.real_axis_correction_integral.nodes", "quadrature.real_axis_correction_integral", "nodes", "count"),
    ("quadrature.real_axis_correction_integral.minor_faults", "quadrature.real_axis_correction_integral",
     "minor_faults", "count"),
    ("bessel.weighted_bessel_series.calls", "bessel.weighted_bessel_series", "calls", "count"),
    ("bessel.weighted_bessel_series.busy_s", "bessel.weighted_bessel_series", "busy_s", "s"),
    ("bessel.bessel_j.calls", "bessel.bessel_j", "calls", "count"),
    ("bessel.bessel_j.busy_s", "bessel.bessel_j", "busy_s", "s"),
    *((f"verify.suite_{s}.busy_s", f"verify.suite_{s}", "busy_s", "s")
      for s in ("bessel", "quadrature", "theory", "estimator")),
    ("svgplot.render_loglog.busy_s", "svgplot.render_loglog", "busy_s", "s"),
    *((f"cli.{c}.self_s", f"cli.{c}", "self_s", "s")
      for c in ("sample", "estimate", "theory", "compare", "verify")),
)


def traced_pass(work, untraced_wall_s):
    """One pass with every public function wrapped; returns the per-layer metrics."""
    tracer = Tracer()
    work.ops.tracer = tracer
    instrument(tracer)
    try:
        traced_wall = work.run_pass()["wall_s"]
    finally:
        tracer.restore()
        work.ops.tracer = None
    rows = tracer.summary()
    metrics = {
        name: (rows.get(span, {}).get(key, 0), unit) for name, span, key, unit in LAYER_METRICS
    }
    kern = rows.get("kernels.linear_stat_sums")
    metrics["kernels.linear_stat_sums.phase_terms_per_s"] = (
        kern["phase_terms"] / kern["busy_s"] if kern else 0.0, "1/s")
    sampled = rows.get("spectra.sample_spectra")
    serial = work.serial_sample_s() if sampled else None
    metrics["spectra.sample_spectra.parallel_speedup"] = (
        serial / sampled["busy_s"] if serial else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
    return metrics


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description="one dsff-lab benchmark run (start it through run.py)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=_nonnegative_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace, args.workdir)
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
