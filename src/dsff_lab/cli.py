"""Command-line front end.

Five subcommands cover the workflow end to end: `sample` draws spectra into a
binary cache, `estimate` turns a cache into a DSFF curve, `theory` evaluates
the analytic predictions on the same grid, `compare` merges the two with
z-scores (optionally plotting an SVG), and `verify` runs the deterministic
invariant suites.

CSV outputs start with two comment lines, the schema tag and a canonical-JSON
config echo, so every file records how it was produced. Floats are written
with repr (shortest round-trip form); reruns with identical inputs are
byte-identical.

Exit codes: 0 success, 1 eigensolver failure or failed verification,
2 bad arguments (including an `estimate` grid whose tau_max * rho exceeds
estimator.MAX_PHASE), 3 cache or file trouble (including grid mismatch and non-finite
cache payloads). Run diagnostics (sampling and estimation throughput,
spectral radius, the estimator's route) go to stderr only.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import SCHEMA, __version__
from .ensembles import DISTRIBUTIONS, FIELDS, EnsembleSpec
from .estimator import build_tau_grid, dsff_grid
from .spectra import (
    EigensolverError,
    SpectraError,
    load_spectra,
    sample_spectra,
    save_spectra,
    solver_processes,
)
from .svgplot import PALETTE, render_loglog
from .theory import dsff_theory_grid, ginibre_exact_dsff_grid, timescales

# Unused here: perfbench/tracing.py wraps these two names on this module and
# fails if either is missing.
from .theory import dsff_theory, ginibre_exact_dsff  # noqa: F401
from .verify import SUITES, run_suites

__all__ = ["main"]

ESTIMATE_COLUMNS = (
    "theta",
    "abs_tau",
    "t",
    "s",
    "k_mean",
    "k_stderr",
    "disconnected_unbiased",
    "connected",
    "contact",
    "M",
    "N",
)

COMPARE_COLUMNS = ("theta", "abs_tau", "t", "s", "k_mean", "k_stderr", "k_total", "z")


class GridMismatchError(Exception):
    """Estimate and theory CSVs disagree on the tau grid."""


class CsvFormatError(Exception):
    """An input CSV is not in the format this tool writes."""


# ---------------------------------------------------------------------------
# formatting and small IO helpers


def _config_line(obj):
    return "# config: " + json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_text(config, columns, rows):
    """CSV text of rows of Python floats and ints, each value in its repr."""
    lines = ["# " + SCHEMA, _config_line(config), ",".join(columns)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cache_path(path):
    if os.path.isabs(path):
        return path
    base = os.environ.get("DSFF_LAB_CACHE_DIR")
    return os.path.join(base, path) if base else path


def _read_csv(path, needed):
    """Row dicts of a CSV written by this tool; CsvFormatError if malformed or lacking `needed` columns."""
    header = None
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("# config: "):
                    json.loads(line[len("# config: "):])
                if not line or line.startswith("#"):
                    continue
                if header is None:
                    header = line.split(",")
                    missing = [c for c in needed if c not in header]
                    if missing:
                        raise CsvFormatError(f"{path}: missing columns {missing}")
                    continue
                values = line.split(",")
                if len(values) != len(header):
                    raise CsvFormatError(f"{path}: row has {len(values)} fields, header has {len(header)}")
                rows.append({k: float(v) for k, v in zip(header, values)})
    except ValueError as exc:  # undecodable bytes, bad config JSON, non-numeric field
        raise CsvFormatError(f"{path}: {exc}") from exc
    if header is None:
        raise CsvFormatError(f"{path}: no header row found")
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _grid_from_args(args, n):
    tau_max = args.tau_max if args.tau_max is not None else 2.0 * timescales(n).tau_hei
    return build_tau_grid(args.theta, args.tau_min, tau_max, args.points, args.spacing), tau_max


def _cmd_sample(args):
    spec = EnsembleSpec(field=args.field, distribution=args.distribution, n=args.n)
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "little")
    start = time.perf_counter()
    sset = sample_spectra(spec, args.m, seed, parallelism=args.workers)
    elapsed = time.perf_counter() - start
    path = _cache_path(args.out)
    save_spectra(sset, path)
    print(f"wrote {path}: M={sset.m} N={sset.n} {args.field}/{args.distribution} seed={seed}")
    print(
        f"sampled M={sset.m} seconds={elapsed:.3f} samples_per_s={sset.m / elapsed:.4g} "
        f"processes={solver_processes(args.m, args.workers)}",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate(args):
    sset = load_spectra(_cache_path(args.spectra))
    taus, tau_max = _grid_from_args(args, sset.n)
    print(f"spectral radius rho={sset.spectral_radius:.6g}", file=sys.stderr)
    config = {
        "command": "estimate",
        "m": sset.m,
        "master_seed": sset.master_seed,
        "points": args.points,
        "spacing": args.spacing,
        "spec": json.loads(sset.spec.canonical_json()),
        "tau_max": tau_max,
        "tau_min": args.tau_min,
        "theta": args.theta,
        "version": __version__,
    }
    start = time.perf_counter()
    estimates = dsff_grid(sset, taus)
    elapsed = time.perf_counter() - start
    rows = [
        (
            est.tau.theta,
            est.tau.abs_tau,
            est.tau.t,
            est.tau.s,
            est.k_mean,
            est.k_stderr,
            est.disconnected_unbiased,
            est.connected,
            est.contact,
            est.m,
            sset.n,
        )
        for est in estimates
    ]
    _write_text(args.out, _csv_text(config, ESTIMATE_COLUMNS, rows))
    order = estimates[0].ray_order
    route = "route=pointwise" if order is None else f"route=ray order={order}"
    print(
        f"estimated points={len(estimates)} seconds={elapsed:.3f} "
        f"points_per_s={len(estimates) / elapsed:.4g} {route}",
        file=sys.stderr,
    )
    return 0


def _theory_columns(prediction):
    terms = [f"e_{name}" for name in prediction.e_terms] + [f"v_{name}" for name in prediction.v_terms]
    return ("theta", "abs_tau", "t", "s", "k_total", "disconnected", "connected", *terms, "validity_warning", "N")


def _theory_row(p):
    tau = p.tau
    return (
        tau.theta,
        tau.abs_tau,
        tau.t,
        tau.s,
        p.k_total,
        p.disconnected,
        p.connected,
        *p.e_terms.values(),
        *p.v_terms.values(),
        int(p.validity_warning),
        p.n,
    )


def _cmd_theory(args):
    if args.exact_gaussian and args.beta != 2:
        raise ValueError("--exact-gaussian models complex gaussian entries only (beta 2)")
    if args.exact_gaussian and args.kappa4 != 0.0:
        raise ValueError("--exact-gaussian models gaussian entries only (kappa4 0)")
    taus, tau_max = _grid_from_args(args, args.n)
    config = {
        "beta": args.beta,
        "command": "theory-exact-gaussian" if args.exact_gaussian else "theory",
        "kappa4": args.kappa4,
        "n": args.n,
        "points": args.points,
        "spacing": args.spacing,
        "tau_max": tau_max,
        "tau_min": args.tau_min,
        "theta": args.theta,
        "version": __version__,
    }
    if args.exact_gaussian:
        predictions = ginibre_exact_dsff_grid(taus, args.n)
    else:
        predictions = dsff_theory_grid(taus, args.n, kappa4=args.kappa4, beta=args.beta)
    rows = [_theory_row(p) for p in predictions]
    _write_text(args.out, _csv_text(config, _theory_columns(predictions[0]), rows))
    return 0


def _z_score(diff, stderr):
    if math.isnan(stderr):
        return float("nan")
    if stderr == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / stderr


def _cmd_compare(args):
    est_needed = ["theta", "abs_tau", "t", "s", "k_mean", "k_stderr"]
    thy_needed = ["t", "s", "k_total", "validity_warning", "N"]
    if args.subtract_disconnected:
        est_needed.append("disconnected_unbiased")
        thy_needed.append("disconnected")
    est_rows = _read_csv(args.estimate, est_needed)
    thy_rows = _read_csv(args.theory, thy_needed)
    if len(est_rows) != len(thy_rows):
        raise GridMismatchError(
            f"grid mismatch: {len(est_rows)} estimate rows vs {len(thy_rows)} theory rows"
        )
    n = thy_rows[0]["N"] if thy_rows else 1.0
    if not (1.0 <= n < math.inf and all(tr["N"] == n for tr in thy_rows)):
        raise CsvFormatError(f"{args.theory}: N must be one finite value of at least 1")
    merged = []
    for i, (er, tr) in enumerate(zip(est_rows, thy_rows)):
        # written so that a NaN coordinate is a mismatch
        if not (abs(er["t"] - tr["t"]) <= 1e-9 and abs(er["s"] - tr["s"]) <= 1e-9):
            raise GridMismatchError(
                f"grid mismatch at row {i}: estimate tau=({er['t']},{er['s']}) "
                f"vs theory tau=({tr['t']},{tr['s']})"
            )
        z = _z_score(er["k_mean"] - tr["k_total"], er["k_stderr"])
        merged.append(
            (er["theta"], er["abs_tau"], er["t"], er["s"], er["k_mean"], er["k_stderr"], tr["k_total"], z)
        )
    config = {
        "command": "compare",
        "estimate": os.path.basename(args.estimate),
        "subtract_disconnected": bool(args.subtract_disconnected),
        "theory": os.path.basename(args.theory),
        "version": __version__,
    }
    _write_text(args.out, _csv_text(config, COMPARE_COLUMNS, merged))

    z_vals = [row[7] for row in merged if math.isfinite(row[7])]
    within = sum(1 for z in z_vals if abs(z) <= 3.0)
    if z_vals:
        pct = 100.0 * within / len(z_vals)
        max_z = max(abs(z) for z in z_vals)
        print(
            f"rows={len(merged)} within_3sigma={within}/{len(z_vals)} ({pct:.1f}%) max_abs_z={max_z:.2f}",
            file=sys.stderr,
        )
    else:
        print(f"rows={len(merged)} (no finite z-scores)", file=sys.stderr)
    # the same tally by regime: below the dissipation time N^(2/5), up to the
    # Heisenberg time sqrt(N), and beyond it
    edge, hei = n**0.4, math.sqrt(n)
    tally = [[0, 0], [0, 0], [0, 0]]
    for row in merged:
        if math.isfinite(row[7]):
            regime = tally[(row[1] >= edge) + (row[1] >= hei)]
            regime[0] += abs(row[7]) <= 3.0
            regime[1] += 1
    (a, b), (c, d), (e, f) = tally
    warned = sum(1 for tr in thy_rows if tr["validity_warning"] != 0.0)
    print(
        f"within_3sigma by regime: |tau|<{edge:.4g} {a}/{b}, {edge:.4g}<=|tau|<{hei:.4g} {c}/{d}, "
        f"|tau|>={hei:.4g} {e}/{f}; validity_warning rows={warned}",
        file=sys.stderr,
    )

    if args.svg:
        if args.subtract_disconnected:
            thy_y = [tr["k_total"] - tr["disconnected"] for tr in thy_rows]
            est_y = [er["k_mean"] - er["disconnected_unbiased"] for er in est_rows]
            title, ylabel = "connected form factor", "K - disconnected"
        else:
            thy_y = [tr["k_total"] for tr in thy_rows]
            est_y = [er["k_mean"] for er in est_rows]
            title, ylabel = "dissipative spectral form factor", "K"
        abs_taus = [er["abs_tau"] for er in est_rows]  # grids already matched
        series = [
            {
                "label": "prediction",
                "color": PALETTE[0],
                "kind": "line",
                "x": abs_taus,
                "y": thy_y,
            },
            {
                "label": "estimate",
                "color": PALETTE[1],
                "kind": "points",
                "x": abs_taus,
                "y": est_y,
                "yerr": [er["k_stderr"] for er in est_rows],
            },
        ]
        render_loglog(args.svg, series, title=title, xlabel="|tau|", ylabel=ylabel)
    return 0


def _cmd_verify(args):
    seconds = {}
    report = run_suites(args.suite or None, seconds)
    # wall times go to stderr only: the report must stay deterministic
    print(
        "suite seconds: " + ", ".join(f"{name} {sec:.3f}" for name, sec in seconds.items()),
        file=sys.stderr,
    )
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    total = sum(len(cs) for cs in report["suites"].values())
    failed = [
        f"{s}.{c['name']}" for s, cs in report["suites"].items() for c in cs if not c["passed"]
    ]
    if failed:
        print(f"{total} checks, {len(failed)} failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"{total} checks across {len(report['suites'])} suites, all passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_grid_arguments(sub):
    sub.add_argument("--theta", type=float, default=0.0, help="ray angle in the (t, s) plane")
    sub.add_argument("--tau-min", type=float, default=0.1)
    sub.add_argument("--tau-max", type=float, default=None, help="default: twice the plateau onset sqrt(N)")
    sub.add_argument("--points", type=int, default=120)
    sub.add_argument("--spacing", choices=("log", "linear"), default="log")


@functools.cache
def build_parser():
    """The dsff-lab parser, built once per process.

    parse_args leaves the parser as it is and fills a fresh namespace on each
    call, and the subcommand functions look up the pipeline functions in this
    module when they run, so reusing the parser changes no call's outcome.
    """
    parser = argparse.ArgumentParser(
        prog="dsff-lab",
        description="Dissipative spectral form factor laboratory: sampling, estimation, predictions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("sample", help="sample spectra of i.i.d. random matrices into a cache file")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--m", type=int, required=True, help="number of independent samples")
    p.add_argument("--field", choices=FIELDS, default="complex")
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default="gaussian")
    p.add_argument("--seed", type=int, default=None, help="master seed (default: OS entropy, echoed)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="cache path (relative paths honor DSFF_LAB_CACHE_DIR)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate the form factor from a spectrum cache")
    p.add_argument("--spectra", required=True, help="cache file from `sample`")
    _add_grid_arguments(p)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("theory", help="evaluate the analytic predictions on a tau grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=int, choices=(1, 2), default=2)
    p.add_argument("--kappa4", type=float, default=0.0, help="fourth cumulant of the entry law")
    p.add_argument(
        "--exact-gaussian",
        action="store_true",
        help="exact complex-gaussian asymptotic instead of the general formula",
    )
    _add_grid_arguments(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("compare", help="merge estimate and theory CSVs with z-scores")
    p.add_argument("--estimate", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None, help="also render a log-log chart to this path")
    p.add_argument(
        "--subtract-disconnected",
        action="store_true",
        help="plot the connected part (both routes minus their disconnected term)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run the deterministic invariant suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=tuple(SUITES),
        help="repeatable; default: all suites",
    )
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except EigensolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpectraError, OSError, GridMismatchError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
