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
MAX_PHASE), 3 cache or file trouble (including grid mismatch and non-finite
cache payloads). Run diagnostics (sampling and estimation throughput,
spectral radius, the estimator's route) go to stderr only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import SCHEMA, __version__
from .ensembles import DISTRIBUTIONS, FIELDS, EnsembleSpec
from .estimator import build_tau_grid, dsff_grid, ray_order
from .spectra import (
    EigensolverError,
    SpectraError,
    load_spectra,
    sample_spectra,
    save_spectra,
    solver_processes,
)
from .svgplot import PALETTE, render_loglog
from .theory import ComplexTime, dsff_theory, ginibre_exact_dsff, timescales
from .verify import run_suites

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

THEORY_COLUMNS = (
    "theta",
    "abs_tau",
    "t",
    "s",
    "k_total",
    "disconnected",
    "connected",
    "e_leading",
    "e_laplacian",
    "e_kappa4",
    "e_real_axis",
    "v_gradient",
    "v_real_ramp",
    "v_series",
    "v_kappa4",
    "validity_warning",
    "N",
)

EXACT_COLUMNS = ("theta", "abs_tau", "t", "s", "k_total", "contact", "disconnected", "connected", "N")

COMPARE_COLUMNS = ("theta", "abs_tau", "t", "s", "k_mean", "k_stderr", "k_total", "z")

# Largest tau_max * rho `estimate` accepts: phases t*Re(lambda) + s*Im(lambda)
# then carry a rounding error of about 1e8 * 2^-53 ~ 1e-8 rad.
MAX_PHASE = 1e8


class GridMismatchError(Exception):
    """Estimate and theory CSVs disagree on the tau grid."""


class CsvFormatError(Exception):
    """An input CSV is not in the format this tool writes."""


# ---------------------------------------------------------------------------
# formatting and small IO helpers


def _fmt(v):
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _config_line(obj):
    return "# config: " + json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_text(config, columns, rows):
    lines = ["# " + SCHEMA, _config_line(config), ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
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
    rho = sset.spectral_radius
    print(f"spectral radius rho={rho:.6g}", file=sys.stderr)
    reach = tau_max * rho
    if reach > MAX_PHASE:
        raise ValueError(
            f"tau_max * rho = {reach:.3g} exceeds the phase limit {MAX_PHASE:g} "
            f"(rho={rho:.6g}); past it the phase rounding error exceeds ~1e-8 rad"
        )
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
    order = ray_order(sset, taus)
    route = "route=pointwise" if order is None else f"route=ray order={order}"
    print(
        f"estimated points={len(estimates)} seconds={elapsed:.3f} "
        f"points_per_s={len(estimates) / elapsed:.4g} {route}",
        file=sys.stderr,
    )
    return 0


def _cmd_theory(args):
    if args.exact_gaussian and args.beta != 2:
        raise ValueError("--exact-gaussian models complex gaussian entries only (beta 2)")
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
    rows = []
    if args.exact_gaussian:
        for tau in taus:
            g = ginibre_exact_dsff(tau, args.n)
            rows.append(
                (tau.theta, tau.abs_tau, tau.t, tau.s, g.k_total, g.contact, g.disconnected, g.connected, args.n)
            )
        _write_text(args.out, _csv_text(config, EXACT_COLUMNS, rows))
        return 0
    for tau in taus:
        p = dsff_theory(tau, args.n, kappa4=args.kappa4, beta=args.beta)
        rows.append(
            (
                tau.theta,
                tau.abs_tau,
                tau.t,
                tau.s,
                p.k_total,
                p.disconnected,
                p.connected,
                p.e_terms["leading"],
                p.e_terms["laplacian"],
                p.e_terms["kappa4"],
                p.e_terms["real_axis"],
                p.v_terms["gradient"],
                p.v_terms["real_ramp"],
                p.v_terms["series"],
                p.v_terms["kappa4"],
                p.validity_warning,
                args.n,
            )
        )
    _write_text(args.out, _csv_text(config, THEORY_COLUMNS, rows))
    return 0


def _z_score(diff, stderr):
    if math.isnan(stderr):
        return float("nan")
    if stderr == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / stderr


def _cmd_compare(args):
    est_needed = ["theta", "abs_tau", "t", "s", "k_mean", "k_stderr"]
    thy_needed = ["t", "s", "k_total"]
    if args.subtract_disconnected:
        est_needed.append("disconnected_unbiased")
        thy_needed.append("disconnected")
    est_rows = _read_csv(args.estimate, est_needed)
    thy_rows = _read_csv(args.theory, thy_needed)
    if len(est_rows) != len(thy_rows):
        raise GridMismatchError(
            f"grid mismatch: {len(est_rows)} estimate rows vs {len(thy_rows)} theory rows"
        )
    merged = []
    for i, (er, tr) in enumerate(zip(est_rows, thy_rows)):
        if abs(er["t"] - tr["t"]) > 1e-9 or abs(er["s"] - tr["s"]) > 1e-9:
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


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text):
    value = int(text)
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2^64), got {text!r}")
    return value


def _add_grid_arguments(sub):
    sub.add_argument("--theta", type=_finite_float, default=0.0, help="ray angle in the (t, s) plane")
    sub.add_argument("--tau-min", type=_finite_float, default=0.1)
    sub.add_argument("--tau-max", type=_finite_float, default=None, help="default: twice the plateau onset sqrt(N)")
    sub.add_argument("--points", type=_positive_int, default=120)
    sub.add_argument("--spacing", choices=("log", "linear"), default="log")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dsff-lab",
        description="Dissipative spectral form factor laboratory: sampling, estimation, predictions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("sample", help="sample spectra of i.i.d. random matrices into a cache file")
    p.add_argument("--n", type=_positive_int, required=True, help="matrix dimension")
    p.add_argument("--m", type=_positive_int, required=True, help="number of independent samples")
    p.add_argument("--field", choices=FIELDS, default="complex")
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default="gaussian")
    p.add_argument("--seed", type=_seed, default=None, help="master seed (default: OS entropy, echoed)")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", required=True, help="cache path (relative paths honor DSFF_LAB_CACHE_DIR)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate the form factor from a spectrum cache")
    p.add_argument("--spectra", required=True, help="cache file from `sample`")
    _add_grid_arguments(p)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("theory", help="evaluate the analytic predictions on a tau grid")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--beta", type=int, choices=(1, 2), default=2)
    p.add_argument("--kappa4", type=_finite_float, default=0.0, help="fourth cumulant of the entry law")
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
        choices=("bessel", "quadrature", "theory", "estimator"),
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
