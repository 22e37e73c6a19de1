"""Acceptance gate: six criteria, one test each, one report line each.

Beside them, one more test holds beta=1 theory to real-gaussian data on
three rays at once, where the boundary term's angular dependence shows.

The heavyweight spectrum sets live in the session disk cache (see conftest);
the first run samples them (minutes of dense eigendecompositions), later
runs load bytes. Criterion A1 is evaluated exactly as stated; see the
companion pipeline-agreement test for the same comparison restricted to the
regime below the plateau onset, where the prediction is designed to hold.
"""
import math

import numpy as np
import pytest

from dsff_lab.cli import main
from dsff_lab.estimator import build_tau_grid, dsff_grid, dsff_point
from dsff_lab.spectra import SpectrumSet
from dsff_lab.theory import ComplexTime, dsff_theory, dsff_theory_grid
from dsff_lab.verify import run_suites

N_BIG = 256
M_FULL = 4000
M_A1 = 1000
SEED_COMPLEX = 2026
SEED_REAL = 2027

N_A4 = 128
M_A4 = 20000
SEED_A4_RADEMACHER = 2029
SEED_A4_GAUSSIAN = 2028

# -2 (2 J_1(1) - J_0(1))^2, frozen from 30-digit arithmetic
A4_TARGET = -0.026405621698990963


def _slice(sset, m):
    # per-index seeding makes the first m samples of a larger set identical
    # to an m-sample run, so one cache serves both
    return SpectrumSet(spec=sset.spec, master_seed=sset.master_seed, eigenvalues=sset.eigenvalues[:m])


@pytest.fixture(scope="module")
def complex_big(spectra_cache):
    return spectra_cache("complex", "gaussian", N_BIG, M_FULL, SEED_COMPLEX)


@pytest.fixture(scope="module")
def real_big(spectra_cache):
    return spectra_cache("real", "gaussian", N_BIG, M_FULL, SEED_REAL)


def _within_three_sigma(sset, taus, n, beta):
    hits, worst = 0, 0.0
    for est in dsff_grid(sset, taus):
        k_total = dsff_theory(est.tau, n, kappa4=0.0, beta=beta).k_total
        z = (est.k_mean - k_total) / est.k_stderr
        worst = max(worst, abs(z))
        if abs(z) <= 3.0:
            hits += 1
    return hits, worst


def test_a1_figure_grid_complex_gaussian(complex_big, acceptance_report):
    sset = _slice(complex_big, M_A1)
    taus = build_tau_grid(0.0, 0.3, 25.0, 80, "log")
    hits, worst = _within_three_sigma(sset, taus, N_BIG, beta=2)
    passed = hits >= math.ceil(0.95 * 80)
    acceptance_report(
        f"A1 theory-vs-estimate on [0.3, 25], N=256, M=1000: "
        f"{'PASS' if passed else 'FAIL'} ({hits}/80 within 3 sigma, worst |z|={worst:.1f})"
    )
    # the prediction has no plateau saturation, so it overshoots the data
    # beyond |tau| ~ sqrt(N) ~ 16 and this criterion cannot be met on a grid
    # reaching 25; see notes in the repository history for the analysis
    assert passed, (
        f"only {hits}/80 grid points within 3 sigma (need 76); the deviations "
        "are systematic beyond |tau| ~ sqrt(N), where the variance-plus-"
        "squared-mean prediction keeps growing while the data plateaus"
    )


def test_a1_companion_below_plateau_onset(complex_big, acceptance_report):
    # same comparison restricted to |tau| <= 15 < sqrt(N): the regime the
    # prediction is meant for; this is a pipeline check, not criterion A1
    sset = _slice(complex_big, M_A1)
    taus = build_tau_grid(0.0, 0.3, 15.0, 60, "log")
    hits, worst = _within_three_sigma(sset, taus, N_BIG, beta=2)
    passed = hits >= math.ceil(0.95 * 60)
    acceptance_report(
        f"A1-companion on [0.3, 15]: {'PASS' if passed else 'FAIL'} "
        f"({hits}/60 within 3 sigma, worst |z|={worst:.1f})"
    )
    assert passed


def test_a2_contact_plateau(complex_big, acceptance_report):
    sset = _slice(complex_big, M_A1)
    details = []
    passed = True
    for mult in (5.0, 10.0):
        tau = ComplexTime.from_polar(mult * math.sqrt(N_BIG), 0.0)
        est = dsff_point(sset, tau)
        z = (est.k_mean - 1.0 / N_BIG) / est.k_stderr
        details.append(f"|tau|={tau.abs_tau:.0f}: z={z:+.2f}")
        passed = passed and abs(z) <= 3.0
    acceptance_report(
        f"A2 plateau at 1/N: {'PASS' if passed else 'FAIL'} ({'; '.join(details)})"
    )
    assert passed


def test_a3_symmetry_class_ratio(complex_big, real_big, acceptance_report):
    abs_tau = 1.5 * N_BIG ** 0.4
    details = []
    passed = True
    for theta, center in ((0.0, 2.0), (math.pi / 4.0, 1.0)):
        tau = ComplexTime.from_polar(abs_tau, theta)
        est_r = dsff_point(real_big, tau)
        est_c = dsff_point(complex_big, tau)
        ratio = est_r.connected / est_c.connected
        sigma = ratio * math.hypot(
            est_r.connected_stderr / est_r.connected,
            est_c.connected_stderr / est_c.connected,
        )
        delta = 3.0 * sigma
        ok = center - delta <= ratio <= center + delta
        passed = passed and ok
        details.append(f"theta={theta:.2f}: ratio={ratio:.3f} vs {center:.0f}+-{delta:.3f}")
    acceptance_report(
        f"A3 real/complex connected ratio: {'PASS' if passed else 'FAIL'} ({'; '.join(details)})"
    )
    assert passed


def test_a4_fourth_cumulant_shift(spectra_cache, acceptance_report):
    tau = ComplexTime(1.0, 0.0)
    rad = dsff_point(spectra_cache("real", "rademacher", N_A4, M_A4, SEED_A4_RADEMACHER), tau)
    gau = dsff_point(spectra_cache("real", "gaussian", N_A4, M_A4, SEED_A4_GAUSSIAN), tau)
    n2 = float(N_A4) ** 2
    measured = (rad.connected - gau.connected) * n2
    sigma = math.hypot(rad.connected_stderr, gau.connected_stderr) * n2
    passed = abs(measured - A4_TARGET) <= 3.0 * sigma
    acceptance_report(
        f"A4 connected-variance shift at tau=(1,0): {'PASS' if passed else 'FAIL'} "
        f"(measured {measured:+.4f} vs {A4_TARGET:+.4f}, 3 sigma = {3 * sigma:.4f})"
    )
    assert passed


def test_a5_deterministic_identity_suites(acceptance_report):
    report = run_suites()
    failed = [
        f"{s}.{c['name']}"
        for s, cs in report["suites"].items()
        for c in cs
        if not c["passed"]
    ]
    total = sum(len(cs) for cs in report["suites"].values())
    acceptance_report(
        f"A5 identity suites: {'PASS' if not failed else 'FAIL'} "
        f"({total - len(failed)}/{total} checks)"
    )
    assert not failed, f"failed checks: {failed}"


def test_real_connected_part_on_three_rays(real_big, acceptance_report):
    # beta=1 theory against real-gaussian data in its proven range |tau| <=
    # N^(2/7), on the rays theta = 0, pi/4 and pi/2 of one dsff_grid call:
    # the boundary term of Var L depends on the angle through cos^2(k theta)
    taus = [tau for theta in (0.0, math.pi / 4, math.pi / 2)
            for tau in build_tau_grid(theta, 0.5, N_BIG ** (2.0 / 7.0), 6)]
    predictions = dsff_theory_grid(taus, N_BIG, kappa4=0.0, beta=1)
    z = [abs(est.connected - p.connected) / est.connected_stderr
         for est, p in zip(dsff_grid(real_big, taus), predictions)]
    hits = sum(1 for v in z if v <= 3.0)
    passed = hits >= math.ceil(0.95 * len(taus))
    acceptance_report(
        f"beta=1 connected on three rays, |tau| <= N^(2/7), N=256, M=4000: "
        f"{'PASS' if passed else 'FAIL'} ({hits}/{len(taus)} within 3 sigma, worst |z|={max(z):.1f})"
    )
    assert passed


def test_a6_worker_count_reproducibility(tmp_path, acceptance_report):
    outputs = {}
    for workers in (1, 3):
        cache = tmp_path / f"w{workers}.bin"
        csv = tmp_path / f"w{workers}.csv"
        assert main([
            "sample", "--n", "24", "--m", "10", "--seed", "77",
            "--workers", str(workers), "--out", str(cache),
        ]) == 0
        assert main([
            "estimate", "--spectra", str(cache), "--tau-min", "0.5",
            "--tau-max", "8", "--points", "12", "--out", str(csv),
        ]) == 0
        outputs[workers] = (cache.read_bytes(), csv.read_bytes())
    same_cache = outputs[1][0] == outputs[3][0]
    # the CSV config echoes no file paths, so it must match byte for byte too
    same_csv = outputs[1][1] == outputs[3][1]
    passed = same_cache and same_csv
    acceptance_report(
        f"A6 worker-count reproducibility: {'PASS' if passed else 'FAIL'} "
        f"(cache bytes {'match' if same_cache else 'differ'}, CSV {'matches' if same_csv else 'differs'})"
    )
    assert passed
