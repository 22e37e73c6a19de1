"""Deterministic invariant suites behind `dsff-lab verify`.

Each check compares a quantity computed one way against an independent route
(identity, closed form, or brute force) and records value, tolerance, and
verdict. Everything is seeded; no check depends on wall-clock, ordering, or
worker counts, and the suites' wall times stay out of the report. The
acceptance tests reuse these suites for the fast deterministic gate.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

# dsff_point and real_axis_correction_integral are looked up on their
# modules at each call, so a wrapper installed there (perfbench/tracing.py)
# also sees the calls made here
from . import estimator, quadrature
from .bessel import bessel_j, bessel_j_row, truncation_order, weighted_bessel_series
from .ensembles import EnsembleSpec
from .estimator import estimate_from_linear_stats
from .spectra import SpectrumSet
from .theory import ComplexTime, dsff_theory, dsff_theory_grid, ginibre_exact_dsff, timescales

__all__ = ["Check", "SUITES", "k_simplified", "run_suites"]


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


def _check(name, deviation, tolerance, detail=""):
    deviation = float(deviation)
    return Check(
        name=name,
        value=deviation,
        tolerance=float(tolerance),
        passed=bool(deviation <= tolerance),
        detail=detail,
    )


def k_simplified(p):
    """dsff_theory's reduced form 4J_1^2/|tau|^2 + (|tau|^2/4 + anisotropy)/N^2, 1 at tau = 0.

    From p's terms, leading^2 + (gradient + real_ramp)/N^2: the anisotropy is real_ramp, 0 at beta=2.
    """
    e, v = p.e_terms, p.v_terms
    return e["leading"] ** 2 + (v["gradient"] + v["real_ramp"]) / p.n**2


# ---------------------------------------------------------------------------


def suite_bessel():
    checks = []
    xs = [0.5, 3.0, 7.5, 12.0, 25.0, 50.0]

    dev = max(
        abs(bessel_j(-n, x) - (-1.0) ** n * bessel_j(n, x))
        for n in (1, 2, 5, 8)
        for x in (0.7, 13.0)
    )
    checks.append(_check("reflection_negative_order", dev, 0.0, "J_-n = (-1)^n J_n, same route"))

    dev = 0.0
    for x in xs:
        row = bessel_j_row(truncation_order(x), x)
        even_sum = row[0] + 2.0 * row[2::2].sum()
        dev = max(dev, abs(even_sum - 1.0))
    checks.append(_check("even_order_sum_rule", dev, 1e-10, "J_0 + 2 sum J_2k = 1"))

    # the sum rule above restates the recurrence's own normalization; Bessel's
    # integral checks the values without it, on 64 Gauss-Legendre nodes
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * math.pi * (nodes + 1.0)
    dev = max(
        abs(0.5 * (weights @ np.cos(n * theta - x * np.sin(theta))) - bessel_j(n, x))
        for n in (0, 1, 2, 5)
        for x in (0.5, 7.5, 25.0)
    )
    checks.append(
        _check("bessel_integral", dev, 1e-12, "J_n(x) = (1/pi) int_0^pi cos(n theta - x sin theta)")
    )

    dev = 0.0
    for x in xs:
        row = bessel_j_row(truncation_order(x), x)
        sq = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        dev = max(dev, abs(sq - 1.0))
    checks.append(_check("squared_sum_unity", dev, 1e-10, "sum_k J_k^2 = 1"))

    dev = max(
        abs(weighted_bessel_series(x, "k_squared") - x * x / 2.0) / (x * x / 2.0)
        for x in (1.0, 4.0, 15.0, 40.0)
    )
    checks.append(_check("k_squared_sum_relative", dev, 1e-8, "sum k^2 J_k^2 = x^2/2"))

    dev = max(
        weighted_bessel_series(x, "abs_k") - x / math.sqrt(2.0)
        for x in (0.5, 1.0, 4.0, 15.0, 40.0)
    )
    checks.append(
        _check("abs_k_sum_upper_bound", max(dev, 0.0), 1e-12, "sum |k| J_k^2 <= x/sqrt(2)")
    )

    # the value itself, not only its bound: the beta=2 variance series
    dev = 0.0
    for x in (0.5, 1.0, 4.0, 15.0, 40.0):
        j0, j1 = bessel_j(0, x), bessel_j(1, x)
        closed = x * x * (j0 * j0 + j1 * j1) - x * j0 * j1
        dev = max(dev, abs(weighted_bessel_series(x, "abs_k") - closed) / closed)
    checks.append(
        _check("abs_k_sum_closed_form", dev, 1e-12, "sum |k| J_k^2 = x^2 (J_0^2 + J_1^2) - x J_0 J_1")
    )

    dev = 0.0
    for x in (1.7, 6.0):
        row = bessel_j_row(truncation_order(x), x)
        for theta in (0.0, math.pi / 2, math.pi):
            k = np.arange(1, row.size)
            total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2 * np.cos(theta * k))
            target = bessel_j(0, x * math.sqrt(2.0 - 2.0 * math.cos(theta)))
            dev = max(dev, abs(total - target))
    checks.append(
        _check("graf_addition", dev, 1e-9, "sum J_k^2 e^{-ik theta} = J_0(x sqrt(2-2cos))")
    )

    h = 1e-5
    dev = 0.0
    for k in (1, 2, 3):
        for z in (0.5, 2.5, 10.0):
            num = ((z + h) ** k * bessel_j(k, z + h) - (z - h) ** k * bessel_j(k, z - h)) / (
                2 * h
            )
            target = z**k * bessel_j(k - 1, z)
            dev = max(dev, abs(num - target) / max(1.0, abs(target)))
    checks.append(
        _check("derivative_identity_l1", dev, 1e-6, "(1/z d/dz)(z^k J_k) = z^{k-1} J_{k-1}")
    )

    envelope = 1.1 * math.sqrt(2.0 / (math.pi * 200.0))
    val = abs(bessel_j(0, 200.0))
    checks.append(
        _check("asymptotic_envelope_x200", max(val - envelope, 0.0), 0.0, "|J_0(200)| inside envelope")
    )
    return checks


# ---------------------------------------------------------------------------


def _boundary_average(f):
    """(1/2pi) integral of f over the unit circle by the 512-node trapezoid rule; f takes an angle array."""
    theta = np.arange(512) * (2.0 * np.pi / 512)
    return np.mean(np.asarray(f(theta)))


def _chord_integral(t):
    """(1/2pi) integral_{-1}^{1} e^{itx} / sqrt(1-x^2) dx by the 256-node Chebyshev-Gauss rule.

    Equals J_0(t)/2; the imaginary part cancels exactly on the symmetric
    Chebyshev nodes, so a real number is returned.
    """
    k = np.arange(1, 257)
    x = np.cos((2 * k - 1) * np.pi / 512)
    return float(np.mean(np.cos(t * x))) / 2.0


def _plane_wave_deviations(grid):
    """Largest errors of the disk integrals of f and (2r^2 - 1) f, f a plane wave.

    Both targets are real, and the imaginary part of f is odd and cancels
    on the symmetric grid, so each integral is the contraction of the sums
    of Re f over each radial row, from a quarter of the grid, with the
    radial weights. 2r^2 - 1 depends on the radius only, so the same row
    sums serve both integrals.
    """
    rng = np.random.default_rng(20250817)
    radial_weight = 2.0 * grid.r**2 - 1.0
    dev_f = dev_w = 0.0
    for _ in range(20):
        x = rng.uniform(0.05, 20.0)
        ang = rng.uniform(0.0, 2 * math.pi)
        t, s = x * math.cos(ang), x * math.sin(ang)
        row_sums = quadrature.plane_wave_row_sums(grid, t, s)
        val = grid.integrate_rows(row_sums)
        dev_f = max(dev_f, abs(val - 2 * math.pi * bessel_j(1, x) / x))
        val = grid.integrate_rows(radial_weight * row_sums)
        dev_w = max(dev_w, abs(val + 2 * math.pi * bessel_j(3, x) / x))
    return dev_f, dev_w


def suite_quadrature():
    checks = []
    grid = quadrature.disk_grid(400, 512)
    coarse = quadrature.disk_grid(200, 256)

    checks.append(
        _check("weight_sum_pi", abs(grid.weight_sum - math.pi), 1e-12, "sum of weights = pi")
    )

    dev_f, dev_w = _plane_wave_deviations(grid)
    checks.append(_check("plane_wave_disk_integral", dev_f, 1e-8, "= 2 pi J_1/|tau|, 20 random tau"))
    checks.append(_check("radially_weighted_integral", dev_w, 1e-8, "= -2 pi J_3/|tau|"))

    dev = 0.0
    for x in (2.0, 9.5):
        val = grid.integrate_rows(quadrature.plane_wave_row_sums(grid, x, 0.0))
        val *= -(x**2) / (8 * math.pi)
        dev = max(dev, abs(val + x * bessel_j(1, x) / 4.0))
    checks.append(_check("laplacian_consistency", dev, 1e-8, "(1/8pi) int of Delta f"))

    x = 7.3
    val = (x * x) / (4 * math.pi) * grid.weight_sum  # |grad f|^2 = |tau|^2 is constant
    checks.append(
        _check(
            "gradient_norm_ramp",
            abs(val - x * x / 4.0) / (x * x / 4.0),
            1e-10,
            "(1/4pi) int |grad f|^2 = |tau|^2/4",
        )
    )

    dev = 0.0
    for t, s in ((1.5, 0.7), (3.0, 1.0), (2.0, 2.0)):
        g = lambda xx, yy: (t * np.cos(s * yy)) ** 2 + (s * np.sin(s * yy)) ** 2
        val = grid.integrate_rows(quadrature.quarter_row_sums(grid, g)) / (2 * math.pi)
        target = (t * t + s * s) / 4.0 + (t * t - s * s) * bessel_j(1, 2 * s) / (4 * s)
        dev = max(dev, abs(val - target))
    checks.append(
        _check("symmetrized_gradient_ramp", dev, 1e-8, "(1/2pi) int |grad f_sym|^2")
    )

    dev = 0.0
    for t, s in ((2.0, 0.0), (4.0, 5.6)):
        x = math.hypot(t, s)
        f = lambda th: np.exp(1j * (t * np.cos(th) + s * np.sin(th)))
        dev = max(dev, abs(_boundary_average(f) - bessel_j(0, x)))
    checks.append(_check("boundary_average_j0", dev, 1e-10, "circle mean of f = J_0(|tau|)"))

    t, s, k = 1.5, 0.7, 2
    x, phi = math.hypot(t, s), math.atan2(t, s)
    f = lambda th: np.exp(-1j * k * th) * np.exp(1j * (t * np.cos(th) + s * np.sin(th)))
    target = np.exp(1j * phi * k) * bessel_j(k, x)
    dev = abs(_boundary_average(f) - target)
    checks.append(
        _check("boundary_fourier_mode", dev, 1e-10, "f_hat(k) = e^{i phi k} J_k(|tau|)")
    )

    dev = max(
        abs(_chord_integral(t) - bessel_j(0, abs(t)) / 2.0) for t in (0.0, 2.0, 10.0)
    )
    checks.append(_check("chord_integral_j0_half", dev, 1e-10, "= J_0(t)/2"))

    checks.append(
        _check(
            "real_axis_zero_at_s0",
            abs(quadrature.real_axis_correction_integral(1.3, 0.0, grid)),
            0.0,
            "vanishes identically at s=0",
        )
    )
    checks.append(
        _check(
            "real_axis_small_s",
            abs(quadrature.real_axis_correction_integral(0.0, 1e-3, grid) - 1e-6 / 8.0),
            1e-9,
            "I(0,s) -> s^2/8",
        )
    )
    v_fine = quadrature.real_axis_correction_integral(1.0, 1.0, grid)
    v_coarse = quadrature.real_axis_correction_integral(1.0, 1.0, coarse)
    checks.append(_check("real_axis_two_grid", abs(v_fine - v_coarse), 1e-10, "grid refinement stable"))
    checks.append(
        _check(
            "real_axis_reference_value",
            abs(v_fine - 0.10765912372944644),
            1e-10,
            "I(1,1) vs 30-digit reference",
        )
    )

    base = quadrature.real_axis_correction_integral(1.5, 0.7, grid)
    dev = max(
        abs(quadrature.real_axis_correction_integral(-1.5, 0.7, grid) - base),
        abs(quadrature.real_axis_correction_integral(1.5, -0.7, grid) - base),
    )
    checks.append(_check("real_axis_sign_symmetry", dev, 1e-14, "invariant under t->-t, s->-s"))

    t, s = 1.5, 0.7
    # e^{itx}(1 - e^{isy})/y^2 on the full grid, in two complex arrays
    wave = np.exp(np.multiply(grid.x, 1j * t))
    integrand = np.multiply(grid.y, 1j * s)
    np.exp(integrand, out=integrand)
    np.subtract(1.0, integrand, out=integrand)
    integrand *= wave
    del wave
    integrand /= np.square(grid.y)
    full = grid.integrate_values(integrand) / (4 * math.pi)
    checks.append(
        _check(
            "real_axis_imaginary_cancels",
            abs(full.imag),
            1e-10,
            "odd part of e^{itx}(1-e^{isy})/y^2 cancels on symmetric grid",
        )
    )
    checks.append(
        _check(
            "real_axis_even_part_match",
            abs(full.real - base),
            1e-9,
            "even-part route equals full complex integrand",
        )
    )

    t, s = np.random.default_rng(20261018).uniform(-32.0, 32.0, (20, 2)).T
    dev = max(
        abs(line - quadrature.real_axis_correction_integral(ti, si, grid))
        for ti, si, line in zip(t, s, quadrature.real_axis_correction_line(t, s))
    )
    checks.append(
        _check("real_axis_line_vs_grid", dev, 1e-11, "1-D angular rule = disk grid, 20 random tau")
    )

    odd = quadrature.disk_grid(64, 129)
    try:
        quadrature.real_axis_correction_integral(1.0, 1.0, odd)
        rejected = False
    except ValueError:
        rejected = True
    checks.append(
        _check("asymmetric_grid_rejected", 0.0 if rejected else 1.0, 0.0, "odd angular count refused")
    )
    return checks


# ---------------------------------------------------------------------------


def suite_theory():
    checks = []
    grid = quadrature.disk_grid(400, 512)

    base = dsff_theory(ComplexTime.from_polar(3.0, 0.0), 500, kappa4=-1.0, beta=2)
    dev = 0.0
    for j in range(1, 10):
        rot = dsff_theory(
            ComplexTime.from_polar(3.0, j * 2 * math.pi / 10), 500, kappa4=-1.0, beta=2
        )
        dev = max(dev, abs(rot.k_total - base.k_total) / base.k_total)
        dev = max(dev, abs(rot.v_value - base.v_value) / base.v_value)
    checks.append(_check("rotation_invariance_complex", dev, 1e-12, "beta=2 depends on |tau| only"))

    p0 = dsff_theory(ComplexTime(1.5, 0.7), 300, kappa4=-2.0, beta=1)
    dev = 0.0
    for flipped in (ComplexTime(-1.5, 0.7), ComplexTime(1.5, -0.7), ComplexTime(-1.5, -0.7)):
        p = dsff_theory(flipped, 300, kappa4=-2.0, beta=1)
        e_dev = abs(p.e_value - p0.e_value) / abs(p0.e_value)
        dev = max(dev, e_dev, abs(p.v_value - p0.v_value) / p0.v_value)
    checks.append(_check("reflection_invariance_real", dev, 1e-12, "beta=1 even in t and in s"))

    # the beta=1 boundary term from its definition, (1/2) sum_k |k| (|f_k|^2 +
    # Re f_k conj(g_k)), with f_k and g_k the Fourier coefficients of f and
    # of g = f o conj on the unit circle, from an FFT of 4,096 samples
    angles = 2.0 * math.pi * np.arange(4096) / 4096
    abs_k = np.abs(np.fft.fftfreq(4096, 1.0 / 4096))
    dev = 0.0
    for t, s in ((1.5, 0.7), (-2.0, 3.1), (0.4, 4.2)):
        f_k = np.fft.fft(np.exp(1j * (t * np.cos(angles) + s * np.sin(angles)))) / 4096
        g_k = np.fft.fft(np.exp(1j * (t * np.cos(angles) - s * np.sin(angles)))) / 4096
        direct = 0.5 * float(np.sum(abs_k * (np.abs(f_k) ** 2 + (f_k * g_k.conj()).real)))
        dev = max(dev, abs(direct - dsff_theory(ComplexTime(t, s), 256, beta=1).v_terms["series"]))
    checks.append(
        _check("real_boundary_term_definition", dev, 1e-12, "beta=1 series vs FFT of f and f o conj")
    )

    dev = 0.0
    for x in (2.0, 5.0):
        mean_route = grid.integrate_rows(quadrature.plane_wave_row_sums(grid, x, 0.0)) / math.pi
        circle_route = _boundary_average(lambda th: np.exp(1j * x * np.cos(th))).real
        quad_coeff = (mean_route - circle_route) ** 2
        bessel_coeff = (2 * bessel_j(1, x) / x - bessel_j(0, x)) ** 2
        dev = max(dev, abs(quad_coeff - bessel_coeff))
    checks.append(
        _check("kappa4_coefficient_dual_route", dev, 1e-8, "(2J_1/x - J_0)^2 vs quadrature")
    )

    worst = 0.0
    grid_dev = 0.0
    taus = [
        ComplexTime.from_polar(x, theta)
        for x in (0.0, 0.7, 2.0, 3.1, 9.0, 20.0)
        for theta in (0.0, 0.4, math.pi / 4, math.pi / 2)
    ]
    for beta, kappa4 in ((2, 0.0), (2, -2.0), (1, 0.0), (1, -2.0)):
        points = [dsff_theory(tau, 256, kappa4=kappa4, beta=beta) for tau in taus]
        worst = min(worst, min(p.v_value for p in points))
        for p, g in zip(points, dsff_theory_grid(taus, 256, kappa4=kappa4, beta=beta)):
            for name in ("e_terms", "v_terms"):
                for key, v in getattr(p, name).items():
                    grid_dev = max(grid_dev, abs(getattr(g, name)[key] - v) / max(1.0, abs(v)))
            for v, w in ((p.e_value, g.e_value), (p.v_value, g.v_value), (p.k_total, g.k_total)):
                grid_dev = max(grid_dev, abs(w - v) / max(1.0, abs(v)))
    checks.append(_check("variance_nonnegative", max(-worst, 0.0), 1e-12, "Var >= 0 on sample grid"))
    checks.append(
        _check(
            "theory_grid_matches_pointwise",
            grid_dev,
            1e-12,
            "dsff_theory_grid = dsff_theory, every term, on the sample grid",
        )
    )

    dev = 0.0
    for beta in (1, 2):
        e = 700 * dsff_theory(ComplexTime(0.0, 0.0), 700, kappa4=-1.0, beta=beta).e_value
        dev = max(dev, abs(e - 700.0) / 700.0)
    checks.append(_check("expectation_tau0_equals_n", dev, 1e-12, "E[L](0) = N both classes"))

    k0 = dsff_theory(ComplexTime(0.0, 0.0), 128, kappa4=-1.0, beta=2).k_total
    checks.append(_check("dsff_tau0_unity", abs(k0 - 1.0), 1e-12, "K(0) = 1"))

    n1 = 10**6
    x1 = 12.0
    ratio = x1 / n1 ** (2.0 / 7.0)
    gap1 = 0.0
    for beta in (1, 2):
        p = dsff_theory(ComplexTime.from_polar(x1, 0.0), n1, kappa4=0.0, beta=beta)
        gap1 = max(gap1, abs(p.k_total - k_simplified(p)) / k_simplified(p))
    checks.append(_check("simplified_tracks_full_5pct", gap1, 0.05, "|tau|=12, N=1e6, both beta"))

    x2 = 24.0
    n2 = int(round((x2 / ratio) ** 3.5))
    p = dsff_theory(ComplexTime.from_polar(x2, 0.0), n2, kappa4=0.0, beta=2)
    gap2 = abs(p.k_total - k_simplified(p)) / k_simplified(p)
    checks.append(
        _check(
            "simplified_gap_shrinks_with_n",
            0.0 if gap2 < gap1 else gap2 - gap1,
            0.0,
            "relative gap decreases at fixed |tau|/N^{2/7}",
        )
    )

    dev = 0.0
    n = 10**4
    for x in (0.5, 1.0):
        g = ginibre_exact_dsff(ComplexTime.from_polar(x, 0.3), n)
        ramp = x * x / (4.0 * n * n)
        dev = max(dev, abs(g.connected - ramp) / ramp - 0.15 * x * x / n)
    checks.append(
        _check("ginibre_small_ramp", max(dev, 0.0), 1e-9, "connected -> |tau|^2/4N^2")
    )

    g = ginibre_exact_dsff(ComplexTime.from_polar(40.0 * math.sqrt(n), 0.0), n)
    checks.append(
        _check(
            "ginibre_plateau",
            abs(g.k_total - 1.0 / n) * n,
            1e-6,
            "K -> 1/N at large |tau|",
        )
    )

    n = 4096
    x = 9.0
    tau = ComplexTime.from_polar(x, 0.0)
    k_thm = dsff_theory(tau, n, kappa4=0.0, beta=2).k_total
    k_ex = ginibre_exact_dsff(tau, n).k_total
    # the exact-model formula truncates the disconnected part at leading
    # order, so the routes differ at relative scale |tau|^2/4N mid-ramp
    checks.append(
        _check(
            "series_vs_exact_model_midramp",
            abs(k_thm - k_ex) / k_ex,
            x * x / (2.0 * n),
            "gaussian-complex routes agree to the truncation scale",
        )
    )

    ts = timescales(1024)
    dev = max(abs(ts.tau_edge - 16.0) / 16.0, abs(ts.tau_hei - 32.0) / 32.0)
    checks.append(_check("timescales_1024", dev, 1e-12, "N^{2/5}=16, sqrt(N)=32"))
    return checks


# ---------------------------------------------------------------------------


def _random_spectrum(rng, n):
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2 * math.pi, n)
    return r * np.exp(1j * ang)


def suite_estimator():
    checks = []
    rng = np.random.default_rng(777)

    spec40 = EnsembleSpec(field="complex", distribution="gaussian", n=40)
    dev = 0.0
    for _ in range(5):
        eigs = _random_spectrum(rng, 40)
        t, s = rng.uniform(-3, 3), rng.uniform(-3, 3)
        sset = SpectrumSet(spec=spec40, master_seed=0, eigenvalues=eigs.reshape(1, -1))
        via_point = estimator.dsff_point(sset, ComplexTime(t, s)).k_mean
        diff = eigs[:, None] - eigs[None, :]
        brute = np.exp(1j * (t * diff.real + s * diff.imag)).sum().real / 40**2
        dev = max(dev, abs(via_point - brute))
    checks.append(
        _check("brute_force_double_sum", dev, 1e-12, "|L|^2/N^2 equals the N^2-term sum")
    )

    stats = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 2.0 + (3.0 - 1.0j)
    est = estimate_from_linear_stats(stats, 24, ComplexTime(1.0, 0.0))
    mean_sq = float(np.mean(np.abs(stats) ** 2)) / 24**2
    lbar = np.mean(stats)
    s2 = float(np.sum(np.abs(stats - lbar) ** 2)) / 63
    ident = abs(mean_sq - (abs(lbar) ** 2 + (63 / 64) * s2) / 24**2) / mean_sq
    checks.append(_check("moment_identity", ident, 1e-12, "mean|L|^2 = |mean L|^2 + (M-1)/M S^2"))
    recomb = abs(est.k_mean - (est.disconnected_unbiased + est.connected)) / est.k_mean
    checks.append(
        _check("decomposition_recombines", recomb, 1e-12, "k_mean = disconnected + connected")
    )

    eigs = np.vstack([_random_spectrum(rng, 30) for _ in range(8)])
    sset = SpectrumSet(
        spec=EnsembleSpec(field="complex", distribution="gaussian", n=30),
        master_seed=0,
        eigenvalues=eigs,
    )
    est0 = estimator.dsff_point(sset, ComplexTime(0.0, 0.0))
    dev = max(
        abs(est0.k_mean - 1.0),
        est0.k_stderr,
        est0.connected,
        abs(est0.disconnected_unbiased - 1.0),
    )
    checks.append(_check("tau_zero_exact", dev, 0.0, "K(0)=1 with zero spread, exactly"))

    tau = ComplexTime(1.7, -0.9)
    base = estimator.dsff_point(sset, tau)
    perm = rng.permutation(30)
    sset_p = SpectrumSet(spec=sset.spec, master_seed=0, eigenvalues=eigs[:, perm])
    est_p = estimator.dsff_point(sset_p, tau)
    dev = abs(est_p.k_mean - base.k_mean) / base.k_mean
    checks.append(
        _check("eigenvalue_permutation", dev, 1e-12, "summation-order change only")
    )

    closed = np.vstack(
        [np.concatenate([z := _random_spectrum(rng, 15), np.conj(z)]) for _ in range(6)]
    )
    sset_c = SpectrumSet(
        spec=EnsembleSpec(field="real", distribution="gaussian", n=30),
        master_seed=0,
        eigenvalues=closed,
    )
    k_plus = estimator.dsff_point(sset_c, ComplexTime(1.1, 0.8)).k_mean
    k_minus = estimator.dsff_point(sset_c, ComplexTime(1.1, -0.8)).k_mean
    checks.append(
        _check(
            "conjugation_covariance",
            abs(k_plus - k_minus) / k_plus,
            1e-12,
            "closed spectra: K(t,s) = K(t,-s)",
        )
    )

    # Bias sensitivity: sigma^2/M = 8 here, so the naive |mean L|^2 route
    # would sit ~18 standard errors off while the corrected one stays within 5.
    # The draws are taken in the order of one replication after another,
    # real parts before imaginary parts, and each row of the (reps, m_rep)
    # array gives the bytes estimate_from_linear_stats gives for it alone.
    mu, sigma, m_rep, reps = 3.0 - 1.0j, 8.0, 8, 1250
    z = rng.standard_normal((reps, 2, m_rep))
    g = z[:, 0] + 1j * z[:, 1]
    estimates = estimator._estimates(mu + sigma * g / math.sqrt(2.0), 1, [ComplexTime(1.0, 0.0)] * reps)
    vals = np.array([est_r.disconnected_unbiased for est_r in estimates])
    se = float(np.std(vals, ddof=1)) / math.sqrt(reps)
    checks.append(
        _check(
            "disconnected_unbiased_synthetic",
            abs(float(np.mean(vals)) - abs(mu) ** 2),
            5.0 * se,
            f"{reps} replications of M={m_rep} gaussian draws",
        )
    )

    est1 = estimate_from_linear_stats(np.array([3.0 + 4.0j]), 10, ComplexTime(0.5, 0.0))
    ok = (
        est1.m == 1
        and math.isnan(est1.k_stderr)
        and math.isnan(est1.connected)
        and est1.k_mean == 0.25
    )
    checks.append(
        _check("single_sample_flags_nan", 0.0 if ok else 1.0, 0.0, "M=1 withholds decomposition")
    )

    rng = np.random.default_rng(64)
    sset_r = SpectrumSet(
        spec=EnsembleSpec(field="complex", distribution="gaussian", n=64),
        master_seed=0,
        eigenvalues=np.vstack([_random_spectrum(rng, 64) for _ in range(200)]),
    )
    taus = estimator.build_tau_grid(0.3, 0.5, 8.0, 40, "log")
    ests = estimator.dsff_grid(sset_r, taus)
    order = ests[0].ray_order
    if order is None:
        dev, detail = math.inf, "ray route not taken"
    else:
        dev = max(
            abs(est.k_mean - estimator.dsff_point(sset_r, tau).k_mean) / est.k_mean
            for tau, est in zip(taus, ests)
        )
        detail = f"Chebyshev ray route (K={order}) vs pointwise kernel, 40 points, M=200"
    checks.append(_check("ray_route_matches_pointwise", dev, 1e-12, detail))
    return checks


SUITES = {
    "bessel": suite_bessel,
    "quadrature": suite_quadrature,
    "theory": suite_theory,
    "estimator": suite_estimator,
}


def run_suites(names=None, seconds=None):
    """Run the named suites (all by default); returns a JSON-ready report.

    If a dict is passed as seconds, it receives each suite's wall time,
    which stays out of the report so that the report is deterministic.
    """
    if names is None:
        names = list(SUITES)
    report = {"suites": {}, "all_passed": True}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (have {sorted(SUITES)})")
        start = time.perf_counter()
        checks = SUITES[name]()
        if seconds is not None:
            seconds[name] = time.perf_counter() - start
        report["suites"][name] = [asdict(c) for c in checks]
        if not all(c.passed for c in checks):
            report["all_passed"] = False
    return report
