import math

import mpmath
import numpy as np
import pytest

from dsff_lab.bessel import TABLE_MIN_ARGUMENT, bessel_j, bessel_j_columns
from dsff_lab.estimator import build_tau_grid
from dsff_lab.quadrature import LINE_PANEL_PHASE
from dsff_lab.theory import (
    E_TERMS,
    V_TERMS,
    ComplexTime,
    dsff_theory,
    dsff_theory_grid,
    ginibre_exact_dsff,
    ginibre_exact_dsff_grid,
    timescales,
)
from dsff_lab.verify import k_simplified


def test_complex_time_polar_roundtrip():
    tau = ComplexTime.from_polar(2.5, 0.8)
    assert tau.abs_tau == pytest.approx(2.5, rel=1e-15, abs=0.0)
    assert tau.theta == pytest.approx(0.8, rel=1e-15, abs=0.0)


def test_complex_time_origin_convention():
    origin = ComplexTime(0.0, 0.0)
    assert origin.abs_tau == 0.0
    assert origin.theta == 0.0


def test_complex_time_validation():
    with pytest.raises(ValueError):
        ComplexTime(math.nan, 0.0)
    with pytest.raises(ValueError):
        ComplexTime(0.0, math.inf)
    with pytest.raises(ValueError):
        ComplexTime.from_polar(-1.0, 0.0)


@pytest.mark.parametrize("good", [2, 2.0, np.int32(2), np.float32(2.0), np.float64(2.0)])
def test_complex_time_takes_python_and_numpy_reals(good):
    assert ComplexTime(good, 0.5).abs_tau == math.hypot(2.0, 0.5)


# frozen against 30-digit arithmetic (Bessel values, weighted Bessel sums
# and disk integrals all recomputed independently)
def test_expectation_frozen_real_case():
    val = 50 * dsff_theory(ComplexTime(1.5, 0.7), 50, kappa4=-1.0, beta=1).e_value
    assert val == pytest.approx(34.205165059783371, rel=1e-12, abs=0.0)


def test_theory_does_not_touch_the_disk_grid(monkeypatch):
    from dsff_lab import quadrature, theory

    def refuse(*args, **kwargs):
        raise AssertionError("theory evaluated the disk grid")

    for name in ("disk_grid", "real_axis_correction_integral"):
        monkeypatch.setattr(quadrature, name, refuse)
    monkeypatch.setattr(theory, "real_axis_correction_integral", refuse)
    val = 50 * dsff_theory(ComplexTime(1.5, 0.7), 50, kappa4=-1.0, beta=1).e_value
    assert val == pytest.approx(34.205165059783371, rel=1e-12, abs=0.0)


def test_variance_frozen_values():
    v1 = dsff_theory(ComplexTime(1.5, 0.7), 1, kappa4=-1.0, beta=1).v_value
    assert v1 == pytest.approx(1.6184605816364934, rel=1e-12, abs=0.0)
    v2 = dsff_theory(ComplexTime.from_polar(3.0, 0.4), 1, kappa4=-0.6, beta=2).v_value
    assert v2 == pytest.approx(3.0621345740392813, rel=1e-12, abs=0.0)


def test_dsff_theory_frozen_value():
    p = dsff_theory(ComplexTime(2.0, 1.0), 200, kappa4=-1.0, beta=2)
    assert p.k_total == pytest.approx(0.23956858304899218, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta", [1, 2])
def test_theory_evaluates_at_large_tau(beta, table_calls):
    # inside the documented range, which ends at |tau| = 19,575 (and at
    # |s| = 9,838 for beta 1)
    tau = ComplexTime.from_polar(15_000.0, 0.3)
    p = dsff_theory(tau, 256, kappa4=-1.0, beta=beta)
    assert math.isfinite(p.k_total)
    # two points this deep do not pay for a table
    taus = [ComplexTime.from_polar(14_000.0, 0.3), tau]
    assert _grid_matches_pointwise(table_calls, taus, 256, -1.0, beta) == 0


def test_j1_over_x_at_subnormal_argument():
    assert dsff_theory(ComplexTime(5e-324, 0.0), 64).e_terms["leading"] == 1.0


def test_expectation_at_origin_is_n():
    for beta in (1, 2):
        assert 77 * dsff_theory(ComplexTime(0.0, 0.0), 77, beta=beta).e_value == 77.0


def test_variance_at_origin_is_zero():
    for beta in (1, 2):
        assert dsff_theory(ComplexTime(0.0, 0.0), 1, kappa4=-2.0, beta=beta).v_value == 0.0


def test_dsff_at_origin_is_one():
    p = dsff_theory(ComplexTime(0.0, 0.0), 64, kappa4=-1.0, beta=1)
    assert p.k_total == 1.0
    assert p.disconnected == 1.0
    assert p.connected == 0.0


def test_prediction_structure():
    p = dsff_theory(ComplexTime(1.0, 2.0), 100, kappa4=-2.0, beta=1)
    assert E_TERMS == ("leading", "laplacian", "kappa4", "real_axis")
    assert V_TERMS == ("gradient", "real_ramp", "series", "kappa4")
    assert tuple(p.e_terms) == E_TERMS
    assert tuple(p.v_terms) == V_TERMS
    assert sum(p.e_terms.values()) == pytest.approx(p.e_value, rel=1e-15, abs=0.0)
    assert sum(p.v_terms.values()) == pytest.approx(p.v_value, rel=1e-15, abs=0.0)
    assert p.k_total == pytest.approx(p.disconnected + p.connected, rel=1e-15, abs=0.0)


def test_complex_case_has_no_real_axis_term():
    p = dsff_theory(ComplexTime(1.0, 2.0), 100, kappa4=-1.0, beta=2)
    assert p.e_terms["real_axis"] == 0.0
    assert p.v_terms["real_ramp"] == 0.0


def test_validity_warning_boundary():
    # 128^(2/7) = 4 up to float rounding of the exponent
    assert not dsff_theory(ComplexTime(3.99, 0.0), 128).validity_warning
    assert dsff_theory(ComplexTime(4.01, 0.0), 128).validity_warning


def test_rotation_invariance_complex_case():
    base = dsff_theory(ComplexTime.from_polar(3.0, 0.0), 500, kappa4=-1.0, beta=2)
    rot = dsff_theory(ComplexTime.from_polar(3.0, 1.1), 500, kappa4=-1.0, beta=2)
    assert rot.k_total == pytest.approx(base.k_total, rel=1e-13, abs=0.0)


def test_beta_validation():
    with pytest.raises(ValueError, match="beta"):
        dsff_theory(ComplexTime(1.0, 0.0), 10, beta=3)
    with pytest.raises(ValueError, match="beta"):
        dsff_theory(ComplexTime(1.0, 0.0), 1, beta=0)


def test_n_validation():
    with pytest.raises(ValueError):
        dsff_theory(ComplexTime(1.0, 0.0), 0)
    with pytest.raises(ValueError):
        dsff_theory(ComplexTime(1.0, 0.0), -5)


def test_simplified_frozen_value():
    val = k_simplified(dsff_theory(ComplexTime(3.0, 4.0), 500, beta=1))
    assert val == pytest.approx(0.017193884008019902, rel=1e-12, abs=0.0)


def test_simplified_at_origin_is_one():
    for beta in (1, 2):
        assert k_simplified(dsff_theory(ComplexTime(0.0, 0.0), 100, kappa4=-1.0, beta=beta)) == 1.0


@pytest.mark.parametrize("beta", [1, 2])
def test_simplified_is_the_reduced_formula(beta):
    # 4 J_1^2/|tau|^2 + (|tau|^2/4 + (2/beta - 1)(t^2 - s^2) J_1(2|s|)/(4|s|))/N^2
    n = 300
    for tau in (ComplexTime(3.0, 4.0), ComplexTime(-0.2, 0.05), ComplexTime.from_polar(25.0, 2.0)):
        x, t, s = tau.abs_tau, tau.t, abs(tau.s)
        aniso = (2.0 / beta - 1.0) * (t * t - s * s) * bessel_j(1, 2.0 * s) / (4.0 * s)
        want = 4.0 * (bessel_j(1, x) / x) ** 2 + (x * x / 4.0 + aniso) / n**2
        got = k_simplified(dsff_theory(tau, n, kappa4=-1.0, beta=beta))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_simplified_tracks_full_theory_at_large_n():
    n = 10**6
    for beta in (1, 2):
        tau = ComplexTime.from_polar(12.0, 0.0)
        p = dsff_theory(tau, n, kappa4=0.0, beta=beta)
        assert abs(p.k_total - k_simplified(p)) / k_simplified(p) < 0.05


def test_ginibre_frozen_value():
    g = ginibre_exact_dsff(ComplexTime.from_polar(2.0, 0.9), 64)
    assert g.k_total == pytest.approx(0.33285374705399306, rel=1e-12, abs=0.0)


def test_ginibre_at_origin_and_plateau():
    n = 400
    assert ginibre_exact_dsff(ComplexTime(0.0, 0.0), n).k_total == pytest.approx(
        1.0, rel=1e-15, abs=0.0
    )
    far = ginibre_exact_dsff(ComplexTime.from_polar(50.0 * math.sqrt(n), 0.2), n)
    assert far.k_total == pytest.approx(1.0 / n, rel=1e-6, abs=0.0)
    assert far.v_value == n


def test_ginibre_is_a_theory_prediction():
    p = ginibre_exact_dsff(ComplexTime.from_polar(2.0, 0.9), 64)
    assert (p.n, p.beta, p.kappa4) == (64, 2, 0.0)
    assert list(p.e_terms) == ["leading"] and list(p.v_terms) == ["ramp"]
    assert p.e_value == p.e_terms["leading"] and p.v_value == p.v_terms["ramp"]
    assert p.k_total == p.disconnected + p.connected


# the connected part of the exact route is -expm1(-|tau|^2/4N)/N to a few
# ulps, also at small |tau|, where 1/N - exp(-|tau|^2/4N)/N would cancel
@pytest.mark.parametrize("n", [256, 10_000])
def test_ginibre_connected_against_mpmath(n):
    xs = [1e-3, 0.1, 5.0, 40.0 * math.sqrt(n)]
    with mpmath.workdps(30):
        for x, p in zip(xs, ginibre_exact_dsff_grid([ComplexTime(x, 0.0) for x in xs], n)):
            want = -mpmath.expm1(-mpmath.mpf(x) ** 2 / (4 * n)) / n
            assert abs(p.connected - want) <= 1e-15 * want, (x, p.connected, want)


@pytest.mark.parametrize(
    "taus",
    [build_tau_grid(0.0, 0.1, 32.0, 60), build_tau_grid(0.7, 1e-3, 64.0, 200)],
    ids=["predict_ray", "from_1e-3"],
)
def test_ginibre_k_total_is_the_closed_form(taus):
    # K = 1/N + 4 J_1(|tau|)^2/|tau|^2 - exp(-|tau|^2/4N)/N, summed in this
    # order, with J_1 from the bessel_j_columns call the route makes
    n = 256
    xs = [tau.abs_tau for tau in taus]
    j1 = bessel_j_columns([1] * len(xs), xs)[1]
    for x, j, p in zip(xs, j1.tolist(), ginibre_exact_dsff_grid(taus, n)):
        j1x = j / x if x >= TABLE_MIN_ARGUMENT else 0.5
        old = 1.0 / n + 4.0 * j1x * j1x - math.exp(-x * x / (4.0 * n)) / n
        assert abs(p.k_total - old) <= 4.5e-16 * max(1.0, old), (x, p.k_total, old)


# every route and timescales, called with the same arguments
_CALLS = {
    "dsff_theory": lambda tau, n, beta, kappa4: dsff_theory(tau, n, kappa4=kappa4, beta=beta),
    "dsff_theory_grid": lambda tau, n, beta, kappa4: dsff_theory_grid([tau], n, kappa4=kappa4, beta=beta),
    "ginibre_exact_dsff": lambda tau, n, beta, kappa4: ginibre_exact_dsff(tau, n),
    "ginibre_exact_dsff_grid": lambda tau, n, beta, kappa4: ginibre_exact_dsff_grid([tau], n),
    "timescales": lambda tau, n, beta, kappa4: timescales(n),
}
_GOOD = {"tau": ComplexTime.from_polar(2.0, 0.4), "n": 16, "beta": 2, "kappa4": -1.0}


@pytest.mark.parametrize("route", list(_CALLS))
def test_numpy_numbers_are_accepted(route):
    want = _CALLS[route](**_GOOD)
    got = _CALLS[route](_GOOD["tau"], np.int64(16), np.int32(2), np.float32(-1.0))
    assert got == want
    if route != "timescales":
        (p,) = got if isinstance(got, list) else [got]
        assert type(p.n) is int and type(p.beta) is int and type(p.kappa4) is float


def test_timescales():
    ts = timescales(1024)
    assert ts.tau_edge == pytest.approx(16.0, rel=1e-12, abs=0.0)
    assert ts.tau_hei == pytest.approx(32.0, rel=1e-15, abs=0.0)
    with pytest.raises(ValueError):
        timescales(0)


# ---------------------------------------------------------------------------
# the grid route against the per-point route


def _grid_matches_pointwise(table_calls, taus, n, kappa4, beta):
    """Assert dsff_theory_grid = dsff_theory to 1e-13 max(1, |v|) in every
    term; return the number of bessel_j_table calls the grid made."""
    before = len(table_calls)
    grid = dsff_theory_grid(taus, n, kappa4=kappa4, beta=beta)
    made = len(table_calls) - before
    assert len(grid) == len(taus)
    for tau, g in zip(taus, grid):
        p = dsff_theory(tau, n, kappa4=kappa4, beta=beta)
        assert g.tau is tau and g.validity_warning == p.validity_warning
        pairs = [(p.e_value, g.e_value), (p.v_value, g.v_value), (p.k_total, g.k_total)]
        pairs += [(v, g.e_terms[key]) for key, v in p.e_terms.items()]
        pairs += [(v, g.v_terms[key]) for key, v in p.v_terms.items()]
        for want, got in pairs:
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (tau, want, got)
    return made


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("kappa4", [0.0, -2.0])
def test_grid_from_tau_zero(table_calls, beta, kappa4):
    taus = build_tau_grid(0.6, 0.0, 30.0, 80, "linear")
    assert taus[0].abs_tau == 0.0
    assert _grid_matches_pointwise(table_calls, taus, 256, kappa4, beta) >= 1


@pytest.mark.parametrize("beta", [1, 2])
def test_grid_below_table_min_argument(table_calls, beta):
    # the first ~half of the points lie below TABLE_MIN_ARGUMENT, which a
    # table refuses: they take the per-point route, and nothing raises
    taus = build_tau_grid(0.5, 1e-300, 30.0, 120)
    assert taus[0].abs_tau < TABLE_MIN_ARGUMENT < taus[-1].abs_tau
    assert _grid_matches_pointwise(table_calls, taus, 256, -1.0, beta) >= 1
    _exact_grid_matches_pointwise(taus)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_grid_on_the_axes_beta_one(table_calls, theta):
    # t = 0 (up to rounding) on theta = pi/2, s = 0 on theta = 0
    taus = build_tau_grid(theta, 0.01, 40.0, 60)
    assert _grid_matches_pointwise(table_calls, taus, 128, -2.0, 1) >= 1


def test_grid_block_crossing_two_panel_counts(table_calls):
    # |t| + |s| runs from 71 to 212 on this ray, so one table block holds
    # points of one and of two real-axis panels
    taus = build_tau_grid(math.pi / 4, 50.0, 150.0, 60, "linear")
    panels = {max(1, math.ceil((abs(tau.t) + abs(tau.s)) / LINE_PANEL_PHASE)) for tau in taus}
    assert panels == {1, 2}
    assert _grid_matches_pointwise(table_calls, taus, 256, -1.0, 1) == 1


def test_one_point_grid_has_the_bits_of_dsff_theory(table_calls):
    for tau in (ComplexTime(0.0, 0.0), ComplexTime(5e-324, 0.0), ComplexTime.from_polar(2.5, 0.3),
                ComplexTime.from_polar(900.0, 1.1)):
        for beta in (1, 2):
            assert dsff_theory_grid([tau], 64, kappa4=-1.0, beta=beta) == [dsff_theory(tau, 64, -1.0, beta)]
        assert ginibre_exact_dsff_grid([tau], 64) == [ginibre_exact_dsff(tau, 64)]
    # a point's at most three rows cost less than a table: no table
    assert table_calls == []


def test_empty_grid():
    assert dsff_theory_grid([], 8) == []
    assert ginibre_exact_dsff_grid([], 8) == []


def _exact_grid_matches_pointwise(taus):
    for tau, g in zip(taus, ginibre_exact_dsff_grid(taus, 256)):
        want = ginibre_exact_dsff(tau, 256)
        assert g.v_value == want.v_value and g.connected == want.connected
        assert abs(g.disconnected - want.disconnected) <= 1e-13 * max(1.0, abs(want.disconnected))


def test_exact_grid_matches_pointwise(table_calls):
    _exact_grid_matches_pointwise(build_tau_grid(0.0, 0.1, 32.0, 60))
    assert len(table_calls) == 1
