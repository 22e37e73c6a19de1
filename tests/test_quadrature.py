import math

import numpy as np
import pytest

from dsff_lab.bessel import bessel_j
from dsff_lab.kernels import linear_stat_sums
from dsff_lab.quadrature import (
    LINE_PANEL_PHASE,
    disk_grid,
    plane_wave_row_sums,
    quarter_circle_rule,
    quarter_row_sums,
    real_axis_correction_integral,
    real_axis_correction_line,
)
from dsff_lab.verify import _boundary_average, _chord_integral


@pytest.fixture(scope="module")
def grid():
    return disk_grid(400, 512)


def test_weight_sum_is_disk_area(grid):
    assert grid.weight_sum == pytest.approx(math.pi, abs=1e-13)


def test_constant_and_radial_moments(grid):
    assert grid.integrate_values(np.ones_like(grid.x)) == pytest.approx(math.pi, abs=1e-12)
    # int r^2 dA = pi/2
    assert grid.integrate_values(grid.x**2 + grid.y**2) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_plane_wave_integral(grid):
    # int e^{i(tx+sy)} dA = 2 pi J_1(|tau|)/|tau|
    t, s = 3.0, 4.0
    val = grid.integrate_values(np.exp(1j * (t * grid.x + s * grid.y)))
    want = 2.0 * math.pi * bessel_j(1, 5.0) / 5.0
    assert val.real == pytest.approx(want, abs=1e-12)
    assert abs(val.imag) < 1e-12


def test_node_symmetry(grid):
    # even angular count with half-offset: angles pair off under both
    # reflections, and no node sits on the real axis
    n = grid.angular_nodes
    th = grid.theta
    assert np.allclose(th[: n // 2] + th[n // 2 - 1 :: -1], math.pi, atol=1e-12)
    assert np.allclose(th + th[::-1], 2.0 * math.pi, atol=1e-12)
    assert np.min(np.abs(np.sin(th))) > 1e-3


def test_disk_grid_is_shared_and_read_only(grid):
    assert disk_grid(400, 512) is grid
    for name in ("x", "y", "radial_weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        disk_grid(0, 8)
    with pytest.raises(ValueError):
        disk_grid(8, 0)


# verify's own circle and chord rules, which only its literals reach


def test_boundary_average():
    assert _boundary_average(lambda th: np.cos(th) ** 2) == pytest.approx(0.5, abs=1e-14)
    val = _boundary_average(lambda th: np.exp(1j * 13.0 * np.cos(th)))
    assert val.real == pytest.approx(0.20692610237706781, abs=1e-12)  # J_0(13)


def test_boundary_fourier_coefficient():
    # <e^{-ik theta} f>_circle = e^{i phi k} J_k(|tau|), sin(phi) = t/|tau|
    t, s, k = 1.5, 0.7, 3
    x, phi = math.hypot(t, s), math.atan2(t, s)
    val = _boundary_average(
        lambda th: np.exp(-1j * k * th) * np.exp(1j * (t * np.cos(th) + s * np.sin(th)))
    )
    want = complex(np.exp(1j * phi * k)) * bessel_j(k, x)
    assert abs(val - want) < 1e-13


def test_chord_integral():
    assert _chord_integral(0.0) == pytest.approx(0.5, abs=1e-15)
    assert _chord_integral(2.0) == pytest.approx(0.11194538957061783, abs=1e-13)


def test_real_axis_frozen_values(grid):
    assert real_axis_correction_integral(1.0, 1.0, grid) == pytest.approx(
        0.10765912372944644, abs=1e-12
    )
    assert real_axis_correction_integral(1.5, 0.7, grid) == pytest.approx(
        0.045053252079069284, abs=1e-12
    )


def test_real_axis_vanishes_at_s_zero(grid):
    assert real_axis_correction_integral(2.7, 0.0, grid) == 0.0


def test_real_axis_small_s_limit(grid):
    # I(0, s) -> s^2/8 as s -> 0
    s = 1e-3
    assert real_axis_correction_integral(0.0, s, grid) == pytest.approx(
        s * s / 8.0, rel=1e-6, abs=0.0
    )


def test_real_axis_even_in_both_arguments(grid):
    base = real_axis_correction_integral(1.5, 0.7, grid)
    assert real_axis_correction_integral(-1.5, 0.7, grid) == base
    assert real_axis_correction_integral(1.5, -0.7, grid) == base


def test_real_axis_grid_refinement(grid):
    coarse = disk_grid(200, 256)
    assert real_axis_correction_integral(1.0, 1.0, coarse) == pytest.approx(
        real_axis_correction_integral(1.0, 1.0, grid), abs=1e-12
    )


# the quarter fold takes multiples of 4 angular nodes only: 65 is odd, and
# 130 would put a column on theta = pi/2
def test_real_axis_rejects_odd_angular_count():
    for angular in (65, 130):
        with pytest.raises(ValueError, match="angular_nodes"):
            real_axis_correction_integral(1.0, 1.0, disk_grid(32, angular))


def test_integrate_values_matches_disk_integral(grid):
    # cos(x) e^y is harmonic, so its disk integral is pi f(0, 0) = pi
    f = lambda x, y: np.cos(x) * np.exp(y)
    assert grid.integrate_values(f(grid.x, grid.y)) == pytest.approx(math.pi, abs=1e-12)


def test_plane_wave_from_row_sums_matches_full_grid(grid):
    # the grid's node arrays go through the phase-sum kernel as an (M, N)
    # block; its per-row sums contracted with the radial weights give the
    # integral of the complex exponential evaluated on every node
    rng = np.random.default_rng(11)
    radial = 2.0 * grid.r**2 - 1.0
    for t, s in [(0.0, 0.0), (9.5, 0.0), *rng.uniform(-20.0, 20.0, (10, 2))]:
        wave = np.exp(1j * (t * grid.x + s * grid.y))
        row_sums = linear_stat_sums(grid.x, grid.y, t, s)
        assert abs(grid.integrate_rows(row_sums) - grid.integrate_values(wave)) <= 1e-15
        weighted = grid.integrate_values(wave * (2.0 * (grid.x**2 + grid.y**2) - 1.0))
        assert abs(grid.integrate_rows(radial * row_sums) - weighted) <= 1e-15


def test_plane_wave_from_row_sums_at_zero_time_is_pi(grid):
    assert grid.integrate_rows(linear_stat_sums(grid.x, grid.y, 0.0, 0.0)) == math.pi


@pytest.mark.parametrize("radial, angular", [(400, 512), (200, 256)])
def test_plane_wave_quarter_row_sums_match_kernel(radial, angular):
    # the quarter fold against the kernel's sums over every node
    grid = disk_grid(radial, angular)
    rng = np.random.default_rng(angular + 1)
    points = [(0.0, 0.0), (9.5, 0.0), (-4.0, 0.0), *rng.uniform(-20.0, 20.0, (10, 2))]
    for t, s in points:
        want = grid.integrate_rows(linear_stat_sums(grid.x, grid.y, t, s)).real
        assert abs(grid.integrate_rows(plane_wave_row_sums(grid, t, s)) - want) <= 1e-14


def test_plane_wave_row_sums_reject_odd_angular_count():
    for angular in (65, 130):
        with pytest.raises(ValueError, match="angular_nodes"):
            plane_wave_row_sums(disk_grid(32, angular), 1.0, 1.0)


@pytest.mark.parametrize("angular", [512])
def test_quarter_row_sums_match_every_node(angular):
    grid = disk_grid(40, angular)
    f = lambda x, y: np.cos(3.0 * x) + x * x * y**4
    np.testing.assert_allclose(
        quarter_row_sums(grid, f), f(grid.x, grid.y).sum(axis=1), rtol=0.0, atol=1e-12
    )


def _real_axis_full_grid(t, s, grid):
    # the even integrand summed over every node, (1 - cos u)/u^2 through sinc
    integrand = np.cos(t * grid.x) * (s * s) * 0.5 * np.sinc(s * grid.y / (2.0 * np.pi)) ** 2
    return grid.integrate_values(integrand) / (4.0 * np.pi)


@pytest.mark.parametrize("radial, angular", [(400, 512), (200, 256)])
def test_real_axis_quarter_grid_matches_full_grid(radial, angular):
    grid = disk_grid(radial, angular)
    rng = np.random.default_rng(angular)
    for t, s in rng.uniform(-32.0, 32.0, (20, 2)):
        want = _real_axis_full_grid(t, s, grid)
        assert abs(real_axis_correction_integral(t, s, grid) - want) <= 1e-14


# I(t, s) to 30 digits: mpmath quadrature of the angular integral, split into
# panels shorter than one oscillation. At every point it agrees with the
# y-form (1/pi) int_0^1 sin(t sqrt(1-y^2))/t (1-cos(s y))/y^2 dy to 1e-20.
# At (100, 100) the 400 x 512 disk grid is off by 5e-13; at (500, 10) and
# (2000, 700) one 96-node panel would be off by 1e-4 and 4e-4.
LINE_REFERENCE = [
    (1.0, 1.0, 0.1076591237294464376423106),
    (32.0, 0.5, -0.00005175399763225120708161973),
    (20.0, 25.0, 0.4882035972257338324173019),
    (100.0, 100.0, -0.2635072900980198799405711),
    (500.0, 10.0, 0.0004950188832107600811125698),
    (2000.0, 700.0, 0.1591827437431134364084497),
]


@pytest.mark.parametrize("t, s, want", LINE_REFERENCE)
def test_real_axis_line_matches_mpmath(t, s, want):
    assert real_axis_correction_line(t, s) == pytest.approx(want, abs=1e-13)


def test_real_axis_line_array_matches_mpmath():
    # one call, as theory makes it, over points of 1, 1, 1, 2, 4 and 22 panels
    t, s, want = np.array(LINE_REFERENCE).T
    assert np.ceil((t + s) / LINE_PANEL_PHASE).tolist() == [1, 1, 1, 2, 4, 22]
    got = real_axis_correction_line(t, s)
    assert got.shape == (6,)
    assert np.abs(got - want).max() <= 1e-13


def test_real_axis_line_broadcasts_a_scalar_against_an_array():
    s = np.array([0.7, 0.0, 25.0, 700.0])
    got = real_axis_correction_line(1.5, s)
    assert got.tolist() == [real_axis_correction_line(1.5, v) for v in s.tolist()]
    assert real_axis_correction_line(s, 1.5).tolist() == [real_axis_correction_line(v, 1.5) for v in s.tolist()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_real_axis_line_rejects_non_finite(bad):
    for t, s in ((bad, 1.0), (1.0, bad), (np.array([1.0, bad]), 1.0), (1.0, np.array([bad, 2.0]))):
        with pytest.raises(ValueError, match="t and s"):
            real_axis_correction_line(t, s)


# np.abs of a complex argument is its modulus, which is no real-axis time
@pytest.mark.parametrize(
    "t, s",
    [(1.5j, 0.7), (1.5, 0.7j), (1.5 + 0j, 0.7), (np.array([1.5j, 2.0]), 0.7), (1.5, np.array([0.7, 2.0 + 0j]))],
)
def test_real_axis_line_refuses_complex_arguments(t, s):
    with pytest.raises(ValueError, match="complex"):
        real_axis_correction_line(t, s)


# np.abs takes a bool as 0 or 1; ComplexTime refuses it too
@pytest.mark.parametrize(
    "t, s",
    [(True, 0.7), (1.5, False), (np.bool_(True), 0.7), (np.array([True, False]), 0.7), (1.5, np.array([False]))],
    ids=["t_bool", "s_bool", "t_np_bool", "t_bool_array", "s_bool_array"],
)
def test_real_axis_line_refuses_bool_arguments(t, s):
    with pytest.raises(ValueError, match="bool"):
        real_axis_correction_line(t, s)


def test_real_axis_line_vanishes_at_s_zero():
    for t in (0.0, 2.7, 300.0):
        assert real_axis_correction_line(t, 0.0) == 0.0


def test_real_axis_line_small_s_limit():
    # I(0, s) -> s^2/8 as s -> 0
    for s in (1e-3, 1e-8):
        assert real_axis_correction_line(0.0, s) == pytest.approx(s * s / 8.0, rel=1e-6, abs=0.0)


def test_real_axis_line_even_in_both_arguments():
    for t, s in ((1.5, 0.7), (90.0, 60.0), (300.0, 2.0)):
        base = real_axis_correction_line(t, s)
        assert real_axis_correction_line(-t, s) == base
        assert real_axis_correction_line(t, -s) == base
        assert real_axis_correction_line(-t, -s) == base


def test_quarter_circle_rule_is_shared_and_read_only():
    rule = quarter_circle_rule(1)
    assert quarter_circle_rule(1) is rule
    for array in rule:
        assert array.shape == (96,)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_quarter_circle_rule_panels():
    for panels in (1, 3):
        cos_phi, sin_phi, weights = quarter_circle_rule(panels)
        assert cos_phi.shape == (96 * panels,)
        assert weights.sum() == pytest.approx(math.pi / 2, abs=1e-14)
        # int_0^{pi/2} cos^2 = pi/4
        assert weights @ cos_phi**2 == pytest.approx(math.pi / 4, abs=1e-14)
        assert np.all(np.diff(sin_phi) > 0.0)
    with pytest.raises(ValueError):
        quarter_circle_rule(0)
