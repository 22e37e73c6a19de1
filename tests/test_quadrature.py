import math

import numpy as np
import pytest

from dsff_lab.bessel import bessel_j
from dsff_lab.quadrature import (
    boundary_average,
    chord_integral,
    disk_grid,
    disk_integral,
    real_axis_correction_integral,
)


@pytest.fixture(scope="module")
def grid():
    return disk_grid(400, 512)


def test_weight_sum_is_disk_area(grid):
    assert grid.weight_sum == pytest.approx(math.pi, abs=1e-13)


def test_constant_and_radial_moments(grid):
    assert disk_integral(lambda x, y: np.ones_like(x), grid) == pytest.approx(
        math.pi, abs=1e-12
    )
    # int r^2 dA = pi/2
    assert disk_integral(lambda x, y: x * x + y * y, grid) == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )


def test_plane_wave_integral(grid):
    # int e^{i(tx+sy)} dA = 2 pi J_1(|tau|)/|tau|
    t, s = 3.0, 4.0
    val = disk_integral(lambda x, y: np.exp(1j * (t * x + s * y)), grid)
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


def test_grid_validation():
    with pytest.raises(ValueError):
        disk_grid(0, 8)
    with pytest.raises(ValueError):
        disk_grid(8, 0)


def test_boundary_average():
    assert boundary_average(lambda th: np.cos(th) ** 2) == pytest.approx(0.5, abs=1e-14)
    val = boundary_average(lambda th: np.exp(1j * 13.0 * np.cos(th)))
    assert val.real == pytest.approx(0.20692610237706781, abs=1e-12)  # J_0(13)


def test_boundary_fourier_coefficient():
    # <e^{-ik theta} f>_circle = e^{i phi k} J_k(|tau|)
    t, s, k = 1.5, 0.7, 3
    x, phi = math.hypot(t, s), math.atan2(t, s)
    val = boundary_average(
        lambda th: np.exp(-1j * k * th) * np.exp(1j * (t * np.cos(th) + s * np.sin(th)))
    )
    want = complex(np.exp(1j * phi * k)) * bessel_j(k, x)
    assert abs(val - want) < 1e-13


def test_chord_integral():
    assert chord_integral(0.0) == pytest.approx(0.5, abs=1e-15)
    assert chord_integral(2.0) == pytest.approx(0.11194538957061783, abs=1e-13)


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
        s * s / 8.0, rel=1e-6
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


def test_real_axis_rejects_odd_angular_count():
    odd = disk_grid(32, 65)
    with pytest.raises(ValueError, match="angular_nodes"):
        real_axis_correction_integral(1.0, 1.0, odd)


def test_integrate_values_matches_disk_integral(grid):
    f = lambda x, y: np.cos(x) * np.exp(y)
    assert grid.integrate_values(f(grid.x, grid.y)) == disk_integral(f, grid)
