import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dsff_lab import kernels
from dsff_lab.bessel import bessel_j_table, truncation_order


def _random_parts(m, n, seed):
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((m, n))
    im = rng.standard_normal((m, n))
    return np.ascontiguousarray(re), np.ascontiguousarray(im)


def _direct_formula(re, im, t, s):
    """Reference route: complex exponentials summed per sample."""
    return np.exp(1j * (t * re + s * im)).sum(axis=1)


def test_numpy_kernel_matches_direct_formula():
    re, im = _random_parts(5, 12, 0)
    t, s = 1.3, -0.4
    got = kernels.linear_stat_sums(re, im, t, s)
    assert got.shape == (5,)
    assert got.dtype == np.complex128
    assert np.allclose(got, _direct_formula(re, im, t, s), rtol=0, atol=1e-12)


def test_active_kernel_matches_numpy_reference():
    re, im = _random_parts(8, 40, 1)
    for t, s in ((0.0, 0.0), (2.0, 0.0), (1.1, -3.3), (-25.0, 17.5)):
        a = kernels.linear_stat_sums(re, im, t, s)
        b = _direct_formula(re, im, t, s)
        assert np.allclose(a, b, rtol=0, atol=1e-10)


def test_zero_time_sums_to_n():
    re, im = _random_parts(4, 17, 3)
    out = kernels.linear_stat_sums(re, im, 0.0, 0.0)
    assert np.array_equal(out, np.full(4, 17.0 + 0.0j))


def test_magnitude_bounded_by_n():
    re, im = _random_parts(6, 50, 4)
    out = kernels.linear_stat_sums(re, im, 3.7, 1.9)
    assert np.all(np.abs(out) <= 50.0 + 1e-9)


def _assert_close_to_direct(got, re, im, t, s):
    # each term is within a few rounding units of exp(i phi), so each row
    # sum is within N x 4e-16
    want = _direct_formula(re, im, t, s)
    assert np.all(np.isfinite(got.view(np.float64)))
    assert np.max(np.abs(got - want)) <= re.shape[1] * 4e-16


def test_phases_up_to_the_cli_limit():
    re, im = _random_parts(6, 64, 20)
    scale = 1e8 / np.abs(re).max()  # t x reaches 1e8, estimator.MAX_PHASE
    for t, s in ((scale, 0.0), (0.5 * scale, -0.4 * scale), (3.7e5, 2.9e5)):
        _assert_close_to_direct(kernels.linear_stat_sums(re, im, t, s), re, im, t, s)


def test_phases_at_the_poles_of_the_half_angle_tangent():
    # phi = (2k + 1) pi puts phi / 2 next to a pole of tan
    k = np.arange(-96, 96).reshape(3, 64)
    re = (2 * k + 1) * np.pi
    im = np.ones_like(re)
    for t, s in ((1.0, 0.0), (3.0, 0.0), (1e5 + 1.0, 0.0), (0.0, np.pi)):
        _assert_close_to_direct(kernels.linear_stat_sums(re, im, t, s), re, im, t, s)


def test_strided_views_give_the_bytes_of_contiguous_copies():
    rng = np.random.default_rng(21)
    eigs = rng.standard_normal((37, 50)) + 1j * rng.standard_normal((37, 50))
    re, im = np.ascontiguousarray(eigs.real), np.ascontiguousarray(eigs.imag)
    views = kernels.linear_stat_sums(eigs.real, eigs.imag, 2.3, -1.4)
    assert views.tobytes() == kernels.linear_stat_sums(re, im, 2.3, -1.4).tobytes()


@pytest.mark.parametrize("m, n", [(1, 64), (170, 200), (3, 20_000)])
def test_bytes_ignore_the_block_split(monkeypatch, m, n):
    # (170, 200) runs blocks of 81 rows and a short last one; (3, 20_000)
    # has rows longer than one block
    re, im = _random_parts(m, n, 22)
    whole = kernels.linear_stat_sums(re, im, 1.7, 0.6)
    rows = [kernels.linear_stat_sums(re[i:i + 1], im[i:i + 1], 1.7, 0.6) for i in range(m)]
    assert np.concatenate(rows).tobytes() == whole.tobytes()
    monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 3 * n)
    assert kernels.linear_stat_sums(re, im, 1.7, 0.6).tobytes() == whole.tobytes()
    _assert_close_to_direct(whole, re, im, 1.7, 0.6)


def test_work_memory_stays_within_one_block():
    re, im = _random_parts(400, 256, 23)  # 800 KB a part
    tracemalloc.start()
    try:
        kernels.linear_stat_sums(re, im, 0.9, 2.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * kernels._BLOCK_ELEMENTS


def _recurrence_moments(re, im, direction, rho, order):
    """Reference route: C_k = sum_j T_k(u_j) by the three-term recurrence to order K."""
    c, s = direction
    m, n = re.shape
    moments = np.empty((order + 1, m))
    moments[0] = n
    u = re * (c / rho) + im * (s / rho)
    moments[1] = u.sum(axis=1)
    two_u = 2.0 * u
    prev, cur, scratch = np.ones_like(u), u.copy(), np.empty_like(u)
    for k in range(2, order + 1):
        np.multiply(two_u, cur, out=scratch)
        np.subtract(scratch, prev, out=prev)  # T_k = 2 u T_{k-1} - T_{k-2}
        prev, cur = cur, prev
        moments[k] = cur.sum(axis=1)
    return moments


@pytest.mark.parametrize("order", [80, 300, 600])
@pytest.mark.parametrize("edge", [(1.0, -1.0), (1.0, -1.0, 1.0 - 1e-6, -(1.0 - 1e-6))],
                         ids=["ends", "ends-and-next-to-them"])
def test_moments_match_the_three_term_recurrence(order, edge):
    # disk spectra of radius 1 on the ray theta = 0, so u = x, with the
    # first eigenvalues of every row put at the edge values
    rng = np.random.default_rng(24)
    eigs = np.sqrt(rng.uniform(0.0, 1.0, (16, 128))) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (16, 128)))
    eigs[:, :len(edge)] = edge
    re, im = np.ascontiguousarray(eigs.real), np.ascontiguousarray(eigs.imag)
    got = kernels._chebyshev_moments(re, im, (1.0, 0.0), 1.0, order)
    want = _recurrence_moments(re, im, (1.0, 0.0), 1.0, order)
    assert got.shape == want.shape == (order + 1, 16)
    assert np.array_equal(got[:2], want[:2])
    # 16 rounding units per eigenvalue; next to u = +-1, T_K'(1) = K^2 and both
    # routes round to about K^2 eps / 100 there (the recurrence misses 30-digit
    # values by 1.7e-12 per eigenvalue at u = 1 - 1e-6 and K = 600), so each
    # such eigenvalue adds K^2 eps / 16
    eps = np.finfo(np.float64).eps
    near_edge = sum(1 for u in edge if abs(u) != 1.0)
    bound = 16 * re.shape[1] * eps + near_edge * order**2 * eps / 16
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("m, n", [(1, 64), (170, 200), (3, 9000)])
def test_moments_and_ray_sums_ignore_the_row_split(m, n):
    # (170, 200) runs blocks of 81 rows and a short last one; rows of 9000
    # are longer than einsum's 8,192-element buffer
    re, im = _random_parts(m, n, 25)
    direction, rho = (math.cos(0.7), math.sin(0.7)), float(np.hypot(re, im).max())
    radii = np.geomspace(0.05 / rho, 30.0 / rho, 17)
    moments = kernels._chebyshev_moments(re, im, direction, rho, 41)
    sums = kernels.ray_linear_stat_sums(re, im, direction, radii, rho, 41)
    rows = [(re[i:i + 1], im[i:i + 1], direction) for i in range(m)]
    assert np.hstack([kernels._chebyshev_moments(*row, rho, 41) for row in rows]).tobytes() == moments.tobytes()
    assert np.hstack([kernels.ray_linear_stat_sums(*row, radii, rho, 41) for row in rows]).tobytes() == sums.tobytes()


def _one_table_ray_sums(re, im, direction, radii, rho, order):
    """Reference route: the ray sums from one Bessel table over every radius."""
    moments = kernels._chebyshev_moments(re, im, direction, rho, order)
    weights = bessel_j_table(order, rho * np.asarray(radii))
    weights[1:] *= 2.0
    weights[2::4] *= -1.0
    weights[3::4] *= -1.0
    out = np.empty((weights.shape[1], moments.shape[1]), dtype=np.complex128)
    out.real = np.einsum("km,kp->pm", moments[0::2], weights[0::2], optimize=False)
    out.imag = np.einsum("km,kp->pm", moments[1::2], weights[1::2], optimize=False)
    return out


@pytest.mark.parametrize("m", [1, 6])
def test_ray_sums_ignore_the_point_split(monkeypatch, m):
    # every block of points starts its recurrence where one table over the
    # whole ray would, so each row has that table's bytes at any block size:
    # here one block, blocks of 6 points with a last one of 1, and blocks of 1
    re, im, direction, radii, rho, order = _ray_inputs(0.4, 60.0, points=199, m=m)
    whole = _one_table_ray_sums(re, im, direction, radii, rho, order)
    assert kernels.ray_linear_stat_sums(re, im, direction, radii, rho, order).tobytes() == whole.tobytes()
    for per_block in (6, 1):
        # a block takes 16 * _TABLE_ELEMENTS // (K + 1) - 1 points
        monkeypatch.setattr(kernels, "_TABLE_ELEMENTS", -(-(per_block + 1) * (order + 1) // 16))
        assert kernels.ray_linear_stat_sums(re, im, direction, radii, rho, order).tobytes() == whole.tobytes()


def _ray_inputs(theta, x_max, points=40, m=8, n=40, seed=5):
    re, im = _random_parts(m, n, seed)
    rho = float(np.hypot(re, im).max())
    radii = np.geomspace(0.1 / rho, x_max / rho, points)
    return re, im, (math.cos(theta), math.sin(theta)), radii, rho, truncation_order(x_max)


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
def test_ray_route_matches_pointwise_kernel(theta):
    re, im, (c, s), radii, rho, order = _ray_inputs(theta, 500.0)
    got = kernels.ray_linear_stat_sums(re, im, (c, s), radii, rho, order)
    assert got.shape == (radii.size, re.shape[0])
    assert got.dtype == np.complex128
    n2 = re.shape[1] ** 2
    for row, r in zip(got, radii):
        want = kernels.linear_stat_sums(re, im, r * c, r * s)
        k_ray = float(np.mean(np.abs(row) ** 2)) / n2
        k_point = float(np.mean(np.abs(want) ** 2)) / n2
        assert k_ray == pytest.approx(k_point, rel=1e-12, abs=0.0)


def test_ray_route_is_bitwise_repeatable():
    args = _ray_inputs(0.3, 40.0)
    a = kernels.ray_linear_stat_sums(*args)
    b = kernels.ray_linear_stat_sums(*args)
    assert a.tobytes() == b.tobytes()


_RAY_BYTES_SCRIPT = """
import hashlib, math, sys
import numpy as np
from dsff_lab import kernels
rng = np.random.default_rng(9)
re, im = rng.standard_normal((64, 96)), rng.standard_normal((64, 96))
rho = float(np.hypot(re, im).max())
radii = np.geomspace(0.05, 30.0, 80)
out = kernels.ray_linear_stat_sums(re, im, (math.cos(0.7), math.sin(0.7)), radii, rho, 140)
sys.stdout.write(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_ray_route_bytes_ignore_blas():
    # the contraction runs in einsum's own loops, so neither the BLAS thread
    # count nor, on x86-64, OpenBLAS's kernel choice can change its rounding
    # (a GEMM contraction gives other bytes under the SSE3-only Prescott core)
    settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    if platform.machine() in ("x86_64", "AMD64"):
        settings.append({"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott"})
    digests = set()
    for setting in settings:
        env = dict(os.environ, **setting)
        done = subprocess.run([sys.executable, "-c", _RAY_BYTES_SCRIPT], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        digests.add(done.stdout)
    assert len(digests) == 1
