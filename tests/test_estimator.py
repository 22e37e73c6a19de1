import math

import numpy as np
import pytest

from dsff_lab import kernels
from dsff_lab.bessel import MAX_ORDER, truncation_order
from dsff_lab.ensembles import EnsembleSpec
from dsff_lab.estimator import (
    build_tau_grid,
    dsff_grid,
    dsff_point,
    estimate_from_linear_stats,
)
from dsff_lab.spectra import SpectrumSet
from dsff_lab.theory import ComplexTime


def _disk_spectra(m, n, seed):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, (m, n)))
    ang = rng.uniform(0.0, 2.0 * math.pi, (m, n))
    return r * np.exp(1j * ang)


def _sset(eigs, field="complex"):
    return SpectrumSet(
        spec=EnsembleSpec(field=field, distribution="gaussian", n=eigs.shape[1]),
        master_seed=0,
        eigenvalues=eigs,
    )


def _ray_order(sset, taus):
    """The one ray_order that every estimate of the grid reports."""
    (order,) = {est.ray_order for est in dsff_grid(sset, taus)}
    return order


def test_k_mean_matches_double_sum():
    eigs = _disk_spectra(1, 25, 2)
    sset = _sset(eigs)
    tau = ComplexTime(0.9, 1.4)
    est = dsff_point(sset, tau)
    diff_re = eigs[0].real[:, None] - eigs[0].real[None, :]
    diff_im = eigs[0].imag[:, None] - eigs[0].imag[None, :]
    brute = float(np.exp(1j * (tau.t * diff_re + tau.s * diff_im)).sum().real) / 25**2
    assert est.k_mean == pytest.approx(brute, rel=1e-12, abs=0.0)


def test_decomposition_identity():
    # k_mean = disconnected_unbiased + connected holds exactly by construction
    eigs = _disk_spectra(12, 20, 3)
    est = dsff_point(_sset(eigs), ComplexTime(2.0, 0.5))
    assert est.k_mean == pytest.approx(
        est.disconnected_unbiased + est.connected, rel=1e-14, abs=0.0
    )
    assert est.contact == 1.0 / 20
    assert est.m == 12


def test_estimate_from_linear_stats_moments():
    rng = np.random.default_rng(4)
    stats = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * 1.5 + (2.0 + 1.0j)
    n = 10
    est = estimate_from_linear_stats(stats, n, ComplexTime(1.0, 0.0))
    k_samples = np.abs(stats) ** 2 / n**2
    assert est.k_mean == pytest.approx(float(np.mean(k_samples)), rel=1e-14, abs=0.0)
    assert est.k_stderr == pytest.approx(
        float(np.std(k_samples, ddof=1)) / math.sqrt(50), rel=1e-12, abs=0.0
    )
    s2 = float(np.sum(np.abs(stats - stats.mean()) ** 2)) / 49
    assert est.connected == pytest.approx(s2 / n**2, rel=1e-12, abs=0.0)
    assert est.disconnected_unbiased == pytest.approx(
        (abs(stats.mean()) ** 2 - s2 / 50) / n**2, rel=1e-12, abs=0.0
    )


def test_single_sample_withholds_decomposition():
    est = estimate_from_linear_stats(np.array([3.0 + 4.0j]), 10, ComplexTime(1.0, 0.0))
    assert est.k_mean == 0.25
    assert math.isnan(est.k_stderr)
    assert math.isnan(est.disconnected_unbiased)
    assert math.isnan(est.connected)
    assert math.isnan(est.connected_stderr)
    assert est.contact == 0.1


def test_tau_zero_is_exact():
    est = dsff_point(_sset(_disk_spectra(5, 40, 5)), ComplexTime(0.0, 0.0))
    assert est.k_mean == 1.0
    assert est.k_stderr == 0.0
    assert est.connected == 0.0
    assert est.disconnected_unbiased == 1.0


def test_permutation_invariance():
    eigs = _disk_spectra(6, 35, 6)
    tau = ComplexTime(1.7, -0.9)
    base = dsff_point(_sset(eigs), tau)
    rng = np.random.default_rng(7)
    shuffled = eigs[:, rng.permutation(35)]
    est = dsff_point(_sset(shuffled), tau)
    # same multiset per sample; only the summation order changed
    assert est.k_mean == pytest.approx(base.k_mean, rel=1e-12, abs=0.0)
    assert est.connected == pytest.approx(base.connected, rel=1e-11, abs=0.0)


def test_repeat_call_is_bitwise_deterministic():
    sset = _sset(_disk_spectra(4, 22, 8))
    tau = ComplexTime(2.2, 0.4)
    a, b = dsff_point(sset, tau), dsff_point(sset, tau)
    assert (a.k_mean, a.k_stderr, a.connected) == (b.k_mean, b.k_stderr, b.connected)


def test_dsff_grid_matches_pointwise():
    # a cross-route check: the grid takes the Chebyshev ray route, each
    # dsff_point the pointwise kernel
    sset = _sset(_disk_spectra(200, 64, 9))
    taus = build_tau_grid(0.3, 0.5, 8.0, 40, "log")
    assert _ray_order(sset, taus) is not None
    grid_ests = dsff_grid(sset, taus)
    assert len(grid_ests) == 40
    for tau, est in zip(taus, grid_ests):
        single = dsff_point(sset, tau)
        assert est.k_mean == pytest.approx(single.k_mean, rel=1e-12, abs=0.0)
        assert est.tau == tau


def test_long_ray_over_few_eigenvalues_takes_the_ray_route():
    # 400 points to |tau| = 2 sqrt(N): the L array is large next to the
    # spectra, and the moment pass costs under a fifth of the phase sums
    sset = _sset(_disk_spectra(200, 64, 16))
    taus = build_tau_grid(0.7, 0.1, 16.0, 400, "log")
    assert _ray_order(sset, taus) is not None
    grid_ests = dsff_grid(sset, taus)
    for tau, est in list(zip(taus, grid_ests))[::40]:
        assert est.k_mean == pytest.approx(dsff_point(sset, tau).k_mean, rel=1e-12, abs=0.0)


def test_a_long_ray_over_few_samples_takes_the_ray_route():
    # 1,000 points to |tau| = 400 over 32 samples of N=256: K = 588, and the
    # Bessel table, 589 x 1,000 entries, is larger than the L array
    sset = _sset(1.2 * _disk_spectra(32, 256, 17))
    taus = build_tau_grid(0.3, 0.1, 400.0, 1000)
    ests = dsff_grid(sset, taus)
    assert {e.ray_order for e in ests} == {truncation_order(sset.spectral_radius * taus[-1].abs_tau)}
    for tau, est in list(zip(taus, ests))[::50]:
        assert est.k_mean == pytest.approx(dsff_point(sset, tau).k_mean, rel=1e-12, abs=0.0)


def _row_bytes(est):
    return np.array([est.k_mean, est.k_stderr, est.disconnected_unbiased, est.connected,
                     est.connected_stderr]).tobytes(), est.ray_order


def test_a_grid_of_three_rays_gives_the_rows_of_three_one_ray_calls():
    # the three rays' points interleaved in one grid, against one call per ray
    sset = _sset(1.2 * _disk_spectra(300, 64, 18))
    rays = [build_tau_grid(theta, 0.3, 12.0, 30) for theta in (0.0, math.pi / 4, math.pi / 2)]
    apart = [[_row_bytes(est) for est in dsff_grid(sset, ray)] for ray in rays]
    together = dsff_grid(sset, [tau for trio in zip(*rays) for tau in trio])
    assert [_row_bytes(est) for est in together] == [row for trio in zip(*apart) for row in trio]
    assert None not in {order for ray in apart for _, order in ray}


def test_ray_grid_from_zero_is_exact_there():
    sset = _sset(_disk_spectra(200, 64, 10))
    taus = build_tau_grid(math.pi / 4, 0.0, 12.0, 40, "linear")
    assert _ray_order(sset, taus) is not None
    est = dsff_grid(sset, taus)[0]
    assert est.tau.abs_tau == 0.0
    assert est.k_mean == 1.0
    assert est.k_stderr == 0.0
    assert est.connected == 0.0
    assert est.disconnected_unbiased == 1.0


def test_ray_grid_is_bitwise_deterministic():
    sset = _sset(_disk_spectra(200, 64, 11))
    taus = build_tau_grid(1.1, 0.2, 10.0, 30, "log")
    assert _ray_order(sset, taus) is not None
    first, again = dsff_grid(sset, taus), dsff_grid(sset, taus)
    for a, b in zip(first, again):
        assert (a.k_mean, a.k_stderr, a.connected, a.connected_stderr) == (
            b.k_mean, b.k_stderr, b.connected, b.connected_stderr)


def _count_kernel_calls(monkeypatch):
    calls = []
    pointwise = kernels.linear_stat_sums

    def counted(*args):
        calls.append(args[2:])
        return pointwise(*args)

    def refuse(*args):
        raise AssertionError("ray route taken")

    monkeypatch.setattr(kernels, "linear_stat_sums", counted)
    monkeypatch.setattr(kernels, "ray_linear_stat_sums", refuse)
    return calls


def test_point_and_off_ray_grids_stay_pointwise(monkeypatch):
    sset = _sset(_disk_spectra(200, 64, 12))
    ray = build_tau_grid(0.4, 0.5, 8.0, 40, "log")
    assert _ray_order(sset, ray) is not None
    calls = _count_kernel_calls(monkeypatch)
    one = [ComplexTime(1.2, 0.7)]
    # every point of an arc is a ray of its own, and one point never pays
    arc = [ComplexTime.from_polar(8.0, 0.4 + 0.05 * k) for k in range(20)]
    for taus in (one, arc):
        calls.clear()
        assert [(e.tau, e.ray_order) for e in dsff_grid(sset, taus)] == [(tau, None) for tau in taus]
        assert calls == [(tau.t, tau.s) for tau in taus]
    dsff_point(sset, one[0])
    assert calls[-1] == (1.2, 0.7)


@pytest.mark.parametrize("m, n, tau_min, tau_max, points", [
    (500, 128, 0.1, 2.0 * math.sqrt(128), 120),  # a real N=128 cache reanalysed
    (32, 256, 0.3, 25.0, 80),  # the cold figure
    (1000, 256, 0.3, 25.0, 80),  # the A1 grid
    (40, 64, 0.1, 16.0, 40),  # a few thousand eigenvalues, where both take milliseconds
])
def test_figure_sized_grids_take_the_ray_route(m, n, tau_min, tau_max, points):
    # sampled spectra reach a radius of about 1.1-1.2, and a larger radius
    # needs a higher order, so these disks are scaled to 1.2
    sset = _sset(1.2 * _disk_spectra(m, n, 14))
    for theta in (0.0, math.pi / 4, math.pi / 2):
        ray = build_tau_grid(theta, tau_min, tau_max, points)
        assert _ray_order(sset, ray) is not None
        assert _ray_order(sset, ray[-1:]) is None
        # two interleaved rays are split, and each takes the ray route
        other = build_tau_grid(theta + 0.5, tau_min, tau_max, points)
        mix = dsff_grid(sset, ray[::2] + other[1::2])
        assert [e.ray_order for e in mix] == [_ray_order(sset, ray[::2])] * (points // 2) + [
            _ray_order(sset, other[1::2])] * (points // 2)


def _per_row_reference(stats, n):
    """The estimator's statistics from one row of L values, in scalar steps."""
    m = stats.shape[0]
    n2 = float(n) ** 2
    k_samples = (stats.real**2 + stats.imag**2) / n2
    mean_l = np.mean(stats)
    dev = stats - mean_l
    abs_dev_sq = dev.real**2 + dev.imag**2
    s2 = float(np.sum(abs_dev_sq)) / (m - 1)
    m4 = float(np.mean(abs_dev_sq**2))
    return (
        float(np.mean(k_samples)),
        float(np.std(k_samples, ddof=1)) / math.sqrt(m),
        float((abs(mean_l) ** 2 - s2 / m) / n2),
        s2 / n2,
        math.sqrt(max(m4 - s2 * s2, 0.0) / m) / n2,
    )


@pytest.mark.parametrize("theta", [0.3, None])
def test_grid_rows_match_the_per_row_reference_bytes(theta):
    # whole-array steps over blocks of rows of the (P, M) array of L give
    # each row the bytes of the scalar per-row steps and of
    # estimate_from_linear_stats, on the ray route and point by point; 60
    # rows of 300 samples make two blocks
    sset = _sset(_disk_spectra(300, 64, 15))
    re, im = sset.eigenvalues.real, sset.eigenvalues.imag
    if theta is None:
        taus = [ComplexTime(0.05 * k, 2.0 - 0.02 * k) for k in range(60)]
        assert _ray_order(sset, taus) is None
        rows = [kernels.linear_stat_sums(re, im, tau.t, tau.s) for tau in taus]
    else:
        taus = build_tau_grid(theta, 0.5, 8.0, 60)
        far = taus[-1]
        order = truncation_order(sset.spectral_radius * far.abs_tau)
        rows = kernels.ray_linear_stat_sums(
            re, im, (far.t / far.abs_tau, far.s / far.abs_tau), [tau.abs_tau for tau in taus],
            sset.spectral_radius, order)
    for tau, row, est in zip(taus, rows, dsff_grid(sset, taus)):
        assert est.ray_order == (None if theta is None else order)
        got = (est.k_mean, est.k_stderr, est.disconnected_unbiased, est.connected,
               est.connected_stderr)
        assert got == _per_row_reference(row, sset.n)
        assert estimate_from_linear_stats(row, sset.n, tau) == est


def test_ray_order_rejects_grids_outside_its_range():
    sset = _sset(_disk_spectra(200, 64, 13))
    rho = sset.spectral_radius
    # a phase too small for the Bessel table, an order beyond MAX_ORDER
    assert _ray_order(sset, build_tau_grid(0.2, 1e-60, 8.0, 40, "log")) is None
    assert _ray_order(sset, build_tau_grid(0.2, 1.0, 2.0 * MAX_ORDER / rho, 40, "log")) is None
    # opposite directions are two rays, and a ray of one point stays pointwise
    ray = build_tau_grid(0.2, 0.5, 8.0, 40)
    mix = dsff_grid(sset, ray + [ComplexTime.from_polar(1.0, 0.2 + math.pi)])
    assert [e.ray_order for e in mix] == [_ray_order(sset, ray)] * 40 + [None]
    # an order that costs more than 12 points' phase sums; over M=2 samples
    # the Bessel table, paid once per grid, outweighs the phase sums it saves
    assert _ray_order(sset, build_tau_grid(0.2, 0.5, 100.0, 12)) is None
    assert _ray_order(_sset(_disk_spectra(2, 256, 13)), build_tau_grid(0.2, 0.5, 100.0, 40)) is None
    zero = _sset(np.zeros((200, 64), dtype=complex))
    assert _ray_order(zero, build_tau_grid(0.2, 0.5, 8.0, 40)) is None
    assert [e.k_mean for e in dsff_grid(zero, build_tau_grid(0.2, 0.5, 8.0, 3))] == [1.0] * 3


def test_build_tau_grid_log():
    taus = build_tau_grid(0.0, 0.1, 10.0, 5, "log")
    radii = [t.abs_tau for t in taus]
    assert radii[0] == pytest.approx(0.1, rel=1e-12, abs=0.0)
    assert radii[-1] == pytest.approx(10.0, rel=1e-12, abs=0.0)
    ratios = [radii[i + 1] / radii[i] for i in range(4)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-10, abs=0.0)
    assert all(t.s == 0.0 for t in taus)


def test_build_tau_grid_linear_allows_zero():
    taus = build_tau_grid(math.pi / 4, 0.0, 2.0, 3, "linear")
    assert taus[0].abs_tau == 0.0
    assert taus[1].t == pytest.approx(taus[1].s, rel=1e-12, abs=0.0)
    assert taus[2].abs_tau == pytest.approx(2.0, rel=1e-15, abs=0.0)


def test_build_tau_grid_validation():
    with pytest.raises(ValueError, match="log"):
        build_tau_grid(0.0, 0.0, 5.0, 4, "log")
    with pytest.raises(ValueError, match="points"):
        build_tau_grid(0.0, 0.1, 5.0, 0)
    with pytest.raises(ValueError, match="exceeds"):
        build_tau_grid(0.0, 6.0, 5.0, 4)
    with pytest.raises(ValueError, match="spacing"):
        build_tau_grid(0.0, 0.1, 5.0, 4, "cubic")


def test_theta_ray_direction():
    taus = build_tau_grid(math.pi / 2, 1.0, 2.0, 2, "linear")
    for tau in taus:
        assert abs(tau.t) < 1e-12
        assert tau.s > 0
