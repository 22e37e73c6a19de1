"""Unbiased Monte Carlo estimator of the dissipative spectral form factor.

For each sample the linear statistic L_m = sum_j exp(i(t x_j + s y_j)) is
accumulated over the spectrum; then

    k_mean                = mean |L_m|^2 / N^2      (the DSFF estimate)
    connected             = S^2 / N^2               (sample variance of L)
    disconnected_unbiased = (|mean L|^2 - S^2/M)/N^2

The S^2/M subtraction removes the O(1/M) bias of |mean L|^2, which would
otherwise drown the N^2-suppressed connected ramp. The three pieces satisfy
k_mean = disconnected_unbiased + connected exactly (not just in expectation).
The contact diagonal 1/N is part of k_mean; it is reported separately only
for display.

The L values come from one of two kernels. `dsff_grid` splits a grid into
rays from the origin and sends a ray through the Chebyshev-moment route
`kernels.ray_linear_stat_sums` when that is cheaper; every other point,
`dsff_point` included, goes through `kernels.linear_stat_sums`. Over M
samples, a ray of P points costs (K + 1)(M(N + P) + TABLE_COST) Chebyshev
steps (per sample, K + 1 moments of a row dot and half a recurrence step per
eigenvalue and one contraction term per point; per grid, the K + 1 steps of
the Bessel table), the pointwise route POINT_COST steps per eigenvalue, point
and sample (one tangent and its half-angle identity). The statistics below
are whole-array numpy steps over cache-sized blocks of rows of L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _args, kernels
from .bessel import MAX_ORDER, TABLE_MIN_ARGUMENT, truncation_order
from .theory import ComplexTime, _complex_times

__all__ = [
    "DsffEstimate",
    "estimate_from_linear_stats",
    "dsff_point",
    "dsff_grid",
    "build_tau_grid",
]

# Largest |sin| of the angle between a grid point and the ray through the
# farthest point that still counts as on the ray: a few rounding units, so
# grids from build_tau_grid qualify at every theta.
RAY_TOLERANCE = 8 * np.finfo(np.float64).eps

# Cost of one pointwise phase term (one tan and its half-angle identity) in
# Chebyshev steps on one eigenvalue, the unit of the ray route's cost rule:
# 3-16, about 8 in the median over 160 grid shapes, with one thread on
# AVX-512 x86-64 (numpy 2.4), where a step is one moment of the product pass
# (half a recurrence step and one row dot) plus one contraction term.
POINT_COST = 8.0

# Cost of one order of the ray route's Bessel table, paid once per grid
# whatever M is, in the same steps: about 1,700 in the median over 162 grid
# shapes with M from 1 to 32, on the same machine. It sends grids over one
# or a few samples to the pointwise route.
TABLE_COST = 1700.0

# Largest max |tau| * rho dsff_grid accepts: phases t*Re(lambda) + s*Im(lambda)
# then carry a rounding error of about 1e8 * 2^-53 ~ 1e-8 rad.
MAX_PHASE = 1e8


@dataclass(frozen=True)
class DsffEstimate:
    """One grid point's statistics; with m = 1 every statistic but k_mean and contact is NaN."""

    tau: ComplexTime
    k_mean: float
    k_stderr: float
    disconnected_unbiased: float
    connected: float
    connected_stderr: float
    contact: float
    m: int
    # the Chebyshev order K of the ray route if that route computed this
    # estimate, None if the pointwise route did; two estimates with the same
    # values compare equal whichever route gave them
    ray_order: int | None = field(default=None, compare=False)


def estimate_from_linear_stats(stats, n, tau):
    """Estimator statistics from an (M,) array of per-sample L values.

    Split out from dsff_point so synthetic L arrays with known mean and
    variance can drive the estimator directly in tests. It is the one-row
    case of the statistics dsff_grid computes over a whole grid, so it gives
    the same bytes as a grid row with the same L values.
    """
    stats = np.asarray(stats, dtype=np.complex128)
    return _estimates(stats[np.newaxis], _args.count(n, "n"), _complex_times([tau]))[0]


def _estimates(stats, n, taus, order=None):
    """One DsffEstimate per row of a (P, M) array of L values, row p at taus[p].

    order is the ray route's Chebyshev order K if it computed stats.

    Every statistic is a reduction along the rows, which numpy sums
    pairwise row by row, so row p gives the same bytes whatever P is. The
    means and the standard deviation are spelled out as the steps np.mean
    and np.std(ddof=1) take, with the same bytes and less overhead per call.
    """
    m = stats.shape[1]
    n2 = float(n) ** 2
    # one (P, M) work array, reused in place, and one transient beside it
    work = np.square(stats.real)
    work += np.square(stats.imag)
    work /= n2  # |L|^2 / N^2 per sample
    k_mean = work.sum(axis=1) / m
    if m < 2:
        nan = float("nan")
        return [
            DsffEstimate(tau=tau, k_mean=k, k_stderr=nan, disconnected_unbiased=nan,
                         connected=nan, connected_stderr=nan, contact=1.0 / n, m=m, ray_order=order)
            for tau, k in zip(taus, k_mean.tolist())
        ]
    work -= k_mean[:, np.newaxis]
    work *= work
    k_stderr = np.sqrt(work.sum(axis=1) / (m - 1)) / math.sqrt(m)
    mean_l = stats.sum(axis=1) / m
    # |L - mean L|^2, taking the real and imaginary parts of L - mean L apart
    np.subtract(stats.real, mean_l.real[:, np.newaxis], out=work)
    work *= work
    dev_im = stats.imag - mean_l.imag[:, np.newaxis]
    dev_im *= dev_im
    work += dev_im
    del dev_im
    s2 = work.sum(axis=1) / (m - 1)
    # |mean L|^2 as the scalar abs(.) ** 2 (libm hypot and pow): numpy's SIMD
    # complex abs and its array square (x * x) can round the last bit
    # otherwise, and disconnected_unbiased is a near-cancellation that
    # magnifies it
    mean_sq = np.array([abs(v) ** 2 for v in mean_l])
    disconnected = (mean_sq - s2 / m) / n2
    work *= work
    m4 = work.sum(axis=1) / m
    connected_stderr = np.sqrt(np.maximum(m4 - s2 * s2, 0.0) / m) / n2
    columns = (k_mean, k_stderr, disconnected, s2 / n2, connected_stderr)
    return [
        DsffEstimate(tau, k, k_se, disc, conn, conn_se, 1.0 / n, m, order)
        for tau, k, k_se, disc, conn, conn_se in zip(taus, *(c.tolist() for c in columns))
    ]


def dsff_point(sset, tau):
    """DSFF estimate at one complex time from a SpectrumSet."""
    return dsff_grid(sset, [tau])[0]


def _ray_plans(sset, taus):
    """[(indices, (direction, radii, rho, K)), ...]: the rays the ray route takes.

    A ray is every point left whose direction agrees within RAY_TOLERANCE
    with the farthest point left (the origin joins the first ray). A ray of
    P points qualifies when rho > 0, every positive r rho >= TABLE_MIN_ARGUMENT,
    K <= MAX_ORDER and (K + 1)(M(N + P) + TABLE_COST) < POINT_COST P N M, its
    cost against the pointwise route's; one point never pays.
    """
    rho, n, m = sset.spectral_radius, sset.n, sset.m
    t, s = np.array([(tau.t, tau.s) for tau in taus]).reshape(-1, 2).T
    radii, left, plans = np.array([tau.abs_tau for tau in taus]), np.arange(len(taus)), []
    while rho > 0.0 and left.size > 1 and radii[left].max() > 0.0:
        far = left[radii[left].argmax()]
        c, d = t[far] / radii[far], s[far] / radii[far]
        cross, dot = t[left] * d - s[left] * c, t[left] * c + s[left] * d
        on = (np.abs(cross) <= RAY_TOLERANCE * radii[left]) & (dot >= 0.0)
        ray, left = left[on], left[~on]
        x = rho * radii[ray]
        order = truncation_order(float(x.max()))
        if (x[x > 0.0].min(initial=math.inf) >= TABLE_MIN_ARGUMENT and order <= MAX_ORDER
                and (order + 1) * (m * (n + ray.size) + TABLE_COST) < POINT_COST * ray.size * n * m):
            plans.append((ray, ((c, d), radii[ray], rho, order)))
    return plans


def dsff_grid(sset, taus):
    """DSFF estimates over a tau grid.

    The grid is split into rays (_ray_plans): a ray the cost rule favours
    goes through kernels.ray_linear_stat_sums, every other point through
    kernels.linear_stat_sums, one pass over the samples per point, in grid
    order. Each estimate's ray_order field names the route taken. A grid
    whose max |tau| times the spectral radius exceeds MAX_PHASE is refused.
    """
    taus = _complex_times(taus)
    rho = sset.spectral_radius
    reach = max((tau.abs_tau for tau in taus), default=0.0) * rho
    if reach > MAX_PHASE:
        raise ValueError(f"|tau| * rho = {reach:.3g} exceeds the phase limit {MAX_PHASE:g}, rho={rho:.6g}")
    re = np.asarray(sset.eigenvalues.real, dtype=np.float64)
    im = np.asarray(sset.eigenvalues.imag, dtype=np.float64)
    placed = {}

    def place(points, stats, order):
        # blocks of whole rows keep the statistics' work arrays in cache and
        # the memory peak flat; a row's bytes do not depend on the blocking
        rows = max(1, kernels._BLOCK_ELEMENTS // sset.m)
        for a in range(0, len(points), rows):
            block = points[a:a + rows]
            placed.update(zip(block, _estimates(stats[a:a + rows], sset.n, [taus[p] for p in block], order)))

    for ray, plan in _ray_plans(sset, taus):
        place(ray.tolist(), kernels.ray_linear_stat_sums(re, im, *plan), plan[3])
    rest = [p for p in range(len(taus)) if p not in placed]
    stats = np.empty((len(rest), sset.m), dtype=np.complex128)
    for row, p in zip(stats, rest):
        row[:] = kernels.linear_stat_sums(re, im, taus[p].t, taus[p].s)
    place(rest, stats, None)
    return [placed[p] for p in range(len(taus))]


def build_tau_grid(theta, tau_min, tau_max, points, spacing="log"):
    """ComplexTime grid along the ray at angle theta.

    spacing "log" needs tau_min > 0; "linear" also accepts tau_min = 0.
    """
    theta, points = _args.real(theta, "theta"), _args.count(points, "points")
    tau_min, tau_max = _args.real(tau_min, "tau_min"), _args.real(tau_max, "tau_max")
    if tau_min > tau_max:
        raise ValueError(f"tau_min={tau_min} exceeds tau_max={tau_max}")
    if spacing == "log":
        if tau_min <= 0:
            raise ValueError("log spacing requires tau_min > 0")
        values = np.geomspace(tau_min, tau_max, points)
    elif spacing == "linear":
        if tau_min < 0:
            raise ValueError("tau_min must be nonnegative")
        values = np.linspace(tau_min, tau_max, points)
    else:
        raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    return [ComplexTime.from_polar(v, theta) for v in values.tolist()]
