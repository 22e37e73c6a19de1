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

The L values come from one of two kernels. A grid whose points lie on one ray
goes through the Chebyshev-moment route `kernels.ray_linear_stat_sums` when
`ray_order` finds it cheaper; every other grid, `dsff_point` included, goes
point by point through `kernels.linear_stat_sums`. Per sample, the ray route
costs K + 1 moments of one Chebyshev step per eigenvalue (one row dot of two
stored orders and half a recurrence step) and one contraction term per
point, (K + 1)(N + P) steps, and the pointwise route POINT_COST steps per
eigenvalue and point (one tangent and its half-angle identity); M cancels.
The ray route also keeps its moment and Bessel tables within four times the
(P, M) complex array of L that both routes return. Either way the
statistics below are computed by whole-array numpy steps over cache-sized
blocks of rows of that array.
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
    "ray_order",
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

# Largest max |tau| * rho dsff_grid accepts: phases t*Re(lambda) + s*Im(lambda)
# then carry a rounding error of about 1e8 * 2^-53 ~ 1e-8 rad.
MAX_PHASE = 1e8


@dataclass(frozen=True)
class DsffEstimate:
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

    @property
    def decomposition_available(self):
        """False for M = 1: variance-based fields are NaN there."""
        return self.m >= 2


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


def _ray_plan(sset, taus):
    """(direction, radii, rho, K) when the ray route should take this grid, else None.

    It takes a grid of two or more points on one ray from the origin, with a
    nonzero spectral radius, every positive r rho at least TABLE_MIN_ARGUMENT
    and K at most MAX_ORDER, when (K + 1)(N + P) < POINT_COST P N, its cost
    per sample against the pointwise route's, and when its moment and Bessel
    tables, (K + 1)(M + P) floats, hold at most the 8 P M floats of four
    (P, M) complex arrays of L.
    """
    p, m, n = len(taus), sset.m, sset.n
    if p < 2:
        return None
    radii = np.array([tau.abs_tau for tau in taus])
    far = taus[int(radii.argmax())]
    rho = sset.spectral_radius
    if radii.max() == 0.0 or rho == 0.0:
        return None
    c, s = far.t / far.abs_tau, far.s / far.abs_tau
    for tau, r in zip(taus, radii):
        if abs(tau.t * s - tau.s * c) > RAY_TOLERANCE * r or tau.t * c + tau.s * s < 0.0:
            return None
    x = rho * radii
    if x[x > 0.0].min() < TABLE_MIN_ARGUMENT:
        return None
    order = truncation_order(float(x.max()))
    if order > MAX_ORDER:
        return None
    if (order + 1) * (n + p) >= POINT_COST * p * n or (order + 1) * (m + p) > 8 * p * m:
        return None
    return (c, s), radii, rho, order


def ray_order(sset, taus):
    """Chebyshev order K if dsff_grid takes the ray route for this grid, else None."""
    plan = _ray_plan(sset, _complex_times(taus))
    return None if plan is None else plan[3]


def dsff_grid(sset, taus):
    """DSFF estimates over a tau grid.

    A grid on one ray goes through kernels.ray_linear_stat_sums when
    ray_order says so; any other grid through kernels.linear_stat_sums, one
    pass over the samples per point. Each estimate's ray_order field names
    the route taken. A grid whose max |tau| times the spectral radius
    exceeds MAX_PHASE is refused.
    """
    taus = _complex_times(taus)
    rho = sset.spectral_radius
    reach = max((tau.abs_tau for tau in taus), default=0.0) * rho
    if reach > MAX_PHASE:
        raise ValueError(f"|tau| * rho = {reach:.3g} exceeds the phase limit {MAX_PHASE:g}, rho={rho:.6g}")
    plan = _ray_plan(sset, taus)
    re = np.asarray(sset.eigenvalues.real, dtype=np.float64)
    im = np.asarray(sset.eigenvalues.imag, dtype=np.float64)
    if plan is None:
        stats, order = np.empty((len(taus), sset.m), dtype=np.complex128), None
        for row, tau in zip(stats, taus):
            row[:] = kernels.linear_stat_sums(re, im, tau.t, tau.s)
    else:
        stats, order = kernels.ray_linear_stat_sums(re, im, *plan), plan[3]
    # blocks of whole rows keep the statistics' work arrays in cache and the
    # memory peak flat; a row's bytes do not depend on the blocking
    rows = max(1, kernels._BLOCK_ELEMENTS // sset.m)
    return [est for a in range(0, len(taus), rows)
            for est in _estimates(stats[a:a + rows], sset.n, taus[a:a + rows], order)]


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
