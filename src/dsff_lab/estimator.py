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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .theory import ComplexTime

__all__ = [
    "DsffEstimate",
    "estimate_from_linear_stats",
    "dsff_point",
    "dsff_grid",
    "build_tau_grid",
]


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

    @property
    def decomposition_available(self):
        """False for M = 1: variance-based fields are NaN there."""
        return self.m >= 2


def estimate_from_linear_stats(stats, n, tau):
    """Estimator statistics from an (M,) array of per-sample L values.

    Split out from dsff_point so synthetic L arrays with known mean and
    variance can drive the estimator directly in tests.
    """
    stats = np.asarray(stats, dtype=np.complex128)
    m = stats.shape[0]
    n2 = float(n) ** 2
    k_samples = (stats.real**2 + stats.imag**2) / n2
    k_mean = float(np.mean(k_samples))
    if m < 2:
        nan = float("nan")
        return DsffEstimate(
            tau=tau,
            k_mean=k_mean,
            k_stderr=nan,
            disconnected_unbiased=nan,
            connected=nan,
            connected_stderr=nan,
            contact=1.0 / n,
            m=m,
        )
    k_stderr = float(np.std(k_samples, ddof=1)) / math.sqrt(m)
    mean_l = np.mean(stats)
    dev = stats - mean_l
    abs_dev_sq = dev.real**2 + dev.imag**2
    s2 = float(np.sum(abs_dev_sq)) / (m - 1)
    disconnected = (abs(mean_l) ** 2 - s2 / m) / n2
    m4 = float(np.mean(abs_dev_sq**2))
    connected_stderr = math.sqrt(max(m4 - s2 * s2, 0.0) / m) / n2
    return DsffEstimate(
        tau=tau,
        k_mean=k_mean,
        k_stderr=k_stderr,
        disconnected_unbiased=float(disconnected),
        connected=s2 / n2,
        connected_stderr=connected_stderr,
        contact=1.0 / n,
        m=m,
    )


def dsff_point(sset, tau):
    """DSFF estimate at one complex time from a SpectrumSet."""
    return dsff_grid(sset, [tau])[0]


def dsff_grid(sset, taus):
    """DSFF estimates over a tau grid; one pass over the samples per point."""
    re = np.ascontiguousarray(sset.eigenvalues.real, dtype=np.float64)
    im = np.ascontiguousarray(sset.eigenvalues.imag, dtype=np.float64)
    out = []
    for tau in taus:
        stats = kernels.linear_stat_sums(re, im, tau.t, tau.s)
        out.append(estimate_from_linear_stats(stats, sset.n, tau))
    return out


def build_tau_grid(theta, tau_min, tau_max, points, spacing="log"):
    """ComplexTime grid along the ray at angle theta.

    spacing "log" needs tau_min > 0; "linear" also accepts tau_min = 0.
    """
    if not isinstance(points, int) or points < 1:
        raise ValueError(f"points must be a positive integer, got {points!r}")
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
    return [ComplexTime.from_polar(float(v), theta) for v in values]
