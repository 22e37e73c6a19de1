"""Analytic predictions for the dissipative spectral form factor.

The form factor of an N x N matrix with i.i.d. entries decomposes, at complex
time tau = t + i s, into a disconnected part |E L|^2 / N^2 and a connected
part Var(L) / N^2, where L = sum_j exp(i(t x_j + s y_j)) is the linear
spectral statistic of the plane wave. This module evaluates the limiting
expectation and variance of L (complex entries beta=2, real entries beta=1,
fourth-cumulant correction kappa4), the resulting form-factor prediction, its
simplified large-tau form, and the exact asymptotic for the gaussian complex
ensemble.

All Bessel evaluations go through the bessel module; the beta=1 expectation
correction needs one angular quadrature (quadrature.real_axis_correction_line).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import TABLE_MIN_ARGUMENT, bessel_j, weighted_bessel_series
from .quadrature import real_axis_correction_line

# Unused here: perfbench/tracing.py wraps real_axis_correction_integral on
# this module as well as on quadrature, and fails if the name is missing.
from .quadrature import real_axis_correction_integral  # noqa: F401

__all__ = [
    "ComplexTime",
    "TheoryPrediction",
    "GinibreDsff",
    "Timescales",
    "plane_wave",
    "expectation_linear_stat",
    "variance_linear_stat",
    "dsff_theory",
    "dsff_simplified",
    "ginibre_exact_dsff",
    "timescales",
]


@dataclass(frozen=True)
class ComplexTime:
    """Complex time tau = t + i s.

    theta is the polar angle of (t, s); phi is the conjugate angle with
    sin(phi) = t/|tau|, cos(phi) = s/|tau| (so phi = pi/2 - theta), the angle
    entering the boundary Fourier weights sin^2(phi k). Both are 0 at tau=0
    by convention.
    """

    t: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.s)):
            raise ValueError("t and s must be finite")

    @classmethod
    def from_polar(cls, abs_tau, theta):
        if abs_tau < 0:
            raise ValueError("abs_tau must be nonnegative")
        return cls(t=abs_tau * math.cos(theta), s=abs_tau * math.sin(theta))

    @property
    def abs_tau(self):
        return math.hypot(self.t, self.s)

    @property
    def theta(self):
        if self.abs_tau == 0.0:
            return 0.0
        return math.atan2(self.s, self.t)

    @property
    def phi(self):
        if self.abs_tau == 0.0:
            return 0.0
        return math.atan2(self.t, self.s)


def plane_wave(t, s):
    """The test function f(x + iy) = exp(i(t x + s y)) as a vectorized callable."""
    import numpy as np

    def f(x, y):
        return np.exp(1j * (t * x + s * y))

    return f


# ---------------------------------------------------------------------------
# removable singularities: the exact limit at 0, the direct ratio elsewhere


def _j1_over_x(x):
    """J_1(x)/x with its limit 1/2 at x = 0.

    Below TABLE_MIN_ARGUMENT the limit is the value in double precision, and
    the quotient would lose it for a subnormal x, where J_1(x) = x/2 rounds.
    """
    return 0.5 if x < TABLE_MIN_ARGUMENT else bessel_j(1, x) / x


def _j3_over_x(x):
    """J_3(x)/x with its limit 0 at x = 0."""
    return 0.0 if x == 0.0 else bessel_j(3, x) / x


def _j1_2s_over_s(s):
    """J_1(2s)/s with its limit 1 at s = 0 (even in s)."""
    s = abs(s)
    return 1.0 if s == 0.0 else bessel_j(1, 2.0 * s) / s


def _validate_beta(beta):
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 (real) or 2 (complex), got {beta!r}")


def _expectation_terms(tau, n, kappa4, beta):
    """Terms of E[L]/n; multiplying by n gives the unnormalized expectation."""
    x = tau.abs_tau
    j1x = _j1_over_x(x)
    terms = {
        "leading": 2.0 * j1x,
        "laplacian": -x * x * j1x / (4.0 * n),
        "kappa4": 4.0 * kappa4 * _j3_over_x(x) / n,
        "real_axis": 0.0,
    }
    if beta == 1:
        corr = (
            real_axis_correction_line(tau.t, tau.s)
            - bessel_j(0, x)
            + bessel_j(0, abs(tau.t)) / 2.0
            + math.cos(tau.t) / 2.0
        )
        terms["real_axis"] = corr / n
    return terms


def expectation_linear_stat(tau, n, kappa4=0.0, beta=2):
    """E[L] for L = sum_j exp(i(t x_j + s y_j)) over the N eigenvalues.

    Real to the stated order for both symmetry classes; tau = 0 gives exactly
    N. The beta=1 branch adds the real-axis correction
    I(t,s) - J_0(|tau|) + J_0(t)/2 + cos(t)/2, with I from the 1-D angular
    Gauss-Legendre rule quadrature.real_axis_correction_line.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _validate_beta(beta)
    terms = _expectation_terms(tau, n, kappa4, beta)
    return n * sum(terms.values())


def _variance_terms(tau, kappa4, beta):
    x = tau.abs_tau
    kappa_coeff = 2.0 * _j1_over_x(x) - bessel_j(0, x)
    terms = {"gradient": x * x / 4.0, "real_ramp": 0.0}
    if beta == 2:
        terms["series"] = 0.5 * weighted_bessel_series(x, "abs_k")
    else:
        terms["series"] = weighted_bessel_series(x, "abs_k_sin_sq", phi=tau.phi)
        terms["real_ramp"] = (tau.t**2 - tau.s**2) * _j1_2s_over_s(tau.s) / 4.0
    terms["kappa4"] = kappa4 * kappa_coeff**2
    return terms


def variance_linear_stat(tau, kappa4=0.0, beta=2):
    """Limiting Var(L); nonnegative, 0 at tau = 0.

    beta=2: |tau|^2/4 + (1/2) sum |k| J_k^2 + kappa4 (2J_1/|tau| - J_0)^2.
    beta=1: |tau|^2/4 + (t^2-s^2) J_1(2s)/(4s) + sum |k| sin^2(phi k) J_k^2
            + the same kappa4 term.
    """
    _validate_beta(beta)
    return sum(_variance_terms(tau, kappa4, beta).values())


@dataclass(frozen=True)
class TheoryPrediction:
    tau: ComplexTime
    n: int
    beta: int
    kappa4: float
    e_value: float  # E[L]/N
    v_value: float  # Var(L)
    e_terms: dict
    v_terms: dict
    validity_warning: bool

    @property
    def disconnected(self):
        return self.e_value**2

    @property
    def connected(self):
        return self.v_value / self.n**2

    @property
    def k_total(self):
        return self.disconnected + self.connected


def dsff_theory(tau, n, kappa4=0.0, beta=2):
    """Form-factor prediction K = (E[L]/N)^2 + Var(L)/N^2 with term breakdown.

    validity_warning flags |tau| beyond N^(2/7), the proven range; the
    formula is expected to track the truth until |tau| ~ sqrt(N) and to
    overshoot beyond it (no plateau saturation).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _validate_beta(beta)
    e_terms = _expectation_terms(tau, n, kappa4, beta)
    v_terms = _variance_terms(tau, kappa4, beta)
    return TheoryPrediction(
        tau=tau,
        n=n,
        beta=beta,
        kappa4=kappa4,
        e_value=sum(e_terms.values()),
        v_value=sum(v_terms.values()),
        e_terms=e_terms,
        v_terms=v_terms,
        validity_warning=tau.abs_tau > n ** (2.0 / 7.0),
    )


def dsff_simplified(tau, n, beta=2):
    """Reduced prediction 4J_1^2/|tau|^2 + (|tau|^2/4 + anisotropy)/N^2.

    The anisotropy term (t^2 - s^2)(2/beta - 1) J_1(2s)/(4s) only survives
    for beta=1. Requires |tau| > 0.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _validate_beta(beta)
    x = tau.abs_tau
    if x == 0.0:
        raise ValueError("simplified prediction is undefined at tau = 0")
    j1x = _j1_over_x(x)
    aniso = (2.0 / beta - 1.0) * (tau.t**2 - tau.s**2) * _j1_2s_over_s(tau.s) / 4.0
    return 4.0 * j1x * j1x + (x * x / 4.0 + aniso) / n**2


@dataclass(frozen=True)
class GinibreDsff:
    """Exact asymptotic for the gaussian complex ensemble, three named terms."""

    contact: float
    disconnected: float
    connected: float

    @property
    def k_total(self):
        return self.contact + self.disconnected + self.connected


def ginibre_exact_dsff(tau, n):
    """K = 1/N + 4 J_1(|tau|)^2/|tau|^2 - exp(-|tau|^2/(4N))/N.

    K(0) = 1 exactly; the plateau at large |tau| is the contact term 1/N.
    The (negative) exponential term cancels the contact at tau = 0 and decays
    as the connected part ramps up; contact + connected is the counterpart of
    the estimator's variance-based connected component.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = tau.abs_tau
    j1x = _j1_over_x(x)
    return GinibreDsff(
        contact=1.0 / n,
        disconnected=4.0 * j1x * j1x,
        connected=-math.exp(-x * x / (4.0 * n)) / n,
    )


@dataclass(frozen=True)
class Timescales:
    tau_edge: float  # dissipation time N^(2/5): edge modes decay below here
    tau_hei: float  # Heisenberg time sqrt(N): plateau onset


def timescales(n):
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Timescales(tau_edge=float(n) ** 0.4, tau_hei=math.sqrt(float(n)))
