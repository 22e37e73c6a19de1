"""Analytic predictions for the dissipative spectral form factor.

The form factor of an N x N matrix with i.i.d. entries decomposes, at complex
time tau = t + i s, into a disconnected part |E L|^2 / N^2 and a connected
part Var(L) / N^2, where L = sum_j exp(i(t x_j + s y_j)) is the linear
spectral statistic of the plane wave. Every route returns these two moments
per point as one type, TheoryPrediction, with E[L]/N and Var(L) each a sum of
named terms: dsff_theory_grid the limiting moments (complex entries beta=2,
real entries beta=1, fourth-cumulant correction kappa4), with the terms of
E_TERMS and V_TERMS, and ginibre_exact_dsff_grid the gaussian complex
ensemble's asymptotic, with the terms "leading" and "ramp".

Every Bessel value of a grid of points comes from one
bessel.bessel_j_columns call: J_0..J_K(|tau|) with K = truncation_order(|tau|)
and, at beta=1, J_0(|t|) and J_1(2|s|); bessel decides which come from a
table and which from a row. The variance series over those columns is
bessel.weighted_column_sums, with the weight _SERIES_WEIGHT[beta], the route
bessel.weighted_bessel_series takes at one argument. One formula, `_terms`,
gives the terms over all points at once, and one call of
quadrature.real_axis_correction_line the real-axis integral of the beta=1
expectation. `dsff_theory` and `ginibre_exact_dsff` are `dsff_theory_grid`
and `ginibre_exact_dsff_grid` at one point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _args
from .bessel import TABLE_MIN_ARGUMENT, bessel_j_columns, truncation_order, weighted_column_sums
from .quadrature import real_axis_correction_line

# Unused here: perfbench/tracing.py wraps bessel_j, weighted_bessel_series and
# real_axis_correction_integral on this module as well as where they are
# defined, and fails if a name is missing.
from .bessel import bessel_j, weighted_bessel_series  # noqa: F401
from .quadrature import real_axis_correction_integral  # noqa: F401

__all__ = [
    "ComplexTime",
    "TheoryPrediction",
    "Timescales",
    "E_TERMS",
    "V_TERMS",
    "dsff_theory",
    "dsff_theory_grid",
    "ginibre_exact_dsff",
    "ginibre_exact_dsff_grid",
    "timescales",
]


@dataclass(frozen=True)
class ComplexTime:
    """Complex time tau = t + i s, with t and s stored as finite floats.

    theta is the polar angle of (t, s), the angle entering the beta=1
    boundary Fourier weights cos^2(theta k), and 0 at tau=0 by convention.
    """

    t: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "t", _args.real(self.t, "t"))
        object.__setattr__(self, "s", _args.real(self.s, "s"))

    @classmethod
    def from_polar(cls, abs_tau, theta):
        abs_tau, theta = _args.real(abs_tau, "abs_tau", nonnegative=True), _args.real(theta, "theta")
        return cls(t=abs_tau * math.cos(theta), s=abs_tau * math.sin(theta))

    @property
    def abs_tau(self):
        return math.hypot(self.t, self.s)

    @property
    def theta(self):
        if self.abs_tau == 0.0:
            return 0.0
        return math.atan2(self.s, self.t)


# ---------------------------------------------------------------------------
# removable singularities: the exact limit at 0, the direct ratio elsewhere.
# Each takes the Bessel value and works elementwise on arrays over points.


def _j1_over_x(x, j1):
    """J_1(x)/x from J_1(x), with its limit 1/2 at x = 0.

    Below TABLE_MIN_ARGUMENT the limit is the value in double precision, and
    the quotient would lose it for a subnormal x, where J_1(x) = x/2 rounds.
    """
    return np.divide(j1, x, out=np.full(np.shape(x), 0.5), where=x >= TABLE_MIN_ARGUMENT)


def _j3_over_x(x, j3):
    """J_3(x)/x from J_3(x), with its limit 0 at x = 0."""
    return np.divide(j3, x, out=np.zeros(np.shape(x)), where=x > 0.0)


def _j1_2s_over_s(s, j1_2s):
    """J_1(2|s|)/|s| from J_1(2|s|), with its limit 1 at s = 0 (even in s)."""
    s = abs(s)
    return np.divide(j1_2s, s, out=np.ones(np.shape(s)), where=s > 0.0)


def _complex_times(taus):
    """taus as a list of ComplexTime points, or ValueError."""
    try:
        taus = list(taus)
    except TypeError:
        raise ValueError("taus must be a sequence of ComplexTime points") from None
    if not all(isinstance(tau, ComplexTime) for tau in taus):
        raise ValueError("taus must be ComplexTime points")
    return taus


_SERIES_WEIGHT = {1: "abs_k_cos_sq", 2: "abs_k"}

# The terms of E[L]/N and of Var(L) of dsff_theory, in the order of the theory
# CSV's e_ and v_ columns.
E_TERMS = ("leading", "laplacian", "kappa4", "real_axis")
V_TERMS = ("gradient", "real_ramp", "series", "kappa4")


def _terms(x, bessel, n, kappa4, beta, real):
    """(e_terms, v_terms): E_TERMS and V_TERMS, each mapped to its value at |tau| = x.

    x is an array over points; bessel is (J_0(x), J_1(x)/x, J_3(x)/x,
    series) and, at beta=1, real is (I(t, s), J_0(|t|), cos t, t^2 - s^2,
    J_1(2|s|)/|s|), arrays of the same length. Every term is such an array.

    E[L]/N = 2J_1/|tau| - |tau| J_1/(4N) + 4 kappa4 J_3/(|tau| N), plus at
    beta=1 the real-axis correction (I - J_0(|tau|) + J_0(t)/2 + cos(t)/2)/N.
    Var(L) = |tau|^2/4 + (1/2) sum |k| J_k^2 + kappa4 (2J_1/|tau| - J_0)^2 at
    beta=2; beta=1 adds (t^2 - s^2) J_1(2|s|)/(4|s|) and has the series
    sum |k| cos^2(theta k) J_k^2 instead.
    """
    j0, j1x, j3x, series = bessel
    zero, xx, leading = np.zeros(x.shape), x * x, 2.0 * j1x
    real_axis = real_ramp = zero
    if beta == 1:
        line, j0_t, cos_t, ramp, j1_2s_over_s = real
        real_axis = (line - j0 + j0_t / 2.0 + cos_t / 2.0) / n
        real_ramp = ramp * j1_2s_over_s / 4.0
    else:
        series = 0.5 * series
    coeff = leading - j0
    e_terms = (leading, -xx * j1x / (4.0 * n), 4.0 * kappa4 * j3x / n, real_axis)
    v_terms = (xx / 4.0, real_ramp, series, kappa4 * (coeff * coeff))
    return dict(zip(E_TERMS, e_terms)), dict(zip(V_TERMS, v_terms))


@dataclass(frozen=True)
class TheoryPrediction:
    """K = (E[L]/N)^2 + Var(L)/N^2 at tau, from the named terms of a route.

    e_value and v_value are the sums of e_terms and v_terms in their order.
    """

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


def _predictions(taus, n, beta, kappa4, e_terms, v_terms):
    """One TheoryPrediction per point of taus, from maps of term name to array.

    validity_warning flags |tau| beyond N^(2/7), dsff_theory's proven range.
    """
    # every term as a row of one array, read out by one tolist per part
    values = np.array([*e_terms.values(), *v_terms.values()])
    e_points, v_points = values[: len(e_terms)].T.tolist(), values[len(e_terms) :].T.tolist()
    bound = n ** (2.0 / 7.0)
    return [
        TheoryPrediction(
            tau=tau,
            n=n,
            beta=beta,
            kappa4=kappa4,
            e_value=sum(e),
            v_value=sum(v),
            e_terms=dict(zip(e_terms, e)),
            v_terms=dict(zip(v_terms, v)),
            validity_warning=tau.abs_tau > bound,
        )
        for tau, e, v in zip(taus, e_points, v_points)
    ]


def dsff_theory(tau, n, kappa4=0.0, beta=2):
    """Form-factor prediction K = (E[L]/N)^2 + Var(L)/N^2 with term breakdown.

    validity_warning flags |tau| beyond N^(2/7), the proven range; the
    formula is expected to track the truth until |tau| ~ sqrt(N) and to
    overshoot beyond it (no plateau saturation). This is dsff_theory_grid
    at the one point tau.
    """
    return dsff_theory_grid([tau], n, kappa4=kappa4, beta=beta)[0]


def dsff_theory_grid(taus, n, kappa4=0.0, beta=2):
    """dsff_theory at every ComplexTime of taus, as a list in the same order.

    One bessel_j_columns call gives J_0..J_K(|tau_p|), K the truncation
    order of |tau_p|, and at beta=1 also J_0(|t_p|) and J_1(2|s_p|); it
    decides which columns share a table. A one-point grid has at most three
    columns, too few to pay for a table, so it takes the rows of
    bessel_j_row. The terms are then computed for all points at once, the
    real-axis integral included.
    """
    n, beta = _args.count(n, "n"), _args.count(beta, "beta", 1, 2, "2")
    kappa4, taus = _args.real(kappa4, "kappa4"), _complex_times(taus)
    if not taus:
        return []
    size = len(taus)
    x, t, s = np.array([(tau.abs_tau, tau.t, tau.s) for tau in taus]).T
    args = x.tolist()
    orders = [truncation_order(v) for v in args]
    if beta == 1:
        args += np.abs(t).tolist() + (2.0 * np.abs(s)).tolist()
        orders += [0] * size + [1] * size
    columns = bessel_j_columns(orders, args)
    real = theta = None
    if beta == 1:
        theta, cos_t, ramp = np.array([(tau.theta, math.cos(tau.t), tau.t**2 - tau.s**2) for tau in taus]).T
        j1_2s_over_s = _j1_2s_over_s(s, columns[1, 2 * size :])
        real = (real_axis_correction_line(t, s), columns[0, size : 2 * size], cos_t, ramp, j1_2s_over_s)
    series = weighted_column_sums(columns, orders[:size], _SERIES_WEIGHT[beta], theta)
    j1x = _j1_over_x(x, columns[1, :size])
    bessel = (columns[0, :size], j1x, _j3_over_x(x, columns[3, :size]), series)
    return _predictions(taus, n, beta, kappa4, *_terms(x, bessel, n, kappa4, beta, real))


def ginibre_exact_dsff(tau, n):
    """The gaussian complex ensemble's K = 4 J_1(|tau|)^2/|tau|^2 + V/N^2 (beta 2, kappa4 0).

    E[L]/N is the term leading = 2 J_1(|tau|)/|tau|, Var(L) the term ramp
    V = N (1 - exp(-|tau|^2/(4N))), by expm1 to keep its digits at small |tau|.
    K(0) = 1 exactly, and the plateau is 1/N. This is ginibre_exact_dsff_grid
    at the one point tau.
    """
    return ginibre_exact_dsff_grid([tau], n)[0]


def ginibre_exact_dsff_grid(taus, n):
    """ginibre_exact_dsff at every ComplexTime of taus, as a list in order.

    J_1(|tau|) comes from one bessel_j_columns call, which decides which
    points share a table.
    """
    n, taus = _args.count(n, "n"), _complex_times(taus)
    if not taus:
        return []
    args = [tau.abs_tau for tau in taus]
    x = np.array(args)
    j1x = _j1_over_x(x, bessel_j_columns([1] * x.size, args)[1])
    ramp = -n * np.expm1(-x * x / (4.0 * n))
    return _predictions(taus, n, 2, 0.0, {"leading": 2.0 * j1x}, {"ramp": ramp})


@dataclass(frozen=True)
class Timescales:
    tau_edge: float  # dissipation time N^(2/5): edge modes decay below here
    tau_hei: float  # Heisenberg time sqrt(N): plateau onset


def timescales(n):
    n = _args.count(n, "n")
    return Timescales(tau_edge=float(n) ** 0.4, tau_hei=math.sqrt(float(n)))
