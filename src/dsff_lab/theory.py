"""Analytic predictions for the dissipative spectral form factor.

The form factor of an N x N matrix with i.i.d. entries decomposes, at complex
time tau = t + i s, into a disconnected part |E L|^2 / N^2 and a connected
part Var(L) / N^2, where L = sum_j exp(i(t x_j + s y_j)) is the linear
spectral statistic of the plane wave. This module evaluates the limiting
expectation and variance of L (complex entries beta=2, real entries beta=1,
fourth-cumulant correction kappa4), the resulting form-factor prediction, its
simplified large-tau form, and the exact asymptotic for the gaussian complex
ensemble.

Every Bessel value comes from the bessel module. At one point, `dsff_theory`
takes J_0, J_1, J_3 and the weighted series at |tau| from one
`bessel_j_row(truncation_order(|tau|), |tau|)`, and for beta=1 one row more
each for J_0(|t|) and J_1(2|s|). `dsff_theory_grid` and
`ginibre_exact_dsff_grid` take the points in |tau| order in blocks; each
block that pays for it gets all its Bessel values from one
`bessel_j_table` call, and the other points go through the per-point rows.
Both routes then compute the terms by one formula, `_terms`, on floats at
one point and on arrays over a grid, so they differ only in where the
Bessel values come from. The beta=1 expectation correction needs one
angular quadrature (quadrature.real_axis_correction_line), which the grid
takes over all its points at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import (
    _MILLER_PAD,
    TABLE_MIN_ARGUMENT,
    _miller_start,
    _weight_values,
    bessel_j,
    bessel_j_row,
    bessel_j_table,
    truncation_order,
)
from .quadrature import real_axis_correction_line

# Unused here: perfbench/tracing.py wraps weighted_bessel_series and
# real_axis_correction_integral on this module as well as where they are
# defined, and fails if a name is missing.
from .bessel import weighted_bessel_series  # noqa: F401
from .quadrature import real_axis_correction_integral  # noqa: F401

__all__ = [
    "ComplexTime",
    "TheoryPrediction",
    "GinibreDsff",
    "Timescales",
    "expectation_linear_stat",
    "variance_linear_stat",
    "dsff_theory",
    "dsff_theory_grid",
    "dsff_simplified",
    "ginibre_exact_dsff",
    "ginibre_exact_dsff_grid",
    "timescales",
]

# A block of points gets one bessel_j_table call when the per-point work it
# replaces, counted in scalar recurrence steps (truncation_order + the Miller
# pad per row), is at least this many times the table's depth. Fitted: one
# table step over 2 to 8 columns took 1.9-4.7 us, and the whole per-point
# route 0.18-0.61 us per step counted so, for break-even ratios of 7 to 16
# at beta=2 and 9 to 19 at beta=1, for |tau| from 1 to 15,000 (2-vCPU Xeon,
# numpy 2.4.6).
_TABLE_STEP_COST = 12
# Most entries, orders times arguments, that one table holds: 512 KiB of
# float64, so a block's few table-sized arrays stay in a 2 MiB L2 cache and
# a table step costs about the same whatever the block's size.
_TABLE_ELEMENTS = 1 << 16


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


# ---------------------------------------------------------------------------
# removable singularities: the exact limit at 0, the direct ratio elsewhere.
# Each takes the Bessel value, as a float or as an array over points.


def _j1_over_x(x, j1):
    """J_1(x)/x from J_1(x), with its limit 1/2 at x = 0.

    Below TABLE_MIN_ARGUMENT the limit is the value in double precision, and
    the quotient would lose it for a subnormal x, where J_1(x) = x/2 rounds.
    """
    if np.ndim(x) == 0:
        return 0.5 if x < TABLE_MIN_ARGUMENT else j1 / x
    return np.divide(j1, x, out=np.full(x.shape, 0.5), where=x >= TABLE_MIN_ARGUMENT)


def _j3_over_x(x, j3):
    """J_3(x)/x from J_3(x), with its limit 0 at x = 0."""
    if np.ndim(x) == 0:
        return 0.0 if x == 0.0 else j3 / x
    return np.divide(j3, x, out=np.zeros(x.shape), where=x > 0.0)


def _j1_2s_over_s(s, j1_2s):
    """J_1(2|s|)/|s| from J_1(2|s|), with its limit 1 at s = 0 (even in s)."""
    s = abs(s)
    if np.ndim(s) == 0:
        return 1.0 if s == 0.0 else j1_2s / s
    return np.divide(j1_2s, s, out=np.ones(s.shape), where=s > 0.0)


def _validate(n, beta=2):
    if n < 1:
        raise ValueError("n must be a positive integer")
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 (real) or 2 (complex), got {beta!r}")


# ---------------------------------------------------------------------------
# Bessel values: one row per point, or one table per block of points


_SERIES_WEIGHT = {1: "abs_k_sin_sq", 2: "abs_k"}


def _series(rows, phi, beta):
    """sum over k != 0 of w(k) J_k^2 from J_1..J_K along the last axis of rows.

    The weight is |k| at beta=2 and |k| sin^2(phi k) at beta=1
    (bessel._weight_values); both are even in k, so the sum is twice the
    sum over k >= 1. rows (P, K) with phi (P, 1) gives P sums.
    """
    k = np.arange(1, rows.shape[-1] + 1)
    return 2.0 * np.sum(_weight_values(_SERIES_WEIGHT[beta], k, phi) * rows**2, axis=-1)


def _point_values(tau, beta):
    """(J_0, J_1, J_3, series, J_0(|t|), J_1(2|s|)) at one point, as floats.

    The first four come from one bessel_j_row(truncation_order(|tau|),
    |tau|); the last two are computed at beta=1 only (0 otherwise).
    """
    x = tau.abs_tau
    row = bessel_j_row(truncation_order(x), x)
    values = (float(row[0]), float(row[1]), float(row[3]), float(_series(row[1:], tau.phi, beta)))
    if beta == 2:
        return values + (0.0, 0.0)
    return values + (bessel_j(0, abs(tau.t)), bessel_j(1, 2.0 * abs(tau.s)))


def _plan(args, orders, work):
    """Split the points into table blocks and points for the per-point route.

    args (P, m) holds each point's Bessel arguments, |tau| first; orders (P,)
    the highest order each point needs, nondecreasing in |tau|; work (P,)
    the recurrence steps of the point's rows on the per-point route. Points
    are taken in |tau| order from the top. A block is the largest point left
    and as many below it as _TABLE_ELEMENTS allows; it gets one
    bessel_j_table call when the work it replaces reaches _TABLE_STEP_COST
    times the table's depth. Otherwise its top point goes to the per-point
    route, as does every block of one point and every point with an argument
    in (0, TABLE_MIN_ARGUMENT), which a table refuses. Returns (list of
    index arrays, list of indices).
    """
    by_tau = np.argsort(args[:, 0], kind="stable")
    tiny = ((args > 0.0) & (args < TABLE_MIN_ARGUMENT)).any(axis=1)[by_tau]
    singles = by_tau[tiny].tolist()
    fit = by_tau[~tiny]
    done = np.concatenate([[0], np.cumsum(work[fit])])
    blocks = []
    hi = fit.size
    while hi > 0:
        n_max = int(orders[fit[hi - 1]])
        lo = max(0, hi - _TABLE_ELEMENTS // ((n_max + 1) * args.shape[1]))
        if hi - lo >= 2:
            depth = _miller_start(n_max, float(args[fit[lo:hi]].max()))
            if done[hi] - done[lo] >= _TABLE_STEP_COST * depth:
                blocks.append(fit[lo:hi])
                hi = lo
                continue
        hi -= 1
        singles.append(int(fit[hi]))
    return blocks, singles


# ---------------------------------------------------------------------------
# the terms, from floats at one point or from arrays over a grid


def _terms(x, bessel, n, kappa4, beta, real):
    """(e_terms, v_terms): the terms of E[L]/N and of Var(L) at |tau| = x.

    bessel is (J_0(x), J_1(x)/x, J_3(x)/x, series); at beta=1, real is
    (I(t, s), J_0(|t|), cos t, t^2 - s^2, J_1(2|s|)/|s|). Every value is a
    float, or every one an array over points: the same arithmetic then runs
    elementwise and gives the same bits.
    """
    j0, j1x, j3x, series = bessel
    e_terms = {
        "leading": 2.0 * j1x,
        "laplacian": -x * x * j1x / (4.0 * n),
        "kappa4": 4.0 * kappa4 * j3x / n,
        "real_axis": 0.0,
    }
    v_terms = {"gradient": x * x / 4.0, "real_ramp": 0.0, "series": 0.5 * series}
    if beta == 1:
        line, j0_t, cos_t, ramp, j1_2s_over_s = real
        e_terms["real_axis"] = (line - j0 + j0_t / 2.0 + cos_t / 2.0) / n
        v_terms["real_ramp"] = ramp * j1_2s_over_s / 4.0
        v_terms["series"] = series
    coeff = 2.0 * j1x - j0
    v_terms["kappa4"] = kappa4 * (coeff * coeff)
    return e_terms, v_terms


def expectation_linear_stat(tau, n, kappa4=0.0, beta=2):
    """E[L] for L = sum_j exp(i(t x_j + s y_j)) over the N eigenvalues.

    Real to the stated order for both symmetry classes; tau = 0 gives exactly
    N. The beta=1 branch adds the real-axis correction
    I(t,s) - J_0(|tau|) + J_0(t)/2 + cos(t)/2, with I from the 1-D angular
    Gauss-Legendre rule quadrature.real_axis_correction_line.
    """
    return n * dsff_theory(tau, n, kappa4=kappa4, beta=beta).e_value


def variance_linear_stat(tau, kappa4=0.0, beta=2):
    """Limiting Var(L); nonnegative, 0 at tau = 0.

    beta=2: |tau|^2/4 + (1/2) sum |k| J_k^2 + kappa4 (2J_1/|tau| - J_0)^2.
    beta=1: |tau|^2/4 + (t^2-s^2) J_1(2s)/(4s) + sum |k| sin^2(phi k) J_k^2
            + the same kappa4 term.
    """
    return dsff_theory(tau, 1, kappa4=kappa4, beta=beta).v_value


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


def _prediction(tau, n, kappa4, beta, e_terms, v_terms):
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


def dsff_theory(tau, n, kappa4=0.0, beta=2):
    """Form-factor prediction K = (E[L]/N)^2 + Var(L)/N^2 with term breakdown.

    validity_warning flags |tau| beyond N^(2/7), the proven range; the
    formula is expected to track the truth until |tau| ~ sqrt(N) and to
    overshoot beyond it (no plateau saturation). The Bessel values come from
    one row at |tau| (and at beta=1 one each at |t| and 2|s|): the route
    dsff_theory_grid takes at points that do not pay for a table, and the
    one `verify` checks the grid against.
    """
    _validate(n, beta)
    x = tau.abs_tau
    j0, j1, j3, series, j0_t, j1_2s = _point_values(tau, beta)
    real = None
    if beta == 1:
        real = (
            real_axis_correction_line(tau.t, tau.s),
            j0_t,
            math.cos(tau.t),
            tau.t**2 - tau.s**2,
            _j1_2s_over_s(tau.s, j1_2s),
        )
    bessel = (j0, _j1_over_x(x, j1), _j3_over_x(x, j3), series)
    return _prediction(tau, n, kappa4, beta, *_terms(x, bessel, n, kappa4, beta, real))


def dsff_theory_grid(taus, n, kappa4=0.0, beta=2):
    """dsff_theory at every ComplexTime of taus, as a list in the same order.

    The points are taken in |tau| order in blocks (see _plan). A block that
    pays for it gets J_0..J_K(|tau_p|), K the truncation order of its
    largest |tau|, and at beta=1 also J_0(|t_p|) and J_1(2|s_p|), from one
    bessel_j_table call; every other point goes through dsff_theory's rows,
    and a one-point grid gives dsff_theory's bits. The terms are computed
    for all points at once, the real-axis integral included.
    """
    _validate(n, beta)
    taus = list(taus)
    if beta == 2:
        args = np.array([[tau.abs_tau] for tau in taus]).reshape(-1, 1)
    else:
        args = np.array([[tau.abs_tau, abs(tau.t), 2.0 * abs(tau.s)] for tau in taus]).reshape(-1, 3)
    x = args[:, 0]
    orders = np.array([truncation_order(v) for v in x.tolist()], dtype=np.int64)
    # a row of the per-point route is about truncation_order(|tau|) deep,
    # plus the recurrence's start above the orders it keeps
    blocks, singles = _plan(args, orders, args.shape[1] * (orders + _MILLER_PAD))
    values = np.zeros((6, x.size))  # the six of _point_values, per point
    for block in blocks:
        size = block.size
        table = bessel_j_table(int(orders[block].max()), args[block].T.ravel())
        values[0, block] = table[0, :size]
        values[1, block] = table[1, :size]
        values[2, block] = table[3, :size]
        phi = np.array([taus[i].phi for i in block.tolist()])[:, None] if beta == 1 else None
        values[3, block] = _series(np.ascontiguousarray(table[1:, :size].T), phi, beta)
        if beta == 1:
            values[4, block] = table[0, size:2 * size]
            values[5, block] = table[1, 2 * size:]
    for i in singles:
        values[:, i] = _point_values(taus[i], beta)
    j0, j1, j3, series, j0_t, j1_2s = values
    real = None
    if beta == 1:
        t = np.array([tau.t for tau in taus])
        s = np.array([tau.s for tau in taus])
        real = (
            real_axis_correction_line(t, s),
            j0_t,
            np.array([math.cos(tau.t) for tau in taus]),
            np.array([tau.t**2 - tau.s**2 for tau in taus]),
            _j1_2s_over_s(s, j1_2s),
        )
    bessel = (j0, _j1_over_x(x, j1), _j3_over_x(x, j3), series)
    e_terms, v_terms = _terms(x, bessel, n, kappa4, beta, real)
    e_cols = [(key, np.broadcast_to(col, x.shape).tolist()) for key, col in e_terms.items()]
    v_cols = [(key, np.broadcast_to(col, x.shape).tolist()) for key, col in v_terms.items()]
    return [
        _prediction(tau, n, kappa4, beta, {k: c[i] for k, c in e_cols}, {k: c[i] for k, c in v_cols})
        for i, tau in enumerate(taus)
    ]


def dsff_simplified(tau, n, beta=2):
    """Reduced prediction 4J_1^2/|tau|^2 + (|tau|^2/4 + anisotropy)/N^2.

    The anisotropy term (t^2 - s^2)(2/beta - 1) J_1(2s)/(4s) only survives
    for beta=1. Requires |tau| > 0.
    """
    _validate(n, beta)
    x = tau.abs_tau
    if x == 0.0:
        raise ValueError("simplified prediction is undefined at tau = 0")
    j1x = _j1_over_x(x, bessel_j(1, x))
    j1_2s_over_s = _j1_2s_over_s(tau.s, bessel_j(1, 2.0 * abs(tau.s)))
    aniso = (2.0 / beta - 1.0) * (tau.t**2 - tau.s**2) * j1_2s_over_s / 4.0
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


def _ginibre(x, j1x, n):
    return GinibreDsff(
        contact=1.0 / n,
        disconnected=4.0 * j1x * j1x,
        connected=-math.exp(-x * x / (4.0 * n)) / n,
    )


def ginibre_exact_dsff(tau, n):
    """K = 1/N + 4 J_1(|tau|)^2/|tau|^2 - exp(-|tau|^2/(4N))/N.

    K(0) = 1 exactly; the plateau at large |tau| is the contact term 1/N.
    The (negative) exponential term cancels the contact at tau = 0 and decays
    as the connected part ramps up; contact + connected is the counterpart of
    the estimator's variance-based connected component.
    """
    _validate(n)
    x = tau.abs_tau
    return _ginibre(x, _j1_over_x(x, bessel_j(1, x)), n)


def ginibre_exact_dsff_grid(taus, n):
    """ginibre_exact_dsff at every ComplexTime of taus, as a list in order.

    J_1(|tau|) comes from one bessel_j_table call per block of points that
    pays for it and from bessel_j elsewhere, by the rule of dsff_theory_grid.
    """
    _validate(n)
    x = np.array([tau.abs_tau for tau in taus], dtype=np.float64)
    work = np.array([truncation_order(v) + _MILLER_PAD for v in x.tolist()], dtype=np.int64)
    blocks, singles = _plan(x[:, None], np.ones(x.size, dtype=np.int64), work)
    j1 = np.zeros(x.size)
    for block in blocks:
        j1[block] = bessel_j_table(1, x[block])[1]
    for i in singles:
        j1[i] = bessel_j(1, float(x[i]))
    return [_ginibre(v, r, n) for v, r in zip(x.tolist(), _j1_over_x(x, j1).tolist())]


@dataclass(frozen=True)
class Timescales:
    tau_edge: float  # dissipation time N^(2/5): edge modes decay below here
    tau_hei: float  # Heisenberg time sqrt(N): plateau onset


def timescales(n):
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Timescales(tau_edge=float(n) ** 0.4, tau_hei=math.sqrt(float(n)))
