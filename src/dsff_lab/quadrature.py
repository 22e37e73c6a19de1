"""Quadrature rules on the unit disk and the quarter circle.

The disk rule is Gauss-Legendre in the radius (mapped to (0,1), Jacobian r
included in the weights) times the equispaced periodic trapezoid rule in the
angle. Angular nodes carry a half-step offset, theta_j = 2*pi*(j+1/2)/n: for
periodic integrands the offset changes nothing, and with n a multiple of 4
it makes the node set exactly symmetric under y -> -y and x -> -x while
keeping every node off both axes. quarter_row_sums relies on that: an
integrand even in x and in y is evaluated on the n/4 columns with theta_j
in (0, pi/2) only, each standing for its four mirror images, and any other
n is refused. That one fold serves the disk route of the real-axis
correction integral and plane_wave_row_sums, the real parts of plane waves
whose odd parts cancel on the grid.

The line route of the same integral does the x integral in closed form and
leaves one smooth angular integral on (0, pi/2), which a composite
Gauss-Legendre rule of 96-node panels takes to rounding level.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _args
from .bessel import MAX_ORDER

__all__ = [
    "DiskGrid",
    "disk_grid",
    "quarter_row_sums",
    "plane_wave_row_sums",
    "real_axis_correction_integral",
    "quarter_circle_rule",
    "real_axis_correction_line",
]

# Nodes per panel of the line rule, and the largest |t| + |s| one panel
# covering all of (0, pi/2) serves: there 96 nodes agree with 30-digit values
# to about 1e-14 absolute. Larger |t| + |s| splits the interval into
# ceil((|t| + |s|) / LINE_PANEL_PHASE) equal panels, so no panel sees more
# oscillation than that.
LINE_PANEL_NODES = 96
LINE_PANEL_PHASE = 128.0

# Largest |t| + |s| the line rule takes, 2 max_order: theory's Bessel tables
# stop at |tau| of about max_order, and every panel count below this limit is
# a small int (at most 313 panels).
LINE_MAX_PHASE = 2.0 * MAX_ORDER


@dataclass(frozen=True)
class DiskGrid:
    """Tensor quadrature grid on the open unit disk.

    x, y are (radial_nodes, angular_nodes) node coordinates; radial_weights
    already contain the Gauss-Legendre weight, the [-1,1]->[0,1] map factor
    and the polar Jacobian r, so
    integral ~= angular_weight * sum_i radial_weights[i] * row_sums[i],
    with row_sums[i] the sum of the integrand over the angular nodes of
    radial row i.
    """

    radial_nodes: int
    angular_nodes: int
    r: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    radial_weights: np.ndarray = field(repr=False)
    angular_weight: float = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    @property
    def weight_sum(self):
        return self.angular_weight * self.angular_nodes * float(self.radial_weights.sum())

    def integrate_rows(self, row_sums):
        """The integral from the (radial_nodes,) sums over each radial row."""
        return self.angular_weight * (self.radial_weights * row_sums).sum()

    def integrate_values(self, values):
        return self.integrate_rows(values.sum(axis=1))


def disk_grid(radial_nodes, angular_nodes):
    """The radial_nodes x angular_nodes DiskGrid, built once per process.

    Every caller asking for the same node counts gets the same object, so
    its arrays are read-only.
    """
    return _disk_grid(_args.count(radial_nodes, "radial_nodes"), _args.count(angular_nodes, "angular_nodes"))


@functools.cache
def _disk_grid(radial_nodes, angular_nodes):
    nodes, weights = np.polynomial.legendre.leggauss(radial_nodes)
    r = 0.5 * (nodes + 1.0)
    radial_weights = 0.5 * weights * r
    theta = (np.arange(angular_nodes) + 0.5) * (2.0 * np.pi / angular_nodes)
    x = r[:, None] * np.cos(theta)[None, :]
    y = r[:, None] * np.sin(theta)[None, :]
    for array in (r, theta, radial_weights, x, y):
        array.flags.writeable = False
    return DiskGrid(
        radial_nodes=radial_nodes,
        angular_nodes=angular_nodes,
        r=r,
        theta=theta,
        radial_weights=radial_weights,
        angular_weight=2.0 * np.pi / angular_nodes,
        x=x,
        y=y,
    )


def _one_minus_cos_over_sq(u):
    # (1 - cos u)/u^2 = 0.5 * (sin(u/2)/(u/2))^2, stable at u = 0
    return 0.5 * np.sinc(u / (2.0 * np.pi)) ** 2


def quarter_row_sums(grid, integrand):
    """Per-row sums over every node of the grid of an integrand even in x and in y.

    integrand(x, y) is evaluated on the columns with theta_j in (0, pi/2)
    only, the (radial_nodes, n // 4) leading slices of grid.x and grid.y,
    and must return an array of their shape. Each column stands for its four
    mirror images and is counted four times. An angular count n that is not
    a multiple of 4 is refused.
    """
    n = grid.angular_nodes
    if n % 4 != 0:
        raise ValueError(f"the quarter-grid fold needs a multiple of 4 angular nodes, got angular_nodes={n}")
    quarter = n // 4
    values = integrand(grid.x[:, :quarter], grid.y[:, :quarter])
    return 4.0 * values.sum(axis=1)


def _cosine(v, half_phase):
    """cos(2 half_phase v) from u = tan(half_phase v) as (1 - u^2)/(1 + u^2), in a new array."""
    u = np.multiply(v, half_phase)
    np.tan(u, out=u)
    np.multiply(u, u, out=u)
    den = u + 1.0
    np.subtract(1.0, u, out=u)
    np.divide(u, den, out=u)
    return u


def plane_wave_row_sums(grid, t, s):
    """Per-row sums over every node of the grid of Re e^{i(t x + s y)}.

    Re e^{i(t x + s y)} = cos(t x) cos(s y) - sin(t x) sin(s y), and the
    second term is odd in x, so on the symmetric grid the sums are those of
    cos(t x) cos(s y), which quarter_row_sums folds. The two cosines come
    from |t| and |s| through half-angle tangents, as in
    real_axis_correction_integral. grid.integrate_rows of the result is the
    real part of the disk integral of the plane wave.
    """
    half_t, half_s = 0.5 * abs(_args.real(t, "t")), 0.5 * abs(_args.real(s, "s"))
    return quarter_row_sums(grid, lambda x, y: _cosine(x, half_t) * _cosine(y, half_s))


def real_axis_correction_integral(t, s, grid):
    """(1/4pi) integral over the disk of cos(t x) (1 - cos(s y)) / y^2.

    This is the even part of e^{itx}(1 - e^{isy})/y^2; the odd parts cancel
    pairwise on a grid symmetric under x -> -x and y -> -y. The integrand is
    even in x and in y, so it is evaluated from |t| and |s| on a quarter of
    the grid by quarter_row_sums, which refuses an angular node count that
    is not a multiple of 4; the result is bitwise even in t and in s.
    (1 - cos(s y))/y^2 is taken as 2 (sin(s y/2)/y)^2: no grid node has
    y = 0, so s = 0 gives 0 exactly. cos(t x) and sin(s y/2) come from the tangents of their half
    angles, u = tan(t x/2) and v = tan(s y/4), as (1 - u^2)/(1 + u^2) and
    2 v/(1 + v^2), for the reason given in kernels.linear_stat_sums: numpy's
    float64 tan is a SIMD loop, and its cos and sin may not be.
    """
    t, s = _args.real(t, "t"), _args.real(s, "s")

    def integrand(x, y):
        work = np.multiply(y, 0.25 * abs(s))
        np.tan(work, out=work)
        den = np.multiply(work, work)
        den += 1.0
        np.divide(work, den, out=work)  # sin(s y/2) / 2
        np.divide(work, y, out=work)
        np.multiply(work, work, out=work)  # (1 - cos(s y)) / (8 y^2)
        values = _cosine(x, 0.5 * abs(t))
        values *= work
        return values

    return float(grid.integrate_rows(quarter_row_sums(grid, integrand))) * (2.0 / np.pi)


def quarter_circle_rule(panels):
    """(cos phi, sin phi, weights) of the composite Gauss-Legendre rule on (0, pi/2).

    The interval is cut into `panels` equal panels of LINE_PANEL_NODES nodes
    each. Built once per process per panel count, so the arrays are
    read-only.
    """
    return _quarter_circle_rule(_args.count(panels, "panels"))


@functools.cache
def _quarter_circle_rule(panels):
    nodes, weights = np.polynomial.legendre.leggauss(LINE_PANEL_NODES)
    half_width = 0.25 * np.pi / panels
    centers = (2 * np.arange(panels) + 1) * half_width
    phi = (centers[:, None] + half_width * nodes[None, :]).ravel()
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    weights = np.tile(half_width * weights, panels)
    for array in (cos_phi, sin_phi, weights):
        array.flags.writeable = False
    return cos_phi, sin_phi, weights


def real_axis_correction_line(t, s):
    """The real-axis correction integral by one angular integral.

    Over the chord at height y the x integral of cos(t x) is
    2 sin(t sqrt(1 - y^2))/t; with y = sin phi and the integrand even in phi,

        I(t, s) = (1/pi) int_0^{pi/2} [sin(t cos phi)/t]
                  (1 - cos(s sin phi))/sin^2 phi  cos phi dphi,

    taken by quarter_circle_rule. sin(t c)/t = c np.sinc(t c/pi) and
    (1 - cos u)/u^2 go through np.sinc, so t = 0 and s = 0 are exact, and
    I is computed from |t| and |s|, which makes it bitwise even in both.
    Equals real_axis_correction_integral(t, s, grid) up to the grid's error.

    t and s are finite reals or 1-D arrays of them, broadcast together, with
    |t| + |s| at most LINE_MAX_PHASE.
    The result holds I at each (t, s), the points of one panel count taken
    at once; a call with two scalars is this route at one point and returns
    a float.
    """
    scalar = np.ndim(t) == np.ndim(s) == 0
    t, s = np.broadcast_arrays(*(np.abs(_args.reals(v if np.ndim(v) else [v], "t and s")) for v in (t, s)))
    phase = t + s
    if (phase > LINE_MAX_PHASE).any():
        raise ValueError(f"t and s must have |t| + |s| at most {LINE_MAX_PHASE:g}, got {float(phase.max())!r}")
    panels = np.maximum(1, np.ceil(phase / LINE_PANEL_PHASE)).astype(np.int64)
    out = np.empty(t.shape)
    for count in set(panels.ravel().tolist()):
        pick = panels == count
        out[pick] = _line_rule(t[pick, None], s[pick, None], count)
    return float(out[0]) if scalar else out


def _line_rule(t, s, panels):
    """real_axis_correction_line's angular integral at (P, 1) arrays |t|, |s|, one sum per row."""
    cos_phi, sin_phi, weights = quarter_circle_rule(panels)
    chord = cos_phi * np.sinc(t * cos_phi / np.pi)
    integrand = chord * (s * s) * _one_minus_cos_over_sq(s * sin_phi) * cos_phi
    return np.sum(weights * integrand, axis=-1) / np.pi
