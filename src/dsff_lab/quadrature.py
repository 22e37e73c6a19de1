"""Quadrature rules on the unit disk, circle, chord, and quarter circle.

The disk rule is Gauss-Legendre in the radius (mapped to (0,1), Jacobian r
included in the weights) times the equispaced periodic trapezoid rule in the
angle. Angular nodes carry a half-step offset, theta_j = 2*pi*(j+1/2)/n: for
periodic integrands the offset changes nothing, and with even n it makes the
node set exactly symmetric under y -> -y and x -> -x while keeping every node
off the real axis. The disk route of the real-axis correction integral
relies on both: its integrand is even in x and in y, so it is evaluated on
the columns with theta_j in (0, pi/2) only, each standing for its four
mirror images. With n = 2 (mod 4) one column lies on theta = pi/2 and is
its own image under x -> -x, so it stands for two columns; with odd n the
images of a column are not grid columns, and the fold is refused.

The line route of the same integral does the x integral in closed form and
leaves one smooth angular integral on (0, pi/2), which a composite
Gauss-Legendre rule of 96-node panels takes to rounding level.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiskGrid",
    "disk_grid",
    "disk_integral",
    "boundary_average",
    "chord_integral",
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


@functools.cache
def disk_grid(radial_nodes, angular_nodes):
    """The radial_nodes x angular_nodes DiskGrid, built once per process.

    Every caller asking for the same node counts gets the same object, so
    its arrays are read-only.
    """
    if radial_nodes < 1 or angular_nodes < 1:
        raise ValueError("node counts must be positive")
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


def disk_integral(f, grid):
    """integral over the unit disk of f(x, y) dx dy.

    f must accept the grid's coordinate arrays (vectorized) and may return
    complex values.
    """
    return grid.integrate_values(np.asarray(f(grid.x, grid.y)))


def boundary_average(f):
    """(1/2pi) integral of f over the unit circle by the 512-node trapezoid rule.

    f takes an angle array.
    """
    theta = np.arange(512) * (2.0 * np.pi / 512)
    return np.mean(np.asarray(f(theta)))


def chord_integral(t):
    """(1/2pi) integral_{-1}^{1} e^{itx} / sqrt(1-x^2) dx, 256-node Chebyshev-Gauss.

    Equals J_0(t)/2; the imaginary part cancels exactly on the symmetric
    Chebyshev nodes, so a real number is returned.
    """
    k = np.arange(1, 257)
    x = np.cos((2 * k - 1) * np.pi / 512)
    return float(np.mean(np.cos(t * x))) / 2.0


def _one_minus_cos_over_sq(u):
    # (1 - cos u)/u^2 = 0.5 * (sin(u/2)/(u/2))^2, stable at u = 0
    return 0.5 * np.sinc(u / (2.0 * np.pi)) ** 2


def real_axis_correction_integral(t, s, grid):
    """(1/4pi) integral over the disk of cos(t x) (1 - cos(s y)) / y^2.

    This is the even part of e^{itx}(1 - e^{isy})/y^2; the odd parts cancel
    pairwise on a grid symmetric under x -> -x and y -> -y. The integrand is
    even in x and in y, so it is evaluated from |t| and |s| on the columns
    with theta_j in (0, pi/2) only and each column counted four times, or
    twice for the column on theta = pi/2 that an angular count of
    2 (mod 4) puts there. That fold needs an even angular node count (odd
    counts are rejected), and makes the result bitwise even in t and in s.
    (1 - cos(s y))/y^2 is taken as 2 (sin(s y/2)/y)^2: no grid node has
    y = 0, so s = 0 gives 0 exactly.
    """
    if grid.angular_nodes % 2 != 0:
        raise ValueError(
            "real-axis correction needs a grid symmetric under y->-y and "
            f"x->-x: angular_nodes={grid.angular_nodes} is odd"
        )
    n = grid.angular_nodes
    quarter = n // 4  # columns strictly inside (0, pi/2)
    # with n = 2 (mod 4) one more column, number `quarter`, is on theta = pi/2
    x, y = grid.x[:, :(n + 2) // 4], grid.y[:, :(n + 2) // 4]
    work = np.multiply(y, 0.5 * abs(s))
    np.sin(work, out=work)
    np.divide(work, y, out=work)
    np.multiply(work, work, out=work)
    values = np.multiply(x, abs(t))
    np.cos(values, out=values)
    values *= work  # cos(t x) (1 - cos(s y)) / (2 y^2)
    row_sums = 4.0 * values[:, :quarter].sum(axis=1)
    if n % 4:
        row_sums += 2.0 * values[:, quarter]
    return float(grid.integrate_rows(row_sums)) / (2.0 * np.pi)


@functools.cache
def quarter_circle_rule(panels):
    """(cos phi, sin phi, weights) of the composite Gauss-Legendre rule on (0, pi/2).

    The interval is cut into `panels` equal panels of LINE_PANEL_NODES nodes
    each. Built once per process per panel count, so the arrays are
    read-only.
    """
    if panels < 1:
        raise ValueError("panels must be positive")
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
    """
    t, s = abs(t), abs(s)
    panels = max(1, math.ceil((t + s) / LINE_PANEL_PHASE))
    cos_phi, sin_phi, weights = quarter_circle_rule(panels)
    chord = cos_phi * np.sinc(t * cos_phi / np.pi)
    integrand = chord * (s * s) * _one_minus_cos_over_sq(s * sin_phi) * cos_phi
    return float(np.sum(weights * integrand)) / np.pi
