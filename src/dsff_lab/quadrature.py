"""Quadrature rules on the unit disk, circle, and chord.

The disk rule is Gauss-Legendre in the radius (mapped to (0,1), Jacobian r
included in the weights) times the equispaced periodic trapezoid rule in the
angle. Angular nodes carry a half-step offset, theta_j = 2*pi*(j+1/2)/n: for
periodic integrands the offset changes nothing, and with even n it makes the
node set exactly symmetric under y -> -y and x -> -x while keeping every node
off the real axis. The real-axis correction integral requires both.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiskGrid",
    "disk_grid",
    "disk_integral",
    "boundary_average",
    "chord_integral",
    "real_axis_correction_integral",
]


@dataclass(frozen=True)
class DiskGrid:
    """Tensor quadrature grid on the open unit disk.

    x, y are (radial_nodes, angular_nodes) node coordinates; radial_weights
    already contain the Gauss-Legendre weight, the [-1,1]->[0,1] map factor
    and the polar Jacobian r, so
    integral ~= angular_weight * radial_weights @ values.sum(axis=1).
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

    def integrate_values(self, values):
        return self.angular_weight * (self.radial_weights @ values.sum(axis=1))


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
    pairwise on a grid symmetric under x -> -x and y -> -y, which requires an
    even angular node count (asymmetric grids are rejected). Vanishes
    identically at s = 0.
    """
    if grid.angular_nodes % 2 != 0:
        raise ValueError(
            "real-axis correction needs a grid symmetric under y->-y and "
            f"x->-x: angular_nodes={grid.angular_nodes} is odd"
        )
    u = s * grid.y
    integrand = np.cos(t * grid.x) * (s * s) * _one_minus_cos_over_sq(u)
    return float(grid.integrate_values(integrand)) / (4.0 * np.pi)
