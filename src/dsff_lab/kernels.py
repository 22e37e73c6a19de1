"""Phase-sum kernels: the estimator's hot loops.

`linear_stat_sums` evaluates one complex time: cosine and sine sums of one
real phase array, with no complex (M, N) temporaries. `ray_linear_stat_sums`
evaluates many complex times on one ray from Chebyshev moments and one Bessel
contraction, so no cos/sin is computed per point.

Both are byte-identical across runs on one numpy build and SIMD dispatch
level (numpy picks its cos/sin and its einsum loops by CPU): numpy's pairwise
reductions fix the summation order for fixed shapes, and the contraction
runs through einsum's own loops, not BLAS, so the BLAS build and thread
count do not enter.
"""
import numpy as np

from .bessel import bessel_j_table

__all__ = ["linear_stat_sums", "ray_linear_stat_sums", "backend"]


def linear_stat_sums(re, im, t, s):
    """Per-sample sums of exp(i(t x + s y)) over eigenvalues.

    re, im: (m, n) float64 arrays of eigenvalue real/imaginary parts.
    Returns an (m,) complex128 array.
    """
    ph = t * re
    ph += s * im
    return np.cos(ph).sum(axis=1) + 1j * np.sin(ph).sum(axis=1)


# The moment recurrence runs over blocks of whole rows of about this many
# eigenvalues, so its four work arrays stay in cache and the memory peak stays
# small. Each row's sums do not depend on the blocking, so neither do the bytes.
_BLOCK_ELEMENTS = 1 << 14


def _chebyshev_moments(re, im, direction, rho, order):
    """(order + 1, m) array of C_k = sum_j T_k(u_j), u = (c x + s y) / rho."""
    c, s = direction
    m, n = re.shape
    moments = np.empty((order + 1, m))
    moments[0] = n
    rows = max(1, _BLOCK_ELEMENTS // n)
    for a in range(0, m, rows):
        u = re[a:a + rows] * (c / rho)
        u += im[a:a + rows] * (s / rho)
        moments[1, a:a + rows] = u.sum(axis=1)
        two_u = 2.0 * u
        prev, cur, scratch = np.ones_like(u), u, np.empty_like(u)
        for k in range(2, order + 1):
            np.multiply(two_u, cur, out=scratch)
            np.subtract(scratch, prev, out=prev)  # T_k = 2 u T_{k-1} - T_{k-2}
            prev, cur = cur, prev
            moments[k, a:a + rows] = cur.sum(axis=1)
    return moments


def ray_linear_stat_sums(re, im, direction, radii, rho, order):
    """Per-sample sums of exp(i r (c x + s y)) for every r in radii.

    direction = (c, s) is the unit vector of the ray, rho >= max |x + i y|
    and order the Chebyshev truncation order K. With u = (c x + s y) / rho
    in [-1, 1] and X = r rho, the Jacobi-Anger expansion (DLMF 10.12)

        exp(i X u) = J_0(X) + 2 sum_{k>=1} i^k J_k(X) T_k(u)

    turns every sum into one contraction of the per-sample Chebyshev
    moments C_k = sum_j T_k(u_j), built once by the three-term recurrence,
    with the Bessel column J_0..J_K(X): even k give Re L, odd k give Im L.
    Truncating at K costs about sum_{k>K} |J_k(X)| per eigenvalue.

    re, im: (m, n) float64 arrays (views are fine). Returns a
    (len(radii), m) complex128 array whose row p holds the m sums at radius
    radii[p].
    """
    moments = _chebyshev_moments(re, im, direction, rho, order)
    weights = bessel_j_table(order, rho * np.asarray(radii, dtype=np.float64))
    weights[1:] *= 2.0
    weights[2::4] *= -1.0  # i^k = -1 for k = 2 mod 4
    weights[3::4] *= -1.0  # i^k = -i for k = 3 mod 4
    out = np.empty((weights.shape[1], moments.shape[1]), dtype=np.complex128)
    # einsum without optimize runs its own loops, never BLAS
    np.einsum("km,kp->pm", moments[0::2], weights[0::2], optimize=False, out=out.real)
    np.einsum("km,kp->pm", moments[1::2], weights[1::2], optimize=False, out=out.imag)
    return out


def backend():
    """Name of the phase-sum implementation, for run manifests."""
    return "numpy"
