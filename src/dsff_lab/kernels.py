"""Phase-sum kernels: the estimator's hot loops.

`linear_stat_sums` evaluates one complex time. It takes each term from one
tangent of the half phase, u = tan(phi / 2), through

    cos phi = (1 - u^2) / (1 + u^2),    sin phi = 2 u / (1 + u^2),

because numpy dispatches its float64 tan to a SIMD loop where its cos and
sin may run scalar libm code: with AVX-512 one tan costs a fifth to an
eighteenth of one cos plus one sin, depending on the phase. Next to np.cos and
np.sin the identity stays within 2.2e-16 absolute for phases up to 1e8. At
the poles of the tangent, phi = (2k + 1) pi, no double lies exactly on an odd
multiple of pi / 2, so tan returns a large finite value and the identity a
cosine of -1 and a sine of order 1e-26. `ray_linear_stat_sums` evaluates many
complex times on one ray from Chebyshev moments and one Bessel contraction,
so no trigonometric function is computed per point.

The moments C_k = sum_j T_k(u_j) up to order K come from the three-term
recurrence run only to order ceil(K / 2) and the product identities

    2 T_k^2 = T_2k + 1,    2 T_k T_k+1 = T_2k+1 + T_1,

so each moment costs one fused row dot of two stored orders and each order
half a recurrence step: about 2K passes over the eigenvalues where the full
recurrence takes 3K. Against the recurrence to order K, the moments differ
by at most 4.5 N eps (eps = 2^-52) at K = 600 on N = 128 disk spectra that
include u = +-1, and by up to 51 N eps (1.5e-12) once u = +-(1 - 1e-6) join
them; there T_K is conditioned like K^2 and both routes miss 30-digit values
by about 2e-12 per eigenvalue.

Both run over blocks of whole rows of about `_BLOCK_ELEMENTS` eigenvalues in
work arrays of that size, so neither makes an (m, n) temporary. Both are
byte-identical across runs on one numpy build and SIMD dispatch level (numpy
picks its tan and its einsum loops by CPU), and neither uses BLAS, so the
BLAS build and thread count do not enter: the row dots and the contraction
run through einsum's own loops (no optimize, no dot or matmul). Each row's
sums do not depend on the blocking: numpy's pairwise reductions fix the
summation order for fixed shapes, and einsum sums a row of up to 8,192
eigenvalues (its buffer) in one inner loop; a longer row is summed in
buffer-sized pieces that a block of several rows would place differently,
so such rows must go one per block, which 2 * 8,193 > _BLOCK_ELEMENTS
ensures.
"""
import numpy as np

from .bessel import _TABLE_ELEMENTS, bessel_j_table

__all__ = ["linear_stat_sums", "ray_linear_stat_sums", "backend"]

# Both kernels run over blocks of whole rows of about this many eigenvalues,
# so their work arrays stay in cache and the memory peak stays small. Each
# row's sums do not depend on the blocking, so neither do the bytes, as long
# as a row longer than einsum's 8,192-element buffer gets a block of its own.
_BLOCK_ELEMENTS = 1 << 14


def linear_stat_sums(re, im, t, s):
    """Per-sample sums of exp(i(t x + s y)) over eigenvalues.

    re, im: (m, n) float64 arrays of eigenvalue real/imaginary parts (views
    such as the .real and .imag of a complex array are fine). Returns an
    (m,) complex128 array.
    """
    m, n = re.shape
    out = np.empty(m, dtype=np.complex128)
    rows = max(1, _BLOCK_ELEMENTS // n)
    # halving is exact, so (t/2) x + (s/2) y is (t x + s y) / 2 to the bit
    half_t, half_s = 0.5 * t, 0.5 * s
    work = np.empty((3, min(rows, m), n))
    for a in range(0, m, rows):
        u, sq, den = work[:, :min(rows, m - a)]
        np.multiply(re[a:a + rows], half_t, out=u)
        np.multiply(im[a:a + rows], half_s, out=sq)
        np.add(u, sq, out=u)
        np.tan(u, out=u)
        np.multiply(u, u, out=sq)
        np.add(sq, 1.0, out=den)
        np.subtract(1.0, sq, out=sq)
        np.divide(sq, den, out=sq)  # cos phi
        np.divide(u, den, out=u)  # sin(phi) / 2
        out.real[a:a + rows] = sq.sum(axis=1)
        out.imag[a:a + rows] = u.sum(axis=1)
    out.imag *= 2.0
    return out


def _chebyshev_moments(re, im, direction, rho, order):
    """(order + 1, m) array of C_k = sum_j T_k(u_j), u = (c x + s y) / rho.

    The three-term recurrence runs only to T_h, h = ceil(order / 2), and each
    moment past C_1 is one fused row dot of two of those orders:

        C_2k = 2 sum_j T_k(u_j)^2 - n,    C_2k+1 = 2 sum_j T_k(u_j) T_k+1(u_j) - C_1.
    """
    c, s = direction
    m, n = re.shape
    moments = np.empty((order + 1, m))
    moments[0] = n
    rows = max(1, _BLOCK_ELEMENTS // n)
    for a in range(0, m, rows):
        block = slice(a, a + rows)
        u = re[block] * (c / rho)
        u += im[block] * (s / rho)
        moments[1, block] = u.sum(axis=1)
        two_u = 2.0 * u
        prev, cur, scratch = np.ones_like(u), u, np.empty_like(u)
        for k in range(1, (order + 1) // 2 + 1):
            if k > 1:
                np.multiply(two_u, cur, out=scratch)
                np.subtract(scratch, prev, out=prev)  # T_k = 2 u T_{k-1} - T_{k-2}
                prev, cur = cur, prev
                np.einsum("ij,ij->i", prev, cur, optimize=False, out=moments[2 * k - 1, block])
            if 2 * k <= order:
                np.einsum("ij,ij->i", cur, cur, optimize=False, out=moments[2 * k, block])
    moments[2::2] *= 2.0
    moments[2::2] -= n
    moments[3::2] *= 2.0
    moments[3::2] -= moments[1]
    return moments


def ray_linear_stat_sums(re, im, direction, radii, rho, order):
    """Per-sample sums of exp(i r (c x + s y)) for every r in radii.

    direction = (c, s) is the unit vector of the ray, rho >= max |x + i y|
    and order the Chebyshev truncation order K. With u = (c x + s y) / rho
    in [-1, 1] and X = r rho, the Jacobi-Anger expansion (DLMF 10.12)

        exp(i X u) = J_0(X) + 2 sum_{k>=1} i^k J_k(X) T_k(u)

    turns every sum into one contraction of the per-sample Chebyshev
    moments C_k = sum_j T_k(u_j), built once from orders up to ceil(K / 2)
    by the product identities (module docstring), with the Bessel column
    J_0..J_K(X): even k give Re L, odd k give Im L. Truncating at K costs
    about sum_{k>K} |J_k(X)| per eigenvalue. No step uses BLAS.

    The Bessel table goes by blocks of points of 16 bessel tables (8 MiB),
    each with the ray's largest argument as one more column, so every block's
    recurrence starts where one table over the ray would and, as
    bessel_j_table scales each column on its own, keeps its bits. Smaller
    blocks pay numpy's call cost at every step (K = 588: 110 points a block
    took 2.6 times one 1,000-point table).

    re, im: (m, n) float64 arrays (views are fine). Returns a
    (len(radii), m) complex128 array whose row p holds the m sums at radius
    radii[p].
    """
    moments = _chebyshev_moments(re, im, direction, rho, order)
    x = rho * np.asarray(radii, dtype=np.float64)
    out = np.empty((x.size, moments.shape[1]), dtype=np.complex128)
    points = max(1, 16 * _TABLE_ELEMENTS // (order + 1) - 1)
    for a in range(0, x.size, points):
        weights = bessel_j_table(order, np.append(x[a:a + points], x.max()))[:, :-1]
        weights[1:] *= 2.0
        weights[2::4] *= -1.0  # i^k = -1 for k = 2 mod 4
        weights[3::4] *= -1.0  # i^k = -i for k = 3 mod 4
        # einsum without optimize runs its own loops, never BLAS; it fills
        # contiguous arrays faster than the strided out.real and out.imag
        block = out[a:a + points]
        block.real = np.einsum("km,kp->pm", moments[0::2], weights[0::2], optimize=False)
        block.imag = np.einsum("km,kp->pm", moments[1::2], weights[1::2], optimize=False)
    return out


def backend():
    """Name of the phase-sum implementation, for run manifests."""
    return "numpy"
