"""Phase-sum kernel: the estimator's one hot loop.

Cosine and sine sums of one real phase array need no complex (M, N)
temporaries. numpy's pairwise reductions fix the summation order for fixed
shapes, so results are byte-identical across runs on one numpy build and
SIMD dispatch level (numpy picks its cos/sin by CPU).
"""
import numpy as np

__all__ = ["linear_stat_sums", "backend"]


def linear_stat_sums(re, im, t, s):
    """Per-sample sums of exp(i(t x + s y)) over eigenvalues.

    re, im: (m, n) float64 arrays of eigenvalue real/imaginary parts.
    Returns an (m,) complex128 array.
    """
    ph = t * re
    ph += s * im
    return np.cos(ph).sum(axis=1) + 1j * np.sin(ph).sum(axis=1)


def backend():
    """Name of the phase-sum implementation, for run manifests."""
    return "numpy"
