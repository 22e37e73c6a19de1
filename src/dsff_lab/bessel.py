"""Bessel functions of the first kind and weighted quadratic series.

Everything downstream (theory curves, quadrature cross-checks) reduces to
J_n evaluated at real nonnegative arguments, plus sums of the form
sum_k w(k) J_k(x)^2 over all integer k. Two evaluation routes are used:

* the defining power series for small arguments,
* Miller-style downward recurrence for large ones, normalized with the
  even-order sum rule J_0(x) + 2 sum_{k>=1} J_2k(x) = 1.

Negative orders go through the reflection J_{-n} = (-1)^n J_n.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SERIES_THRESHOLD",
    "TAIL_TOLERANCE",
    "MAX_ORDER",
    "bessel_j",
    "bessel_j_row",
    "weighted_bessel_series",
]


# Arguments below this use the power series, the rest downward recurrence.
SERIES_THRESHOLD = 12.0
# weighted_bessel_series stops once its last two terms fall below this.
TAIL_TOLERANCE = 1e-12
# Largest order evaluated (and largest recurrence start, up to padding).
MAX_ORDER = 20000

# Extra orders above max(n, x) before starting the downward recurrence.
# The turning point sits near k = x; super-exponential decay beyond it makes
# ~3 x^(1/3) + 22 orders of headroom enough for full double precision.
_MILLER_PAD = 22
_RESCALE_LIMIT = 1e250


def _validate_argument(x):
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValueError(f"argument must be a finite real number, got {x!r}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    return float(x)


def _series_jn(n, x):
    """Power series sum_m (-1)^m / (m! (m+n)!) (x/2)^(2m+n), n >= 0."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    # leading term via logs so large n cannot overflow the factorial
    log_lead = n * math.log(x / 2.0) - math.lgamma(n + 1.0)
    if log_lead < -745.0:  # underflows to 0.0 and every later term is smaller
        return 0.0
    term = math.exp(log_lead)
    total = term
    q = 0.25 * x * x
    for m in range(1, 400):
        term *= -q / (m * (m + n))
        total += term
        if abs(term) <= 1e-17 * (1.0 + abs(total)):
            break
    return total


def _row_miller(n_max, x):
    """J_0..J_n_max by downward recurrence, normalized by the even-sum rule."""
    start = max(n_max, math.ceil(x)) + int(3.0 * x ** (1.0 / 3.0)) + _MILLER_PAD
    start += start % 2  # even start keeps the normalization bookkeeping simple
    if start > MAX_ORDER + _MILLER_PAD + 2:
        raise ValueError(
            f"order {n_max} at argument {x} needs recurrence depth {start} "
            f"beyond max_order={MAX_ORDER}"
        )
    row = np.zeros(n_max + 1)
    jp = 0.0  # J_{k+1} (unnormalized)
    jc = 1e-30  # J_k at k = start
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        km = k - 1
        if km <= n_max:
            row[km] = jc
        if km > 0 and km % 2 == 0:
            norm += 2.0 * jc
        if abs(jc) > _RESCALE_LIMIT:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            row *= 1e-250
    norm += jc  # jc now holds unnormalized J_0
    row /= norm
    return row


def bessel_j(n, x):
    """J_n(x) for integer n (any sign) and real x >= 0.

    Absolute accuracy ~1e-13 over the contract range (x <= 50, |n| <= 200);
    degrades gracefully for larger arguments.
    """
    x = _validate_argument(x)
    n = int(n)
    if abs(n) > MAX_ORDER:
        raise ValueError(f"order {n} exceeds max_order={MAX_ORDER}")
    sign = -1.0 if (n < 0 and n % 2 != 0) else 1.0
    n = abs(n)
    if x < SERIES_THRESHOLD:
        return sign * _series_jn(n, x)
    return sign * _row_miller(n, x)[n]


def bessel_j_row(n_max, x):
    """Array [J_0(x), J_1(x), ..., J_n_max(x)] sharing one recurrence pass."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    x = _validate_argument(x)
    if n_max > MAX_ORDER:
        raise ValueError(f"order {n_max} exceeds max_order={MAX_ORDER}")
    if x < SERIES_THRESHOLD:
        return np.array([_series_jn(n, x) for n in range(n_max + 1)])
    return _row_miller(n_max, x)


def _weight_values(weight, k, phi):
    if weight == "abs_k":
        return k.astype(float)
    if weight == "k_squared":
        return k.astype(float) ** 2
    if weight == "abs_k_sin_sq":
        if phi is None:
            raise ValueError("weight 'abs_k_sin_sq' requires phi")
        return k * np.sin(phi * k) ** 2
    raise ValueError(f"unknown weight {weight!r}")


def weighted_bessel_series(x, weight, phi=None):
    """sum over all integer k of w(k) J_k(x)^2.

    Weights: "abs_k" -> |k|, "k_squared" -> k^2,
    "abs_k_sin_sq" -> |k| sin^2(phi k) (phi required).
    All three are even in k and vanish at k=0, so the sum is
    2 sum_{k>=1} w(k) J_k(x)^2.
    """
    x = _validate_argument(x)
    if MAX_ORDER < 2 * math.ceil(x):
        raise ValueError(f"max_order={MAX_ORDER} below 2*ceil(x)={2 * math.ceil(x)}")
    k_trunc = math.ceil(x) + math.ceil(3.0 * x ** (1.0 / 3.0)) + 20
    while True:
        if k_trunc > MAX_ORDER:
            raise ValueError(
                f"truncation order {k_trunc} exceeds max_order={MAX_ORDER}"
            )
        row = bessel_j_row(k_trunc, x)
        k = np.arange(1, k_trunc + 1)
        terms = _weight_values(weight, k, phi) * row[1:] ** 2
        # beyond the turning point J_k^2 decays super-exponentially, so a
        # small final term bounds the tail; |k|-type weights grow at most
        # quadratically and cannot overcome that decay
        tail = abs(terms[-1]) + abs(terms[-2])
        if tail < TAIL_TOLERANCE:
            return 2.0 * float(np.sum(terms))
        k_trunc += 20
