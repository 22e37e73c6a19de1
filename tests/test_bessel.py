import math

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from dsff_lab.bessel import (
    MAX_ORDER,
    TABLE_MIN_ARGUMENT,
    _miller_start,
    bessel_j,
    bessel_j_row,
    bessel_j_table,
    truncation_order,
    weighted_bessel_series,
)

# 30-digit arithmetic reference values, frozen; small and large arguments,
# orders below and above the turning point k = x
REFERENCE = [
    (0, 0.5, 0.9384698072408129),
    (1, 0.5, 0.24226845767487389),
    (5, 0.5, 8.0536272413574741e-6),
    (1, 5.0, -0.32757913759146522),
    (0, 13.0, 0.20692610237706781),
    (0, 25.0, 0.096266783275958116),
    (3, 25.0, 0.1083430810615089),
    (20, 25.0, 0.051994049228303232),
]


def test_reference_values():
    for n, x, want in REFERENCE:
        assert bessel_j(n, x) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_route_crossover_continuity():
    # one route serves both sides of x = 12, so J_2 has no seam there
    assert bessel_j(2, 11.999999) == pytest.approx(-0.084930285586532788, rel=1e-10, abs=0.0)
    assert bessel_j(2, 12.000001) == pytest.approx(-0.08493070417057681, rel=1e-12, abs=0.0)


def test_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 7):
        assert bessel_j(n, 0.0) == 0.0


def test_reflection_negative_order():
    for n in (1, 2, 3, 8):
        for x in (0.7, 20.0):
            assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)


def test_row_matches_scalar():
    for x in (3.5, 30.0):
        row = bessel_j_row(12, x)
        assert row.shape == (13,)
        for n in range(13):
            assert row[n] == pytest.approx(bessel_j(n, x), rel=1e-12, abs=1e-15)


def test_row_order_zero():
    row = bessel_j_row(0, 2.0)
    assert row.shape == (1,)
    assert row[0] == pytest.approx(bessel_j(0, 2.0), rel=1e-14, abs=0.0)


def test_weighted_series_frozen():
    assert weighted_bessel_series(3.0, "abs_k") == pytest.approx(
        1.9078108044201393, rel=1e-12, abs=0.0
    )
    assert weighted_bessel_series(20.0, "abs_k") == pytest.approx(
        12.722306391429547, rel=1e-12, abs=0.0
    )
    assert weighted_bessel_series(3.0, "abs_k_sin_sq", phi=0.7) == pytest.approx(
        1.45950548619547, rel=1e-12, abs=0.0
    )


# 30-digit values of sum_k w(k) J_k(x)^2 (phi = 0.7 as a double), frozen
WEIGHTED_REFERENCE = [
    (0.5, "abs_k", 0.1211740797843587),
    (0.5, "k_squared", 0.125),
    (0.5, "abs_k_sin_sq", 0.052385556761398323),
    (5.0, "abs_k", 3.1803326282302389),
    (5.0, "k_squared", 12.5),
    (5.0, "abs_k_sin_sq", 1.1111155846046186),
    (11.5, "abs_k", 7.3253685777326019),
    (11.5, "k_squared", 66.125),
    (11.5, "abs_k_sin_sq", 3.597289400274297),
]


@pytest.mark.parametrize("x, weight, want", WEIGHTED_REFERENCE)
def test_weighted_series_matches_mpmath(x, weight, want):
    phi = 0.7 if weight == "abs_k_sin_sq" else None
    assert weighted_bessel_series(x, weight, phi=phi) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_weighted_series_closed_form():
    # sum_k k^2 J_k(x)^2 = x^2 / 2
    for x in (0.5, 7.0, 33.0):
        assert weighted_bessel_series(x, "k_squared") == pytest.approx(
            x * x / 2.0, rel=1e-10, abs=0.0
        )


def test_weighted_series_zero_argument():
    assert weighted_bessel_series(0.0, "abs_k") == 0.0


def test_weighted_series_requires_phi():
    with pytest.raises(ValueError, match="phi"):
        weighted_bessel_series(2.0, "abs_k_sin_sq")


def test_unknown_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        weighted_bessel_series(2.0, "cubed")


def test_argument_validation():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(0, math.inf)
    with pytest.raises(ValueError):
        bessel_j(0, math.nan)
    with pytest.raises(ValueError):
        bessel_j_row(-1, 2.0)


def test_order_cap():
    with pytest.raises(ValueError, match="max_order"):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError, match="max_order"):
        bessel_j_row(MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError, match="max_order"):
        bessel_j_table(MAX_ORDER + 1, [1.0])
    # truncation_order(x) passes MAX_ORDER a few hundred below x = MAX_ORDER
    with pytest.raises(ValueError, match="max_order"):
        weighted_bessel_series(float(MAX_ORDER), "abs_k")


@pytest.mark.parametrize("order", [1.5, 2.0, True, False, None, "3"])
def test_order_must_be_an_int(order):
    # int() would turn J_1.5(2) into J_1(2) = 0.5767, not J_1.5(2) = 0.49
    with pytest.raises(ValueError, match="order"):
        bessel_j(order, 2.0)
    with pytest.raises(ValueError, match="order"):
        bessel_j_row(order, 2.0)
    with pytest.raises(ValueError, match="order"):
        bessel_j_table(order, [2.0])


def test_small_argument_ratios_match_taylor():
    # J_1(x)/x = 1/2 - x^2/16 + ... and J_3(x)/x = x^2/48 - x^4/768 + ...
    for x in np.geomspace(1e-49, 1e-4, 200):
        x = float(x)
        assert bessel_j(1, x) / x == pytest.approx(0.5 - x * x / 16.0, rel=1e-15, abs=0.0)
        assert bessel_j(3, x) / x == pytest.approx(x * x / 48.0 - x**4 / 768.0, rel=1e-15, abs=0.0)


def test_below_table_min_argument_gives_the_leading_term():
    x = TABLE_MIN_ARGUMENT / 4
    want = [1.0, x / 2, (x / 2) ** 2 / 2, (x / 2) ** 3 / 6]
    assert bessel_j_row(3, x).tolist() == pytest.approx(want, rel=1e-15, abs=0.0)
    assert bessel_j(-1, x) == -x / 2


def test_high_order_underflow():
    # far above the turning point the value underflows cleanly to zero
    assert bessel_j(500, 1.0) == 0.0


def test_even_sum_rule():
    for x in (4.0, 40.0):
        row = bessel_j_row(math.ceil(x) + 40, x)
        total = row[0] + 2.0 * row[2::2].sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def test_table_matches_scipy():
    # scipy's jv is itself good to ~6e-16 up to x = 50 (checked against
    # mpmath), so it is the oracle there
    xs = np.concatenate([[1e-12, 1e-6, 1e-3], np.geomspace(0.01, 50.0, 60), [11.999999, 12.000001]])
    n_max = truncation_order(50.0)
    table = bessel_j_table(n_max, xs)
    assert table.shape == (n_max + 1, xs.size)
    want = jv(np.arange(n_max + 1)[:, None], xs[None, :])
    assert np.abs(table - want).max() <= 1e-15


def test_table_matches_mpmath_at_large_argument():
    # past x ~ 50 scipy's jv drifts (9e-15 at x = 500), so 30-digit values
    # are the oracle up to x = 500
    xs = [75.5, 233.0, 499.9]
    n_max = truncation_order(500.0)
    table = bessel_j_table(n_max, xs)
    with mpmath.workdps(30):
        for p, x in enumerate(xs):
            for k in range(0, n_max + 1, 9):
                assert abs(table[k, p] - float(mpmath.besselj(k, x))) <= 1e-15


def test_row_and_scalar_match_scipy_below_12():
    # near x = 12 the alternating power series would lose ~5e-13 to
    # cancellation; the downward recurrence does not
    x = 11.5
    want = jv(np.arange(31), x)
    assert np.abs(bessel_j_row(30, x) - want).max() <= 1e-15
    assert max(abs(bessel_j(n, x) - want[n]) for n in range(31)) <= 1e-15
    assert np.abs(bessel_j_table(30, [x])[:, 0] - want).max() <= 1e-15


def test_table_zero_argument_column_is_exact():
    table = bessel_j_table(6, [0.0, 2.0, 0.0])
    assert table[:, 0].tolist() == [1.0, 0, 0, 0, 0, 0, 0]
    assert table[:, 2].tolist() == [1.0, 0, 0, 0, 0, 0, 0]
    assert table[1, 1] == pytest.approx(bessel_j(1, 2.0), rel=1e-14, abs=0.0)


def _table_rescaling_every_row(n_max, xs):
    """bessel_j_table as it was, scaling every stored row at every rescale.

    The reference for the deferred rescales: O(depth^2 arguments) when the
    arguments are small, but the same recurrence step by step.
    """
    xs = np.asarray(xs, dtype=np.float64)
    pos = np.flatnonzero(xs)
    table = np.zeros((n_max + 1, xs.size))
    table[0, xs == 0.0] = 1.0
    x = xs[pos]
    rows = np.zeros((n_max + 1, x.size))
    jp = np.zeros(x.size)
    jc = np.full(x.size, 1e-30)
    norm = np.zeros(x.size)
    for k in range(_miller_start(n_max, float(x.max())), 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        km = k - 1
        if km <= n_max:
            rows[km] = jc
        if km > 0 and km % 2 == 0:
            norm += 2.0 * jc
        big = np.abs(jc) > 1e250
        if big.any():
            scale = np.where(big, 1e-250, 1.0)
            jc *= scale
            jp *= scale
            norm *= scale
            rows *= scale
    norm += jc
    table[:, pos] = rows / norm
    return table


@pytest.mark.parametrize(
    "n_max, xs",
    [
        # log grids reaching x = 300, with arguments at 0 and 1e-40, at the
        # truncation order and at small orders (rows three rescales behind
        # are zeros of either sign)
        (truncation_order(300.0), np.concatenate([[0.0, 1e-40], np.geomspace(1e-30, 300.0, 60)])),
        (5, np.concatenate([[1e-40, 0.0], np.geomspace(1e-3, 300.0, 40)])),
        (0, np.geomspace(1e-40, 300.0, 25)),
        (1, [1e-40]),
        # one ray of the estimator's shape: r rho for 80 radii on [0.3, 25]
        (truncation_order(25.0 * 1.02), 1.02 * np.geomspace(0.3, 25.0, 80)),
    ],
)
def test_table_has_the_bits_of_rescaling_every_row(n_max, xs):
    want = _table_rescaling_every_row(n_max, xs)
    assert bessel_j_table(n_max, xs).tobytes() == want.tobytes()


def test_table_argument_validation():
    for bad in ([-1.0], [math.nan], [math.inf], [[1.0]], [TABLE_MIN_ARGUMENT / 2]):
        with pytest.raises(ValueError):
            bessel_j_table(4, bad)
    with pytest.raises(ValueError):
        bessel_j_table(-1, [1.0])
    assert bessel_j_table(4, [TABLE_MIN_ARGUMENT])[1, 0] == pytest.approx(TABLE_MIN_ARGUMENT / 2, rel=1e-14, abs=0.0)


def test_chebyshev_order_tail():
    # the Jacobi-Anger series e^{ixu} = sum_k i^k J_k(x) T_k(u) cut at
    # truncation_order(x) drops less than 1e-19 per unit |T_k|
    xs = [0.0, 1e-3, 0.1, 1.0, 5.0, 26.0, 100.0, 460.0, 2000.0, 9000.0]
    for x in xs:
        order = truncation_order(x)
        table = bessel_j_table(order + 60, [x])[:, 0]
        assert 2.0 * np.abs(table[order + 1:]).sum() < 1e-19, x
