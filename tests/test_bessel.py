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
    bessel_j_columns,
    bessel_j_row,
    bessel_j_table,
    truncation_order,
    weighted_bessel_series,
    weighted_column_sums,
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
    assert weighted_bessel_series(3.0, "abs_k_cos_sq", phi=0.7) == pytest.approx(
        0.44830531822466924, rel=1e-12, abs=0.0
    )


# 30-digit values of sum_k w(k) J_k(x)^2 (phi = 0.7 as a double), frozen
WEIGHTED_REFERENCE = [
    (0.5, "abs_k", 0.1211740797843587),
    (0.5, "k_squared", 0.125),
    (0.5, "abs_k_cos_sq", 0.068788523022960381),
    (5.0, "abs_k", 3.1803326282302389),
    (5.0, "k_squared", 12.5),
    (5.0, "abs_k_cos_sq", 2.0692170436256204),
    (11.5, "abs_k", 7.3253685777326019),
    (11.5, "k_squared", 66.125),
    (11.5, "abs_k_cos_sq", 3.7280791774583049),
]


@pytest.mark.parametrize("x, weight, want", WEIGHTED_REFERENCE)
def test_weighted_series_matches_mpmath(x, weight, want):
    phi = 0.7 if weight == "abs_k_cos_sq" else None
    assert weighted_bessel_series(x, weight, phi=phi) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_column_sums_match_mpmath(table_calls):
    # the route theory takes: one bessel_j_columns call over a grid, here one
    # table, then weighted_column_sums over its columns; the reference
    # arguments are its first, last and 25th column
    xs = [*np.linspace(0.5, 11.5, 24).tolist(), 5.0]
    orders = [truncation_order(x) for x in xs]
    columns = bessel_j_columns(orders, xs)
    assert len(table_calls) == 1
    for weight in ("abs_k", "k_squared", "abs_k_cos_sq"):
        phi = np.full(len(xs), 0.7) if weight == "abs_k_cos_sq" else None
        sums = weighted_column_sums(columns, orders, weight, phi)
        got = {0.5: sums[0], 11.5: sums[23], 5.0: sums[24]}
        for x, w, want in WEIGHTED_REFERENCE:
            if w == weight:
                assert got[x] == pytest.approx(want, rel=1e-14, abs=0.0)


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
        weighted_bessel_series(2.0, "abs_k_cos_sq")
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi"):
            weighted_bessel_series(2.0, "abs_k_cos_sq", phi=phi)


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
    # a bool is not an argument, as it is not an order
    for x in (True, False):
        with pytest.raises(ValueError, match="argument"):
            bessel_j(0, x)
        with pytest.raises(ValueError, match="argument"):
            weighted_bessel_series(x, "abs_k")


@pytest.mark.parametrize(
    "x",
    [np.int64(2), np.int32(2), np.uint8(2), np.float32(2.0), np.float16(2.0), np.float64(2.0)],
    ids=repr,
)
def test_numpy_scalar_arguments_are_accepted(x):
    # a numpy integer or floating scalar is the argument float(x) is
    assert bessel_j(0, x) == bessel_j(0, 2.0)
    assert bessel_j(-3, x) == bessel_j(-3, 2.0)
    np.testing.assert_array_equal(bessel_j_row(3, x), bessel_j_row(3, 2.0))
    assert weighted_bessel_series(x, "abs_k") == weighted_bessel_series(2.0, "abs_k")


@pytest.mark.parametrize(
    "x",
    [
        True,
        np.bool_(True),
        np.bool_(False),
        1.0 + 0.0j,
        np.complex128(1.0),
        math.nan,
        np.float32(math.nan),
        math.inf,
        -math.inf,
        np.float64(math.inf),
        -1.0,
        np.int64(-1),
        np.float32(-0.5),
    ],
    ids=repr,
)
def test_non_real_or_negative_arguments_are_refused(x):
    for call in (
        lambda: bessel_j(0, x),
        lambda: bessel_j_row(3, x),
        lambda: weighted_bessel_series(x, "abs_k"),
    ):
        with pytest.raises(ValueError, match="argument"):
            call()


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


def _row_rescaling_every_entry(n_max, x):
    """bessel_j_row as it was, scaling every stored entry at every rescale."""
    start = _miller_start(n_max, x)
    row = [0.0] * (n_max + 1)
    jp, jc = 0.0, 1e-30
    evens = 0.0
    for k in range(start, 0, -1):
        jp, jc = jc, (2.0 * k / x) * jc - jp
        if k & 1:
            evens += jc
        if k <= n_max + 1:
            row[k - 1] = jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            evens *= 1e-250
            row = [v * 1e-250 for v in row]
    return np.array(row) / (2.0 * evens - jc)


@pytest.mark.parametrize(
    "n_max, x",
    # high orders at small arguments rescale hundreds of times, and leave
    # entries three or more rescales behind; truncation-order rows rescale
    # rarely or never
    [(2000, 0.5), (8000, 0.5), (MAX_ORDER - 30, 1e-3), (500, 1e-40), (3000, 2e-20), (40, TABLE_MIN_ARGUMENT)]
    + [(truncation_order(x), x) for x in (1e-3, 0.3, 7.7, 60.0, 1000.0, 15_000.0)],
)
def test_row_has_the_bits_of_rescaling_every_entry(n_max, x):
    assert bessel_j_row(n_max, x).tobytes() == _row_rescaling_every_entry(n_max, x).tobytes()


def test_columns_from_rows_have_the_bits_of_bessel_j_row(table_calls):
    # too few columns to pay for a table, with the subnormal, tiny and zero
    # arguments next to ordinary ones
    orders = [30, 0, 1, 12, 5, 70, 3]
    xs = [2.5, 0.0, 5e-324, 1e-300, 0.7, 40.0, 1.0]
    got = bessel_j_columns(orders, xs)
    assert table_calls == [] and got.shape == (71, 7) and got.flags.f_contiguous
    for p, (n, x) in enumerate(zip(orders, xs)):
        assert got[: n + 1, p].tobytes() == bessel_j_row(n, x).tobytes()
        assert not got[n + 1 :, p].any()


def test_columns_from_tables_have_the_bits_of_bessel_j_table(table_calls):
    # one ray of truncation-order columns plus order-0 and order-1 columns
    # at other arguments: one block, one table; the arguments below
    # TABLE_MIN_ARGUMENT take rows
    xs = np.geomspace(0.1, 30.0, 40).tolist()
    orders = [truncation_order(x) for x in xs] + [0] * 20 + [1] * 20 + [2, 2]
    xs = xs + [0.5 * x for x in xs[::2]] + [1.5 * x for x in xs[1::2]] + [5e-324, 1e-300]
    got = bessel_j_columns(orders, xs)
    assert len(table_calls) == 1
    n_max, block = table_calls[0]
    assert n_max == max(orders) and len(block) == len(xs) - 2
    want = bessel_j_table(n_max, block)
    for j, x in enumerate(block.tolist()):
        p = xs.index(x)
        assert got[:, p].tobytes() == want[:, j].tobytes()
    for p in (len(xs) - 2, len(xs) - 1):
        assert got[:3, p].tobytes() == bessel_j_row(2, xs[p]).tobytes()


def test_columns_of_a_grid_that_does_not_pay_for_a_table(table_calls):
    # arguments this deep replace fewer rows than a table costs: every
    # column is a row
    xs = [14_000.0 + 100.0 * i for i in range(12)]
    got = bessel_j_columns([3] * 12, xs)
    assert table_calls == []
    for p, x in enumerate(xs):
        assert got[:, p].tobytes() == bessel_j_row(3, x).tobytes()


def test_columns_validation():
    assert bessel_j_columns([], []).shape == (0, 0)
    for orders in ([MAX_ORDER + 1], [-1], [1.0], [True], ["2"]):
        with pytest.raises(ValueError):
            bessel_j_columns(orders, [1.0])
    for x in (-1.0, math.nan, math.inf, "1.0", None):
        with pytest.raises(ValueError):
            bessel_j_columns([2, 2], [1.0, x])
    with pytest.raises(ValueError):
        bessel_j_columns([2, 2], [1.0])
    with pytest.raises(ValueError, match="max_order"):
        bessel_j_columns([0], [25_000.0])


def test_table_argument_validation():
    for bad in ([-1.0], [math.nan], [math.inf], [[1.0]], [TABLE_MIN_ARGUMENT / 2]):
        with pytest.raises(ValueError):
            bessel_j_table(4, bad)
    with pytest.raises(ValueError):
        bessel_j_table(-1, [1.0])
    assert bessel_j_table(4, [TABLE_MIN_ARGUMENT])[1, 0] == pytest.approx(TABLE_MIN_ARGUMENT / 2, rel=1e-14, abs=0.0)


def test_table_takes_numpy_and_python_reals():
    want = bessel_j_table(2, np.array([0.0, 1.5, 3.0]))
    for xs in ([0, 1.5, 3], [np.int64(0), np.float32(1.5), 3.0], np.array([0, 1.5, 3], dtype=object),
               np.array([0.0, 1.5, 3.0], dtype=np.float32), (0.0, 1.5, 3.0)):
        np.testing.assert_array_equal(bessel_j_table(2, xs), want)


def test_chebyshev_order_tail():
    # the Jacobi-Anger series e^{ixu} = sum_k i^k J_k(x) T_k(u) cut at
    # truncation_order(x) drops less than 1e-19 per unit |T_k|
    xs = [0.0, 1e-3, 0.1, 1.0, 5.0, 26.0, 100.0, 460.0, 2000.0, 9000.0]
    for x in xs:
        order = truncation_order(x)
        table = bessel_j_table(order + 60, [x])[:, 0]
        assert 2.0 * np.abs(table[order + 1:]).sum() < 1e-19, x
