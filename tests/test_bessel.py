import math

import numpy as np
import pytest

from dsff_lab.bessel import (
    MAX_ORDER,
    bessel_j,
    bessel_j_row,
    weighted_bessel_series,
)

# 30-digit arithmetic reference values, frozen; both evaluation routes are
# covered (series below the threshold at 12, downward recurrence above)
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
    # the series route loses a few digits right at the switch point; the
    # recurrence route does not
    assert bessel_j(2, 11.999999) == pytest.approx(-0.084930285586532788, rel=1e-10)
    assert bessel_j(2, 12.000001) == pytest.approx(-0.08493070417057681, rel=1e-12)


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
    assert row[0] == pytest.approx(bessel_j(0, 2.0), rel=1e-14)


def test_weighted_series_frozen():
    assert weighted_bessel_series(3.0, "abs_k") == pytest.approx(
        1.9078108044201393, rel=1e-12
    )
    assert weighted_bessel_series(20.0, "abs_k") == pytest.approx(
        12.722306391429547, rel=1e-12
    )
    assert weighted_bessel_series(3.0, "abs_k_sin_sq", phi=0.7) == pytest.approx(
        1.45950548619547, rel=1e-12
    )


def test_weighted_series_closed_form():
    # sum_k k^2 J_k(x)^2 = x^2 / 2
    for x in (0.5, 7.0, 33.0):
        assert weighted_bessel_series(x, "k_squared") == pytest.approx(
            x * x / 2.0, rel=1e-10
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
        weighted_bessel_series(MAX_ORDER / 2 + 1, "abs_k")


def test_high_order_underflow():
    # far above the turning point the value underflows cleanly to zero
    assert bessel_j(500, 1.0) == 0.0


def test_even_sum_rule():
    for x in (4.0, 40.0):
        row = bessel_j_row(math.ceil(x) + 40, x)
        total = row[0] + 2.0 * row[2::2].sum()
        assert total == pytest.approx(1.0, abs=1e-12)
