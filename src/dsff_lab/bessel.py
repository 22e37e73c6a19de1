"""Bessel functions of the first kind and weighted quadratic series.

Everything downstream (theory curves, quadrature cross-checks, the
estimator's ray route) reduces to J_n evaluated at real nonnegative
arguments, plus sums of the form sum_k w(k) J_k(x)^2 over all integer k.
One route computes them for every x > 0: Miller-style downward recurrence,
normalized with the even-order sum rule J_0(x) + 2 sum_{k>=1} J_2k(x) = 1.
`_row_miller` runs it for one argument and `bessel_j_table` for many at
once; both start at `_miller_start`. Below TABLE_MIN_ARGUMENT, where one
recurrence step would overflow, J_n(x) is its leading term (x/2)^n / n!,
exact in double precision there and exact at x = 0: `_leading_terms` gives
it to both.

`bessel_j_columns` takes many arguments, each with its own highest order,
and is the one place that decides between a row per argument and a table
per block of arguments, by what each costs in recurrence steps.

One truncation order, `truncation_order(x)`, cuts every infinite Bessel sum:
the estimator's Jacobi-Anger series and `weighted_column_sums`, which
theory's grids and `weighted_bessel_series` share.

Negative orders go through the reflection J_{-n} = (-1)^n J_n.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import _args

__all__ = [
    "MAX_ORDER",
    "TABLE_MIN_ARGUMENT",
    "bessel_j",
    "bessel_j_columns",
    "bessel_j_table",
    "truncation_order",
    "weighted_bessel_series",
    "weighted_column_sums",
]


# Largest order evaluated (and largest recurrence start, up to padding).
MAX_ORDER = 20000

# The downward recurrence starts 3 x^(1/3) + _MILLER_PAD orders above the
# highest order wanted, and never below truncation_order(x).
_MILLER_PAD = 22
_RESCALE_LIMIT = 1e250
# Smallest positive argument the recurrence takes: one step multiplies by up
# to 2 k / x, and that times _RESCALE_LIMIT must stay finite.
TABLE_MIN_ARGUMENT = 1e-50

# A block of arguments gets one bessel_j_table call when the per-argument
# work it replaces, counted in scalar recurrence steps (each row's
# _miller_start), is at least this many times the table's depth. Fitted: one
# table step over 2 to 8 columns took 1.9-4.7 us, and the whole per-point
# route 0.18-0.61 us per step counted so, for break-even ratios of 7 to 16
# at beta=2 and 9 to 19 at beta=1, for |tau| from 1 to 15,000 (2-vCPU Xeon,
# numpy 2.4.6).
_TABLE_STEP_COST = 12
# Most entries, orders times arguments, that one table holds: 512 KiB of
# float64, so a block's few table-sized arrays stay in a 2 MiB L2 cache and
# a table step costs about the same whatever the block's size.
_TABLE_ELEMENTS = 1 << 16


def _order(n, lowest=0):
    """n as an int in [lowest, MAX_ORDER], or ValueError."""
    return _args.count(n, "order", lowest, MAX_ORDER, f"max_order={MAX_ORDER}")


def truncation_order(x):
    """Order K at which every infinite Bessel sum at argument x is cut.

    The tail sum_{k>K} |J_k(x)| stays below 1e-19 for 0 <= x <= 20,000: past
    the turning point k = x the terms fall super-exponentially over a width
    of order x^(1/3). The estimator's Jacobi-Anger series and
    weighted_column_sums both stop at K.
    """
    return math.ceil(x) + math.ceil(12.5 * x ** (1.0 / 3.0)) + 10


def _miller_start(n_max, x):
    """Even starting order of the downward recurrence for J_0..J_n_max(x).

    Starting at truncation_order(x) or above, where J_k(x) is negligible,
    keeps every J_0..J_n_max(x) to a few 1e-16 absolute. A start only
    3 x^(1/3) + 22 orders above x would cost J_0..J_3 up to 6e-13 at x = 60
    and 4e-8 at x = 1000.
    """
    start = max(n_max + int(3.0 * x ** (1.0 / 3.0)) + _MILLER_PAD, truncation_order(x))
    start += start % 2  # even start keeps the normalization bookkeeping simple
    if start > MAX_ORDER + _MILLER_PAD + 2:
        raise ValueError(
            f"order {n_max} at argument {x} needs recurrence depth {start} "
            f"beyond max_order={MAX_ORDER}"
        )
    return start


def _catch_up(rows, behind):
    """Scale each stored value in place by the rescales it missed.

    behind (rows' shape) counts them. Scaling by 1e-250 once per missed
    rescale gives these bits: a stored value is below 1e305, so a third
    factor underflows to a zero of the value's sign.
    """
    np.multiply(rows, 1e-250, out=rows, where=behind >= 1)
    np.multiply(rows, 1e-250, out=rows, where=behind >= 2)
    np.multiply(rows, 0.0, out=rows, where=behind >= 3)


def _row_miller(n_max, x):
    """J_0..J_n_max by downward recurrence, normalized by the even-sum rule.

    A rescale scales only the running values; the entries stored before it
    catch up once at the end (_catch_up), as in bessel_j_table.
    """
    start = _miller_start(n_max, x)
    row = [0.0] * (n_max + 1)
    jp, jc = 0.0, 1e-30  # J_{k+1} and J_k at k = start (unnormalized)
    evens = 0.0  # J_0 + J_2 + J_4 + ... (unnormalized)
    missed = []  # per rescale, the lowest stored entry it did not scale
    limit, stored = _RESCALE_LIMIT, n_max + 1  # locals, for the loop's speed
    for k in range(start, 0, -1):
        jp, jc = jc, (2.0 * k / x) * jc - jp  # jc now holds J_{k-1}
        if k & 1:
            evens += jc
        if k <= stored:
            row[k - 1] = jc
        if jc > limit or jc < -limit:
            jc *= 1e-250
            jp *= 1e-250
            evens *= 1e-250
            if k <= stored:
                missed.append(k - 1)
    row = np.array(row)
    if missed:
        # entry j missed every rescale whose lowest missed entry is j or below
        rescales = np.zeros(n_max + 1, dtype=np.int16)
        rescales[missed] = 1
        _catch_up(row, np.cumsum(rescales, dtype=np.int16))
    # jc now holds J_0, so this is J_0 + 2 sum_{k>=1} J_2k
    return row / (2.0 * evens - jc)


def _leading_terms(n_max, x):
    """(x/2)^k / k! for 0 <= k <= n_max, one column per entry of the array x.

    Below TABLE_MIN_ARGUMENT the next term of the series is (x/2)^2 < 1e-100
    times smaller, so this is J_k(x) in double precision (and exact at
    x = 0). Entry k is entry k - 1 times (x/2)/k, multiplied in order.
    """
    factors = np.empty((n_max + 1, x.size))
    factors[0] = 1.0
    np.divide(0.5 * x, np.arange(1.0, n_max + 1.0)[:, None], out=factors[1:])
    return np.multiply.accumulate(factors, axis=0)


def _row(n_max, x):
    """J_0..J_n_max(x) for a validated order and argument."""
    if x >= TABLE_MIN_ARGUMENT:
        return _row_miller(n_max, x)
    return _leading_terms(n_max, np.array([x]))[:, 0]


def bessel_j(n, x):
    """J_n(x) for integer n (any sign) and real x >= 0.

    The order must be an int of magnitude at most MAX_ORDER. Measured against
    30-digit values: within 2.8e-16 absolute for 1e-3 <= x <= 40 and
    |n| <= 200, 2e-16 at x = 500 and 1.9e-16 for J_0..J_3 at x = 9000.
    """
    x = _args.real(x, "argument", nonnegative=True)
    n = _order(n, -MAX_ORDER)
    sign = -1.0 if (n < 0 and n % 2 != 0) else 1.0
    n = abs(n)
    return sign * float(_row(n, x)[n])


def bessel_j_table(n_max, xs):
    """Array J[k, p] = J_k(xs[p]) for 0 <= k <= n_max, shape (n_max + 1, len(xs)).

    One downward recurrence serves every argument: it starts above n_max and
    the largest x, and each column is normalized by the even-sum rule. The
    columns agree with 30-digit values to a few 1e-16 absolute for x <= 500.
    Every finite x >= 0 is taken: below TABLE_MIN_ARGUMENT a column is the
    leading term (x/2)^k / k! (_leading_terms), with the bits of _row, and
    stays out of the recurrence; x = 0 gives the exact [1, 0, ..., 0].

    The cost is linear in the recurrence depth times the number of
    arguments. When a column passes 1e250, only its running values (the two
    latest rows) are scaled by 1e-250; the rows stored before are scaled
    once at the end, by each factor they missed in turn, which gives the
    bits of scaling every stored row at every rescale. A row three or more
    rescales behind is 0. The overflow test itself runs only once a bound
    on the running values comes near the limit.
    """
    n_max, xs = _order(n_max), _args.reals(xs, "arguments", nonnegative=True)
    small = xs < TABLE_MIN_ARGUMENT
    table = np.empty((n_max + 1, xs.size))
    table[:, small] = _leading_terms(n_max, xs[small])
    if small.all():
        return table
    x = xs[~small]
    rows = np.zeros((n_max + 1, x.size))
    # rescaled[j, p]: column p was rescaled at the step that stored row j
    rescaled = np.zeros((n_max + 1, x.size), dtype=bool)
    jp = np.zeros(x.size)  # J_{k+1} (unnormalized)
    jc = np.full(x.size, 1e-30)  # J_k at k = start
    spare = np.empty(x.size)
    scratch = np.empty(x.size)
    norm = np.zeros(x.size)
    x_min = float(x.min())
    # bounds on max |jc| and max |jp|: no column needs the overflow test
    # while the bound on |jc| stays below half the limit
    bound_c, bound_p = 1e-30, 0.0
    measured_c = False  # bound_c is max |jc|, measured at the last step
    for k in range(_miller_start(n_max, float(x.max())), 0, -1):
        km = k - 1
        # from km = n_max down, J_km is computed in its row of the table, so
        # jc and jp are rows km and km + 1 and a rescale scales them in place
        jm = rows[km] if km <= n_max else spare
        np.divide(2.0 * k, x, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, spare = jc, jm, jp
        bound_c, bound_p = (2.0 * k / x_min) * bound_c + bound_p, bound_c
        if km > 0 and km % 2 == 0:
            np.multiply(jc, 2.0, out=scratch)
            norm += scratch
        measured_p, measured_c = measured_c, bound_c > 0.5 * _RESCALE_LIMIT
        if measured_c:
            bound_c = float(np.abs(jc, out=scratch).max())
            if bound_c > _RESCALE_LIMIT:
                big = scratch > _RESCALE_LIMIT
                scale = np.where(big, 1e-250, 1.0)
                jc *= scale
                jp *= scale
                norm *= scale
                if km <= n_max:
                    rescaled[km] = big
                bound_c = float(np.abs(jc).max())
            if not measured_p:  # else bound_p, the last step's max |jc|, bounds |jp|
                bound_p = float(np.abs(jp).max())
    # rows km + 2 and up were stored before a rescale at row km, and missed it
    behind = np.zeros(rows.shape, dtype=np.int16)
    np.cumsum(rescaled[:-2], axis=0, dtype=np.int16, out=behind[2:])
    _catch_up(rows, behind)
    norm += jc  # jc now holds unnormalized J_0
    table[:, ~small] = rows / norm
    return table


def _table_blocks(orders, xs):
    """([(block, its bessel_j_table), ...], the columns left for rows).

    The arguments are taken from the largest down, in blocks of at most
    _TABLE_ELEMENTS table entries. A block gets a table when the rows it
    replaces, each costed by its own depth _miller_start(orders[p], xs[p]),
    cost at least _TABLE_STEP_COST times the table's depth; otherwise its
    largest argument is left for a row.
    """
    x, ks = np.array(xs), np.array(orders, dtype=np.int64)
    by_x, rows = np.argsort(x, kind="stable"), []
    hi = by_x.size
    # done[i] - done[j]: the cost of the rows of by_x[j:i]. A row is at least
    # its order plus _MILLER_PAD deep, so these bounds serve until a block
    # does not pay by them; then each row's _miller_start replaces them.
    done, exact = np.cumsum(np.concatenate([[0], ks[by_x] + _MILLER_PAD])), False
    tables = []
    while hi >= _TABLE_STEP_COST:
        # the largest argument left and as many below it as a table holds
        # (its order bounds how many): top[i] is the highest order among
        # the i + 1 largest
        window = by_x[max(0, hi - _TABLE_ELEMENTS // (ks[by_x[hi - 1]] + 1)) : hi]
        top = np.maximum.accumulate(ks[window[::-1]])
        lo = hi - np.count_nonzero((top + 1) * np.arange(1, top.size + 1) <= _TABLE_ELEMENTS)
        n_max = int(top[hi - lo - 1])
        price = _TABLE_STEP_COST * _miller_start(n_max, xs[by_x[hi - 1]])
        if done[hi] - done[lo] < price and not exact:
            done, exact = np.cumsum([0] + [_miller_start(orders[p], xs[p]) for p in by_x.tolist()]), True
        if done[hi] - done[lo] < price:
            hi -= 1
            rows.append(int(by_x[hi]))
            continue
        block = by_x[lo:hi]
        tables.append((block, bessel_j_table(n_max, x[block])))
        hi = lo
    return tables, rows + by_x[:hi].tolist()


def bessel_j_columns(orders, xs):
    """Array J[k, p] = J_k(xs[p]) for k <= orders[p], shape (max(orders) + 1, P).

    Fortran order, so each column is contiguous. Each order must be an int
    in [0, MAX_ORDER] and each argument a finite real >= 0. _table_blocks
    decides which columns come from a table, with the bits of that
    bessel_j_table call and its further orders above orders[p]; the others
    have the bits of _row(orders[p], xs[p]) and zeros above. No row
    costs more than a table's depth, so fewer than _TABLE_STEP_COST
    arguments never make a table, and are not planned.
    """
    # one quick pass accepts the usual ints; _order takes every other input
    orders = list(orders)
    if not all(type(n) is int and 0 <= n <= MAX_ORDER for n in orders):
        orders = [_order(n) for n in orders]
    xs = _args.reals(list(xs), "argument", nonnegative=True).tolist()
    if len(orders) != len(xs):
        raise ValueError(f"got {len(orders)} orders for {len(xs)} arguments")
    parts, rows = [], range(len(xs))
    if len(xs) >= _TABLE_STEP_COST:
        parts, rows = _table_blocks(orders, xs)
    parts += [(p, _row(orders[p], xs[p])) for p in rows]
    # allocated last: a large array taken before the tables slows them
    out = np.zeros((len(xs), max(orders, default=-1) + 1)).T
    for columns, values in parts:
        out[: len(values), columns] = values
    return out


def _weight_values(weight, k, phi):
    if weight == "abs_k":
        return k.astype(float)
    if weight == "abs_k_cos_sq":
        return k * np.cos(phi * k) ** 2
    raise ValueError(f"unknown weight {weight!r}")


def weighted_column_sums(columns, orders, weight, phi=None):
    """Per column p, sum over all integer k of w(k) J_k(x_p)^2.

    Column p of columns holds J_0..J_K(x_p), K = orders[p], as
    bessel_j_columns returns them. Weights: "abs_k" -> |k| and
    "abs_k_cos_sq" -> |k| cos^2(phi_p k), phi holding one finite angle per
    column (theory's beta=1 series passes the polar angle theta of tau).
    Both are even in k and vanish at k = 0, so the sum is
    twice the sum over k >= 1. A run of consecutive columns (a stretch of a
    ray) is summed at once when their K share int(4 log2(max(K, 128))); each
    column then takes as many terms as the largest K of the run (past its
    own K, zeros or a table's further J_k, below 1e-19). So no sum takes
    more than 128 or 2^(1/4) times its own terms, and a single column's sum
    takes exactly its own.
    """
    if phi is not None:
        phi = _args.reals(phi, "phi")
    elif weight == "abs_k_cos_sq":
        raise ValueError("weight 'abs_k_cos_sq' requires phi")
    sums = np.empty(len(orders))
    lo = 0
    for _, run in itertools.groupby(orders, lambda order: int(4.0 * math.log2(max(order, 128)))):
        run = list(run)
        hi, top = lo + len(run), max(run)
        angles = None if phi is None else phi[lo:hi, None]
        weights = _weight_values(weight, np.arange(1, top + 1), angles)
        sums[lo:hi] = 2.0 * np.add.reduce(weights * columns[1 : top + 1, lo:hi].T ** 2, axis=-1)
        lo = hi
    return sums


def weighted_bessel_series(x, weight, phi=None):
    """sum over all integer k of w(k) J_k(x)^2: weighted_column_sums at one argument.

    Its one column is J_0..J_K(x) from bessel_j_columns, K = truncation_order(x);
    phi, which "abs_k_cos_sq" requires, is one finite real. Past the turning
    point J_k^2 decays super-exponentially, and |k|-type weights grow at most
    linearly, so the dropped tail is below 1e-29.
    """
    x = _args.real(x, "argument", nonnegative=True)
    order = truncation_order(x)
    phi = None if phi is None else [_args.real(phi, "phi")]
    return float(weighted_column_sums(bessel_j_columns([order], [x]), [order], weight, phi)[0])
