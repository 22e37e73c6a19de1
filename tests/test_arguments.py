"""One argument contract for the library, checked by one table.

Every public function of bessel, theory, quadrature, ensembles, spectra and
estimator that takes a number or a complex-time point is crossed with one
shared list of bad values per kind of argument. Each case must raise
ValueError whose message names the argument and says what was wrong. A
coverage test fails when a public parameter has neither a row nor a
one-line exemption.
"""
import inspect
import math

import numpy as np
import pytest

from dsff_lab import bessel, ensembles, estimator, quadrature, spectra, theory
from dsff_lab.bessel import (
    MAX_ORDER,
    bessel_j,
    bessel_j_columns,
    bessel_j_row,
    bessel_j_table,
    weighted_bessel_series,
    weighted_column_sums,
)
from dsff_lab.ensembles import EnsembleSpec, sample_matrix
from dsff_lab.estimator import build_tau_grid, dsff_grid, dsff_point, estimate_from_linear_stats
from dsff_lab.quadrature import (
    disk_grid,
    plane_wave_row_sums,
    quarter_circle_rule,
    real_axis_correction_integral,
    real_axis_correction_line,
)
from dsff_lab.spectra import SpectrumSet, sample_spectra, save_spectra, solver_processes
from dsff_lab.theory import (
    ComplexTime,
    dsff_theory,
    dsff_theory_grid,
    ginibre_exact_dsff,
    ginibre_exact_dsff_grid,
    timescales,
)

MODULES = (bessel, theory, quadrature, ensembles, spectra, estimator)

# Each bad value with a phrase its message must hold besides the argument's
# name: what kind of value it was, or why it was refused.
BAD_REAL = {
    "bool": (True, "bool"),
    "false": (False, "bool"),
    "np_bool": (np.bool_(True), "bool"),
    "np_false": (np.bool_(False), "bool"),
    "complex": (1j, "complex"),
    "np_complex": (np.complex128(1.0), "complex"),
    "str": ("1.0", "real numbers"),
    "none": (None, "real numbers"),
    "list": ([1.0], "real numbers"),
    "nan": (math.nan, "finite"),
    "inf": (-math.inf, "finite"),
    "np_inf": (np.float32(math.inf), "finite"),
    "huge": (10**400, "finite"),
    "huge_negative": (-(10**400), "finite"),
    "huger": (10**5000, "finite"),
    "huger_negative": (-(10**5000), "finite"),
}
BAD_INDEX = {
    "bool": (True, "bool"),
    "false": (False, "bool"),
    "np_bool": (np.bool_(True), "bool"),
    "np_false": (np.bool_(False), "bool"),
    "complex": (1j, "complex"),
    "str": ("2", "str"),
    "none": (None, "None"),
    "float": (2.5, "float"),
    "int_float": (2.0, "float"),
    "np_float": (np.float64(2.0), "float"),
    "nan": (math.nan, "nan"),
    "huge": (10**400, "bits"),
    "negative": (-3, "-3"),
}
BAD_COUNT = {**BAD_INDEX, "zero": (0, "positive integer")}
BAD_ORDER = {**BAD_INDEX, "beyond": (MAX_ORDER + 1, "max_order")}
BAD_SIGNED_ORDER = {**{k: v for k, v in BAD_ORDER.items() if k != "negative"},
                    "below": (-MAX_ORDER - 1, "max_order")}
BAD_BETA = {**BAD_COUNT, "three": (3, "at most 2")}
BAD_POINT = {
    "pair": ((1.0, 2.0), "ComplexTime"),
    "float": (1.0, "ComplexTime"),
    "none": (None, "ComplexTime"),
    "complex": (1j, "ComplexTime"),
}
# for arguments that take many reals at once
BAD_REALS = {
    "bool": ([True], "bool"),
    "float_and_bool": ([1.0, False], "bool"),
    "np_bool": ([np.bool_(True)], "bool"),
    "bool_array": (np.array([True]), "bool"),
    "complex": ([1j], "complex"),
    "float_and_complex": ([2.0, 1.0 + 0j], "complex"),
    "complex_array": (np.array([1.0 + 0j]), "complex"),
    "object_array": (np.array([2.0, True], dtype=object), "bool"),
    "str": (["1.0"], "real numbers"),
    "nan": ([1.0, math.nan], "finite"),
    "inf_array": (np.array([1.0, np.inf]), "finite"),
    "huge": ([10**400], "finite"),
    "huge_second": ([2.0, 10**400], "finite"),
    "huger": ([10**5000], "finite"),
    "huger_second": ([2.0, 10**5000], "finite"),
}
# a real that is one element of a list, and an optional real (None is no value)
BAD_REAL_ITEM = {k: v for k, v in BAD_REAL.items() if k != "list"}
BAD_PHI = {k: v for k, v in BAD_REAL.items() if k != "none"}
# the real-axis line takes a real or a 1-D array of reals for each of t and s
BAD_REAL_OR_REALS = {
    **BAD_REAL_ITEM,
    **{f"array_{k}": v for k, v in BAD_REALS.items()},
    "bool_pair": (np.array([True, False]), "bool"),
    "false_array": (np.array([False]), "bool"),
}
# (t, s) pairs past the line rule's reach, whose panel count no int64 holds or
# whose nodes no memory does
BAD_LINE_REACH = {
    "reach_1e300": ((1e300, 1.0), "at most"),
    "reach_1e12": ((1e12, 0.0), "at most"),
}

SPEC = EnsembleSpec("real", "gaussian", 4)
SSET = SpectrumSet(spec=SPEC, master_seed=0, eigenvalues=np.array([[0.5, -0.5j, 0.2 + 0.1j, -0.3]]))
TAU = ComplexTime(1.0, 0.5)
GRID = disk_grid(8, 8)

# (function, argument, call with the bad value, bad values, phrase naming the argument)
ROWS = [
    ("bessel_j", "n", lambda v: bessel_j(v, 2.0), BAD_SIGNED_ORDER, "order"),
    ("bessel_j", "x", lambda v: bessel_j(0, v), BAD_REAL, "argument"),
    ("bessel_j_row", "n_max", lambda v: bessel_j_row(v, 2.0), BAD_ORDER, "order"),
    ("bessel_j_row", "x", lambda v: bessel_j_row(3, v), BAD_REAL, "argument"),
    ("bessel_j_table", "n_max", lambda v: bessel_j_table(v, [2.0]), BAD_ORDER, "order"),
    ("bessel_j_table", "xs", lambda v: bessel_j_table(2, v), BAD_REALS,
     "arguments must hold finite nonnegative reals"),
    ("bessel_j_columns", "orders", lambda v: bessel_j_columns([v], [1.0]), BAD_ORDER, "order"),
    ("bessel_j_columns", "xs", lambda v: bessel_j_columns([2], [v]), BAD_REAL_ITEM, "argument"),
    ("weighted_bessel_series", "x", lambda v: weighted_bessel_series(v, "abs_k"), BAD_REAL, "argument"),
    ("weighted_bessel_series", "phi",
     lambda v: weighted_bessel_series(2.0, "abs_k_cos_sq", v), BAD_PHI, "phi"),
    ("weighted_column_sums", "phi",
     lambda v: weighted_column_sums(np.zeros((3, 1)), [2], "abs_k_cos_sq", v), BAD_REALS, "phi"),
    ("ComplexTime", "t", lambda v: ComplexTime(v, 0.0), BAD_REAL, "t must"),
    ("ComplexTime", "s", lambda v: ComplexTime(0.0, v), BAD_REAL, "s must"),
    ("ComplexTime.from_polar", "abs_tau", lambda v: ComplexTime.from_polar(v, 0.3), BAD_REAL, "abs_tau"),
    ("ComplexTime.from_polar", "theta", lambda v: ComplexTime.from_polar(1.0, v), BAD_REAL, "theta"),
    ("dsff_theory", "tau", lambda v: dsff_theory(v, 16), BAD_POINT, "taus"),
    ("dsff_theory", "n", lambda v: dsff_theory(TAU, v), BAD_COUNT, "n must"),
    ("dsff_theory", "beta", lambda v: dsff_theory(TAU, 16, beta=v), BAD_BETA, "beta must"),
    ("dsff_theory", "kappa4", lambda v: dsff_theory(TAU, 16, kappa4=v), BAD_REAL, "kappa4 must"),
    ("dsff_theory_grid", "taus", lambda v: dsff_theory_grid([TAU, v], 16), BAD_POINT, "taus"),
    ("dsff_theory_grid", "n", lambda v: dsff_theory_grid([TAU], v), BAD_COUNT, "n must"),
    ("dsff_theory_grid", "beta", lambda v: dsff_theory_grid([TAU], 16, beta=v), BAD_BETA, "beta must"),
    ("dsff_theory_grid", "kappa4", lambda v: dsff_theory_grid([TAU], 16, kappa4=v), BAD_REAL, "kappa4 must"),
    ("ginibre_exact_dsff", "tau", lambda v: ginibre_exact_dsff(v, 16), BAD_POINT, "taus"),
    ("ginibre_exact_dsff", "n", lambda v: ginibre_exact_dsff(TAU, v), BAD_COUNT, "n must"),
    ("ginibre_exact_dsff_grid", "taus", lambda v: ginibre_exact_dsff_grid([v], 16), BAD_POINT, "taus"),
    ("ginibre_exact_dsff_grid", "n", lambda v: ginibre_exact_dsff_grid([TAU], v), BAD_COUNT, "n must"),
    ("timescales", "n", lambda v: timescales(v), BAD_COUNT, "n must"),
    ("disk_grid", "radial_nodes", lambda v: disk_grid(v, 8), BAD_COUNT, "radial_nodes"),
    ("disk_grid", "angular_nodes", lambda v: disk_grid(8, v), BAD_COUNT, "angular_nodes"),
    ("quarter_circle_rule", "panels", lambda v: quarter_circle_rule(v), BAD_COUNT, "panels"),
    ("plane_wave_row_sums", "t", lambda v: plane_wave_row_sums(GRID, v, 1.0), BAD_REAL, "t must"),
    ("plane_wave_row_sums", "s", lambda v: plane_wave_row_sums(GRID, 1.0, v), BAD_REAL, "s must"),
    ("real_axis_correction_integral", "t",
     lambda v: real_axis_correction_integral(v, 1.0, GRID), BAD_REAL, "t must"),
    ("real_axis_correction_integral", "s",
     lambda v: real_axis_correction_integral(1.0, v, GRID), BAD_REAL, "s must"),
    ("real_axis_correction_line", "t",
     lambda v: real_axis_correction_line(v, 0.7), BAD_REAL_OR_REALS, "t and s"),
    ("real_axis_correction_line", "s",
     lambda v: real_axis_correction_line(1.5, v), BAD_REAL_OR_REALS, "t and s"),
    ("real_axis_correction_line", "t",
     lambda ts: real_axis_correction_line(*ts), BAD_LINE_REACH, "t and s"),
    ("EnsembleSpec", "n", lambda v: EnsembleSpec("real", "gaussian", v), BAD_COUNT, "n must"),
    ("sample_matrix", "master_seed", lambda v: sample_matrix(SPEC, v, 0), BAD_INDEX, "master_seed"),
    ("sample_matrix", "sample_index", lambda v: sample_matrix(SPEC, 3, v), BAD_INDEX, "sample_index"),
    ("SpectrumSet", "master_seed",
     lambda v: SpectrumSet(spec=SPEC, master_seed=v, eigenvalues=SSET.eigenvalues), BAD_INDEX, "master_seed"),
    ("sample_spectra", "m", lambda v: sample_spectra(SPEC, v, 3), BAD_COUNT, "m must"),
    ("sample_spectra", "master_seed", lambda v: sample_spectra(SPEC, 2, v), BAD_INDEX, "master_seed"),
    ("sample_spectra", "parallelism",
     lambda v: sample_spectra(SPEC, 2, 3, parallelism=v), BAD_COUNT, "parallelism"),
    ("solver_processes", "m", lambda v: solver_processes(v, 2), BAD_COUNT, "m must"),
    ("solver_processes", "parallelism", lambda v: solver_processes(4, v), BAD_COUNT, "parallelism"),
    ("estimate_from_linear_stats", "n",
     lambda v: estimate_from_linear_stats(np.ones(3), v, TAU), BAD_COUNT, "n must"),
    ("estimate_from_linear_stats", "tau",
     lambda v: estimate_from_linear_stats(np.ones(3), 4, v), BAD_POINT, "taus"),
    ("dsff_point", "tau", lambda v: dsff_point(SSET, v), BAD_POINT, "taus"),
    ("dsff_grid", "taus", lambda v: dsff_grid(SSET, [TAU, v]), BAD_POINT, "taus"),
    ("build_tau_grid", "theta", lambda v: build_tau_grid(v, 0.1, 2.0, 3), BAD_REAL, "theta"),
    ("build_tau_grid", "tau_min", lambda v: build_tau_grid(0.0, v, 2.0, 3), BAD_REAL, "tau_min"),
    ("build_tau_grid", "tau_max", lambda v: build_tau_grid(0.0, 0.1, v, 3), BAD_REAL, "tau_max"),
    ("build_tau_grid", "points", lambda v: build_tau_grid(0.0, 0.1, 2.0, v), BAD_COUNT, "points"),
]

# Public names that take no row, each with the reason.
EXEMPT = {
    "truncation_order": "an inner step of every Bessel sum; its callers coerce the argument first",
    "weighted_column_sums.orders": "the orders of `columns`, which bessel_j_columns took in",
    "TheoryPrediction": "a result record, built by theory from coerced values",
    "Timescales": "a result record, built by timescales from a coerced n",
    "DiskGrid": "a result record, built by disk_grid from coerced node counts",
    "MatrixSample": "a result record, built by sample_matrix from a coerced seed and index",
    "DsffEstimate": "a result record, built by the estimator from coerced values",
    "EigensolverError": "an error record that carries the index of the failing sample",
}
# Parameters that hold no number or point: a set, a spec, a grid, a callable, a
# name, an array of data or a path.
NOT_NUMBERS = {"sset", "spec", "grid", "f", "integrand", "weight", "stats", "path", "matrix", "columns",
               "spacing", "field", "distribution", "eigenvalues"}


def _cases():
    for function, arg, call, bad, phrase in ROWS:
        for key, (value, kind) in bad.items():
            yield pytest.param(call, value, phrase, kind, id=f"{function}-{arg}-{key}")


@pytest.mark.parametrize("call, value, phrase, kind", _cases())
def test_bad_arguments_are_refused(call, value, phrase, kind):
    with pytest.raises(ValueError, match=phrase) as err:
        call(value)
    assert kind in str(err.value)


def _public_parameters():
    """{public callable: its parameter names}, from the __all__ of every module of the contract."""
    public = {"ComplexTime.from_polar": ComplexTime.from_polar}
    public.update((name, getattr(module, name)) for module in MODULES for name in module.__all__)
    params = {}
    for name, obj in public.items():
        try:
            params[name] = list(inspect.signature(obj).parameters)
        except (TypeError, ValueError):  # a constant, or an exception class without an __init__
            pass
    return params


def test_every_public_numeric_parameter_has_a_row_or_an_exemption():
    params = _public_parameters()
    covered = {f"{function}.{arg}" for function, arg, *_ in ROWS} | NOT_NUMBERS
    missing = [f"{name}.{arg}" for name, args in params.items() if name not in EXEMPT for arg in args
               if f"{name}.{arg}" not in covered | set(EXEMPT) and arg not in NOT_NUMBERS]
    assert missing == []
    known = set(params) | {f"{name}.{arg}" for name, args in params.items() for arg in args}
    assert set(EXEMPT) <= known


def test_a_grid_that_is_no_sequence_is_refused():
    calls = (lambda: dsff_grid(SSET, TAU), lambda: dsff_theory_grid(1.0, 16))
    for call in calls:
        with pytest.raises(ValueError, match="sequence of ComplexTime"):
            call()


def test_numpy_numbers_are_accepted_as_python_numbers():
    tau = ComplexTime(np.float32(2.0), np.int64(1))
    assert (type(tau.t), type(tau.s)) == (float, float) and tau == ComplexTime(2.0, 1.0)
    polar = ComplexTime.from_polar(np.float64(2.0), np.float32(0.5))
    assert polar == ComplexTime.from_polar(2.0, float(np.float32(0.5)))
    assert type(bessel_j(np.int64(1), np.float64(2.0))) is float
    assert bessel_j(np.int64(1), np.float64(2.0)) == bessel_j(1, 2.0)
    columns = bessel_j_columns([np.int64(1)], [np.float32(2.0)])
    np.testing.assert_array_equal(columns, bessel_j_columns([1], [2.0]))
    assert build_tau_grid(np.float64(0.3), np.float32(0.5), np.int64(2), np.int64(3)) == build_tau_grid(
        0.3, float(np.float32(0.5)), 2.0, 3
    )
    assert disk_grid(np.int64(8), np.uint8(8)) is GRID
    assert quarter_circle_rule(np.int32(1)) is quarter_circle_rule(1)
    assert solver_processes(np.int64(3), np.int64(1)) == 1
    sample = sample_matrix(SPEC, np.uint64(3), np.int64(1))
    assert (type(sample.master_seed), type(sample.sample_index)) == (int, int)
    est = estimate_from_linear_stats(np.ones(3), np.int64(4), TAU)
    assert est == estimate_from_linear_stats(np.ones(3), 4, TAU)
    assert timescales(np.uint16(16)) == timescales(16)


def test_numpy_seed_n_and_m_give_the_cache_bytes_of_python_ints(tmp_path):
    python_path, numpy_path = str(tmp_path / "python.bin"), str(tmp_path / "numpy.bin")
    save_spectra(sample_spectra(EnsembleSpec("complex", "gaussian", 6), 3, 11), python_path)
    spec = EnsembleSpec("complex", "gaussian", np.int64(6))
    save_spectra(sample_spectra(spec, np.int32(3), np.uint64(11), parallelism=np.int64(1)), numpy_path)
    with open(python_path, "rb") as a, open(numpy_path, "rb") as b:
        assert a.read() == b.read()
