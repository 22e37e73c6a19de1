import json
import math

import numpy as np
import pytest

from dsff_lab.ensembles import DISTRIBUTIONS, FIELDS, EnsembleSpec, sample_matrix

# fourth cumulant of the normalized entry law, per (field, distribution)
KAPPA4_TABLE = {
    ("real", "gaussian"): 0.0,
    ("real", "rademacher"): -2.0,
    ("real", "uniform"): -1.2,
    ("complex", "gaussian"): 0.0,
    ("complex", "rademacher"): -1.0,
    ("complex", "uniform"): -0.6,
}


def test_kappa4_table():
    for (field, dist), want in KAPPA4_TABLE.items():
        spec = EnsembleSpec(field=field, distribution=dist, n=8)
        assert spec.kappa4 == pytest.approx(want, abs=1e-15)


def test_beta_property():
    assert EnsembleSpec(field="real", distribution="gaussian", n=4).beta == 1
    assert EnsembleSpec(field="complex", distribution="gaussian", n=4).beta == 2


def test_spec_rejects_bool_n():
    # bool is an int subclass; a cache header reading "n": true must not pass
    with pytest.raises(ValueError, match="positive integer"):
        EnsembleSpec("complex", "gaussian", True)


def test_spec_validation():
    with pytest.raises(ValueError, match="field"):
        EnsembleSpec(field="quaternion", distribution="gaussian", n=4)
    with pytest.raises(ValueError, match="distribution"):
        EnsembleSpec(field="real", distribution="cauchy", n=4)
    with pytest.raises(ValueError, match="n must"):
        EnsembleSpec(field="real", distribution="gaussian", n=0)


def test_canonical_json_is_stable():
    spec = EnsembleSpec(field="real", distribution="uniform", n=16)
    want = '{"distribution":"uniform","field":"real","kappa4":-1.2,"n":16}'
    assert spec.canonical_json() == want


def test_from_json_obj_roundtrip():
    for field in FIELDS:
        for dist in DISTRIBUTIONS:
            spec = EnsembleSpec(field=field, distribution=dist, n=12)
            again = EnsembleSpec.from_json_obj(json.loads(spec.canonical_json()))
            assert again == spec


def test_from_json_obj_rejects_wrong_kappa4():
    obj = json.loads(EnsembleSpec(field="real", distribution="rademacher", n=4).canonical_json())
    obj["kappa4"] = 0.5
    with pytest.raises(ValueError, match="kappa4"):
        EnsembleSpec.from_json_obj(obj)


def test_sample_matrix_deterministic():
    spec = EnsembleSpec(field="complex", distribution="gaussian", n=24)
    a = sample_matrix(spec, 99, 3)
    b = sample_matrix(spec, 99, 3)
    assert np.array_equal(a.entries, b.entries)
    assert a.sample_index == 3 and a.master_seed == 99


def test_sample_matrix_streams_are_distinct():
    spec = EnsembleSpec(field="real", distribution="gaussian", n=24)
    a = sample_matrix(spec, 99, 0).entries
    b = sample_matrix(spec, 99, 1).entries
    c = sample_matrix(spec, 100, 0).entries
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_validation():
    spec = EnsembleSpec(field="real", distribution="gaussian", n=4)
    with pytest.raises(ValueError, match="master_seed"):
        sample_matrix(spec, -1, 0)
    with pytest.raises(ValueError, match="master_seed"):
        sample_matrix(spec, 2**64, 0)


def test_entry_scaling_unit_total_variance():
    # entries are scaled by N^{-1/2}, so sum of |a_ij|^2 concentrates at N
    rng_checks = []
    for field in FIELDS:
        spec = EnsembleSpec(field=field, distribution="gaussian", n=64)
        total = sum(
            float(np.sum(np.abs(sample_matrix(spec, 5, i).entries) ** 2)) for i in range(20)
        ) / 20.0
        rng_checks.append(abs(total / 64.0 - 1.0))
    assert max(rng_checks) < 0.02


def test_rademacher_entries_exact():
    spec = EnsembleSpec(field="real", distribution="rademacher", n=16)
    entries = sample_matrix(spec, 1, 0).entries
    assert np.all(np.isin(entries * 4.0, (-1.0, 1.0)))  # 1/sqrt(16) = 1/4

    cspec = EnsembleSpec(field="complex", distribution="rademacher", n=16)
    centries = sample_matrix(cspec, 1, 0).entries
    # re and im each live on +-1/sqrt(2N)
    scale = math.sqrt(32.0)
    assert np.allclose(np.abs(centries.real * scale), 1.0, atol=1e-12)
    assert np.allclose(np.abs(centries.imag * scale), 1.0, atol=1e-12)


def test_uniform_entries_bounded():
    spec = EnsembleSpec(field="real", distribution="uniform", n=25)
    entries = sample_matrix(spec, 2, 0).entries
    bound = math.sqrt(3.0) / 5.0
    assert np.max(np.abs(entries)) <= bound * (1.0 + 1e-12)
    # not all in a narrower band (distinguishes from rademacher/gaussian)
    assert np.min(np.abs(entries)) < 0.5 * bound


def test_complex_entries_have_balanced_components():
    spec = EnsembleSpec(field="complex", distribution="uniform", n=64)
    entries = sample_matrix(spec, 7, 0).entries
    re_var = float(np.var(entries.real))
    im_var = float(np.var(entries.imag))
    assert re_var == pytest.approx(im_var, rel=0.1, abs=0.0)
    assert re_var + im_var == pytest.approx(1.0 / 64.0, rel=0.1, abs=0.0)
