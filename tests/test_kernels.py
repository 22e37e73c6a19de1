import numpy as np

from dsff_lab import kernels


def _random_parts(m, n, seed):
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((m, n))
    im = rng.standard_normal((m, n))
    return np.ascontiguousarray(re), np.ascontiguousarray(im)


def _direct_formula(re, im, t, s):
    """Reference route: complex exponentials summed per sample."""
    return np.exp(1j * (t * re + s * im)).sum(axis=1)


def test_numpy_kernel_matches_direct_formula():
    re, im = _random_parts(5, 12, 0)
    t, s = 1.3, -0.4
    got = kernels.linear_stat_sums(re, im, t, s)
    assert got.shape == (5,)
    assert got.dtype == np.complex128
    assert np.allclose(got, _direct_formula(re, im, t, s), rtol=0, atol=1e-12)


def test_active_kernel_matches_numpy_reference():
    re, im = _random_parts(8, 40, 1)
    for t, s in ((0.0, 0.0), (2.0, 0.0), (1.1, -3.3), (-25.0, 17.5)):
        a = kernels.linear_stat_sums(re, im, t, s)
        b = _direct_formula(re, im, t, s)
        assert np.allclose(a, b, rtol=0, atol=1e-10)


def test_zero_time_sums_to_n():
    re, im = _random_parts(4, 17, 3)
    out = kernels.linear_stat_sums(re, im, 0.0, 0.0)
    assert np.array_equal(out, np.full(4, 17.0 + 0.0j))


def test_magnitude_bounded_by_n():
    re, im = _random_parts(6, 50, 4)
    out = kernels.linear_stat_sums(re, im, 3.7, 1.9)
    assert np.all(np.abs(out) <= 50.0 + 1e-9)
