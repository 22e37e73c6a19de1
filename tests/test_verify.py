import pytest

from dsff_lab.verify import SUITES, run_suites

# Every suite's checks, in order, each with its tolerance. A change that
# drops, renames or reorders a check, or moves a tolerance, has to change this
# list too. Two tolerances are computed by their checks: the midramp one is
# |tau|^2 / 2N at |tau| = 9, N = 4096, and the bias check's is five standard
# errors of its own seeded draws.
CHECKS = {
    "bessel": [
        ("reflection_negative_order", 0.0),
        ("even_order_sum_rule", 1e-10),
        ("bessel_integral", 1e-12),
        ("squared_sum_unity", 1e-10),
        ("k_squared_sum_relative", 1e-08),
        ("abs_k_sum_upper_bound", 1e-12),
        ("abs_k_sum_closed_form", 1e-12),
        ("graf_addition", 1e-09),
        ("derivative_identity_l1", 1e-06),
        ("asymptotic_envelope_x200", 0.0),
    ],
    "quadrature": [
        ("weight_sum_pi", 1e-12),
        ("plane_wave_disk_integral", 1e-08),
        ("radially_weighted_integral", 1e-08),
        ("laplacian_consistency", 1e-08),
        ("gradient_norm_ramp", 1e-10),
        ("symmetrized_gradient_ramp", 1e-08),
        ("boundary_average_j0", 1e-10),
        ("boundary_fourier_mode", 1e-10),
        ("chord_integral_j0_half", 1e-10),
        ("real_axis_zero_at_s0", 0.0),
        ("real_axis_small_s", 1e-09),
        ("real_axis_two_grid", 1e-10),
        ("real_axis_reference_value", 1e-10),
        ("real_axis_sign_symmetry", 1e-14),
        ("real_axis_imaginary_cancels", 1e-10),
        ("real_axis_even_part_match", 1e-09),
        ("real_axis_line_vs_grid", 1e-11),
        ("asymmetric_grid_rejected", 0.0),
    ],
    "theory": [
        ("rotation_invariance_complex", 1e-12),
        ("reflection_invariance_real", 1e-12),
        ("real_boundary_term_definition", 1e-12),
        ("kappa4_coefficient_dual_route", 1e-08),
        ("variance_nonnegative", 1e-12),
        ("theory_grid_matches_pointwise", 1e-12),
        ("expectation_tau0_equals_n", 1e-12),
        ("dsff_tau0_unity", 1e-12),
        ("simplified_tracks_full_5pct", 0.05),
        ("simplified_gap_shrinks_with_n", 0.0),
        ("ginibre_small_ramp", 1e-09),
        ("ginibre_plateau", 1e-06),
        ("series_vs_exact_model_midramp", 9.0**2 / (2 * 4096)),
        ("timescales_1024", 1e-12),
    ],
    "estimator": [
        ("brute_force_double_sum", 1e-12),
        ("moment_identity", 1e-12),
        ("decomposition_recombines", 1e-12),
        ("tau_zero_exact", 0.0),
        ("eigenvalue_permutation", 1e-12),
        ("conjugation_covariance", 1e-12),
        ("disconnected_unbiased_synthetic", 2.3121575301214903),
        ("single_sample_flags_nan", 0.0),
        ("ray_route_matches_pointwise", 1e-12),
    ],
}


@pytest.fixture(scope="module")
def report():
    return run_suites()


def test_check_names_are_pinned(report):
    assert list(SUITES) == list(CHECKS)
    for suite, checks in CHECKS.items():
        assert [c["name"] for c in report["suites"][suite]] == [name for name, _ in checks]
    assert sum(map(len, CHECKS.values())) == 51


def test_check_tolerances_are_pinned(report):
    for suite, checks in CHECKS.items():
        got = [(c["name"], c["tolerance"]) for c in report["suites"][suite]]
        assert got == checks


def test_synthetic_bias_check_keeps_its_draws(report):
    # the value depends on the order in which the normals are drawn
    (check,) = [c for c in report["suites"]["estimator"] if c["name"] == "disconnected_unbiased_synthetic"]
    assert check["value"] == 0.9855440069047976

