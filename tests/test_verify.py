import pytest

from dsff_lab.verify import SUITES, run_suites

# Every suite's checks, in order. A change that drops, renames or reorders a
# check has to change this list too.
CHECK_NAMES = {
    "bessel": [
        "reflection_negative_order",
        "even_order_sum_rule",
        "bessel_integral",
        "squared_sum_unity",
        "k_squared_sum_relative",
        "abs_k_sum_upper_bound",
        "graf_addition",
        "derivative_identity_l1",
        "asymptotic_envelope_x200",
    ],
    "quadrature": [
        "weight_sum_pi",
        "plane_wave_disk_integral",
        "radially_weighted_integral",
        "laplacian_consistency",
        "gradient_norm_ramp",
        "symmetrized_gradient_ramp",
        "boundary_average_j0",
        "boundary_fourier_mode",
        "chord_integral_j0_half",
        "real_axis_zero_at_s0",
        "real_axis_small_s",
        "real_axis_two_grid",
        "real_axis_reference_value",
        "real_axis_sign_symmetry",
        "real_axis_imaginary_cancels",
        "real_axis_even_part_match",
        "real_axis_line_vs_grid",
        "asymmetric_grid_rejected",
    ],
    "theory": [
        "rotation_invariance_complex",
        "reflection_invariance_real",
        "kappa4_coefficient_dual_route",
        "variance_nonnegative",
        "expectation_tau0_equals_n",
        "dsff_tau0_unity",
        "simplified_tracks_full_5pct",
        "simplified_gap_shrinks_with_n",
        "ginibre_small_ramp",
        "ginibre_plateau",
        "series_vs_exact_model_midramp",
        "timescales_1024",
    ],
    "estimator": [
        "brute_force_double_sum",
        "moment_identity",
        "decomposition_recombines",
        "tau_zero_exact",
        "eigenvalue_permutation",
        "conjugation_covariance",
        "disconnected_unbiased_synthetic",
        "single_sample_flags_nan",
        "ray_route_matches_pointwise",
    ],
}


@pytest.fixture(scope="module")
def report():
    return run_suites()


def test_check_names_are_pinned(report):
    assert list(SUITES) == list(CHECK_NAMES)
    for suite, names in CHECK_NAMES.items():
        assert [c["name"] for c in report["suites"][suite]] == names
    assert sum(map(len, CHECK_NAMES.values())) == 48


def test_synthetic_bias_check_keeps_its_draws(report):
    # the value depends on the order in which the normals are drawn
    (check,) = [c for c in report["suites"]["estimator"] if c["name"] == "disconnected_unbiased_synthetic"]
    assert check["value"] == 0.9855440069047976

