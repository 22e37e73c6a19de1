"""dsff-lab: dissipative spectral form factor of i.i.d. random matrices.

Analytic predictions (Bessel-series expectation/variance of the plane-wave
linear statistic, simplified and exact-gaussian forms), Monte Carlo matrix
ensembles with counter-based reproducible sampling, an unbiased DSFF
estimator with contact/disconnected/connected decomposition, and a CLI
(``dsff-lab``) tying them together.
"""
from .bessel import bessel_j, bessel_j_row, weighted_bessel_series
from .ensembles import EnsembleSpec, MatrixSample, sample_matrix
from .estimator import DsffEstimate, build_tau_grid, dsff_grid, dsff_point
from .quadrature import (
    DiskGrid,
    boundary_average,
    chord_integral,
    disk_grid,
    disk_integral,
    real_axis_correction_integral,
)
from .spectra import SpectrumSet, eigenvalues, load_spectra, sample_spectra, save_spectra
from .theory import (
    ComplexTime,
    GinibreDsff,
    TheoryPrediction,
    Timescales,
    dsff_simplified,
    dsff_theory,
    expectation_linear_stat,
    ginibre_exact_dsff,
    timescales,
    variance_linear_stat,
)

__version__ = "0.1.0"
SCHEMA = "dsff-lab v1"
