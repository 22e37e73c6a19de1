"""dsff-lab: dissipative spectral form factor of i.i.d. random matrices.

Analytic predictions (expectation and variance of the plane-wave linear
statistic, from Bessel series or the exact-gaussian asymptotic, as one
prediction type), Monte Carlo matrix ensembles with counter-based
reproducible sampling, an unbiased DSFF estimator with
contact/disconnected/connected decomposition, and a CLI (``dsff-lab``)
tying them together.
"""
from .ensembles import EnsembleSpec, MatrixSample, sample_matrix
from .estimator import DsffEstimate, build_tau_grid, dsff_grid, dsff_point
from .spectra import SpectrumSet, eigenvalues, load_spectra, sample_spectra, save_spectra
from .theory import (
    ComplexTime,
    TheoryPrediction,
    Timescales,
    dsff_theory,
    ginibre_exact_dsff,
    timescales,
)

__version__ = "0.1.0"
SCHEMA = "dsff-lab v1"
