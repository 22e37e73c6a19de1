"""Shared fixtures: a disk-backed spectrum cache and acceptance reporting.

Sampled spectra are expensive (dense eigendecompositions), so sets used by
the acceptance tests are stored under tests/.cache keyed by their full
configuration. A cache hit loads byte-identical data through the public
loader; a miss samples once and saves. Delete the directory to force
resampling.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from dsff_lab import bessel
from dsff_lab.ensembles import EnsembleSpec
from dsff_lab.spectra import _usable_cpus, load_spectra, sample_spectra, save_spectra

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

ACCEPTANCE_LINES = []


def cached_spectra(field, distribution, n, m, master_seed):
    spec = EnsembleSpec(field=field, distribution=distribution, n=n)
    path = CACHE_DIR / f"{field}-{distribution}-n{n}-m{m}-seed{master_seed}.bin"
    if path.exists():
        return load_spectra(str(path))
    CACHE_DIR.mkdir(exist_ok=True)
    # on more than one usable CPU, a pool with one BLAS thread per worker solves it
    sset = sample_spectra(spec, m, master_seed, parallelism=_usable_cpus())
    save_spectra(sset, str(path))
    return load_spectra(str(path))


@pytest.fixture
def table_calls(monkeypatch):
    """A list that records the arguments of every bessel_j_table call."""
    calls = []
    table = bessel.bessel_j_table
    monkeypatch.setattr(bessel, "bessel_j_table", lambda *a: calls.append(a) or table(*a))
    return calls


@pytest.fixture(scope="session")
def spectra_cache():
    return cached_spectra


@pytest.fixture
def acceptance_report():
    def record(line):
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
