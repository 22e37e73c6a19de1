import functools
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from dsff_lab import spectra
from dsff_lab.ensembles import EnsembleSpec, MatrixSample
from dsff_lab.estimator import build_tau_grid, dsff_grid
from dsff_lab.spectra import (
    CacheHeaderError,
    CacheLengthError,
    CachePayloadError,
    CacheVersionError,
    EigensolverError,
    SpectraError,
    SpectrumSet,
    eigenvalues,
    load_spectra,
    sample_spectra,
    save_spectra,
    solver_processes,
)

SPEC = EnsembleSpec(field="complex", distribution="gaussian", n=16)


def test_eigenvalues_of_diagonal_matrix():
    diag = np.array([1.0 + 2.0j, -0.5, 3.0j])
    eigs = eigenvalues(MatrixSample(entries=np.diag(diag), master_seed=0, sample_index=4))
    assert eigs.shape == (3,) and eigs.dtype == np.complex128
    assert np.allclose(np.sort_complex(eigs), np.sort_complex(diag))


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(MatrixSample(entries=np.zeros((2, 3)), master_seed=0, sample_index=0))
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(MatrixSample(entries=bad, master_seed=0, sample_index=0))


def test_eigensolver_error_carries_sample_index(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    with pytest.raises(EigensolverError, match="sample 7") as err:
        eigenvalues(MatrixSample(entries=np.eye(3), master_seed=0, sample_index=7))
    assert err.value.sample_index == 7
    assert isinstance(err.value, SpectraError)


def test_eigensolver_error_pickle_round_trip():
    err = pickle.loads(pickle.dumps(EigensolverError(3, "x")))
    assert type(err) is EigensolverError
    assert err.sample_index == 3
    assert str(err) == "sample 3: x"


def test_sample_spectra_shape_and_determinism():
    environ = dict(os.environ)
    rows = sample_spectra(SPEC, 41, 123, parallelism=1).eigenvalues
    assert rows.shape == (41, 16) and rows.dtype == np.complex128
    # m=41 leaves a short last chunk on any CPU count; m=1 and 2 are below
    # parallelism=3; each m's set is the first m rows of the m=41 set
    for m in (1, 2, 5, 17, 41):
        for parallelism in (1, 2, 3):
            sset = sample_spectra(SPEC, m, 123, parallelism=parallelism)
            assert sset.m == m and sset.n == 16
            assert sset.eigenvalues.tobytes() == rows[:m].tobytes(), (m, parallelism)
    assert dict(os.environ) == environ  # the pool's BLAS pinning is undone


def test_solver_processes_caps_the_pool(monkeypatch):
    # only counts: no process is started here
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 4)
    table = {  # parallelism: the count for m = 1..11
        1: [1] * 11,
        2: [1] + [2] * 10,
        3: [1, 2] + [3] * 9,
        10**6: [1, 2, 3] + [4] * 8,
    }
    for parallelism, counts in table.items():
        assert [solver_processes(m, parallelism) for m in range(1, 12)] == counts


def _marked_solve(marker_dir, i):
    """A pool task: leaves a marker file named i, takes 0.1 s, and fails at indices 0 and 7."""
    with open(os.path.join(marker_dir, str(i)), "x"):
        pass
    time.sleep(0.1)
    if i in (0, 7):
        raise EigensolverError(i, "planted failure")
    return np.full(4, i, dtype=np.complex128)


def test_pool_failure_raises_the_lowest_index_and_stops_the_pool(tmp_path):
    out = np.zeros((40, 4), dtype=np.complex128)
    with pytest.raises(EigensolverError) as err:
        spectra._solve_in_pool(functools.partial(_marked_solve, str(tmp_path)), out, 2)
    assert err.value.sample_index == 0
    # run to the end, the pool would call every index but 1 (index 0's
    # chunk stops at its failure); cancelled chunks leave no marker
    assert len(list(tmp_path.iterdir())) < 20
    assert multiprocessing.active_children() == []


def test_trace_residual_breach_raises_with_the_sample_index(monkeypatch):
    real_eigvals = np.linalg.eigvals
    calls = []

    def eigvals(entries):  # moves one eigenvalue of the third solve, sample 2
        eigs = real_eigvals(entries)
        if len(calls) == 2:
            eigs[0] += 1e-6
        calls.append(None)
        return eigs

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with pytest.raises(EigensolverError, match="sample 2: trace residuals") as err:
        sample_spectra(SPEC, 4, 9, parallelism=1)
    assert err.value.sample_index == 2


def test_solver_processes():
    assert solver_processes(1000, 1) == 1
    assert 1 <= solver_processes(2, 10**6) <= 2


def test_spectrum_set_shape_must_match_spec():
    spec = EnsembleSpec(field="complex", distribution="gaussian", n=30)
    for bad in (np.zeros((8, 40), complex), np.zeros(30, complex), np.zeros((0, 30), complex)):
        with pytest.raises(ValueError, match="shape"):
            SpectrumSet(spec=spec, master_seed=0, eigenvalues=bad)
    assert SpectrumSet(spec=spec, master_seed=0, eigenvalues=np.zeros((8, 30), complex)).n == 30


def test_spectral_radius_is_computed_once_per_set(monkeypatch):
    class CountingNumpy:
        abs_calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, x):
            self.abs_calls += 1
            return np.abs(x)

    sset = sample_spectra(SPEC, 6, 21)
    counting = CountingNumpy()
    monkeypatch.setattr(spectra, "np", counting)
    taus = build_tau_grid(0.4, 0.1, 8.0, 10, "log")
    dsff_grid(sset, taus)
    dsff_grid(sset, taus[::2])
    assert counting.abs_calls == 1
    assert sset.spectral_radius == float(np.abs(sset.eigenvalues).max())
    assert counting.abs_calls == 1


def test_sample_spectra_validation():
    with pytest.raises(ValueError, match="m must"):
        sample_spectra(SPEC, 0, 1)


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "spectra.bin")
    sset = sample_spectra(SPEC, 4, 77)
    save_spectra(sset, path)
    loaded = load_spectra(path)
    assert loaded.spec == sset.spec
    assert loaded.master_seed == 77
    assert loaded.eigenvalues.tobytes() == sset.eigenvalues.tobytes()
    assert not loaded.eigenvalues.flags.writeable

    # saving the loaded set again is byte-identical
    path2 = str(tmp_path / "spectra2.bin")
    save_spectra(loaded, path2)
    assert (tmp_path / "spectra.bin").read_bytes() == (tmp_path / "spectra2.bin").read_bytes()


def test_failed_save_leaves_no_partial_cache(tmp_path, monkeypatch):
    old_path = tmp_path / "old.bin"
    save_spectra(sample_spectra(SPEC, 2, 1), str(old_path))
    old_bytes = old_path.read_bytes()

    real_open = open

    def open_failing_payload(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        real_write = fh.write

        def write(data):
            if not data.startswith(b"dsff-spectra "):  # the payload, after the header
                real_write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")
            return real_write(data)

        fh.write = write
        return fh

    monkeypatch.setattr("dsff_lab.spectra.open", open_failing_payload, raising=False)
    sset = sample_spectra(SPEC, 4, 77)
    for target in (tmp_path / "fresh.bin", old_path):
        with pytest.raises(OSError, match="No space"):
            save_spectra(sset, str(target))
    assert not (tmp_path / "fresh.bin").exists()
    assert old_path.read_bytes() == old_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.bin"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a cache at all\n" + b"\x00" * 64)
    with pytest.raises(CacheHeaderError):
        load_spectra(str(path))


def test_load_rejects_corrupt_header(tmp_path):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(b"dsff-spectra {not json}\n")
    with pytest.raises(CacheHeaderError):
        load_spectra(str(path))
    path.write_bytes(b'dsff-spectra {"m": 1}\n')
    with pytest.raises(CacheHeaderError):
        load_spectra(str(path))


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.bin"
    save_spectra(sample_spectra(SPEC, 2, 5), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b'"format_version":1', b'"format_version":2', 1))
    with pytest.raises(CacheVersionError):
        load_spectra(str(path))


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.bin"
    save_spectra(sample_spectra(SPEC, 2, 5), str(path))
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CacheLengthError):
        load_spectra(str(path))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_load_rejects_non_finite_payload(tmp_path, bad):
    path = tmp_path / "nan.bin"
    save_spectra(sample_spectra(SPEC, 2, 5), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-16] + np.array([bad], dtype="<c16").tobytes())
    with pytest.raises(CachePayloadError, match="non-finite"):
        load_spectra(str(path))


def test_error_hierarchy():
    for cls in (
        CacheHeaderError,
        CacheVersionError,
        CacheLengthError,
        CachePayloadError,
        EigensolverError,
    ):
        assert issubclass(cls, SpectraError)


def test_spectra_match_direct_eigendecomposition():
    from dsff_lab.ensembles import sample_matrix

    sset = sample_spectra(SPEC, 3, 55)
    for i in range(3):
        direct = np.linalg.eigvals(sample_matrix(SPEC, 55, i).entries)
        assert np.array_equal(np.asarray(sset.eigenvalues[i]), direct)
