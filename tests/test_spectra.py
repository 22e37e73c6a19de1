import os
import pickle

import numpy as np
import pytest

from dsff_lab.ensembles import EnsembleSpec, MatrixSample
from dsff_lab.spectra import (
    CacheHeaderError,
    CacheLengthError,
    CachePayloadError,
    CacheVersionError,
    EigensolverError,
    SpectraError,
    _chunk_plan,
    eigenvalues,
    load_spectra,
    sample_spectra,
    save_spectra,
    solver_processes,
)

SPEC = EnsembleSpec(field="complex", distribution="gaussian", n=16)


def test_eigenvalues_of_diagonal_matrix():
    diag = np.array([1.0 + 2.0j, -0.5, 3.0j])
    sample = eigenvalues(MatrixSample(entries=np.diag(diag), master_seed=0, sample_index=4))
    assert sample.sample_index == 4
    assert np.allclose(np.sort_complex(sample.eigenvalues), np.sort_complex(diag))


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
    a = sample_spectra(SPEC, 6, 123, parallelism=1)
    b = sample_spectra(SPEC, 6, 123, parallelism=3)
    assert a.eigenvalues.shape == (6, 16)
    assert a.eigenvalues.dtype == np.complex128
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.m == 6 and a.n == 16
    assert dict(os.environ) == environ  # the pool's BLAS pinning is undone


def test_chunk_plan_caps_the_pool():
    # a pure function: no process is started here
    assert _chunk_plan(3, 10**6, 64) == [(0, 1), (1, 2), (2, 3)]
    assert _chunk_plan(5, 10**6, 2) == [(0, 2), (2, 5)]
    assert _chunk_plan(7, 10**6, 1) == [(0, 7)]
    assert _chunk_plan(1, 2, 8) == [(0, 1)]
    for m in range(1, 12):
        for parallelism in (2, 3, 10**6):
            plan = _chunk_plan(m, parallelism, 4)
            assert len(plan) == min(parallelism, m, 4)
            assert plan[0][0] == 0 and plan[-1][1] == m
            assert all(prev[1] == nxt[0] for prev, nxt in zip(plan, plan[1:]))
            sizes = [b - a for a, b in plan]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_solver_processes():
    assert solver_processes(1000, 1) == 1
    assert 1 <= solver_processes(2, 10**6) <= 2


def test_sample_views():
    sset = sample_spectra(SPEC, 3, 9)
    third = sset.sample(2)
    assert third.sample_index == 2
    assert np.array_equal(third.eigenvalues, sset.eigenvalues[2])
    assert [s.sample_index for s in sset.samples()] == [0, 1, 2]


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
