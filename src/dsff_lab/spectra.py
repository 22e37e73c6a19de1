"""Eigenvalue sampling and the binary spectrum cache.

Cache layout (format_version 1): one header line

    dsff-spectra {"format_version":1,"m":...,"master_seed":...,"spec":{...}}\n

with canonical JSON (sorted keys, no whitespace), followed by raw
little-endian float64 (re, im) pairs, sample-major. Round-trips are
bit-exact; header, version, payload-length and non-finite-payload problems
raise distinct errors so callers can tell corruption from version skew.
"""
from __future__ import annotations

import contextlib
import json
import os
import threading
import uuid
from dataclasses import dataclass, field

import numpy as np

from .ensembles import EnsembleSpec, sample_matrix

__all__ = [
    "SpectraError",
    "CacheHeaderError",
    "CacheVersionError",
    "CacheLengthError",
    "CachePayloadError",
    "EigensolverError",
    "SpectrumSample",
    "SpectrumSet",
    "eigenvalues",
    "sample_spectra",
    "solver_processes",
    "save_spectra",
    "load_spectra",
]

FORMAT_VERSION = 1
_MAGIC = b"dsff-spectra "
# thread-count variables a pool worker's BLAS reads when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# held while those variables are pinned, so concurrent pools cannot restore
# them under each other
_BLAS_ENV_LOCK = threading.Lock()


class SpectraError(Exception):
    """Base class for spectrum sampling and cache errors."""


class CacheHeaderError(SpectraError):
    """Missing magic, unparseable JSON, or missing header fields."""


class CacheVersionError(SpectraError):
    """Header parsed but format_version is not supported."""


class CacheLengthError(SpectraError):
    """Payload byte count disagrees with the header's M and N."""


class CachePayloadError(SpectraError):
    """Payload holds a NaN or infinite eigenvalue."""


class EigensolverError(SpectraError):
    """QR iteration failed to converge; carries the sample index."""

    def __init__(self, sample_index, message):
        super().__init__(f"sample {sample_index}: {message}")
        self.sample_index = sample_index
        self.message = message

    def __reduce__(self):
        # rebuild from the constructor's arguments, so a pool worker's failure
        # reaches the parent as this type
        return type(self), (self.sample_index, self.message)


@dataclass(frozen=True)
class SpectrumSample:
    eigenvalues: np.ndarray  # (n,) complex128
    sample_index: int


@dataclass(frozen=True)
class SpectrumSet:
    """M sampled spectra of one ensemble, stored as an (M, N) complex array."""

    spec: EnsembleSpec
    master_seed: int
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def m(self):
        return self.eigenvalues.shape[0]

    @property
    def n(self):
        return self.eigenvalues.shape[1]

    @property
    def spectral_radius(self):
        """max |lambda| over every sampled eigenvalue."""
        return float(np.abs(self.eigenvalues).max())

    def sample(self, i):
        return SpectrumSample(eigenvalues=self.eigenvalues[i], sample_index=i)

    def samples(self):
        return (self.sample(i) for i in range(self.m))


def eigenvalues(matrix):
    """All eigenvalues of one MatrixSample (dense nonsymmetric solve).

    Accuracy is that of the LAPACK Hessenberg-reduction + QR-iteration
    backward-stable algorithm; non-convergence surfaces as EigensolverError
    with the sample index attached.
    """
    entries = matrix.entries
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"matrix must be square, got shape {entries.shape}")
    if not np.all(np.isfinite(entries.real)) or (
        np.iscomplexobj(entries) and not np.all(np.isfinite(entries.imag))
    ):
        raise ValueError("matrix entries must be finite")
    try:
        eigs = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(matrix.sample_index, str(exc)) from exc
    return SpectrumSample(
        eigenvalues=eigs.astype(np.complex128, copy=False),
        sample_index=matrix.sample_index,
    )


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _chunk_plan(m, parallelism, cpus):
    """Contiguous (start, stop) index ranges, one per pool worker.

    There are min(parallelism, m, cpus) ranges (at least one), covering
    0..m-1 in order with sizes that differ by at most one.
    """
    workers = max(1, min(parallelism, m, cpus))
    bounds = [m * k // workers for k in range(workers + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def solver_processes(m, parallelism):
    """How many processes solve an m-sample run: this one, or the pool's workers."""
    return 1 if parallelism <= 1 else len(_chunk_plan(m, parallelism, _usable_cpus()))


def _solve_range(spec, master_seed, start, stop):
    """Eigenvalues of samples start..stop-1 as a (stop-start, N) block."""
    block = np.empty((stop - start, spec.n), dtype=np.complex128)
    for i in range(start, stop):
        block[i - start] = eigenvalues(sample_matrix(spec, master_seed, i)).eigenvalues
    return block


@contextlib.contextmanager
def _single_thread_blas_env():
    """Set the BLAS thread variables to 1 for processes spawned inside the block."""
    with _BLAS_ENV_LOCK:
        saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def sample_spectra(spec, m, master_seed, parallelism=1):
    """Sample M independent matrices and diagonalize them.

    Each sample's stream is keyed by (master_seed, index) and results are
    assembled by index. `parallelism=1` solves in this process with the
    caller's BLAS. `parallelism > 1` solves contiguous index ranges in a
    pool of min(parallelism, m, usable CPUs) spawned processes, each with
    one BLAS thread. LAPACK's result can depend on the BLAS thread count
    (it does for complex N >= 128), so the bytes equal those of
    `parallelism=1` in a process that also runs one BLAS thread. A script
    that calls this with `parallelism > 1` needs an
    `if __name__ == "__main__":` guard, because spawned workers import the
    main module.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if parallelism <= 1:
        out = _solve_range(spec, master_seed, 0, m)
    else:
        out = _solve_in_pool(spec, master_seed, _chunk_plan(m, parallelism, _usable_cpus()))
    return SpectrumSet(spec=spec, master_seed=master_seed, eigenvalues=out)


def _solve_in_pool(spec, master_seed, plan):
    """Solve each (start, stop) range of `plan` in its own spawned worker."""
    # imported here: they add ~20 ms to every start of the package
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    out = np.empty((plan[-1][1], spec.n), dtype=np.complex128)
    # spawn, not fork: a forked child inherits a BLAS already started with
    # the parent's thread count
    context = multiprocessing.get_context("spawn")
    with _single_thread_blas_env(), ProcessPoolExecutor(len(plan), mp_context=context) as pool:
        futures = [pool.submit(_solve_range, spec, master_seed, a, b) for a, b in plan]
        # in index order, so the lowest failing sample is the one reported
        for (a, b), future in zip(plan, futures):
            out[a:b] = future.result()
    return out


def _header_bytes(sset):
    obj = {
        "format_version": FORMAT_VERSION,
        "m": sset.m,
        "master_seed": sset.master_seed,
        "spec": json.loads(sset.spec.canonical_json()),
    }
    return _MAGIC + json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def save_spectra(sset, path):
    """Write a spectrum cache atomically; on failure `path` is left untouched."""
    payload = np.ascontiguousarray(sset.eigenvalues, dtype="<c16")
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(_header_bytes(sset))
            fh.write(payload.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_spectra(path):
    """Read a spectrum cache; the returned eigenvalue array is read-only."""
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(b"\n", 0, 4096)
    if not blob.startswith(_MAGIC) or cut < 0:
        raise CacheHeaderError(f"{path}: not a spectrum cache (bad magic or header)")
    try:
        head = json.loads(blob[len(_MAGIC):cut].decode())
        version = head["format_version"]
        m = head["m"]
        master_seed = head["master_seed"]
        spec = EnsembleSpec.from_json_obj(head["spec"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheHeaderError(f"{path}: corrupt header ({exc})") from exc
    if version != FORMAT_VERSION:
        raise CacheVersionError(
            f"{path}: format_version {version} unsupported (expected {FORMAT_VERSION})"
        )
    expected = 16 * m * spec.n
    actual = len(blob) - cut - 1
    if actual != expected:
        raise CacheLengthError(
            f"{path}: payload is {actual} bytes, expected {expected} "
            f"(M={m}, N={spec.n})"
        )
    eigs = np.frombuffer(blob, dtype="<c16", offset=cut + 1).reshape(m, spec.n)
    if not np.isfinite(eigs).all():
        raise CachePayloadError(f"{path}: payload holds a non-finite eigenvalue")
    eigs.flags.writeable = False
    return SpectrumSet(spec=spec, master_seed=master_seed, eigenvalues=eigs)
