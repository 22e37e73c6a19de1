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
import functools
import json
import os
import threading
import uuid
from dataclasses import dataclass, field

import numpy as np

from . import _args
from .ensembles import EnsembleSpec, sample_matrix

__all__ = [
    "SpectraError",
    "CacheHeaderError",
    "CacheVersionError",
    "CacheLengthError",
    "CachePayloadError",
    "EigensolverError",
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
# bound on |sum(lambda^k) - Tr A^k| for k = 1, 2, per unit of N; the six
# ensembles' residuals stay below 3e-15 * N at N = 16, 256 and 512
_TRACE_TOLERANCE = 1e-10
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
    """One sample's eigensolve failed to converge or missed its trace identities; carries the index."""

    def __init__(self, sample_index, message):
        super().__init__(f"sample {sample_index}: {message}")
        self.sample_index = sample_index
        self.message = message

    def __reduce__(self):
        # rebuild from the constructor's arguments, so a pool worker's failure
        # reaches the parent as this type
        return type(self), (self.sample_index, self.message)


@dataclass(frozen=True)
class SpectrumSet:
    """M sampled spectra of one ensemble, stored as an (M, N) complex array.

    Row i holds the eigenvalues of sample i; this array is the only form a
    spectrum takes in the package.
    """

    spec: EnsembleSpec
    master_seed: int
    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _args.seed(self.master_seed))
        shape = np.shape(self.eigenvalues)
        if len(shape) != 2 or shape[0] < 1 or shape[1] != self.spec.n:
            raise ValueError(
                f"eigenvalues must have shape (M >= 1, N={self.spec.n}), got {shape}"
            )

    @property
    def m(self):
        return self.eigenvalues.shape[0]

    @property
    def n(self):
        return self.eigenvalues.shape[1]

    @functools.cached_property
    def spectral_radius(self):
        """max |lambda| over every sampled eigenvalue, computed once per set."""
        return float(np.abs(self.eigenvalues).max())


def eigenvalues(matrix):
    """All eigenvalues of one MatrixSample as an (N,) complex128 array.

    Accuracy is that of the LAPACK Hessenberg-reduction + QR-iteration
    backward-stable algorithm. Non-convergence, or a result that misses
    sum(lambda) = Tr A or sum(lambda^2) = Tr A^2 by more than
    _TRACE_TOLERANCE * N, raises EigensolverError with the sample index.
    """
    entries = matrix.entries
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"matrix must be square, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("matrix entries must be finite")
    try:
        eigs = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(matrix.sample_index, str(exc)) from exc
    eigs = eigs.astype(np.complex128, copy=False)
    # einsum sums A_ij A_ji without forming an N x N product
    residuals = (
        abs(eigs.sum() - np.trace(entries)),
        abs(eigs @ eigs - np.einsum("ij,ji->", entries, entries)),
    )
    bound = _TRACE_TOLERANCE * len(eigs)
    if not max(residuals) <= bound:  # a NaN residual fails too
        raise EigensolverError(
            matrix.sample_index,
            f"trace residuals {residuals[0]:.3g} (k=1) and {residuals[1]:.3g} (k=2), bound {bound:.3g}",
        )
    return eigs


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def solver_processes(m, parallelism):
    """How many processes solve an m-sample run: this one, or the pool's workers."""
    m, parallelism = _args.count(m, "m"), _args.count(parallelism, "parallelism")
    return 1 if parallelism == 1 else min(parallelism, m, _usable_cpus())


def _solve_sample(spec, master_seed, i):
    """Eigenvalues of sample i.

    `eigenvalues` and `sample_matrix` are read from this module's globals at
    each call, so a wrapper installed there (perfbench's tracer) sees every
    in-process solve.
    """
    return eigenvalues(sample_matrix(spec, master_seed, i))


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

    Sample i's stream is keyed by (master_seed, i), and its eigenvalues
    fill row i. `parallelism=1` solves in this process with the caller's
    BLAS. `parallelism > 1` hands the indices, in chunks of
    max(1, m // (8 * workers)), to a pool of workers =
    min(parallelism, m, usable CPUs) spawned processes, each with one BLAS
    thread. Each sample is solved alone, so the bytes do not depend on the
    chunking or the worker count. LAPACK's result can depend on the BLAS
    thread count (it does for complex N >= 128), so they equal those of
    `parallelism=1` in a process that also runs one BLAS thread. A failing
    sample raises its EigensolverError; in the pool, the lowest failing
    index is the one raised, and chunks not yet started are cancelled, so
    the error surfaces once the chunks already running finish. A script
    that calls this with `parallelism > 1` needs an
    `if __name__ == "__main__":` guard, because spawned workers import the
    main module.
    """
    m, master_seed = _args.count(m, "m"), _args.seed(master_seed)
    parallelism = _args.count(parallelism, "parallelism")
    solve = functools.partial(_solve_sample, spec, master_seed)
    out = np.empty((m, spec.n), dtype=np.complex128)
    if parallelism == 1:
        for i in range(m):
            out[i] = solve(i)
    else:
        _solve_in_pool(solve, out, solver_processes(m, parallelism))
    return SpectrumSet(spec=spec, master_seed=master_seed, eigenvalues=out)


def _solve_in_pool(solve, out, workers):
    """Fill row i of `out` with solve(i) in a pool of `workers` spawned processes."""
    # imported here: they add ~20 ms to every start of the package
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    m = len(out)
    # spawn, not fork: a forked child inherits a BLAS already started with
    # the parent's thread count
    context = multiprocessing.get_context("spawn")
    with _single_thread_blas_env(), ProcessPoolExecutor(workers, mp_context=context) as pool:
        # map yields in index order, so the lowest failing sample is the one
        # raised, and the raise cancels every chunk not yet started
        for i, row in enumerate(pool.map(solve, range(m), chunksize=max(1, m // (8 * workers)))):
            out[i] = row


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
        if version != FORMAT_VERSION:
            raise CacheVersionError(f"{path}: unsupported format_version {version}")
        m, master_seed = _args.count(head["m"], "m"), _args.seed(head["master_seed"])
        spec = EnsembleSpec.from_json_obj(head["spec"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheHeaderError(f"{path}: corrupt header ({exc})") from exc
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
    sset = SpectrumSet(spec=spec, master_seed=master_seed, eigenvalues=eigs)
    # one canonical header per set: a renamed, extra or reordered key is corruption
    if blob[: cut + 1] != _header_bytes(sset):
        raise CacheHeaderError(f"{path}: corrupt header (not the canonical header of its M, seed and spec)")
    return sset
