"""Eigenvalue sampling and the binary spectrum cache.

Cache layout (format_version 1): one header line

    dsff-spectra {"format_version":1,"m":...,"master_seed":...,"spec":{...}}\n

with canonical JSON (sorted keys, no whitespace), followed by raw
little-endian float64 (re, im) pairs, sample-major. Round-trips are
bit-exact; header, version, and payload-length problems raise distinct
errors so callers can tell corruption from version skew.
"""
from __future__ import annotations

import json
import os
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ensembles import EnsembleSpec, sample_matrix

__all__ = [
    "SpectraError",
    "CacheHeaderError",
    "CacheVersionError",
    "CacheLengthError",
    "EigensolverError",
    "SpectrumSample",
    "SpectrumSet",
    "eigenvalues",
    "sample_spectra",
    "save_spectra",
    "load_spectra",
]

FORMAT_VERSION = 1
_MAGIC = b"dsff-spectra "


class SpectraError(Exception):
    """Base class for spectrum sampling and cache errors."""


class CacheHeaderError(SpectraError):
    """Missing magic, unparseable JSON, or missing header fields."""


class CacheVersionError(SpectraError):
    """Header parsed but format_version is not supported."""


class CacheLengthError(SpectraError):
    """Payload byte count disagrees with the header's M and N."""


class EigensolverError(SpectraError):
    """QR iteration failed to converge; carries the sample index."""

    def __init__(self, sample_index, message):
        super().__init__(f"sample {sample_index}: {message}")
        self.sample_index = sample_index


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
    format_version: int = FORMAT_VERSION

    @property
    def m(self):
        return self.eigenvalues.shape[0]

    @property
    def n(self):
        return self.eigenvalues.shape[1]

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


def sample_spectra(spec, m, master_seed, parallelism=1):
    """Sample M independent matrices and diagonalize them.

    Results are a pure function of (spec, m, master_seed): each sample's
    stream is keyed by its index, and assembly is by index, so any
    parallelism level yields identical bytes.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    out = np.empty((m, spec.n), dtype=np.complex128)

    def solve(i):
        out[i] = eigenvalues(sample_matrix(spec, master_seed, i)).eigenvalues

    if parallelism <= 1:
        for i in range(m):
            solve(i)
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            # materialize to propagate the first failure
            list(pool.map(solve, range(m)))
    return SpectrumSet(spec=spec, master_seed=master_seed, eigenvalues=out)


def _header_bytes(sset):
    obj = {
        "format_version": sset.format_version,
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
    eigs.flags.writeable = False
    return SpectrumSet(spec=spec, master_seed=master_seed, eigenvalues=eigs)
