"""I.i.d. random matrix ensembles with reproducible counter-based sampling.

Entries are drawn i.i.d. with mean 0 and E|chi|^2 = 1 (complex entries also
satisfy E chi^2 = 0), then scaled by N^(-1/2) so the spectrum fills the unit
disk. Each (master_seed, sample_index) pair keys an independent Philox
stream, so any subset of samples can be generated in any order, on any
worker layout, with identical results.

Entry laws and fourth cumulants kappa4 = E|chi|^4 - (1 + 2/beta):

=============  ==========================================  ========
distribution   construction                                kappa4
=============  ==========================================  ========
gaussian       N(0,1); complex: (g1 + i g2)/sqrt(2)         0
rademacher     +-1; complex: (a + i b)/sqrt(2), a,b = +-1   -2 / -1
uniform        U[-sqrt(3), sqrt(3)]; complex likewise       -6/5 / -3/5
               componentwise over sqrt(2)
=============  ==========================================  ========
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _args

__all__ = [
    "FIELDS",
    "DISTRIBUTIONS",
    "EnsembleSpec",
    "MatrixSample",
    "sample_matrix",
]

FIELDS = ("real", "complex")
DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

_SQRT3 = math.sqrt(3.0)

_KAPPA4 = {
    ("real", "gaussian"): 0.0,
    ("real", "rademacher"): -2.0,
    ("real", "uniform"): -1.2,
    ("complex", "gaussian"): 0.0,
    ("complex", "rademacher"): -1.0,
    ("complex", "uniform"): -0.6,
}


@dataclass(frozen=True)
class EnsembleSpec:
    field: str
    distribution: str
    n: int

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}, got {self.field!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        object.__setattr__(self, "n", _args.count(self.n, "n"))

    @property
    def beta(self):
        return 2 if self.field == "complex" else 1

    @property
    def kappa4(self):
        return _KAPPA4[(self.field, self.distribution)]

    def canonical_json(self):
        obj = {
            "distribution": self.distribution,
            "field": self.field,
            "kappa4": self.kappa4,
            "n": self.n,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj):
        spec = cls(field=obj["field"], distribution=obj["distribution"], n=obj["n"])
        if not math.isclose(obj.get("kappa4", spec.kappa4), spec.kappa4):
            raise ValueError(
                f"kappa4 {obj['kappa4']} inconsistent with "
                f"{spec.field}/{spec.distribution} (expected {spec.kappa4})"
            )
        return spec


@dataclass(frozen=True)
class MatrixSample:
    entries: np.ndarray
    master_seed: int
    sample_index: int


def _generator(master_seed, sample_index):
    key = np.array([master_seed, sample_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_unit_variance(rng, field, distribution, n):
    # fixed draw order (real component first) so streams are reproducible
    if distribution == "gaussian":
        draw = lambda: rng.standard_normal((n, n))
    elif distribution == "rademacher":
        draw = lambda: rng.integers(0, 2, size=(n, n)).astype(np.float64) * 2.0 - 1.0
    else:
        draw = lambda: rng.uniform(-_SQRT3, _SQRT3, size=(n, n))
    if field == "real":
        return draw()
    re = draw()
    im = draw()
    return (re + 1j * im) / math.sqrt(2.0)


def sample_matrix(spec, master_seed, sample_index):
    """The sample_index-th matrix of the stream keyed by master_seed.

    Pure function of its arguments: independent of call order, worker count,
    or any global RNG state.
    """
    master_seed, sample_index = _args.seed(master_seed), _args.count(sample_index, "sample_index", 0)
    rng = _generator(master_seed, sample_index)
    chi = _draw_unit_variance(rng, spec.field, spec.distribution, spec.n)
    return MatrixSample(
        entries=chi / math.sqrt(spec.n),
        master_seed=master_seed,
        sample_index=sample_index,
    )
