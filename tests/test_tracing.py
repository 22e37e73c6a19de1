"""The benchmark's tracer wraps dsff_lab functions by name; every name must exist.

perfbench/tracing.py replaces functions in the module namespaces that call
them, so a name dropped from one of those modules (theory keeps two imports
only for it) breaks the benchmark. This test catches that in the tier-1 run.
"""
import importlib.util
import sys
from pathlib import Path

from dsff_lab import kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class _NameCheck:
    """A tracer whose wrap only asserts that each namespace holds the name."""

    def __init__(self):
        self.spans = []

    def wrap(self, namespaces, attr, name, measure=None, rusage=False):
        for ns in namespaces:
            held = attr in ns if isinstance(ns, dict) else hasattr(ns, attr)
            assert held, f"{ns!r} has no {attr!r} for span {name!r}"
        self.spans.append(name)


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = _NameCheck()
    tracing.instrument(tracer)
    assert "bessel.weighted_bessel_series" in tracer.spans
    assert "quadrature.real_axis_correction_integral" in tracer.spans
    # the benchmark's machine block reports it
    assert callable(kernels.backend)
