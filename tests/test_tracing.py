"""The benchmark finds every dsff_lab name it uses; tier-1 never imports it otherwise.

perfbench/tracing.py replaces functions in the module namespaces that call
them, so a name dropped from one of those modules (theory keeps two import
lines, of three names, only for it) breaks the benchmark. perfbench/bench.py
imports names from dsff_lab modules and reads attributes off the modules it
imports, so deleting one of those breaks every benchmark run too. These
tests catch both in the tier-1 run.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from dsff_lab import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
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


def _bench_uses():
    """[(module name, attribute)] for each name bench.py imports from dsff_lab or reads off a dsff_lab module."""
    tree = ast.parse((PERFBENCH / "bench.py").read_text())
    modules, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name == "dsff_lab")
        elif isinstance(node, ast.ImportFrom) and node.module == "dsff_lab":
            modules.update((a.asname or a.name, f"dsff_lab.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dsff_lab."):
            uses += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.append((modules[node.value.id], node.attr))
    return uses


def test_bench_finds_every_name_it_imports_or_reads():
    uses = _bench_uses()
    assert ("dsff_lab.kernels", "backend") in uses and ("dsff_lab.quadrature", "disk_grid") in uses
    missing = [f"{module}.{attr}" for module, attr in uses
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
