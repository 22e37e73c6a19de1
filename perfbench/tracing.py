"""In-memory span tracer that instruments dsff_lab from outside the package.

The tracer replaces a function by a timing wrapper at the place where callers
look it up. `from .x import y` binds `y` into the importing module at import
time, so a function is wrapped in every module namespace that calls it, not
only where it is defined. `restore()` puts every original back.

Each span records its name, start, end, thread and parent. A span opened in a
thread that has no open span of its own (a worker of `sample_spectra`'s pool)
takes the innermost open span of the tracer's own thread as its parent.
Spans are kept in memory; `summary()` reduces them to per-name figures.
"""
from __future__ import annotations

import functools
import itertools
import os
import resource
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class _Open:
    """Context manager for one span; `counts` may be filled before it closes."""

    def __init__(self, tracer, name, rusage):
        self.tracer = tracer
        self.name = name
        self.rusage = rusage

    def __enter__(self):
        stack = self.tracer._stack()
        if stack:
            parent = stack[-1].id
        elif self.tracer._home_stack:
            parent = self.tracer._home_stack[-1].id
        else:
            parent = None
        self.span = Span(
            id=next(self.tracer._ids),
            name=self.name,
            parent=parent,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(self.span)
        if self.rusage:
            self._usage = resource.getrusage(resource.RUSAGE_THREAD)
        return self.span

    def __exit__(self, *exc):
        span = self.span
        span.end = time.perf_counter()
        if self.rusage:
            after = resource.getrusage(resource.RUSAGE_THREAD)
            span.counts["minor_faults"] = after.ru_minflt - self._usage.ru_minflt
            span.counts["sys_s"] = after.ru_stime - self._usage.ru_stime
        self.tracer._stack().pop()
        self.tracer.spans.append(span)
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, rusage=False):
        return _Open(self, name, rusage)

    def _wrapper(self, original, name, measure, rusage):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, rusage) as span:
                result = original(*args, **kwargs)
                if measure is not None:
                    span.counts.update(measure(args, kwargs, result))
            return result

        return traced

    def wrap(self, namespaces, attr, name, measure=None, rusage=False):
        """Wrap `attr` in each module (or dict) of `namespaces` under span `name`.

        `measure(args, kwargs, result)` returns counts to add to the span.
        """
        for ns in namespaces:
            is_dict = isinstance(ns, dict)
            original = ns[attr] if is_dict else getattr(ns, attr)
            traced = self._wrapper(original, name, measure, rusage)
            if is_dict:
                ns[attr] = traced
            else:
                setattr(ns, attr, traced)
            self._patches.append((ns, attr, original))

    def restore(self):
        for ns, attr, original in reversed(self._patches):
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)
        self._patches.clear()

    def summary(self):
        """Per span name: calls, busy_s (sum of durations), self_s and summed counts.

        Self time is each span's duration minus the union of its children's
        intervals, so children running in parallel threads are not counted twice.
        """
        children = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += span.duration
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.id, ())
            )
            row["self_s"] += span.duration - covered
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return out


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _phase_counts(args, kwargs, result):
    re = args[0]
    # input (re, im) plus output array bytes, computed from shapes, not measured traffic
    return {"phase_terms": re.size, "bytes_computed": 2 * re.nbytes + result.nbytes}


def _node_counts(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return {"nodes": grid.radial_nodes * grid.angular_nodes}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer):
    """Wrap the public dsff_lab functions the per-layer metrics are built from."""
    from dsff_lab import cli, estimator, kernels, quadrature, spectra, theory, verify

    tracer.wrap([cli], "sample_spectra", "spectra.sample_spectra")
    tracer.wrap([cli], "save_spectra", "spectra.save_spectra", _saved_bytes)
    tracer.wrap([cli, spectra], "load_spectra", "spectra.load_spectra", _loaded_bytes)
    tracer.wrap([cli], "dsff_grid", "estimator.dsff_grid")
    tracer.wrap([estimator], "dsff_point", "estimator.dsff_point")
    tracer.wrap([cli, verify], "dsff_theory", "theory.dsff_theory")
    tracer.wrap([cli, verify], "ginibre_exact_dsff", "theory.ginibre_exact_dsff")
    tracer.wrap([cli], "run_suites", "verify.run_suites")
    tracer.wrap([cli], "render_loglog", "svgplot.render_loglog")
    tracer.wrap([spectra], "sample_matrix", "ensembles.sample_matrix")
    tracer.wrap([spectra], "eigenvalues", "spectra.eigenvalues")
    tracer.wrap([kernels], "linear_stat_sums", "kernels.linear_stat_sums", _phase_counts, rusage=True)
    tracer.wrap([estimator], "estimate_from_linear_stats", "estimator.estimate_from_linear_stats")
    tracer.wrap(
        [theory, quadrature],
        "real_axis_correction_integral",
        "quadrature.real_axis_correction_integral",
        _node_counts,
        rusage=True,
    )
    tracer.wrap([theory, verify], "weighted_bessel_series", "bessel.weighted_bessel_series")
    tracer.wrap([theory, verify], "bessel_j", "bessel.bessel_j")
    for suite in list(verify.SUITES):
        tracer.wrap([verify.SUITES], suite, f"verify.suite_{suite}")
