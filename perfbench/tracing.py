"""Span tracing from outside the library.

The benchmark never edits ``src/``.  A traced run replaces public functions
at the module attribute where their callers look them up (for example
``latgreen.lattice.log_scaled_bessel_i``, which ``green_bessel`` resolves
at call time) with a wrapper that records one span per call and returns the
wrapped function's result unchanged.  Untraced runs install nothing.

A span is ``[name, start_ns, end_ns, parent, request, attr]``: ``parent``
is the index of the enclosing span (-1 at the top), ``request`` the id of
the benchmark call it belongs to, ``attr`` a per-name count (Bessel
evaluations, quadrature nodes, walks, points).
"""

import functools
import importlib
import time

import numpy as np

NAME, START, END, PARENT, REQUEST, ATTR = range(6)


def _size(arg_index):
    return lambda args, result: int(np.size(args[arg_index]))


def _walks(args, result):
    return int(args[0].n_walks)


def _rows(args, result):
    return int(np.shape(args[0])[0])


def _n_checked(args, result):
    return int(result.n_checked)


def _one(args, result):
    return 1


# (module, attribute, span name, attribute extractor).  Each entry is a place
# where a caller resolves a public name at call time.
TRACE_POINTS = [
    ("latgreen", "green_bessel", "lattice.green_bessel", None),
    ("latgreen.cli", "green_bessel", "lattice.green_bessel", None),
    ("latgreen.asymptotics", "green_bessel", "lattice.green_bessel", None),
    ("latgreen", "green_fourier_oracle", "lattice.green_fourier_oracle", None),
    ("latgreen.cli", "green_fourier_oracle", "lattice.green_fourier_oracle", None),
    ("latgreen.cli", "green_d1_closed", "lattice.green_d1_closed", None),
    ("latgreen.lattice", "log_scaled_bessel_i", "special.ibar", _size(1)),
    ("latgreen.lattice", "log_integral_semi_infinite", "quadrature.integral", None),
    ("latgreen", "oz_estimate", "asymptotics.estimate", None),
    ("latgreen", "oz_isotropic_estimate", "asymptotics.estimate", None),
    ("latgreen", "critical_estimate", "asymptotics.estimate", None),
    ("latgreen.cli", "oz_estimate", "asymptotics.estimate", None),
    ("latgreen.cli", "oz_isotropic_estimate", "asymptotics.estimate", None),
    ("latgreen.cli", "critical_estimate", "asymptotics.estimate", None),
    ("latgreen.asymptotics", "log_green_continuum", "continuum.log_green_continuum", None),
    ("latgreen.cli", "uniform_bound_check", "asymptotics.uniform_bound_check", _n_checked),
    ("latgreen.cli", "gbar_curve", "asymptotics.gbar_curve", None),
    ("latgreen", "run_killed_walks", "walk.run_killed_walks", _walks),
    ("latgreen.walk", "run_killed_walks", "walk.run_killed_walks", _walks),
    ("latgreen", "kill_time_survival", "walk.kill_time_survival", _walks),
    ("latgreen.cli", "estimate_green", "walk.estimate_green", None),
    ("latgreen.cli", "a_norm", "norm.a_norm", _one),
    ("latgreen.cli", "u_scale", "norm.u_scale", None),
    ("latgreen.cli", "mass", "norm.mass", None),
    ("latgreen.norm", "a_norm_batch", "norm.a_norm_batch", _rows),
    ("latgreen.cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder; ``request`` is set by the benchmark loop."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []

    def wrap(self, name, fn, attr=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attr is not None:
                span[ATTR] = attr(args, result)
            return result

        return traced

    def wrap_quadrature(self, fn):
        """Trace the semi-infinite quadrature and each integrand call it
        makes; the integrand span carries the number of nodes."""
        wrap_integrand = functools.partial(
            self.wrap, "quadrature.integrand", attr=_size(0))

        @functools.wraps(fn)
        def with_traced_integrand(log_integrand, *args, **kwargs):
            return fn(wrap_integrand(log_integrand), *args, **kwargs)

        return self.wrap("quadrature.integral", with_traced_integrand)

    def install(self):
        """Replace every trace point; returns a callable that restores them."""
        saved = []
        for module_name, attr_name, span_name, attr in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr_name)
            saved.append((module, attr_name, original))
            if span_name == "quadrature.integral":
                replacement = self.wrap_quadrature(original)
            else:
                replacement = self.wrap(span_name, original, attr)
            setattr(module, attr_name, replacement)

        def uninstall():
            for module, attr_name, original in reversed(saved):
                setattr(module, attr_name, original)

        return uninstall


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def write_spans(spans, path):
    """Write spans as tab-separated lines: name, start, end, parent,
    request, attr (times in ns from the first span)."""
    t0 = spans[0][START] if spans else 0
    with open(path, "w") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\trequest\tattr\n")
        for s in spans:
            fh.write(f"{s[NAME]}\t{s[START] - t0}\t{s[END] - t0}\t{s[PARENT]}\t"
                     f"{s[REQUEST]}\t{'' if s[ATTR] is None else s[ATTR]}\n")
