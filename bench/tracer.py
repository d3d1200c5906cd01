"""Span recording around the public functions of ``morse_entropy``.

The benchmark traces the package from outside: :func:`install` replaces
each traced function by a wrapper at every name a caller can look it up
through (``laws`` and ``cli`` import the counter and rate functions by
name, ``rate.maxent_rate`` recurses through its module global), so no
source file changes.  Spans stay in memory until :meth:`Tracer.dump`.

A span is ``[parent, name, start, end, attrs]`` with ``parent`` the index
of the enclosing span or -1.  ``attrs`` holds per-call counts taken after
the end time is read, so computing them does not inflate the span.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from typing import Any, Callable, Dict, List

_KB_PER_MB = 1024.0
_RESERVE_BYTES = 32 << 20


def _mean_distribution(result) -> Dict[str, Any]:
    return {
        "grid_cells": len(result.counts),
        "max_coeff_bits": max(result.counts).bit_length(),
    }


def _maxent(result) -> Dict[str, Any]:
    return {"iterations": result.iterations, "converged": result.converged}


def _law(result) -> Dict[str, Any]:
    return {"instances": result.instances_checked, "violations": len(result.violations)}


def _laplace(result) -> Dict[str, Any]:
    return {"quadrature_points": sum(row.points for row in result.rows)}


# module -> function -> attribute extractor applied to the return value.
TRACED: Dict[str, Dict[str, Callable[[Any], Dict[str, Any]]]] = {
    "spectrum": {"validate_spectrum": None},
    "counter": {"mean_distribution": _mean_distribution, "count_window": None},
    "rate": {
        "maxent_rate": _maxent,
        "epsilon_curve": None,
        "betti_curve": None,
        "window_sup_rate": None,
    },
    "thermo": {"legendre_epsilon": None, "laplace_check": _laplace},
    "laws": {
        "check_domination": _law,
        "check_superadditivity": _law,
        "check_fekete": _law,
        "check_bounds_and_max": _law,
    },
    "cli": {"run": None, "emit_curve": None},
}

# The one function whose peak-RSS growth per call is recorded.
_RSS_TRACKED = "counter.mean_distribution"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _KB_PER_MB


class Tracer:
    """In-memory span list with a stack for parent links."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.meta: Dict[str, Any] = {}
        # Released before writing, so a run that ended in MemoryError at the
        # address-space limit still has room to write its spans.
        self._reserve = bytearray(_RESERVE_BYTES)

    def wrap(self, name: str, fn, extract):
        track_rss = name == _RSS_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [self._stack[-1] if self._stack else -1, name, 0.0, 0.0, {}]
            self.spans.append(span)
            self._stack.append(index)
            rss_before = _maxrss_mb() if track_rss else 0.0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = time.perf_counter()
                self._stack.pop()
                span[4]["error"] = type(exc).__name__
                if track_rss:
                    span[4]["rss_growth_mb"] = _maxrss_mb() - rss_before
                raise
            span[3] = time.perf_counter()
            self._stack.pop()
            if extract is not None:
                span[4].update(extract(result))
            if track_rss:
                span[4]["rss_growth_mb"] = _maxrss_mb() - rss_before
            return result

        return wrapper

    def dump(self, path: str) -> None:
        self._reserve = None
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": self.meta, "spans": self.spans}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every package name bound to it."""
    bound = [
        mod for key, mod in sys.modules.items()
        if key == "morse_entropy" or key.startswith("morse_entropy.")
    ]
    for module_name, functions in TRACED.items():
        home = sys.modules[f"morse_entropy.{module_name}"]
        for fn_name, extract in functions.items():
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, extract)
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
