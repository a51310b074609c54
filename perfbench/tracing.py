"""In-memory spans around the calls into each emtomo layer.

The benchmark opens spans around its own calls (record read, kernel, scan,
grid write) and, while :func:`instrument` is active, around the functions
that ``emtomo.pipeline`` and ``emtomo.fock_kernel`` look up at call time:
the per-point histogram and EM, and the kernel build, load and save behind
``load_or_build_kernel``.  The originals are put back when the block exits,
also on error.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import numpy as np

from emtomo import fock_kernel, pipeline


class Tracer:
    """Collects spans (name, start, end, parent, attributes) in a list."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()


class NullTracer:
    """Stand-in used for untraced runs; its spans cost one call."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield attrs


def _hist_attrs(args, result):
    return {"samples": int(args[0].sample_count), "overflow": int(result.overflow)}


def _em_attrs(args, result):
    hist, kernel = args[0], args[1]
    diag = result[1]
    return {"active": int(np.count_nonzero(hist.counts)), "dim": kernel.n_max + 1,
            "iterations": int(diag.iterations_run), "stop": diag.stop_reason}


def _kernel_attrs(args, result):
    return {"bytes": int(result.entries.nbytes),
            "worst_deficit": float(np.max(result.column_deficits))}


# (module, function name, span name, attributes taken from args and result)
WRAPPED = (
    (pipeline, "shift_and_histogram", "homodyne.hist", _hist_attrs),
    (pipeline, "reconstruct_photon_distribution", "em.reconstruct", _em_attrs),
    (fock_kernel, "build_kernel_matrix", "fock_kernel.build", _kernel_attrs),
    (fock_kernel, "load_kernel", "fock_kernel.load", _kernel_attrs),
    (fock_kernel, "save_kernel", "fock_kernel.save", None),
)


def _wrap(tracer: Tracer, func, span_name: str, attrs):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(span_name) as record:
            result = func(*args, **kwargs)
            if attrs is not None:
                record.update(attrs(args, result))
            return result
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the wrapped emtomo functions through ``tracer`` for the block."""
    originals = []
    try:
        for module, attr, span_name, attrs in WRAPPED:
            func = getattr(module, attr)
            originals.append((module, attr, func))
            setattr(module, attr, _wrap(tracer, func, span_name, attrs))
        yield tracer
    finally:
        for module, attr, func in reversed(originals):
            setattr(module, attr, func)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def subtree(spans: list, root_id: int) -> list:
    """The span ``root_id`` and every span below it (spans are in start order)."""
    keep = {root_id}
    out = []
    for s in spans:
        if s["id"] in keep or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out
