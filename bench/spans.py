"""Spans around the calls into each qbm layer, for traced runs only.

The tracer replaces the public names that qbm's own modules look up when
they call into another layer, and restores them on uninstall; qbm's source
is never touched.  Each span records name, start, end, parent and thread.
Spans stay in memory until the traced process writes them out at exit.

This module imports nothing heavy, so the traced child can time the import
of qbm (and numpy) as a span of its own.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc

# module -> names it looks up when calling into another layer
LOOKUPS = {
    "qbm.cli": (
        "parse_config",
        "build_bath",
        "solve_spectrum",
        "oscillator_population",
        "survival_probability",
        "coefficient_series",
        "mean_position",
        "estimate_gamma",
        "run",
        "build_report",
    ),
    "qbm.config": ("build_bath",),
    "qbm.evolution": ("moment_signal", "overlap_matrix"),
    "qbm.langevin": ("moment_signal",),
}

# span name for each wrapped function: <layer>.<function>
SPAN_NAMES = {
    "parse_config": "config.parse_config",
    "build_bath": "model.build_bath",
    "solve_spectrum": "spectrum.solve_spectrum",
    "overlap_matrix": "spectrum.overlap_matrix",
    "oscillator_population": "evolution.oscillator_population",
    "survival_probability": "evolution.survival_probability",
    "moment_signal": "langevin.moment_signal",
    "coefficient_series": "langevin.coefficient_series",
    "mean_position": "langevin.mean_position",
    "estimate_gamma": "langevin.estimate_gamma",
    "run": "cli.run",
    "build_report": "cli.build_report",
}


class Tracer:
    """Collects spans as [name, start, end, parent, thread, items] lists.

    parent is the index of the enclosing span: the innermost open span of
    the same thread, or, for a pool worker with nothing open, the main
    thread's innermost open span (the one waiting on the pool).  items is a
    work count: roots for the solve, (N+1) * times for the population.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.spectrum = None  # last solve_spectrum result
        self.peak_alloc_bytes = None  # tracemalloc peak of the first population call
        self._lock = threading.Lock()
        self._alloc_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._originals: dict[tuple[object, str], object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident(), 0])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _wrap(self, attr: str, fn):
        name = SPAN_NAMES[attr]
        if attr == "solve_spectrum":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    spec = fn(*args, **kwargs)
                finally:
                    self.close(index)
                self.spans[index][5] = spec.n_levels
                self.spectrum = spec
                return spec

        elif attr == "oscillator_population":

            @functools.wraps(fn)
            def wrapper(spec, occ0, times):
                # The first call runs alone under tracemalloc, so its peak is
                # one worker's; later calls pass the lock at once.
                with self._alloc_lock:
                    if self.peak_alloc_bytes is None:
                        tracemalloc.start()
                        try:
                            return self._population(name, fn, spec, occ0, times)
                        finally:
                            self.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
                            tracemalloc.stop()
                return self._population(name, fn, spec, occ0, times)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _population(self, name, fn, spec, occ0, times):
        index = self.open(name)
        try:
            values = fn(spec, occ0, times)
        finally:
            self.close(index)
        self.spans[index][5] = spec.n_levels * int(values.size)
        return values

    def install(self) -> None:
        """Replace every name in LOOKUPS with a span-recording wrapper; a
        function looked up from several modules shares one wrapper."""
        wrappers = {}
        for module_name, attrs in LOOKUPS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(attr, fn)
                self._originals[(module, attr)] = fn
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for (module, attr), fn in self._originals.items():
            setattr(module, attr, fn)
        self._originals.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover
    (children on several threads may overlap, so their union is taken)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, thread, items in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result
