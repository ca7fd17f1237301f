"""Spans around stimamp's public functions, recorded from outside the library.

stimamp modules import each other's functions by value (for example
``statistics`` holds its own ``scatter`` binding), so wrapping only the
defining module would miss most calls.  ``Tracer`` finds every binding of
a layer function across the loaded ``stimamp.*`` modules and swaps a
recording wrapper into each of them while installed.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# Layer functions whose spans the benchmark records, named module.function.
LAYERS = (
    "cli.main",
    "cli.build_parser",
    "cli.render",
    "protocol.transmit",
    "statistics.monte_carlo_probs",
    "statistics.first_principles_probs",
    "statistics.closed_form_probs",
    "statistics.sweep",
    "amplifier.scatter",
    "fock.two_photon_rotation",
    "fock.apply_rotation",
    "fock.projection_triple",
    "fock.symmetric_lift",
    "kinematics.violation_threshold",
    "kinematics.run_loop",
)

# Work counted at a layer boundary: (argument name, position) -> amount.
WORK = {
    "statistics.monte_carlo_probs": ("n", 2, int),
    "protocol.transmit": ("bits", 1, len),
}


class SiteError(RuntimeError):
    """A layer function is missing, so its spans cannot be recorded."""


class Tracer:
    """Records one span per call of each layer function while installed.

    A span is ``(name, start, end, parent_index, work)``; the parent is
    the innermost wrapped call open when the span started.
    """

    def __init__(self, package: str = "stimamp"):
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        self.spans: list = []
        self._stack: list[int] = []
        self.bindings: dict[str, list[str]] = {}
        self._patches = []
        for layer in LAYERS:
            module_name, attr = layer.rsplit(".", 1)
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                raise SiteError(f"wrap site {package}.{layer} is missing")
            wrapper = self._wrap(layer, original)
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            self.bindings[layer] = [f"{m.__name__}.{key}" for m, key in sites]
            self._patches.extend((m, key, original, wrapper) for m, key in sites)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = 0
            if work is not None:
                arg, pos, measure = work
                amount = measure(args[pos] if len(args) > pos else kwargs[arg])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, amount)

        return traced

    @contextmanager
    def installed(self):
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original, _ in self._patches:
                setattr(module, key, original)

    def take(self) -> dict:
        """Per-layer totals of the spans recorded since the last take."""
        if self._stack:
            raise RuntimeError("spans still open")
        totals = layer_totals(self.spans)
        self.spans.clear()
        return totals


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    ``spans`` holds ``(name, start, end, parent_index, ...)`` tuples with
    every parent listed before its children.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def layer_totals(spans) -> dict:
    """``{layer: {"calls", "self_s", "work"}}`` summed over ``spans``."""
    totals = {layer: {"calls": 0, "self_s": 0.0, "work": 0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["work"] += span[4] if len(span) > 4 else 0
    return totals


def rank_percentile(values, percent: int):
    """Nearest-rank percentile and the number of samples above its rank.

    The value is the ``ceil(percent * n / 100)``-th smallest sample; integer
    arithmetic keeps the rank exact for every n.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, -(-percent * n // 100))
    return ordered[rank - 1], n - rank


def reportable_percentile(values, percent: int, min_beyond: int = 10):
    """The percentile, or ``None`` when fewer than ``min_beyond`` samples lie beyond it."""
    value, beyond = rank_percentile(values, percent)
    return value if beyond >= min_beyond else None
