"""In-memory span tracing of skyrelay's public functions, wrapped from outside.

:class:`Tracer` replaces chosen module attributes with wrappers that record
one span per call: a name, a ``perf_counter`` start and end, and the index
of the enclosing span.  The program is not edited; a call resolves the
wrapper because every hot-path call goes through a module attribute or a
module global.  :func:`self_times` and :func:`category_time` turn a span
list into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Every span the traced run records, as "module.function": the spans behind
# the per-layer metrics and phase shares.  check_discrete, to_placement and
# to_flight_plan stay unwrapped: they are the glue counted in the self time
# of encoding.evaluate.
TRACED = (
    "scenario.gen_scenario",
    "scenario.load_scenario",
    "encoding.repair_continuous",
    "encoding.evaluate",
    "radio.link_rates",
    "energy.average_flight_energy",
    "energy.flight_time_spread",
    "moea.sbx",
    "moea.poly_mutation",
    "moea.fast_non_dominated_sort",
    "moea.nsga3_select",
    "moea.crowding_select",
    "solvers.probabilistic_learning_operator",
    "solvers.uav_number_adjust",
)


class Tracer:
    """Span store: parallel lists indexed by span id, in order of opening."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.feasible = 0  # feasible results returned by encoding.evaluate
        self._open: list[int] = []

    def clear(self) -> None:
        """Drop recorded spans in place; installed wrappers keep working."""
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()
        self.feasible = 0

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        count_feasible = name == "encoding.evaluate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count_feasible and result.feasible:
                self.feasible += 1
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for span in TRACED:
                module_name, attr = span.split(".")
                module = importlib.import_module(f"skyrelay.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(names, durations in seconds, parent ids) of the closed spans."""
        return (
            np.array(self.names, dtype=object),
            np.array(self.ends) - np.array(self.starts),
            np.array(self.parents, dtype=np.int64),
        )


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another in a single thread, so the
    sum of their durations is the part of the parent's interval they cover.
    """
    has_parent = parents >= 0
    child_sum = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=len(durations)
    )
    return durations - child_sum


def category_time(
    names: np.ndarray, durations: np.ndarray, parents: np.ndarray, members
) -> float:
    """Seconds covered by spans named in ``members``, nested ones counted once.

    A span counts only when none of its ancestors is also a member, so a
    sort inside a selection is not added on top of the selection.
    """
    member = np.isin(names, list(members))
    covered = np.zeros(len(names), dtype=bool)
    ancestor = parents.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        covered[live] |= member[ancestor[live]]
        ancestor[live] = parents[ancestor[live]]
    return float(durations[member & ~covered].sum())
