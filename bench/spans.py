"""Out-of-program instrumentation for the namelearn benchmark.

Two recorders patch the package's public functions and methods for the
duration of one workload pass and restore them afterwards:

* ``StepClock`` (plain runs) takes two clock reads around every train step
  and every loss evaluation (one ``bus.run_round`` call), and marks where each
  ``grad_check`` call starts, so the end-to-end step latencies can be read off.
* ``Tracer`` (traced runs) records one span per call at every layer boundary:
  name, start, end, parent span and cell id.  It also counts tape entries per
  ``backward``, message-log records and snapshot bytes held per cell, and
  coordinates perturbed per ``grad_check``.

Names bound by ``from x import y`` are patched where they are looked up, so
one span name can have several patch sites.  The grad check imports
``run_round`` inside its closure at call time, which is why patching
``namelearn.bus.run_round`` reaches it.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from array import array

# Span name -> the places its function is looked up, as (module, class or
# None, attribute).
SPAN_SITES = {
    "world.build": [
        ("namelearn.world", None, "build_world"),
        ("namelearn.harness", None, "build_world"),
        ("namelearn.selfcheck", None, "build_world"),
    ],
    "world.sample": [("namelearn.world", "World", "sample_images")],
    "session.init": [("namelearn.session", "TrainingSession", "__init__")],
    "session.build_batch": [("namelearn.session", "TrainingSession", "build_batch")],
    "session.train_step": [("namelearn.session", "TrainingSession", "train_step")],
    "session.evaluate": [("namelearn.session", "TrainingSession", "evaluate")],
    "session.coordinator_step": [("namelearn.session", "CoordinatorAgent", "step")],
    "bus.run_round": [
        ("namelearn.bus", None, "run_round"),
        ("namelearn.session", None, "run_round"),
    ],
    "image_agent.step": [("namelearn.image_agent", "ImageAgent", "step")],
    "name_agent.step": [("namelearn.name_agent", "NameAgent", "step")],
    "text_agent.step": [("namelearn.text_agent", "TextAgent", "step")],
    "coordinator.loss": [("namelearn.session", None, "total_loss")],
    "coordinator.adam": [("namelearn.coordinator", "Adam", "step")],
    "autodiff.backward": [
        ("namelearn.autodiff", None, "backward"),
        ("namelearn.session", None, "backward"),
    ],
    "harness.run_cell": [("namelearn.harness", None, "run_cell")],
    "harness.emit": [("namelearn.harness", None, "emit_metrics")],
    "selfcheck.grad_check": [("namelearn.selfcheck", None, "grad_check")],
}

# A call to one of these opens a cell; every span inside it carries its id.
CELL_SPANS = ("harness.run_cell", "selfcheck.grad_check")


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Patches:
    """Context manager: install replacement attributes, restore on exit."""

    def __init__(self, replacements):
        self.replacements = list(replacements)  # (owner, attribute, new value)
        self.saved = []

    def __enter__(self):
        for owner, attr, new in self.replacements:
            self.saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()
        return False


def _wrap_sites(name: str, make_wrapper):
    """Replacement list wrapping every site of one span name; sites that share
    an original function share one wrapper."""
    wrappers = {}
    out = []
    for module, cls, attr in SPAN_SITES[name]:
        owner = _owner(module, cls)
        original = vars(owner)[attr]
        if id(original) not in wrappers:
            wrappers[id(original)] = make_wrapper(original)
        out.append((owner, attr, wrappers[id(original)]))
    return out


class StepClock:
    """Plain-run timing: train steps, loss evaluations, grad-check starts."""

    def __init__(self):
        # Flat int64 arrays, so that what the clock keeps barely moves the
        # process's peak memory however many passes run.
        self.train_steps = array("q")  # durations, ns
        self.round_starts = array("q")  # ns
        self.round_ends = array("q")  # ns
        self.grad_check_starts: list[int] = []  # index into the rounds

    def _timed(self, sink):
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = time.perf_counter_ns()
                out = fn(*args, **kwargs)
                sink(t0, time.perf_counter_ns())
                return out

            return timed

        return make

    def _marked(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.grad_check_starts.append(len(self.round_starts))
            return fn(*args, **kwargs)

        return marked

    def patches(self) -> Patches:
        return Patches(
            _wrap_sites(
                "session.train_step",
                self._timed(lambda t0, t1: self.train_steps.append(t1 - t0)),
            )
            + _wrap_sites("bus.run_round", self._timed(self._round))
            + _wrap_sites("selfcheck.grad_check", self._marked)
        )

    def _round(self, t0: int, t1: int) -> None:
        self.round_starts.append(t0)
        self.round_ends.append(t1)

    def loss_evals(self) -> list[int]:
        return [t1 - t0 for t0, t1 in zip(self.round_starts, self.round_ends)]

    def coordinate_steps(self) -> list[int]:
        """Durations of grad-check coordinates: each ``grad_check`` call runs
        one taped evaluation, then two untaped evaluations per coordinate."""
        out = []
        bounds = self.grad_check_starts + [len(self.round_starts)]
        for lo, hi in zip(bounds, bounds[1:]):
            for i in range(lo + 1, hi - 1, 2):
                out.append(self.round_ends[i + 1] - self.round_starts[i])
        return out


class Tracer:
    """Span recorder plus the exact per-layer counts."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, parent, start_ns, end_ns, cell)
        self.stack: list[int] = []
        self.cell = 0  # 0: outside any cell
        self.n_cells = 0
        self.tape_entries: list[int] = []  # per backward call
        self.coords: list[int] = []  # per grad_check call
        self.log_peak: dict[int, tuple[int, int]] = {}  # cell -> (records, bytes)
        # bus -> (its log's first record, records, bytes) as last counted
        self._log_held = weakref.WeakKeyDictionary()

    def _span(self, name: str, fn, before=None, after=None):
        opens_cell = name in CELL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_cell = self.cell
            if opens_cell and outer_cell == 0:
                self.n_cells += 1
                self.cell = self.n_cells
            if before is not None:
                before(args)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                self.spans[sid] = (name, parent, t0, t1, self.cell)
                self.cell = outer_cell
            if after is not None:
                after(args)
            return out

        return traced

    def _count_tape(self, args) -> None:
        self.tape_entries.append(len(args[0]))

    def _count_coords(self, args) -> None:
        self.coords.append(sum(p.data.size for p in args[1]))

    def _count_log(self, args) -> None:
        """Records and value-snapshot bytes the bus log holds after a round,
        updated incrementally from the records this round appended."""
        bus = args[0]
        log = bus.log
        first, held_records, held_bytes = self._log_held.get(bus, (None, 0, 0))
        if not log or log[0] is not first or len(log) < held_records:
            # First round on this bus, or the caller cleared the log since.
            first, held_records, held_bytes = (log[0] if log else None), 0, 0
        for rec in log[held_records:]:
            if rec.values is not None:
                held_bytes += rec.values.nbytes
        held_records = len(log)
        self._log_held[bus] = (first, held_records, held_bytes)
        peak = self.log_peak.get(self.cell, (0, 0))
        self.log_peak[self.cell] = (max(peak[0], held_records), max(peak[1], held_bytes))

    def patches(self) -> Patches:
        hooks = {
            "autodiff.backward": (self._count_tape, None),
            "selfcheck.grad_check": (self._count_coords, None),
            "bus.run_round": (None, self._count_log),
        }
        replacements = []
        for name in SPAN_SITES:
            before, after = hooks.get(name, (None, None))
            replacements += _wrap_sites(
                name, lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a)
            )
        return Patches(replacements)

    def mark(self) -> dict:
        """Positions of every record list, to slice one pass out later."""
        return {
            "spans": len(self.spans),
            "tape": len(self.tape_entries),
            "coords": len(self.coords),
            "cells": self.n_cells,
        }


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part its direct children cover.
    Calls are single-threaded, so children never overlap each other."""
    child = [0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, _, t0, t1, _), c in zip(spans, child)]
