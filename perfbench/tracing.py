"""Outside-in tracing of pilotflow's layers, without editing the package.

:class:`Tracer` swaps public functions and methods of the ``pilotflow``
modules for wrappers that record a span per call, and puts the originals
back on exit. Functions a backend imported by name (``translate_task``,
``advance_task_state``) are swapped in that backend's namespace, where it
looks them up. Only the main thread is traced; the local backend's worker
threads run no wrapped function.

A span's self time is its duration minus the time of the spans it called.
A layer is the part of a span name before the first dot; its share is its
self time over the self time of every span inside the backend's run.
"""

from __future__ import annotations

import queue
import threading
import time
import types
from collections import defaultdict

from pilotflow import (
    latency,
    localbackend,
    metrics,
    model,
    profiling,
    protocols,
    runtime,
    scheduler,
    simbackend,
    units,
)

# Span names: the same name may cover several entry points.
SPANS = (
    (protocols, "esmacs_protocol", "protocols.expand"),
    (protocols, "protocol_to_dict", "protocols.expand"),
    (protocols, "protocol_from_dict", "protocols.expand"),
    (protocols, "protocol_to_workflow", "protocols.expand"),
    (model, "peak_core_demand", "model.peak_core_demand"),
    (simbackend, "sim_run", "backend.run"),
    (localbackend, "local_run", "backend.run"),
    (simbackend, "translate_task", "units.translate"),
    (localbackend, "translate_task", "units.translate"),
    (simbackend, "advance_task_state", "model.advance"),
    (localbackend, "advance_task_state", "model.advance"),
    (units.TaskStore, "pull", "units.pull"),
    (scheduler.CoreMap, "find_offset", "scheduler.find_offset"),
    (scheduler.FirstFitScheduler, "offer", "scheduler.offer"),
    (scheduler.FirstFitScheduler, "place_ready", "scheduler.place_ready"),
    (runtime.WorkflowTracker, "__init__", "runtime.tracker_init"),
    (runtime.WorkflowTracker, "on_terminal", "runtime.on_terminal"),
    (profiling.ProfileSink, "append", "profiling.append"),
    (profiling.ProfileSink, "events", "profiling.events"),
    (profiling.EventLog, "write_csv", "profiling.write_csv"),
    (latency.Sampler, "sample", "latency.sample"),
    (metrics, "compute_report", "metrics.compute_report"),
    (metrics, "reports_to_csv", "metrics.writers"),
)

# The local engine blocked on its results queue: idle, not engine work.
WAIT_SPAN = "backend.wait"
# Calls, total seconds and self seconds of a span that never ran.
NO_SPAN = (0, 0.0, 0.0)
# A trial's calls after the run; none of them calls another wrapped function.
AFTER_RUN = ("metrics.compute_report", "metrics.writers", "profiling.write_csv")


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self._main = threading.get_ident()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, enter=None, leave=None):
        stack = self._stack
        main = self._main
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                span = self.spans[name]
                span[0] += 1
                span[1] += took
                span[2] += took - children
            if leave is not None:
                leave(result)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _on_place_enter(self, args) -> None:
        waiting = args[0].waiting_count()
        if waiting > self.counts["scheduler.max_waiting"]:
            self.counts["scheduler.max_waiting"] = waiting

    def _on_place_leave(self, placed) -> None:
        self.counts["scheduler.placements"] += len(placed)

    def _on_pull_leave(self, result) -> None:
        self.counts["units.pulled"] += len(result[0])

    def __enter__(self) -> Tracer:
        hooks = {
            "scheduler.place_ready": (self._on_place_enter, self._on_place_leave),
            "units.pull": (None, self._on_pull_leave),
        }
        for owner, attr, name in SPANS:
            enter, leave = hooks.get(name, (None, None))
            self._replace(owner, attr, self.wrap(name, vars(owner)[attr], enter, leave))
        timed_get = self.wrap(WAIT_SPAN, queue.Queue.get)
        timed_queue = type("TimedQueue", (queue.Queue,), {"get": timed_get})
        self._replace(
            localbackend,
            "queue",
            types.SimpleNamespace(Queue=timed_queue, Empty=queue.Empty),
        )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Copy of the spans and counts collected since the last reset."""
        return {
            "spans": {name: list(span) for name, span in self.spans.items()},
            "counts": dict(self.counts),
        }


# Layers that do work inside a run; the shares are of the run's self time.
LAYERS = (
    "scheduler",
    "units",
    "model",
    "runtime",
    "profiling",
    "latency",
    "backend",
)


def trial_metrics(snapshot: dict, log) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced trial and its log."""
    spans = snapshot["spans"]
    counts = snapshot["counts"]

    def calls(name: str) -> int:
        return spans.get(name, NO_SPAN)[0]

    def total(name: str) -> float:
        return spans.get(name, NO_SPAN)[1]

    def own(name: str) -> float:
        return spans.get(name, NO_SPAN)[2]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in spans.items():
        if name != WAIT_SPAN and name not in AFTER_RUN:
            layer_self[name.split(".", 1)[0]] += self_s
    run_self = sum(layer_self.values())

    out = {
        "scheduler.find_offset_calls": calls("scheduler.find_offset"),
        "scheduler.find_offset_s": total("scheduler.find_offset"),
        "scheduler.place_ready_calls": calls("scheduler.place_ready"),
        "scheduler.place_ready_s": total("scheduler.place_ready"),
        "scheduler.placements": counts.get("scheduler.placements", 0),
        "scheduler.fit_yield": counts.get("scheduler.placements", 0)
        / max(1, calls("scheduler.find_offset")),
        "scheduler.max_waiting": counts.get("scheduler.max_waiting", 0),
        "units.translate_calls": calls("units.translate"),
        "units.translate_s": total("units.translate"),
        "units.pull_calls": calls("units.pull"),
        "units.units_per_pull": counts.get("units.pulled", 0)
        / max(1, calls("units.pull")),
        "units.pull_s": total("units.pull"),
        "model.advance_calls": calls("model.advance"),
        "model.advance_s": total("model.advance"),
        "runtime.tracker_init_s": total("runtime.tracker_init"),
        "runtime.on_terminal_s": total("runtime.on_terminal"),
        "profiling.append_calls": calls("profiling.append"),
        "profiling.append_s": total("profiling.append"),
        "profiling.events_s": total("profiling.events"),
        "profiling.write_csv_s": total("profiling.write_csv"),
        "latency.sample_calls": calls("latency.sample"),
        "backend.self_s": own("backend.run"),
        # Main-thread time inside the run spent in the other layers.
        "backend.busy_s": total("backend.run")
        - own("backend.run")
        - total(WAIT_SPAN),
        "metrics.compute_report_s": total("metrics.compute_report"),
        "metrics.writers_s": total("metrics.writers"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / run_self
    # How the tasks' logged time splits between staging and execution: wall
    # time on the local backend, modeled time (fixed by the seed) in the
    # simulator.
    stems = ("stage_in", "exec", "stage_out")
    phases = {stem: interval_sum(log, stem) for stem in stems}
    for stem, seconds in phases.items():
        out[f"log.{stem}_share"] = seconds / sum(phases.values())
    return out


def setup_metrics(snapshot: dict, setup_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced set-up of ``setup_s``."""
    spans = snapshot["spans"]

    def total(name: str) -> float:
        return spans.get(name, NO_SPAN)[1]

    expand = total("protocols.expand")
    sizing = total("model.peak_core_demand")
    return {
        "protocols.expand_s": expand,
        "model.peak_core_demand_s": sizing,
        # Input materialization on the local workload; on the sim
        # workloads, building the backend config.
        "setup.other_s": setup_s - expand - sizing,
    }


def interval_sum(log, stem: str) -> float:
    """Summed ``stem`` interval length over the log, in log seconds."""
    begin = end = 0.0
    for event in log.events:
        if event.name == f"{stem}_begin":
            begin += event.time
        elif event.name == f"{stem}_end":
            end += event.time
    return end - begin
