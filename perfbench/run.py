#!/usr/bin/env python3
"""pilotflow benchmark: run one workload and print its metrics.

Run from the repository root, which must hold the package sources under
``src/pilotflow``:

    python3 perfbench/run.py --workload sim_queued --seed 1 --seconds 35 --trace 0

A run first sets up and runs one check trial at the default seed, untimed.
It then repeats set-up and trial on ``--seed``'s inputs for ``--seconds``
seconds, so that the set-up samples are spread over the run like the trial
samples. ``setup_s`` is the median over every set-up, trial times are
means over the trials, and rates are total work over total time. Every
trial, the check trial included, passes a correctness gate.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run plus the tracing overhead; its untraced and traced trials
alternate. The exit status is 0 when every trial passed its gate, 1 when
one did not, and 2 when the sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
MIN_TRIALS = 3
# Set-up is short next to a trial; timing it several times per trial gives
# setup_s more samples, spread over the run like the trials.
SETUPS_PER_TRIAL = 3

# The benchmark's own modules import pilotflow, so import_sources() loads
# them once it has found the package sources.
workloads = tracing = None

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "trial_s": "s",
    "tasks_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scheduler.find_offset_calls": "count",
    "scheduler.find_offset_s": "s",
    "scheduler.place_ready_calls": "count",
    "scheduler.place_ready_s": "s",
    "scheduler.placements": "count",
    "scheduler.fit_yield": "ratio",
    "scheduler.max_waiting": "count",
    "units.translate_calls": "count",
    "units.translate_s": "s",
    "units.pull_calls": "count",
    "units.units_per_pull": "units/pull",
    "units.pull_s": "s",
    "model.advance_calls": "count",
    "model.advance_s": "s",
    "model.peak_core_demand_s": "s",
    "runtime.tracker_init_s": "s",
    "runtime.on_terminal_s": "s",
    "profiling.append_calls": "count",
    "profiling.append_s": "s",
    "profiling.events_s": "s",
    "profiling.write_csv_s": "s",
    "latency.sample_calls": "count",
    "backend.self_s": "s",
    "backend.busy_s": "s",
    "log.stage_in_share": "ratio",
    "log.exec_share": "ratio",
    "log.stage_out_share": "ratio",
    "metrics.compute_report_s": "s",
    "metrics.writers_s": "s",
    "protocols.expand_s": "s",
    "setup.other_s": "s",
    "scheduler.self_share": "ratio",
    "units.self_share": "ratio",
    "model.self_share": "ratio",
    "runtime.self_share": "ratio",
    "profiling.self_share": "ratio",
    "latency.self_share": "ratio",
    "backend.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
        "seed": seed,
        # The collector stays on: it is a large share of simulator run
        # time, and users pay it.
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }


class Gate:
    """Correctness gate over a run's trials; counts attempted and failed tasks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, trial, inputs, expected: str | None):
        """Check one trial; returns whether it passed and its log's digest."""
        problems, digest = workloads.check_trial(trial, inputs, expected)
        self.attempted += inputs.tasks
        not_done = inputs.tasks - trial.report.done_tasks
        # A trial whose tasks all finished but whose log or outputs are
        # wrong counts every task as failed.
        self.failed += not_done if not_done else (inputs.tasks if problems else 0)
        self.problems.extend(f"{label}: {problem}" for problem in problems)
        return not problems, digest

    def raised(self, label: str, tasks: int) -> None:
        self.attempted += tasks
        self.failed += tasks
        self.problems.append(f"{label}: raised\n{traceback.format_exc()}")


def measure(workload, seed, seconds, gate, expected, work_dir, tracer=None):
    """Set up and run trials for ``seconds`` (at least MIN_TRIALS of each kind).

    ``expected`` is the digest every sim trial must reproduce; when None,
    the first trial's digest becomes it. With a tracer, trials alternate
    between untraced and traced, so that both kinds meet the same host
    speed. Returns one dict per trial.
    """
    rows: list[dict] = []
    kinds = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    # A trial is started only if one more, as long as the last, still ends
    # within ``seconds``, so a run never overshoots by a whole trial.
    last = 0.0
    while len(rows) < MIN_TRIALS * len(kinds) or (
        time.perf_counter() - start + last < seconds
    ):
        began_trial = time.perf_counter()
        traced = kinds[len(rows) % len(kinds)]
        label = f"trial {len(rows) + 1}{' (traced)' if traced else ''}"
        row = {"traced": traced, "setup_samples": []}
        with tracer if traced else contextlib.nullcontext():
            for _ in range(SETUPS_PER_TRIAL):
                data_root = work_dir / "data"
                shutil.rmtree(data_root, ignore_errors=True)
                inputs = None
                gc.collect()
                if traced:
                    tracer.reset()
                began = time.perf_counter()
                inputs = workloads.build(workload, seed, data_root)
                row["setup_samples"].append(time.perf_counter() - began)
            if traced:
                row.update(
                    tracing.setup_metrics(tracer.snapshot(), row["setup_samples"][-1])
                )
                tracer.reset()
            try:
                trial = workloads.run_trial(inputs, work_dir)
            except Exception:
                gate.raised(label, inputs.tasks)
                break
        events = len(trial.log.events)
        row.update(
            run_s=trial.run_s,
            trial_s=trial.trial_s,
            tasks_per_s=inputs.tasks / trial.trial_s,
            events_per_s=events / trial.run_s,
            tasks=inputs.tasks,
            cores=inputs.request.cores,
            events=events,
        )
        if traced:
            row.update(tracing.trial_metrics(tracer.snapshot(), trial.log))
        rows.append(row)
        ok, digest = gate.check(label, trial, inputs, expected)
        row["digest"] = expected = expected or digest
        # Free this trial before the next set-up, so that peak_rss_mb
        # holds one trial's data, not two.
        del trial, inputs
        if not ok:
            break
        last = time.perf_counter() - began_trial
    return rows


def describe(name: str, values: list[float], unit: str) -> str:
    samples = " ".join(f"{value:.4g}" for value in values)
    return (
        f"# {name:<14} mean {statistics.fmean(values):.6g} "
        f"median {statistics.median(values):.6g} {unit} "
        f"over n={len(values)}: {samples}"
    )


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_sources() -> bool:
    """Import pilotflow from this checkout's ``src``; False when it is not there."""
    global workloads, tracing
    if not (SRC / "pilotflow" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'pilotflow'}", file=sys.stderr)
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import pilotflow

    if Path(pilotflow.__file__).resolve().parent != SRC / "pilotflow":
        print(f"perfbench: pilotflow came from {pilotflow.__file__}", file=sys.stderr)
        return False
    import tracing
    import workloads

    return True


def main(argv=None, workload_table=None, digests=None) -> int:
    """Entry point; tests pass their own workload table and digests."""
    if not import_sources():
        return 2
    table = workloads.WORKLOADS if workload_table is None else workload_table
    if digests is None:
        digests = json.loads((HERE / "digests.json").read_text())
    args = parse_args(argv, table)
    workload = table[args.workload]
    recorded = digests.get(workload.name) if workload.backend == "sim" else None

    print("# context " + json.dumps(context(args.seed), sort_keys=True))
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    gate = Gate()
    check_digest = None
    try:
        # The check trial compares the default seed's log with the recorded
        # digest, whatever --seed is; it also warms the interpreter up.
        label = f"check trial (seed {DEFAULT_SEED})"
        inputs = workloads.build(workload, DEFAULT_SEED, work_dir / "data")
        try:
            trial = workloads.run_trial(inputs, work_dir)
            _, check_digest = gate.check(label, trial, inputs, recorded)
            del trial
        except Exception:
            gate.raised(label, inputs.tasks)
        del inputs
        expected = recorded if args.seed == DEFAULT_SEED else None
        tracer = tracing.Tracer() if args.trace else None
        measured = measure(
            workload, args.seed, args.seconds, gate, expected, work_dir, tracer
        )
        rows = [row for row in measured if not row["traced"]]
        traced = [row for row in measured if row["traced"]]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    if rows:
        print(
            f"# {workload.name}: {rows[0]['tasks']} tasks on {rows[0]['cores']} "
            f"cores, {rows[0]['events']} events, {len(rows)} trials"
            + (f" + {len(traced)} traced" if traced else "")
        )
    if workload.backend == "sim":
        print(f"# event-log sha256 at seed {DEFAULT_SEED}: {check_digest}")
        if rows:
            print(f"# event-log sha256 at seed {args.seed}: {rows[0]['digest']}")
    for problem in gate.problems:
        print(f"# GATE FAILED {problem}")

    values: dict[str, float] = {}
    if rows:
        setup = [sample for row in rows for sample in row["setup_samples"]]
        print(describe("setup_s", setup, "s"))
        values["setup_s"] = statistics.median(setup)
        for name in ("run_s", "trial_s", "tasks_per_s", "events_per_s"):
            print(describe(name, [row[name] for row in rows], END_TO_END[name]))
        # Trial times are the run's totals over its trial count, and rates
        # its total work over its total time: the host's speed switches
        # between a few levels for seconds at a time, and a median jumps
        # between those levels where a mean over the whole run does not.
        run_total = math.fsum(row["run_s"] for row in rows)
        trial_total = math.fsum(row["trial_s"] for row in rows)
        values["run_s"] = run_total / len(rows)
        values["trial_s"] = trial_total / len(rows)
        values["tasks_per_s"] = sum(row["tasks"] for row in rows) / trial_total
        values["events_per_s"] = sum(row["events"] for row in rows) / run_total
        values["peak_rss_mb"] = peak_rss_mb
    units = PER_LAYER if args.trace else END_TO_END
    if traced:
        # The middle sample itself, so that counts stay whole numbers.
        for name in PER_LAYER:
            if name in traced[0]:
                values[name] = statistics.median_low(row[name] for row in traced)
        values["trace.overhead_ratio"] = (
            statistics.fmean(row["run_s"] for row in traced) / values["run_s"]
        )
    correct = not gate.problems and all(name in values for name in units)
    result = {
        "correct": correct,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
