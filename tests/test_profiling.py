"""Event records and the sink's ordering."""

from __future__ import annotations

import array
import csv
import gc
import io
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow import profiling
from pilotflow.latency import LatencyModel
from pilotflow.localbackend import LocalBackendConfig, local_run
from pilotflow.model import (
    Pipeline,
    ResourceRequest,
    Stage,
    TaskKind,
    TaskSpec,
    peak_core_demand,
)
from pilotflow.profiling import (
    _CSV_CHUNK_ROWS,
    EVENT_NAMES,
    EventLog,
    EventView,
    ProfileEvent,
    ProfileSink,
)
from pilotflow.simbackend import SimBackendConfig, sim_run

from helpers import by_name, coded_rows, event_view, generate_esmacs, name_code


@given(
    st.lists(
        # Few distinct times, so most events tie with others.
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.sampled_from(EVENT_NAMES)),
        max_size=60,
    )
)
@settings(max_examples=200)
def test_events_sort_by_time_then_append_order(draws):
    appended = [
        ProfileEvent(time=time, entity=f"e{index}", name=name)
        for index, (time, name) in enumerate(draws)
    ]
    rows, pipelines = coded_rows(appended)
    sink = ProfileSink(pipelines)
    for row in rows:
        sink.append(row)
    reference = [
        event
        for _, event in sorted(
            enumerate(appended), key=lambda pair: (pair[1].time, pair[0])
        )
    ]
    assert sink.events() == reference
    assert len(sink) == len(appended)


# One step of an engine's clock: advance it, settle at the new time, then
# append rows at or after it, each at clock + offset.
CLOCK_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 1.0]),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), max_size=6),
    ),
    max_size=30,
)


# The pipeline table of the sinks run_clock drives: code 1 is "p".
PIPELINES = ["", "p"]


def run_clock(sink, steps):
    """Drive ``sink`` through ``steps`` with valid settles; returns the rows
    appended, in order, and the final clock."""
    appended = []
    clock = 0.0
    for advance, offsets in steps:
        clock += advance
        sink.settle(clock)
        for offset in offsets:
            row = (clock + offset, f"e{len(appended)}", profiling.EXEC_BEGIN, 1, 0)
            appended.append(row)
            sink.append(row)
    return appended, clock


@given(st.integers(1, 9), CLOCK_STEPS)
@settings(max_examples=300)
def test_settled_events_equal_the_stable_sort_of_every_row(settle_rows, steps):
    with mock.patch.object(profiling, "_SETTLE_ROWS", settle_rows):
        sink = ProfileSink(PIPELINES)
        appended, _ = run_clock(sink, steps)
        assert len(sink) == len(appended)
        settled = EventView(PIPELINES)
        settled.extend(sorted(appended, key=lambda row: row[0]))
        assert sink.events() == settled


@given(
    st.integers(1, 9),
    CLOCK_STEPS,
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([1e-9, 0.25, 0.5]),
)
@settings(max_examples=200)
def test_a_row_before_a_settled_time_raises(settle_rows, steps, advance, early):
    with mock.patch.object(profiling, "_SETTLE_ROWS", settle_rows):
        sink = ProfileSink(PIPELINES)
        _, clock = run_clock(sink, steps)
        # Enough rows that this settle sorts the tail at its time, then a
        # row that breaks the promise it made.
        for _ in range(settle_rows):
            sink.append((clock, "filler", profiling.EXEC_BEGIN, 1, 0))
        clock += advance
        sink.settle(clock)
        sink.append((clock - early, "late", profiling.EXEC_BEGIN, 1, 0))
        with pytest.raises(ValueError, match="earlier than"):
            sink.events()


def test_profile_event_is_immutable():
    event = ProfileEvent(time=1.0, entity="task.0", name="done")
    with pytest.raises(AttributeError):
        event.time = 2.0
    assert event.pipeline == "" and event.stage == -1


def small_sim_log() -> EventLog:
    workflow = generate_esmacs(replicas=3)
    config = SimBackendConfig(
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
        seed=7,
    )
    request = ResourceRequest(cores=peak_core_demand(workflow), walltime=1e6)
    return sim_run(workflow, request, config)


def test_a_finished_log_holds_no_tracked_object_per_event():
    """A log's times and entities are lists of the engine's floats and
    strings, which CPython's cyclic collector does not track; its names,
    pipelines and stages are byte buffers of codes and ints, which hold no
    object per event at all. So a collection never walks a log however
    long it is."""
    log = small_sim_log()
    events = log.events
    gc.collect()
    assert len(events) > 0
    for column, kind in ((events.times, float), (events.entities, str)):
        assert type(column) is list and len(column) == len(events)
        assert {type(value) for value in column} == {kind}
        assert not any(gc.is_tracked(value) for value in column)
    assert type(events.names) is bytearray
    assert type(events.pipelines) is array.array
    assert type(events.stages) is array.array
    for codes, itemsize in (
        (events.names, 1),
        (events.pipelines, 4),
        (events.stages, 4),
    ):
        assert len(codes) == len(events)
        assert memoryview(codes).itemsize == itemsize
        # No referent but, for an array, its (heap) type.
        assert set(gc.get_referents(codes)) <= {type(codes)}
    # Name codes index the vocabulary of 20 names; the pipeline table
    # holds the pilot's empty id, then the three pipelines.
    assert max(events.names) < len(EVENT_NAMES) == 20
    assert events.pipeline_ids == ["", "esmacs-p1", "esmacs-p2", "esmacs-p3"]


def test_an_esmacs_log_costs_at_most_40_traced_bytes_per_event():
    """Two list slots, nine bytes of codes and the floats the engine made
    per event: 37.7 traced bytes per event here, down from 51.4 when the
    names, pipelines and stages were list slots too."""
    workflow = generate_esmacs(replicas=64)
    config = SimBackendConfig(
        queue_wait=LatencyModel.constant(2.0),
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
        seed=1,
    )
    request = ResourceRequest(cores=peak_core_demand(workflow), walltime=1e6)
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = sim_run(workflow, request, config)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert (held - before) / len(log.events) <= 40.0


def test_the_engines_write_exactly_the_vocabulary():
    """Over a clean sim run, a sim run cut by its walltime and a local NULL
    run with a failing command whose sibling is canceled, the names the
    engines write are the 20 of ``EVENT_NAMES``, no more and no fewer."""
    clean = small_sim_log()
    workflow = generate_esmacs(replicas=1)
    request = ResourceRequest(cores=peak_core_demand(workflow), walltime=5.0)
    cut = sim_run(workflow, request, SimBackendConfig())
    failing = Stage(
        [
            TaskSpec(id="bad", executable="/bin/sh", arguments=("-c", "exit 1")),
            TaskSpec(id="sibling", executable="/bin/sh", arguments=("-c", "sleep 5")),
        ]
    )
    workflow = generate_esmacs(replicas=1, kind=TaskKind.NULL_WORKLOAD)
    workflow.pipelines.append(Pipeline(id="failing", stages=[failing]))
    request = ResourceRequest(cores=peak_core_demand(workflow), walltime=300.0)
    local = local_run(workflow, request, LocalBackendConfig())
    assert local.extras["diagnostics"]["sibling"] == "canceled: sibling task bad failed"
    written = {event.name for log in (clean, cut, local) for event in log.events}
    assert written == set(EVENT_NAMES) and len(EVENT_NAMES) == 20


def test_each_event_name_has_its_code_as_a_constant():
    for code, name in enumerate(EVENT_NAMES):
        assert getattr(profiling, name.upper()) == code
    assert profiling.INTERVAL_STEMS == (
        "translate", "pull", "unit_io", "stage_in", "exec", "stage_out"
    )
    for kind, stem in enumerate(profiling.INTERVAL_STEMS):
        assert EVENT_NAMES[2 * kind : 2 * kind + 2] == (f"{stem}_begin", f"{stem}_end")


def test_a_name_outside_the_vocabulary_is_refused_by_name():
    """Only the test helpers turn names into codes; a name the engines
    cannot write raises, naming it."""
    with pytest.raises(ValueError, match="'one more'"):
        event_view([ProfileEvent(0.0, "t", "done"), ProfileEvent(1.0, "t", "one more")])
    with pytest.raises(ValueError, match="'Done'"):
        name_code("Done")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(EVENT_NAMES),
            st.text(alphabet=',"\r\n _pq', max_size=3),
            st.integers(-1, 2**31 - 1),
        ),
        max_size=40,
    )
)
@settings(max_examples=200)
def test_coded_columns_read_back_what_was_stored(rows):
    """Names, pipelines and stages read back as the values stored: names
    coded by the vocabulary, pipelines by a table in the order the ids
    first appear after the pilot's empty one."""
    names = [name for name, _, _ in rows]
    pipelines = [pipeline for _, pipeline, _ in rows]
    stages = [stage for _, _, stage in rows]
    times, entities = [0.5] * len(rows), ["t"] * len(rows)
    view = event_view(map(ProfileEvent, times, entities, names, pipelines, stages))
    assert [EVENT_NAMES[code] for code in view.names] == names
    assert [view.pipeline_ids[code] for code in view.pipelines] == pipelines
    assert list(view.stages) == stages
    assert view.pipeline_ids == list(dict.fromkeys(["", *pipelines]))
    for name in set(names):
        assert view.names.index(name_code(name)) == names.index(name)
    assert list(view) == list(zip(times, entities, names, pipelines, stages))


def test_event_view_reads_columns_as_profile_events():
    log = small_sim_log()
    events = log.events
    names = [EVENT_NAMES[code] for code in events.names]
    pipelines = [events.pipeline_ids[code] for code in events.pipelines]
    columns = (events.times, events.entities, names, pipelines, events.stages)
    assert len(events) == len(events.times)
    first_pass, second_pass = list(events), list(events)
    assert first_pass == second_pass
    assert len(first_pass) == len(events)
    for event, row in zip(first_pass, zip(*columns)):
        assert type(event) is ProfileEvent
        fields = (event.time, event.entity, event.name, event.pipeline, event.stage)
        assert fields == row
    assert events[0] == first_pass[0] and events[0].name == "submit"
    assert events[-1] == first_pass[-1] and events[-1].name == "pilot_done"
    assert type(events[0]) is ProfileEvent and type(events[-1]) is ProfileEvent
    assert events[1:3] == first_pass[1:3]
    assert all(type(event) is ProfileEvent for event in events[1:3])
    copied = event_view(first_pass)
    assert events == first_pass and events == copied
    assert repr(events) == repr(first_pass)
    done = by_name(log, "done")
    assert len(done) == 3 * 7
    assert done == [event for event in first_pass if event.name == "done"]
    assert all(type(event) is ProfileEvent for event in done)


def reference_csv(events, path):
    """Oracle: the rows written through csv.writer, one call per row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "entity", "event"])
        writer.writerows((repr(e.time), e.entity, e.name) for e in events)


def assert_matches_reference(events, tmp_path):
    log = EventLog(events=event_view(events), pilot_cores=1, backend="sim")
    log.write_csv(tmp_path / "got.csv")
    reference_csv(events, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# Strings that csv quotes (delimiter, quote, either line-end character) and
# strings it leaves alone, the empty one included.
AWKWARD = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " padded ", "task.0"]


def test_write_csv_matches_csv_writer_byte_for_byte(tmp_path):
    zero, negative_zero = 0.0, -0.0
    times = [zero, negative_zero, negative_zero, zero, float("-0.0"), 0.1, 0.1]
    # Runs of one time object, then equal times held by distinct objects.
    times += [1 / 3] * 5 + [float(n) / 7 for n in (1, 1, 2, 2, 2)]
    events = [
        ProfileEvent(time=time, entity=AWKWARD[i % len(AWKWARD)], name=name)
        for i, time in enumerate(times)
        for name in ("exec_begin", "stage_out_end")
    ]
    # More rows than one write, with a time repeated across the boundary.
    steady = 2.5
    events += [
        ProfileEvent(time=steady, entity=f"task.{i % 97}\r\n", name="done")
        for i in range(2 * _CSV_CHUNK_ROWS + 3)
    ]
    assert_matches_reference(events, tmp_path)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.0, 0.5, 1 / 3, 1e-7, 12345.678]),
            st.text(alphabet=',"\r\n ab', max_size=4),
            st.sampled_from(EVENT_NAMES),
        ),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_write_csv_matches_csv_writer_on_generated_rows(tmp_path_factory, rows):
    events = [ProfileEvent(time=t, entity=e, name=n) for t, e, n in rows]
    assert_matches_reference(events, tmp_path_factory.mktemp("csv"))


@given(
    st.text(alphabet=st.sampled_from(list(',"\r\n \t_.:-aZ9\u00e9')), max_size=8)
    | st.text(max_size=8)
)
@settings(max_examples=300)
def test_each_csv_field_is_what_csv_writer_makes_of_the_text(text):
    field = profiling._CsvFields()[text]
    buffer = io.StringIO()
    csv.writer(buffer).writerow(("1", text, "2"))
    assert f"1,{field},2\r\n" == buffer.getvalue()
