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
from pilotflow.model import ResourceRequest, peak_core_demand
from pilotflow.profiling import (
    _CSV_CHUNK_ROWS,
    EventLog,
    EventView,
    ProfileEvent,
    ProfileSink,
)
from pilotflow.simbackend import SimBackendConfig, sim_run

from helpers import generate_esmacs


@given(
    st.lists(
        # Few distinct times, so most events tie with others.
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.sampled_from("abc")),
        max_size=60,
    )
)
@settings(max_examples=200)
def test_events_sort_by_time_then_append_order(draws):
    sink = ProfileSink()
    appended = [
        ProfileEvent(time=time, entity=entity, name=f"e{index}")
        for index, (time, entity) in enumerate(draws)
    ]
    for event in appended:
        sink.append(event)
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


def run_clock(sink, steps):
    """Drive ``sink`` through ``steps`` with valid settles; returns the rows
    appended, in order, and the final clock."""
    appended = []
    clock = 0.0
    for advance, offsets in steps:
        clock += advance
        sink.settle(clock)
        for offset in offsets:
            row = (clock + offset, "task", f"e{len(appended)}", "p", 0)
            appended.append(row)
            sink.append(row)
    return appended, clock


@given(st.integers(1, 9), CLOCK_STEPS)
@settings(max_examples=300)
def test_settled_events_equal_the_stable_sort_of_every_row(settle_rows, steps):
    with mock.patch.object(profiling, "_SETTLE_ROWS", settle_rows):
        sink = ProfileSink()
        appended, _ = run_clock(sink, steps)
        assert len(sink) == len(appended)
        assert sink.events() == sorted(appended, key=lambda row: row[0])


@given(
    st.integers(1, 9),
    CLOCK_STEPS,
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([1e-9, 0.25, 0.5]),
)
@settings(max_examples=200)
def test_a_row_before_a_settled_time_raises(settle_rows, steps, advance, early):
    with mock.patch.object(profiling, "_SETTLE_ROWS", settle_rows):
        sink = ProfileSink()
        _, clock = run_clock(sink, steps)
        # Enough rows that this settle sorts the tail at its time, then a
        # row that breaks the promise it made.
        for _ in range(settle_rows):
            sink.append((clock, "task", "filler", "p", 0))
        clock += advance
        sink.settle(clock)
        sink.append((clock - early, "task", "late", "p", 0))
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
    assert type(events.names.codes) is bytearray
    assert type(events.pipelines.codes) is array.array
    assert type(events.stages) is array.array
    for codes, itemsize in (
        (events.names.codes, 1),
        (events.pipelines.codes, 4),
        (events.stages, 4),
    ):
        assert len(codes) == len(events)
        assert memoryview(codes).itemsize == itemsize
        # No referent but, for an array, its (heap) type.
        assert set(gc.get_referents(codes)) <= {type(codes)}
    # The tables hold one entry per distinct value: the vocabulary, and
    # the three pipelines plus the pilot's empty one.
    assert len(events.names.values) <= 21
    pipelines = sorted(events.pipelines.values)
    assert pipelines == ["", "esmacs-p1", "esmacs-p2", "esmacs-p3"]


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


def test_a_257th_distinct_event_name_is_refused_by_name():
    """Names are one-byte codes: a log holds 256 distinct names (the
    engines write 21), and the next one raises, naming it."""
    names = [f"event{k}" for k in range(256)]
    view = EventView([0.0] * 256, ["t"] * 256, names, [""] * 256, [-1] * 256)
    assert [event.name for event in view] == names
    assert view.names.index("event255") == 255
    with pytest.raises(ValueError, match="'one more'"):
        EventView(
            [0.0] * 257, ["t"] * 257, names + ["one more"], [""] * 257, [-1] * 257
        )
    sink = ProfileSink()
    for k, name in enumerate(names + ["event0", "one more"]):
        sink.append((float(k), "t", name, "", -1))
    with pytest.raises(ValueError, match="'one more'"):
        sink.events()


@given(
    st.lists(
        st.tuples(
            st.text(alphabet=',"\r\n _ab', max_size=3),
            st.text(alphabet=',"\r\n _pq', max_size=3),
            st.integers(-1, 2**31 - 1),
        ),
        max_size=40,
    )
)
@settings(max_examples=200)
def test_coded_columns_read_back_what_was_stored(rows):
    """Names, pipelines and stages read back as the values stored, codes
    given in the order the values first appear."""
    names = [name for name, _, _ in rows]
    pipelines = [pipeline for _, pipeline, _ in rows]
    stages = [stage for _, _, stage in rows]
    times, entities = [0.5] * len(rows), ["t"] * len(rows)
    view = EventView(times, entities, names, pipelines, stages)
    assert list(view.names) == names and view.names[:] == names
    assert list(view.pipelines) == pipelines and list(view.stages) == stages
    assert view.names.values == list(dict.fromkeys(names))
    assert view.pipelines.values == list(dict.fromkeys(pipelines))
    for name in set(names):
        assert view.names.index(name) == names.index(name)
    assert list(view) == list(zip(times, entities, names, pipelines, stages))


def test_event_view_reads_columns_as_profile_events():
    log = small_sim_log()
    events = log.events
    columns = (
        events.times,
        events.entities,
        events.names,
        events.pipelines,
        events.stages,
    )
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
    copied = EventView(*(list(column) for column in columns))
    assert events == first_pass and events == copied
    assert repr(events) == repr(first_pass)
    done = log.by_name("done")
    assert len(done) == 3 * 7
    assert done == [event for event in first_pass if event.name == "done"]
    assert all(type(event) is ProfileEvent for event in done)


def reference_csv(events, path):
    """Oracle: the rows written through csv.writer, one call per row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "entity", "event"])
        writer.writerows((repr(e.time), e.entity, e.name) for e in events)


def view_of(events) -> EventView:
    """The events, in the order given, as the columns of a view."""
    return EventView(*([event[k] for event in events] for k in range(5)))


def assert_matches_reference(events, tmp_path):
    log = EventLog(events=view_of(events), pilot_cores=1, backend="sim")
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
        for name in ("exec_begin", 'odd,"name"')
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
            st.text(alphabet=',"\r\n _e', max_size=4),
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
