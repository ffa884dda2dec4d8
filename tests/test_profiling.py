"""Event records and the sink's ordering."""

from __future__ import annotations

import csv
import gc
import io
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
    """A log is five lists of the engine's floats, strings and small ints,
    none of which CPython's cyclic collector tracks, so a collection never
    walks a log however long it is."""
    log = small_sim_log()
    gc.collect()
    columns = [c for c in gc.get_referents(log.events) if isinstance(c, list)]
    assert len(columns) == 5 and all(len(c) == len(log.events) > 0 for c in columns)
    assert not any(gc.is_tracked(value) for column in columns for value in column)
    assert {type(value) for column in columns for value in column} == {
        float,
        str,
        int,
    }


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
