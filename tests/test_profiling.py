"""Event records and the sink's ordering."""

from __future__ import annotations

import csv
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_stored_rows_are_plain_tuples_the_collector_untracks():
    """A NamedTuple is never untracked by CPython's cyclic collector; an
    exact tuple of numbers and strings is, once a collection has seen it."""
    log = small_sim_log()
    gc.collect()
    rows = log.events.rows
    assert rows
    assert all(type(row) is tuple for row in rows)
    assert not any(gc.is_tracked(row) for row in rows)


def test_event_view_reads_rows_as_profile_events():
    log = small_sim_log()
    events, rows = log.events, log.events.rows
    assert len(events) == len(rows)
    first_pass, second_pass = list(events), list(events)
    assert first_pass == second_pass
    for event, row in zip(first_pass, rows):
        assert type(event) is ProfileEvent
        fields = (event.time, event.entity, event.name, event.pipeline, event.stage)
        assert fields == row
    assert events[0] == first_pass[0] and events[0].name == "submit"
    assert events[-1] == first_pass[-1] and events[-1].name == "pilot_done"
    assert type(events[0]) is ProfileEvent and type(events[-1]) is ProfileEvent
    assert events[1:3] == first_pass[1:3]
    assert events == first_pass and events == EventView(list(rows))
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


def assert_matches_reference(events, tmp_path):
    log = EventLog(events=EventView(events), pilot_cores=1, backend="sim")
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
