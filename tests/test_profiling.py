"""Event records and the sink's ordering."""

from __future__ import annotations

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.profiling import _CSV_CHUNK_ROWS, EventLog, ProfileEvent, ProfileSink


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


def reference_csv(events, path):
    """Oracle: the rows written through csv.writer, one call per row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "entity", "event"])
        writer.writerows((repr(e.time), e.entity, e.name) for e in events)


def assert_matches_reference(events, tmp_path):
    log = EventLog(events=events, pilot_id="pilot.0000", pilot_cores=1, backend="sim")
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
