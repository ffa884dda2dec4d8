"""Metric arithmetic on hand-built event logs, aggregation, CSV export."""

from __future__ import annotations

import csv
import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.metrics import (
    MalformedProfileError,
    aggregate_trials,
    aggregates_to_csv,
    compute_report,
    reports_to_csv,
)
from pilotflow.profiling import (
    INTERVAL_STEMS,
    EventLog,
    ProfileEvent,
    ProfileSink,
)


def ev(time, entity, name, pipeline="", stage=-1):
    return ProfileEvent(time=time, entity=entity, name=name, pipeline=pipeline, stage=stage)


def synthetic_events() -> list[ProfileEvent]:
    """Two single-stage pipelines sharing one pull; all numbers dyadic."""
    return [
        ev(0.0, "pilot.0000", "submit"),
        ev(0.0, "a", "translate_begin", "pa", 0),
        ev(0.25, "a", "translate_end", "pa", 0),
        ev(0.25, "unit.000000", "enqueue", "pa", 0),
        ev(0.25, "b", "translate_begin", "pb", 0),
        ev(0.5, "b", "translate_end", "pb", 0),
        ev(0.5, "unit.000001", "enqueue", "pb", 0),
        ev(2.0, "pilot.0000", "pilot_active"),
        ev(2.0, "pilot.0000", "pull_begin"),
        ev(2.5, "pilot.0000", "pull_end"),
        ev(2.5, "unit.000000", "unit_io_begin", "pa", 0),
        ev(2.75, "unit.000000", "unit_io_end", "pa", 0),
        ev(2.5, "unit.000001", "unit_io_begin", "pb", 0),
        ev(2.75, "unit.000001", "unit_io_end", "pb", 0),
        ev(2.75, "a", "schedule", "pa", 0),
        ev(2.75, "a", "stage_in_begin", "pa", 0),
        ev(3.0, "a", "stage_in_end", "pa", 0),
        ev(3.0, "a", "exec_begin", "pa", 0),
        ev(4.0, "a", "exec_end", "pa", 0),
        ev(4.0, "a", "stage_out_begin", "pa", 0),
        ev(4.25, "a", "stage_out_end", "pa", 0),
        ev(4.25, "a", "done", "pa", 0),
        ev(2.75, "b", "schedule", "pb", 0),
        ev(2.75, "b", "stage_in_begin", "pb", 0),
        ev(3.25, "b", "stage_in_end", "pb", 0),
        ev(3.25, "b", "exec_begin", "pb", 0),
        ev(5.25, "b", "exec_end", "pb", 0),
        ev(5.25, "b", "stage_out_begin", "pb", 0),
        ev(5.25, "b", "stage_out_end", "pb", 0),
        ev(5.25, "b", "done", "pb", 0),
        ev(5.25, "pilot.0000", "pilot_done"),
    ]


def make_log(events) -> EventLog:
    sink = ProfileSink()
    for event in events:
        sink.append(event)
    return EventLog(
        events=sink.events(),
        pilot_cores=2,
        backend="sim",
        seed=0,
    )


def test_headline_metrics_from_synthetic_log():
    report = compute_report(make_log(synthetic_events()), trial_id="synth")
    assert report.tq_s == 2.0
    assert report.ttc_s == 5.25
    assert report.ttx_s == 3.25
    assert report.engine_overhead_s == 0.5
    assert report.pull_overhead_s == 0.5
    assert report.unit_io_overhead_s == 0.5
    assert report.runtime_overhead_s == 1.0
    assert report.done_tasks == 2
    assert report.pipelines == 2
    assert report.tasks == 2
    assert report.cores == 2
    assert report.status == "DONE"


@pytest.mark.parametrize(
    "b_end, status", [("done", "DONE"), ("failed", "FAILED"), ("canceled", "FAILED")]
)
def test_status_is_done_only_when_every_task_is_done(b_end, status):
    """The log's terminal events alone decide the run's status."""
    events = [
        e._replace(name=b_end) if (e.entity, e.name) == ("b", "done") else e
        for e in synthetic_events()
    ]
    report = compute_report(make_log(events))
    assert report.status == status
    assert (report.done_tasks, report.tasks) == (1 + (b_end == "done"), 2)


def test_per_stage_windows_take_max_and_mean_across_pipelines():
    report = compute_report(make_log(synthetic_events()))
    assert report.per_stage_ttx_max == {1: 2.5}
    assert report.per_stage_ttx_mean == {1: 2.0}


def test_ttx_is_literally_ttc_minus_tq():
    report = compute_report(make_log(synthetic_events()))
    assert report.ttx_s == report.ttc_s - report.tq_s


# The entity whose end event each test below drops, per interval stem.
UNMATCHED = {
    "translate": "b",
    "pull": "pilot.0000",
    "unit_io": "unit.000001",
    "stage_in": "b",
    "exec": "b",
    "stage_out": "b",
}


@pytest.mark.parametrize("stem", INTERVAL_STEMS)
def test_unmatched_interval_is_rejected(stem):
    entity = UNMATCHED[stem]
    dropped = f"{stem}_end"
    events = [
        e for e in synthetic_events() if not (e.entity == entity and e.name == dropped)
    ]
    with pytest.raises(MalformedProfileError) as excinfo:
        compute_report(make_log(events))
    message = str(excinfo.value)
    assert f"{entity!r}" in message and dropped in message


def test_first_unmatched_stem_in_vocabulary_order_is_reported():
    """With every stem broken, the error names the first one checked."""
    events = [e for e in synthetic_events() if not e.name.endswith("_end")]
    with pytest.raises(MalformedProfileError) as excinfo:
        compute_report(make_log(events))
    assert "translate_end" in str(excinfo.value)
    assert "'a'" in str(excinfo.value)


def left_sum(values):
    """Add from the int 0, left to right: what ``sum()`` did before Python
    3.12 made it compensated."""
    return functools.reduce(operator.add, values, 0)


def list_based_interval_sums(log: EventLog) -> dict[str, float]:
    """Oracle: the reduction compute_report used to make, on time lists.

    Per stem and entity it keeps every begin and end time in log order,
    rejects the first entity (stems in vocabulary order, entities sorted)
    whose counts differ, and adds ``sum(ends) - sum(begins)`` per entity in
    sorted entity order.
    """
    pairs = {stem: {} for stem in INTERVAL_STEMS}
    for event in log.events:
        stem, _, side = event.name.rpartition("_")
        if stem in pairs and side in ("begin", "end"):
            opened, closed = pairs[stem].setdefault(event.entity, ([], []))
            (opened if side == "begin" else closed).append(event.time)
    sums = {}
    for stem in INTERVAL_STEMS:
        total = 0.0
        for entity in sorted(pairs[stem]):
            opened, closed = pairs[stem][entity]
            if len(opened) != len(closed):
                raise MalformedProfileError(
                    f"entity {entity!r}: {len(opened)} {stem}_begin events "
                    f"but {len(closed)} {stem}_end events"
                )
            total += left_sum(closed) - left_sum(opened)
        sums[stem] = total
    return sums


# Decimal fractions and thirds are not dyadic, so the order in which they
# are added changes the last bits of a sum; a small pool also makes ties.
TIMES = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.1, 2.9]),
    st.integers(0, 10**6).map(lambda n: n / 1000),
    st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
)


@st.composite
def interval_logs(draw):
    """A valid run frame around begin/end pairs of generated entities,
    possibly missing one ``*_end`` event."""
    events = [
        ev(0.0, "pilot.0000", "submit"),
        ev(0.5, "pilot.0000", "pilot_active"),
        ev(2e5, "t", "done", "p", 0),
    ]
    entities = draw(
        st.lists(
            st.sampled_from(["a", "b", "B", "a1", "pilot.0000", "unit.000001", "t"]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    for entity in entities:
        stems = draw(st.lists(st.sampled_from(INTERVAL_STEMS), min_size=1, unique=True))
        for stem in stems:
            for _ in range(draw(st.integers(1, 3))):
                events.append(ev(draw(TIMES), entity, f"{stem}_begin"))
                events.append(ev(draw(TIMES), entity, f"{stem}_end"))
    if draw(st.booleans()):
        ends = [i for i, e in enumerate(events) if e.name.endswith("_end")]
        del events[draw(st.sampled_from(ends))]
    # The sink orders by time; the append order decides how ties interleave.
    return make_log(draw(st.permutations(events)))


@given(interval_logs())
@settings(max_examples=150, deadline=None)
def test_interval_sums_match_list_based_oracle(log):
    try:
        expected = list_based_interval_sums(log)
    except MalformedProfileError as error:
        with pytest.raises(MalformedProfileError) as excinfo:
            compute_report(log)
        assert str(excinfo.value) == str(error)
        return
    report = compute_report(log)
    got = (
        report.engine_overhead_s,
        report.pull_overhead_s,
        report.unit_io_overhead_s,
        report.runtime_overhead_s,
    )
    want = (
        expected["translate"],
        expected["pull"],
        expected["unit_io"],
        expected["pull"] + expected["unit_io"],
    )
    # repr, so that a last-bit difference or a sign of zero shows.
    assert [repr(value) for value in got] == [repr(value) for value in want]


def test_missing_submit_is_rejected():
    events = [e for e in synthetic_events() if e.name != "submit"]
    with pytest.raises(MalformedProfileError):
        compute_report(make_log(events))


def test_missing_pilot_active_is_rejected():
    events = [e for e in synthetic_events() if e.name != "pilot_active"]
    with pytest.raises(MalformedProfileError):
        compute_report(make_log(events))


def test_no_terminal_events_is_rejected():
    events = [
        e for e in synthetic_events() if e.name not in ("done", "failed", "canceled")
    ]
    with pytest.raises(MalformedProfileError):
        compute_report(make_log(events))


def test_double_terminal_is_rejected():
    events = synthetic_events() + [ev(6.0, "a", "failed", "pa", 0)]
    with pytest.raises(MalformedProfileError):
        compute_report(make_log(events))


def test_sink_orders_by_time_then_insertion():
    sink = ProfileSink()
    sink.append(ev(2.0, "x", "done"))
    sink.append(ev(1.0, "y", "exec_begin"))
    sink.append(ev(1.0, "z", "exec_begin"))
    names = [(e.time, e.entity) for e in sink.events()]
    assert names == [(1.0, "y"), (1.0, "z"), (2.0, "x")]


def test_event_csv_has_three_columns(tmp_path):
    log = make_log(synthetic_events())
    path = tmp_path / "events.csv"
    log.write_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time_s", "entity", "event"]
    assert all(len(row) == 3 for row in rows)
    assert rows[1] == ["0.0", "pilot.0000", "submit"]


# --- aggregation -------------------------------------------------------------


def report_with(ttx: float, pipelines: int = 4, workload: str = "SIM", trial="t"):
    base = compute_report(make_log(synthetic_events()), trial_id=trial, workload=workload)
    # rebuild with the ttx of interest; frozen dataclass, so use replace-like dict
    data = {**base.__dict__, "ttx_s": ttx, "pipelines": pipelines, "workload": workload}
    return type(base)(**data)


def test_aggregate_mean_min_max_stddev():
    rows = aggregate_trials([report_with(90.0), report_with(110.0)])
    assert len(rows) == 1
    row = rows[0]
    assert row.trials == 2
    assert row.ttx_mean == 100.0
    assert row.ttx_min == 90.0
    assert row.ttx_max == 110.0
    assert abs(row.ttx_stddev - 14.142135623730951) < 1e-12


def test_aggregate_single_trial_has_zero_stddev():
    rows = aggregate_trials([report_with(5.0)])
    assert rows[0].ttx_stddev == 0.0


def test_aggregate_groups_by_pipelines_and_workload():
    reports = []
    for pipelines in (2, 4, 8, 16, 32):
        for trial in range(2):
            reports.append(report_with(10.0 + trial, pipelines=pipelines))
    reports.append(report_with(3.0, pipelines=2, workload="NULL"))
    rows = aggregate_trials(reports)
    assert len(rows) == 6
    assert [(r.pipelines, r.workload) for r in rows] == [
        (2, "NULL"),
        (2, "SIM"),
        (4, "SIM"),
        (8, "SIM"),
        (16, "SIM"),
        (32, "SIM"),
    ]
    assert all(r.trials == 2 for r in rows if r.workload == "SIM")


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate_trials([])


# --- report CSV --------------------------------------------------------------


def test_report_csv_column_order(tmp_path):
    report = compute_report(make_log(synthetic_events()), trial_id="synth")
    path = tmp_path / "trials.csv"
    reports_to_csv([report], path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "trial_id",
        "pipelines",
        "tasks",
        "cores",
        "tq_s",
        "ttc_s",
        "ttx_s",
        "engine_overhead_s",
        "runtime_overhead_s",
        "per_stage_ttx_s1",
    ]
    assert rows[1] == ["synth", "2", "2", "2", "2.0", "5.25", "3.25", "0.5", "1.0", "2.5"]


def test_aggregate_csv_written(tmp_path):
    rows = aggregate_trials([report_with(90.0), report_with(110.0)])
    path = tmp_path / "summary.csv"
    aggregates_to_csv(rows, path)
    with open(path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed[0]["ttx_mean"] == "100.0"
    assert parsed[0]["workload"] == "SIM"
