"""Event records and the sink's ordering."""

from __future__ import annotations

import array
import csv
import gc
import io
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow import localbackend, profiling, simbackend
from pilotflow.latency import LatencyModel
from pilotflow.localbackend import LocalBackendConfig, local_run
from pilotflow.model import (
    Pipeline,
    ResourceRequest,
    Stage,
    TaskKind,
    TaskSpec,
    Workflow,
    peak_core_demand,
)
from pilotflow.profiling import (
    _CSV_CHUNK_ROWS,
    EVENT_NAMES,
    EntityTable,
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
    rows, entities = coded_rows(appended)
    sink = ProfileSink(entities)
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


def clock_table() -> EntityTable:
    """An entity table for the sinks run_clock drives: pipeline code 1 is "p"."""
    return EntityTable(["", "p"])


def run_clock(sink, table, steps):
    """Drive ``sink`` through ``steps`` with valid settles, each row a new
    entity of ``table`` in pipeline "p"; returns the rows appended, in
    order, and the final clock."""
    appended = []
    clock = 0.0
    for advance, offsets in steps:
        clock += advance
        sink.settle(clock)
        for offset in offsets:
            entity = table.add(f"e{len(appended)}", 1, 0)
            row = (clock + offset, entity, profiling.EXEC_BEGIN)
            appended.append(row)
            sink.append(row)
    return appended, clock


@given(st.integers(1, 9), CLOCK_STEPS)
@settings(max_examples=300)
def test_settled_events_equal_the_stable_sort_of_every_row(settle_rows, steps):
    with mock.patch.object(profiling, "_SETTLE_ROWS", settle_rows):
        table = clock_table()
        sink = ProfileSink(table)
        appended, _ = run_clock(sink, table, steps)
        assert len(sink) == len(appended)
        settled = EventView(table)
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
        table = clock_table()
        sink = ProfileSink(table)
        _, clock = run_clock(sink, table, steps)
        # Enough rows that this settle sorts the tail at its time, then a
        # row that breaks the promise it made.
        filler, late = table.add("filler", 1, 0), table.add("late", 1, 0)
        for _ in range(settle_rows):
            sink.append((clock, filler, profiling.EXEC_BEGIN))
        clock += advance
        sink.settle(clock)
        sink.append((clock - early, late, profiling.EXEC_BEGIN))
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
    """A log's times are a list of the engine's floats, and its entity
    table's ids a list of the engine's strings, which CPython's cyclic
    collector does not track; its entity codes, name codes and the table's
    pipelines and stages are byte buffers of ints, which hold no object at
    all. So a collection never walks a log however long it is."""
    log = small_sim_log()
    events = log.events
    table = events.entities
    gc.collect()
    assert len(events) > 0
    for column, kind in ((events.times, float), (table.ids, str)):
        assert type(column) is list
        assert {type(value) for value in column} == {kind}
        assert not any(gc.is_tracked(value) for value in column)
    assert type(events.names) is bytearray
    for codes, itemsize, size in (
        (events.names, 1, len(events)),
        (events.codes, 4, len(events)),
        (table.pipelines, 4, len(table)),
        (table.stages, 4, len(table)),
    ):
        assert len(codes) == size
        assert memoryview(codes).itemsize == itemsize
        # No referent but, for an array, its (heap) type.
        assert set(gc.get_referents(codes)) <= {type(codes)}
    # Name codes index the vocabulary of 20 names; the pipeline table
    # holds the pilot's empty id, then the three pipelines.
    assert max(events.names) < len(EVENT_NAMES) == 20
    assert max(events.codes) < len(table)
    assert table.pipeline_ids == ["", "esmacs-p1", "esmacs-p2", "esmacs-p3"]


def traced_esmacs_log() -> tuple[EventLog, int]:
    """A 64-pipeline esmacs log, with noise, and the bytes tracemalloc saw
    the run leave held once it returned."""
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
    return log, held - before


def test_an_esmacs_log_costs_at_most_40_traced_bytes_per_event():
    """One list slot, five bytes of codes and the floats the engine made
    per event, plus one table entry per entity: 27.0 traced bytes per event
    here, down from 37.1 when each event kept its entity, pipeline and
    stage, and 51.4 when names, pipelines and stages were list slots too."""
    log, held = traced_esmacs_log()
    assert held / len(log.events) <= 40.0


def test_an_esmacs_log_is_three_columns_and_one_table_entry_per_entity():
    """A finished log keeps three per-event columns, times, entity codes and
    name codes, and one table entry for the pilot, each task and each unit;
    pipeline and stage are kept once per entity, and each unit's entry comes
    right after its task's. It costs at most 30 traced bytes per event (27.1
    measured, 37.1 when every event kept its own pipeline and stage and an
    8-byte entity slot)."""
    log, held = traced_esmacs_log()
    events, table = log.events, log.events.entities
    per_event = [
        name
        for name in EventView.__slots__
        if len(getattr(events, name)) == len(events)
    ]
    assert per_event == ["times", "codes", "names"]
    tasks = [task.id for task in generate_esmacs(replicas=64).tasks()]
    units = {
        table.ids[code]
        for code, name in zip(events.codes, events.names)
        if name == profiling.ENQUEUE
    }
    assert len(units) == len(tasks) == 64 * 7
    assert len(table) == 1 + 2 * len(tasks)
    # The pilot is code 0, then each task in workflow order, each followed
    # by its unit, in the task's pipeline and stage.
    assert table.ids[0] == "pilot.0000"
    assert table.ids[1::2] == tasks
    assert set(table.ids[2::2]) == units
    assert table.pipelines[2::2] == table.pipelines[1::2]
    assert table.stages[2::2] == table.stages[1::2]
    assert held / len(events) <= 30.0


def cut_sim_log() -> tuple[Workflow, EventLog]:
    """Three pipelines translated 2 s apart under a 5 s walltime: the third
    pipeline's first translation would end at 6 s, so its task is never
    translated and no unit of it is enqueued, and no later stage starts."""
    workflow = generate_esmacs(replicas=3)
    request = ResourceRequest(cores=peak_core_demand(workflow), walltime=5.0)
    config = SimBackendConfig(translate_cost=LatencyModel.constant(2.0))
    return workflow, sim_run(workflow, request, config)


def failed_local_log() -> tuple[Workflow, EventLog]:
    """A local run whose failing task stops its pipeline before its second
    stage is translated; the other pipeline runs both of its stages."""

    def sh(task_id: str, command: str = "true") -> TaskSpec:
        return TaskSpec(id=task_id, executable="/bin/sh", arguments=("-c", command))

    workflow = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="ok", stages=[Stage([sh("a1"), sh("a2")]), Stage([sh("a3")])]),
            Pipeline(id="bad", stages=[Stage([sh("b1", "exit 1")]), Stage([sh("b2")])]),
        ],
    )
    request = ResourceRequest(cores=4, walltime=300.0)
    return workflow, local_run(workflow, request, LocalBackendConfig())


@pytest.mark.parametrize(
    "module, run", [(simbackend, cut_sim_log), (localbackend, failed_local_log)]
)
def test_a_unit_row_carries_its_tasks_code_plus_one(monkeypatch, module, run):
    """Every row keyed on a unit carries its task's code + 1, an entry with
    the task's pipeline and stage. A task whose unit was never enqueued
    leaves that entry ``""``, and no row uses it."""
    translate = module.translate_task
    task_of: dict[str, str] = {}

    def recording(task, allocator):
        unit = translate(task, allocator)
        task_of[unit.uid] = task.id
        return unit

    monkeypatch.setattr(module, "translate_task", recording)
    workflow, log = run()
    events, table = log.events, log.events.entities
    code_of = {task.id: 1 + 2 * k for k, task in enumerate(workflow.tasks())}
    assert table.ids[1::2] == list(code_of)
    unit_names = {profiling.ENQUEUE, profiling.UNIT_IO_BEGIN, profiling.UNIT_IO_END}
    unit_codes = {
        code for code, name in zip(events.codes, events.names) if name in unit_names
    }
    for code in unit_codes:
        assert code == code_of[task_of[table.ids[code]]] + 1
        assert table.pipelines[code] == table.pipelines[code - 1]
        assert table.stages[code] == table.stages[code - 1]
    never = {code + 1 for code in code_of.values()} - unit_codes
    assert len(never) == len(code_of) - len(unit_codes) > 0
    assert {table.ids[code] for code in never} == {""}
    assert never.isdisjoint(events.codes)
    # A unit translated but never enqueued leaves no uid in the table.
    enqueued = {table.ids[code] for code in unit_codes}
    assert enqueued <= task_of.keys()
    assert (task_of.keys() - enqueued).isdisjoint(table.ids)


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
    """Names, entities, pipelines and stages read back as the values
    stored: names coded by the vocabulary, entities by the table in the
    order they first appear, and pipelines by the table's ids in the order
    they first appear after the pilot's empty one."""
    names = [name for name, _, _ in rows]
    pipelines = [pipeline for _, pipeline, _ in rows]
    stages = [stage for _, _, stage in rows]
    times, entities = [0.5] * len(rows), [f"e{i}" for i in range(len(rows))]
    view = event_view(map(ProfileEvent, times, entities, names, pipelines, stages))
    table = view.entities
    assert [EVENT_NAMES[code] for code in view.names] == names
    assert list(view.codes) == list(range(len(rows)))
    assert table.ids == entities
    assert [table.pipeline_ids[code] for code in table.pipelines] == pipelines
    assert list(table.stages) == stages
    assert table.pipeline_ids == list(dict.fromkeys(["", *pipelines]))
    for name in set(names):
        assert view.names.index(name_code(name)) == names.index(name)
    assert list(view) == list(zip(times, entities, names, pipelines, stages))


# A few entities, each given its pipeline and stage once, so that many
# events share an entity.
ENTITY_PLACES = st.lists(
    st.tuples(st.text(alphabet=',"\r\n _pq', max_size=3), st.integers(-1, 3)),
    min_size=1,
    max_size=4,
)


@given(ENTITY_PLACES, st.data())
@settings(max_examples=200)
def test_a_view_gives_back_the_events_it_was_built_from(places, data):
    entity_ids = [f"e{i}" for i in range(len(places))]
    events = data.draw(
        st.lists(
            st.builds(
                lambda time, entity, name: ProfileEvent(
                    time, entity_ids[entity], name, *places[entity]
                ),
                st.sampled_from([0.0, -0.0, 0.5, 1 / 3]),
                st.integers(0, len(places) - 1),
                st.sampled_from(EVENT_NAMES),
            ),
            max_size=40,
        )
    )
    view = event_view(events)
    assert list(view) == events
    assert all(type(event) is ProfileEvent for event in view)
    assert [repr(event.time) for event in view] == [repr(e.time) for e in events]
    assert len(view.entities) == len({event.entity for event in events})


@pytest.mark.parametrize(
    "pipeline, stage", [("q", 0), ("p", 1)], ids=["two_pipelines", "two_stages"]
)
def test_an_entity_with_two_pipelines_or_two_stages_is_refused_by_name(pipeline, stage):
    """A view keeps one pipeline and one stage per entity, so events that
    give one entity two of either are refused, naming the entity."""
    events = [
        ProfileEvent(0.0, "t", "exec_begin", "p", 0),
        ProfileEvent(0.5, "u", "submit"),
        ProfileEvent(1.0, "t", "exec_end", pipeline, stage),
    ]
    message = f"entity 't' has pipeline and stage ('p', 0) and {(pipeline, stage)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        event_view(events)


def test_event_view_reads_columns_as_profile_events():
    log = small_sim_log()
    events = log.events
    table = events.entities
    names = [EVENT_NAMES[code] for code in events.names]
    entities = [table.ids[code] for code in events.codes]
    pipelines = [table.pipeline_ids[table.pipelines[code]] for code in events.codes]
    stages = [table.stages[code] for code in events.codes]
    columns = (events.times, entities, names, pipelines, stages)
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
