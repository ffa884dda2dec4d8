"""Built-in protocol shape, expansion, and definition-file handling."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.model import (
    Pipeline,
    Stage,
    StagingDirective,
    StagingMode,
    TaskKind,
    TaskSpec,
    Workflow,
    peak_core_demand,
    validate_workflow,
)
from pilotflow.protocols import (
    ESMACS_REPLICAS,
    ProtocolConfig,
    ProtocolSchemaError,
    StageTemplate,
    UnknownProtocolError,
    builtin_protocol,
    esmacs_protocol,
    for_workload,
    load_protocol,
    protocol_from_dict,
    protocol_to_dict,
    protocol_to_workflow,
)

from helpers import generate_esmacs


def test_stage_count_and_core_profile():
    protocol = esmacs_protocol()
    assert len(protocol.stages) == 7
    assert [t.cores for t in protocol.stages] == [1, 1, 8, 8, 8, 8, 1]


def test_standard_replica_count():
    assert ESMACS_REPLICAS == 25
    assert esmacs_protocol().default_replicas == 25


def test_stage_labels_and_order():
    labels = [t.label for t in esmacs_protocol().stages]
    assert labels == [
        "untar-config",
        "preprep",
        "minimize",
        "equilibrate-nvt",
        "equilibrate-npt-restrained",
        "equilibrate-npt-free",
        "tar-output",
    ]


def test_esmacs_stage_durations():
    durations = [t.expected_duration for t in esmacs_protocol().stages]
    assert durations == [0.25, 0.25, 0.25, 0.5, 5.5, 0.5, 0.25]


def test_staging_lives_on_the_data_movement_stages():
    stages = esmacs_protocol().stages
    assert stages[0].inputs[0].mode is StagingMode.TAR_IN
    assert stages[1].inputs[0].mode is StagingMode.COPY_IN
    assert stages[6].outputs[0].mode is StagingMode.TAR_OUT
    for middle in stages[2:6]:
        assert middle.inputs == () and middle.outputs == ()


def test_standard_ensemble_sizes():
    wf = generate_esmacs(replicas=25)
    assert len(wf.pipelines) == 25
    assert len(wf.tasks()) == 175
    assert peak_core_demand(wf) == 200


def test_eight_replica_ensemble_needs_64_cores():
    assert peak_core_demand(generate_esmacs(replicas=8)) == 64


def test_null_variant_runs_sleep_zero_without_staging():
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    for task in wf.tasks():
        assert task.executable == "sleep"
        assert task.arguments == ("0",)
        assert task.expected_duration == 0.0
        assert task.inputs == () and task.outputs == ()
    # resource shape is preserved: overheads are measured at real scale
    assert peak_core_demand(wf) == 16


def test_replica_substitution_in_output_paths():
    wf = generate_esmacs(replicas=3)
    for replica, pipeline in enumerate(wf.pipelines, start=1):
        tar_stage = pipeline.stages[6].tasks[0]
        assert tar_stage.outputs[0].target == f"output/results-r{replica}.tar"


def test_task_ids_follow_the_naming_scheme():
    wf = generate_esmacs(replicas=2, name="demo")
    ids = [t.id for t in wf.tasks()]
    assert ids[0] == "demo-p1-s1"
    assert ids[-1] == "demo-p2-s7"
    assert len(set(ids)) == len(ids)


def reference_expansion(protocol, replicas, name=None):
    """Oracle: every field of every task substituted afresh per replica."""
    name = protocol.name if name is None else name

    def sub(text, replica):
        return text.replace("{replica}", str(replica)).replace("{name}", name)

    def directives(values, replica):
        return tuple(
            StagingDirective(sub(d.source, replica), sub(d.target, replica), d.mode)
            for d in values
        )

    def task(template, replica, position):
        return TaskSpec(
            id=f"{name}-p{replica}-s{position}",
            executable=template.executable,
            arguments=tuple(sub(a, replica) for a in template.arguments),
            cores=template.cores,
            expected_duration=template.expected_duration,
            inputs=directives(template.inputs, replica),
            outputs=directives(template.outputs, replica),
        )

    pipelines = [
        Pipeline(
            id=f"{name}-p{replica}",
            stages=[
                Stage(tasks=[task(template, replica, position)])
                for position, template in enumerate(protocol.stages, 1)
            ],
        )
        for replica in range(1, replicas + 1)
    ]
    return Workflow(name=name, pipelines=pipelines)


# Template strings with and without placeholders, near misses included.
TEXT = st.lists(
    st.sampled_from(["{replica}", "{name}", "{repl", "ica}", "{", "}", "a", "/"]),
    min_size=1,
    max_size=4,
).map("".join)
DIRECTIVES = st.lists(
    st.builds(StagingDirective, TEXT, TEXT, st.sampled_from(StagingMode)), max_size=2
).map(tuple)
TEMPLATES = st.builds(
    StageTemplate,
    label=st.just("stage"),
    executable=st.sampled_from(["md", "{name}"]),
    arguments=st.lists(TEXT, max_size=3).map(tuple),
    cores=st.integers(1, 4),
    expected_duration=st.sampled_from([0.0, 0.5]),
    inputs=DIRECTIVES,
    outputs=DIRECTIVES,
)


@given(
    st.builds(
        ProtocolConfig,
        name=st.sampled_from(["esmacs", "x{replica}", "{name}"]),
        stages=st.lists(TEMPLATES, min_size=1, max_size=4).map(tuple),
    ),
    st.integers(1, 4),
    st.sampled_from([None, "demo", "{replica}"]),
)
@settings(max_examples=200)
def test_expansion_equals_a_fresh_expansion_per_replica(protocol, replicas, name):
    got = protocol_to_workflow(protocol, replicas, name=name)
    assert got == reference_expansion(protocol, replicas, name)


def test_a_field_without_placeholders_is_shared_by_every_replica():
    protocol = esmacs_protocol()
    workflow = protocol_to_workflow(protocol, replicas=3)
    shared = 0
    for position, template in enumerate(protocol.stages):
        tasks = [pipeline.stages[position].tasks[0] for pipeline in workflow.pipelines]
        for field in ("arguments", "inputs", "outputs"):
            value = getattr(template, field)
            if value and "{replica}" not in repr(value):
                shared += 1
                assert all(getattr(task, field) is value for task in tasks)
    # Every stage's arguments, and the inputs of the two unpacking stages.
    assert shared == len(protocol.stages) + 2


def test_expansion_always_validates():
    assert validate_workflow(generate_esmacs(replicas=5)) == ()


def test_time_scale_scales_durations():
    protocol = esmacs_protocol(time_scale=0.5)
    assert [t.expected_duration for t in protocol.stages] == [
        0.125,
        0.125,
        0.125,
        0.25,
        2.75,
        0.25,
        0.125,
    ]
    with pytest.raises(ValueError):
        esmacs_protocol(time_scale=-1.0)


@pytest.mark.parametrize("time_scale", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_time_scale_rejected(time_scale):
    for kind in TaskKind:
        with pytest.raises(ValueError, match="time_scale"):
            esmacs_protocol(kind, time_scale)
        with pytest.raises(ValueError, match="time_scale"):
            for_workload(esmacs_protocol(), kind, time_scale)


def test_for_workload_applies_to_any_protocol():
    staged = StageTemplate(
        "run",
        "engine",
        ("--fast",),
        cores=4,
        expected_duration=2.0,
        inputs=esmacs_protocol().stages[1].inputs,
    )
    protocol = ProtocolConfig(name="p", stages=(staged,), default_replicas=3)
    # Other kinds run the stages as written, only scaled in time.
    for kind in (TaskKind.SIMULATED, TaskKind.LOCAL_EXEC):
        [scaled] = for_workload(protocol, kind, 0.25).stages
        assert scaled == StageTemplate(
            "run", "engine", ("--fast",), 4, 0.5, staged.inputs
        )
    # NULL keeps the resource shape and drops the work and the data movement.
    null = for_workload(protocol, TaskKind.NULL_WORKLOAD, 3.0)
    assert (null.name, null.default_replicas) == ("p", 3)
    assert null.stages == (StageTemplate("run", "sleep", ("0",), 4),)


def test_replicas_must_be_positive():
    with pytest.raises(ValueError):
        generate_esmacs(replicas=0)


def test_unknown_builtin_lists_available():
    with pytest.raises(UnknownProtocolError) as excinfo:
        builtin_protocol("nope")
    assert "esmacs" in str(excinfo.value)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40)
def test_ensemble_size_arithmetic(replicas):
    wf = generate_esmacs(replicas=replicas)
    assert len(wf.pipelines) == replicas
    assert len(wf.tasks()) == 7 * replicas
    assert peak_core_demand(wf) == 8 * replicas


# --- definition files ------------------------------------------------------


def test_protocol_file_round_trip(tmp_path):
    protocol = esmacs_protocol()
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(protocol_to_dict(protocol), indent=2))
    assert load_protocol(path) == protocol


def test_loaded_protocol_expands_identically(tmp_path):
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(protocol_to_dict(esmacs_protocol())))
    loaded = load_protocol(path)
    assert protocol_to_workflow(loaded, replicas=3) == generate_esmacs(replicas=3)


# sha256 of json.dumps(protocol_to_dict(esmacs LOCAL), sort_keys=True).
ESMACS_LOCAL_DICT_DIGEST = (
    "fd78568a05b991b843a0ca8639e4a6672b9e0f1134b7368fabef9c2251fa4d11"
)


def test_dict_round_trip():
    protocol = esmacs_protocol(kind=TaskKind.LOCAL_EXEC)
    data = protocol_to_dict(protocol)
    assert protocol_from_dict(data) == protocol
    text = json.dumps(data, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == ESMACS_LOCAL_DICT_DIGEST
    # A stage states its duration; there is no timestep count to read.
    stage = {"label": "md", "executable": "md", "timesteps": 50000}
    with pytest.raises(ProtocolSchemaError, match="'timesteps'"):
        protocol_from_dict({"name": "p", "stages": [stage]})


def test_missing_name_rejected():
    with pytest.raises(ProtocolSchemaError) as excinfo:
        protocol_from_dict({"stages": [{"label": "a", "executable": "x"}]})
    assert "name" in str(excinfo.value)


def test_missing_stages_rejected():
    with pytest.raises(ProtocolSchemaError):
        protocol_from_dict({"name": "p"})
    with pytest.raises(ProtocolSchemaError):
        protocol_from_dict({"name": "p", "stages": []})


def test_stage_missing_executable_rejected():
    with pytest.raises(ProtocolSchemaError) as excinfo:
        protocol_from_dict({"name": "p", "stages": [{"label": "a"}]})
    assert "executable" in str(excinfo.value)


def test_bad_cores_rejected():
    with pytest.raises(ProtocolSchemaError):
        protocol_from_dict(
            {"name": "p", "stages": [{"label": "a", "executable": "x", "cores": 0}]}
        )


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
def test_bad_expected_duration_rejected(duration):
    stage = {"label": "a", "executable": "x", "expected_duration": duration}
    with pytest.raises(ProtocolSchemaError, match="expected_duration"):
        protocol_from_dict({"name": "p", "stages": [stage]})


def test_bad_staging_mode_rejected():
    with pytest.raises(ProtocolSchemaError):
        protocol_from_dict(
            {
                "name": "p",
                "stages": [
                    {
                        "label": "a",
                        "executable": "x",
                        "inputs": [{"source": "s", "target": "t", "mode": "TELEPORT"}],
                    }
                ],
            }
        )


def test_unparseable_file_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProtocolSchemaError):
        load_protocol(path)


def test_bad_default_replicas_rejected():
    data = protocol_to_dict(esmacs_protocol())
    data["default_replicas"] = 0
    with pytest.raises(ProtocolSchemaError):
        protocol_from_dict(data)
