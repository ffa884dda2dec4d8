"""Built-in protocol shape, expansion, and definition-file handling."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.model import (
    StagingMode,
    TaskKind,
    peak_core_demand,
    validate_workflow,
)
from pilotflow.protocols import (
    ESMACS_REPLICAS,
    ProtocolSchemaError,
    UnknownProtocolError,
    builtin_protocol,
    esmacs_protocol,
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


def test_simulation_stage_timesteps():
    timesteps = [t.timesteps for t in esmacs_protocol().stages]
    assert timesteps == [None, None, None, 5000, 55000, 5000, None]


def test_expected_durations_follow_timesteps():
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
        assert task.kind is TaskKind.NULL_WORKLOAD
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


def test_expansion_always_validates():
    assert validate_workflow(generate_esmacs(replicas=5)).ok


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


def test_dict_round_trip():
    protocol = esmacs_protocol(kind=TaskKind.LOCAL_EXEC)
    assert protocol_from_dict(protocol_to_dict(protocol)) == protocol


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
