"""Every event log either engine returns in a test goes through ``check_log``."""

from __future__ import annotations

import pytest
from helpers import check_log

from pilotflow import localbackend, simbackend


@pytest.fixture(autouse=True)
def log_violations(monkeypatch):
    """Wrap both engines so that each log their ``run`` returns is checked
    against the workflow the engine was built with. The violations found
    collect in the list this yields, and the test fails at teardown unless
    it is empty: a test that breaks an invariant on purpose asks for the
    fixture, asserts the violations it expects and clears the list."""
    violations: list[str] = []
    workflows = {}
    for engine in (simbackend._SimEngine, localbackend._LocalEngine):

        def init(self, workflow, *args, _init=engine.__init__):
            _init(self, workflow, *args)
            workflows[self] = workflow

        def run(self, _run=engine.run):
            log = _run(self)
            violations.extend(check_log(log, workflows.pop(self)))
            return log

        monkeypatch.setattr(engine, "__init__", init)
        monkeypatch.setattr(engine, "run", run)
    yield violations
    assert violations == [], violations[:10]
