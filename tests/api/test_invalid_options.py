"""Options a searcher or task constructor rejects are the caller's error.

A request whose ``options`` or ``task_options`` do not fit the named
searcher or task fails with :class:`~repro.api.errors.InvalidRequest`
(``invalid-request``, HTTP 400), both from ``engine.discover`` and as
the error of a run served through :class:`~repro.server.DiscoveryService`
— never as ``internal`` (HTTP 500).  Errors the searcher raises on its
own inputs after its options were accepted keep their type.
"""

import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.api.errors import InvalidRequest
from repro.core.config import MetamConfig
from repro.data import housing_scenario

CASES = {
    "metam-unknown-option": dict(searcher="metam", options={"bogus": 1}),
    "uniform-unknown-option": dict(searcher="uniform", options={"bogus": 1}),
    "metam-mistyped-option": dict(searcher="metam", options={"epsilon": "x"}),
    "regression-unknown-task-option": dict(
        searcher="metam", task="regression", task_options={"target": "price"}
    ),
    "metam-options-beside-config": dict(
        searcher="metam", config={"theta": 0.6}, options={"epsilon": 0.1}
    ),
    "iarda-config": dict(searcher="iarda", config={"theta": 0.6}),
}


def field_of(case):
    if "task_options" in case:
        return "task_options"
    return "config" if "config" in case and "options" not in case else "options"


@pytest.fixture(scope="module")
def scenario():
    return housing_scenario(seed=0)


@pytest.mark.parametrize("name", CASES)
def test_discover_raises_invalid_request(scenario, name):
    case = CASES[name]
    engine = DiscoveryEngine(corpus=scenario.corpus)
    request = DiscoveryRequest(
        base=scenario.base,
        task=case.get("task", scenario.task),
        searcher=case["searcher"],
        query_budget=5,
        options=case.get("options", {}),
        task_options=case.get("task_options", {}),
        config=MetamConfig(**case["config"]) if "config" in case else None,
    )
    with pytest.raises(InvalidRequest) as raised:
        engine.discover(request)
    assert raised.value.details == {"field": field_of(case)}
    assert engine.discover(DiscoveryRequest(
        base=scenario.base, task=scenario.task, query_budget=5
    )).completed


@pytest.mark.parametrize("name", CASES)
def test_served_run_fails_as_invalid_request(scenario, name):
    from repro.cli import _scenario_service

    case = CASES[name]
    service = _scenario_service("housing", scenario, workers=1)
    try:
        sid = service.create_session("acme")["session_id"]
        payload = {
            "base": scenario.base.name,
            "task": case.get("task", "scenario-task"),
            "searcher": case["searcher"],
            "query_budget": 5,
        }
        for key in ("options", "task_options", "config"):
            if key in case:
                payload[key] = case[key]
        run_id = service.submit(sid, payload)["run_id"]
        for _ in service.events(run_id, timeout=120):
            pass
        status = service.status(run_id)
    finally:
        service.shutdown()
    assert status["state"] == "failed"
    assert status["error"]["code"] == "invalid-request"
    assert status["error"]["http_status"] == 400
    assert status["error"]["details"] == {"field": field_of(case)}


@pytest.mark.parametrize("searcher", ["metam", "uniform"])
def test_searcher_input_checks_keep_their_type(scenario, searcher):
    """An empty candidate set is the searcher's own input check, raised
    after its options were accepted: not an options error."""
    engine = DiscoveryEngine(corpus=scenario.corpus)
    request = DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher=searcher,
        candidates=[],
        query_budget=5,
    )
    with pytest.raises(ValueError, match="candidate set is empty"):
        engine.discover(request)
