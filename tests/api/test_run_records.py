"""Round-trips of events and run records (the wire schema's record codec)."""

import pytest

from repro.api.events import (
    EVENT_TYPES,
    CandidatesPrepared,
    QueryIssued,
    RunStarted,
)
from repro.api.run import DiscoveryRun
from repro.api.request import DiscoveryRequest
from repro.api.wire import event_from_wire, event_to_wire, run_from_wire
from repro.core.result import SearchResult
from repro.dataframe.table import Table


def sample_events():
    return [
        RunStarted(run_id=3, searcher="metam", base_table="b", task="t"),
        CandidatesPrepared(n_candidates=7, source="prepared", seconds=0.25),
        QueryIssued(query_index=1, utility=0.5, best_utility=0.5),
    ]


class TestEventRoundTrip:
    def test_every_kind_round_trips(self):
        for event in sample_events():
            assert event_from_wire(event_to_wire(event)) == event

    def test_kind_registry_is_complete(self):
        assert set(EVENT_TYPES) == {
            "run-started",
            "candidates-prepared",
            "query-issued",
            "augmentation-accepted",
            "round-completed",
            "run-completed",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_wire({"kind": "from-the-future"})

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ValueError, match="bad 'query-issued'"):
            event_from_wire({"kind": "query-issued", "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            event_from_wire(["kind", "run-started"])


def sample_run(request):
    return DiscoveryRun(
        run_id=5,
        request=request,
        status="completed",
        result=SearchResult(
            searcher="metam",
            selected=["aug-1"],
            utility=0.8,
            base_utility=0.5,
            queries=4,
            trace=[(1, 0.5), (4, 0.8)],
        ),
        events=sample_events(),
        n_candidates=7,
        candidate_source="prepared",
        prepare_seconds=0.25,
        search_seconds=1.5,
    )


class TestRunRecordRoundTrip:
    def test_round_trip(self):
        request = DiscoveryRequest(
            base=Table("b", {"c": ["x"]}), task="clustering"
        )
        run = sample_run(request)
        rebuilt = run_from_wire(run.to_record(), request, run_id=9)
        assert rebuilt.run_id == 9
        assert rebuilt.status == "completed"
        assert rebuilt.result.selected == run.result.selected
        assert rebuilt.result.trace == run.result.trace
        assert rebuilt.events == run.events
        assert rebuilt.n_candidates == 7
        assert rebuilt.prepare_seconds == 0.25
        assert rebuilt.search_seconds == 1.5

    def test_cancelled_run_round_trips_without_result(self):
        request = DiscoveryRequest(
            base=Table("b", {"c": ["x"]}), task="clustering"
        )
        run = sample_run(request)
        run.status = "cancelled"
        run.result = None
        rebuilt = run_from_wire(run.to_record(), request, run_id=1)
        assert rebuilt.cancelled
        assert rebuilt.result is None

    def test_malformed_record_raises(self):
        request = DiscoveryRequest(
            base=Table("b", {"c": ["x"]}), task="clustering"
        )
        with pytest.raises((KeyError, ValueError, TypeError)):
            run_from_wire({"events": [{"kind": "??"}]}, request, 1)
