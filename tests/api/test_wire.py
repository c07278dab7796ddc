"""The versioned wire model: golden shapes, envelopes, validation."""

import dataclasses
import json

import pytest

from repro.api.errors import (
    ERROR_CODES,
    Cancelled,
    Internal,
    InvalidRequest,
    NotFound,
    Overloaded,
    ReproError,
)
from repro.api.events import EVENT_TYPES, QueryIssued, RunCompleted
from repro.api.request import CandidateSpec, DiscoveryRequest
from repro.api.wire import (
    SCHEMA_VERSION,
    dumps,
    envelope,
    error_from_wire,
    error_to_wire,
    event_from_wire,
    event_to_wire,
    jsonable,
    loads,
    open_envelope,
    request_from_wire,
    request_to_wire,
)
from repro.core.config import MetamConfig
from repro.dataframe.table import Table


@pytest.fixture
def base():
    return Table("orders", {"region": ["n", "s"], "total": [1.0, 2.0]})


@pytest.fixture
def corpus(base):
    return {base.name: base}


class TestEnvelope:
    def test_envelope_stamps_version_without_mutating(self):
        payload = {"status": "ok"}
        stamped = envelope(payload)
        assert stamped == {"schema_version": SCHEMA_VERSION, "status": "ok"}
        assert payload == {"status": "ok"}

    def test_open_envelope_accepts_current_and_bare(self):
        assert open_envelope({"schema_version": SCHEMA_VERSION, "a": 1}) == {
            "schema_version": SCHEMA_VERSION,
            "a": 1,
        }
        assert open_envelope({"a": 1}) == {"a": 1}

    def test_open_envelope_rejects_other_versions(self):
        with pytest.raises(InvalidRequest, match="schema_version"):
            open_envelope({"schema_version": 99})
        with pytest.raises(InvalidRequest, match="schema_version"):
            open_envelope({"schema_version": "1"})

    def test_open_envelope_rejects_non_objects(self):
        with pytest.raises(InvalidRequest, match="JSON object"):
            open_envelope([1, 2, 3])


class TestRequestRecordGolden:
    """The record shape is pinned field-for-field: it is what persisted
    run records and the result cache key off."""

    def test_golden_record(self, base):
        request = DiscoveryRequest(
            base=base,
            task="clustering",
            searcher="metam",
            theta=0.8,
            query_budget=50,
            seed=7,
            label="golden",
        )
        assert request_to_wire(request) == {
            "base_table": "orders",
            "base_rows": 2,
            "base_columns": 2,
            "task": "clustering",
            "task_options": {},
            "searcher": "metam",
            "theta": 0.8,
            "query_budget": 50,
            "seed": 7,
            "prepare_seed": None,
            "spec": {
                "min_containment": 0.3,
                "max_hops": 1,
                "max_fanout": 500,
                "include_unions": False,
                "min_union_shared": 0.5,
                "sample_size": 100,
            },
            "config": None,
            "options": {},
            "candidates_supplied": False,
            "label": "golden",
        }

    def test_to_wire_method_matches_function(self, base):
        request = DiscoveryRequest(base=base, task="clustering")
        assert request.to_wire() == request_to_wire(request)


class TestRequestFromWire:
    def test_minimal_payload(self, corpus, base):
        request = request_from_wire(
            {"base": "orders", "task": "clustering"}, corpus
        )
        assert request.base is base
        assert request.task == "clustering"
        assert request.searcher == "metam"  # dataclass default

    def test_base_table_alias_and_envelope(self, corpus):
        request = request_from_wire(
            {
                "schema_version": SCHEMA_VERSION,
                "base_table": "orders",
                "task": "clustering",
            },
            corpus,
        )
        assert request.base.name == "orders"

    def test_full_payload_round_trips_live(self, corpus):
        request = request_from_wire(
            {
                "base": "orders",
                "task": "clustering",
                "task_options": {"k": 3},
                "searcher": "uniform",
                "theta": 0.7,
                "query_budget": 25,
                "seed": 3,
                "prepare_seed": 11,
                "spec": {"max_hops": 2, "sample_size": 10},
                "config": {"theta": 0.7, "query_budget": 25, "seed": 3},
                "options": {"tag": "x"},
                "label": "full",
            },
            corpus,
        )
        assert request.spec == CandidateSpec(max_hops=2, sample_size=10)
        assert isinstance(request.config, MetamConfig)
        assert request.config.theta == 0.7
        assert request.task_options == {"k": 3}
        assert request.options == {"tag": "x"}
        assert request.prepare_seed == 11

    @pytest.mark.parametrize(
        ("payload", "match"),
        [
            ({"task": "t"}, "base"),
            ({"base": "", "task": "t"}, "base"),
            ({"base": "nope", "task": "t"}, "unknown base table"),
            ({"base": "orders"}, "task"),
            ({"base": "orders", "task": ""}, "task"),
            ({"base": "orders", "task": "t", "mystery": 1}, "mystery"),
            (
                {"base": "orders", "task": "t", "query_budget": "lots"},
                "query_budget",
            ),
            ({"base": "orders", "task": "t", "options": [1]}, "options"),
            ({"base": "orders", "task": "t", "spec": {"bogus": 1}}, "bogus"),
            *(
                ({"base": "orders", "task": "t", "spec": {name: value}}, name)
                for name, value in [
                    ("max_fanout", -1),
                    ("max_fanout", 0),
                    ("max_hops", 0),
                    ("max_hops", True),
                    ("sample_size", -5),
                    ("sample_size", 2.5),
                    ("min_containment", float("nan")),
                    ("min_containment", 1.5),
                    ("min_containment", True),
                    ("min_containment", "0.3"),
                    ("min_union_shared", float("inf")),
                    ("min_union_shared", -0.1),
                ]
            ),
            (
                {"base": "orders", "task": "t", "spec": "fast"},
                "must be an object",
            ),
            (
                {"base": "orders", "task": "t", "config": {"theta": -4.0}},
                "invalid config",
            ),
        ],
    )
    def test_invalid_payloads(self, corpus, payload, match):
        with pytest.raises(InvalidRequest, match=match):
            request_from_wire(payload, corpus)

    def test_record_form_is_not_a_submission(self, corpus, base):
        """The record form carries descriptive fields (base_rows,
        candidates_supplied) a submission must not smuggle in."""
        record = request_to_wire(DiscoveryRequest(base=base, task="t"))
        with pytest.raises(InvalidRequest, match="unknown request field"):
            request_from_wire(record, corpus)


class TestEventWire:
    def test_event_from_wire_rebuilds_the_event(self):
        record = {"kind": "run-completed", "status": "completed",
                  "utility": 0.9, "queries": 4, "seconds": 1.5}
        assert event_from_wire(record) == RunCompleted(
            status="completed", utility=0.9, queries=4, seconds=1.5
        )

    def test_event_to_wire_golden(self):
        event = QueryIssued(query_index=2, utility=0.6, best_utility=0.7)
        assert event_to_wire(event) == {
            "kind": "query-issued",
            "query_index": 2,
            "utility": 0.6,
            "best_utility": 0.7,
        }
        assert event.to_record() == event_to_wire(event)

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_event_to_wire_matches_asdict(self, kind):
        """Every event type's wire form is byte-identical to the
        ``dataclasses.asdict`` form, in the same field order."""
        cls = EVENT_TYPES[kind]
        samples = {"int": 7, "float": 0.1 + 0.2, "str": "nameé", "bool": True}
        event = cls(**{
            f.name: samples[getattr(f.type, "__name__", f.type)]
            for f in dataclasses.fields(cls)
        })
        reference = {"kind": event.kind, **dataclasses.asdict(event)}
        assert dumps(event_to_wire(event)) == dumps(reference)
        assert list(event_to_wire(event)) == list(reference)


class TestErrorTaxonomy:
    def test_codes_statuses_exit_codes(self):
        expected = {
            InvalidRequest: ("invalid-request", 400, 2),
            NotFound: ("not-found", 404, 1),
            Overloaded: ("overloaded", 429, 75),
            Cancelled: ("cancelled", 499, 130),
            Internal: ("internal", 500, 1),
        }
        for cls, (code, status, exit_code) in expected.items():
            assert cls.code == code
            assert cls.http_status == status
            assert cls.exit_code == exit_code
            assert ERROR_CODES[code] is cls
            assert issubclass(cls, ReproError)

    def test_round_trip_preserves_type_and_details(self):
        for error in (
            InvalidRequest("bad field", details={"field": "theta"}),
            NotFound("no run"),
            Cancelled("gone"),
            Internal("boom"),
        ):
            rebuilt = error_from_wire(error_to_wire(error))
            assert type(rebuilt) is type(error)
            assert rebuilt.message == error.message
            assert rebuilt.details == error.details

    def test_overloaded_round_trips_retry_after(self):
        rebuilt = error_from_wire(
            error_to_wire(Overloaded("busy", retry_after=2.5))
        )
        assert isinstance(rebuilt, Overloaded)
        assert rebuilt.retry_after == 2.5

    def test_retry_after_clamped_non_negative(self):
        assert Overloaded("busy", retry_after=-3.0).retry_after == 0.0

    def test_foreign_exception_wrapped_as_internal(self):
        wired = error_to_wire(RuntimeError("surprise"))
        assert wired["error"]["code"] == "internal"
        assert "surprise" in wired["error"]["message"]
        assert wired["schema_version"] == SCHEMA_VERSION

    def test_unknown_code_comes_back_internal(self):
        rebuilt = error_from_wire(
            {"error": {"code": "from-the-future", "message": "?"}}
        )
        assert isinstance(rebuilt, Internal)


class TestCodec:
    def test_dumps_is_canonical(self):
        raw = dumps({"b": 1, "a": {"z": None, "y": [1, 2]}})
        assert raw == b'{"a":{"y":[1,2],"z":null},"b":1}'
        assert loads(raw) == {"b": 1, "a": {"z": None, "y": [1, 2]}}

    def test_loads_maps_bad_json_to_invalid_request(self):
        with pytest.raises(InvalidRequest, match="not valid JSON"):
            loads(b"{nope")
        with pytest.raises(InvalidRequest, match="not valid JSON"):
            loads(b"\xff\xfe")

    def test_jsonable_coerces_everything(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        class ArrayLike:
            def tolist(self):
                return [1, 2]

        value = {
            "t": (1, 2),
            3: "int key",
            "arr": ArrayLike(),
            "obj": Weird(),
        }
        assert jsonable(value) == {
            "t": [1, 2],
            "3": "int key",
            "arr": [1, 2],
            "obj": "<weird>",
        }
        json.dumps(jsonable(value))  # actually serializable
