"""Trace trees: span scoping, serialization, and the no-trace cost path."""

import threading

from repro.obs.tracing import MAX_CHILDREN, Tracer, active_span, mark, span


class TestTracer:
    def test_trace_yields_root_span(self):
        tracer = Tracer()
        with tracer.trace("request", run_id=7) as root:
            assert root is not None
            assert active_span() is root
        assert active_span() is None

    def test_span_without_active_trace_is_free_noop(self):
        # No trace live: span() must not create anything.
        with span("orphan", key="v") as s:
            assert s is None
        mark("orphan-mark")  # must not raise either
        assert active_span() is None


class TestTree:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.trace("request") as root:
            with span("prepare"):
                pass
            with span("search") as search:
                assert active_span() is search
                mark("round", index=1)
        record = root.to_record()
        assert record["name"] == "request"
        names = [child["name"] for child in record["children"]]
        assert names == ["prepare", "search"]
        round_mark = record["children"][1]["children"][0]
        assert round_mark["name"] == "round"
        assert round_mark["attrs"]["index"] == 1

    def test_record_has_relative_ms_offsets(self):
        tracer = Tracer()
        with tracer.trace("request") as root:
            with span("child"):
                pass
        record = root.to_record()
        assert record["start_ms"] == 0.0
        assert record["duration_ms"] >= 0.0
        child = record["children"][0]
        assert child["start_ms"] >= 0.0
        assert child["duration_ms"] >= 0.0

    def test_exception_annotates_span(self):
        tracer = Tracer()
        try:
            with tracer.trace("request") as root:
                with span("search"):
                    raise ValueError("boom")
        except ValueError:
            pass
        child = root.to_record()["children"][0]
        assert child["attrs"]["error"] == "ValueError"

    def test_child_cap_counts_drops(self):
        tracer = Tracer()
        with tracer.trace("request") as root:
            for i in range(MAX_CHILDREN + 5):
                mark("m", i=i)
        record = root.to_record()
        assert len(record["children"]) == MAX_CHILDREN
        assert record["dropped_children"] == 5

    def test_non_serializable_attrs_are_stringified(self):
        tracer = Tracer()
        with tracer.trace("request", obj=object()) as root:
            pass
        attrs = root.to_record()["attrs"]
        assert isinstance(attrs["obj"], str)


class TestIsolation:
    def test_threads_do_not_share_active_span(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["active"] = active_span()

        with tracer.trace("request"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # contextvars do not propagate into a bare Thread: the worker
        # must not observe (or attach children to) this trace.
        assert seen["active"] is None

    def test_concurrent_traces_stay_separate(self):
        tracer = Tracer()
        records = {}

        def run(name):
            with tracer.trace(name) as root:
                with span(f"{name}-child"):
                    pass
            records[name] = root.to_record()

        threads = [
            threading.Thread(target=run, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            record = records[f"t{i}"]
            assert record["name"] == f"t{i}"
            assert [c["name"] for c in record["children"]] == [f"t{i}-child"]
