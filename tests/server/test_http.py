"""HTTP front-end semantics: routes, status codes, error mapping, SSE.

These tests go through a real socket (``serve`` on an ephemeral port)
with stdlib ``http.client`` so the SSE cases can read the stream
incrementally and drop connections mid-stream; the framing cases
write raw bytes on a plain socket.
"""

import http.client
import json
import logging
import math
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import DiscoveryService, ServiceConfig, serve


class Client:
    """Tiny JSON-over-HTTP client against one test server."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.host = host
        self.port = port

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            content_type = response.headers.get("Content-Type", "")
            data = (
                json.loads(raw)
                if raw and content_type.startswith("application/json")
                else raw
            )
            return response.status, data, dict(response.headers)
        finally:
            conn.close()

    def stream(self, path):
        """Open an SSE stream; caller reads frames and closes the conn."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/event-stream"
        return conn, response


def read_frame(response):
    """Parse one SSE frame off the wire; ``None`` at end of stream."""
    frame = {}
    while True:
        line = response.readline()
        if not line:  # EOF: server closed the stream
            return frame or None
        line = line.decode("utf-8").rstrip("\n")
        if not line:  # blank line terminates a frame
            if frame:
                return frame
            continue
        field, _, value = line.partition(":")
        value = value.lstrip(" ")
        frame[field] = json.loads(value) if field == "data" else value


def read_all_frames(response):
    frames = []
    while True:
        frame = read_frame(response)
        if frame is None:
            return frames
        frames.append(frame)


@pytest.fixture
def served(harness):
    server = serve(harness.service)
    yield harness, Client(server)
    server.shutdown()
    server.server_close()


@pytest.fixture
def make_served(make_harness):
    servers = []

    def _make(**kwargs):
        h = make_harness(**kwargs)
        server = serve(h.service)
        servers.append(server)
        return h, Client(server)

    yield _make
    for server in servers:
        server.shutdown()
        server.server_close()


def open_session(client, tenant="acme"):
    status, body, _ = client.request(
        "POST", "/v1/sessions", {"tenant": tenant}
    )
    assert status == 201
    return body["session"]["session_id"]


def submit(client, sid, payload, priority=None):
    body = {"session": sid, "request": payload}
    if priority is not None:
        body["priority"] = priority
    status, out, headers = client.request("POST", "/v1/runs", body)
    return status, out, headers


class TestRoutes:
    def test_healthz(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/healthz")
        assert status == 200
        assert body == {"schema_version": 1, "status": "ok"}

    def test_session_lifecycle(self, served):
        _, client = served
        status, body, _ = client.request(
            "POST", "/v1/sessions", {"schema_version": 1, "tenant": "acme"}
        )
        assert status == 201
        sid = body["session"]["session_id"]
        assert body["session"]["tenant"] == "acme"

        status, body, _ = client.request("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert body["session"]["session_id"] == sid

        status, body, _ = client.request("DELETE", f"/v1/sessions/{sid}")
        assert status == 200

        status, body, _ = client.request("GET", f"/v1/sessions/{sid}")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_submit_and_poll_to_completion(self, served):
        harness, client = served
        sid = open_session(client)
        status, body, _ = submit(client, sid, harness.payload(queries=2))
        assert status == 202
        run_id = body["run"]["run_id"]
        assert body["run"]["state"] in ("queued", "running")

        harness.wait_terminal(run_id)
        status, body, _ = client.request("GET", f"/v1/runs/{run_id}")
        assert status == 200
        run = body["run"]
        assert run["state"] == "completed"
        assert run["record"]["status"] == "completed"
        assert run["record"]["result"]["utility"] == pytest.approx(0.9)

    def test_served_result_equals_in_process_discover(self):
        """A real searcher's result survives the service path and the
        wire byte for byte."""
        from repro.api import DiscoveryEngine
        from repro.api.wire import dumps, request_from_wire, run_to_wire
        from repro.data import clustering_scenario
        from repro.server import DiscoveryService

        scenario = clustering_scenario(seed=0)

        def factory(metrics=None):
            engine = DiscoveryEngine(corpus=scenario.corpus, metrics=metrics)
            engine.tasks.register("scenario-task", lambda **_options: scenario.task)
            return engine

        payload = {
            "base": scenario.base.name,
            "task": "scenario-task",
            "searcher": "metam",
            "theta": 0.6,
            "query_budget": 25,
            "seed": 1,
        }
        tables = {scenario.base.name: scenario.base, **scenario.corpus}
        service = DiscoveryService(
            {"default": factory}, bases={"default": {scenario.base.name: scenario.base}}
        )
        server = serve(service)
        try:
            client = Client(server)
            status, body, _ = submit(client, open_session(client), payload)
            assert status == 202
            run_id = body["run"]["run_id"]
            for _ in service.events(run_id, timeout=60):
                pass
            _, body, _ = client.request("GET", f"/v1/runs/{run_id}")
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(timeout=10)
        assert body["run"]["state"] == "completed"

        local = factory().discover(request_from_wire(payload, tables))
        assert local.result.queries > 1
        assert dumps(body["run"]["record"]["result"]) == dumps(
            run_to_wire(local)["result"]
        )

    def test_delete_cancels_run(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=4))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        status, body, _ = client.request("DELETE", f"/v1/runs/{run_id}")
        assert status == 200
        harness.release("g")
        assert harness.wait_terminal(run_id)["state"] == "cancelled"

    def test_metrics_exposition_has_tenant_labels(self, served):
        harness, client = served
        sid = open_session(client, tenant="acme")
        _, body, _ = submit(client, sid, harness.payload())
        harness.wait_terminal(body["run"]["run_id"])
        status, text, headers = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        exposition = text.decode("utf-8")
        assert 'repro_server_requests_total{tenant="acme",outcome="accepted"}' in exposition
        assert 'repro_server_runs_total{tenant="acme",status="completed"}' in exposition
        # Engine families share the registry: one scrape, both layers.
        assert "repro_engine_runs_total" in exposition


class TestErrorMapping:
    def test_unknown_run_is_404(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/v1/runs/run-424242")
        assert status == 404
        assert body["error"]["code"] == "not-found"
        assert body["error"]["http_status"] == 404

    def test_unknown_route_is_404(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/v2/everything")
        assert status == 404

    def test_bad_request_is_400(self, served):
        harness, client = served
        sid = open_session(client)
        status, body, _ = submit(
            client, sid, {"base": "no-such-table", "task": "stub-task"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-request"

    @pytest.mark.parametrize("field", ["searcher", "task"])
    def test_unknown_name_is_400(self, served, field):
        harness, client = served
        sid = open_session(client)
        payload = {**harness.payload(), field: "no-such-name"}
        status, body, _ = submit(client, sid, payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-request"
        assert body["error"]["details"] == {"field": field, field: "no-such-name"}
        _, text, _ = client.request("GET", "/metrics")
        assert (
            'repro_server_requests_total{tenant="acme",outcome="invalid"} 1'
            in text.decode("utf-8")
        )
        assert harness.service.list_runs() == []

    def test_nan_epsilon_is_400(self, served):
        """``json`` writes and parses the bare literal ``NaN``; an ε that
        is not a number used to reach CLUSTER-PARTITION and spin there."""
        harness, client = served
        sid = open_session(client)
        payload = {**harness.payload(), "config": {"epsilon": float("nan")}}
        assert b"NaN" in json.dumps(payload).encode("utf-8")
        status, body, _ = submit(client, sid, payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-request"
        assert "epsilon" in body["error"]["message"]

    def test_missing_request_field_is_400(self, served):
        _, client = served
        sid = open_session(client)
        status, body, _ = client.request("POST", "/v1/runs", {"session": sid})
        assert status == 400
        assert "request" in body["error"]["message"]

    def test_wrong_schema_version_is_400(self, served):
        _, client = served
        status, body, _ = client.request(
            "POST", "/v1/sessions", {"schema_version": 99, "tenant": "acme"}
        )
        assert status == 400
        assert "schema_version" in body["error"]["message"]

    def test_empty_body_is_400(self, served):
        _, client = served
        status, body, _ = client.request("POST", "/v1/sessions")
        assert status == 400

    def test_unsupported_method_is_400(self, served):
        _, client = served
        sid = open_session(client)
        status, _, _ = client.request("POST", f"/v1/sessions/{sid}", {})
        assert status == 400

    def test_quota_exceeded_is_429_with_retry_after(self, make_served):
        harness, client = make_served(
            config=ServiceConfig(tenant_rate=0.0, tenant_burst=1.0)
        )
        sid = open_session(client)
        status, _, _ = submit(client, sid, harness.payload())
        assert status == 202
        status, body, headers = submit(client, sid, harness.payload(seed=1))
        assert status == 429
        assert body["error"]["code"] == "overloaded"
        # RFC 9110 delay-seconds: a whole number, the envelope's exact
        # float rounded up.
        assert int(headers["Retry-After"]) == math.ceil(body["error"]["retry_after"])

    def test_draining_is_429(self, served):
        harness, client = served
        sid = open_session(client)
        harness.service.shutdown(timeout=5)
        status, body, _ = submit(client, sid, harness.payload())
        assert status == 429
        assert body["error"]["code"] == "overloaded"


class TestSSE:
    """Satellite 4: the event-stream contract, over a real socket."""

    def test_events_arrive_in_order(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(queries=3))
        run_id = body["run"]["run_id"]
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        try:
            frames = read_all_frames(response)
        finally:
            conn.close()
        kinds = [f["event"] for f in frames]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        assert kinds.count("query-issued") == 3
        # Sequence ids are contiguous and frame data matches the kind.
        assert [int(f["id"]) for f in frames] == list(range(len(frames)))
        assert all(f["data"]["kind"] == f["event"] for f in frames)
        indexes = [
            f["data"]["query_index"]
            for f in frames
            if f["event"] == "query-issued"
        ]
        assert indexes == sorted(indexes)

    def test_stream_closes_after_completion(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload())
        run_id = body["run"]["run_id"]
        harness.wait_terminal(run_id)
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        try:
            frames = read_all_frames(response)
            assert frames[-1]["event"] == "run-completed"
            # EOF, not a hang: the server closed the stream.
            assert response.read() == b""
        finally:
            conn.close()

    def test_disconnect_cancels_nothing(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=2))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        first = read_frame(response)
        assert first["event"] == "run-started"
        conn.close()  # subscriber walks away mid-run
        harness.release("g")
        assert harness.wait_terminal(run_id)["state"] == "completed"

    def test_delete_mid_stream_ends_with_cancelled_event(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=5))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        try:
            assert read_frame(response)["event"] == "run-started"
            status, _, _ = client.request("DELETE", f"/v1/runs/{run_id}")
            assert status == 200
            harness.release("g")
            frames = read_all_frames(response)
            assert frames, "stream must end with a terminal event"
            assert frames[-1]["event"] == "run-completed"
            assert frames[-1]["data"]["status"] == "cancelled"
        finally:
            conn.close()

    def test_stream_for_unknown_run_is_clean_404(self, served):
        _, client = served
        status, body, _ = client.request("GET", "/v1/runs/run-424242/events")
        assert status == 404
        assert body["error"]["code"] == "not-found"


def raw_exchange(client, data, *, half_close=True, pieces=1, timeout=10):
    """Send ``data`` on a fresh socket (in ``pieces`` sends), optionally
    half-close, and return every byte the server sends before it closes.
    A server that never closes fails with ``socket.timeout``."""
    with socket.create_connection((client.host, client.port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        step = max(1, -(-len(data) // pieces))
        for start in range(0, len(data), step):
            sock.sendall(data[start:start + step])
            if pieces > 1:
                time.sleep(0.001)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        received = bytearray()
        while chunk := sock.recv(65536):
            received += chunk
    return bytes(received)


def split_responses(raw):
    """``(status, headers, body)`` of each response in a byte stream."""
    responses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {raw[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines[1:])
        }
        length = 0 if status < 200 else int(headers.get("content-length", len(rest)))
        responses.append((status, headers, rest[:length]))
        raw = rest[length:]
    return responses


def post_bytes(path, body):
    return b"POST %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s" % (
        path, len(body), body
    )


class TestFraming:
    """The event-loop front-end's own HTTP/1.1 parsing."""

    def test_pipelined_requests_are_answered_in_order(self, served):
        _, client = served
        # The first is answered off the loop (opening a session may call
        # a catalog factory), the others inline; the order still holds.
        raw = raw_exchange(
            client,
            post_bytes(b"/v1/sessions", b'{"tenant": "acme"}')
            + b"GET /v1/runs/run-424242 HTTP/1.1\r\nHost: test\r\n\r\n"
            + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
        )
        responses = split_responses(raw)
        assert [status for status, _, _ in responses] == [201, 404, 200]
        assert json.loads(responses[0][2])["session"]["tenant"] == "acme"
        assert json.loads(responses[2][2])["status"] == "ok"

    def test_http_1_0_gets_connection_close(self, served):
        _, client = served
        raw = raw_exchange(
            client, b"GET /healthz HTTP/1.0\r\n\r\n", half_close=False
        )
        [(status, headers, body)] = split_responses(raw)
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == "ok"

    def test_body_split_over_many_sends(self, served):
        _, client = served
        data = post_bytes(b"/v1/sessions", b'{"schema_version": 1, "tenant": "acme"}')
        raw = raw_exchange(client, data, pieces=len(data))
        [(status, _, body)] = split_responses(raw)
        assert status == 201
        assert json.loads(body)["session"]["tenant"] == "acme"

    def test_non_integer_content_length_is_400(self, served):
        _, client = served
        raw = raw_exchange(
            client,
            b"POST /v1/sessions HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: abc\r\n\r\n{}",
        )
        [(status, _, body)] = split_responses(raw)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid-request"

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(
                b"POST /v1/sessions HTTP/1.1\r\nHost: test\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b'11\r\n{"tenant": "acme"}\r\n0\r\n\r\n',
                id="transfer-encoding",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
                id="oversized-head",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-Field-%d: v\r\n" % i for i in range(120))
                + b"\r\n",
                id="too-many-headers",
            ),
            pytest.param(b"GET /healthz\r\n\r\n", id="malformed-request-line"),
        ],
    )
    def test_framing_error_is_400_and_closes(self, served, data):
        """Nothing after a request the server cannot frame is trusted:
        the pipelined ``/healthz`` behind it is never answered."""
        _, client = served
        raw = raw_exchange(
            client,
            data + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
            half_close=False,
        )
        [(status, headers, body)] = split_responses(raw)
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "invalid-request"

    def test_disconnected_stream_leaves_no_watcher(self, served):
        harness, client = served
        sid = open_session(client)
        _, body, _ = submit(client, sid, harness.payload(hold="g", queries=2))
        run_id = body["run"]["run_id"]
        harness.wait_started("g")
        conn, response = client.stream(f"/v1/runs/{run_id}/events")
        assert read_frame(response)["event"] == "run-started"
        run = harness.service._runs[run_id]
        assert len(run.watchers) == 1
        response.close()
        conn.close()
        deadline = time.monotonic() + 10
        while run.watchers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not run.watchers
        harness.release("g")
        assert harness.wait_terminal(run_id)["state"] == "completed"

    def test_blocked_catalog_factory_leaves_the_loop_serving(self, harness):
        """Opening a session runs its catalog factory off the loop: while
        one blocks, another connection is still answered."""
        entered, release = threading.Event(), threading.Event()

        def factory(metrics=None):
            entered.set()
            assert release.wait(timeout=30)
            return harness._factory(metrics)

        service = DiscoveryService({"default": factory})
        server = serve(service)
        client = Client(server)
        opened = {}
        opener = threading.Thread(
            target=lambda: opened.update(
                result=client.request("POST", "/v1/sessions", {"tenant": "acme"})
            )
        )
        try:
            opener.start()
            assert entered.wait(timeout=30)
            status, body, _ = client.request("GET", "/healthz")
            assert status == 200
            assert not opened
            release.set()
            opener.join(timeout=30)
            assert not opener.is_alive()
            assert opened["result"][0] == 201
        finally:
            release.set()
            server.drain(timeout=10)


_request_lines = st.builds(
    "{} {} {}".format,
    st.sampled_from(["GET", "POST", "DELETE", "PUT", "get", ""]),
    st.sampled_from([
        "/healthz", "/metrics", "/v1/sessions", "/v1/sessions/s-000001",
        "/v1/runs", "/v1/runs/run-000001", "/v1/runs/run-000001/events",
        "/", "//", "*", "/healthz?x=1",
    ]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.1 x", ""]),
)
_header_lines = st.lists(
    st.builds(
        "{}: {}".format,
        st.sampled_from([
            "Content-Length", "content-length", "Transfer-Encoding",
            "Connection", "Expect", "X-Any", " Folded",
        ]),
        st.one_of(st.sampled_from(["0", "5", "17", "-1", "close", "100-continue"]),
                  st.text(max_size=12)),
    ),
    max_size=5,
)
_bodies = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([
        b'{"tenant": "acme"}',
        b'{"session": "s-000001", "request": {"base": "x", "task": "t"}}',
        b"[]", b"null", b'{"schema_version": 99}',
    ]),
)
_requests = st.builds(
    lambda line, headers, body: "\r\n".join([line, *headers, "", ""]).encode("utf-8") + body,
    _request_lines,
    _header_lines,
    _bodies,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=st.one_of(
        st.binary(max_size=200), _requests, st.lists(_requests, max_size=3).map(b"".join)
    )
)
def test_arbitrary_request_bytes_never_500_or_hang(served, caplog, data):
    _, client = served
    raw = raw_exchange(client, data)  # EOF within the timeout: no hang
    for status, _, body in split_responses(raw):
        assert status != 500
        assert b"Traceback" not in body
    # An exception escaping a loop callback is logged at ERROR by asyncio
    # (its debug mode also warns of slow callbacks; those are not faults).
    assert not [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]
    assert client.request("GET", "/healthz")[0] == 200
