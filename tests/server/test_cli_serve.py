"""``repro serve`` end to end: a real subprocess, a real port, the full
submit → status → events → cancel → metrics round-trip, and a SIGINT
drain.  This is the same loop the CI server-smoke job runs."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

SERVE_ARGS = [
    sys.executable,
    "-m",
    "repro",
    "serve",
    "--scenario",
    "clustering",
    "--seed",
    "0",
    "--port",
    "0",
    "--workers",
    "2",
]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture(scope="module")
def server():
    process = subprocess.Popen(
        SERVE_ARGS,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    url = None
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if " on http://" in line:
                url = line.rsplit(" on ", 1)[1].strip()
                break
        if url is None:
            process.kill()
            _, err = process.communicate(timeout=10)
            pytest.fail(f"serve never announced its URL; stderr: {err}")
        host, port = url.removeprefix("http://").rsplit(":", 1)
        yield process, host, int(port)
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()


def call(host, port, method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        data = (
            json.loads(raw)
            if response.headers.get("Content-Type", "").startswith(
                "application/json"
            )
            else raw
        )
        return response.status, data
    finally:
        conn.close()


def wait_terminal(host, port, run_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = call(host, port, "GET", f"/v1/runs/{run_id}")
        assert status == 200
        if body["run"]["state"] in ("completed", "cancelled", "failed"):
            return body["run"]
        time.sleep(0.2)
    pytest.fail(f"run {run_id} never reached a terminal state")


REQUEST = {
    "base": "raw_materials",
    "task": "scenario-task",
    "searcher": "metam",
    "theta": 0.6,
    "query_budget": 25,
    "seed": 0,
}


class TestServeRoundTrip:
    def test_full_round_trip(self, server):
        _, host, port = server
        status, body = call(host, port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"

        status, body = call(
            host, port, "POST", "/v1/sessions", {"tenant": "smoke"}
        )
        assert status == 201
        sid = body["session"]["session_id"]

        status, body = call(
            host, port, "POST", "/v1/runs",
            {"session": sid, "request": REQUEST},
        )
        assert status == 202
        run = wait_terminal(host, port, body["run"]["run_id"])
        assert run["state"] == "completed"
        assert run["record"]["result"]["utility"] > 0

        # The finished stream replays in order and terminates.
        status, raw = call(
            host, port, "GET", f"/v1/runs/{run['run_id']}/events"
        )
        assert status == 200
        text = raw.decode("utf-8")
        assert text.startswith("event: run-started\n")
        assert "event: run-completed\n" in text

        # Cancel a second run mid-flight (cooperative, may also finish).
        status, body = call(
            host, port, "POST", "/v1/runs",
            {"session": sid, "request": dict(REQUEST, seed=1)},
        )
        assert status == 202
        status, _ = call(
            host, port, "DELETE", f"/v1/runs/{body['run']['run_id']}"
        )
        assert status == 200
        assert wait_terminal(host, port, body["run"]["run_id"])["state"] in (
            "cancelled",
            "completed",
        )

        status, raw = call(host, port, "GET", "/metrics")
        assert status == 200
        exposition = raw.decode("utf-8")
        assert 'tenant="smoke"' in exposition
        assert "repro_server_runs_total" in exposition
        assert "repro_engine_runs_total" in exposition

    def test_errors_speak_the_taxonomy(self, server):
        _, host, port = server
        status, body = call(host, port, "GET", "/v1/runs/run-424242")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_sigint_drains_cleanly(self, server):
        process, host, port = server
        process.send_signal(signal.SIGINT)
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, f"unclean drain: {err}"


def test_second_sigint_during_drain_is_absorbed():
    """A second Ctrl-C while the drain waits for an executing run (or a
    supervisor forwarding one signal twice) neither interrupts the drain
    nor prints a traceback: the exit code is the drain verdict.  A
    ``housing`` run of 80 queries executes for seconds, so the drain is
    still waiting when the second signal lands."""
    args = [arg if arg != "clustering" else "housing" for arg in SERVE_ARGS]
    process = subprocess.Popen(
        args + ["--drain-timeout", "120"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        url = base = None
        while base is None:
            line = process.stdout.readline()
            assert line, "serve exited before announcing itself"
            if " on http://" in line:
                url = line.rsplit(" on ", 1)[1].strip()
            elif line.startswith("scenario base table: "):
                base = line.split(": ", 1)[1].split(" ", 1)[0]
        host, port = url.removeprefix("http://").rsplit(":", 1)
        port = int(port)
        status, body = call(host, port, "POST", "/v1/sessions", {"tenant": "twice"})
        assert status == 201
        request = dict(REQUEST, base=base, query_budget=80, theta=0.99)
        status, body = call(
            host, port, "POST", "/v1/runs",
            {"session": body["session"]["session_id"], "request": request},
        )
        assert status == 202
        run_path = f"/v1/runs/{body['run']['run_id']}"
        deadline = time.monotonic() + 60
        while call(host, port, "GET", run_path)[1]["run"]["state"] != "running":
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.05)
        process.send_signal(signal.SIGINT)
        time.sleep(0.3)
        assert process.poll() is None, "the drain did not wait for the run"
        process.send_signal(signal.SIGINT)
        out, err = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert "Traceback" not in err, err
    verdict = out.strip().splitlines()[-1]
    assert verdict in ("drained", "drain timed out")
    assert process.returncode == (0 if verdict == "drained" else 1)


@pytest.mark.parametrize(
    "flags",
    [
        ["--tenant-burst", "nan"],
        ["--tenant-burst", "inf"],
        ["--tenant-rate", "nan"],
        ["--tenant-rate", "inf"],
        ["--drain-timeout", "nan"],
    ],
    ids=" ".join,
)
def test_non_finite_admission_flags_exit_2(flags):
    """Refused before the server binds a port: these values used to
    serve with admission control silently broken."""
    done = subprocess.run(
        SERVE_ARGS + flags,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=60,
    )
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert flags[0].removeprefix("--").replace("-", "_") in done.stderr
    assert " on http://" not in done.stdout


def _serve_exits(*flags):
    """Run ``repro serve`` with only ``flags``, expecting it to exit
    before announcing a URL."""
    done = subprocess.run(
        SERVE_ARGS[:4] + list(flags),
        capture_output=True,
        text=True,
        env=_env(),
        timeout=60,
    )
    assert " on http://" not in done.stdout
    return done


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_out_of_range_port_is_a_usage_error(port):
    done = _serve_exits("--port", port)
    assert done.returncode == 2
    assert f"argument --port: expected an integer in 0..65535, got '{port}'" in done.stderr
    assert "Traceback" not in done.stderr


class TestBindFailures:
    """A port or address the server cannot bind ends in the CLI's
    ``error:`` line, not a traceback."""

    def test_port_in_use(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            done = _serve_exits("--host", "127.0.0.1", "--port", str(port))
        assert done.returncode == 1
        assert f"error: cannot serve on 127.0.0.1:{port}:" in done.stderr
        assert "Traceback" not in done.stderr

    def test_address_not_on_this_machine(self):
        # TEST-NET-1 (RFC 5737): never a local address, and a literal
        # needs no name lookup.
        done = _serve_exits("--host", "192.0.2.1", "--port", "0")
        assert done.returncode == 1
        assert "error: cannot serve on 192.0.2.1:0:" in done.stderr
        assert "Traceback" not in done.stderr

    def test_unresolvable_host(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.server import http

        def unresolvable(service, host, port):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(http, "serve", unresolvable)
        assert main(["serve", "--host", "no.such.host.invalid", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot serve on no.such.host.invalid:0:" in err
        assert "Name or service not known" in err


class TestCatalogCheckedBeforeBinding:
    """``--catalog DIR`` is validated before the server announces
    itself, not on the first request."""

    def test_missing_catalog(self, tmp_path):
        missing = tmp_path / "nonexistent"
        done = _serve_exits("--catalog", str(missing), "--port", "0")
        assert done.returncode == 1
        assert f"error: no catalog at {missing}" in done.stderr

    def test_catalog_without_recorded_corpus_params(self, tmp_path):
        from repro.catalog import Catalog, CatalogStore
        from repro.dataframe.table import Table

        path = tmp_path / "api-cat"
        catalog = Catalog(CatalogStore(str(path)), seed=0)
        catalog.refresh({"real": Table("real", {"key": ["a", "b"]})})
        catalog.save()
        done = _serve_exits("--catalog", str(path), "--port", "0")
        assert done.returncode == 1
        assert "has no recorded corpus parameters" in done.stderr
