"""Tests for ``repro serve``: HTTP endpoints, caching, and single-flight
dedupe of identical concurrent requests."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.campaign import ResultStore, RunCache
from repro.campaign.serve import MAX_BODY_BYTES, CampaignService, make_server

JOB = {"machine": "frontier", "nl": 3072, "block": 768, "grid": 2,
       "bcast": "bcast", "num_runs": 1}


@pytest.fixture()
def server(tmp_path):
    srv = make_server(
        tmp_path / "store.jsonl", tmp_path / "cache", port=0
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _url(server, path):
    host, port = server.server_address
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as resp:
        return json.loads(resp.read())


def _post(server, path, body):
    req = urllib.request.Request(
        _url(server, path), data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


class TestEndpoints:
    def test_healthz(self, server):
        assert _get(server, "/healthz")["ok"] is True

    def test_run_then_cache_hit(self, server):
        first = _post(server, "/run", JOB)
        assert first["source"] == "computed"
        second = _post(server, "/run", JOB)
        assert second["source"] == "cache"
        assert second["result"]["key"] == first["result"]["key"]
        stats = _get(server, "/stats")
        assert stats["counters"]["computed"] == 1
        assert stats["counters"]["cache_hits"] == 1
        assert stats["store_rows"] == 1

    def test_results_listing_and_lookup(self, server):
        key = _post(server, "/run", JOB)["result"]["key"]
        rows = _get(server, "/results")["rows"]
        assert [r["key"] for r in rows] == [key]
        assert _get(server, f"/results/{key}")["key"] == key

    def test_unknown_result_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/results/ffffffffffffffff")
        assert err.value.code == 404

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404

    def test_bad_job_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/run", {"machine": "frontier", "bogus": 1})
        assert err.value.code == 400

    def test_tune(self, server):
        rows = _post(server, "/tune", {
            "machine": "frontier", "nl": 3072, "grid": 2,
            "blocks": [512, 768],
        })["rows"]
        assert len(rows) == 2

    def test_profile_with_deltas(self, server):
        key = _post(server, "/run", JOB)["result"]["key"]
        other = dict(JOB, bcast="ring2m")
        key2 = _post(server, "/run", other)["result"]["key"]
        out = _post(server, "/profile", {"key": key, "against": key2})
        assert out["against"] == key2
        assert any(d["name"] == "best" for d in out["deltas"])

    def test_stream_emits_progress_events(self, server):
        req = urllib.request.Request(
            _url(server, "/run?stream=1"), data=json.dumps(JOB).encode(),
        )
        with urllib.request.urlopen(req) as resp:
            events = [json.loads(line) for line in resp if line.strip()]
        names = [e["event"] for e in events]
        assert names == ["accepted", "start", "result"]
        assert events[-1]["source"] == "computed"


class TestServeTelemetry:
    def _metrics_text(self, server, *expect):
        """Scrape /metrics; poll briefly for ``expect`` lines — the
        handler thread records latency a hair after the client sees the
        response body, so an instant scrape can race the bookkeeping."""
        import time

        deadline = time.monotonic() + 5.0
        while True:
            with urllib.request.urlopen(_url(server, "/metrics")) as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode()
            if all(e in text for e in expect) or time.monotonic() > deadline:
                return text
            time.sleep(0.01)

    def test_run_responses_carry_source_header(self, server):
        req = urllib.request.Request(
            _url(server, "/run"), data=json.dumps(JOB).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            assert resp.headers["X-Repro-Source"] == "computed"
        with urllib.request.urlopen(req) as resp:
            assert resp.headers["X-Repro-Source"] == "cache"

    def test_error_bodies_are_structured_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/results/ffffffffffffffff")
        doc = json.loads(err.value.read())
        assert doc["status"] == 404
        assert doc["path"] == "/results/ffffffffffffffff"
        assert "ffffffffffffffff" in doc["error"]
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/run", {"machine": "frontier", "bogus": 1})
        doc = json.loads(err.value.read())
        assert doc["status"] == 400 and doc["path"] == "/run"

    def test_metrics_exposes_latency_and_request_counts(self, server):
        _get(server, "/healthz")
        _post(server, "/run", JOB)
        with pytest.raises(urllib.error.HTTPError):
            _get(server, "/results/ffffffffffffffff")
        text = self._metrics_text(
            server,
            'serve_requests{endpoint="/healthz",status="200"} 1',
            'serve_requests{endpoint="/run",status="200"} 1',
            'serve_requests{endpoint="/results/{key}",status="404"} 1',
        )
        assert 'serve_requests{endpoint="/healthz",status="200"} 1' in text
        assert 'serve_requests{endpoint="/run",status="200"} 1' in text
        # /results/<key> collapses to one endpoint label, tagged 404.
        assert (
            'serve_requests{endpoint="/results/{key}",status="404"} 1'
            in text
        )
        assert 'serve_latency_s_count{endpoint="/run"} 1' in text
        assert 'serve_latency_s{endpoint="/run",quantile="0.5"}' in text
        assert 'campaign_serve{event="computed"} 1' in text
        assert "serve_inflight" in text

    def test_metrics_scrape_counts_itself(self, server):
        self._metrics_text(server)
        text = self._metrics_text(
            server, 'serve_requests{endpoint="/metrics",status="200"} 1'
        )
        assert 'serve_requests{endpoint="/metrics",status="200"} 1' in text


class TestSingleFlight:
    def test_concurrent_duplicates_compute_once(self, tmp_path, monkeypatch):
        # Slow the real executor down so all duplicate requests are
        # in flight together, then assert exactly one computation.
        import repro.campaign.serve as serve_mod

        real = serve_mod.execute_job
        release = threading.Event()

        def slow(job_doc, code=None):
            # The owner parks here until the test has seen all four
            # requests arrive, so the other three must join the flight.
            release.wait(10)
            return real(job_doc, code=code)

        monkeypatch.setattr(serve_mod, "execute_job", slow)
        service = CampaignService(
            ResultStore(tmp_path / "store.jsonl"),
            RunCache(tmp_path / "cache"),
            code="test-code",
        )
        results = []

        def call():
            results.append(service.execute(dict(JOB)))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        import time

        deadline = time.monotonic() + 10
        while (service.counters["requests"] < 4
               and time.monotonic() < deadline):
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join()

        sources = sorted(src for _row, src in results)
        assert sources.count("computed") == 1
        assert sources.count("joined") == 3
        assert service.counters["computed"] == 1
        assert service.counters["joined"] == 3
        keys = {row["key"] for row, _src in results}
        assert len(keys) == 1
        # The one computation landed in both cache and store.
        assert service.store.get(keys.pop()) is not None

    def test_failed_flight_propagates_to_joiners(self, tmp_path, monkeypatch):
        import repro.campaign.serve as serve_mod

        gate = threading.Event()

        def doomed(job_doc, code=None):
            gate.wait(5)
            raise RuntimeError("node fell over")

        monkeypatch.setattr(serve_mod, "execute_job", doomed)
        service = CampaignService(
            ResultStore(tmp_path / "store.jsonl"),
            RunCache(tmp_path / "cache"),
            code="test-code",
        )
        errors = []

        def call():
            try:
                service.execute(dict(JOB))
            except Exception as exc:  # noqa: BLE001 - capturing for assert
                errors.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(errors) == 3
        assert any("node fell over" in e for e in errors)


_HANDLER_IMPORTS = """
import http.client, json, sys, threading
import repro.campaign.serve
assert 'repro.model.tuner' in sys.modules
assert 'repro.tools.campaign' in sys.modules

from repro.campaign.serve import make_server
tmp = sys.argv[1]
srv = make_server(tmp + '/store.jsonl', tmp + '/cache', port=0)
threading.Thread(target=srv.serve_forever, daemon=True).start()
host, port = srv.server_address
job = {'machine': 'frontier', 'nl': 3072, 'block': 768, 'grid': 2,
       'bcast': 'bcast', 'num_runs': 1,
       'scenario': {'schema': 'repro.scenario/v1', 'name': 'slow',
                    'injections': [{'kind': 'slow_rank', 'rank': 1,
                                    'factor': 1.5}]}}

def request(method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request(method, path,
                 body=None if body is None else json.dumps(body).encode())
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    assert resp.status == 200, (path, resp.status, data)
    return data

before = set(sys.modules)
key = json.loads(request('POST', '/run', job))['result']['key']  # miss
assert json.loads(request('POST', '/run', job))['source'] == 'cache'
request('POST', '/tune', {'machine': 'frontier', 'nl': 3072, 'grid': 2,
                          'blocks': [768, 1536]})
for path in ('/results', '/results/' + key, '/metrics', '/stats',
             '/healthz'):
    request('GET', path)
added = sorted(set(sys.modules) - before)
assert not added, added
srv.shutdown()
srv.server_close()
"""


def test_serve_imports_handler_dependencies_at_load(tmp_path):
    # Handler threads must not race each other through first imports
    # (a partially initialised repro.model.tuner failed /tune and /run):
    # serve loads every module a handler reaches, so one request of each
    # kind against a fresh server imports nothing.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _HANDLER_IMPORTS, str(tmp_path)],
                   env=env, check=True, timeout=120)


class TestBoundedRequests:
    """Each request bound answers (or hangs up) within a short client
    timeout instead of reading, blocking or dropping the connection."""

    def _send(self, server, path, headers, body=b""):
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", path)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders(body or None)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_oversized_body_refused_before_reading(self, server):
        # The body is never sent: a server that tried to read it would
        # block past the client timeout.
        status, doc = self._send(
            server, "/run", {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413
        assert doc["status"] == 413 and doc["path"] == "/run"

    @pytest.mark.parametrize("length", ["-1", "12abc", "1.5"])
    def test_bad_content_length_is_400(self, server, length):
        status, doc = self._send(server, "/tune", {"Content-Length": length})
        assert status == 400 and "Content-Length" in doc["error"]

    def test_missing_content_length_is_an_empty_body(self, server):
        status, doc = self._send(server, "/tune", {})
        assert status == 400 and "'nl'" in doc["error"]

    def test_stalled_body_is_dropped_after_the_timeout(self, server,
                                                      monkeypatch):
        import repro.campaign.serve as serve_mod

        assert serve_mod._Handler.timeout == 30
        monkeypatch.setattr(serve_mod._Handler, "timeout", 0.2)
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /run HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 100\r\n\r\n{")
            assert sock.recv(1) == b""  # the server hung up

    def test_handler_exception_answers_structured_500(self, server,
                                                      monkeypatch):
        def broken(_self, _body):
            raise RuntimeError("tuner fell over")

        monkeypatch.setattr(CampaignService, "tune", broken)
        body = b"{}"
        status, doc = self._send(
            server, "/tune", {"Content-Length": str(len(body))}, body)
        assert status == 500
        assert doc == {"error": "RuntimeError: tuner fell over",
                       "status": 500, "path": "/tune"}
