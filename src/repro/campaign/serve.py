"""``repro serve``: a long-lived HTTP/JSON campaign API (stdlib only).

The "heavy traffic" story: a :class:`ThreadingHTTPServer` front-end
over the same store/cache pair the sweep engine uses.  Every ``POST
/run`` is content-addressed exactly like a sweep job, so

- a config already in the run cache answers from disk without
  recomputing;
- identical requests *in flight at the same time* are single-flighted:
  the first request computes, the duplicates park on an event and
  receive the same result (``"source": "joined"``) — the classic
  request-coalescing pattern, keyed by the same hash as the cache;
- ``POST /run?stream=1`` streams newline-delimited JSON progress events
  (accepted → start/joined/cache → result) in the
  ``LiveProgressReporter`` spirit, so a client can watch a long job.

Endpoints::

    GET  /healthz           liveness probe
    GET  /stats             cache/dedupe/store counters
    GET  /metrics           Prometheus text: request counts, latency
    GET  /results           store summary rows
    GET  /results/<key>     one full result row
    POST /run[?stream=1]    run (or fetch) one campaign job document
    POST /tune              block-size sweep rows for a machine
    POST /profile           stored row + optional deltas vs another key

The service carries its own :class:`~repro.obs.metrics.MetricsRegistry`
(independent of the ambient obs context, which stays mirrored): every
request increments ``serve.requests{endpoint=, status=}``, observes
``serve.latency_s{endpoint=}``, and moves the ``serve.inflight`` gauge,
with ``campaign.serve{event=}`` counting dedupe/cache sources.  ``GET
/metrics`` renders all of it through the same
:func:`repro.obs.export.to_prometheus_text` renderer the exporter CLI
uses.  Non-stream ``POST /run`` responses carry an ``X-Repro-Source``
header (``cache``/``joined``/``computed``).

Errors are structured JSON (``{"error", "status", "path"}``) with
conventional status codes.  Requests are bounded: a body over
:data:`MAX_BODY_BYTES` is refused with 413 before it is read, a
non-integer or negative ``Content-Length`` gets 400, a connection idle
for :attr:`_Handler.timeout` seconds is dropped, and an unexpected
exception in a handler answers a structured 500 instead of dropping
the connection.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.campaign.cache import RunCache
from repro.campaign.jobs import Job
from repro.campaign.runner import execute_job
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError
from repro.machine import get_machine
from repro.model.tuner import sweep_block_sizes
from repro.obs import context as obs_context
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import MetricsRegistry

SERVE_SCHEMA = "repro.campaign.serve/v1"

#: a joined request waits at most this long for the computing request
JOIN_TIMEOUT_S = 600.0

#: largest request body read; a longer ``Content-Length`` is answered 413
MAX_BODY_BYTES = 1 << 20


def _count(event: str) -> None:
    obs = obs_context.current()
    if obs.enabled:
        obs.metrics.counter("campaign.serve", event=event).inc()


class _Flight:
    """In-flight computation other requests for the same key can join."""

    def __init__(self) -> None:
        self.event = threading.Event()
        self.row: Optional[dict] = None
        self.error = ""


class CampaignService:
    """The request-handling core, independent of HTTP plumbing."""

    def __init__(
        self,
        store: ResultStore,
        cache: RunCache,
        code: Optional[str] = None,
    ) -> None:
        if code is None:
            from repro.obs.provenance import code_version

            code = code_version()
        self.store = store
        self.cache = cache
        self.code = code
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self._http_inflight = 0
        self.counters = {
            "requests": 0, "computed": 0, "cache_hits": 0, "joined": 0,
            "errors": 0,
        }

    def _event(self, event: str) -> None:
        """Count a service event in the scrape registry + obs mirror."""
        self.metrics.counter("campaign.serve", event=event).inc()
        _count(event)

    # -- request-level telemetry (driven by the HTTP handler) -------------

    def request_started(self) -> None:
        """Raise the ``serve.inflight`` gauge as a request enters."""
        with self._lock:
            self._http_inflight += 1
            self.metrics.gauge("serve.inflight").set(self._http_inflight)

    def request_finished(
        self, endpoint: str, status: int, elapsed_s: float
    ) -> None:
        """Record one finished request: latency, status, in-flight."""
        with self._lock:
            self._http_inflight -= 1
            self.metrics.gauge("serve.inflight").set(self._http_inflight)
        self.metrics.counter(
            "serve.requests", endpoint=endpoint, status=str(status)
        ).inc()
        self.metrics.histogram(
            "serve.latency_s", endpoint=endpoint
        ).observe(elapsed_s)

    def execute(
        self,
        job_doc: dict,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> Tuple[dict, str]:
        """Run (or fetch) one job; returns ``(row, source)``.

        ``source`` is ``"cache"``, ``"joined"``, or ``"computed"`` —
        never two computations of the same key at the same time.
        """
        emit = emit or (lambda _ev: None)
        job = Job.from_dict(job_doc)
        key = job.key(self.code)
        emit({"event": "accepted", "key": key, "label": job.label})
        with self._lock:
            self.counters["requests"] += 1
            row = self.cache.get(key)
            if row is not None:
                self.counters["cache_hits"] += 1
                self._event("cache_hit")
                if key not in self.store:
                    self.store.put(row)
                emit({"event": "cache_hit", "key": key})
                return row, "cache"
            flight = self._inflight.get(key)
            owner = flight is None
            if owner:
                flight = _Flight()
                self._inflight[key] = flight
        if not owner:
            emit({"event": "joined", "key": key})
            if not flight.event.wait(JOIN_TIMEOUT_S):
                raise ConfigurationError(
                    f"timed out joining in-flight job {key}"
                )
            if flight.row is None:
                raise ConfigurationError(
                    f"joined job {key} failed: {flight.error}"
                )
            with self._lock:
                self.counters["joined"] += 1
            self._event("joined")
            return flight.row, "joined"
        try:
            emit({"event": "start", "key": key})
            row = execute_job(job.to_dict(), code=self.code)
            with self._lock:
                self.cache.put(key, row)
                self.store.put(row)
                self.counters["computed"] += 1
            self._event("computed")
            flight.row = row
            return row, "computed"
        except Exception as exc:  # lint: ignore[hygiene] - flight boundary: joiners need the error
            flight.error = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.counters["errors"] += 1
            self._event("error")
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()

    # -- secondary request kinds -----------------------------------------

    def tune(self, body: dict) -> list:
        """Block-size sweep rows (the ``repro tune block`` workflow)."""
        machine = get_machine(str(body.get("machine", "frontier")))
        nl = int(body.get("nl", 0))
        grid = int(body.get("grid", 2))
        blocks = [int(b) for b in body.get("blocks", [])]
        if nl < 1 or not blocks:
            raise ConfigurationError(
                "tune request needs positive 'nl' and a 'blocks' list"
            )
        return sweep_block_sizes(
            machine, nl, grid, blocks,
            bcast_algorithm=str(body.get("bcast", "bcast")),
        )

    def profile(self, body: dict) -> dict:
        """A stored row (+ optional per-run deltas vs another key)."""
        key = body.get("key")
        row = self.store.get(key) if isinstance(key, str) else None
        if row is None:
            raise KeyError(f"no stored result for key {key!r}")
        out = {"key": key, "label": row.get("label"),
               "best": row.get("best"), "runs": row.get("runs"),
               "variability": row.get("variability")}
        against = body.get("against")
        if against is not None:
            base = self.store.get(against)
            if base is None:
                raise KeyError(f"no stored result for key {against!r}")
            from repro.obs.analysis import regression_deltas

            deltas = regression_deltas(
                _run_seconds(row), _run_seconds(base),
                threshold=float(body.get("max_regress", 0.25)),
            )
            out["against"] = against
            out["deltas"] = [
                {"name": d.name, "current_s": d.current_s,
                 "baseline_s": d.baseline_s, "delta": d.delta,
                 "regressed": d.regressed}
                for d in deltas
            ]
        return out

    def stats(self) -> dict:
        """The ``GET /stats`` document (counters, cache, store size)."""
        with self._lock:
            counters = dict(self.counters)
            inflight = len(self._inflight)
        return {
            "schema": SERVE_SCHEMA,
            "code": self.code,
            "counters": counters,
            "inflight": inflight,
            "cache": self.cache.stats(),
            "store_rows": len(self.store),
        }


def _run_seconds(row: dict) -> Dict[str, float]:
    out = {"best": float(row["best"]["elapsed_s"])}
    for r in row.get("runs", []):
        out[f"run{r['run']}"] = float(r["elapsed_s"])
    return out


class _BodyTooLarge(Exception):
    """A ``Content-Length`` over :data:`MAX_BODY_BYTES` (answered 413)."""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    #: socket timeout (s): a client that stops sending cannot hold a thread
    timeout = 30

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: A003 - quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # -- plumbing ---------------------------------------------------------

    def _send_json(
        self, doc, status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(doc, indent=2).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._status_sent = status

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._status_sent = status

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(
            {"error": message, "status": status,
             "path": urlparse(self.path).path},
            status=status,
        )

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            raise ValueError(f"Content-Length {header!r} is not an integer")
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode() or "{}")
        if not isinstance(doc, dict):
            raise ConfigurationError("request body must be a JSON object")
        return doc

    # -- routes -----------------------------------------------------------

    def _endpoint(self) -> str:
        """Normalized endpoint label (``/results/<key>`` collapses to
        one label so the scrape cardinality stays bounded)."""
        path = urlparse(self.path).path
        if path.startswith("/results/"):
            return "/results/{key}"
        return path

    def _timed(self, dispatch: Callable[[], None]) -> None:
        """Run one request under the latency/in-flight instrumentation."""
        self._status_sent = 200
        self.service.request_started()
        t0 = time.perf_counter()
        try:
            dispatch()
        except OSError:
            raise  # socket errors and timeouts drop the connection
        except Exception as exc:  # lint: ignore[hygiene] - request boundary: a handler bug answers 500
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        finally:
            self.service.request_finished(
                self._endpoint(), self._status_sent,
                time.perf_counter() - t0,
            )

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._timed(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._timed(self._route_post)

    def _route_get(self) -> None:
        url = urlparse(self.path)
        if url.path == "/healthz":
            self._send_json({"ok": True, "schema": SERVE_SCHEMA})
        elif url.path == "/stats":
            self._send_json(self.service.stats())
        elif url.path == "/metrics":
            self._send_text(to_prometheus_text(self.service.metrics))
        elif url.path == "/results":
            self._send_json({"rows": self.service.store.rows()})
        elif url.path.startswith("/results/"):
            key = url.path.rsplit("/", 1)[1]
            row = self.service.store.get(key)
            if row is None:
                self._send_error_json(404, f"no result for key {key!r}")
            else:
                self._send_json(row)
        else:
            self._send_error_json(404, f"unknown path {url.path!r}")

    def _route_post(self) -> None:
        url = urlparse(self.path)
        try:
            body = self._read_body()
        except _BodyTooLarge as exc:
            self._send_error_json(413, f"request body too large: {exc}")
            return
        except (ValueError, ConfigurationError) as exc:
            self._send_error_json(400, f"bad request body: {exc}")
            return
        try:
            if url.path == "/run":
                stream = parse_qs(url.query).get("stream", ["0"])[0] in (
                    "1", "true", "yes",
                )
                self._handle_run(body, stream)
            elif url.path == "/tune":
                self._send_json({"rows": self.service.tune(body)})
            elif url.path == "/profile":
                self._send_json(self.service.profile(body))
            else:
                self._send_error_json(404, f"unknown path {url.path!r}")
        except (ConfigurationError, KeyError) as exc:
            status = 404 if isinstance(exc, KeyError) else 400
            self._send_error_json(status, str(exc))

    def _handle_run(self, body: dict, stream: bool) -> None:
        if not stream:
            row, source = self.service.execute(body)
            self._send_json(
                {"source": source, "result": row},
                headers={"X-Repro-Source": source},
            )
            return
        # Close-delimited NDJSON progress stream (HTTP/1.0 semantics).
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()

        def emit(event: dict) -> None:
            self.wfile.write(json.dumps(event).encode() + b"\n")
            self.wfile.flush()

        try:
            row, source = self.service.execute(body, emit=emit)
            emit({"event": "result", "source": source, "result": row})
        except Exception as exc:  # lint: ignore[hygiene] - the 200 is sent: an error travels as an event
            emit({"event": "error", "error": str(exc)})


def make_server(
    store: Union[str, Path, ResultStore],
    cache: Union[str, Path, RunCache],
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build (but do not start) the serving HTTP server.

    Pass ``port=0`` to bind an ephemeral port (tests); the bound
    address is ``server.server_address``.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    if not isinstance(cache, RunCache):
        cache = RunCache(cache)
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = CampaignService(store, cache)  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server
