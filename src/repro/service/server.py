"""The service front end: a stdlib-only threaded HTTP JSON API.

The server is deliberately thin: it validates submissions against the
:mod:`repro.campaign.scenario` specs, runs them through the
:class:`~repro.service.coalesce.Coalescer`, and reads state back out of
the broker and the shared result cache.  All simulation happens in queue
workers; the front end can be restarted at any time without losing a
job (the broker file is the durable state).

API
---
======  ==========================  =============================================
POST    ``/scenarios``              submit one scenario; body
                                    ``{"scenario": {...}, "base_options"?,
                                    "timeout"?, "sample_points"?, "priority"?}``;
                                    replies with the (possibly coalesced) job id,
                                    the admission decision, and -- when answered
                                    from the cache -- the result itself
POST    ``/campaigns``              submit many scenarios at once (same context
                                    fields, ``"scenarios": [...]``); replies with
                                    a campaign id plus per-scenario job ids and
                                    admission counts
GET     ``/jobs/<id>``              job status document
GET     ``/jobs/<id>/result``       the outcome dict (``202`` while pending)
GET     ``/campaigns``              index of front-end-tracked campaigns
GET     ``/campaigns/<id>``         campaign progress snapshot
GET     ``/campaigns/<id>/stream``  chunked JSONL: one line per scenario as its
                                    result lands, then a summary line
GET     ``/healthz``                liveness + queue depth
GET     ``/stats``                  broker depth, coalescing counters, cache
                                    size, per-worker snapshots, cost-model
                                    coverage
GET     ``/metrics``                Prometheus text exposition: server
                                    telemetry, derived fleet state, and every
                                    live worker's published metrics relabeled
                                    with ``worker="host:pid"``
======  ==========================  =============================================

Errors are JSON too: ``{"error": ...}`` with a 4xx/5xx status.  When a
``max_queue_depth`` is configured, submissions that would land on an
already-deep queue are rejected with ``429`` and a ``Retry-After`` hint
(queue-depth backpressure): the front end stays responsive and the
client learns to back off instead of timing out.
"""

from __future__ import annotations

import hmac
import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import wire
from repro.campaign.backends.base import ExecutionContext
from repro.campaign.cache import ResultCache
from repro.campaign.scenario import Scenario
from repro.campaign.schedule import history_path_for, load_history
from repro.core.options import SimOptions
from repro.service import layout
from repro.service.broker import JobBroker
from repro.service.coalesce import Coalescer
from repro.telemetry import REGISTRY
from repro.telemetry import metrics as telemetry
from repro.telemetry import prometheus

__all__ = ["ServiceServer", "ApiError"]

#: worker snapshots older than this are treated as departed (not shown)
WORKER_STALE_SECONDS = 300.0

_TM_REQUESTS = telemetry.counter(
    "repro_server_requests_total",
    "HTTP requests served, by coarse route.", ("route",))
_TM_BACKPRESSURE = telemetry.counter(
    "repro_server_backpressure_rejections_total",
    "Submissions rejected with 429 because the queue was too deep.")
_TM_AUTH_FAILURES = telemetry.counter(
    "repro_server_auth_failures_total",
    "Requests rejected with 401 (missing or wrong bearer token).")

#: maximum accepted request body (a campaign of thousands of scenarios
#: fits comfortably; a runaway client does not take the process down)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: most recent ``POST /campaigns`` records kept in the broker (older
#: ones are pruned on insert -- an always-on deployment must not grow
#: the campaigns table without bound)
MAX_CAMPAIGNS = 1024

#: routes that never require auth: liveness probes and metric scrapers
#: are infrastructure, not clients
OPEN_ROUTES = ("healthz", "metrics")


class ApiError(Exception):
    """A client-visible error with an HTTP status code."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


def _validate_scenario(data: object) -> Dict[str, object]:
    """Parse one scenario dict through the campaign spec (400 on failure)."""
    if not isinstance(data, dict):
        raise ApiError(400, "scenario must be a JSON object")
    try:
        scenario = Scenario.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid scenario: {exc}") from exc
    if not scenario.name:
        raise ApiError(400, "scenario needs a non-empty name")
    return scenario.to_dict()


def _decode_submission(body: Dict[str, object],
                       schema: type) -> wire.WireMessage:
    """Validate an HTTP body against its wire schema (400 on failure)."""
    try:
        return wire.decode(body, expect=schema)
    except wire.WireError as exc:
        raise ApiError(400, f"invalid submission: {exc}") from exc


def _validate_context(submission: wire.WireMessage) -> ExecutionContext:
    """Parse a submission's campaign-context fields (400 on failure)."""
    base_options = submission.base_options
    if base_options is not None:
        try:
            base_options = SimOptions.from_dict(base_options).to_dict()
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ApiError(400, f"invalid base_options: {exc}") from exc
    return ExecutionContext(base_options=base_options,
                            timeout=submission.timeout,
                            sample_points=submission.sample_points)


class ServiceServer:
    """The queue-brokered simulation service (front end only).

    Construct with a data directory (broker + cache are opened under
    it), or pass explicit ``broker`` / ``cache`` instances.  ``start()``
    serves on a daemon thread (tests), ``serve_forever()`` blocks (the
    CLI).
    """

    def __init__(
        self,
        data_dir: Union[str, Path, None] = None,
        broker: Optional[JobBroker] = None,
        cache: Optional[ResultCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.1,
        max_queue_depth: Optional[int] = None,
        auth_token: Optional[str] = None,
    ):
        if broker is None:
            if data_dir is None:
                raise ValueError("ServiceServer needs data_dir or broker")
            broker = layout.open_broker(data_dir)
        if cache is None and data_dir is not None:
            cache = layout.open_cache(data_dir)
        self.broker = broker
        self.cache = cache
        self.coalescer = Coalescer(broker, cache)
        self.poll_interval = float(poll_interval)
        #: queue-depth backpressure: submissions are 429-rejected while
        #: the ready (queued) depth exceeds this bound -- a queue exactly
        #: at the limit still admits (the limit is a capacity, not a fence)
        self.max_queue_depth = max_queue_depth
        #: shared-secret bearer token; ``None`` disables auth entirely
        self.auth_token = auth_token
        self.started_at = time.time()

        service = self

        class Handler(_ServiceHandler):
            pass

        Handler.service = service
        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # -- request logic (transport-free, so tests can call it directly) ----------------

    def _check_backpressure(self) -> None:
        """429-reject submissions while the ready queue is too deep.

        Warm and coalescing duplicates are rejected along with cold
        submissions: under pressure the cheap thing for the *service* is
        to shed load before parsing scenarios at all, and the client's
        retry will be answered from cache once the queue drains.  The
        ``Retry-After`` hint assumes each live worker clears roughly one
        job per second -- coarse, but it scales with the backlog.
        """
        if self.max_queue_depth is None:
            return
        ready = self.broker.depth()["queued"]
        if ready <= self.max_queue_depth:
            return
        live_workers = max(1, len(self.broker.worker_metrics(
            max_age=WORKER_STALE_SECONDS)))
        retry_after = max(1, min(60, ready // live_workers))
        self.broker.incr("backpressure_rejections")
        _TM_BACKPRESSURE.inc()
        raise ApiError(
            429,
            f"queue depth {ready} exceeds the configured limit "
            f"{self.max_queue_depth}; retry after {retry_after}s",
            headers={"Retry-After": str(retry_after)})

    def submit_scenario(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        self._check_backpressure()
        submission = _decode_submission(body, wire.ScenarioSubmission)
        payload = _validate_scenario(submission.scenario)
        context = _validate_context(submission)
        priority = int(submission.priority or 0)
        admission = self.coalescer.admit(payload, context, priority=priority)
        document = admission.to_dict()
        document["result_url"] = f"/jobs/{admission.job_id}/result"
        status = 200 if admission.decision == "cache" else 202
        return status, document

    def submit_campaign(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        self._check_backpressure()
        submission = _decode_submission(body, wire.CampaignSubmission)
        if not submission.scenarios:
            raise ApiError(400, "campaign needs a non-empty 'scenarios' list")
        payloads = [_validate_scenario(s) for s in submission.scenarios]
        names = [str(p["name"]) for p in payloads]
        if len(set(names)) != len(names):
            raise ApiError(400, "scenario names within a campaign must be unique")
        context = _validate_context(submission)
        priority = int(submission.priority or 0)
        admissions = [self.coalescer.admit(p, context, priority=priority)
                      for p in payloads]
        decisions = [a.decision for a in admissions]
        record = wire.CampaignRecord(
            campaign_id=uuid.uuid4().hex[:12],
            names=names,
            job_ids=[a.job_id for a in admissions],
            decisions=decisions,
            created_at=time.time(),
        )
        self.broker.put_campaign(record.campaign_id, wire.encode(record),
                                 keep=MAX_CAMPAIGNS)
        document = record.to_status_dict()
        document.update({
            "admitted": decisions.count("admitted"),
            "coalesced": decisions.count("coalesced"),
            "cached": decisions.count("cache"),
            "status_url": f"/campaigns/{record.campaign_id}",
            "stream_url": f"/campaigns/{record.campaign_id}/stream",
        })
        return 202, document

    def campaign_progress(self, campaign_id: str) -> Dict[str, object]:
        campaign = self._campaign(campaign_id)
        statuses: Dict[str, str] = {}
        result_statuses: Dict[str, Optional[str]] = {}
        for name, job_id in zip(campaign.names, campaign.job_ids):
            document = self.coalescer.status_for(job_id) or {}
            statuses[name] = str(document.get("status", "unknown"))
            result_statuses[name] = document.get("result_status")
        done = sum(1 for s in statuses.values() if s in ("done", "failed"))
        out = campaign.to_status_dict()
        out.update({
            "done": done,
            "finished": done == len(campaign.names),
            "statuses": statuses,
            "result_statuses": result_statuses,
        })
        return out

    def campaign_index(self) -> Dict[str, object]:
        """Lightweight progress of every broker-persisted campaign.

        One bulk broker read per campaign (not one per job) -- this is
        the polling surface of the ``repro.watch`` dashboard.
        """
        entries: List[Dict[str, object]] = []
        for campaign in self._stored_campaigns():
            jobs = self.broker.fetch(campaign.job_ids)
            done = failed = 0
            for job_id in campaign.job_ids:
                job = jobs.get(job_id)
                if job is None:
                    # warm admission: never enqueued, answered from cache
                    done += 1
                elif job.status == "done":
                    done += 1
                elif job.status == "failed":
                    failed += 1
            entries.append({
                "campaign_id": campaign.campaign_id,
                "total": len(campaign.names),
                "done": done + failed,
                "failed": failed,
                "finished": done + failed == len(campaign.names),
                "created_at": campaign.created_at,
                "status_url": f"/campaigns/{campaign.campaign_id}",
            })
        entries.sort(key=lambda e: e["created_at"], reverse=True)
        return {"campaigns": entries}

    def _stored_campaigns(self) -> List[wire.CampaignRecord]:
        records: List[wire.CampaignRecord] = []
        for data in self.broker.campaigns(limit=MAX_CAMPAIGNS):
            try:
                records.append(wire.decode(data, expect=wire.CampaignRecord))
            except wire.WireError:
                continue  # a corrupt row must not take the index down
        return records

    def _campaign(self, campaign_id: str) -> wire.CampaignRecord:
        data = self.broker.get_campaign(campaign_id)
        if data is None:
            raise ApiError(404, f"unknown campaign {campaign_id!r}")
        try:
            return wire.decode(data, expect=wire.CampaignRecord)
        except wire.WireError as exc:
            raise ApiError(500, f"corrupt campaign record: {exc}") from exc

    def _worker_view(self) -> Dict[str, Dict[str, object]]:
        """Per-worker state digested from the published snapshots."""
        now = time.time()
        workers: Dict[str, Dict[str, object]] = {}
        for worker_id, record in self.broker.worker_metrics(
                max_age=WORKER_STALE_SECONDS).items():
            try:
                snapshot = wire.decode(record.get("snapshot") or {},
                                       expect=wire.WorkerSnapshot)
            except wire.WireError:
                continue  # malformed snapshot: not worth a 500 on /stats
            metrics = snapshot.metrics or {}

            def _family_total(name: str) -> float:
                family = metrics.get(name) or {}
                return sum(float(s.get("value", 0.0))
                           for s in family.get("samples", []))

            workers[worker_id] = {
                "busy": snapshot.busy,
                "current_job": snapshot.current_job,
                "pid": snapshot.pid,
                "started_at": snapshot.started_at,
                "num_executed": snapshot.num_executed,
                "num_cache_hits": snapshot.num_cache_hits,
                "steps_total": _family_total("repro_integrator_steps_total"),
                "updated_at": record.get("updated_at"),
                "heartbeat_age_seconds": now - float(record.get("updated_at", now)),
            }
        return workers

    def stats(self) -> Dict[str, object]:
        # the canonical history file sits in the cache directory (shared
        # with adaptive campaigns); broker-adjacent file is the fallback
        # for cache-less deployments
        history = history_path_for(self.cache.root) if self.cache is not None \
            else self.broker.history_path
        model = load_history(history)
        return {
            "uptime_seconds": time.time() - self.started_at,
            "broker": {"path": str(self.broker.path),
                       "jobs": self.broker.depth()},
            "counters": self.coalescer.counters(),
            "cache": {
                "root": str(self.cache.root) if self.cache else None,
                "entries": len(self.cache) if self.cache else 0,
            },
            "runtime_model": {
                "records": model.num_records,
                "pairs": model.num_pairs,
            },
            "campaigns": self.broker.count_campaigns(),
            "workers": self._worker_view(),
            "fleet": self.broker.supervisor_state(
                max_age=WORKER_STALE_SECONDS),
            "backpressure": {
                "max_queue_depth": self.max_queue_depth,
                "rejections": self.broker.counters().get(
                    "backpressure_rejections", 0),
            },
        }

    # -- /metrics ----------------------------------------------------------------------

    def metrics_document(self) -> Dict[str, Dict[str, object]]:
        """The merged snapshot behind ``GET /metrics``.

        Three ingredients: this process's registry (server + broker +
        coalescer counters), fleet state derived fresh from the broker
        (queue depth, durable counters, cache size, worker liveness),
        and every live worker's published registry relabeled with its
        identity -- which is how broker lease/ack, worker loop, and
        integrator-reuse metrics show up per worker in one scrape.
        """
        now = time.time()
        parts = [REGISTRY.snapshot()]
        parts.append(prometheus.make_family(
            "repro_broker_jobs", "gauge",
            "Jobs in the broker by status (expired leases count as queued).",
            [({"status": status}, count)
             for status, count in self.broker.depth().items()]))
        parts.append(prometheus.make_family(
            "repro_service_counter_total", "counter",
            "Durable fleet-wide broker counters (survive every restart).",
            [({"name": name}, value)
             for name, value in self.coalescer.counters().items()]))
        parts.append(prometheus.make_family(
            "repro_service_uptime_seconds", "gauge",
            "Seconds since this front end started.",
            [({}, now - self.started_at)]))
        parts.append(prometheus.make_family(
            "repro_service_cache_entries", "gauge",
            "Entries in the shared result cache.",
            [({}, len(self.cache) if self.cache else 0)]))
        parts.append(prometheus.make_family(
            "repro_service_campaigns", "gauge",
            "Campaigns persisted in the broker.",
            [({}, self.broker.count_campaigns())]))

        workers = self.broker.worker_metrics(max_age=WORKER_STALE_SECONDS)
        up_samples, busy_samples, age_samples = [], [], []
        for worker_id, record in workers.items():
            snapshot = record.get("snapshot") or {}
            up_samples.append(({"worker": worker_id}, 1))
            busy_samples.append(({"worker": worker_id},
                                 1 if snapshot.get("busy") else 0))
            age_samples.append(({"worker": worker_id},
                                now - float(record.get("updated_at", now))))
            metrics = snapshot.get("metrics")
            if isinstance(metrics, dict):
                parts.append(prometheus.labeled(metrics, worker=worker_id))
        parts.append(prometheus.make_family(
            "repro_fleet_worker_up", "gauge",
            "1 for each worker with a fresh published snapshot.", up_samples))
        parts.append(prometheus.make_family(
            "repro_fleet_worker_busy", "gauge",
            "1 while the worker is executing a job.", busy_samples))
        parts.append(prometheus.make_family(
            "repro_fleet_worker_heartbeat_age_seconds", "gauge",
            "Seconds since the worker last published its snapshot.",
            age_samples))
        parts.extend(self._supervisor_families())
        return prometheus.merge(*parts)

    def _supervisor_families(self) -> List[Dict[str, object]]:
        """``repro_fleet_supervisor_*`` families from the published state.

        The supervisor runs in its own process; its counters reach the
        scrape the same way worker registries do -- through the broker.
        A missing or stale state publishes nothing (absence *is* the
        signal that no supervisor is attached).
        """
        state = self.broker.supervisor_state(max_age=WORKER_STALE_SECONDS)
        if not state:
            return []
        events = [({"event": event}, float(state.get(key, 0)))
                  for event, key in (("spawn", "spawns"),
                                     ("retire", "retires"),
                                     ("crash", "crashes"),
                                     ("zombie_reaped", "zombies_reaped"))]
        return [
            prometheus.make_family(
                "repro_fleet_supervisor_up", "gauge",
                "1 while a fleet supervisor is publishing state.",
                [({}, 1)]),
            prometheus.make_family(
                "repro_fleet_supervisor_live_workers", "gauge",
                "Workers the supervisor currently counts as live.",
                [({}, float(state.get("live_workers", 0)))]),
            prometheus.make_family(
                "repro_fleet_supervisor_events_total", "counter",
                "Supervisor lifecycle events since it started.", events),
            prometheus.make_family(
                "repro_fleet_supervisor_breaker_open", "gauge",
                "1 while the crash-loop circuit breaker is open.",
                [({}, 1 if state.get("breaker_open") else 0)]),
            prometheus.make_family(
                "repro_fleet_supervisor_breaker_trips_total", "counter",
                "Times the crash-loop circuit breaker opened.",
                [({}, float(state.get("breaker_trips", 0)))]),
        ]

    def render_metrics(self) -> str:
        """``GET /metrics``: Prometheus text exposition format."""
        return prometheus.render_text(self.metrics_document())

    def healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            "broker": str(self.broker.path),
            "jobs": self.broker.depth(),
            "uptime_seconds": time.time() - self.started_at,
        }


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`ServiceServer`."""

    service: ServiceServer  # injected per server instance
    protocol_version = "HTTP/1.1"
    #: headers and body go out in two sends; with Nagle's algorithm on, the
    #: body waits for the client's delayed ACK of the headers (~40 ms per
    #: reply on a kept-alive connection)
    disable_nagle_algorithm = True
    #: quiet by default; the CLI flips this for interactive serving
    verbose = False

    # -- plumbing ----------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 -- stdlib signature
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        # error paths may not have drained the request body (oversized or
        # unparsable submissions); reusing the connection would let the
        # unread bytes masquerade as the next request line, so close it
        if status >= 400:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, document: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(document, default=repr).encode("utf-8")
        self._send_body(status, body, "application/json", headers)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _read_body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ApiError(400, "missing or invalid Content-Length")
        if length <= 0:
            raise ApiError(400, "request body required")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            handled = self._route(method, path)
        except ApiError as exc:
            self._send_json(exc.status, {"error": str(exc)}, exc.headers)
            return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-response; nothing to answer
        except Exception as exc:  # noqa: BLE001 -- the API must answer
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        if not handled:
            self._send_json(404, {"error": f"no route for {method} {path}"})

    def do_POST(self) -> None:  # noqa: N802 -- stdlib naming
        self._dispatch("POST")

    def do_GET(self) -> None:  # noqa: N802 -- stdlib naming
        self._dispatch("GET")

    # -- routing -----------------------------------------------------------------------

    @staticmethod
    def _route_label(method: str, parts: List[str]) -> str:
        """Coarse route label for the request counter (bounded cardinality)."""
        if not parts:
            return "root"
        if parts[0] in ("scenarios", "campaigns", "jobs", "healthz",
                        "stats", "metrics"):
            if parts[0] == "campaigns" and len(parts) == 3:
                return "campaigns/stream"
            if parts[0] == "jobs" and len(parts) == 3:
                return "jobs/result"
            return parts[0]
        return "other"

    def _check_auth(self, parts: List[str]) -> None:
        """Enforce the shared-secret bearer token, when one is set.

        ``/healthz`` and ``/metrics`` stay open: liveness probes and
        metric scrapers are infrastructure, and neither leaks scenario
        payloads.  The comparison is constant-time so the token cannot
        be guessed byte by byte off response latency.
        """
        token = self.service.auth_token
        if token is None or (parts and parts[0] in OPEN_ROUTES):
            return
        provided = self.headers.get("Authorization", "")
        expected = f"Bearer {token}"
        if hmac.compare_digest(provided.encode("utf-8"),
                               expected.encode("utf-8")):
            return
        _TM_AUTH_FAILURES.inc()
        raise ApiError(401, "missing or invalid bearer token",
                       headers={"WWW-Authenticate": "Bearer"})

    def _route(self, method: str, path: str) -> bool:
        service = self.service
        parts = [p for p in path.split("/") if p]
        _TM_REQUESTS.labels(self._route_label(method, parts)).inc()
        self._check_auth(parts)
        if method == "POST" and parts == ["scenarios"]:
            status, document = service.submit_scenario(self._read_body())
            self._send_json(status, document)
            return True
        if method == "POST" and parts == ["campaigns"]:
            status, document = service.submit_campaign(self._read_body())
            self._send_json(status, document)
            return True
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            document = service.coalescer.status_for(parts[1])
            if document is None:
                raise ApiError(404, f"unknown job {parts[1]!r}")
            self._send_json(200, document)
            return True
        if method == "GET" and len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "result":
            job_id = parts[1]
            result = service.coalescer.result_for(job_id)
            if result is not None:
                self._send_json(200, result)
                return True
            document = service.coalescer.status_for(job_id)
            if document is None:
                raise ApiError(404, f"unknown job {job_id!r}")
            self._send_json(202, document)
            return True
        if method == "GET" and parts == ["campaigns"]:
            self._send_json(200, service.campaign_index())
            return True
        if method == "GET" and len(parts) == 2 and parts[0] == "campaigns":
            self._send_json(200, service.campaign_progress(parts[1]))
            return True
        if method == "GET" and len(parts) == 3 and parts[0] == "campaigns" \
                and parts[2] == "stream":
            self._stream_campaign(parts[1])
            return True
        if method == "GET" and parts == ["healthz"]:
            self._send_json(200, service.healthz())
            return True
        if method == "GET" and parts == ["stats"]:
            self._send_json(200, service.stats())
            return True
        if method == "GET" and parts == ["metrics"]:
            self._send_text(200, service.render_metrics(),
                            prometheus.CONTENT_TYPE)
            return True
        return False

    # -- streaming ---------------------------------------------------------------------

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()

    def _stream_campaign(self, campaign_id: str) -> None:
        """Stream one JSONL event per scenario as its result lands."""
        service = self.service
        campaign = service._campaign(campaign_id)  # 404s before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

        remaining = dict(zip(campaign.names, campaign.job_ids))
        try:
            while remaining:
                finished: List[str] = []
                for name, job_id in remaining.items():
                    document = service.coalescer.status_for(job_id)
                    if document is None or \
                            document.get("status") not in ("done", "failed"):
                        continue
                    finished.append(name)
                    event = {
                        "event": "result",
                        "name": name,
                        "job_id": job_id,
                        "status": document.get("status"),
                        "result_status": document.get("result_status"),
                        "error": document.get("error"),
                    }
                    self._write_chunk(
                        json.dumps(event, default=repr).encode("utf-8") + b"\n")
                for name in finished:
                    remaining.pop(name)
                if remaining:
                    time.sleep(service.poll_interval)
            summary = service.campaign_progress(campaign_id)
            summary["event"] = "end"
            self._write_chunk(
                json.dumps(summary, default=repr).encode("utf-8") + b"\n")
            self._write_chunk(b"")  # terminal chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up; the campaign keeps running
