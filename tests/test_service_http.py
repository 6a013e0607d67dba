"""End-to-end HTTP tests: live server, two real queue workers, coalescing.

The acceptance test of the service layer: a campaign submitted over
HTTP is executed by worker subprocesses attached to the broker, progress
streams as results land, and a duplicate submission -- in flight or warm
-- performs **zero additional simulations** (asserted via the broker's
``simulations`` counter, which only the workers increment).
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.campaign.backends._spawn import (
    spawn_module_worker,
    terminate_workers,
)
from repro.service.server import ApiError, ServiceServer

FAST_BASE_OPTIONS = {"t_stop": 0.1e-9, "h_init": 2e-12, "store_states": False}


def scenario_body(name="web", segments=4, method="er"):
    return {
        "name": name,
        "circuit": {"factory": "rc_ladder",
                    "params": {"num_segments": segments}},
        "method": method,
        "options": {"t_stop": 0.05e-9},
    }


@pytest.fixture
def service(tmp_path):
    server = ServiceServer(data_dir=tmp_path / "svc", poll_interval=0.05)
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def fleet(tmp_path):
    """Two real queue workers attached to the service data directory."""
    workers = [
        spawn_module_worker(
            "repro.service.worker",
            ["--data", str(tmp_path / "svc"), "--poll", "0.05"])
        for _ in range(2)
    ]
    yield workers
    terminate_workers(workers)


def http(url, body=None, timeout=60.0):
    """One JSON round trip; returns (status, document)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_for_result(url, job_id, deadline=120.0):
    import time

    end = time.time() + deadline
    while time.time() < end:
        status, document = http(f"{url}/jobs/{job_id}/result")
        if status == 200:
            return document
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish within {deadline}s")


class TestSubmitAndCoalesce:
    def test_campaign_over_http_with_duplicate_submits_zero_extra_sims(
            self, service, fleet):
        url = service.url
        campaign_body = {
            "scenarios": [scenario_body("a", 4), scenario_body("b", 5)],
            "base_options": FAST_BASE_OPTIONS,
        }
        status, first = http(f"{url}/campaigns", campaign_body)
        assert status == 202
        assert first["total"] == 2 and first["admitted"] == 2

        # duplicate of an *in-flight* campaign: every scenario coalesces
        status, dup = http(f"{url}/campaigns", campaign_body)
        assert status == 202
        assert dup["admitted"] == 0
        assert dup["coalesced"] + dup["cached"] == 2
        # ...onto the very same job ids
        assert dup["jobs"] == first["jobs"]

        for job_id in first["jobs"].values():
            result = wait_for_result(url, job_id)
            assert result["status"] == "ok"

        _, stats = http(f"{url}/stats")
        sims = stats["counters"]["simulations"]
        assert sims == 2, "each admitted scenario simulates exactly once"

        # duplicate of a *finished* campaign: answered from the result
        # cache at admission time, still zero extra simulations
        status, warm = http(f"{url}/campaigns", campaign_body)
        assert warm["cached"] == 2 and warm["admitted"] == 0
        _, stats = http(f"{url}/stats")
        assert stats["counters"]["simulations"] == sims
        assert stats["counters"]["cache_answers"] >= 2

    def test_single_scenario_roundtrip_and_warm_answer(self, service, fleet):
        url = service.url
        body = {"scenario": scenario_body("solo", 6),
                "base_options": FAST_BASE_OPTIONS}
        status, document = http(f"{url}/scenarios", body)
        assert status == 202
        assert document["decision"] == "admitted"
        result = wait_for_result(url, document["job_id"])
        assert result["status"] == "ok"
        assert result["summary"]["completed"] is True

        # warm resubmit answers inline (200, result embedded, no job)
        status, warm = http(f"{url}/scenarios", body)
        assert status == 200
        assert warm["decision"] == "cache"
        assert warm["result"]["status"] == "ok"

    def test_stream_emits_one_event_per_scenario_then_summary(
            self, service, fleet):
        url = service.url
        status, submitted = http(f"{url}/campaigns", {
            "scenarios": [scenario_body("s1", 4), scenario_body("s2", 5)],
            "base_options": FAST_BASE_OPTIONS,
        })
        events = []
        with urllib.request.urlopen(url + submitted["stream_url"],
                                    timeout=120.0) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            for line in response:
                events.append(json.loads(line))
        assert [e["event"] for e in events[:-1]] == ["result"] * 2
        assert {e["name"] for e in events[:-1]} == {"s1", "s2"}
        assert events[-1]["event"] == "end"
        assert events[-1]["finished"] is True
        assert events[-1]["done"] == 2


class TestValidationAndErrors:
    def test_invalid_scenario_is_400(self, service):
        status, document = http(f"{service.url}/scenarios",
                                {"scenario": {"circuit": {}}})
        assert status == 400
        assert "invalid scenario" in document["error"]

    def test_invalid_base_options_is_400(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": {"no_such_option": 1},
        })
        assert status == 400
        assert "base_options" in document["error"]

    def test_invalid_priority_is_400(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(), "priority": "high",
        })
        assert status == 400
        assert "priority" in document["error"]

    def test_duplicate_names_in_campaign_is_400(self, service):
        status, document = http(f"{service.url}/campaigns", {
            "scenarios": [scenario_body("same"), scenario_body("same", 5)],
        })
        assert status == 400
        assert "unique" in document["error"]

    def test_unknown_job_and_campaign_are_404(self, service):
        assert http(f"{service.url}/jobs/nope")[0] == 404
        assert http(f"{service.url}/jobs/nope/result")[0] == 404
        assert http(f"{service.url}/campaigns/nope")[0] == 404

    def test_unknown_route_is_404(self, service):
        status, document = http(f"{service.url}/teapot")
        assert status == 404
        assert "no route" in document["error"]

    def test_pending_result_is_202(self, service):
        # no workers attached: the job stays queued
        status, document = http(f"{service.url}/scenarios",
                                {"scenario": scenario_body("stuck")})
        assert status == 202
        status, pending = http(f"{service.url}/jobs/{document['job_id']}/result")
        assert status == 202
        assert pending["status"] == "queued"

    def test_api_error_direct(self, service):
        with pytest.raises(ApiError) as excinfo:
            service.submit_scenario({"scenario": "not-a-dict"})
        assert excinfo.value.status == 400


class TestHealthAndStats:
    def test_healthz(self, service):
        status, document = http(f"{service.url}/healthz")
        assert status == 200
        assert document["ok"] is True
        assert set(document["jobs"]) == {"queued", "leased", "done", "failed"}

    def test_keep_alive_round_trips_do_not_stall(self, service):
        """Replies on a reused connection are not held back by Nagle's
        algorithm waiting on the client's delayed ACK (~40 ms each)."""
        import http.client
        import time
        from urllib.parse import urlsplit

        address = urlsplit(service.url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive round trips took {elapsed:.3f} s"

    def test_stats_shape_and_rendering(self, service):
        http(f"{service.url}/scenarios", {"scenario": scenario_body()})
        status, stats = http(f"{service.url}/stats")
        assert status == 200
        assert stats["broker"]["jobs"]["queued"] == 1
        assert stats["counters"]["admitted"] == 1
        # the reporting layer renders the same document as a table
        from repro.reporting import render_service_stats

        table = render_service_stats(stats)
        assert "admitted" in table and "simulations" in table
