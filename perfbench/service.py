"""The open-loop service workload, ``service_openloop``.

Each run starts one HTTP front end and one queue worker
(``python -m repro.service serve|worker``) on a free port with a fresh
data directory inside the checkout, and tears both down on every exit
path.  A single-process generator (see :class:`Generator`) then sends
jobs on a seeded Poisson schedule at the workload's fixed rate --
open loop: a job is due at its scheduled time whether or not earlier
jobs have finished, and its latency runs from that due time to the
moment the client sees its result.  How late the generator sent each
job is reported too.  Untraced runs then queue a burst of distinct jobs
at once; the spacing of their finish times is the worker's capacity
(``jobs_s``), which the open-loop phase, running below it, cannot show.

Jobs are small seeded ``rc_ladder`` ER scenarios; a fixed share of them
repeats an earlier scenario, which exercises coalescing and the result
cache.  A sample of the distinct scenarios is re-run in this process,
half of the rounds before the fleet starts and half after it stops: under
ER it must reproduce the service's outcome, and the ER and ER-C re-runs
must agree with the BENR re-run within a stated band.  Those re-runs are
what ``transient_s.*`` measure here.

A host probe runs before every spawn, the burst and every re-run, and
``setup_s``, ``jobs_s`` and ``transient_s.*`` are scaled to the reference
host by the run's probes (see :func:`common.host_scale`).  The latencies
are not: they are mostly the worker's and the client's poll intervals,
which a slower host does not stretch.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (METHODS, Report, blas_threads, host_probe_ms, host_scale, median,
                    percentile, process_peak_rss_mb, release_free_memory)
from simwork import METHOD_KEYS

#: arrival rate in jobs/s.  One worker drains a queued burst at 25-30
#: jobs/s on a 2-core x86 container, but one keep-alive submitter spends
#: ~48 ms per POST there, so the generator itself tops out near 20/s; at
#: 7/s it still sends on time (median lateness below 1 ms), and a 20 s
#: run completes 140 jobs, 14 of them beyond p90
RATE = 7.0
#: exact share of submissions that repeat an earlier scenario
REPEAT_SHARE = 0.2
#: a job unfinished this long after its due time counts as failed
JOB_DEADLINE_S = 20.0
#: distinct jobs queued at once after the load phase (untraced runs):
#: their finish times give the worker's capacity, ``jobs_s``
BURST_JOBS = 144
#: seconds between the client's polls for the burst's last job
BURST_POLL_S = 0.5
#: jobs per segment of the burst: ``jobs_s`` is the median of the
#: segments' rates, so a stall in a few segments (the broker's disk
#: writes share the host) does not set it
BURST_SEGMENT = 16
#: front-end spawns timed for set-up (the last one serves the run)
SETUP_SPAWNS = 3
#: distinct scenarios re-run in process, and how often per method (the
#: ER runs take ~20 ms each, so they are repeated more to steady them);
#: half of the rounds run before the fleet starts, half after it stops
CHECK_SAMPLES = 6
CHECK_REPEATS = {"er": 10, "erc": 10, "benr": 6}
#: ER re-run vs the service's ER outcome (same code, same inputs)
SAME_METHOD_TOL_V = 1e-9
#: ER and ER-C re-runs, at their own time points, vs the BENR re-run
CROSS_METHOD_TOL_V = 0.02
SAMPLE_POINTS = 101


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def scenario_payload(rng: np.random.Generator, index: int, tiny: bool) -> Dict[str, object]:
    # narrow ranges: every scenario is distinct, yet every seed asks for
    # about the same amount of simulation (BENR's step count follows the
    # ladder's time constant, which a wide range would spread 3x)
    segments = 6 if tiny else 30
    return {
        "name": f"ladder-{index}",
        "circuit": {"factory": "rc_ladder", "params": {
            "num_segments": segments,
            "r_per_segment": float(rng.uniform(95.0, 105.0)),
            "c_per_segment": float(rng.uniform(9.5e-15, 10.5e-15)),
        }},
        "method": "er",
        "options": {"t_stop": 0.6e-9, "h_init": 2e-12, "store_states": False},
        "observe": [f"n{segments}", f"n{segments // 2}"],
    }


@dataclass
class Submission:
    index: int
    due: float
    payload: Dict[str, object]
    sent: float = 0.0
    admit_s: float = 0.0
    decision: str = ""
    job_id: str = ""
    polls: int = 0
    seen: float = 0.0
    seen_wall: float = 0.0
    result: Optional[Dict[str, object]] = None
    error: str = ""


@dataclass
class Schedule:
    submissions: List[Submission]
    distinct: List[Dict[str, object]] = field(default_factory=list)


def make_schedule(seed: int, rate: float, seconds: float, tiny: bool) -> Schedule:
    """Poisson arrivals conditioned on their count: sorted uniform due times."""
    rng = np.random.default_rng(seed)
    count = max(2, int(round(rate * seconds)))
    dues = np.sort(rng.uniform(0.0, seconds, size=count))
    repeats = set(rng.choice(np.arange(1, count), size=int(round(REPEAT_SHARE * count)),
                             replace=False).tolist())
    schedule = Schedule([])
    for index, due in enumerate(dues):
        if index in repeats and schedule.distinct:
            payload = schedule.distinct[int(rng.integers(len(schedule.distinct)))]
        else:
            payload = scenario_payload(rng, index, tiny)
            schedule.distinct.append(payload)
        schedule.submissions.append(Submission(index, float(due), payload))
    return schedule


class Client:
    """One keep-alive HTTP/1.1 connection to the front end."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        return response.status, raw

    def json(self, method: str, path: str, body=None):
        status, raw = self.request(method, path, body)
        return status, json.loads(raw.decode("utf-8")) if raw else None

    def close(self) -> None:
        self.connection.close()


class Fleet:
    """A front end and a worker, spawned fresh and always torn down."""

    def __init__(self, src: Path, data_root: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.data_root = data_root
        self.processes: List[subprocess.Popen] = []
        self.port = 0
        self.data = data_root
        self.worker: Optional[subprocess.Popen] = None

    def _spawn(self, args: List[str], log_name: str) -> subprocess.Popen:
        log = open(self.data / log_name, "wb")
        try:
            process = subprocess.Popen([sys.executable, "-m", "repro.service", *args],
                                       env=self.env, stdout=subprocess.DEVNULL, stderr=log)
        finally:
            log.close()
        self.processes.append(process)
        return process

    def start_front_end(self, index: int) -> float:
        """Spawn a front end on a fresh data dir; seconds until /healthz answers."""
        self.data = self.data_root / f"svc{index}"
        shutil.rmtree(self.data, ignore_errors=True)
        self.data.mkdir(parents=True)
        self.port = _free_port()
        started = time.perf_counter()
        process = self._spawn(["serve", "--data", str(self.data), "--port", str(self.port)],
                              "serve.log")
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if process.poll() is not None:
                raise RuntimeError(f"front end exited with {process.returncode}")
            try:
                client = Client(self.port)
                try:
                    status, _ = client.request("GET", "/healthz")
                finally:
                    client.close()
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("front end did not answer /healthz within 60 s")

    def start_worker(self) -> None:
        self.worker = self._spawn(["worker", "--data", str(self.data)], "worker.log")
        deadline = time.perf_counter() + 60.0
        client = Client(self.port)
        try:
            while time.perf_counter() < deadline:
                if self.worker.poll() is not None:
                    raise RuntimeError(f"worker exited with {self.worker.returncode}")
                _, stats = client.json("GET", "/stats")
                if stats["workers"]:
                    return
                time.sleep(0.02)
        finally:
            client.close()
        raise RuntimeError("worker did not register within 60 s")

    def stop_all(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes.clear()


def _submit(client: Client, sub: Submission) -> None:
    body = {"scenario": sub.payload, "sample_points": SAMPLE_POINTS}
    sub.sent = time.perf_counter()
    status, document = client.json("POST", "/scenarios", body)
    now = time.perf_counter()
    sub.admit_s = now - sub.sent
    if status == 429:
        sub.error = "refused (429)"
        return
    if status not in (200, 202):
        sub.error = f"POST /scenarios answered {status}: {document}"
        return
    sub.job_id = document["job_id"]
    sub.decision = document["decision"]
    if "result" in document:
        sub.result = document["result"]
        sub.seen, sub.seen_wall = now, time.time()


def _poll(client: Client, sub: Submission) -> None:
    status, document = client.json("GET", f"/jobs/{sub.job_id}/result")
    if status == 200:
        sub.result = document
        sub.seen, sub.seen_wall = time.perf_counter(), time.time()
    elif status == 202:
        sub.polls += 1
        if document.get("status") == "failed":
            sub.error = f"job failed: {document.get('error')}"
    else:
        sub.error = f"GET result answered {status}"


class Generator:
    """Open-loop load: submit each job when due, poll results until all are seen.

    With two or more CPUs a submitter thread and a poller thread each
    own one keep-alive connection, so a slow poll never delays a due
    submission; on one CPU a single thread alternates between the two.
    Whatever delay remains is what ``generator_late_s`` reports.
    """

    def __init__(self, port: int, schedule: Schedule, poll_interval: float = 0.01):
        self.port = port
        self.pending = list(schedule.submissions)
        self.outstanding: List[Submission] = []
        self.lock = threading.Lock()
        self.poll_interval = poll_interval
        self.origin = 0.0
        #: set when the run is being torn down: the poller stops at once
        self.abandoned = threading.Event()

    def _due_in(self) -> float:
        return self.origin + self.pending[0].due - time.perf_counter()

    def _submit_due(self, client: Client) -> None:
        sub = self.pending.pop(0)
        _submit(client, sub)
        if sub.result is None and not sub.error:
            with self.lock:
                self.outstanding.append(sub)

    def _sweep(self, client: Client, stop_when_due: bool) -> None:
        with self.lock:
            batch = list(self.outstanding)
        for sub in batch:
            if stop_when_due and self.pending and self._due_in() <= 0:
                return
            _poll(client, sub)
            if sub.result is None and not sub.error and \
                    time.perf_counter() - (self.origin + sub.due) > JOB_DEADLINE_S:
                sub.error = f"unfinished {JOB_DEADLINE_S:.0f} s after its due time"
            if sub.result is not None or sub.error:
                with self.lock:
                    self.outstanding.remove(sub)

    def _poll_loop(self, client: Client, submitting: threading.Event) -> None:
        while (submitting.is_set() or self.outstanding) and not self.abandoned.is_set():
            self._sweep(client, stop_when_due=False)
            time.sleep(self.poll_interval)

    def run(self) -> float:
        """Drive the whole schedule; returns its origin (``perf_counter`` at t=0)."""
        submit_client, poll_client = Client(self.port), Client(self.port)
        self.origin = time.perf_counter() + 0.05
        try:
            if (os.cpu_count() or 1) >= 2:
                submitting = threading.Event()
                submitting.set()
                poller = threading.Thread(target=self._poll_loop,
                                          args=(poll_client, submitting), daemon=True)
                poller.start()
                try:
                    while self.pending:
                        time.sleep(max(0.0, self._due_in()))
                        self._submit_due(submit_client)
                except BaseException:
                    self.abandoned.set()
                    raise
                finally:
                    submitting.clear()
                    poller.join()
            else:
                while self.pending or self.outstanding:
                    if self.pending and self._due_in() <= 0:
                        self._submit_due(submit_client)
                        continue
                    self._sweep(poll_client, stop_when_due=True)
                    wait = self._due_in() if self.pending else self.poll_interval
                    time.sleep(max(0.0, min(wait, self.poll_interval)))
        finally:
            submit_client.close()
            poll_client.close()
        return self.origin


_SAMPLE = re.compile(r"^(\w+)(\{[^}]*\})?\s+([-+0-9.eEinfINFaN]+)$")


def scrape(client: Client, family: str) -> float:
    """Sum of every sample of one Prometheus family on ``/metrics``."""
    _, raw = client.request("GET", "/metrics")
    total = 0.0
    for line in raw.decode("utf-8").splitlines():
        match = _SAMPLE.match(line)
        if match and match.group(1) == family:
            total += float(match.group(3))
    return total


def counters(port: int) -> Dict[str, float]:
    """Broker counters from ``/stats`` plus the workers' idle polls from ``/metrics``."""
    client = Client(port)
    try:
        _, stats = client.json("GET", "/stats")
        out = dict(stats["counters"])
        out["idle_polls"] = scrape(client, "repro_worker_idle_polls_total")
    finally:
        client.close()
    return out


def run_burst(port: int, seed: int, tiny: bool) -> Dict[str, object]:
    """Queue ``BURST_JOBS`` distinct jobs in one campaign and wait for all of them.

    One ``POST /campaigns`` enqueues the whole burst, so the queue never
    runs dry and the jobs finish at the worker's own pace.  Returns the
    campaign's final progress document, plus under ``"finished"`` the
    ``(position, finished_at)`` of every ``BURST_SEGMENT``-th job and the
    last one.
    """
    rng = np.random.default_rng([seed, BURST_JOBS])
    body = {"scenarios": [scenario_payload(rng, 10_000 + index, tiny)
                          for index in range(BURST_JOBS)],
            "sample_points": SAMPLE_POINTS}
    client = Client(port)
    try:
        status, campaign = client.json("POST", "/campaigns", body)
        if status != 202 or campaign["admitted"] != BURST_JOBS:
            raise RuntimeError(f"burst POST /campaigns answered {status}: {campaign}")
        job_ids = list(campaign["jobs"].values())
        last = job_ids[-1]
        deadline = time.perf_counter() + JOB_DEADLINE_S
        # the queue is FIFO, so the last job finishes last; polling it alone,
        # and seldom, keeps the front end's reads (which contend with the
        # worker's broker writes) few: the broker's finish times, not the
        # poll, time the burst
        while time.perf_counter() < deadline:
            _, document = client.json("GET", f"/jobs/{last}")
            if document["status"] in ("done", "failed"):
                break
            time.sleep(BURST_POLL_S)
        while True:
            _, progress = client.json("GET", campaign["status_url"])
            if progress["finished"] or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        marks = sorted({*range(0, BURST_JOBS, BURST_SEGMENT), BURST_JOBS - 1})
        progress["finished"] = [
            (index, client.json("GET", f"/jobs/{job_ids[index]}")[1].get("finished_at"))
            for index in marks]
        return progress
    finally:
        client.close()


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        src: Path, data_root: Path) -> Report:
    report = Report()
    schedule = make_schedule(seed, RATE, seconds, tiny)
    fleet = Fleet(src, data_root / f"{workload}-seed{seed}-trace{int(trace)}")
    fleet.data_root.mkdir(parents=True, exist_ok=True)
    setups: List[float] = []
    probes: List[float] = []
    sample = _sample(schedule, seed)
    # half of the timed re-runs now, half after the fleet: the host's drift
    # over the run then weighs on both ends alike
    early = [] if trace else _rerun_rounds(sample, probes)
    try:
        for index in range(SETUP_SPAWNS):
            probes.append(host_probe_ms())
            setups.append(fleet.start_front_end(index))
            if index + 1 < SETUP_SPAWNS:
                fleet.stop_all()
        fleet.start_worker()
        _warm_up(fleet.port, tiny)
        before = counters(fleet.port)
        # the generator's two connections are the only ones open during load
        origin = Generator(fleet.port, schedule).run()
        time.sleep(0.3)  # let the worker publish its last idle polls
        after = counters(fleet.port)
        jobs = _job_documents(fleet.port, schedule) if trace else {}
        burst = None
        if not trace:
            probes.append(host_probe_ms())
            burst = run_burst(fleet.port, seed, tiny)
        worker_rss = process_peak_rss_mb(fleet.worker.pid)
    finally:
        fleet.stop_all()

    # the last timed part: every probe of the run is in once it returns
    _check_in_process(report, schedule, sample, trace, probes, early)
    scale = host_scale(probes)
    _service_metrics(report, schedule, origin, jobs, before, after, trace, burst, scale)
    report.put("setup_s", median(setups) * scale, "s", len(setups))
    report.put("peak_rss_mb", worker_rss, "MB", 1)
    report.put("proc.host_probe_ms", median(probes), "ms", len(probes))
    report.notes.append(f"host probe {median(probes):.2f} ms")
    report.notes.append(f"rate {RATE:g} jobs/s, {len(schedule.submissions)} submissions, "
                        f"{len(schedule.distinct)} distinct scenarios "
                        f"(repeat share {REPEAT_SHARE:g}); BLAS threads {blas_threads()}")
    if not trace:
        shutil.rmtree(fleet.data_root, ignore_errors=True)
    return report


def _warm_up(port: int, tiny: bool) -> None:
    """One job end to end so first-call imports in the worker are not timed."""
    payload = scenario_payload(np.random.default_rng(2**31), -1, tiny)
    payload["options"] = dict(payload["options"], t_stop=0.1e-9)
    warm = Schedule([Submission(0, 0.0, payload)])
    Generator(port, warm).run()
    if warm.submissions[0].error:
        raise RuntimeError(f"warm-up job failed: {warm.submissions[0].error}")


def _job_documents(port: int, schedule: Schedule) -> Dict[str, Dict[str, object]]:
    jobs = {}
    client = Client(port)
    try:
        for sub in schedule.submissions:
            if sub.job_id and sub.job_id not in jobs:
                status, document = client.json("GET", f"/jobs/{sub.job_id}")
                if status == 200:
                    jobs[sub.job_id] = document
    finally:
        client.close()
    return jobs


def _burst_metrics(report: Report, burst: Dict[str, object], scale: float) -> None:
    """``jobs_s``: the worker's capacity, the median rate of the burst's segments.

    ``scale`` takes the segments' spans to reference-host seconds.
    """
    report.attempted += len(burst["statuses"])
    for name, status in burst["statuses"].items():
        if status != "done" or burst["result_statuses"][name] != "ok":
            report.fail(f"burst job {name}: status {status}, "
                        f"result {burst['result_statuses'][name]}")
    marks = burst["finished"]
    rates = [(j - i) / ((t - s) * scale) if s and t and t > s else 0.0
             for (i, s), (j, t) in zip(marks, marks[1:])]
    report.put("jobs_s", median(rates), "1/s", BURST_JOBS - 1)


def _service_metrics(report: Report, schedule: Schedule, origin: float,
                     jobs: Dict[str, Dict[str, object]], before, after, trace: bool,
                     burst: Optional[Dict[str, object]], scale: float) -> None:
    subs = schedule.submissions
    report.attempted += len(subs)
    for sub in subs:
        if not sub.error and sub.result is not None and sub.result.get("status") != "ok":
            sub.error = f"outcome status {sub.result.get('status')}: {sub.result.get('error')}"
        if sub.error:
            report.fail(f"submission {sub.index}: {sub.error}")
    done = [s for s in subs if s.result is not None and not s.error]
    latencies = [s.seen - (origin + s.due) for s in done]
    late = [s.sent - (origin + s.due) for s in subs]
    if not trace:
        report.put("latency_p50_s", percentile(latencies, 50), "s", len(latencies))
        report.put("latency_p90_s", percentile(latencies, 90), "s", len(latencies))
        _burst_metrics(report, burst, scale)
        report.notes.append(f"generator lateness p50 {percentile(late, 50) * 1e3:.2f} ms, "
                            f"max {max(late) * 1e3:.2f} ms")
        return
    executed = [d for d in jobs.values() if d.get("finished_at") and d.get("created_at")]
    runtimes = {s.job_id: float(s.result.get("runtime_seconds", 0.0)) for s in done}
    dispatch = [d["finished_at"] - d["created_at"] - runtimes.get(d["id"], 0.0)
                for d in executed if d["id"] in runtimes]
    finished = {d["id"]: d["finished_at"] for d in executed}
    lags = [s.seen_wall - finished[s.job_id] for s in done
            if s.decision != "cache" and s.job_id in finished]
    polled = [s for s in done if s.decision != "cache"]

    def delta(name: str) -> float:
        return float(after.get(name, 0)) - float(before.get(name, 0))

    admissions = delta("admitted") + delta("coalesced") + delta("cache_answers")
    report.put("service.admit_s", median([s.admit_s for s in subs]), "s", len(subs))
    report.put("service.queue_dispatch_s", median(dispatch) if dispatch else 0.0, "s",
               len(dispatch))
    report.put("service.simulate_s", median(list(runtimes.values())), "s", len(runtimes))
    report.put("service.visible_lag_s", median(lags) if lags else 0.0, "s", len(lags))
    report.put("service.result_polls_per_job",
               sum(s.polls for s in polled) / len(polled) if polled else 0.0, "count",
               len(polled))
    report.put("service.coalesced_share",
               (delta("coalesced") + delta("cache_answers")) / admissions
               if admissions else 0.0, "ratio", int(admissions))
    report.put("service.worker_idle_polls", delta("idle_polls"), "count")
    report.put("service.refused", sum(1 for s in subs if s.error.startswith("refused")),
               "count")
    report.put("service.generator_late_s", percentile(late, 50), "s", len(late))
    report.put("service.generator_late_max_s", max(late), "s", len(late))
    report.put("failed_frac", report.failed / report.attempted, "ratio", report.attempted)


def _transient(payload: Dict[str, object], method: str, probes: List[float]):
    """One in-process run of a scenario; returns (run seconds, cpu seconds, samples)."""
    from repro import TransientSimulator
    from repro.benchcircuits import rc_networks
    from repro.campaign.scenario import Scenario

    scenario = Scenario.from_dict(payload)
    options = scenario.sim_options().with_updates(observe_nodes=list(scenario.observe))
    mna = rc_networks.rc_ladder(**scenario.circuit.params).build()
    simulator = TransientSimulator(mna, method=method, options=options)
    release_free_memory()
    probes.append(host_probe_ms())
    cpu = time.process_time()
    start = time.perf_counter()
    result = simulator.run()
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    grid = np.linspace(options.t_start, options.t_stop, SAMPLE_POINTS)
    samples = {node: np.interp(grid, result.time_array, result.voltage(node))
               for node in scenario.observe}
    return run_s, cpu_s, result, samples


def _sample(schedule: Schedule, seed: int) -> List[Dict[str, object]]:
    """The distinct scenarios re-run in process, a seeded pick."""
    picks = np.random.default_rng(seed + 1).choice(
        len(schedule.distinct), size=min(CHECK_SAMPLES, len(schedule.distinct)),
        replace=False)
    return [schedule.distinct[int(i)] for i in sorted(picks)]


def _rerun(sample: List[Dict[str, object]], methods, probes: List[float], tracer=None):
    """One round: every sampled scenario under ``methods``, in this process.

    Returns the walls per method (one per scenario), the CPU seconds and
    the results per method, and per scenario the ``(result, samples)`` of
    each method.  Each re-run's host probe is appended to ``probes``.
    """
    walls = {m: [] for m in methods}
    cpus = {m: 0.0 for m in methods}
    results = {m: [] for m in methods}
    runs = []
    for payload in sample:
        runs.append({})
        for method in methods:
            if tracer is not None:
                tracer.tag = method
            run_s, cpu_s, result, samples = _transient(payload, METHOD_KEYS[method], probes)
            walls[method].append(run_s)
            cpus[method] += cpu_s
            results[method].append(result)
            runs[-1][method] = (result, samples)
    return walls, cpus, results, runs


def _rerun_rounds(sample: List[Dict[str, object]], probes: List[float],
                  first: int = 0) -> List[Dict[str, List[float]]]:
    """Rounds ``first`` onwards of one half of the untraced re-runs; walls per round.

    A method runs in half of its ``CHECK_REPEATS`` rounds here; the run
    makes one half before the fleet starts and one after it stops.
    """
    half = {m: CHECK_REPEATS[m] // 2 for m in METHODS}
    return [_rerun(sample, [m for m in METHODS if half[m] > index], probes)[0]
            for index in range(first, max(half.values()))]


def _check_in_process(report: Report, schedule: Schedule, sample: List[Dict[str, object]],
                      trace: bool, probes: List[float],
                      early: List[Dict[str, List[float]]]) -> None:
    """Re-run the sample after the fleet; the scaled walls are ``transient_s.*``.

    ``early`` holds the walls of the rounds made before the fleet started.
    The first round here is checked against the service's outcomes.
    """
    outcomes = {}
    for sub in schedule.submissions:
        if sub.result is not None and not sub.error:
            outcomes.setdefault(id(sub.payload), sub.result)
    walls, cpus, results, runs = _rerun(sample, METHODS, probes)
    for payload, per_method in zip(sample, runs):
        # a scenario the service failed is counted as failed already
        if id(payload) in outcomes:
            _compare(report, payload, outcomes[id(payload)], per_method)

    if not trace:
        rounds = early + [walls] + _rerun_rounds(sample, probes, first=1)
        for method in METHODS:
            # per scenario the median over rounds, then summed over scenarios
            total = sum(median([r[method][k] for r in rounds if method in r])
                        for k in range(len(sample)))
            report.put(f"transient_s.{method}", total * host_scale(probes), "s",
                       CHECK_REPEATS[method])
        return

    from simwork import trace_metrics
    from tracing import Tracer

    untraced = walls
    tracer = Tracer()
    tracer.install()
    try:
        traced, cpus, results, _ = _rerun(sample, METHODS, probes, tracer)
    finally:
        tracer.uninstall()
    walls = {m: sum(traced[m]) for m in METHODS}
    trace_metrics(report, tracer, walls, cpus, results,
                  overhead=sum(walls.values()) - sum(map(sum, untraced.values())))


def _compare(report: Report, payload, outcome, runs) -> None:
    """The ER re-run must reproduce the service; every method must agree with BENR.

    The cross-method check compares each method's own accepted points
    with BENR's (much finer) waveform interpolated there, so the long
    exponential steps are judged where they were computed.
    """
    name = payload["name"]
    report.attempted += 1
    problems = []
    for method, (result, _) in runs.items():
        if not result.stats.completed:
            problems.append(f"{method} re-run did not complete: {result.stats.failure_reason}")
    benr = runs["benr"][0]
    for node, values in ({} if problems else runs["er"][1]).items():
        service = np.asarray(outcome["samples"].get(node, []), dtype=float)
        if service.shape != values.shape:
            problems.append(f"service returned no samples for {node}")
            continue
        deviation = float(np.max(np.abs(values - service)))
        if not deviation <= SAME_METHOD_TOL_V:
            problems.append(f"ER re-run differs from the service at {node} by "
                            f"{deviation:.3e} V (limit {SAME_METHOD_TOL_V:.0e} V)")
        reference = np.asarray(benr.voltage(node))
        for method in ("er", "erc"):
            result = runs[method][0]
            own = np.asarray(result.voltage(node))
            deviation = float(np.max(np.abs(
                own - np.interp(result.time_array, benr.time_array, reference))))
            if not deviation <= CROSS_METHOD_TOL_V:
                problems.append(f"{method} differs from BENR at {node} by {deviation:.3e} V "
                                f"(limit {CROSS_METHOD_TOL_V:.0e} V)")
    for problem in problems:
        report.fail(f"in-process re-run of {name}: {problem}")
        break
