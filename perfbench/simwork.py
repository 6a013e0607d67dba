"""The two simulation workloads: ``table1_nonlinear`` and ``pdn_linear``.

One *job* is one circuit under one method: generate the netlist, build
the MNA system (set-up), then one timed ``TransientSimulator.run()``
(DC included).  A *pass* runs every job of the workload once, on one
input variant.  A run makes one or more rounds of passes, each round one
pass per variant in an order drawn from the seed (see
:func:`pass_variants`), and every per-job time is reported as the mean
over the passes.  So every run measures the same inputs: the variants of
a seeded circuit differ in run time by tens of percent, which a run over
only some of them would turn into spread between seeds.  Every time is
scaled to the reference host by the run's host probes, one before each
job (see :func:`common.host_scale`).

Every job is checked: it must complete, its observed waveforms must
stay within its tolerance of the committed reference (see
:class:`References` and ``make_refs.py``), and its LU counters must satisfy
``check_symbolic_accounting``.  Once per run, each circuit/method pair
additionally runs a short cache-on/cache-off pair through
``check_lu_accounting``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from common import (METHODS, NUM_VARIANTS, Report, blas_threads, host_probe_ms, host_scale,
                    median, peak_rss_mb, percentile, release_free_memory)

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: integrator key used for each reported method name
METHOD_KEYS = {"er": "er", "erc": "er-c", "benr": "benr"}

#: points of the uniform grid the waveforms are compared on
GRID_POINTS = 201

#: a job may stray from the reference by this multiple of the deviation
#: its circuit/method pair showed on the same variant when the references
#: were made (refs/MANIFEST.json), and never by less than the floor
TOLERANCE_FACTOR = 2.0
TOLERANCE_FLOOR_V = 1e-3

#: seconds one pass takes on a 2-core x86 container; sets the round count
#: per run, never measured
NOMINAL_PASS_S = 6.5

#: stop time of the short cache-on/cache-off accounting pair, as a
#: fraction of the run's stop time
ACCOUNTING_FRACTION = 0.1


@dataclass
class CircuitCase:
    """One circuit of a workload: a label, its generator and observed nodes."""

    label: str
    generate: Callable[[], object]
    observe: List[str]
    #: whether the generator depends on the input variant
    seeded: bool = True


@dataclass
class SimSpec:
    """Sizes and options of one simulation workload."""

    name: str
    cases: Callable[[int, bool], List[CircuitCase]]
    options: Dict[str, object]
    tiny_options: Dict[str, object]

    def sim_options(self, tiny: bool, **updates) -> Dict[str, object]:
        options = dict(self.tiny_options if tiny else self.options)
        options.update(updates)
        return options


def _table1_cases(variant: int, tiny: bool) -> List[CircuitCase]:
    from repro.benchcircuits import freecpu, testcases

    ckt1_scale = 0.2 if tiny else 0.25
    nets, segments = (3, 2) if tiny else (8, 4)
    return [
        CircuitCase("ckt1", lambda: testcases.make_ckt("ckt1", scale=ckt1_scale).circuit,
                    ["c0_out2", "c1_out2"], seeded=False),
        CircuitCase("ckt5", lambda: freecpu.freecpu_like_circuit(
            num_nets=nets, segments_per_net=segments, coupling_per_node=2.5,
            seed=variant, name="ckt5_freecpu_coupled"),
            ["drv0", f"net0_s{segments - 1}", f"net{nets - 1}_s{segments - 1}"]),
    ]


def _pdn_cases(variant: int, tiny: bool) -> List[CircuitCase]:
    from repro.benchcircuits import large_scale

    size, loads = (6, 2) if tiny else (24, 24)
    mid = size // 2
    return [
        CircuitCase("pdn", lambda: large_scale.pdn_multilayer(
            size, size, layers=2, num_loads=loads, coupling_fraction=0.05,
            seed=variant),
            [f"m1_{mid}_{mid}", f"m1_{mid // 2}_{size - 1}", f"m0_{mid}_{mid}"]),
    ]


TABLE1 = SimSpec(
    name="table1_nonlinear",
    cases=_table1_cases,
    # the Table-I harness options (benchmarks/bench_table1.py)
    options=dict(t_stop=0.25e-9, h_init=5e-12, err_budget=1e-3, lte_reltol=5e-3,
                 lte_abstol=1e-5),
    tiny_options=dict(t_stop=0.06e-9, h_init=5e-12, err_budget=1e-3,
                      lte_reltol=5e-3, lte_abstol=1e-5),
)

PDN = SimSpec(
    name="pdn_linear",
    cases=_pdn_cases,
    options=dict(t_stop=0.4e-9, h_init=1e-12),
    tiny_options=dict(t_stop=0.1e-9, h_init=1e-12),
)

SPECS = {spec.name: spec for spec in (TABLE1, PDN)}


@dataclass
class Job:
    circuit: str
    method: str
    setup_s: float
    run_s: float
    cpu_s: float
    result: object
    #: host speed probe taken just before the job
    probe_ms: float


def grid_waveforms(result, observe: List[str], t_stop: float) -> np.ndarray:
    """Observed node voltages linearly interpolated onto the comparison grid."""
    grid = np.linspace(0.0, t_stop, GRID_POINTS)
    times = result.time_array
    return np.stack([np.interp(grid, times, result.voltage(node)) for node in observe])


def run_job(case: CircuitCase, method: str, options: Dict[str, object]) -> Job:
    from repro import SimOptions, TransientSimulator

    release_free_memory()  # the previous job's garbage is not this job's time
    probe_ms = host_probe_ms()
    start = time.perf_counter()
    circuit = case.generate()
    mna = circuit.build()
    setup_s = time.perf_counter() - start
    sim_options = SimOptions(store_states=False, observe_nodes=list(case.observe),
                             **options)
    simulator = TransientSimulator(mna, method=METHOD_KEYS[method], options=sim_options)
    cpu = time.process_time()
    start = time.perf_counter()
    result = simulator.run()
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    return Job(case.label, method, setup_s, run_s, cpu_s, result, probe_ms)


class References:
    """Committed reference waveforms of one workload variant and their tolerances."""

    def __init__(self, workload: str, variant: int):
        self.path = REFS_DIR / f"{workload}-v{variant}.npz"
        with np.load(self.path) as data:
            self.waveforms = {key: data[key] for key in data.files}
        manifest = json.loads((REFS_DIR / "MANIFEST.json").read_text(encoding="utf-8"))
        self.recorded = manifest[workload][f"v{variant}"]

    def tolerance(self, label: str, method: str) -> float:
        """Max |v - v_ref| in volts on the comparison grid for one job."""
        return max(TOLERANCE_FACTOR * self.recorded[label][f"{method}_dev_v"],
                   TOLERANCE_FLOOR_V)

    def deviation(self, label: str, waveforms: np.ndarray) -> float:
        reference = self.waveforms[label]
        if reference.shape != waveforms.shape:
            return float("inf")
        return float(np.max(np.abs(waveforms - reference)))


def check_job(job: Job, case: CircuitCase, options: Dict[str, object],
              refs: Optional[References], deviations: Dict[str, float]) -> List[str]:
    """Reasons the job counts as failed (empty when it passed).

    The job's deviation from the reference is folded into ``deviations``
    (worst per method).
    """
    from repro.verify.invariants import check_symbolic_accounting

    problems = []
    stats = job.result.stats
    if not stats.completed:
        problems.append(f"did not complete: {stats.failure_reason}")
    elif refs is not None:
        waveforms = grid_waveforms(job.result, case.observe, options["t_stop"])
        deviation = refs.deviation(case.label, waveforms)
        deviations[job.method] = max(deviations.get(job.method, 0.0), deviation)
        tolerance = refs.tolerance(case.label, job.method)
        if not deviation <= tolerance:
            problems.append(f"max |v - v_ref| = {deviation:.3e} V exceeds {tolerance:.1e} V")
    for violation in check_symbolic_accounting(job.result, subject=job.circuit):
        problems.append(violation.describe())
    return [f"{job.circuit}/{job.method}: {text}" for text in problems]


def accounting_pair(case: CircuitCase, method: str,
                    options: Dict[str, object]) -> List[str]:
    """Short cache-on/cache-off runs checked by ``check_lu_accounting``."""
    from repro import SimOptions, TransientSimulator
    from repro.verify.invariants import check_lu_accounting

    short = dict(options, t_stop=options["t_stop"] * ACCOUNTING_FRACTION)
    runs = []
    for cached in (True, False):
        sim_options = SimOptions(store_states=True, cache_linearization=cached, **short)
        simulator = TransientSimulator(case.generate().build(),
                                       method=METHOD_KEYS[method], options=sim_options)
        runs.append(simulator.run())
    subject = f"{case.label}/{method}"
    return [f"{subject}: {v.describe()}" for v in check_lu_accounting(*runs, subject=subject)]


def run_pass(cases: List[CircuitCase], options: Dict[str, object],
             tracer=None) -> List[Job]:
    jobs = []
    for case in cases:
        for method in METHODS:
            if tracer is not None:
                tracer.tag = method
            jobs.append(run_job(case, method, options))
    return jobs


def pass_variants(seed: int, seconds: float) -> List[int]:
    """The input variant of every pass: rounds of all variants in seeded orders.

    The round count follows from ``seconds`` and the nominal pass time
    alone, so a seed always means the same passes, however fast the
    program runs.
    """
    rounds = max(1, round(seconds / (NUM_VARIANTS * NOMINAL_PASS_S)))
    rng = np.random.default_rng(seed)
    return [int(v) for _ in range(rounds) for v in rng.permutation(NUM_VARIANTS)]


def run(spec_name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        trace_path: Optional[Path] = None) -> Report:
    spec = SPECS[spec_name]
    options = spec.sim_options(tiny)
    report = Report()
    if tiny:
        report.notes.append("tiny sizes: reference comparison skipped")
    variants = pass_variants(seed, seconds)
    if trace:
        # the same inputs untraced and traced: the difference is the overhead
        variants = variants[:1] * 2
    cases = {v: spec.cases(v, tiny) for v in set(variants)}
    refs = {v: None if tiny else References(spec.name, v) for v in cases}

    # warm-up: first-call imports and lazy set-up, not timed
    run_pass(cases[variants[0]], spec.sim_options(tiny, t_stop=options["t_stop"] * 0.05))

    passes: List[List[Job]] = []
    tracer = None
    wall_start = time.perf_counter()
    if trace:
        from tracing import Tracer

        passes.append(run_pass(cases[variants[0]], options))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cases[variants[1]], options, tracer))
        finally:
            tracer.uninstall()
    else:
        for variant in variants:
            passes.append(run_pass(cases[variant], options))
    wall = time.perf_counter() - wall_start
    rss = peak_rss_mb()

    deviations: Dict[str, float] = {}
    for variant, jobs in zip(variants, passes):
        by_label = {case.label: case for case in cases[variant]}
        for job in jobs:
            report.attempted += 1
            for reason in check_job(job, by_label[job.circuit], options, refs[variant],
                                    deviations):
                report.fail(f"variant {variant}: {reason}")
    for method, deviation in deviations.items():
        report.put(f"check.max_dev_v.{method}", deviation, "V")
    for case in cases[variants[0]]:
        for method in METHODS:
            report.attempted += 1
            problems = accounting_pair(case, method, options)
            if problems:
                report.fail("; ".join(problems))

    probes = [j.probe_ms for jobs in passes for j in jobs]
    report.put("proc.host_probe_ms", median(probes), "ms", len(probes))
    report.notes.append(f"input variants per pass: {variants}; "
                        f"host probe {median(probes):.2f} ms")
    if trace:
        _per_layer(report, passes, tracer, trace_path)
    else:
        _end_to_end(report, passes, wall, rss, host_scale(probes))
    return report


def _end_to_end(report: Report, passes: List[List[Job]], wall: float, rss: float,
                scale: float) -> None:
    """The end-to-end metrics; ``scale`` takes times to reference-host seconds."""
    n = len(passes)
    labels = [j.circuit for j in passes[0] if j.method == METHODS[0]]
    for method in METHODS:
        # per circuit the mean over passes (every variant equally often),
        # then summed over circuits
        total = sum(statistics.fmean([j.run_s for jobs in passes for j in jobs
                                      if j.method == method and j.circuit == label])
                    for label in labels)
        report.put(f"transient_s.{method}", total * scale, "s", n)
        report.notes.append(f"unscaled transient_s.{method} {total:.4f} s")
    setups = [sum(j.setup_s for j in jobs if j.method == method) * scale
              for jobs in passes for method in METHODS]
    report.put("setup_s", median(setups), "s", len(setups))
    report.put("peak_rss_mb", rss, "MB", 1)
    jobs = [j for js in passes for j in js]
    # a job's latency is its set-up plus run; single jobs fall in clusters
    # (ckt1 ER ~0.7 s, ckt5 BENR ~2.5 s), between which a percentile of
    # single jobs jumps, so the percentiles are taken over the job kinds'
    # (circuit x method) mean latencies
    kinds = {(j.circuit, j.method) for j in jobs}
    latencies = [statistics.fmean([j.setup_s + j.run_s for j in jobs
                                   if (j.circuit, j.method) == kind]) * scale
                 for kind in kinds]
    report.put("latency_p50_s", percentile(latencies, 50), "s", len(jobs))
    report.put("latency_p90_s", percentile(latencies, 90), "s", len(jobs))
    report.put("jobs_s", len(jobs) / (wall * scale), "1/s", len(jobs))
    report.notes.append(f"passes: {n}, jobs: {len(jobs)}, wall {wall:.2f} s, "
                        f"BLAS threads {blas_threads()}")
    _derived(report, passes)


def _derived(report: Report, passes: List[List[Job]]) -> None:
    """Ratios reported for reading only; they are not gated."""
    labels = sorted({j.circuit for j in passes[0]})
    for label in labels:
        for method in ("er", "erc"):
            ratios = []
            for jobs in passes:
                runs = {j.method: j.run_s for j in jobs if j.circuit == label}
                ratios.append(runs["benr"] / runs[method])
            report.notes.append(f"derived (not gated): speedup {method} over benr "
                                f"on {label} = {median(ratios):.2f}x")
    fill = _fill_ratio(passes[-1])
    if fill is not None:
        report.notes.append(f"derived (not gated): fill nnz(LU(C/h+G))/nnz(LU(G)) "
                            f"= {fill:.3f}")


def _fill_ratio(jobs: List[Job]) -> Optional[float]:
    peaks = {j.method: j.result.stats.peak_factor_nnz for j in jobs}
    if len({j.circuit for j in jobs}) != 1 or not peaks.get("er"):
        return None
    return peaks["benr"] / peaks["er"]


def _per_layer(report: Report, passes: List[List[Job]], tracer,
               trace_path: Optional[Path]) -> None:
    untraced, traced = passes
    walls = {m: sum(j.run_s for j in traced if j.method == m) for m in METHODS}
    cpus = {m: sum(j.cpu_s for j in traced if j.method == m) for m in METHODS}
    results = {m: [j.result for j in traced if j.method == m] for m in METHODS}
    trace_metrics(report, tracer, walls, cpus, results,
                  overhead=sum(walls.values()) - sum(j.run_s for j in untraced))
    _derived(report, [untraced])
    if trace_path is not None:
        tracer.dump(trace_path)


def trace_metrics(report: Report, tracer, walls: Dict[str, float], cpus: Dict[str, float],
                  results: Dict[str, list], overhead: float) -> None:
    """Per-layer metrics of one traced round of transient runs.

    ``walls``, ``cpus`` and ``results`` hold, per method, the summed run
    seconds, the summed process CPU seconds and the run results of the
    traced round; ``overhead`` is its wall minus the untraced round's.
    """
    from tracing import RUN_LAYERS

    summary = tracer.summary()

    def get(key: str) -> float:
        return summary.get(key, 0.0)

    report.put("trace.overhead_s", overhead, "s")
    report.put("trace.wall_s", get("trace.wall_s"), "s")
    report.put("trace.spans", get("trace.spans"), "count")
    for layer in RUN_LAYERS:
        report.put(f"{layer}.self_s", get(f"{layer}.self_s"), "s")
        for method in METHODS:
            report.put(f"{layer}.self_s.{method}", get(f"{layer}.self_s.{method}"), "s")
    for layer in ("circuit.evaluate", "linalg.factorize", "linalg.solve",
                  "linalg.dense_expm"):
        report.put(f"{layer}.calls", get(f"{layer}.calls"), "count")
    report.put("circuit.build.self_s", get("circuit.build.self_s"), "s")
    report.put("benchcircuits.generate.self_s", get("benchcircuits.generate.self_s"), "s")
    solve_s = get("linalg.solve.self_s")
    report.put("linalg.solve.gflops_computed",
               get("linalg.solve.flops") / solve_s / 1e9 if solve_s else 0.0, "GFLOP/s")

    factorizations = symbolic = evaluations = reuses = 0
    for method in METHODS:
        stats = [r.stats for r in results[method]]
        report.put(f"integrators.steps.{method}", sum(s.num_steps for s in stats), "count")
        report.put(f"integrators.rejections.{method}",
                   sum(s.num_rejections for s in stats), "count")
        report.put(f"integrators.newton_iters.{method}",
                   sum(s.total_newton_iterations for s in stats), "count")
        hits = sum(s.lu.num_cache_hits for s in stats)
        lus = sum(s.lu.num_factorizations for s in stats)
        report.put(f"core.lu_cache_hit_ratio.{method}",
                   hits / (hits + lus) if hits + lus else 0.0, "ratio")
        report.put(f"linalg.factor_nnz_peak.{method}",
                   max(s.peak_factor_nnz for s in stats), "count")
        mevps = sum(s.mevp.num_evaluations for s in stats)
        if method != "benr":
            report.put(f"linalg.krylov_dim_avg.{method}",
                       sum(s.mevp.total_dimension for s in stats) / mevps if mevps else 0.0,
                       "count")
        report.put(f"proc.cpu_per_wall.{method}", cpus[method] / walls[method], "ratio")
        factorizations += lus
        symbolic += sum(s.lu.num_symbolic_reuses for s in stats)
        evaluations += mevps
        reuses += sum(s.mevp.num_basis_reuses for s in stats)
    report.put("linalg.symbolic_reuse_ratio",
               symbolic / factorizations if factorizations else 0.0, "ratio")
    report.put("linalg.basis_reuse_ratio", reuses / evaluations if evaluations else 0.0,
               "ratio")
    report.put("proc.blas_threads", blas_threads(), "count")
    report.put("failed_frac", report.failed / report.attempted, "ratio", report.attempted)
    for method in METHODS:
        top = sorted(((get(f"{layer}.self_s.{method}"), layer) for layer in RUN_LAYERS),
                     reverse=True)[:3]
        shares = ", ".join(f"{layer} {value / walls[method]:.0%}" for value, layer in top)
        report.notes.append(f"traced {method}: {walls[method]:.3f} s; "
                            f"largest self times: {shares}")
