#!/usr/bin/env python
"""Cache-aware adaptive stepping benchmark: the geometric h-ladder.

The implicit methods (BENR / TR / Gear2) bake the step size into their
factored Jacobian ``a C/h + b G``, so a continuous step controller --
which invents a fresh ``h`` on almost every accepted step -- pays close
to one LU factorization per step even on linear circuits.  This bench
counts what ``step_ladder="geometric"`` recovers: it quantizes proposals
onto the grid ``h_ref * 2**k`` so consecutive steps share one cached LU.

Every case runs three configurations per method -- ``fixed`` (constant
step), ``adaptive`` (the default continuous controller) and ``ladder``
-- and reports accepted steps, LU factorizations and cache reuses.
Trajectory deviation is measured against the ``adaptive`` baseline of
the same method.

Results land in ``benchmarks/output/BENCH_adaptive_stepping.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive_stepping.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_adaptive_stepping.py --smoke    # CI sizes
    PYTHONPATH=src python benchmarks/bench_adaptive_stepping.py --check    # assert targets

``--check`` enforces the acceptance targets on the gated cases (the
staircase-driven RC mesh and the switching PDN, BENR and TR):
``ladder`` spends at most 1.5x the *fixed-step* LU count while
staying inside twice the method's verification band of the adaptive
baseline, the solve-accounting identity holds on every run, and the
default-knob adaptive run is bit-for-bit reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import SimOptions, TransientSimulator
from repro.benchcircuits.registry import build_circuit
from repro.circuit.sources import PWL, SIN
from repro.verify.invariants import check_adaptive_reuse_accounting
from repro.verify.oracles import DEFAULT_METHOD_BANDS

OUTPUT_DIR = Path(__file__).parent / "output"

#: methods benchmarked on every case (gear2 is report-only)
METHODS = ["benr", "trap", "gear2"]

#: (case, method) combinations the --check gate asserts the LU win on
GATED_CASES = ("rc_mesh_staircase", "pdn_switching")
GATED_METHODS = ("benr", "trap")

#: the ladder LU budget relative to the fixed-step run
LU_RATIO_TARGET = 1.5

#: the three step-control configurations, as SimOptions override dicts
CONFIGS = (
    ("fixed", {}),
    ("adaptive", {}),
    ("ladder", {"step_ladder": "geometric"}),
)


def staircase(t_stop: float, num_edges: int = 12, edge: float = 4e-12) -> PWL:
    """A supply staircase with ``num_edges`` sharp interior ramps.

    Every edge is a PWL breakpoint the integrator must land on exactly,
    so even the fixed-step run is knocked off its constant ``h`` once
    per edge -- the workload the breakpoint snap-back logic targets.
    """
    points = [(0.0, 0.0)]
    dt = t_stop / (num_edges + 1)
    for k in range(1, num_edges + 1):
        level = k / num_edges
        points.append((k * dt, points[-1][1]))
        points.append((k * dt + edge, level))
    return PWL(points)


def suite(smoke: bool):
    """(name, factory, params, base sim kwargs, fixed-step h) cases.

    ``h_fix`` is the constant step of the ``fixed`` configuration; the
    adaptive configurations share the ``h_init``/``h_max`` window of the
    base kwargs.  The sine case has no breakpoints at all: its LU cost
    is pure LTE-driven step drift (report-only, not gated).
    """
    if smoke:
        return [
            ("rc_mesh_staircase", "rc_mesh",
             dict(rows=6, cols=6, coupling_fraction=0.5,
                  drive=staircase(2e-9)),
             dict(t_stop=2e-9, h_init=2e-12, h_max=3.2e-11),
             1.6e-11),
            ("pdn_switching", "pdn_multilayer",
             dict(rows=6, cols=6, layers=2, load_rise=20e-12,
                  load_width=80e-12, seed=0),
             dict(t_stop=0.35e-9, h_init=2e-12, h_max=3.2e-11),
             1.6e-11),
            ("rc_mesh_sine", "rc_mesh",
             dict(rows=6, cols=6, coupling_fraction=0.5,
                  drive=SIN(0.5, 0.5, 1e9)),
             dict(t_stop=1.5e-9, h_init=2e-12, h_max=3.2e-11,
                  lte_reltol=2e-4),
             1.6e-11),
        ]
    return [
        ("rc_mesh_staircase", "rc_mesh",
         dict(rows=10, cols=10, coupling_fraction=0.5,
              drive=staircase(2e-9)),
         dict(t_stop=2e-9, h_init=2e-12, h_max=3.2e-11),
         1.6e-11),
        ("pdn_switching", "pdn_multilayer",
         dict(rows=10, cols=10, layers=3, seed=0),
         dict(t_stop=0.5e-9, h_init=2e-12, h_max=3.2e-11),
         1.6e-11),
        ("rc_mesh_sine", "rc_mesh",
         dict(rows=8, cols=8, coupling_fraction=0.5,
              drive=SIN(0.5, 0.5, 1e9)),
         dict(t_stop=4e-9, h_init=2e-12, h_max=3.2e-11,
              lte_reltol=2e-4),
         1.6e-11),
    ]


def run_once(mna, method: str, sim_kwargs: dict, overrides: dict):
    options = SimOptions(store_states=True, **sim_kwargs, **overrides)
    simulator = TransientSimulator(mna, method=method, options=options)
    simulator.run_dc()  # DC LU stats merge into the transient result
    result = simulator.run()
    if not result.stats.completed:
        raise RuntimeError(
            f"{method} failed ({overrides or 'adaptive'}): "
            f"{result.stats.failure_reason}"
        )
    return result


def mode_record(result) -> dict:
    stats = result.stats
    lu = stats.lu
    return {
        "steps": stats.num_steps,
        "rejections": stats.num_rejections,
        "runtime_seconds": stats.runtime_seconds,
        "lu_factorizations": lu.num_factorizations,
        "lu_reused": lu.num_reused,
        "ladder_steps": stats.num_ladder_steps,
        "ladder_holds": stats.num_ladder_holds,
    }


def trajectory_deviation(baseline, other) -> float:
    """Max pointwise state deviation, interpolated onto the union grid."""
    t_base = baseline.time_array
    t_other = other.time_array
    grid = np.union1d(t_base, t_other)
    base = baseline.state_array
    oth = other.state_array
    worst = 0.0
    for col in range(base.shape[1]):
        a = np.interp(grid, t_base, base[:, col])
        b = np.interp(grid, t_other, oth[:, col])
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def bench_case(name, factory, params, sim_kwargs, h_fix):
    mna = build_circuit(factory, **params).build()
    rows = []
    for method in METHODS:
        runs = {}
        for config, overrides in CONFIGS:
            kwargs = dict(sim_kwargs)
            if config == "fixed":
                kwargs["h_init"] = kwargs["h_max"] = h_fix
            runs[config] = run_once(mna, method, kwargs, overrides)
        # determinism of the default knobs: a second adaptive run must
        # reproduce the first bit-for-bit (no hidden cross-run state)
        rerun = run_once(mna, method, sim_kwargs, {})
        if runs["adaptive"].state_array.shape == rerun.state_array.shape:
            rerun_diff = float(np.max(np.abs(
                runs["adaptive"].state_array - rerun.state_array)))
        else:
            rerun_diff = float("inf")
        accounting = [
            str(v) for v in check_adaptive_reuse_accounting(
                runs["ladder"], subject=f"{name}/{method}/ladder")]
        row = {
            "case": name,
            "method": method,
            "method_name": runs["adaptive"].stats.method,
            "n": mna.n,
            "h_fix": h_fix,
            "rerun_max_diff": rerun_diff,
            "accounting_violations": accounting,
        }
        fixed_lu = runs["fixed"].stats.lu.num_factorizations
        for config, _ in CONFIGS:
            record = mode_record(runs[config])
            record["lu_vs_fixed"] = (
                record["lu_factorizations"] / fixed_lu if fixed_lu else None)
            if config != "adaptive":
                record["max_deviation"] = trajectory_deviation(
                    runs["adaptive"], runs[config])
            row[config] = record
        rows.append(row)
        print(f"  {name:18s} {row['method_name']:6s} n={mna.n:5d} "
              f"#LU fixed={fixed_lu:4d} adaptive={row['adaptive']['lu_factorizations']:4d} "
              f"ladder={row['ladder']['lu_factorizations']:3d}  "
              f"dev {row['ladder']['max_deviation']:.1e}")
    return rows


def check_acceptance(rows, smoke: bool) -> list:
    """Return a list of failed acceptance criteria (empty = pass)."""
    failures = []
    for row in rows:
        key = f"{row['case']}/{row['method']}"
        if row["accounting_violations"]:
            failures.extend(
                f"{key}: {violation}"
                for violation in row["accounting_violations"])
        if not row["rerun_max_diff"] <= 0.0:
            failures.append(
                f"{key}: default-knob adaptive rerun deviates by "
                f"{row['rerun_max_diff']:.3e} (expected bit-identical)")
        method = row["method"]
        band = 2.0 * DEFAULT_METHOD_BANDS.get(method, 1e-2)
        deviation = row["ladder"]["max_deviation"]
        if not deviation <= band:
            failures.append(
                f"{key}/ladder: deviation {deviation:.3e} vs the "
                f"adaptive baseline exceeds the {band:.1e} band")
        if row["case"] in GATED_CASES and method in GATED_METHODS:
            ratio = row["ladder"]["lu_vs_fixed"]
            if ratio is None or ratio > LU_RATIO_TARGET:
                failures.append(
                    f"{key}: ladder paid "
                    f"{row['ladder']['lu_factorizations']} LUs vs "
                    f"{row['fixed']['lu_factorizations']} fixed-step "
                    f"(ratio {ratio}, target <= {LU_RATIO_TARGET})")
    gated = {(r["case"], r["method"]) for r in rows}
    for case in GATED_CASES:
        for method in GATED_METHODS:
            if (case, method) not in gated:
                failures.append(f"gated combination {case}/{method} missing")
    return failures


def history_series(rows) -> dict:
    """Per (case, method): fixed-step LUs per ladder LU (higher is
    better), the savings series the JSONL history tracks across runs.

    Keys end in ``/ladder`` so the history never compares these ratios
    with medians recorded under another configuration's key."""
    series = {}
    for row in rows:
        fixed_lu = row["fixed"]["lu_factorizations"]
        ladder_lu = max(row["ladder"]["lu_factorizations"], 1)
        series[f"{row['case']}/{row['method']}/ladder"] = fixed_lu / ladder_lu
    return series


def run_history_gate(rows, mode: str, history_path) -> int:
    """Gate the LU-savings series against its tracked median, then record.

    Mirrors the hotpath bench's gate-before-record order (a regressed
    run cannot vote itself into its own baseline) on the same JSONL
    machinery, just with LU-savings ratios instead of steps/sec.
    """
    from repro.verify.perf import (
        DEFAULT_MIN_HISTORY, DEFAULT_THRESHOLD, load_history, record_entry,
        tracked_medians,
    )

    series = history_series(rows)
    medians = tracked_medians(load_history(history_path), mode)
    failures = []
    for key, value in series.items():
        tracked = medians.get(key)
        if tracked is None:
            continue
        median, count = tracked
        if count < DEFAULT_MIN_HISTORY or median <= 0.0:
            continue
        if value < (1.0 - DEFAULT_THRESHOLD) * median:
            drop = 100.0 * (1.0 - value / median)
            failures.append(
                f"{key} [{mode}]: LU savings {value:.2f}x is {drop:.1f}% "
                f"below the tracked median {median:.2f}x")
    entry = record_entry(series, mode, history_path)
    print(f"recorded {len(entry['rates'])} series into {history_path}")
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed (threshold {100.0 * DEFAULT_THRESHOLD:.0f}% "
          f"below tracked median)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny circuit sizes (CI smoke run)")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance targets on the gated cases")
    parser.add_argument("--json", type=Path,
                        default=OUTPUT_DIR / "BENCH_adaptive_stepping.json",
                        help="output JSON path")
    parser.add_argument("--history", type=Path, nargs="?", const=None,
                        default=False, metavar="PATH",
                        help="append this run's LU-savings ratios to the "
                             "perf-trajectory history and fail on a >20%% "
                             "regression against the tracked median "
                             "(default path: "
                             "benchmarks/history/adaptive_history.jsonl)")
    args = parser.parse_args(argv)

    print("cache-aware adaptive stepping benchmark "
          f"({'smoke' if args.smoke else 'full'} sizes)")
    wall_start = time.perf_counter()
    rows = []
    for name, factory, params, sim_kwargs, h_fix in suite(args.smoke):
        rows.extend(bench_case(name, factory, params, sim_kwargs, h_fix))

    payload = {
        "benchmark": "adaptive_stepping",
        "mode": "smoke" if args.smoke else "full",
        "gated_cases": list(GATED_CASES),
        "gated_methods": list(GATED_METHODS),
        "lu_ratio_target": LU_RATIO_TARGET,
        "wall_seconds": time.perf_counter() - wall_start,
        "results": rows,
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    if args.check:
        failures = check_acceptance(rows, smoke=args.smoke)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"acceptance checks passed (ladder <= {LU_RATIO_TARGET}x "
              "fixed-step LUs, in-band trajectories, counted accounting, "
              "bit-identical default knobs)")

    if args.history is not False:
        from repro.verify.perf import ADAPTIVE_HISTORY_PATH

        history = (args.history if args.history is not None
                   else ADAPTIVE_HISTORY_PATH)
        return run_history_gate(rows, payload["mode"], history)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
