"""Generate the committed reference waveforms under ``perfbench/refs/``.

Run from the root of a checkout::

    python3 perfbench/make_refs.py

For every input variant of each simulation workload, every circuit is
simulated at tight tolerance and its observed nodes are stored on the
comparison grid as ``refs/<workload>-v<variant>.npz``.  The linear PDN
uses the trapezoidal rule, which shares no step formula with ER, ER-C
or BENR; on the MOSFET cells the trapezoidal and Gear-2 integrators
stall at the first source breakpoint, so tight BENR (LTE tolerances
500x below the Table-I ones) is the reference there.  A second run ten
times looser bounds the references' own error, and the three
benchmarked methods are run at the workload's options; their
deviations set the tolerance each job is held to (see
``simwork.References``).  All of it is recorded in a freshly written
``refs/MANIFEST.json`` together with this command.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from common import METHODS, NUM_VARIANTS  # noqa: E402
from simwork import (REFS_DIR, SPECS, TOLERANCE_FACTOR, TOLERANCE_FLOOR_V,  # noqa: E402
                     grid_waveforms, run_job)

#: the reference integrator and its tolerances, per workload
REFERENCE = {
    "table1_nonlinear": ("benr", dict(lte_reltol=1e-5, lte_abstol=1e-8)),
    "pdn_linear": ("trap", dict(lte_reltol=1e-5, lte_abstol=1e-8)),
}
#: the looser run that bounds the reference's own error
CROSS_CHECK = ("benr", dict(lte_reltol=1e-4, lte_abstol=1e-7))


def tight_run(case, options, method_options):
    from repro import SimOptions, TransientSimulator

    method, extra = method_options
    sim_options = SimOptions(store_states=False, observe_nodes=list(case.observe),
                             **dict(options, **extra))
    result = TransientSimulator(case.generate().build(), method=method,
                                options=sim_options).run()
    if not result.stats.completed:
        raise RuntimeError(f"{case.label}: {method} reference failed: "
                           f"{result.stats.failure_reason}")
    return grid_waveforms(result, case.observe, options["t_stop"]), result.stats.num_steps


def make(workload: str, variant: int, unseeded: dict) -> dict:
    """References of one variant; ``unseeded`` memoizes seed-independent circuits."""
    spec = SPECS[workload]
    options = spec.sim_options(tiny=False)
    arrays, record = {}, {}
    for case in spec.cases(variant, False):
        if not case.seeded and case.label in unseeded:
            arrays[case.label], record[case.label] = unseeded[case.label]
            continue
        started = time.perf_counter()
        reference, steps = tight_run(case, options, REFERENCE[workload])
        cross, _ = tight_run(case, options, CROSS_CHECK)
        entry = {"observe": case.observe, "reference_steps": steps,
                 "reference_seconds": round(time.perf_counter() - started, 2),
                 "cross_check_dev_v": float(np.max(np.abs(cross - reference)))}
        for method in METHODS:
            job = run_job(case, method, options)
            waveforms = grid_waveforms(job.result, case.observe, options["t_stop"])
            entry[f"{method}_dev_v"] = float(np.max(np.abs(waveforms - reference)))
        arrays[case.label] = reference
        record[case.label] = entry
        if not case.seeded:
            unseeded[case.label] = (reference, entry)
        print(workload, variant, case.label, json.dumps(entry), flush=True)
    np.savez_compressed(REFS_DIR / f"{workload}-v{variant}.npz", **arrays)
    return record


def main() -> int:
    REFS_DIR.mkdir(exist_ok=True)
    manifest = {
        "command": "python3 perfbench/make_refs.py",
        "reference": {name: {"method": method, **extra}
                      for name, (method, extra) in REFERENCE.items()},
        "cross_check": {"method": CROSS_CHECK[0], **CROSS_CHECK[1]},
        "tolerance": {"factor": TOLERANCE_FACTOR, "floor_v": TOLERANCE_FLOOR_V},
    }
    for workload in sorted(SPECS):
        entry = manifest[workload] = {"options": SPECS[workload].options}
        unseeded: dict = {}
        for variant in range(NUM_VARIANTS):
            entry[f"v{variant}"] = make(workload, variant, unseeded)
    (REFS_DIR / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
