"""The repository's benchmark: one entry point for every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1_nonlinear --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs once untraced and once traced and
reports the per-layer metrics plus the tracing overhead.  The metric
names, units and bounds live in ``BENCHMARK.json``.  Human-readable
lines come first; the last line of standard output is the JSON result::

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

Every run also writes its full result (metrics, sample counts, notes)
to ``.perfbench_out/`` in the checkout, and traced runs write their
spans there.  ``--tiny`` shrinks every input for the self-test
(``perfbench/selftest.py``); tiny runs skip the reference comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("table1_nonlinear", "pdn_linear", "service_openloop")

#: thread-pool sizes pinned for this process and every process it starts.
#: With two BLAS threads on a two-vCPU shared host, ER spends its time in
#: the BLAS threads' barrier whenever anything else holds the second vCPU:
#: one co-running single-threaded process made ckt1 ER 3.2x slower with
#: two threads and left it unchanged with one
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _declared(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test only)")
    args = parser.parse_args(argv)

    # a terminated run still unwinds, so the service workload's finally
    # blocks stop the processes they started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = _declared(bool(args.trace))
    os.environ.update(THREAD_ENV)  # before numpy loads
    _import_program()
    OUT_DIR.mkdir(exist_ok=True)
    # child processes and libraries keep their scratch files in the checkout
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    import tempfile

    tempfile.tempdir = str(scratch)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    started = time.perf_counter()
    if args.workload.startswith("service_"):
        import service

        report = service.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.tiny, src=SRC, data_root=OUT_DIR)
    else:
        import simwork

        report = simwork.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny,
                             trace_path=OUT_DIR / f"{stem}.spans.jsonl")

    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in report.metrics:
            value, emitted_unit, samples = report.metrics[name]
            if emitted_unit != unit:
                raise SystemExit(f"perfbench: {name} emitted in {emitted_unit}, "
                                 f"declared in {unit}")
        elif args.trace:
            # a layer this workload never calls
            value, samples = 0.0, 0
        else:
            raise SystemExit(f"perfbench: end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:14.6g} {unit:8s} n={samples}")
    for note in report.notes:
        print(note)
    print(f"attempted {report.attempted}, failed {report.failed} "
          f"(failed_frac {report.failed / max(1, report.attempted):.4f}); "
          f"run took {time.perf_counter() - started:.1f} s")

    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, notes=report.notes,
                  samples={k: v[2] for k, v in report.metrics.items()},
                  extra={k: v[0] for k, v in report.metrics.items() if k not in metrics})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
