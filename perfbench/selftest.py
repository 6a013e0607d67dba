"""Self-test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` is well formed; that every workload,
untraced and traced, prints a last line with exactly the result keys
and every declared metric in its declared unit; that the traced self
times of all layers inside the transient runs (``integrators.loop``
included) add up to the traced wall; and that the benchmark fails
without printing a result in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, WORKLOADS  # noqa: E402
from tracing import RUN_LAYERS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: traced self times must account for the traced wall to this share
SELF_TIME_TOLERANCE = 1e-6


def check_spec(spec: dict) -> list:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS) or not 2 <= len(names) <= 8:
        problems.append(f"workloads {names} do not match run.py {WORKLOADS}")
    seen = set()
    for group, keys in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in spec[group]:
            if set(entry) != keys:
                problems.append(f"{group} entry {entry} has keys {sorted(entry)}")
            if not NAME.match(entry["name"]) or entry["name"] in seen:
                problems.append(f"bad or repeated name {entry['name']!r}")
            seen.add(entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} out of range")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"why of {entry['name']} too long")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or not in s / lower")
    elif setup[0]["bound"] < max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if not 1 <= len(spec["per_layer"]) <= 128 or not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("metric counts out of range")
    return problems


def run_once(cwd: Path, workload: str, trace: int, seconds: float = 3.0):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int, completed) -> list:
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{label}: exit {completed.returncode}: {completed.stderr[-2000:]}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {e["name"] for e in declared}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None or got.get("unit") != entry["unit"] \
                or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append(f"{label}: {entry['name']} = {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{label}: end-to-end {entry['name']} is {got['value']}")
    if trace and not problems:
        wall = metrics["trace.wall_s"]["value"]
        selfs = sum(metrics[f"{layer}.self_s"]["value"] for layer in RUN_LAYERS)
        if wall <= 0 or abs(selfs - wall) > SELF_TIME_TOLERANCE * wall + 1e-9:
            problems.append(f"{label}: traced self times sum to {selfs:.6f} s, "
                            f"traced wall is {wall:.6f} s")
    return problems


def check_bare_directory() -> list:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_once(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or '"metrics"' in completed.stdout:
        return ["bare directory: the benchmark printed a result or exited 0"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(spec, workload, trace, run_once(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    problems += check_bare_directory()
    for problem in problems:
        print(problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
