"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that, for every workload, an untraced run reports every end-to-end
metric and a traced run every per-layer metric, each with the unit
BENCHMARK.json gives it; that a planted wrong reference value makes requests
count as failed; and that without the program's sources the benchmark exits
non-zero without printing a result.  Takes about a minute on a 2-core box.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(workload: str, trace: bool, min_requests: int = 3) -> dict:
    return run.run_benchmark(workload, 0, 0.2, trace, setups=1, min_requests=min_requests)


def check_metrics(spec: dict) -> None:
    for trace, key, units in ((False, "end_to_end", run.UNITS), (True, "per_layer", run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"{key} in BENCHMARK.json differs from the runner's metrics")
        for workload in spec_workloads(spec):
            result = tiny(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared, f"{workload} trace={trace}: metrics {sorted(got)}")
            for name, metric in result["metrics"].items():
                expect(isinstance(metric["value"], float | int), f"{workload} {name} is not a number")
            print(f"ok  {workload:14s} trace={int(trace)}  {len(got)} metrics, {result['attempted']} requests")


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def check_planted_fault(spec: dict) -> None:
    """A reference value off by 1e-6 must turn checked requests into failures."""
    import reference
    from workloads import CYCLE

    product, average = reference.product_reference, reference.sign_average

    def wrong_product(inst, n):
        values = product(inst, n)
        return {**values, "expected_rademacher": values["expected_rademacher"] + 1e-6}

    reference.product_reference = wrong_product
    reference.sign_average = lambda evals, absolute=True: average(evals, absolute) + 1e-6
    try:
        for workload in spec_workloads(spec):
            # more requests than are checked, so that some still complete
            result = tiny(workload, False, min_requests=CYCLE + 2)
            expect(result["failed"] >= 1 and not result["correct"], f"{workload}: planted fault missed")
            print(f"ok  {workload:14s} planted fault: {result['failed']}/{result['attempted']} failed")
    finally:
        reference.product_reference, reference.sign_average = product, average


def check_without_program() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "product-exact", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "ran without the program's sources")
    expect(proc.stdout.strip() == "", f"printed {proc.stdout!r} without the program's sources")
    print(f"ok  without sources: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> None:
    run.pin_threads()
    run.load_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_planted_fault(spec)
    check_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
