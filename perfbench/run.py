"""Certification benchmark for the genbound CLI.

    python3 perfbench/run.py --workload product-exact --seed 1 --seconds 18 --trace 0

Drives ``genbound.cli.main`` in-process with a closed loop of certification
requests (one client, the next request sent when the previous one returns).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
# only parallelism is the CLI's own --threads.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUPS = 3  # fresh interpreters timed for setup_s
MIN_REQUESTS = 100  # so that at least 10 requests lie beyond p90
REPLAY_REPEATS = 3

UNITS = {
    "setup_s": "s",
    "cert_p50_ms": "ms",
    "cert_p90_ms": "ms",
    "certs_per_s": "1/s",
    "cpu_ms_per_cert": "ms",
    "peak_rss_mb": "MB",
    "exact_share": "share",
}

LAYER_UNITS = {
    "core.sign_rows": "count",
    "core.sign_ms": "ms",
    "core.product_passes": "count",
    "core.product_ms": "ms",
    "core.dsum_calls": "count",
    "core.dsum_ms": "ms",
    "core.rng_words": "count",
    "core.rng_ms": "ms",
    "instances.builder_calls": "count",
    "complexity.self_ms": "ms",
    "complexity.mc_draws": "count",
    "complexity.mc_ms": "ms",
    "complexity.mc_speedup": "ratio",
    "deviation.self_ms": "ms",
    "deviation.expectation_ms": "ms",
    "deviation.audit_ms": "ms",
    "deviation.symmetrize_ms": "ms",
    "deviation.ud_calls": "count",
    "concentration.self_ms": "ms",
    "concentration.trials": "count",
    "concentration.trials_per_s": "1/s",
    "concentration.tail_speedup": "ratio",
    "entropy.exact_cover_ms": "ms",
    "entropy.greedy_cover_ms": "ms",
    "linear.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "trace.overhead_pct": "%",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"


def load_program():
    """Import genbound from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "genbound" / "cli.py").is_file():
        raise BenchmarkError(f"no genbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import genbound.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "genbound":
        raise BenchmarkError(f"imported genbound from {cli.__file__}, not from {SRC}")
    return cli


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    from workloads import mc_threads

    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by numpy version
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "cli_threads": mc_threads() if workload == "monte-carlo" else 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # information only, not a gated metric
        "platform": platform.platform(),
    }


class Runner:
    """Writes, runs and checks the requests of one workload stream."""

    def __init__(self, cli, workload: str, seed: int, work: Path, checker):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.checker = checker
        work.mkdir(parents=True, exist_ok=True)

    def request(self, index: int):
        from workloads import make_request

        return make_request(self.workload, self.seed, index)

    def argvs(self, request, tag: str, threads: int | None = None) -> list[list[str]]:
        """Write the request's configs; the CLI argument list of each command."""
        argvs = []
        for k, command in enumerate(request.commands):
            config = self.work / f"{tag}-{k}-config.json"
            config.write_text(json.dumps(command.config))
            argvs.append([
                command.name,
                "--config", str(config),
                "--out", str(self.work / f"{tag}-{k}-report.json"),
                "--threads", str(threads or command.threads),
            ])
        return argvs

    def execute(self, request, tag: str, threads: int | None = None) -> dict:
        """Run one request and read its reports.  Only the CLI calls are timed."""
        argvs = self.argvs(request, tag, threads)
        for argv in argvs:
            Path(argv[4]).unlink(missing_ok=True)
        error = None
        start = time.perf_counter()
        try:
            codes = [self.cli.main(argv) for argv in argvs]
        except (Exception, SystemExit):  # a request that raises is a failed request
            codes = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        reports = []
        size = 0
        if codes is not None:
            for argv, code in zip(argvs, codes):
                if code not in (0, 2):  # exit code 2 still writes the report
                    error = f"{argv[0]} exited {code}"
                    break
                with open(argv[4]) as handle:
                    report = json.load(handle)
                size += os.path.getsize(argv[4])
                reports.append(report)
                if code != 0 or report["violations"]:
                    error = f"{argv[0]} exited {code} with violations {report['violations']}"
        return {
            "index": request.index,
            "seconds": elapsed,
            "reports": reports,
            "bytes": size,
            "methods": [
                row["method"]
                for report in reports
                for row in report["results"]
                if row.get("kind") in ("rademacher", "tail") and "method" in row
            ],
            "error": error,
        }

    def check(self, request, reports) -> list[str]:
        """Reference values, and for threaded commands thread-count invariance."""
        problems = []
        for command, report in zip(request.commands, reports):
            problems += self.checker.check(command.name, command.config, report)
        if any(command.threads > 1 for command in request.commands):
            single = self.execute(request, "threads1", threads=1)
            if single["error"]:
                problems.append(f"--threads 1 rerun failed: {single['error']}")
            for command, multi, one in zip(request.commands, reports, single["reports"]):
                if self.cli.canonical_report(multi) != self.cli.canonical_report(one):
                    problems.append(
                        f"{command.name}: report at --threads {command.threads} differs from --threads 1"
                    )
        return problems

    def setup_seconds(self, count: int) -> list[float]:
        """Time fresh interpreters from start to a CLI that has served one request."""
        from workloads import WARMUP_INDEX

        argvs = json.dumps(self.argvs(self.request(WARMUP_INDEX), "setup"))
        times = []
        for _ in range(count):
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), argvs],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                _out, err = proc.communicate(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if line != "ready" or proc.returncode != 0:
                raise BenchmarkError(f"set-up probe failed ({line!r}): {err.strip()[-2000:]}")
            times.append(elapsed)
        return times

    def phase(self, seconds: float, min_requests: int, keep: int = 0, started=None):
        """Closed loop over the stream until ``seconds`` pass and ``min_requests``
        are done.  The first ``keep`` requests keep their reports for the
        checks; ``started(index)`` is called before each request."""
        records = []
        deadline = time.perf_counter() + seconds
        while len(records) < min_requests or time.perf_counter() < deadline:
            index = len(records)
            if started is not None:
                started(index)
            records.append(self.execute(self.request(index), "run"))
            if index >= keep:
                records[-1]["reports"] = None  # keeps the benchmark's own memory flat
        return records


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _completed(records) -> list[float]:
    """Times of the requests that did not fail; there must be some."""
    times = [record["seconds"] for record in records if record["error"] is None]
    if not times:
        raise BenchmarkError(f"all {len(records)} requests failed")
    return times


def _exact_share(records) -> float:
    methods = [method for record in records for method in record["methods"]]
    return methods.count("exact_enumeration") / len(methods) if methods else 0.0


def _check_records(runner: Runner, records) -> None:
    """Check the requests that kept their reports, outside the timed phase.
    A request that fails a check no longer counts as completed."""
    for record in records:
        if record["error"] is None and record["reports"] is not None:
            problems = runner.check(runner.request(record["index"]), record["reports"])
            if problems:
                record["error"] = "; ".join(problems)
    for record in records:
        if record["error"]:
            print(f"request {record['index']} failed: {record['error']}", file=sys.stderr)


def _replay_speedup(calls, prefix: str) -> float:
    """Total time of the recorded calls at one thread over that at two."""
    selected = [(fn, args) for name, fn, args in calls if name.startswith(prefix) and "threads" in args]
    if not selected:
        return 0.0
    best = {1: [float("inf")] * len(selected), 2: [float("inf")] * len(selected)}
    for repeat in range(REPLAY_REPEATS):
        order = (1, 2) if repeat % 2 == 0 else (2, 1)
        for j, (fn, args) in enumerate(selected):
            for threads in order:
                start = time.perf_counter()
                fn(**{**args, "threads": threads})
                best[threads][j] = min(best[threads][j], time.perf_counter() - start)
    return sum(best[1]) / sum(best[2])


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setups: int = SETUPS,
    min_requests: int = MIN_REQUESTS,
) -> dict:
    """Run one workload and return the result object printed by ``main``."""
    from reference import Checker
    from workloads import WARMUP_INDEX

    cli = load_program()
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    runner = Runner(cli, workload, seed, work, Checker())
    try:
        setup = [] if trace else runner.setup_seconds(setups)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            runner.execute(runner.request(WARMUP_INDEX), "warmup")
            gc.collect()
            if trace:
                records, values = _traced(runner, seconds, min_requests)
            else:
                records, values = _untraced(runner, seconds, min_requests, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_UNITS if trace else UNITS
    failed = sum(1 for record in records if record["error"])
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _untraced(runner: Runner, seconds: float, min_requests: int, setup):
    import numpy as np

    from workloads import CYCLE

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    records = runner.phase(seconds, min_requests, keep=CYCLE)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_records(runner, records)
    completed = _completed(records)
    values = {
        "setup_s": float(np.median(setup)),
        "cert_p50_ms": 1000.0 * _quantile(completed, 50),
        "cert_p90_ms": 1000.0 * _quantile(completed, 90),
        "certs_per_s": len(completed) / wall,
        "cpu_ms_per_cert": 1000.0 * cpu / len(completed),
        "peak_rss_mb": rss_mb,
        "exact_share": _exact_share(records),
    }
    return records, values


def _traced(runner: Runner, seconds: float, min_requests: int):
    from tracer import Tracer, layer_metrics
    from workloads import CYCLE

    untraced = runner.phase(seconds / 2.0, min_requests // 2, keep=CYCLE)
    _check_records(runner, untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.phase(0.0, len(untraced), started=lambda index: setattr(tracer, "request", index))
    finally:
        tracer.uninstall()
    requests = len(traced)
    values = layer_metrics(tracer, requests)
    values["complexity.mc_speedup"] = _replay_speedup(tracer.replay, "complexity.")
    values["concentration.tail_speedup"] = _replay_speedup(tracer.replay, "concentration.")
    values["cli.report_bytes"] = sum(r["bytes"] for r in untraced) / len(untraced)
    base = _quantile(_completed(untraced), 50)
    values["trace.overhead_pct"] = 100.0 * (_quantile(_completed(traced), 50) - base) / base
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{runner.workload}.npz")
    return untraced + traced, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("product-exact", "sample-exact", "monte-carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    pin_threads()
    try:
        record = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"provenance-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
