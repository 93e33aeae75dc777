"""Closed-loop benchmark of the `ig` command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an igate checkout. It builds the workload's inputs
from the seed, computes their reference outputs, then measures in fresh
interpreters (see worker.py) and checks every command's output. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones from a traced run, whose span tree is
printed on the line before. Each run also prints a line of context: machine
calibration before and after, Python and numpy versions, nproc and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"

WORKLOADS = ("enum", "worlds", "ground", "reject", "learn")
SETUP_RUNS = 6
CHILD_TIMEOUT_S = 150

SUMMARY_UNITS = {
    "ops_per_s": "cmd/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "reject_p50_ms": "ms",
    "fail_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, in ms (machine speed)."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def child(mode: str, cases: Path, *extra: str) -> dict:
    out = cases.with_name(f"{mode}-{time.monotonic_ns()}.json")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(cases), str(out), *extra],
        cwd=ROOT,
        check=True,
        timeout=CHILD_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def count_failures(cases, result: dict, timed_runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over the timed commands.

    A command fails when the warm-up output of its input misses the
    reference, or when its own output differs from that warm-up output.
    """
    good = [case.check(*out) for case, out in zip(cases, result["warmup"])]
    attempted = failed = 0
    for run in timed_runs:
        attempted += len(run["latencies_ms"])
        for index, mismatched in enumerate(run["mismatched"]):
            failed += run["passes"] if not good[index] else mismatched
    return attempted, failed


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """(context, summary, result, span tree) of one run."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        cases = workloads.build(workload, seed, workdir)
        cases_file = workdir / "cases.json"
        cases_file.write_text(json.dumps([c.argv for c in cases]), encoding="utf-8")
        calib_before = calibrate()
        if trace:
            result = child("trace", cases_file, str(seconds), str(seed))
            setups = []
        else:
            # Half the fresh interpreters start before the measured run and
            # half after it, so setup_s samples the machine over the run.
            setups = [child("setup", cases_file) for _ in range(SETUP_RUNS // 2)]
            result = child("run", cases_file, str(seconds))
            setups += [child("setup", cases_file) for _ in range(SETUP_RUNS // 2)]
        calib_after = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    timed = [result["run"]] + ([result["traced"]] if trace else [])
    attempted, failed = count_failures(cases, result, timed)
    expected_first = result["warmup"][0][:2]
    attempted += len(setups)
    failed += sum(s["output"] != expected_first for s in setups)

    run = result["run"]
    latencies = run["latencies_ms"]
    # Throughput and median latency follow the machine's speed regime (it
    # changes every few tens of seconds on a shared host), so they are
    # printed with every run and reported by the traced run, while the
    # bounded end-to-end metrics are the ones that stay steady across runs.
    summary = {
        "ops_per_s": len(latencies) / run["wall_s"],
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": p90(latencies),
        "fail_ratio": failed / attempted,
    }
    if workload == "reject":
        summary["reject_p50_ms"] = summary["op_p50_ms"]
    context = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calib_before_ms": calib_before,
        "calib_after_ms": calib_after,
        "samples": len(latencies),
        "passes": run["passes"],
        "inputs": len(cases),
    }
    tree = None
    attributed = True
    if trace:
        traced = result["traced"]
        metrics = {"ops_per_s": summary["ops_per_s"], "op_p50_ms": summary["op_p50_ms"]}
        metrics.update(result["layers"])
        metrics["trace.overhead_ratio"] = (
            len(traced["latencies_ms"]) / traced["wall_s"]
        ) / summary["ops_per_s"]
        metrics.update(result["scale"])
        metrics["machine.calib_ms"] = (calib_before + calib_after) / 2
        # Self times must add up to the traced command time.
        context["attribution_error"] = result["attribution_error"]
        attributed = result["attribution_error"] <= 1e-6
        tree = result["span_tree"]
    else:
        metrics = {
            "op_p90_ms": summary["op_p90_ms"],
            "setup_s": statistics.median(s["import_s"] + s["first_s"] for s in setups),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
        summary.update(metrics)
        context["setup_import_s"] = statistics.median(s["import_s"] for s in setups)
    outcome = {
        "correct": failed == 0 and attributed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return context, summary, outcome, tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "igate" / "cli.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print(
            f"perfbench: {ROOT} is not an igate checkout"
            " (needs src/igate and tests/oracles.py)",
            file=sys.stderr,
        )
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    context, summary, result, tree = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if set(result["metrics"]) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(units))}"
        )
    print(json.dumps({"context": context}))
    for name, value in summary.items():
        print(f"{name} = {value:.6g} {SUMMARY_UNITS[name]}")
    for name, value in result["metrics"].items():
        if name not in summary:
            print(f"{name} = {value:.6g} {units[name]}")
    if tree is not None:
        print(json.dumps({"span_tree": tree}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
