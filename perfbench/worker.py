"""The measuring process: runs one workload's commands in-process through
`igate.cli.dispatch`, one command at a time (a closed loop with one client,
one thread). `run.py` starts it in a fresh interpreter, so the import, the
cold first command and the peak RSS belong to this workload alone.

    python3 perfbench/worker.py setup CASES.json OUT.json
    python3 perfbench/worker.py run   CASES.json OUT.json SECONDS
    python3 perfbench/worker.py trace CASES.json OUT.json SECONDS SEED

CASES.json holds the list of argv lists. OUT.json receives the results.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# A run ends after the first whole pass that reaches both the time budget
# and this many commands, so the 90th percentile has >= 10 samples above it.
MIN_SAMPLES = 100


def setup(argvs: list[list[str]]) -> dict:
    start = time.perf_counter()
    from igate import cli

    imported = time.perf_counter()
    code, out = cli.dispatch(argvs[0])
    done = time.perf_counter()
    return {"import_s": imported - start, "first_s": done - imported, "output": [code, out]}


def capture(cli, argv: list[str]) -> list:
    """(exit code, stdout, stderr) of one command; `dispatch` drops stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def passes(cli, argvs, expected, seconds: float, tracer=None) -> dict:
    """Whole passes over the command list until the budget is reached.

    Each command's (exit code, stdout) is compared with the warm-up pass;
    the comparison and the trace folding run outside the timed call.
    """
    latencies: list[float] = []
    mismatched = [0] * len(argvs)
    count = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for index, argv in enumerate(argvs):
            t0 = clock()
            result = cli.dispatch(argv)
            t1 = clock()
            latencies.append((t1 - t0) * 1e3)
            if tracer is not None:
                tracer.end_command(result[0])
            if result != expected[index]:
                mismatched[index] += 1
        count += 1
        if clock() - start >= seconds and len(latencies) >= MIN_SAMPLES:
            break
    return {
        "wall_s": clock() - start,
        "passes": count,
        "latencies_ms": latencies,
        "mismatched": mismatched,
    }


def main(argv: list[str]) -> int:
    mode, cases_path, out_path = argv[:3]
    argvs = json.loads(Path(cases_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(argvs)
    else:
        from igate import cli

        seconds = float(argv[3])
        warmup = [capture(cli, a) for a in argvs]
        expected = [(code, out) for code, out, _ in warmup]
        result = {"warmup": warmup}
        if mode == "run":
            result["run"] = passes(cli, argvs, expected, seconds)
        else:
            import scaling
            import tracing

            result["run"] = passes(cli, argvs, expected, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result["traced"] = passes(cli, argvs, expected, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["attribution_error"] = tracer.attribution_error()
            result["span_tree"] = tracer.span_tree()
            result["scale"] = scaling.measure(int(argv[4]))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
