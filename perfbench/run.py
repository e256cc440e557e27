"""Benchmark of spectralt: one workload per run, a closed loop with one client.

Run from the root of a checkout that holds `src/spectralt`:

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 28 --trace 0

Each op is one in-process call to `spectralt.cli.main(argv)`; the next op
starts when the previous one returns.  The inputs come from `--seed` alone.
Set-up (importing spectralt, generating the inputs and one warm-up op) is
timed in this process and in fresh processes, and reported as a median.
With `--trace 1` the public functions of each module are wrapped with spans
and the per-layer metrics replace the end-to-end ones.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

# Only the standard library is imported here: numpy and spectralt load inside
# the timed set-up, also in the fresh set-up processes that import this file.
import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("sweep-sample", "certify-large", "pipeline-dense")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
BY_CASE_PREFIX = "op_p50_s by case: "

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def call(main, argv: list[str]) -> tuple[int, str]:
    """One op: run main(argv) with stdout and stderr captured; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a failed benchmark
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue()


def setup(name: str, seed: int, workdir: Path):
    """Import spectralt, build the workload's inputs, run the warm-up op.

    Returns (seconds taken, the cli module, the workload).
    """
    start = time.perf_counter()
    import spectralt.cli as cli

    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"spectralt was imported from {origin}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    call(cli.main, workload.argv(0))
    return time.perf_counter() - start, cli, workload


def setup_time_in_child(name: str, seed: int) -> None:
    """Entry point of a fresh set-up process: print only the set-up time."""
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        print(setup(name, seed, workdir)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_in_fresh_process(name: str, seed: int) -> float:
    code = (
        f"import sys; sys.path[:0] = {[str(HERE), str(SRC)]!r}; import run; "
        f"run.setup_time_in_child({name!r}, {seed!r})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setup_s, cli, workload = setup(name, seed, workdir)
    tracer = None
    if trace:
        import tracer as tr

        tracer = tr.Tracer()
        missing = tr.install(tracer)
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)

    durations, results = [], []
    i = 0
    loop_start = time.perf_counter()
    while True:
        i += 1
        argv = workload.argv(i)
        t0 = time.perf_counter()
        if tracer is None:
            rc, out = call(cli.main, argv)
        else:
            rc, out = tracer.run_op(i, call, cli.main, argv)
        durations.append(time.perf_counter() - t0)
        results.append((i, rc, out))
        if time.perf_counter() - loop_start >= seconds:
            break
    wall = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    for op, rc, out in results:
        problems = workload.problems(op, rc, out)
        if problems:
            failed += 1
            print(f"op {op} {workload.argv(op)} failed: {'; '.join(problems)}", file=sys.stderr)
    attempted = len(results)
    ok = attempted - failed
    by_case: dict[str, list[float]] = {}
    for (op, _, _), taken in zip(results, durations):
        by_case.setdefault(workload.case(op), []).append(taken)
    by_case_p50 = {case: statistics.median(v) for case, v in sorted(by_case.items())}
    print(f"{BY_CASE_PREFIX}{json.dumps(by_case_p50)}", file=sys.stderr)

    if tracer is None:
        setups = [setup_s] + [
            setup_in_fresh_process(name, seed) for _ in range(SETUP_REPEATS - 1)
        ]
        values = {
            "ops_per_s": ok / wall,
            "op_p50_s": statistics.fmean(by_case_p50.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": ok / attempted,
        }
        units = END_TO_END_UNITS
    else:
        values = tr.summarize(tr.op_metrics(tracer), [op for op, _, _ in results])
        values["trace.ops_per_s"] = ok / wall
        units = tr.UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "spectralt" / "__init__.py").is_file():
        print(f"error: no spectralt sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
