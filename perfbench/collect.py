"""Run the benchmark over several seeds and summarize, with the environment.

    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1-3 --out perfbench/baseline.json

For each workload in BENCHMARK.json it runs `run.py` once per seed, untraced,
then once per trace seed, traced, each for the file's `run_seconds`.  Each
end-to-end metric gets its median, quartiles and spread (quartile distance
over median), set against the bound in BENCHMARK.json; each per-layer metric
gets its median over the traced runs, and each input case its median op time
over the untraced runs.  Every run must pass every guard: if an op failed in
any run, the summary says so and the exit code is 1.
The tracing overhead is 1 - (traced ops_per_s / untraced ops_per_s), both
medians; because that difference is within the machine's noise, it is also
estimated as spans per op times the measured cost of one span, over op time.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
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
sys.path.insert(0, str(HERE))

from run import BY_CASE_PREFIX  # noqa: E402

# the layers predicted to do nearly all of each workload's work
LAYER_MIX = {
    "sweep-sample": ("words", "randmodels"),
    "certify-large": ("delta", "multigraph", "spectra"),
    "pipeline-dense": ("delta", "multigraph", "spectra", "regularity"),
}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(result line, median op time of each input case, wall seconds) of one run."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    by_case = {}
    for line in proc.stderr.splitlines():
        if line.startswith(BY_CASE_PREFIX):
            by_case = json.loads(line[len(BY_CASE_PREFIX):])
        else:
            print(line, file=sys.stderr)
    return json.loads(proc.stdout.splitlines()[-1]), by_case, wall


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def span_cost_s(calls: int = 200_000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    import tracer

    def noop():
        return None

    traced = tracer.Tracer().wrap("noop", noop)
    costs = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append((time.perf_counter() - start) / calls)
    return costs[1] - costs[0]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, where it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    if shutil.which("lscpu"):
        fields = json.loads(subprocess.run(
            ["lscpu", "-J"], capture_output=True, text=True, check=True
        ).stdout)["lscpu"]
        info = {f["field"].rstrip(":"): f["data"] for f in fields}
        env["cpu_model"] = info.get("Model name")
        env["l3_cache"] = info.get("L3 cache")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    span_cost = span_cost_s()
    report = {
        "environment": environment(),
        "run_seconds": seconds,
        "span_cost_s": span_cost,
        "workloads": {},
    }
    all_correct = True
    for workload in why:
        runs, cases, walls = [], [], []
        for seed in seed_list(args.seeds):
            result, by_case, wall = run_once(workload, seed, seconds, 0)
            runs.append(result)
            cases.append(by_case)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s, {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
        entry = {
            "why": why[workload],
            "ops_attempted": [r["attempted"] for r in runs],
            "ops_failed": [r["failed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "run_wall_s": statistics.median(walls),
            "op_p50_s_by_case": {
                case: statistics.median(c[case] for c in cases) for case in cases[0]
            },
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
        trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []
        if trace_seeds:
            traced = [run_once(workload, seed, seconds, 1)[0] for seed in trace_seeds]
            entry["all_correct"] = entry["all_correct"] and all(r["correct"] for r in traced)
            layer = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
            entry["per_layer"] = layer
            entry["tracing_overhead"] = 1.0 - (
                layer["trace.ops_per_s"] / entry["end_to_end"]["ops_per_s"]["median"]
            )
            entry["tracing_overhead_from_spans"] = (
                layer["trace.spans_per_op"] * span_cost / layer["trace.op_s"]
            )
            shares = {}
            for prefix in sorted({n.split(".")[0] for n in layer} - {"trace"}):
                own = sum(v for n, v in layer.items()
                          if n.startswith(prefix + ".") and n.endswith("_s"))
                shares[prefix] = own / layer["trace.op_s"]
            # medians do not add, so shares can sum to slightly more than 1
            entry["self_time_share"] = shares
            mix = LAYER_MIX.get(workload, ())
            entry["named_layers_share"] = {"+".join(mix): sum(shares[m] for m in mix)}
        report["workloads"][workload] = entry
        all_correct = all_correct and entry["all_correct"]

        print(f"\n{workload}: median run {entry['run_wall_s']:.1f} s wall, "
              f"{'every op passed' if entry['all_correct'] else 'SOME OPS FAILED'}")
        print("  op_p50_s by case: " + ", ".join(
            f"{case} {t:.4g}" for case, t in entry["op_p50_s_by_case"].items()))
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}  {flag}")
        if trace_seeds:
            print(f"  tracing overhead {entry['tracing_overhead']:.4f} measured, "
                  f"{entry['tracing_overhead_from_spans']:.2e} from span cost; "
                  f"layer self-time share {entry['named_layers_share']}")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
