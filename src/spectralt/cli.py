"""Command-line front end: certify, sample, sweep, verify."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Optional

import numpy as np

from . import spectra as SP
from .certify import (
    certify_via_decomposition,
    check_pipeline_params,
    union_bound_empirical_check,
    zuk_certificate,
)
from .delta import Presentation, build_delta_k, double_edge_audit
from .errors import HypothesisViolation, InputError, ResourceCapError, SpectralTError
from .multigraph import MultiGraph
from .randmodels import (
    Seed,
    check_lax_params,
    check_p_params,
    check_strict_params,
    sample_bipartite_gnp,
    sample_bred,
    sample_gamma_lax,
    sample_gamma_p,
    sample_gamma_strict,
    sample_gnp,
    sample_red,
)
from .regularity import _label_classes, extract_regular_subgraph, ore_ryser_feasible

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# most trials (densities x trials per density) one sweep may queue
SWEEP_TRIAL_CAP = 10**6

SWEEP_MODELS = ("strict", "p", "lax")

# the thread counts BLAS libraries read when they load; sweep workers start
# with one BLAS thread each unless one of them is set
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CSV_HEADER = [
    "n", "k", "d", "trial", "seed", "num_relators",
    "lambda1", "pipeline_bound", "certified", "status",
]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (ValueError, RecursionError) as exc:
            # an integer past Python's digit limit, or arrays nested too deep
            raise InputError(f"config file cannot be read: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError("config file must contain a JSON object")
    return cfg


def _opt(args: argparse.Namespace, cfg: dict, name: str, default=None):
    """Resolution order: explicit flag, config file entry, built-in default;
    a null config entry counts as absent."""
    val = getattr(args, name, None)
    if val is not None:
        return val
    if cfg.get(name) is not None:
        return cfg[name]
    return default


def _path(args: argparse.Namespace, cfg: dict, name: str) -> Optional[str]:
    """`_opt` for a file path; a config value that is no string is an input error."""
    val = _opt(args, cfg, name)
    if val is not None and not isinstance(val, str):
        raise InputError(f"{name} must be a path, got {val!r}")
    return val


def _num(args: argparse.Namespace, cfg: dict, name: str, typ: type, default=None):
    """`_opt` converted by `typ`: int, float, or bool for a switch.  A config
    value `typ` rejects is an input error, and so are a switch that is not a
    bool, a bool for a number, and an int with a fractional part."""
    val = _opt(args, cfg, name, default)
    if val is None:
        return None
    if isinstance(val, bool) != (typ is bool) or (
        typ is int and isinstance(val, float) and not val.is_integer()
    ):
        raise InputError(f"{name} must be {typ.__name__}, got {val!r}")
    try:
        return typ(val)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be {typ.__name__}, got {val!r}")


# ---------------------------------------------------------------- certify

def cmd_certify(args: argparse.Namespace, cfg: dict) -> int:
    path = _path(args, cfg, "presentation")
    if path is None:
        raise InputError("a presentation file is required")
    with open(path) as fh:
        pres = Presentation.parse(fh.read())
    k = _num(args, cfg, "k", int, pres.k)
    if k is None:
        raise InputError("k not given and not recorded in the file")
    diagnostics = _num(args, cfg, "diagnostics", bool, False)
    pipeline = _num(args, cfg, "pipeline", bool, False)
    delta_shave = _num(args, cfg, "delta", float, 0.2)
    m_bound = _num(args, cfg, "m_bound", int, 3)
    check_pipeline_params(delta_shave, m_bound)  # refused on either route
    if pipeline:
        cert = certify_via_decomposition(pres, k, delta_shave, m_bound=m_bound)
    else:
        cert = zuk_certificate(pres, k)
    print(cert.to_json())
    if diagnostics:
        for line in cert.diagnostics:
            print(line, file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------- sample

def _samplers() -> dict:
    """model -> (the options it requires, its sampler taking them in that
    order and then the seed).  Built on each call from this module's current
    names, so a sampler rebound here (by a tracer, say) is the one called."""
    return {
        "gnp": (("m", "p"), sample_gnp),
        "bgnp": (("m1", "m2", "p"), sample_bipartite_gnp),
        "red": (("n", "l", "p"), sample_red),
        "bred": (("n", "l", "p"), sample_bred),
        "strict": (("n", "k", "d"), sample_gamma_strict),
        "p": (("n", "k", "p"), sample_gamma_p),
        "lax": (("n", "k", "d", "f"), sample_gamma_lax),
    }


def cmd_sample(args: argparse.Namespace, cfg: dict) -> int:
    model = _opt(args, cfg, "model")
    if model is None:
        raise InputError("--model is required")
    seed = Seed(_num(args, cfg, "seed", int, 0), _num(args, cfg, "stream", int, 0))
    opts = {name: _num(args, cfg, name, int) for name in ("n", "k", "l", "m", "m1", "m2", "f")}
    opts.update(p=_num(args, cfg, "p", float), d=_num(args, cfg, "d", float))
    samplers = _samplers()
    if not isinstance(model, str) or model not in samplers:
        raise InputError(f"unknown model {model!r}")
    names, sampler = samplers[model]
    if any(opts[name] is None for name in names):
        flags = [f"--{name}" for name in names]
        raise InputError(
            f"model {model} requires {', '.join(flags[:-1])} and {flags[-1]}"
        )
    out = sampler(*(opts[name] for name in names), seed)

    text = out.dump()
    out_path = _path(args, cfg, "out")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
    if isinstance(out, Presentation):
        print(f"presentation: n={out.n} relators={out.num_relators}", file=sys.stderr)
    else:
        prof = out.degree_profile()
        print(
            f"graph: vertices={out.num_vertices()} edges={out.num_edges()} "
            f"deg[min={prof.min} max={prof.max} mean={prof.mean:.3f}]",
            file=sys.stderr,
        )
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _density_p(n: int, k: int, d: float) -> float:
    """The p-model's probability (2n-1)^(k(d-1)) for density d."""
    try:
        return (2 * n - 1) ** (k * (d - 1.0))
    except OverflowError:  # no float: 0 below d = 1, and no probability above
        return 0.0 if d < 1 else math.inf


def _sweep_model(model: str, n: int, k: int, f: int, d: float) -> tuple:
    """(sampler, check, args) of a sweep model at density d: a trial draws
    `sampler(*args, seed)`, and `check(*args)` makes the sampler's checks that
    no seed changes.  Names are read on each call, as in `_samplers`."""
    if model == "strict":
        return sample_gamma_strict, check_strict_params, (n, k, d)
    if model == "p":
        return sample_gamma_p, check_p_params, (n, k, _density_p(n, k, d))
    return sample_gamma_lax, check_lax_params, (n, k, d, f)


def _sweep_trial(task: tuple) -> tuple:
    """One sweep trial; top-level so it pickles for process pools."""
    model, n, k, f, d, trial, seed_value, stream_id, pipeline = task
    seed = Seed(seed_value, stream_id)
    try:
        sampler, _, sample_args = _sweep_model(model, n, k, f, d)
        pres = sampler(*sample_args, seed)
        if pipeline:
            cert = certify_via_decomposition(pres, k, seed_info=str(seed))
        else:
            cert = zuk_certificate(pres, k, seed_info=str(seed))
        bound = "" if cert.pipeline_bound is None else _fmt(cert.pipeline_bound)
        return (
            n, k, _fmt(d), trial, str(seed), pres.num_relators,
            _fmt(cert.lambda1), bound,
            "true" if cert.certified else "false", "ok",
        )
    except ResourceCapError:
        return (n, k, _fmt(d), trial, str(seed), "", "", "", "", "resource-cap")
    except SpectralTError as exc:
        return (n, k, _fmt(d), trial, str(seed), "", "", "", "", f"error: {exc}")


def _check_sweep_size(points: float, trials: int) -> None:
    """Refuse a sweep of more than SWEEP_TRIAL_CAP trials before allocating it."""
    if points * trials > SWEEP_TRIAL_CAP:
        raise ResourceCapError(
            f"sweep of up to {points} densities x {trials} trials "
            f"exceeds cap {SWEEP_TRIAL_CAP}"
        )


def _parse_grid(args: argparse.Namespace, cfg: dict, trials: int) -> list[float]:
    grid_text = _opt(args, cfg, "d_grid")
    if grid_text is not None:
        if isinstance(grid_text, str):
            grid_text = [tok for tok in grid_text.split(",") if tok.strip()]
        try:
            grid = [float(x) for x in grid_text]
        except (TypeError, ValueError, OverflowError):
            grid = None
        if grid is None or not all(map(math.isfinite, grid)) or any(
            isinstance(x, bool) for x in grid_text
        ):
            raise InputError(f"malformed density grid {grid_text!r}")
        _check_sweep_size(len(grid), trials)
        return grid
    d_min = _num(args, cfg, "d_min", float)
    if d_min is None:
        raise InputError("sweep needs --d-grid or --d-min/--d-max/--d-step")
    d_max = _num(args, cfg, "d_max", float, d_min)
    d_step = _num(args, cfg, "d_step", float, 1.0)
    if not (math.isfinite(d_min) and math.isfinite(d_max) and d_step > 0):
        raise InputError("sweep needs finite --d-min/--d-max and --d-step > 0")
    # floor(steps) + 1 points fit in the range, plus one for rounding in the
    # accumulation below; the bound also ends it where d + d_step rounds to d
    steps = (d_max + 1e-12 - d_min) / d_step
    points = math.floor(steps) + 2 if math.isfinite(steps) else math.inf
    _check_sweep_size(points, trials)
    grid, d = [], d_min
    for _ in range(max(points, 0)):
        if d > d_max + 1e-12:
            break
        grid.append(d)
        d += d_step
    return grid


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Each of BLAS_THREAD_VARIABLES set to 1 while the block runs, unless one
    of them is set already; the environment is as it was afterwards.  Without
    it, `--jobs` workers each run a BLAS thread per core."""
    if any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        yield
        return
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name in BLAS_THREAD_VARIABLES:
            os.environ.pop(name, None)


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    model = _opt(args, cfg, "model", "strict")
    n, k = _num(args, cfg, "n", int), _num(args, cfg, "k", int)
    if n is None or k is None:
        raise InputError("sweep requires --n and --k")
    f = _num(args, cfg, "f", int, 0)
    trials = _num(args, cfg, "trials", int, 1)
    if trials < 1:
        raise InputError("--trials must be >= 1")
    seed_value = _num(args, cfg, "seed", int, 0)
    SP.eigen_cap()  # a malformed cap fails the sweep, not each of its trials
    pipeline = _num(args, cfg, "pipeline", bool, False)
    grid = _parse_grid(args, cfg, trials)
    if not grid:
        raise InputError("empty density grid")
    jobs = _num(args, cfg, "jobs", int, os.cpu_count() or 1)
    if jobs < 1:
        raise InputError("--jobs must be >= 1")
    out_path = _path(args, cfg, "out")
    if model not in SWEEP_MODELS:
        raise InputError(f"unknown sweep model {model!r}")
    for d in grid:  # before any trial starts
        _, check, check_args = _sweep_model(model, n, k, f, d)
        check(*check_args)

    tasks = [
        (model, n, k, f, d, trial, seed_value, di * trials + trial, pipeline)
        for di, d in enumerate(grid)
        for trial in range(trials)
    ]
    # opened before the first trial, so a path that cannot be written fails
    # the sweep before any trial runs
    out = open(out_path, "w", newline="") if out_path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        # start no more workers than can run
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            # spawned workers load numpy afresh, so they read the environment the
            # pool starts them in; forked ones would keep this process's BLAS
            spawn = multiprocessing.get_context("spawn")
            with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                rows = list(pool.map(_sweep_trial, tasks))
        else:
            rows = [_sweep_trial(t) for t in tasks]
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
        # rate footer: certification fraction per grid point, in grid order
        for di, d in enumerate(grid):
            chunk = rows[di * trials : (di + 1) * trials]
            certified = sum(1 for r in chunk if r[8] == "true")
            fh.write(
                f"# rate d={_fmt(d)} certified {certified}/{trials} "
                f"({certified / trials:.3f})\n"
            )
    return EXIT_OK


# ----------------------------------------------------------------- verify

Check = tuple[str, bool, str]


def _verify_spectra(seed: Seed) -> list[Check]:
    checks: list[Check] = []
    worst = 0.0
    ok = True
    for i in range(20):
        g = sample_gnp(12, 0.6, Seed(seed.value, 1000 + i))
        if g.degree_profile().min == 0:
            continue
        eigs = SP.spectrum(SP.normalized_laplacian(g))
        worst = max(worst, float(-eigs[0]), float(eigs[-1] - 2.0))
        ok = ok and eigs[0] >= -1e-9 and eigs[-1] <= 2.0 + 1e-9
    checks.append(("laplacian-range", ok, f"worst overshoot {worst:.2e}"))

    ok = True
    rng = Seed(seed.value, 1100).rng()
    for _ in range(50):
        m = int(rng.integers(4, 10))
        a = rng.integers(0, 3, size=(m, m))
        b = rng.integers(0, 3, size=(m, m))
        a = a + a.T
        b = b + b.T
        ok = ok and SP.weyl_check(a.astype(float), b.astype(float))
    checks.append(("weyl-inequality", ok, "50 random symmetric pairs"))

    ok = True
    worst = 0.0
    for i in range(20):
        g = sample_bipartite_gnp(6, 8, 0.8, Seed(seed.value, 1200 + i))
        if g.degree_profile().min == 0:
            continue
        eigs = SP.spectrum(SP.normalized_laplacian(g))
        gap = float(np.max(np.abs((eigs + eigs[::-1]) - 2.0)))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-8
    checks.append(("bipartite-symmetry", ok, f"worst asymmetry {worst:.2e}"))
    return checks


def _hexagon_triple() -> tuple[MultiGraph, MultiGraph, MultiGraph]:
    """Valid hand triple: doubled triangle plus two bipartite 6-cycles.

    Perfect matchings would be simpler but are disconnected (lambda1 = 0),
    which the c_i < 1 hypothesis rejects; 6-cycles are the smallest connected
    (2,2)-regular bipartite graphs.
    """
    v1, v2 = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
    g1 = MultiGraph(v1, [0, 1, 0], [1, 2, 2], [2, 2, 2])
    # G2: x_i y_i and x_{i+1} y_i; G3: x_i y_{i+1} and x_i y_i (indices mod 3)
    side = np.arange(6) < 3
    g2 = MultiGraph(v1 + v2, [0, 1, 2, 1, 2, 0], [3, 4, 5, 3, 4, 5], side=side)
    g3 = MultiGraph(v1 + v2, [0, 1, 2, 0, 1, 2], [4, 5, 3, 3, 4, 5], side=side)
    return g1, g2, g3


def _six_regular(labels: list[str]) -> MultiGraph:
    """K6 plus a doubled perfect matching: 6-regular on six vertices."""
    u, v = np.triu_indices(6, 1)
    return MultiGraph(labels, u, v, np.where(v == u + 3, 2, 1))


def _brute_audit(g: MultiGraph) -> tuple[int, int, bool]:
    edges = g.edges
    max_mult = max(edges.values(), default=0)
    doubles = [e for e, m in edges.items() if m >= 2]
    per_vertex: dict[str, int] = {}
    for u, v in doubles:
        per_vertex[u] = per_vertex.get(u, 0) + 1
        if u != v:
            per_vertex[v] = per_vertex.get(v, 0) + 1
    matching = all(c <= 1 for c in per_vertex.values())
    return max_mult, len(doubles), matching


def _verify_lemmas(seed: Seed) -> list[Check]:
    checks: list[Check] = []
    g1, g2, g3 = _hexagon_triple()
    res = union_bound_empirical_check(g1, g2, g3, 2, 2)
    checks.append(
        ("union-bound-hexagons", res.holds, f"lhs={res.lhs:.4f} rhs={res.rhs:.4f}")
    )

    ok = True
    worst = math.inf
    succeeded = 0
    for i in range(15):
        h = sample_bipartite_gnp(6, 6, 0.9, Seed(seed.value, 2000 + i))
        f2 = extract_regular_subgraph(h, 3, 3)
        h2 = sample_bipartite_gnp(6, 6, 0.9, Seed(seed.value, 2100 + i))
        f3 = extract_regular_subgraph(h2, 3, 3)
        if f2 is None or f3 is None:
            continue
        c1 = _six_regular([f2.vertices[i] for i in np.flatnonzero(f2.side)])
        try:
            res = union_bound_empirical_check(c1, f2, f3, 3, 3)
        except HypothesisViolation:
            continue  # a (3,3) factor can still split into two 3+3 halves
        succeeded += 1
        ok = ok and res.holds
        worst = min(worst, res.lhs - res.rhs)
    checks.append(
        ("union-bound-random", ok and succeeded > 0,
         f"{succeeded} triples, worst slack {worst:.4f}")
    )

    ok = True
    for i in range(20):
        pres = sample_gamma_p(2, 3, 0.3, Seed(seed.value, 2200 + i))
        delta = build_delta_k(pres, 3)
        audit = double_edge_audit(delta)
        brute = _brute_audit(delta)
        ok = ok and brute == (
            audit.max_multiplicity, audit.double_edge_count, audit.doubles_form_matching
        )
    checks.append(("double-edge-audit", ok, "20 random length-3 presentations"))
    return checks


def _verify_regularity(seed: Seed) -> list[Check]:
    labels = ["x1", "x2", "x3", "y1", "y2", "y3"]
    all_u, all_v = np.repeat([0, 1, 2], 3), np.tile([3, 4, 5], 3)
    ok = True
    for targets in [(1, 1), (2, 2)]:
        for bits in range(512):
            pick = ((bits >> np.arange(9)) & 1) == 1
            g = MultiGraph(labels, all_u[pick], all_v[pick], side=np.arange(6) < 3)
            feas = ore_ryser_feasible(g, *targets)
            got = extract_regular_subgraph(g, *targets)
            ok = ok and feas == (got is not None)
            if got is not None:
                ok = ok and np.array_equal(got.degree_array(), np.repeat(targets, 3))
    return [("ore-ryser-exhaustive", ok, "1024 graph/target combinations on 3+3")]


def _edges_cross_classes(g: MultiGraph, n: int) -> bool:
    """Whether no edge joins two words of the same class (first letter)."""
    classes = _label_classes(g.vertices, n)
    u, v, _ = g.edge_arrays
    return bool(np.all(classes[u] != classes[v]))


def _verify_models(seed: Seed) -> list[Check]:
    checks: list[Check] = []
    ok = True
    for i in range(50):
        g = sample_red(2, 2, 0.5, Seed(seed.value, 3000 + i))
        ok = ok and _edges_cross_classes(g, 2)
    checks.append(("red-forbidden-classes", ok, "50 seeds, n=2 l=2 p=0.5"))

    ok = True
    for i in range(50):
        g = sample_bred(2, 3, 0.5, Seed(seed.value, 3100 + i))
        ok = ok and _edges_cross_classes(g, 2)
    checks.append(("bred-forbidden-classes", ok, "50 seeds, n=2 l=3 p=0.5"))

    ok = True
    for i in range(20):
        pres = sample_gamma_lax(2, 5, 0.3, 1, Seed(seed.value, 3200 + i))
        ok = ok and bool(np.all((4 <= pres.lengths) & (pres.lengths <= 6)))
    checks.append(("lax-length-window", ok, "20 seeds, k=5 f=1"))
    return checks


_SUITES = {
    "spectra": _verify_spectra,
    "lemmas": _verify_lemmas,
    "regularity": _verify_regularity,
    "models": _verify_models,
}


def cmd_verify(args: argparse.Namespace, cfg: dict) -> int:
    suite = _opt(args, cfg, "suite")
    if not isinstance(suite, str) or suite not in _SUITES:
        raise InputError(f"unknown suite {suite!r}")
    seed = Seed(_num(args, cfg, "seed", int, 0))
    checks = _SUITES[suite](seed)
    failed = False
    for name, passed, note in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({note})")
        failed = failed or not passed
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ------------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` leaves
    it as it was."""
    parser = argparse.ArgumentParser(
        prog="spectralt",
        description="Link-graph construction and spectral Property (T) certification.",
    )
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("certify", help="certify a presentation file")
    pc.add_argument("presentation", nargs="?", help="presentation file path")
    pc.add_argument("--k", type=int)
    pc.add_argument("--pipeline", action="store_true", default=None,
                    help="run the decomposition pipeline as well")
    pc.add_argument("--delta", type=float, help="regular-factor shaving fraction")
    pc.add_argument("--m-bound", dest="m_bound", type=int)
    pc.add_argument("--diagnostics", action="store_true", default=None,
                    help="print diagnostics to stderr")

    ps = sub.add_parser("sample", help="sample a random model")
    ps.add_argument("--model", choices=list(_samplers()))
    for flag, typ in [("--n", int), ("--k", int), ("--l", int), ("--m", int),
                      ("--m1", int), ("--m2", int), ("--f", int),
                      ("--p", float), ("--d", float)]:
        ps.add_argument(flag, type=typ)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--stream", type=int)
    ps.add_argument("--out")

    pw = sub.add_parser("sweep", help="seeded density sweep to CSV")
    pw.add_argument("--model", choices=SWEEP_MODELS)
    pw.add_argument("--n", type=int)
    pw.add_argument("--k", type=int)
    pw.add_argument("--f", type=int)
    pw.add_argument("--d-grid", dest="d_grid",
                    help="comma-separated density values")
    pw.add_argument("--d-min", dest="d_min", type=float)
    pw.add_argument("--d-max", dest="d_max", type=float)
    pw.add_argument("--d-step", dest="d_step", type=float)
    pw.add_argument("--trials", type=int)
    pw.add_argument("--seed", type=int)
    pw.add_argument("--jobs", type=int)
    pw.add_argument("--pipeline", action="store_true", default=None)
    pw.add_argument("--out")

    pv = sub.add_parser("verify", help="run an invariant suite")
    pv.add_argument("suite", nargs="?")
    pv.add_argument("--seed", type=int)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        handler = {
            "certify": cmd_certify,
            "sample": cmd_sample,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
        }[args.command]
        return handler(args, cfg)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, OSError, json.JSONDecodeError, UnicodeDecodeError, SpectralTError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
