"""Command-line front end: certify, sample, sweep, verify."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import spectra as SP
from . import words as W
from .certify import certify_via_decomposition, union_bound_empirical_check, zuk_certificate
from .delta import Presentation, build_delta_k, double_edge_audit
from .errors import HypothesisViolation, InputError, ResourceCapError, SpectralTError
from .multigraph import MultiGraph, edge_key
from .randmodels import (
    LaxParams,
    Seed,
    sample_bipartite_gnp,
    sample_bred,
    sample_gamma_lax,
    sample_gamma_p,
    sample_gamma_strict,
    sample_gnp,
    sample_red,
)
from .regularity import RegularityParams, extract_regular_subgraph, ore_ryser_feasible

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

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
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InputError("config file must contain a JSON object")
    return cfg


def _opt(args: argparse.Namespace, cfg: dict, name: str, default=None):
    """Resolution order: explicit flag, config file entry, built-in default."""
    val = getattr(args, name, None)
    if val is not None:
        return val
    if name in cfg:
        return cfg[name]
    return default


def _num(args: argparse.Namespace, cfg: dict, name: str, typ: type, default=None):
    """`_opt` converted by `typ`; a config value `typ` rejects is an input error."""
    val = _opt(args, cfg, name, default)
    if val is None:
        return None
    try:
        return typ(val)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be {typ.__name__}, got {val!r}")


# ---------------------------------------------------------------- certify

def cmd_certify(args: argparse.Namespace, cfg: dict) -> int:
    path = _opt(args, cfg, "presentation")
    if path is None:
        print("error: a presentation file is required", file=sys.stderr)
        return EXIT_INPUT
    with open(path) as fh:
        pres = Presentation.parse(fh.read())
    k = _num(args, cfg, "k", int, pres.k)
    if k is None:
        print("error: k not given and not recorded in the file", file=sys.stderr)
        return EXIT_INPUT
    if _opt(args, cfg, "pipeline", False):
        params = RegularityParams(delta=_num(args, cfg, "delta", float, 0.2))
        cert = certify_via_decomposition(
            pres, k, params, m_bound=_num(args, cfg, "m_bound", int, 3)
        )
    else:
        cert = zuk_certificate(pres, k)
    print(cert.to_json())
    if _opt(args, cfg, "diagnostics", False):
        for line in cert.diagnostics:
            print(line, file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------- sample

def cmd_sample(args: argparse.Namespace, cfg: dict) -> int:
    model = _opt(args, cfg, "model")
    if model is None:
        print("error: --model is required", file=sys.stderr)
        return EXIT_INPUT
    seed = Seed(_num(args, cfg, "seed", int, 0), _num(args, cfg, "stream", int, 0))
    n, k, l, m, m1, m2, f = (
        _num(args, cfg, name, int) for name in ("n", "k", "l", "m", "m1", "m2", "f")
    )
    p = _num(args, cfg, "p", float)
    d = _num(args, cfg, "d", float)

    if model == "gnp":
        if m is None or p is None:
            raise InputError("model gnp requires --m and --p")
        out = sample_gnp(m, p, seed)
    elif model == "bgnp":
        if m1 is None or m2 is None or p is None:
            raise InputError("model bgnp requires --m1, --m2 and --p")
        out = sample_bipartite_gnp(m1, m2, p, seed)
    elif model == "red":
        if n is None or l is None or p is None:
            raise InputError("model red requires --n, --l and --p")
        out = sample_red(n, l, p, seed)
    elif model == "bred":
        if n is None or l is None or p is None:
            raise InputError("model bred requires --n, --l and --p")
        out = sample_bred(n, l, p, seed)
    elif model == "strict":
        if n is None or k is None or d is None:
            raise InputError("model strict requires --n, --k and --d")
        out = sample_gamma_strict(n, k, d, seed)
    elif model == "p":
        if n is None or k is None or p is None:
            raise InputError("model p requires --n, --k and --p")
        out = sample_gamma_p(n, k, p, seed)
    elif model == "lax":
        if n is None or k is None or d is None or f is None:
            raise InputError("model lax requires --n, --k, --d and --f")
        out = sample_gamma_lax(n, LaxParams(k, d, f), seed)
    else:
        raise InputError(f"unknown model {model!r}")

    text = out.dump()
    out_path = _opt(args, cfg, "out")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
    if isinstance(out, Presentation):
        print(f"presentation: n={out.n} relators={len(out.relators)}", file=sys.stderr)
    else:
        prof = out.degree_profile()
        print(
            f"graph: vertices={out.num_vertices()} edges={out.num_edges()} "
            f"deg[min={prof.min} max={prof.max} mean={prof.mean:.3f}]",
            file=sys.stderr,
        )
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _sweep_trial(task: tuple) -> tuple:
    """One sweep trial; top-level so it pickles for process pools."""
    model, n, k, f, d, trial, seed_value, stream_id, pipeline = task
    seed = Seed(seed_value, stream_id)
    try:
        if model == "strict":
            pres = sample_gamma_strict(n, k, d, seed)
        elif model == "p":
            p = (2 * n - 1) ** (k * (d - 1.0))
            pres = sample_gamma_p(n, k, p, seed)
        elif model == "lax":
            pres = sample_gamma_lax(n, LaxParams(k, d, f), seed)
        else:
            raise InputError(f"unknown sweep model {model!r}")
        if pipeline:
            cert = certify_via_decomposition(pres, k, seed_info=str(seed))
        else:
            cert = zuk_certificate(pres, k, seed_info=str(seed))
        bound = "" if cert.pipeline_bound is None else _fmt(cert.pipeline_bound)
        return (
            n, k, _fmt(d), trial, str(seed), len(pres.relators),
            _fmt(cert.lambda1), bound,
            "true" if cert.certified else "false", "ok",
        )
    except ResourceCapError:
        return (n, k, _fmt(d), trial, str(seed), "", "", "", "", "resource-cap")
    except SpectralTError as exc:
        return (n, k, _fmt(d), trial, str(seed), "", "", "", "", f"error: {exc}")


def _parse_grid(args: argparse.Namespace, cfg: dict) -> list[float]:
    grid_text = _opt(args, cfg, "d_grid")
    if grid_text is not None:
        if isinstance(grid_text, str):
            grid_text = [tok for tok in grid_text.split(",") if tok.strip()]
        try:
            return [float(x) for x in grid_text]
        except (TypeError, ValueError):
            raise InputError(f"malformed density grid {grid_text!r}")
    d_min = _num(args, cfg, "d_min", float)
    if d_min is None:
        raise InputError("sweep needs --d-grid or --d-min/--d-max/--d-step")
    d_max = _num(args, cfg, "d_max", float, d_min)
    d_step = _num(args, cfg, "d_step", float, 1.0)
    # the accumulating loop below ends only for a finite range and a positive step
    if not (math.isfinite(d_min) and math.isfinite(d_max) and d_step > 0):
        raise InputError("sweep needs finite --d-min/--d-max and --d-step > 0")
    grid, d = [], d_min
    while d <= d_max + 1e-12:
        grid.append(d)
        d += d_step
    return grid


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    model = _opt(args, cfg, "model", "strict")
    n, k = _num(args, cfg, "n", int), _num(args, cfg, "k", int)
    if n is None or k is None:
        print("error: sweep requires --n and --k", file=sys.stderr)
        return EXIT_INPUT
    f = _num(args, cfg, "f", int, 0)
    trials = _num(args, cfg, "trials", int, 1)
    if trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    seed_value = _num(args, cfg, "seed", int, 0)
    SP.eigen_cap()  # a malformed cap fails the sweep, not each of its trials
    pipeline = bool(_opt(args, cfg, "pipeline", False))
    grid = _parse_grid(args, cfg)
    if not grid:
        print("error: empty density grid", file=sys.stderr)
        return EXIT_INPUT
    jobs = _num(args, cfg, "jobs", int, os.cpu_count() or 1)
    out_path = _opt(args, cfg, "out")

    tasks = [
        (model, n, k, f, d, trial, seed_value, di * trials + trial, pipeline)
        for di, d in enumerate(grid)
        for trial in range(trials)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_trial, tasks))
    else:
        rows = [_sweep_trial(t) for t in tasks]

    # rate footer: certification fraction per grid point, in grid order
    footer = []
    for di, d in enumerate(grid):
        chunk = rows[di * trials : (di + 1) * trials]
        certified = sum(1 for r in chunk if r[8] == "true")
        footer.append(
            f"# rate d={_fmt(d)} certified {certified}/{trials} "
            f"({certified / trials:.3f})"
        )

    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
        for line in footer:
            fh.write(line + "\n")
    finally:
        if out_path:
            fh.close()
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
    g1 = MultiGraph(v1, {("x1", "x2"): 2, ("x2", "x3"): 2, ("x1", "x3"): 2})
    cyc1 = [("x1", "y1"), ("y1", "x2"), ("x2", "y2"),
            ("y2", "x3"), ("x3", "y3"), ("y3", "x1")]
    cyc2 = [("x1", "y2"), ("y2", "x2"), ("x2", "y3"),
            ("y3", "x3"), ("x3", "y1"), ("y1", "x1")]
    g2 = MultiGraph(v1 + v2, cyc1, partition=(v1, v2))
    g3 = MultiGraph(v1 + v2, cyc2, partition=(v1, v2))
    return g1, g2, g3


def _six_regular(labels: list[str]) -> MultiGraph:
    """K6 plus a doubled perfect matching: 6-regular on six vertices."""
    edges: dict[tuple[str, str], int] = {}
    for i in range(6):
        for j in range(i + 1, 6):
            edges[edge_key(labels[i], labels[j])] = 2 if j == i + 3 else 1
    return MultiGraph(labels, edges)


def _brute_audit(g: MultiGraph) -> tuple[int, int, bool]:
    mults = list(g.edges.values())
    max_mult = max(mults, default=0)
    doubles = [e for e, m in g.edges.items() if m >= 2]
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
        v1 = sorted(f2.partition[0], key=list(f2.vertices).index)
        c1 = _six_regular(v1)
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
    v1 = ["x1", "x2", "x3"]
    v2 = ["y1", "y2", "y3"]
    all_pairs = [(u, v) for u in v1 for v in v2]
    ok = True
    for targets in [(1, 1), (2, 2)]:
        for bits in range(512):
            edges = [e for j, e in enumerate(all_pairs) if bits >> j & 1]
            g = MultiGraph(v1 + v2, edges, partition=(v1, v2))
            feas = ore_ryser_feasible(g, *targets)
            got = extract_regular_subgraph(g, *targets)
            ok = ok and feas == (got is not None)
            if got is not None:
                deg = got.degrees()
                ok = ok and all(deg[u] == targets[0] for u in v1)
                ok = ok and all(deg[v] == targets[1] for v in v2)
    return [("ore-ryser-exhaustive", ok, "1024 graph/target combinations on 3+3")]


def _verify_models(seed: Seed) -> list[Check]:
    checks: list[Check] = []
    ok = True
    for i in range(50):
        g = sample_red(2, 2, 0.5, Seed(seed.value, 3000 + i))
        for u, v in g.edges:
            wu, wv = W.word_from_label(u), W.word_from_label(v)
            ok = ok and W.class_index(wu, 2) != W.class_index(wv, 2)
    checks.append(("red-forbidden-classes", ok, "50 seeds, n=2 l=2 p=0.5"))

    ok = True
    for i in range(50):
        g = sample_bred(2, 3, 0.5, Seed(seed.value, 3100 + i))
        for u, v in g.edges:
            wu, wv = W.word_from_label(u), W.word_from_label(v)
            ok = ok and W.class_index(wu, 2) != W.class_index(wv, 2)
    checks.append(("bred-forbidden-classes", ok, "50 seeds, n=2 l=3 p=0.5"))

    ok = True
    for i in range(20):
        pres = sample_gamma_lax(2, LaxParams(5, 0.3, 1), Seed(seed.value, 3200 + i))
        ok = ok and all(4 <= len(r) <= 6 for r in pres.relators)
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
    if suite not in _SUITES:
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return EXIT_INPUT
    seed = Seed(_num(args, cfg, "seed", int, 0))
    checks = _SUITES[suite](seed)
    failed = False
    for name, passed, note in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({note})")
        failed = failed or not passed
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
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
    ps.add_argument("--model",
                    choices=["gnp", "bgnp", "red", "bred", "strict", "p", "lax"])
    for flag, typ in [("--n", int), ("--k", int), ("--l", int), ("--m", int),
                      ("--m1", int), ("--m2", int), ("--f", int),
                      ("--p", float), ("--d", float)]:
        ps.add_argument(flag, type=typ)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--stream", type=int)
    ps.add_argument("--out")

    pw = sub.add_parser("sweep", help="seeded density sweep to CSV")
    pw.add_argument("--model", choices=["strict", "p", "lax"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (InputError, OSError, json.JSONDecodeError, SpectralTError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
