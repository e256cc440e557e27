"""Property (T) certificates.

The direct criterion lambda_1(Delta_k) > 1/2 is authoritative; the
decomposition pipeline (Sigma split, collapse, regular-factor extraction,
union bound) replicates the proof mechanics and is reported as a diagnostic
bound, never overriding the direct value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .delta import (
    DoubleEdgeAudit,
    Presentation,
    build_delta_k,
    delta_k_order,
    double_edge_audit,
    sigma_decomposition,
)
from .errors import HypothesisViolation, InputError
from .multigraph import MultiGraph, union
from .regularity import extract_regular_subgraph, layer_factor_union, red_class_layers
from .spectra import CERT_MARGIN, Lambda1Solve, _check_cap, lambda1

THRESHOLD = 0.5
SQRT2 = math.sqrt(2.0)

MAX_TARGET_ATTEMPTS = 10


def union_bound(c1: float, c2: float, c3: float) -> float:
    """1 - (sqrt(2) c1 + c2 + c3) / (2 sqrt(2)).

    c1 belongs to the shared-vertex-set graph, c2 and c3 to the bipartite
    ones; all deficits in [0, 1).
    """
    for c in (c1, c2, c3):
        if not 0.0 <= c < 1.0:
            raise InputError(f"eigenvalue deficit {c} outside [0, 1)")
    return 1.0 - (SQRT2 * c1 + c2 + c3) / (2.0 * SQRT2)


@dataclass(frozen=True)
class UnionCheck:
    """Both sides of the union-of-three-graphs bound: rhs from the c_i, and
    lhs = lambda_1 of the union, given as a function computing it on first
    read (a dense solve of the whole vertex set, which only a printed
    diagnostics line or a caller of `lhs` needs)."""

    rhs: float
    _lhs: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def lhs(self) -> float:
        return self._lhs()

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs - 1e-6


def _regular_degree(g: MultiGraph) -> Optional[int]:
    prof = g.degree_profile()
    return prof.min if prof.min == prof.max else None


def union_bound_empirical_check(
    g1: MultiGraph, g2: MultiGraph, g3: MultiGraph, d1: int, d2: int
) -> UnionCheck:
    """Both sides of the union-of-three-graphs bound with real spectra.

    Raises HypothesisViolation naming the failed clause.  The clauses and the
    three c_i are checked here; the union graph and its lambda_1 (`lhs`) are
    computed on first read of `lhs` or `holds`.  On valid input holds must be
    true (a falsification is a solver or construction bug).
    """
    for i, g in ((2, g2), (3, g3)):
        if g.side is None:
            raise HypothesisViolation(f"clause i): G{i} is not bipartite")
    v1a, v1b = ({x for x, first in zip(g.vertices, g.side) if first} for g in (g2, g3))
    v2a, v2b = set(g2.vertices) - v1a, set(g3.vertices) - v1b
    if set(g1.vertices) != v1a or v1a != v1b or v2a != v2b:
        raise HypothesisViolation("clause i): vertex sets do not align")
    if _regular_degree(g1) != 2 * d1:
        raise HypothesisViolation(f"clause ii): G1 is not {2 * d1}-regular")
    for i, g in ((2, g2), (3, g3)):
        if (g.degree_array() != np.where(g.side, d1, d2)).any():
            raise HypothesisViolation(f"clause ii): G{i} is not ({d1},{d2})-regular")
    cs = []
    for i, g in ((1, g1), (2, g2), (3, g3)):
        c = max(0.0, 1.0 - lambda1(g))
        if c >= 1.0:
            raise HypothesisViolation(f"clause iii): c_{i} >= 1 (lambda1(G{i}) <= 0)")
        cs.append(c)

    def lhs() -> float:
        # cannot raise: by clause i g1_full's labels are distinct and the
        # union's vertices are G2's, which clause iii found connected (so
        # within the eigensolve cap); g1_full has no bipartition to conflict
        g1_full = MultiGraph(list(g1.vertices) + sorted(v2a), *g1.edge_arrays)
        return lambda1(union(g1_full, g2, g3))

    return UnionCheck(union_bound(cs[0], cs[1], cs[2]), lhs)


@dataclass(frozen=True)
class Certificate:
    method: str
    k: int
    lambda1: float
    pipeline_bound: Optional[float]
    certified: bool
    vertices: int
    edges: int
    audit: DoubleEdgeAudit
    seed_info: Optional[str] = None
    # diagnostic lines; a Lambda1Solve stands for its solver line and a
    # UnionCheck for its one or two lines, rendered (and the residual or the
    # union lambda_1 computed) only when `diagnostics` is read
    notes: tuple[str | Lambda1Solve | UnionCheck, ...] = field(default=())

    @property
    def diagnostics(self) -> tuple[str, ...]:
        return tuple(line for note in self.notes for line in _note_lines(note))

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "k": self.k,
                "lambda1": self.lambda1,
                "pipeline_bound": self.pipeline_bound,
                "threshold": THRESHOLD,
                "certified": self.certified,
                "vertices": self.vertices,
                "edges": self.edges,
                "audit": {
                    "max_multiplicity": self.audit.max_multiplicity,
                    "doubles_form_matching": self.audit.doubles_form_matching,
                },
                "seed_info": self.seed_info,
            },
            indent=2,
        )


def _certified(value: float) -> bool:
    return value > THRESHOLD + CERT_MARGIN


def _solve_line(solve: Lambda1Solve) -> str:
    return (
        f"lambda1 solver={solve.solver} residual={solve.residual:.3e} "
        f"matvecs={solve.matvecs} margin={solve.value - THRESHOLD:.12g}"
    )


def _note_lines(note: str | Lambda1Solve | UnionCheck) -> tuple[str, ...]:
    """The diagnostics lines one of `Certificate.notes` stands for."""
    if isinstance(note, str):
        return (note,)
    if isinstance(note, Lambda1Solve):
        return (_solve_line(note),)
    line = f"pipeline union lambda1={note.lhs:.6f} bound={note.rhs:.6f}"
    if note.holds:
        return (line,)
    return (line, "pipeline: union lambda1 is below the bound: a solver or construction bug")


def _certificate(
    method: str, k: int, delta: MultiGraph, solve: Lambda1Solve, audit: DoubleEdgeAudit,
    bound: Optional[float], seed_info: Optional[str], lines: Iterable[str | UnionCheck],
) -> Certificate:
    """The certificate of a solved Delta_k: its size and solver lines, then
    the route's own `lines`; the verdict reads the direct lambda_1 only."""
    v, e = delta.num_vertices(), delta.num_edges()
    return Certificate(
        method=method,
        k=k,
        lambda1=solve.value,
        pipeline_bound=bound,
        certified=_certified(solve.value),
        vertices=v,
        edges=e,
        audit=audit,
        seed_info=seed_info,
        notes=(f"delta_k vertices={v} edges={e}", solve, *lines),
    )


def zuk_certificate(
    p: Presentation, k: int, seed_info: Optional[str] = None
) -> Certificate:
    """Direct spectral certificate from lambda_1(Delta_k).

    A true verdict certifies Property (T); a false verdict certifies nothing.
    """
    _check_cap(delta_k_order(p.n, k))  # before Delta_k is built
    delta = build_delta_k(p, k)
    solve = lambda1(delta, report=True)
    used = int(np.count_nonzero(p.lengths == k))
    prof = delta.degree_profile()
    lines = [
        f"relators used={used} ignored={p.num_relators - used}",
        f"degree min={prof.min} max={prof.max}",
    ]
    return _certificate(
        "direct-delta-k", k, delta, solve, double_edge_audit(delta), None, seed_info, lines
    )


def _side_min(deg: np.ndarray, side: np.ndarray) -> int:
    """The least of deg[side], or 0 if no vertex is on that side."""
    on = deg[side]
    return int(on.min()) if len(on) else 0


def _layer_target_cap(layers: dict[int, MultiGraph], n: int) -> int:
    """Largest per-layer V2-side target consistent with the degree profile."""
    cap = None
    for _, layer in sorted(layers.items()):
        deg = layer.degree_array()
        t = min(_side_min(deg, layer.side) // (2 * n - 1), _side_min(deg, ~layer.side))
        cap = t if cap is None else min(cap, t)
    return cap or 0


def _targets(cap: int, delta_shave: float) -> range:
    """The targets a pipeline route tries, largest first: from
    t0 = max(floor((1 - delta) cap), 1) down, at most MAX_TARGET_ATTEMPTS."""
    t0 = max(int((1 - delta_shave) * cap), 1)
    return range(t0, max(t0 - MAX_TARGET_ATTEMPTS, 0), -1)


def _pipeline_case0(
    sigmas: list[MultiGraph], n: int, delta_shave: float
) -> tuple[Optional[float], list[str]]:
    """Same-vertex-set route: three 2a-regular unions, bound 1 - max c_i."""
    layers = [red_class_layers(g, n) for g in sigmas]
    caps = [_layer_target_cap(ls, n) for ls in layers]
    cap = min(caps)
    if cap < 1:
        return None, [
            "pipeline: no target t >= 1 fits the degree caps "
            f"(Sigma_1, Sigma_2, Sigma_3 layers allow t <= {caps[0]}, {caps[1]}, {caps[2]})"
        ]
    for t in _targets(cap, delta_shave):
        pis = []
        for g, ls in zip(sigmas, layers):
            pi = layer_factor_union(g, ls, (2 * n - 1) * t, t)
            if pi is None:
                break
            pis.append(pi)
        if len(pis) != 3:
            continue
        cs = [max(0.0, 1.0 - lambda1(pi)) for pi in pis]
        found = f"pipeline: factors at t={t}, regular degree {2 * (2 * n - 1) * t}"
        if max(cs) >= 1.0:
            return None, [found, "pipeline: a factor is disconnected (c_i >= 1); bound invalid"]
        return 1.0 - max(cs), [found, f"pipeline c=({cs[0]:.4f},{cs[1]:.4f},{cs[2]:.4f})"]
    return None, ["pipeline: no regular factors found in the attempted target range"]


def _pipeline_bipartite(
    dec_sigma1: MultiGraph,
    dec_sigma2: MultiGraph,
    dec_sigma3: MultiGraph,
    n: int,
    case: int,
    delta_shave: float,
) -> tuple[Optional[float], list[str | UnionCheck]]:
    """k not divisible by 3: bipartite factors from Sigma_1/Sigma_3, a matching
    2d1-regular union from Sigma_2, then the union-of-three-graphs bound."""
    diags: list[str | UnionCheck] = []
    q = 2 * n - 1
    # both Sigma graphs list W_{l_k} then W_{L_k}, the first side first
    low = np.minimum(dec_sigma1.degree_array(), dec_sigma3.degree_array())
    side = dec_sigma1.side
    layers2 = red_class_layers(dec_sigma2, n)
    sigma2_cap = _layer_target_cap(layers2, n) * q
    # d1 = q t and d2 = t (case 1) or q^2 t (case 2); Sigma_2 layer targets (q t, t)
    d2_unit = 1 if case == 1 else q * q
    v1_cap, v2_cap = _side_min(low, side) // q, _side_min(low, ~side) // d2_unit
    t_cap = min(v1_cap, sigma2_cap // q, v2_cap)
    if t_cap < 1:
        diags.append(
            "pipeline: no target t >= 1 fits the degree caps "
            f"(V1 allows t <= {v1_cap}, Sigma_2 layers t <= {sigma2_cap // q}, V2 t <= {v2_cap})"
        )
        return None, diags
    for t in _targets(t_cap, delta_shave):
        d1, d2 = q * t, d2_unit * t
        pi1 = extract_regular_subgraph(dec_sigma1, d1, d2)
        if pi1 is None:
            continue
        pi3 = extract_regular_subgraph(dec_sigma3, d1, d2)
        if pi3 is None:
            continue
        pi2 = layer_factor_union(dec_sigma2, layers2, q * t, t)
        if pi2 is None:
            continue
        try:
            check = union_bound_empirical_check(pi2, pi1, pi3, d1, d2)
        except HypothesisViolation as exc:
            diags.append(f"pipeline: hypothesis violation at t={t}: {exc}")
            continue
        diags.append(f"pipeline: factors at t={t}, (d1,d2)=({d1},{d2})")
        diags.append(check)
        return check.rhs, diags
    diags.append("pipeline: no regular factors found in the attempted target range")
    return None, diags


def check_pipeline_params(delta_shave: float, m_bound: int) -> None:
    """Refuse delta_shave outside [0, 1), NaN too, then m_bound below 0."""
    if not 0.0 <= delta_shave < 1.0:
        raise InputError("need 0 <= delta < 1")
    if m_bound < 0:
        raise InputError("--m-bound must be >= 0")


def certify_via_decomposition(
    p: Presentation,
    k: int,
    delta_shave: float = 0.2,
    seed_info: Optional[str] = None,
    m_bound: int = 3,
) -> Certificate:
    """Full pipeline certificate; certification always uses the direct value."""
    check_pipeline_params(delta_shave, m_bound)
    _check_cap(delta_k_order(p.n, k))  # before Delta_k is built
    dec = sigma_decomposition(p, k)
    delta = dec.delta()
    solve = lambda1(delta, report=True)
    audits = [double_edge_audit(s, m_bound) for s in (dec.sigma1, dec.sigma2, dec.sigma3)]
    overall_audit = DoubleEdgeAudit(
        max_multiplicity=max(a.max_multiplicity for a in audits),
        double_edge_count=sum(a.double_edge_count for a in audits),
        doubles_form_matching=all(a.doubles_form_matching for a in audits),
        max_doubles_per_vertex=max(a.max_doubles_per_vertex for a in audits),
        within_m_bound=all(a.within_m_bound for a in audits),
    )
    lines = [
        f"relators ignored={dec.ignored_relators}",
        f"sigma audits: max_mult={overall_audit.max_multiplicity} "
        f"doubles_matching={overall_audit.doubles_form_matching} "
        f"max_doubles_per_vertex={overall_audit.max_doubles_per_vertex} "
        f"(M={m_bound}: {'ok' if overall_audit.within_m_bound else 'exceeded'})",
    ]
    if dec.case == 0:
        # layer splitting reads multiplicities, so pass the raw sigma graphs
        bound, extra = _pipeline_case0([dec.sigma1, dec.sigma2, dec.sigma3], p.n, delta_shave)
    else:
        bound, extra = _pipeline_bipartite(
            dec.sigma1.collapse_multi_edges(),
            dec.sigma2,
            dec.sigma3.collapse_multi_edges(),
            p.n,
            dec.case,
            delta_shave,
        )
    return _certificate(
        "union-bound-pipeline", k, delta, solve, overall_audit, bound, seed_info, lines + extra
    )
