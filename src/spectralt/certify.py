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
from typing import Optional

from .delta import (
    DoubleEdgeAudit,
    Presentation,
    build_delta_k,
    double_edge_audit,
    sigma_decomposition,
)
from .errors import HypothesisViolation, InputError
from .multigraph import MultiGraph, union
from .regularity import (
    RegularityParams,
    extract_red_regular_union,
    extract_regular_subgraph,
)
from .spectra import CERT_MARGIN, lambda1

THRESHOLD = 0.5
SQRT2 = math.sqrt(2.0)

MAX_TARGET_ATTEMPTS = 10


@dataclass(frozen=True)
class UnionBoundInput:
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for c in (self.c1, self.c2, self.c3):
            if not 0.0 <= c < 1.0:
                raise InputError(f"eigenvalue deficit {c} outside [0, 1)")


def union_bound(c1: float, c2: float, c3: float) -> float:
    """1 - (sqrt(2) c1 + c2 + c3) / (2 sqrt(2)).

    c1 belongs to the shared-vertex-set graph, c2 and c3 to the bipartite
    ones; all deficits in [0, 1).
    """
    UnionBoundInput(c1, c2, c3)
    return 1.0 - (SQRT2 * c1 + c2 + c3) / (2.0 * SQRT2)


@dataclass(frozen=True)
class UnionCheck:
    lhs: float
    rhs: float
    holds: bool


def _regular_degree(g: MultiGraph) -> Optional[int]:
    prof = g.degree_profile()
    return prof.min if prof.min == prof.max else None


def union_bound_empirical_check(
    g1: MultiGraph, g2: MultiGraph, g3: MultiGraph, d1: int, d2: int
) -> UnionCheck:
    """Compute both sides of the union-of-three-graphs bound with real spectra.

    Raises HypothesisViolation naming the failed clause; on valid input,
    holds must be true (a falsification is a solver or construction bug).
    """
    for i, g in ((2, g2), (3, g3)):
        if g.partition is None:
            raise HypothesisViolation(f"clause i): G{i} is not bipartite")
    v1a, v2a = g2.partition
    v1b, v2b = g3.partition
    if set(g1.vertices) != set(v1a) or v1a != v1b or v2a != v2b:
        raise HypothesisViolation("clause i): vertex sets do not align")
    if _regular_degree(g1) != 2 * d1:
        raise HypothesisViolation(f"clause ii): G1 is not {2 * d1}-regular")
    deg2, deg3 = g2.degrees(), g3.degrees()
    for i, (g, deg) in ((2, (g2, deg2)), (3, (g3, deg3))):
        p1, p2 = g.partition
        if any(deg[v] != d1 for v in p1) or any(deg[v] != d2 for v in p2):
            raise HypothesisViolation(f"clause ii): G{i} is not ({d1},{d2})-regular")
    cs = []
    for i, g in ((1, g1), (2, g2), (3, g3)):
        c = max(0.0, 1.0 - lambda1(g))
        if c >= 1.0:
            raise HypothesisViolation(f"clause iii): c_{i} >= 1 (lambda1(G{i}) <= 0)")
        cs.append(c)
    g1_full = MultiGraph(list(g1.vertices) + sorted(v2a), g1.edges)
    combined = union(g1_full, g2, g3)
    lhs = lambda1(combined)
    rhs = union_bound(cs[0], cs[1], cs[2])
    return UnionCheck(lhs, rhs, lhs >= rhs - 1e-6)


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
    threshold: float = THRESHOLD
    seed_info: Optional[str] = None
    diagnostics: tuple[str, ...] = field(default=())

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "k": self.k,
                "lambda1": self.lambda1,
                "pipeline_bound": self.pipeline_bound,
                "threshold": self.threshold,
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


def zuk_certificate(
    p: Presentation, k: int, seed_info: Optional[str] = None
) -> Certificate:
    """Direct spectral certificate from lambda_1(Delta_k).

    A true verdict certifies Property (T); a false verdict certifies nothing.
    """
    delta = build_delta_k(p, k)
    lam = lambda1(delta)
    audit = double_edge_audit(delta)
    used = len(p.relators_of_length(k))
    prof = delta.degree_profile()
    diags = [
        f"delta_k vertices={delta.num_vertices()} edges={delta.num_edges()}",
        f"relators used={used} ignored={len(p.relators) - used}",
        f"degree min={prof.min} max={prof.max}",
    ]
    return Certificate(
        method="direct-delta-k",
        k=k,
        lambda1=lam,
        pipeline_bound=None,
        certified=_certified(lam),
        vertices=delta.num_vertices(),
        edges=delta.num_edges(),
        audit=audit,
        seed_info=seed_info,
        diagnostics=tuple(diags),
    )


def _layer_target_cap(g: MultiGraph, n: int) -> int:
    """Largest per-layer V2-side target consistent with the degree profile."""
    from .regularity import red_class_layers

    cap = None
    for _, layer in sorted(red_class_layers(g, n).items()):
        deg = layer.degrees()
        p1, p2 = layer.partition
        d1_cap = min((deg[v] for v in p1), default=0)
        d2_cap = min((deg[v] for v in p2), default=0)
        t = min(d1_cap // (2 * n - 1), d2_cap)
        cap = t if cap is None else min(cap, t)
    return cap or 0


def _pipeline_case0(
    sigmas: list[MultiGraph], n: int, l: int, delta_shave: float
) -> tuple[Optional[float], list[str]]:
    """Same-vertex-set route: three 2a-regular unions, bound 1 - max c_i."""
    diags: list[str] = []
    cap = min(_layer_target_cap(g, n) for g in sigmas)
    t0 = max(int((1 - delta_shave) * cap), 1 if cap >= 1 else 0)
    for t in range(t0, max(t0 - MAX_TARGET_ATTEMPTS, 0), -1):
        pis = []
        for g in sigmas:
            pi = extract_red_regular_union(g, n, l, (2 * n - 1) * t, t)
            if pi is None:
                break
            pis.append(pi)
        if len(pis) != 3:
            continue
        cs = [max(0.0, 1.0 - lambda1(pi)) for pi in pis]
        diags.append(f"pipeline: factors at t={t}, regular degree {2 * (2 * n - 1) * t}")
        if max(cs) >= 1.0:
            diags.append("pipeline: a factor is disconnected (c_i >= 1); bound invalid")
            return None, diags
        diags.append(f"pipeline c=({cs[0]:.4f},{cs[1]:.4f},{cs[2]:.4f})")
        return 1.0 - max(cs), diags
    diags.append("pipeline: no regular factors found in the attempted target range")
    return None, diags


def _pipeline_bipartite(
    dec_sigma1: MultiGraph,
    dec_sigma2: MultiGraph,
    dec_sigma3: MultiGraph,
    n: int,
    case: int,
    l_k: int,
    delta_shave: float,
) -> tuple[Optional[float], list[str]]:
    """k not divisible by 3: bipartite factors from Sigma_1/Sigma_3, a matching
    2d1-regular union from Sigma_2, then the union-of-three-graphs bound."""
    diags: list[str] = []
    q = 2 * n - 1
    deg1, deg3 = dec_sigma1.degrees(), dec_sigma3.degrees()
    p1, p2 = dec_sigma1.partition
    cross_cap = min(
        min((deg1[v] for v in p1), default=0),
        min((deg3[v] for v in p1), default=0),
    )
    sigma2_cap = _layer_target_cap(dec_sigma2, n) * q
    if case == 1:
        # d1 = q t, d2 = t; Sigma_2 layer targets (q t, t)
        unit = lambda t: (q * t, t, t)
    else:
        # d1 = q t, d2 = q^2 t; Sigma_2 layer targets (q t, t)
        unit = lambda t: (q * t, q * q * t, t)
    d2_cap_s = min(
        min((deg1[v] for v in p2), default=0),
        min((deg3[v] for v in p2), default=0),
    )
    d2_unit = 1 if case == 1 else q * q
    t_cap = min(cross_cap // q, sigma2_cap // q, d2_cap_s // d2_unit)
    t0 = max(int((1 - delta_shave) * t_cap), 1 if t_cap >= 1 else 0)
    for t in range(t0, max(t0 - MAX_TARGET_ATTEMPTS, 0), -1):
        d1, d2, layer_t = unit(t)
        pi1 = extract_regular_subgraph(dec_sigma1, d1, d2)
        if pi1 is None:
            continue
        pi3 = extract_regular_subgraph(dec_sigma3, d1, d2)
        if pi3 is None:
            continue
        pi2 = extract_red_regular_union(dec_sigma2, n, l_k, q * layer_t, layer_t)
        if pi2 is None:
            continue
        try:
            check = union_bound_empirical_check(pi2, pi1, pi3, d1, d2)
        except HypothesisViolation as exc:
            diags.append(f"pipeline: hypothesis violation at t={t}: {exc}")
            continue
        diags.append(f"pipeline: factors at t={t}, (d1,d2)=({d1},{d2})")
        diags.append(
            f"pipeline union lambda1={check.lhs:.6f} bound={check.rhs:.6f}"
        )
        return check.rhs, diags
    diags.append("pipeline: no regular factors found in the attempted target range")
    return None, diags


def certify_via_decomposition(
    p: Presentation,
    k: int,
    params: RegularityParams = RegularityParams(),
    seed_info: Optional[str] = None,
    m_bound: int = 3,
) -> Certificate:
    """Full pipeline certificate; certification always uses the direct value."""
    dec = sigma_decomposition(p, k)
    delta = dec.delta()
    lam = lambda1(delta)
    audits = [double_edge_audit(s, m_bound) for s in (dec.sigma1, dec.sigma2, dec.sigma3)]
    overall_audit = DoubleEdgeAudit(
        max_multiplicity=max(a.max_multiplicity for a in audits),
        double_edge_count=sum(a.double_edge_count for a in audits),
        doubles_form_matching=all(a.doubles_form_matching for a in audits),
        max_doubles_per_vertex=max(a.max_doubles_per_vertex for a in audits),
        within_m_bound=all(a.within_m_bound for a in audits),
    )
    diags = [
        f"delta_k vertices={delta.num_vertices()} edges={delta.num_edges()}",
        f"relators ignored={dec.ignored_relators}",
        f"sigma audits: max_mult={overall_audit.max_multiplicity} "
        f"doubles_matching={overall_audit.doubles_form_matching} "
        f"max_doubles_per_vertex={overall_audit.max_doubles_per_vertex} "
        f"(M={m_bound}: {'ok' if overall_audit.within_m_bound else 'exceeded'})",
    ]
    if dec.case == 0:
        # layer splitting reads multiplicities, so pass the raw sigma graphs
        bound, extra = _pipeline_case0(
            [dec.sigma1, dec.sigma2, dec.sigma3], p.n, k // 3, params.delta
        )
    else:
        bound, extra = _pipeline_bipartite(
            dec.sigma1.collapse_multi_edges(),
            dec.sigma2,
            dec.sigma3.collapse_multi_edges(),
            p.n,
            dec.case,
            dec.l_k,
            params.delta,
        )
    diags.extend(extra)
    return Certificate(
        method="union-bound-pipeline",
        k=k,
        lambda1=lam,
        pipeline_bound=bound,
        certified=_certified(lam),
        vertices=delta.num_vertices(),
        edges=delta.num_edges(),
        audit=overall_audit,
        seed_info=seed_info,
        diagnostics=tuple(diags),
    )
