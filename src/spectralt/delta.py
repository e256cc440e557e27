"""Link graphs Delta_k of finite presentations and their Sigma decomposition.

Each length-k relator r = r_x r_y r_z contributes the edges
(r_x, r_z^{-1}), (r_y, r_x^{-1}), (r_z, r_y^{-1}); the three contributions
are routed to Sigma_1, Sigma_2, Sigma_3 respectively.  Vertex sets are the
full word sets W_l, isolated vertices included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import words as W
from .errors import InputError
from .multigraph import EdgeKey, MultiGraph, edge_key, union
from .words import Word


@dataclass(frozen=True)
class Presentation:
    n: int
    relators: tuple[Word, ...]
    k: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError("generator count must be >= 1")
        for r in self.relators:
            if not W.is_cyclically_reduced(r):
                raise InputError(f"relator {W.word_to_text(r)!r} not cyclically reduced")
            for x in r:
                if abs(x) > self.n:
                    raise InputError(f"relator letter outside alphabet of size {self.n}")
            if self.k is not None and len(r) != self.k:
                raise InputError(
                    f"relator {W.word_to_text(r)!r} has length {len(r)} != k = {self.k}"
                )

    def relators_of_length(self, k: int) -> tuple[Word, ...]:
        return tuple(r for r in self.relators if len(r) == k)

    def dump(self) -> str:
        lines = [f"n {self.n}"]
        if self.k is not None:
            lines.append(f"k {self.k}")
        lines.extend(W.word_to_text(r) for r in self.relators)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Presentation":
        n: Optional[int] = None
        k: Optional[int] = None
        relators: list[Word] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "n" and len(parts) == 2 and n is None:
                n = _header_int(parts)
            elif parts[0] == "k" and len(parts) == 2 and k is None and not relators:
                k = _header_int(parts)
            else:
                relators.append(W.word_from_text(line))
        if n is None:
            raise InputError("presentation file missing 'n <int>' header")
        return cls(n, tuple(relators), k)


def _header_int(parts: list[str]) -> int:
    try:
        return int(parts[1])
    except ValueError:
        raise InputError(f"'{parts[0]}' header needs an integer, got {parts[1]!r}")


@dataclass(frozen=True)
class SigmaDecomposition:
    sigma1: MultiGraph
    sigma2: MultiGraph
    sigma3: MultiGraph
    case: int
    l_k: int
    L_k: int
    ignored_relators: int = 0

    def delta(self) -> MultiGraph:
        return union(self.sigma1, self.sigma2, self.sigma3)


def sigma_vertex_lengths(k: int) -> tuple[int, int]:
    """(l_k, L_k): the two word lengths carried by Delta_k's vertex set."""
    a, _, c = W.split_lengths(k)
    return a, c


def _labels(n: int, l: int) -> list[str]:
    return [W.word_to_label(w) for w in W.enumerate_reduced(n, l)]


def _relator_edges(r: Word, k: int) -> tuple[EdgeKey, EdgeKey, EdgeKey]:
    rx, ry, rz = W.split_relator(r, k)
    lab = W.word_to_label
    inv = W.invert
    return (
        edge_key(lab(rx), lab(inv(rz))),
        edge_key(lab(ry), lab(inv(rx))),
        edge_key(lab(rz), lab(inv(ry))),
    )


def build_delta_k(p: Presentation, k: int) -> MultiGraph:
    """Delta_k on the full word sets; relators of other lengths are ignored."""
    if k < 3:
        raise InputError("need k >= 3")
    l_k, L_k = sigma_vertex_lengths(k)
    vertices = _labels(p.n, l_k)
    if L_k != l_k:
        vertices = vertices + _labels(p.n, L_k)
    edges: dict[EdgeKey, int] = {}
    for r in p.relators_of_length(k):
        for key in _relator_edges(r, k):
            edges[key] = edges.get(key, 0) + 1
    return MultiGraph(vertices, edges)


def build_delta3(p: Presentation) -> MultiGraph:
    """Delta_3 on A_n and inverses; errors if any relator length differs from 3."""
    for r in p.relators:
        if len(r) != 3:
            raise InputError(f"relator {W.word_to_text(r)!r} has length != 3")
    return build_delta_k(p, 3)


def sigma_decomposition(p: Presentation, k: int) -> SigmaDecomposition:
    """Split Delta_k into Sigma_1, Sigma_2, Sigma_3.

    For k not divisible by 3, Sigma_1 and Sigma_3 live on W_{l_k} and W_{L_k}
    with a bipartition tag; Sigma_2 lives on W_{l_k} alone (the side holding
    r_x and r_y).
    """
    if k < 3:
        raise InputError("need k >= 3")
    case = k % 3
    xy_len, _, z_len = W.split_lengths(k)
    xy_labels = _labels(p.n, xy_len)
    z_labels = _labels(p.n, z_len) if z_len != xy_len else []

    e1: dict[EdgeKey, int] = {}
    e2: dict[EdgeKey, int] = {}
    e3: dict[EdgeKey, int] = {}
    relators = p.relators_of_length(k)
    for r in relators:
        k1, k2, k3 = _relator_edges(r, k)
        e1[k1] = e1.get(k1, 0) + 1
        e2[k2] = e2.get(k2, 0) + 1
        e3[k3] = e3.get(k3, 0) + 1

    if case == 0:
        sigma1 = MultiGraph(xy_labels, e1)
        sigma2 = MultiGraph(xy_labels, e2)
        sigma3 = MultiGraph(xy_labels, e3)
    else:
        both = xy_labels + z_labels
        part = (xy_labels, z_labels)
        sigma1 = MultiGraph(both, e1, partition=part)
        sigma2 = MultiGraph(xy_labels, e2)
        sigma3 = MultiGraph(both, e3, partition=part)
    return SigmaDecomposition(
        sigma1, sigma2, sigma3, case, xy_len, z_len,
        ignored_relators=len(p.relators) - len(relators),
    )


@dataclass(frozen=True)
class DoubleEdgeAudit:
    max_multiplicity: int
    double_edge_count: int
    doubles_form_matching: bool
    max_doubles_per_vertex: int
    within_m_bound: bool = True


def double_edge_audit(g: MultiGraph, m_bound: int = 3) -> DoubleEdgeAudit:
    """Exact scan of the edge multiset for multiplicity->=2 structure."""
    edges = g.edges
    max_mult = max(edges.values(), default=0)
    doubles = [key for key, m in edges.items() if m >= 2]
    per_vertex: dict[str, int] = {}
    for u, v in doubles:
        per_vertex[u] = per_vertex.get(u, 0) + 1
        if v != u:
            per_vertex[v] = per_vertex.get(v, 0) + 1
    max_per_vertex = max(per_vertex.values(), default=0)
    return DoubleEdgeAudit(
        max_multiplicity=max_mult,
        double_edge_count=len(doubles),
        doubles_form_matching=max_per_vertex <= 1,
        max_doubles_per_vertex=max_per_vertex,
        within_m_bound=max_per_vertex <= m_bound,
    )


# re-export for callers building presentations by hand
__all__ = [
    "Presentation",
    "SigmaDecomposition",
    "DoubleEdgeAudit",
    "build_delta3",
    "build_delta_k",
    "sigma_decomposition",
    "double_edge_audit",
    "sigma_vertex_lengths",
]
