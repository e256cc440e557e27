"""Almost-regularity checks, Ore-Ryser feasibility, and exact extraction of
(d1, d2)-regular spanning subgraphs of bipartite graphs via max flow."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import words as W
from .errors import InputError
from .multigraph import EdgeKey, MultiGraph, edge_key, union

BRUTE_FORCE_VERTEX_CUTOFF = 16


@dataclass(frozen=True)
class RegularityParams:
    delta: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise InputError("need 0 <= delta < 1")


def is_almost_regular(g: MultiGraph, d: float, epsilon: float) -> bool:
    """True iff every degree lies in [(1-eps)d, (1+eps)d]."""
    if d <= 0:
        raise InputError("need d > 0")
    deg = g.degrees().values()
    return all((1 - epsilon) * d <= x <= (1 + epsilon) * d for x in deg)


def is_almost_biregular(g: MultiGraph, d1: float, d2: float, epsilon: float) -> bool:
    """Per-side variant for partitioned graphs."""
    if g.partition is None:
        raise InputError("graph carries no bipartition")
    deg = g.degrees()
    p1, p2 = g.partition
    return all(
        (1 - epsilon) * d <= deg[v] <= (1 + epsilon) * d
        for side, d in ((p1, d1), (p2, d2))
        for v in side
    )


class _Dinic:
    """Max flow with unit-capacity-friendly shortest augmenting paths."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def _require_bipartite_simple(g: MultiGraph) -> tuple[list[str], list[str]]:
    if g.partition is None:
        raise InputError("graph carries no bipartition")
    if any(m > 1 for m in g.edges.values()):
        raise InputError("graph is not simple; collapse multi-edges first")
    p1, p2 = g.partition
    order = {v: i for i, v in enumerate(g.vertices)}
    return sorted(p1, key=order.get), sorted(p2, key=order.get)


def extract_regular_subgraph(
    g: MultiGraph, d1: int, d2: int
) -> Optional[MultiGraph]:
    """A spanning subgraph with V1-degrees d1 and V2-degrees d2, or None.

    Degree-constrained flow network: source -> V1 at capacity d1, one unit per
    edge, V2 -> sink at capacity d2; a saturating flow is exactly a factor.
    The first saturating flow under the deterministic edge order is returned.
    """
    left, right = _require_bipartite_simple(g)
    if d1 < 0 or d2 < 0:
        raise InputError("need d1, d2 >= 0")
    if d1 * len(left) != d2 * len(right):
        raise InputError(
            f"balance violation: {d1}*{len(left)} != {d2}*{len(right)}"
        )
    if d1 == 0:
        return MultiGraph(g.vertices, {}, partition=g.partition)

    li = {v: i for i, v in enumerate(left)}
    ri = {v: i for i, v in enumerate(right)}
    s, t = 0, 1
    dinic = _Dinic(2 + len(left) + len(right))
    for v in left:
        dinic.add_edge(s, 2 + li[v], d1)
    for v in right:
        dinic.add_edge(2 + len(left) + ri[v], t, d2)
    edge_ids: list[tuple[int, EdgeKey]] = []
    for key in sorted(g.edges):
        u, v = key
        if u in li:
            a, b = li[u], ri[v]
        else:
            a, b = li[v], ri[u]
        edge_ids.append((dinic.add_edge(2 + a, 2 + len(left) + b, 1), key))
    if dinic.max_flow(s, t) != d1 * len(left):
        return None
    chosen = {key: 1 for idx, key in edge_ids if dinic.cap[idx] == 0}
    return MultiGraph(g.vertices, chosen, partition=g.partition)


def ore_ryser_feasible(g: MultiGraph, d1: int, d2: int) -> bool:
    """Exact feasibility of a (d1, d2)-regular spanning subgraph.

    Brute-force subset check up to 16 vertices; flow feasibility (provably
    equivalent) beyond that.
    """
    left, right = _require_bipartite_simple(g)
    if d1 < 0 or d2 < 0:
        raise InputError("need d1, d2 >= 0")
    if d1 * len(left) != d2 * len(right):
        return False
    if len(left) + len(right) > BRUTE_FORCE_VERTEX_CUTOFF:
        return extract_regular_subgraph(g, d1, d2) is not None

    def e_between(a: tuple[str, ...], b: tuple[str, ...]) -> int:
        return sum(1 for u in a for v in b if g.multiplicity(u, v) > 0)

    for ra in range(len(left) + 1):
        for a in combinations(left, ra):
            for rb in range(len(right) + 1):
                for b in combinations(right, rb):
                    if d1 * len(a) > e_between(a, b) + d2 * (len(right) - len(b)):
                        return False
    return True


def red_class_layers(g: MultiGraph, n: int) -> dict[int, MultiGraph]:
    """Split a reduced-model graph into 2n class-bipartite layers.

    Layer i is bipartite between S_i (words with class index i) and its
    complement.  A multiplicity-2 (or higher) edge contributes one simple copy
    to each endpoint's layer; a single edge, whose direction label is
    forgotten by the undirected type, is assigned to one endpoint's layer by a
    deterministic parity rule that keeps the layers balanced.
    """
    classes = {v: W.class_index(W.word_from_label(v), n) for v in g.vertices}
    index = {v: i for i, v in enumerate(g.vertices)}
    layer_edges: dict[int, dict[EdgeKey, int]] = {i: {} for i in range(1, 2 * n + 1)}
    for (u, v), m in g.edges.items():
        cu, cv = classes[u], classes[v]
        if cu == cv:
            raise InputError(f"same-class edge {(u, v)}: not a reduced-model graph")
        key = edge_key(u, v)
        if m >= 2:
            layer_edges[cu][key] = 1
            layer_edges[cv][key] = 1
        elif (index[u] + index[v]) % 2 == 0:
            layer_edges[cu][key] = 1
        else:
            layer_edges[cv][key] = 1
    layers = {}
    for i in range(1, 2 * n + 1):
        side = [v for v in g.vertices if classes[v] == i]
        rest = [v for v in g.vertices if classes[v] != i]
        layers[i] = MultiGraph(
            side + rest, layer_edges[i], partition=(side, rest)
        )
    return layers


def extract_red_regular_union(
    g: MultiGraph, n: int, l: int, target_d1: int, target_d2: int
) -> Optional[MultiGraph]:
    """Union of per-layer (target_d1, target_d2)-regular factors.

    With balanced targets (target_d1 = (2n-1) * target_d2) every vertex of a
    successful union has degree 2 * target_d1; returns None if any layer has
    no factor.
    """
    if target_d1 != (2 * n - 1) * target_d2:
        raise InputError("layer balance requires target_d1 = (2n-1) * target_d2")
    if g.num_vertices() != W.word_count(n, l):
        raise InputError(
            f"vertex count {g.num_vertices()} does not match |W_{l}| for n={n}"
        )
    factors = []
    for i, layer in sorted(red_class_layers(g, n).items()):
        factor = extract_regular_subgraph(layer, target_d1, target_d2)
        if factor is None:
            return None
        factors.append(factor)
    return union(MultiGraph(g.vertices), *factors)
