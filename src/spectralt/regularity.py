"""Ore-Ryser feasibility and exact extraction of (d1, d2)-regular spanning
subgraphs of bipartite graphs via max flow."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from . import words as W
from .errors import InputError
from .multigraph import MultiGraph, edge_key

BRUTE_FORCE_VERTEX_CUTOFF = 16


def _max_flow(
    size: int,
    tail: np.ndarray,
    head: np.ndarray,
    cap: np.ndarray,
    flow: np.ndarray,
    s: int,
    t: int,
    need: int,
) -> tuple[int, np.ndarray]:
    """Dinic's max flow from s to t over arcs tail[j] -> head[j] of capacity
    cap[j] on nodes 0..size-1, starting from the feasible flow `flow`, until
    `need` more units are sent or no augmenting path is left; returns the
    flow added and the residual capacities, arc j's at 2j and its reverse
    arc's at 2j + 1.  Where the arcs out of s carry `need` units of capacity
    left, the flow stopped at is a maximum one, without the search that
    would show no path is left.

    Each phase labels BFS levels with numpy frontier passes, stopping at
    t's level (a node at or beyond it cannot lead up to t), and keeps the
    admissible arcs: residual capacity left and head one level above tail.
    Each node scans its admissible arcs in id order from a pointer kept
    through the phase, skipping those saturated since.  A blocking flow is
    found by depth-first descent along them, a dead end advancing its
    parent's pointer.  After an augmentation the descent resumes at the tail
    of the first arc it saturated: a descent from s would retrace the path up
    to there, since every pointer before it still names an arc with capacity
    left.  The descent is a loop, so no path length meets the recursion
    limit.  The phase's flow goes back into the residual arrays at its end.
    """
    arc_tail = np.stack([tail, head], axis=1).ravel()
    # CSR slots: a node's arcs, stably sorted by tail, stay in id order; on
    # 16-bit keys the stable sort is a radix sort, ~10x faster than on int64
    keys = arc_tail.astype(np.uint16) if size <= 1 << 16 else arc_tail
    arc_at = np.argsort(keys, kind="stable")
    slot = np.empty_like(arc_at)
    slot[arc_at] = np.arange(len(arc_at))
    tails = arc_tail[arc_at]
    to = np.stack([head, tail], axis=1).ravel()[arc_at]
    res = np.stack([cap - flow, flow], axis=1).ravel()[arc_at]
    rev = slot[arc_at ^ 1]
    start = np.concatenate([[0], np.cumsum(np.bincount(arc_tail, minlength=size))])
    added = 0
    while added < need:
        level = _levels(start, to, res, s, t)
        if level[t] < 0:
            break
        # the phase's admissible arcs, in slot order: none is added within a
        # phase, since a reverse arc points a level down, and one into a node
        # at t's level other than t only leads to a dead end
        down = level[tails] + 1
        adm = np.flatnonzero(
            (res > 0) & (down > 0) & (level[to] == down) & ((down < level[t]) | (to == t))
        )
        before = res[adm]
        heads, room = to[adm].tolist(), before.tolist()
        first = np.searchsorted(adm, start).tolist()
        it = first[:-1]
        path, arcs = [s], []
        while path and added < need:
            x = path[-1]
            if x == t:
                got = min(map(room.__getitem__, arcs))
                for i in arcs:
                    room[i] -= got
                added += got
                cut = 0
                while room[arcs[cut]]:
                    cut += 1
                del path[cut + 1 :], arcs[cut:]
                continue
            i, end = it[x], first[x + 1]
            while i < end and not room[i]:
                i += 1
            it[x] = i
            if i < end:
                arcs.append(i)
                path.append(heads[i])
            else:
                path.pop()
                if arcs:
                    arcs.pop()
                    it[path[-1]] += 1
        after = np.array(room, dtype=np.int64)
        res[adm] = after
        res[rev[adm]] += before - after
    return added, res[slot]


def _levels(
    start: np.ndarray, to: np.ndarray, res: np.ndarray, s: int, t: int
) -> np.ndarray:
    """BFS levels from s over the arcs with residual capacity, node x's arcs
    at slots start[x]..start[x + 1], up to the level that reaches t; -1 for
    the nodes not labelled."""
    level = np.full(len(start) - 1, -1, dtype=np.int64)
    level[s] = 0
    front, depth = np.array([s]), 0
    while len(front) and level[t] < 0:
        depth += 1
        lo, count = start[front], start[front + 1] - start[front]
        # the slots of every frontier node's arcs, range by range
        slots = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        heads = to[slots[res[slots] > 0]]
        level[heads[level[heads] < 0]] = depth
        front = np.flatnonzero(level == depth)
    return level


def _first_phase(
    left_of: np.ndarray, right_of: np.ndarray, d1: int, d2: int, nl: int, nr: int
) -> np.ndarray:
    """Which edges, given in arc order by their V1 and V2 indices, carry flow
    after the first phase of `_max_flow` on the factor network, from zero.

    The levels are then s 0, V1 1, V2 2, t 3.  The descent takes V1 in
    order; each vertex sends one unit at a time along its edges in arc
    order, to a V2 vertex whose sink arc (its first arc; its others lead
    back up a level) has capacity left, until d1 units are sent or its edges
    run out.
    """
    by_left = np.argsort(left_of, kind="stable")
    rights = right_of[by_left].tolist()
    room = [d2] * nr
    taken, j = [], 0
    for end in np.cumsum(np.bincount(left_of, minlength=nl)).tolist():
        need = d1
        while need and j < end:
            if room[rights[j]]:
                room[rights[j]] -= 1
                need -= 1
                taken.append(j)
            j += 1
        j = end
    used = np.zeros(len(left_of), dtype=bool)
    used[by_left[taken]] = True
    return used


def _left_mask(g: MultiGraph) -> np.ndarray:
    """Which vertices, in vertex order, lie on the first side of a simple
    bipartite graph."""
    if g.side is None:
        raise InputError("graph carries no bipartition")
    if (g.edge_arrays[2] > 1).any():
        raise InputError("graph is not simple; collapse multi-edges first")
    return g.side


def extract_regular_subgraph(
    g: MultiGraph, d1: int, d2: int
) -> Optional[MultiGraph]:
    """A spanning subgraph with V1-degrees d1 and V2-degrees d2, or None.

    Degree-constrained flow network: source -> V1 at capacity d1, one unit per
    edge, V2 -> sink at capacity d2; a saturating flow is exactly a factor.
    Arcs are added in a fixed order (source arcs and sink arcs in vertex
    order, then edges sorted by label key), and the first saturating flow
    under that order is returned.
    """
    in_left = _left_mask(g)
    left, right = np.flatnonzero(in_left), np.flatnonzero(~in_left)
    if d1 < 0 or d2 < 0:
        raise InputError("need d1, d2 >= 0")
    if d1 * len(left) != d2 * len(right):
        raise InputError(
            f"balance violation: {d1}*{len(left)} != {d2}*{len(right)}"
        )
    if d1 == 0:
        return MultiGraph(g.vertices, [], [], side=in_left)

    # nodes: source 0, sink 1, then V1 and V2, each in vertex order
    nl, nr = len(left), len(right)
    side = np.empty(g.num_vertices(), dtype=np.int64)
    side[left], side[right] = np.arange(nl), np.arange(nr)
    a, b, order = g._label_keys()
    a, b = a[order], b[order]
    a, b = np.where(in_left[a], a, b), np.where(in_left[a], b, a)
    ia, ib = side[a], side[b]
    # the first phase runs as a greedy pass; the flow search goes on from it
    used = _first_phase(ia, ib, d1, d2, nl, nr)
    need = d1 * nl - np.count_nonzero(used)  # what the source arcs have left
    added, res = _max_flow(
        2 + nl + nr,
        np.concatenate([np.zeros(nl, np.int64), 2 + nl + np.arange(nr), 2 + ia]),
        np.concatenate([2 + np.arange(nl), np.ones(nr, np.int64), 2 + nl + ib]),
        np.concatenate([np.full(nl, d1), np.full(nr, d2), np.ones(len(ia), np.int64)]),
        np.concatenate([
            np.bincount(ia[used], minlength=nl), np.bincount(ib[used], minlength=nr), used
        ]),
        0,
        1,
        need,
    )
    if added != need:
        return None
    # the saturated edge arcs, as a mask over g's edges: their arrays stay
    # canonical, so the factor is built without a sort
    chosen = np.zeros(len(order), dtype=bool)
    chosen[order[res[2 * (nl + nr) :: 2] == 0]] = True
    u, v, _ = g.edge_arrays
    return MultiGraph(g.vertices, u[chosen], v[chosen], side=in_left)


def ore_ryser_feasible(g: MultiGraph, d1: int, d2: int) -> bool:
    """Exact feasibility of a (d1, d2)-regular spanning subgraph.

    Brute-force subset check up to 16 vertices; flow feasibility (provably
    equivalent) beyond that.
    """
    in_left = _left_mask(g)
    left, right = np.flatnonzero(in_left).tolist(), np.flatnonzero(~in_left).tolist()
    if d1 < 0 or d2 < 0:
        raise InputError("need d1, d2 >= 0")
    if d1 * len(left) != d2 * len(right):
        return False
    if len(left) + len(right) > BRUTE_FORCE_VERTEX_CUTOFF:
        return extract_regular_subgraph(g, d1, d2) is not None
    adj = g.adjacency_matrix().tolist()

    def e_between(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return sum(1 for x in a for y in b if adj[x][y] > 0)

    for ra in range(len(left) + 1):
        for a in combinations(left, ra):
            for rb in range(len(right) + 1):
                for b in combinations(right, rb):
                    if d1 * len(a) > e_between(a, b) + d2 * (len(right) - len(b)):
                        return False
    return True


@lru_cache(maxsize=8)
def _label_classes(labels: tuple[str, ...], n: int) -> np.ndarray:
    """Read-only: the class index (first letter's flattened code) of each
    word label.  Derived once per vertex tuple, which the three Sigma graphs
    share when 3 divides k, and so do the ops of one (n, k)."""
    cls = np.fromiter(
        (W.class_index(W.word_from_label(v), n) for v in labels), np.int64, len(labels)
    )
    cls.flags.writeable = False
    return cls


def red_class_layers(g: MultiGraph, n: int) -> dict[int, MultiGraph]:
    """Split a reduced-model graph into 2n class-bipartite layers.

    Layer i is bipartite between S_i (words with class index i) and its
    complement: it has g's vertices in g's order, with side = (class == i).
    A multiplicity-2 (or higher) edge contributes one simple copy to each
    endpoint's layer; a single edge, whose direction label is forgotten by
    the undirected type, is assigned to one endpoint's layer by a
    deterministic parity rule that keeps the layers balanced: with an even
    index sum, the layer of the endpoint whose label sorts first.
    """
    labels = g.vertices
    cls = _label_classes(labels, n)
    u, v, mult = g.edge_arrays
    cu, cv = cls[u], cls[v]
    same = np.flatnonzero(cu == cv)
    if len(same):
        # name the first such edge in (u, v) order
        key = edge_key(labels[u[same[0]]], labels[v[same[0]]])
        raise InputError(f"same-class edge {key}: not a reduced-model graph")
    a, b, _ = g._label_keys()
    owner = cls[np.where((a + b) % 2 == 0, a, b)]  # of a single edge
    layers = {}
    for i in range(1, 2 * n + 1):
        # masks of g's canonical arrays stay canonical
        keep = np.where(mult > 1, (cu == i) | (cv == i), owner == i)
        layers[i] = MultiGraph(labels, u[keep], v[keep], side=cls == i)
    return layers


def layer_factor_union(
    g: MultiGraph, layers: dict[int, MultiGraph], target_d1: int, target_d2: int
) -> Optional[MultiGraph]:
    """Union, on g's vertices, of a (target_d1, target_d2)-regular factor of
    each of g's class layers, which share g's vertex order and so join by
    their edge arrays; None if any layer has no factor."""
    arrays = [(np.zeros(0, dtype=np.int64),) * 3]
    for _, layer in sorted(layers.items()):
        factor = extract_regular_subgraph(layer, target_d1, target_d2)
        if factor is None:
            return None
        arrays.append(factor.edge_arrays)
    return MultiGraph(g.vertices, *map(np.concatenate, zip(*arrays)))


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
    return layer_factor_union(g, red_class_layers(g, n), target_d1, target_d2)
