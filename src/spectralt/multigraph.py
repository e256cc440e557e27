"""Undirected multigraphs with edge multiplicities and optional bipartition.

Degree follows deg(v) = sum_w mult({v, w}): a loop {v, v} contributes its
multiplicity once, not twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import InputError

EdgeKey = tuple[str, str]


def edge_key(u: str, v: str) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class DegreeProfile:
    degrees: dict[str, int]
    min: int
    max: int
    mean: float


class MultiGraph:
    """Immutable multigraph on string-labelled vertices.

    Vertex order is the construction order (first occurrence wins); adjacency
    matrices index vertices in that order.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Mapping[EdgeKey, int] | Iterable[tuple[str, str]] = (),
        partition: Optional[tuple[Iterable[str], Iterable[str]]] = None,
    ):
        seen: dict[str, int] = {}
        for v in vertices:
            if v not in seen:
                seen[v] = len(seen)
        self._index = seen
        self._vertices = tuple(seen)

        mult: dict[EdgeKey, int] = {}
        if isinstance(edges, Mapping):
            items = [(edge_key(u, v), m) for (u, v), m in edges.items()]
        else:
            items = [(edge_key(u, v), 1) for (u, v) in edges]
        for key, m in items:
            if m < 1:
                raise InputError(f"multiplicity {m} < 1 for edge {key}")
            mult[key] = mult.get(key, 0) + m
        for u, v in mult:
            if u not in seen or v not in seen:
                raise InputError(f"edge endpoint not a vertex: {(u, v)}")
        self._edges = mult

        if partition is not None:
            p1, p2 = frozenset(partition[0]), frozenset(partition[1])
            if p1 & p2:
                raise InputError("bipartition parts overlap")
            if p1 | p2 != set(self._vertices):
                raise InputError("bipartition does not cover the vertex set")
            for u, v in mult:
                if (u in p1) == (v in p1):
                    raise InputError(f"edge {(u, v)} does not cross the bipartition")
            self.partition: Optional[tuple[frozenset[str], frozenset[str]]] = (p1, p2)
        else:
            self.partition = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> dict[EdgeKey, int]:
        return dict(self._edges)

    def multiplicity(self, u: str, v: str) -> int:
        return self._edges.get(edge_key(u, v), 0)

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        """Total edge count, multiplicities summed."""
        return sum(self._edges.values())

    def degree(self, v: str) -> int:
        return sum(m for key, m in self._edges.items() if v in key)

    def degrees(self) -> dict[str, int]:
        deg = {v: 0 for v in self._vertices}
        for (u, v), m in self._edges.items():
            deg[u] += m
            if v != u:
                deg[v] += m
        return deg

    def degree_profile(self) -> DegreeProfile:
        deg = self.degrees()
        vals = list(deg.values())
        return DegreeProfile(deg, min(vals), max(vals), sum(vals) / len(vals))

    def adjacency_matrix(self) -> np.ndarray:
        m = len(self._vertices)
        a = np.zeros((m, m), dtype=np.int64)
        for (u, v), mult in self._edges.items():
            i, j = self._index[u], self._index[v]
            a[i, j] += mult
            if i != j:
                a[j, i] += mult
        return a

    def collapse_multi_edges(self) -> "MultiGraph":
        return MultiGraph(
            self._vertices,
            {key: 1 for key in self._edges},
            partition=self.partition,
        )

    def components(self) -> int:
        """Connected component count (loops ignored)."""
        parent = {v: v for v in self._vertices}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self._edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(v) for v in self._vertices})

    def dump(self) -> str:
        """Diff-stable text form: 'v <label>' lines, then sorted 'e' lines."""
        lines = [f"v {v}" for v in self._vertices]
        for (u, v), m in sorted(self._edges.items()):
            lines.append(f"e {u} {v} {m}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "MultiGraph":
        vertices: list[str] = []
        edges: dict[EdgeKey, int] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 2:
                vertices.append(parts[1])
            elif parts[0] == "e" and len(parts) == 4:
                key = edge_key(parts[1], parts[2])
                edges[key] = edges.get(key, 0) + int(parts[3])
            else:
                raise InputError(f"bad graph dump line: {line!r}")
        return cls(vertices, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return (
            f"MultiGraph({len(self._vertices)} vertices, "
            f"{self.num_edges()} edges)"
        )


def union(*graphs: MultiGraph) -> MultiGraph:
    """Graph union: vertex labels in first-seen order, edge multiset sum.

    The result carries a bipartition only if every input does and the merged
    partition is consistent; conflicting side assignments on a shared vertex
    raise.
    """
    edges: dict[EdgeKey, int] = {}
    for g in graphs:
        for key, m in g._edges.items():
            edges[key] = edges.get(key, 0) + m

    partition = None
    if all(g.partition is not None for g in graphs):
        side1 = frozenset().union(*(g.partition[0] for g in graphs))
        side2 = frozenset().union(*(g.partition[1] for g in graphs))
        if side1 & side2:
            raise InputError("conflicting bipartitions on shared vertices")
        partition = (side1, side2)
    return MultiGraph([v for g in graphs for v in g.vertices], edges, partition=partition)
