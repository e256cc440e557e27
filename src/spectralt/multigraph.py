"""Undirected multigraphs with edge multiplicities and optional bipartition.

Degree follows deg(v) = sum_w mult({v, w}): a loop {v, v} contributes its
multiplicity once, not twice.

A graph stores its vertex labels and three int arrays (u, v, mult) of vertex
indices: one entry per distinct edge, u <= v, sorted by (u, v).  Every walk
over the graph is a numpy pass over these arrays; the label-keyed edge dict
is built from them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

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


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


class MultiGraph:
    """Immutable multigraph on string-labelled vertices.

    Vertex order is the construction order (first occurrence wins); adjacency
    matrices and the edge arrays index vertices in that order.
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

        if partition is not None:
            p1, p2 = frozenset(partition[0]), frozenset(partition[1])
            if p1 & p2:
                raise InputError("bipartition parts overlap")
            if p1 | p2 != set(seen):
                raise InputError("bipartition does not cover the vertex set")
            for u, v in mult:
                if (u in p1) == (v in p1):
                    raise InputError(f"edge {(u, v)} does not cross the bipartition")
            partition = (p1, p2)

        u = np.fromiter((seen[a] for a, _ in mult), np.int64, len(mult))
        v = np.fromiter((seen[b] for _, b in mult), np.int64, len(mult))
        m = np.fromiter(mult.values(), np.int64, len(mult))
        self._set(tuple(seen), *_canonical(len(seen), u, v, m), partition)
        self._edge_dict = mult

    def _set(self, vertices, u, v, mult, partition) -> None:
        self._vertices: tuple[str, ...] = vertices
        self._u, self._v, self._mult = _frozen(u), _frozen(v), _frozen(mult)
        self.partition: Optional[tuple[frozenset[str], frozenset[str]]] = partition
        self._edge_dict: Optional[dict[EdgeKey, int]] = None

    @classmethod
    def _from_arrays(
        cls,
        vertices: Sequence[str],
        u: np.ndarray,
        v: np.ndarray,
        mult: Optional[np.ndarray] = None,
        partition: Optional[tuple[Iterable[str], Iterable[str]]] = None,
    ) -> "MultiGraph":
        """The graph on the distinct labels `vertices` with an edge
        {vertices[u[i]], vertices[v[i]]} of multiplicity mult[i] (default 1)
        for each i; repeated pairs add up.

        The caller guarantees what the public constructor checks: indices in
        range, multiplicities >= 1, and a partition of the labels that every
        edge crosses.
        """
        g = cls.__new__(cls)
        if partition is not None:
            partition = (frozenset(partition[0]), frozenset(partition[1]))
        g._set(tuple(vertices), *_canonical(len(vertices), u, v, mult), partition)
        return g

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, mult): distinct edges as vertex indices, u <= v."""
        return self._u, self._v, self._mult

    def _edge_map(self) -> dict[EdgeKey, int]:
        if self._edge_dict is None:
            lab = self._vertices
            self._edge_dict = {
                edge_key(lab[a], lab[b]): m
                for a, b, m in zip(self._u.tolist(), self._v.tolist(), self._mult.tolist())
            }
        return self._edge_dict

    @property
    def edges(self) -> dict[EdgeKey, int]:
        return dict(self._edge_map())

    def multiplicity(self, u: str, v: str) -> int:
        return self._edge_map().get(edge_key(u, v), 0)

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        """Total edge count, multiplicities summed."""
        return int(self._mult.sum())

    def degree(self, v: str) -> int:
        return self.degrees().get(v, 0)

    def degree_array(self) -> np.ndarray:
        """Degrees in vertex order."""
        ends = self._u != self._v
        idx = np.concatenate([self._u, self._v[ends]])
        weights = np.concatenate([self._mult, self._mult[ends]])
        return np.bincount(idx, weights, len(self._vertices)).astype(np.int64)

    def degrees(self) -> dict[str, int]:
        return dict(zip(self._vertices, self.degree_array().tolist()))

    def degree_profile(self) -> DegreeProfile:
        deg = self.degrees()
        vals = list(deg.values())
        return DegreeProfile(deg, min(vals), max(vals), sum(vals) / len(vals))

    def adjacency_matrix(self, dtype=np.int64) -> np.ndarray:
        m = len(self._vertices)
        a = np.zeros((m, m), dtype=dtype)
        a[self._u, self._v] = self._mult
        a[self._v, self._u] = self._mult
        return a

    def collapse_multi_edges(self) -> "MultiGraph":
        return MultiGraph._from_arrays(self._vertices, self._u, self._v, partition=self.partition)

    def components(self) -> int:
        """Connected component count (loops ignored).

        Label propagation: every root is hooked to the smallest root it shares
        an edge with, then pointer jumping flattens the forest again, until no
        edge joins two roots.
        """
        ids = np.arange(len(self._vertices))
        root = ids
        while True:
            ru, rv = root[self._u], root[self._v]
            split = ru != rv
            if not split.any():
                return int(np.count_nonzero(root == ids))
            root = root.copy()
            np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped

    def _label_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, order): the endpoints of each edge as its edge_key orders
        them (label of a <= label of b), and the edge indices sorted by that
        key, which is the order of sorted(self.edges)."""
        lab = self._vertices
        rank = np.empty(len(lab), dtype=np.int64)
        rank[sorted(range(len(lab)), key=lab.__getitem__)] = np.arange(len(lab))
        swap = rank[self._u] > rank[self._v]
        a = np.where(swap, self._v, self._u)
        b = np.where(swap, self._u, self._v)
        return a, b, np.lexsort((rank[b], rank[a]))

    def dump(self) -> str:
        """Diff-stable text form: 'v <label>' lines, then sorted 'e' lines."""
        lab = self._vertices
        a, b, order = self._label_keys()
        lines = [f"v {v}" for v in lab]
        for x, y, m in zip(a[order].tolist(), b[order].tolist(), self._mult[order].tolist()):
            lines.append(f"e {lab[x]} {lab[y]} {m}")
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
                try:
                    m = int(parts[3])
                except ValueError:
                    raise InputError(f"edge multiplicity must be an integer: {line!r}")
                key = edge_key(parts[1], parts[2])
                edges[key] = edges.get(key, 0) + m
            else:
                raise InputError(f"bad graph dump line: {line!r}")
        return cls(vertices, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        if self._vertices == other._vertices:
            return all(
                np.array_equal(a, b) for a, b in zip(self.edge_arrays, other.edge_arrays)
            )
        return (
            set(self._vertices) == set(other._vertices)
            and self._edge_map() == other._edge_map()
        )

    def __repr__(self) -> str:
        return (
            f"MultiGraph({len(self._vertices)} vertices, "
            f"{self.num_edges()} edges)"
        )


def _canonical(
    m: int, u: np.ndarray, v: np.ndarray, mult: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (u, v) pairs with u <= v, sorted, multiplicities summed."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    keys = np.minimum(u, v) * m + np.maximum(u, v)
    if mult is None:
        keys, total = np.unique(keys, return_counts=True)
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        total = np.zeros(len(keys), dtype=np.int64)
        np.add.at(total, inverse, mult)
    m = max(m, 1)
    return keys // m, keys % m, total


def union(*graphs: MultiGraph) -> MultiGraph:
    """Graph union: vertex labels in first-seen order, edge multiset sum.

    The result carries a bipartition only if every input does and the merged
    partition is consistent; conflicting side assignments on a shared vertex
    raise.
    """
    index: dict[str, int] = {}
    for g in graphs:
        for v in g.vertices:
            index.setdefault(v, len(index))
    none = np.zeros(0, dtype=np.int64)
    us, vs, mults = [none], [none], [none]
    for g in graphs:
        at = np.fromiter(map(index.__getitem__, g.vertices), np.int64, len(g.vertices))
        u, v, mult = g.edge_arrays
        us.append(at[u])
        vs.append(at[v])
        mults.append(mult)

    partition = None
    if all(g.partition is not None for g in graphs):
        side1 = frozenset().union(*(g.partition[0] for g in graphs))
        side2 = frozenset().union(*(g.partition[1] for g in graphs))
        if side1 & side2:
            raise InputError("conflicting bipartitions on shared vertices")
        partition = (side1, side2)
    return MultiGraph._from_arrays(
        list(index), np.concatenate(us), np.concatenate(vs), np.concatenate(mults),
        partition=partition,
    )
