"""Undirected multigraphs with edge multiplicities and optional bipartition.

Degree follows deg(v) = sum_w mult({v, w}): a loop {v, v} contributes its
multiplicity once, not twice.

A graph stores its vertex labels and three int arrays (u, v, mult) of vertex
indices: one entry per distinct edge, u <= v, sorted by (u, v).  A
bipartition is a bool mask `side` in vertex order, True on the first side.
Every walk over the graph is a numpy pass over these arrays; the label-keyed
`edges` view is built from them on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import InputError

EdgeKey = tuple[str, str]


def edge_key(u: str, v: str) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class DegreeProfile:
    min: int
    max: int
    mean: float


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


class MultiGraph:
    """Immutable multigraph on string-labelled vertices.

    Vertex order is the order of the labels given; adjacency matrices and the
    edge arrays index vertices in that order.
    """

    def __init__(
        self,
        labels: Sequence[str],
        u: ArrayLike,
        v: ArrayLike,
        mult: Optional[ArrayLike] = None,
        side: Optional[ArrayLike] = None,
    ):
        """The graph on the distinct `labels` with an edge {labels[u[i]],
        labels[v[i]]} of multiplicity mult[i] (default 1) for each i; repeated
        pairs add up.  A bipartition, if given, is a bool mask `side` in vertex
        order, True on the first side; every edge must cross it."""
        vertices = tuple(labels)
        if len(set(vertices)) != len(vertices):
            raise InputError("vertex labels repeat")
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        if len(u) != len(v) or (mult is not None and len(mult) != len(u)):
            raise InputError("edge arrays differ in length")
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= len(vertices)):
            raise InputError(f"edge endpoint not a vertex index in [0, {len(vertices)})")
        if mult is not None:
            mult = np.asarray(mult, dtype=np.int64)
            if (mult < 1).any():
                raise InputError(f"multiplicity {mult.min()} < 1")
        self._vertices: tuple[str, ...] = vertices
        self._u, self._v, self._mult = map(_frozen, _canonical(len(vertices), u, v, mult))
        self._side: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        if side is not None:
            side = np.array(side, dtype=bool)
            side.flags.writeable = False
            if side.shape != (len(vertices),):
                raise InputError(
                    f"side mask of shape {side.shape} does not match {len(vertices)} vertices"
                )
            same = np.flatnonzero(side[self._u] == side[self._v])
            if len(same):
                i = same[0]
                key = edge_key(vertices[self._u[i]], vertices[self._v[i]])
                raise InputError(f"edge {key} does not cross the bipartition")
            self._side = side

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, mult): distinct edges as vertex indices, u <= v."""
        return self._u, self._v, self._mult

    @property
    def side(self) -> Optional[np.ndarray]:
        """Read-only bool mask in vertex order, True on the first side of the
        bipartition; None if the graph carries none."""
        return self._side

    @property
    def edges(self) -> dict[EdgeKey, int]:
        """Label-keyed multiplicities in (u, v) order, built on each read."""
        lab = self._vertices
        return {
            edge_key(lab[a], lab[b]): m
            for a, b, m in zip(self._u.tolist(), self._v.tolist(), self._mult.tolist())
        }

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        """Total edge count, multiplicities summed."""
        return int(self._mult.sum())

    def degree(self, v: str) -> int:
        return self.degrees().get(v, 0)

    def degree_array(self) -> np.ndarray:
        """Read-only degrees in vertex order, counted on the first call."""
        if self._degrees is None:
            ends = self._u != self._v
            idx = np.concatenate([self._u, self._v[ends]])
            weights = np.concatenate([self._mult, self._mult[ends]])
            self._degrees = _frozen(np.bincount(idx, weights, len(self._vertices)))
        return self._degrees

    def degrees(self) -> dict[str, int]:
        return dict(zip(self._vertices, self.degree_array().tolist()))

    def degree_profile(self) -> DegreeProfile:
        deg = self.degree_array()
        return DegreeProfile(int(deg.min()), int(deg.max()), int(deg.sum()) / len(deg))

    def adjacency_matrix(self) -> np.ndarray:
        """The int64 matrix of multiplicities, in vertex order."""
        m = len(self._vertices)
        a = np.zeros((m, m), dtype=np.int64)
        a[self._u, self._v] = self._mult
        a[self._v, self._u] = self._mult
        return a

    def collapse_multi_edges(self) -> "MultiGraph":
        return MultiGraph(self._vertices, self._u, self._v, side=self._side)

    def components(self) -> int:
        """Connected component count (loops ignored).

        Label propagation: every root is hooked to the smallest root it shares
        an edge with, then pointer jumping flattens the forest again, until no
        edge joins two roots.  An edge whose ends share a root is dropped: it
        joins them in every later round too.
        """
        ids = np.arange(len(self._vertices))
        root = ids
        u, v = self._u, self._v
        ru, rv = u, v  # the roots of u and v
        while True:
            split = ru != rv
            if not split.any():
                return int(np.count_nonzero(root == ids))
            if not split.all():
                u, v, ru, rv = u[split], v[split], ru[split], rv[split]
            root = root.copy()
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped
            ru, rv = root[u], root[v]

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
        # edges are distinct, so the keys are, and any sort gives one order
        return a, b, np.argsort(rank[a] * len(lab) + rank[b])

    def dump(self) -> str:
        """Diff-stable text form: 'v <label>' lines, then sorted 'e' lines."""
        lab = self._vertices
        a, b, order = self._label_keys()
        values, at = np.unique(self._mult[order], return_inverse=True)
        # each edge line is three strings made once per vertex or multiplicity
        parts = np.empty((len(order), 3), dtype=object)
        parts[:, 0] = np.array([f"e {x} " for x in lab], dtype=object)[a[order]]
        parts[:, 1] = np.array([f"{y} " for y in lab], dtype=object)[b[order]]
        parts[:, 2] = np.array([f"{m}\n" for m in values.tolist()], dtype=object)[at]
        text = "".join([f"v {x}\n" for x in lab]) + "".join(parts.ravel().tolist())
        return text or "\n"  # no vertices: one empty line

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        if self._vertices == other._vertices:
            return all(
                np.array_equal(a, b) for a, b in zip(self.edge_arrays, other.edge_arrays)
            )
        return (
            set(self._vertices) == set(other._vertices)
            and self.edges == other.edges
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
    keys = np.minimum(u, v) * m + np.maximum(u, v)
    if m * m <= 2**31:  # int32 keys sort about twice as fast
        keys = keys.astype(np.int32)
    if (keys[1:] > keys[:-1]).all():  # already distinct and sorted
        total = np.ones(len(keys), np.int64) if mult is None else mult.copy()
    elif mult is None:
        keys, total = np.unique(keys, return_counts=True)
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        total = np.zeros(len(keys), dtype=np.int64)
        np.add.at(total, inverse, mult)
    keys = keys.astype(np.int64, copy=False)
    m = max(m, 1)
    return keys // m, keys % m, total


def union(*graphs: MultiGraph) -> MultiGraph:
    """Graph union: vertex labels in first-seen order, edge multiset sum.

    The result carries a bipartition only if every input does and the merged
    sides are consistent; conflicting side assignments on a shared vertex
    raise.
    """
    index: dict[str, int] = {}
    for g in graphs:
        for v in g.vertices:
            index.setdefault(v, len(index))
    none = np.zeros(0, dtype=np.int64)
    us, vs, mults, ats = [none], [none], [none], []
    for g in graphs:
        at = np.fromiter(map(index.__getitem__, g.vertices), np.int64, len(g.vertices))
        u, v, mult = g.edge_arrays
        us.append(at[u])
        vs.append(at[v])
        mults.append(mult)
        ats.append(at)

    side = None
    if all(g.side is not None for g in graphs):
        side, second = np.zeros(len(index), dtype=bool), np.zeros(len(index), dtype=bool)
        for g, at in zip(graphs, ats):
            side[at[g.side]] = True
            second[at[~g.side]] = True
        if (side & second).any():
            raise InputError("conflicting bipartitions on shared vertices")
    return MultiGraph(
        list(index), np.concatenate(us), np.concatenate(vs), np.concatenate(mults),
        side=side,
    )
