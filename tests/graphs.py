"""Labelled test graphs: labels and label-keyed edges mapped to index arrays,
and a graph's bipartition read back as label sets."""

from itertools import compress

from spectralt.errors import InputError
from spectralt.multigraph import MultiGraph, edge_key


def graph(vertices, edges=(), partition=None):
    """The MultiGraph on `vertices` (repeats dropped, first occurrence wins)
    with `edges`, a dict {(a, b): multiplicity} or an iterable of (a, b)
    pairs; keys are normalised with edge_key and repeated keys add up.  A
    `partition` (first side, second side) of labels becomes the side mask
    that is True on the labels of the first side."""
    index = {}
    for x in vertices:
        index.setdefault(x, len(index))
    items = edges.items() if isinstance(edges, dict) else ((e, 1) for e in edges)
    mult = {}
    for (a, b), m in items:
        key = edge_key(a, b)
        mult[key] = mult.get(key, 0) + m
    for a, b in mult:
        if a not in index or b not in index:
            raise InputError(f"edge endpoint not a vertex: {(a, b)}")
    side = None
    if partition is not None:
        first = set(partition[0])
        side = [x in first for x in index]
    return MultiGraph(
        list(index), [index[a] for a, _ in mult], [index[b] for _, b in mult],
        list(mult.values()), side=side,
    )


def sides(g):
    """The label sets (first side, second side) of g's bipartition, or None
    if g carries none."""
    if g.side is None:
        return None
    return frozenset(compress(g.vertices, g.side)), frozenset(compress(g.vertices, ~g.side))
