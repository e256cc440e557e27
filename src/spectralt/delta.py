"""Link graphs Delta_k of finite presentations and their Sigma decomposition.

Each length-k relator r = r_x r_y r_z contributes the edges
(r_x, r_z^{-1}), (r_y, r_x^{-1}), (r_z, r_y^{-1}); the three contributions
are routed to Sigma_1, Sigma_2, Sigma_3 respectively.  Vertex sets are the
full word sets W_l, isolated vertices included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import words as W
from .errors import InputError
from .multigraph import EdgeKey, MultiGraph, edge_key, union
from .words import Word


class _Letters(dict):
    """Token -> letter; each distinct token is parsed once."""

    def __missing__(self, tok: str) -> int:
        self[tok] = letter = W.letter_from_token(tok)
        return letter


@dataclass(frozen=True)
class Presentation:
    n: int
    relators: tuple[Word, ...]
    k: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError("generator count must be >= 1")
        # the scalar checks run from the first relator the array scan flags
        for r in self.relators[self._first_invalid():]:
            if not W.is_cyclically_reduced(r):
                raise InputError(f"relator {W.word_to_text(r)!r} not cyclically reduced")
            for x in r:
                if abs(x) > self.n:
                    raise InputError(f"relator letter outside alphabet of size {self.n}")
            if self.k is not None and len(r) != self.k:
                raise InputError(
                    f"relator {W.word_to_text(r)!r} has length {len(r)} != k = {self.k}"
                )

    @cached_property
    def _letters(self) -> tuple[np.ndarray, np.ndarray]:
        return W.flatten(self.relators)

    def _first_invalid(self) -> int:
        """Index of the first relator the checks reject; len(relators) if none."""
        letters, offsets = self._letters
        lengths = np.diff(offsets)
        bad = lengths == 0
        if self.k is not None:
            bad |= lengths != self.k
        ends = lengths >= 2
        bad[ends] |= letters[offsets[:-1][ends]] == -letters[offsets[1:][ends] - 1]
        owner = np.repeat(np.arange(len(lengths)), lengths)
        bad[owner[np.abs(letters) > self.n]] = True
        hits = np.flatnonzero(bad)
        return int(hits[0]) if hits.size else len(lengths)

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
        lines: list[str] = []
        letters = _Letters()
        try:
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
                    relators.append(tuple(map(letters.__getitem__, parts)))
                    lines.append(line)
        finally:
            # a word that is not freely reduced fails before any later line
            flat = W.flatten(relators)
            bad = W.first_unreduced(*flat)
            if bad < len(relators):
                raise InputError(f"word {lines[bad]!r} is not freely reduced")
        if n is None:
            raise InputError("presentation file missing 'n <int>' header")
        p = cls.__new__(cls)
        p.__dict__["_letters"] = flat  # the cached flattening __post_init__ reads
        p.__init__(n, tuple(relators), k)
        return p


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


def _link_edges(p: Presentation, k: int, relator_major: bool):
    """The edges (r_x, r_z^-1), (r_y, r_x^-1), (r_z, r_y^-1) of every length-k
    relator, as three (u, v) pairs of vertex-index arrays.

    Vertices are W_{l_k} followed, when L_k != l_k, by W_{L_k}, each in
    canonical order, so a piece's index is its rank there.  A piece that is
    no reduced word is no vertex; the first such edge, relator by relator
    (or edge slot by edge slot), raises as the label-keyed build did.
    """
    letters, offsets = p._letters
    starts = offsets[:-1][np.diff(offsets) == k]
    rel = letters[starts[:, None] + np.arange(k)]
    a, b, c = W.split_lengths(k)
    x, y, z = rel[:, :a], rel[:, a : a + b], rel[:, a + b :]
    ok_x, ok_y, ok_z = (
        (w != 0).all(axis=1) & (w[:, 1:] != -w[:, :-1]).all(axis=1) for w in (x, y, z)
    )
    edge_ok = np.stack([ok_x & ok_z, ok_y & ok_x, ok_z & ok_y])
    if not edge_ok.all():
        if relator_major:
            i, slot = np.argwhere(~edge_ok.T)[0]
        else:
            slot, i = np.argwhere(~edge_ok)[0]
        r = tuple(rel[i].tolist())
        raise InputError(f"edge endpoint not a vertex: {_relator_edges(r, k)[slot]}")

    z_at = W.word_count(p.n, a) if c != a else 0

    def rank(w: np.ndarray, at: int = 0) -> np.ndarray:
        return W.rank_reduced(p.n, w) + at

    def inv(w: np.ndarray) -> np.ndarray:
        return -w[:, ::-1]

    return (
        (rank(x), rank(inv(z), z_at)),
        (rank(y), rank(inv(x))),
        (rank(z, z_at), rank(inv(y))),
    )


def build_delta_k(p: Presentation, k: int) -> MultiGraph:
    """Delta_k on the full word sets; relators of other lengths are ignored."""
    if k < 3:
        raise InputError("need k >= 3")
    l_k, L_k = sigma_vertex_lengths(k)
    vertices = _labels(p.n, l_k)
    if L_k != l_k:
        vertices = vertices + _labels(p.n, L_k)
    ends = _link_edges(p, k, relator_major=True)
    u = np.concatenate([e[0] for e in ends])
    v = np.concatenate([e[1] for e in ends])
    return MultiGraph._from_arrays(vertices, u, v)


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
    e1, e2, e3 = _link_edges(p, k, relator_major=False)

    if case == 0:
        sigma1 = MultiGraph._from_arrays(xy_labels, *e1)
        sigma2 = MultiGraph._from_arrays(xy_labels, *e2)
        sigma3 = MultiGraph._from_arrays(xy_labels, *e3)
    else:
        both = xy_labels + z_labels
        part = (xy_labels, z_labels)
        sigma1 = MultiGraph._from_arrays(both, *e1, partition=part)
        sigma2 = MultiGraph._from_arrays(xy_labels, *e2)
        sigma3 = MultiGraph._from_arrays(both, *e3, partition=part)
    used = len(e1[0])
    return SigmaDecomposition(
        sigma1, sigma2, sigma3, case, xy_len, z_len,
        ignored_relators=len(p.relators) - used,
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
    u, v, mult = g.edge_arrays
    doubles = mult >= 2
    du, dv = u[doubles], v[doubles]
    per_vertex = np.bincount(
        np.concatenate([du, dv[du != dv]]), minlength=g.num_vertices()
    )
    max_per_vertex = int(per_vertex.max(initial=0))
    return DoubleEdgeAudit(
        max_multiplicity=int(mult.max(initial=0)),
        double_edge_count=int(doubles.sum()),
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
