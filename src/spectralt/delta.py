"""Link graphs Delta_k of finite presentations and their Sigma decomposition.

Each length-k relator r = r_x r_y r_z contributes the edges
(r_x, r_z^{-1}), (r_y, r_x^{-1}), (r_z, r_y^{-1}); the three contributions
are routed to Sigma_1, Sigma_2, Sigma_3 respectively.  Vertex sets are the
full word sets W_l, isolated vertices included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import words as W
from .errors import InputError
from .multigraph import MultiGraph
from .words import Word


# bytes `Presentation.parse` scans per pass; a pass ends at a line end
_PARSE_BLOCK = 1 << 18

# relators `Presentation.dump` writes per pass
_DUMP_BLOCK = 1 << 14

# most digits of a g<i> index or a header value the scan reads; longer ones
# may pass int64
_INDEX_DIGITS = 18

# the `n` line and the optional `k` line that open the text `dump` writes,
# each value of at most _INDEX_DIGITS digits
_HEADERS = re.compile(r"n ([0-9]{1,18})\n(?:k ([0-9]{1,18})\n)?")
_CAPITAL_G, _SMALL_G, _ZERO, _ONE = ord("G"), ord("g"), ord("0"), ord("1")
_BLANK, _LINE_END = ord(" "), ord("\n")


class _Letters(dict):
    """Token -> letter; each distinct token is parsed once."""

    def __missing__(self, tok: str) -> int:
        self[tok] = letter = W.letter_from_token(tok)
        return letter


class Presentation:
    """<a_1..a_n | relators>, with k the relator length if one is declared.

    The relators are stored end to end: `letters` holds their signed letters
    (int64, or Python ints past int64), and relator i is
    `letters[offsets[i]:offsets[i + 1]]`.  The tuple form `relators` is built
    on first read.  Equality is equality of n, k and relators.  Relators are
    cyclically reduced over +-1..+-n: no later stage checks them again.
    """

    def __init__(self, n: int, relators: Sequence[Word], k: Optional[int] = None):
        relators = tuple(relators)
        self.__dict__["relators"] = relators
        self._set(n, *W.flatten(relators), k, False)

    @classmethod
    def _from_arrays(
        cls,
        n: int,
        letters: np.ndarray,
        offsets: np.ndarray,
        k: Optional[int] = None,
        reduced: bool = False,
    ) -> "Presentation":
        """The presentation of the words `letters` split at `offsets`, checked
        as the constructor checks them, without building the tuples.  With
        `reduced` the caller has found every word freely reduced already
        (`W.first_unreduced`), and that pass is not run again."""
        p = cls.__new__(cls)
        p._set(n, letters, offsets, k, reduced)
        return p

    def _set(
        self, n: int, letters: np.ndarray, offsets: np.ndarray, k: Optional[int], reduced: bool
    ):
        self.n, self.k, self.letters, self.offsets = n, k, letters, offsets
        if n < 1:
            raise InputError("generator count must be >= 1")
        # the scalar checks run from the first relator the array scan flags
        for i in range(self._first_invalid(reduced), self.num_relators):
            r = self._relator(i)
            if not W.is_cyclically_reduced(r):
                raise InputError(f"relator {W.word_to_text(r)!r} not cyclically reduced")
            for x in r:
                if not 0 < abs(x) <= n:
                    raise InputError(f"relator letter outside alphabet of size {n}")
            if k is not None and len(r) != k:
                raise InputError(f"relator {W.word_to_text(r)!r} has length {len(r)} != k = {k}")

    @cached_property
    def relators(self) -> tuple[Word, ...]:
        flat, bounds = self.letters.tolist(), self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def num_relators(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        """The length of each relator."""
        return np.diff(self.offsets)

    def _relator(self, i: int) -> Word:
        return tuple(self.letters[self.offsets[i] : self.offsets[i + 1]].tolist())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.n, self.k) == (other.n, other.k)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.letters, other.letters)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.relators, self.k))

    def __repr__(self) -> str:
        return f"Presentation(n={self.n!r}, relators={self.relators!r}, k={self.k!r})"

    def _first_invalid(self, reduced: bool) -> int:
        """Index of the first relator the checks reject; the count if none.
        With `reduced` every relator is known to be freely reduced."""
        letters, offsets = self.letters, self.offsets
        lengths = np.diff(offsets)
        bad = lengths == 0
        if self.k is not None:
            bad |= lengths != self.k
        ends = lengths >= 2
        bad[ends] |= letters[offsets[:-1][ends]] == -letters[offsets[1:][ends] - 1]
        outside = np.flatnonzero((np.abs(letters) > self.n) | (letters == 0))
        bad[np.searchsorted(offsets, outside, side="right") - 1] = True
        if not reduced:
            first = W.first_unreduced(letters, offsets)
            bad[first : first + 1] = True  # empty when every relator is reduced
        hits = np.flatnonzero(bad)
        return int(hits[0]) if hits.size else len(lengths)

    def dump(self) -> str:
        """`n` and `k` lines, then each relator as `W.word_to_text` writes it;
        a pass over _DUMP_BLOCK relators makes each distinct token once."""
        text = [f"n {self.n}\n" + ("" if self.k is None else f"k {self.k}\n")]
        for at in range(0, self.num_relators, _DUMP_BLOCK):
            bounds = self.offsets[at : at + _DUMP_BLOCK + 1]
            letters = self.letters[bounds[0] : bounds[-1]]
            distinct = np.unique(letters)
            tokens = np.array(W.word_to_text(distinct.tolist()).split(), dtype=object)
            parts = np.empty(2 * len(letters), dtype=object)  # each token, then " " or \n
            parts[0::2] = tokens[np.searchsorted(distinct, letters)]
            parts[1::2] = " "
            parts[2 * (bounds[1:] - bounds[0]) - 1] = "\n"
            text.append("".join(parts.tolist()))
        return "".join(text)

    @classmethod
    def parse(cls, text: str) -> "Presentation":
        """Read a presentation text: header lines `n <int>` and `k <int>`
        (k before any relator), one relator of g<i> / G<i> tokens per line,
        blank lines and `#` comments.  A block-wise array scan reads the form
        `dump` writes; `_parse_lines` reads any other text line by line, and
        makes every parse error message."""
        scanned = _scan(text)
        if scanned is None:
            return _parse_lines(cls, text)
        return cls._from_arrays(*scanned, reduced=True)


def _parse_lines(cls: type[Presentation], text: str) -> Presentation:
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
    return cls._from_arrays(n, *flat, k, reduced=True)


def _header_int(parts: list[str]) -> int:
    try:
        return int(parts[1])
    except ValueError:
        raise InputError(f"'{parts[0]}' header needs an integer, got {parts[1]!r}")


def _scan(text: str) -> Optional[tuple[int, np.ndarray, np.ndarray, Optional[int]]]:
    """(n, letters, offsets, k) of a text in the form `dump` writes, read with
    array operations block by block; None for any other text, which
    `_parse_lines` reads.

    The form: an `n` line, an optional `k` line, then one relator per line of
    g<i> / G<i> tokens with 1 <= i and at most _INDEX_DIGITS digits, one blank
    between tokens, `\n` after every line, and every relator freely reduced.
    """
    head = _HEADERS.match(text)
    if head is None or not text.isascii() or not text.endswith("\n"):
        return None
    data = text.encode("ascii")
    letters = [np.empty(0, np.int8)]  # block by block, int8 from the cell branch
    ends = [np.zeros(1, np.int64)]  # the tokens up to each line end, block by block
    lo = head.end()
    while lo < len(data):
        hi = data.find(b"\n", min(lo + _PARSE_BLOCK, len(data)) - 1) + 1
        block = _scan_block(data[lo:hi])
        if block is None:
            return None
        letters.append(block[0])
        ends.append(block[1] + ends[-1][-1])
        lo = hi
    flat, offsets = np.concatenate(letters), np.concatenate(ends)
    if W.first_unreduced(flat, offsets) < len(offsets) - 1:
        return None
    n, k = head.groups()
    return int(n), flat.astype(np.int64, copy=False), offsets, None if k is None else int(k)


def _scan_block(raw: bytes) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The letters of one block of whole relator lines, and the count of
    tokens up to each line end; None unless every line is in the form `_scan`
    takes.  Every temporary as long as the block is of bytes or booleans."""
    b = np.frombuffer(raw, np.uint8)
    if len(b) % 3 == 0:
        cells = _one_digit_cells(b)
        if cells is not None:
            return cells
    if raw.translate(None, b"gG0123456789 \n"):
        return None
    # of those bytes, g and G lie at or above G, and blank and \n at or below blank
    letter = b >= _CAPITAL_G
    digit = (b >= _ZERO) ^ letter
    gap = b <= _BLANK
    # a letter opens the block and follows every gap, a digit follows every
    # letter, and no letter follows a digit; the block ends in \n
    if (
        not letter[0] or (gap[:-1] > letter[1:]).any()
        or (letter[:-1] > digit[1:]).any() or (digit[:-1] & letter[1:]).any()
    ):
        return None
    at = np.flatnonzero(letter)
    values = b[at + 1] - np.int64(_ZERO)
    if 3 * len(at) < len(b):  # some index has more than one digit
        width = np.flatnonzero(gap) - at - 1  # a gap ends every token
        widest = int(width.max())
        if widest > _INDEX_DIGITS:
            return None
        for j in range(2, widest + 1):  # one decimal place at a time
            live = np.flatnonzero(width >= j)
            values[live] = values[live] * 10 + (b[at[live] + j] - _ZERO)
    if not values.all():  # g0
        return None
    values *= 1 - 2 * (b[at] == _CAPITAL_G).view(np.int8)  # G<i> is the inverse of g<i>
    return values, np.searchsorted(at, np.flatnonzero(b == _LINE_END))


def _one_digit_cells(b: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """`_scan_block` of a block whose every token has one digit, so that it
    is a run of 3-byte cells `[gG][1-9][ \n]`, read a column at a time, with
    int8 letters; None for any other block."""
    sign, digit, gap = b.reshape(-1, 3).T.copy()
    end = gap == _LINE_END
    if not (
        ((sign | 0x20) == _SMALL_G).all()  # g or G
        and (digit - _ONE < 9).all()
        and (end | (gap == _BLANK)).all()
    ):
        return None
    values = (digit - _ZERO).view(np.int8)
    values *= 1 - 2 * (sign == _CAPITAL_G).view(np.int8)  # G<i> is the inverse of g<i>
    return values, np.flatnonzero(end) + 1


@dataclass(frozen=True)
class SigmaDecomposition:
    sigma1: MultiGraph
    sigma2: MultiGraph
    sigma3: MultiGraph
    case: int
    ignored_relators: int = 0

    def delta(self) -> MultiGraph:
        """Delta_k: the three edge multisets on Sigma_1's vertices, of which
        Sigma_2's are a prefix."""
        sigmas = (self.sigma1, self.sigma2, self.sigma3)
        u, v, mult = (np.concatenate(a) for a in zip(*(g.edge_arrays for g in sigmas)))
        return MultiGraph(self.sigma1.vertices, u, v, mult)


def sigma_vertex_lengths(k: int) -> tuple[int, int]:
    """(l_k, L_k): the two word lengths carried by Delta_k's vertex set."""
    a, _, c = W.split_lengths(k)
    return a, c


def delta_k_order(n: int, k: int) -> int:
    """Delta_k's vertex count, |W_{l_k}| (+ |W_{L_k}| if L_k != l_k), or the
    ResourceCapError that building those word sets would raise."""
    lengths = dict.fromkeys(sigma_vertex_lengths(k))
    for l in lengths:
        W.check_enumerable(n, l)
    return sum(W.word_count(n, l) for l in lengths)


def _link_edges(p: Presentation, k: int):
    """The edges (r_x, r_z^-1), (r_y, r_x^-1), (r_z, r_y^-1) of every length-k
    relator, as three (u, v) pairs of vertex-index arrays.

    Vertices are W_{l_k} followed, when L_k != l_k, by W_{L_k}, each in
    canonical order, so a piece's index is its rank there.  Every relator is
    cyclically reduced, so each piece is a reduced word: a vertex.
    """
    letters, offsets = p.letters, p.offsets
    used = np.diff(offsets) == k
    if used.all():  # the relators are the rows of the letters
        rel = letters.reshape(-1, k)
    else:
        rel = letters[offsets[:-1][used][:, None] + np.arange(k)]
    a, b, c = W.split_lengths(k)
    z_at = W.word_count(p.n, a) if c != a else 0
    (x, x_inv), (y, y_inv), (z, z_inv) = W.rank_pieces(p.n, rel, [(0, a), (a, a + b), (a + b, k)])
    return ((x, z_inv + z_at), (y, x_inv), (z + z_at, y_inv))


def _delta_labels(n: int, k: int) -> tuple[list[str], int]:
    """Delta_k's vertex labels, W_{l_k} followed, when L_k != l_k, by
    W_{L_k}, each in canonical order; and |W_{l_k}|."""
    sets = [W.reduced_labels(n, l) for l in dict.fromkeys(sigma_vertex_lengths(k))]
    return [x for labels in sets for x in labels], len(sets[0])


def build_delta_k(p: Presentation, k: int) -> MultiGraph:
    """Delta_k on the full word sets; relators of other lengths are ignored."""
    vertices, _ = _delta_labels(p.n, k)
    ends = _link_edges(p, k)
    u = np.concatenate([e[0] for e in ends])
    v = np.concatenate([e[1] for e in ends])
    return MultiGraph(vertices, u, v)


def build_delta3(p: Presentation) -> MultiGraph:
    """Delta_3 on A_n and inverses; errors if any relator length differs from 3."""
    wrong = np.flatnonzero(p.lengths != 3)
    if wrong.size:
        r = p._relator(int(wrong[0]))
        raise InputError(f"relator {W.word_to_text(r)!r} has length != 3")
    return build_delta_k(p, 3)


def sigma_decomposition(p: Presentation, k: int) -> SigmaDecomposition:
    """Split Delta_k into Sigma_1, Sigma_2, Sigma_3.

    Sigma_1 and Sigma_3 live on Delta_k's vertices, bipartite between W_{l_k}
    and W_{L_k} when 3 does not divide k; Sigma_2 lives on Delta_k's first
    |W_{l_k}| vertices, W_{l_k} (the side holding r_x and r_y).
    """
    case = k % 3
    labels, first = _delta_labels(p.n, k)
    side = np.arange(len(labels)) < first if case else None
    e1, e2, e3 = _link_edges(p, k)
    return SigmaDecomposition(
        MultiGraph(labels, *e1, side=side),
        MultiGraph(labels[:first], *e2),
        MultiGraph(labels, *e3, side=side),
        case,
        ignored_relators=p.num_relators - len(e1[0]),
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

