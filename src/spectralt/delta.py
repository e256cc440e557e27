"""Link graphs Delta_k of finite presentations and their Sigma decomposition.

Each length-k relator r = r_x r_y r_z contributes the edges
(r_x, r_z^{-1}), (r_y, r_x^{-1}), (r_z, r_y^{-1}); the three contributions
are routed to Sigma_1, Sigma_2, Sigma_3 respectively.  Vertex sets are the
full word sets W_l, isolated vertices included.
"""

from __future__ import annotations

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

# the bytes of relator lines: letters, digits, blanks and line breaks
_PLAIN = b"gG0123456789 \t\n\r"
_PRINTABLE = bytes(range(0x20, 0x7F))
_G, _CAPITAL_G, _ZERO, _BLANK = ord("g"), ord("G"), ord("0"), ord(" ")

# most digits of a g<i> index or a header value the scan reads; longer ones
# may pass int64
_INDEX_DIGITS = 18


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
        lines = [f"n {self.n}"]
        if self.k is not None:
            lines.append(f"k {self.k}")
        lines.extend(W.word_to_text(r) for r in self.relators)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Presentation":
        """Read the text `dump` writes: header lines `n <int>` and `k <int>`
        (k before any relator), one relator of g<i> / G<i> tokens per line,
        blank lines and `#` comments.

        A block-wise array scan reads the text when it can vouch for all of it;
        any other text, including every malformed one, is read line by line by
        `_parse_lines`, which makes every parse error message.
        """
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
    """(n, letters, offsets, k) of a presentation text, read with array
    operations block by block; None for any text `_parse_lines` must read:
    one that is not ASCII, holds another control byte, a token that is not
    g<i> / G<i> with 1 <= i and at most _INDEX_DIGITS digits, a line that is
    neither a relator nor the first `n` / `k` header (k before any relator),
    a header value of more than _INDEX_DIGITS digits, no `n` header, or a
    relator not freely reduced.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    headers: dict[bytes, int] = {}
    letters: list[np.ndarray] = []  # block by block
    lengths: list[np.ndarray] = []  # relator lengths, block by block
    done = lo = 0  # tokens and bytes scanned so far
    while lo < len(data):
        hi = _line_end(data, lo + _PARSE_BLOCK - 1)
        block = _scan_block(data[lo:hi], headers, done)
        if block is None:
            return None
        letters.append(block[0])
        lengths.append(block[1])
        done += len(block[0])
        lo = hi
    n, k = headers.get(b"n"), headers.get(b"k")
    if n is None:
        return None
    flat = np.concatenate(letters, dtype=np.int64)  # a block holds the n header
    offsets = np.zeros(sum(map(len, lengths)) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=offsets[1:])
    if W.first_unreduced(flat, offsets) < len(offsets) - 1:
        return None
    return n, flat, offsets, k


def _line_end(data: bytes, at: int) -> int:
    """The index just past the first line break at or after `at`, or len(data)."""
    nl = data.find(b"\n", at)
    cr = data.find(b"\r", at, len(data) if nl < 0 else nl)
    end = cr if cr >= 0 else nl
    return len(data) if end < 0 else end + 1


def _scan_block(
    raw: bytes, headers: dict[bytes, int], done: int
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The letters and the relator lengths of one block of whole lines, with
    its header values added to `headers`; None where `_scan` gives up.

    `done` counts the tokens before the block, so a `k` header after a
    relator is seen.  Every temporary as long as the block is of bytes or
    booleans.
    """
    b = np.frombuffer(raw, np.uint8)
    extra = raw.translate(None, _PLAIN)
    if extra:
        b = _blank_extras(b, extra, headers, done)
        if b is None:
            return None
    # of the bytes in _PLAIN, only the letters g and G lie at or above G
    letter = b >= _CAPITAL_G
    digit = (b >= _ZERO) ^ letter
    at = np.flatnonzero(letter)
    values = _indices(b, letter, digit, at)
    if values is None or not values.all():  # not g<i> / G<i>, or g0
        return None
    sign = (b[at] == _G).view(np.int8)  # +1 for g, -1 for G
    sign *= 2
    sign -= 1
    values *= sign
    # \n and \r are the only bytes of _PLAIN in 0x0A..0x0D
    breaks = np.flatnonzero(b - np.uint8(0x0A) < 4)
    before = np.searchsorted(at, breaks)  # tokens before each line break
    line_lengths = np.diff(before, prepend=0, append=len(at))
    return values, line_lengths[line_lengths > 0]


def _indices(
    b: np.ndarray, letter: np.ndarray, digit: np.ndarray, at: np.ndarray
) -> Optional[np.ndarray]:
    """The int64 index of every g<i> / G<i> token of a block, the letter
    bytes at `at`; None unless each letter follows a separator and is followed
    by 1 to _INDEX_DIGITS digits, and every digit is part of such a token.

    The digits are read one place at a time, each place only for the tokens
    that reach it.
    """
    run = np.zeros_like(letter)  # the letters followed by at least j digits
    np.logical_and(letter[:-1], digit[1:], out=run[:-1])
    # a letter after a letter is one with no digit after it
    if np.count_nonzero(run) < len(at) or (letter[1:] & digit[:-1]).any():
        return None
    values = b[at + 1].astype(np.int64)
    values -= _ZERO
    read = len(at)  # digits read
    for j in range(2, _INDEX_DIGITS + 1):
        run[:-j] &= digit[j:]
        run[-j:] = False
        going = np.count_nonzero(run)
        if not going:
            break
        live = run[at]
        values[live] = values[live] * 10 + (b[at[live] + j] - _ZERO)
        read += going
    # a digit left unread follows a separator or lies past _INDEX_DIGITS places
    return values if read == np.count_nonzero(digit) else None


def _blank_extras(
    b: np.ndarray, extra: bytes, headers: dict[bytes, int], done: int
) -> Optional[np.ndarray]:
    """A copy of the block with its comments and header lines blanked and the
    headers added to `headers`; None if it holds any other byte outside
    `_PLAIN`, or a header line `_parse_lines` would not take as one."""
    if extra.translate(None, _PRINTABLE):  # a control byte the format has no use for
        return None
    b = b.copy()
    breaks = np.append(np.flatnonzero((b == 0x0A) | (b == 0x0D)), len(b))
    if b"#" in extra:  # blank each line from its first '#' on
        hashes = np.flatnonzero(b == ord("#"))
        line = np.searchsorted(breaks, hashes)
        first = np.ones(len(line), dtype=bool)
        first[1:] = line[1:] != line[:-1]
        mark = np.zeros(len(b) + 1, dtype=np.int8)
        mark[hashes[first]] = 1
        mark[breaks[line[first]]] = -1
        b[np.cumsum(mark[:-1], dtype=np.int8).view(bool)] = _BLANK
        extra = b.tobytes().translate(None, _PLAIN)
    if len(extra) + len(headers) > 2:  # more than the n and k header lines
        return None
    for at in sorted(int(i) for c in set(extra) for i in np.flatnonzero(b == c)):
        line = np.searchsorted(breaks, at)
        start, end = breaks[line - 1] + 1 if line else 0, breaks[line]
        fields = b[start:end].tobytes().split()
        if (
            len(fields) != 2 or fields[0] not in (b"n", b"k") or fields[0] in headers
            or not fields[1].isdigit() or len(fields[1]) > _INDEX_DIGITS
            or (fields[0] == b"k" and done + np.count_nonzero((b[:start] | 0x20) == _G))
        ):
            return None
        headers[fields[0]] = int(fields[1])
        b[start:end] = _BLANK
    return b


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
        """Delta_k: the three edge multisets on Sigma_1's vertices, of which
        Sigma_2's are a prefix."""
        sigmas = (self.sigma1, self.sigma2, self.sigma3)
        u, v, mult = (np.concatenate(a) for a in zip(*(g.edge_arrays for g in sigmas)))
        return MultiGraph(self.sigma1.vertices, u, v, mult)


def sigma_vertex_lengths(k: int) -> tuple[int, int]:
    """(l_k, L_k): the two word lengths carried by Delta_k's vertex set."""
    a, _, c = W.split_lengths(k)
    return a, c


def _link_edges(p: Presentation, k: int):
    """The edges (r_x, r_z^-1), (r_y, r_x^-1), (r_z, r_y^-1) of every length-k
    relator, as three (u, v) pairs of vertex-index arrays.

    Vertices are W_{l_k} followed, when L_k != l_k, by W_{L_k}, each in
    canonical order, so a piece's index is its rank there.  Every relator is
    cyclically reduced, so each piece is a reduced word: a vertex.
    """
    letters, offsets = p.letters, p.offsets
    starts = offsets[:-1][np.diff(offsets) == k]
    rel = letters[starts[:, None] + np.arange(k)]
    a, b, c = W.split_lengths(k)
    x, y, z = rel[:, :a], rel[:, a : a + b], rel[:, a + b :]
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
    vertices = W.reduced_labels(p.n, l_k)
    if L_k != l_k:
        vertices = vertices + W.reduced_labels(p.n, L_k)
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

    For k not divisible by 3, Sigma_1 and Sigma_3 live on W_{l_k} and W_{L_k}
    with a bipartition tag; Sigma_2 lives on W_{l_k} alone (the side holding
    r_x and r_y).
    """
    if k < 3:
        raise InputError("need k >= 3")
    case = k % 3
    xy_len, _, z_len = W.split_lengths(k)
    xy_labels = W.reduced_labels(p.n, xy_len)
    z_labels = W.reduced_labels(p.n, z_len) if z_len != xy_len else []
    e1, e2, e3 = _link_edges(p, k)

    if case == 0:
        sigma1 = MultiGraph(xy_labels, *e1)
        sigma2 = MultiGraph(xy_labels, *e2)
        sigma3 = MultiGraph(xy_labels, *e3)
    else:
        both = xy_labels + z_labels
        side = np.arange(len(both)) < len(xy_labels)
        sigma1 = MultiGraph(both, *e1, side=side)
        sigma2 = MultiGraph(xy_labels, *e2)
        sigma3 = MultiGraph(both, *e3, side=side)
    used = len(e1[0])
    return SigmaDecomposition(
        sigma1, sigma2, sigma3, case, xy_len, z_len,
        ignored_relators=p.num_relators - used,
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

