"""Free-group word combinatorics.

A word over generators a_1..a_n is a tuple of nonzero ints: +i encodes a_i,
-i encodes a_i^{-1}.  The flattened letter code maps a_1..a_n to 1..n and
a_1^{-1}..a_n^{-1} to n+1..2n; the canonical order on words is lexicographic
on flattened codes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ResourceCapError

Word = tuple[int, ...]

# most words |W_l| one enumeration or sampler may cover; read on each check
ENUMERATION_CAP = 10**7

# ranks one unranking pass walks, whatever n and k
_UNRANK_BLOCK = 1 << 12

# a count of more decimal digits is printed as a power: above Python's default
# limit of 4300 digits for int -> str, so every count that printed still does
_PRINT_DIGITS = 4400

_TOKEN_RE = re.compile(r"([gG])(\d+)")


def flatten_letter(x: int, n: int) -> int:
    """Flattened code of a signed letter: a_i -> i, a_i^{-1} -> n+i."""
    if x == 0 or abs(x) > n:
        raise InputError(f"letter {x} outside alphabet of size {n}")
    return x if x > 0 else n - x


def unflatten_letter(code: int, n: int) -> int:
    if not 1 <= code <= 2 * n:
        raise InputError(f"flattened code {code} outside [1, {2 * n}]")
    return code if code <= n else n - code


def is_reduced(w: Word) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def is_cyclically_reduced(w: Word) -> bool:
    """Nonempty, freely reduced, and the last letter is not the inverse of the first."""
    return len(w) >= 1 and is_reduced(w) and w[-1] != -w[0]


def flatten(words: Sequence[Word]) -> tuple[np.ndarray, np.ndarray]:
    """The letters of all words end to end, and the offset at which each word
    starts, followed by the total letter count."""
    offsets = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, words), np.int64, len(words)), out=offsets[1:])
    try:
        letters = np.fromiter(chain.from_iterable(words), np.int64, offsets[-1])
    except OverflowError:  # a letter past int64 is compared exactly, as an object
        letters = np.array(list(chain.from_iterable(words)), dtype=object)
    return letters, offsets


def first_unreduced(letters: np.ndarray, offsets: np.ndarray) -> int:
    """Index of the first word, of those `flatten` gave as (letters, offsets),
    that is not freely reduced; the word count if none."""
    cancel = letters[1:] == -letters[:-1]
    seams = offsets[(offsets > 0) & (offsets < len(letters))]
    cancel[seams - 1] = False  # a last letter against the next word's first
    hits = np.flatnonzero(cancel)
    if not hits.size:
        return len(offsets) - 1
    return int(np.searchsorted(offsets, hits[0], side="right")) - 1


def rank_pieces(
    n: int, words: np.ndarray, bounds: Sequence[tuple[int, int]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each (lo, hi) of `bounds`, the index in `enumerate_reduced(n, hi - lo)`
    of letters lo..hi-1 of each row of `words`, a freely reduced word of signed
    letters, and of their inverse; int64, found without enumerating.

    A word's rank has its first letter's 0-based flattened code as the leading
    digit, and each later letter as a base-(2n-1) digit, its code less one if
    it follows the previous letter's inverse, which cannot come next.  Every
    piece and inverse piece takes its digits from two arrays over all the
    rows' letters, laid out one contiguous row per letter position.
    """
    # int8 while every code and digit fits it
    small = np.int8 if 2 * n < 127 else np.int64
    letters = words.astype(small).T.copy()
    # 0-based flattened codes of the letters (a_i -> i - 1, a_i^-1 -> n + i - 1)
    # and of their inverses
    first = np.abs(letters) - small(1)
    codes = first + (letters < 0).view(np.int8) * small(n)
    inverses = first + (letters > 0).view(np.int8) * small(n)
    # the digit of letter j after letter j - 1, and of the inverse of letter
    # j - 1 after the inverse of letter j
    forward = codes[1:] - (codes[1:] > inverses[:-1])
    backward = inverses[:-1] - (inverses[:-1] > codes[1:])
    ranks = []
    for lo, hi in bounds:
        rank = codes[lo].astype(np.int64)
        for j in range(lo + 1, hi):
            rank *= 2 * n - 1
            rank += forward[j - 1]
        inverse_rank = inverses[hi - 1].astype(np.int64)
        for j in range(hi - 2, lo - 1, -1):
            inverse_rank *= 2 * n - 1
            inverse_rank += backward[j]
        ranks.append((rank, inverse_rank))
    return ranks


def word_count(n: int, l: int) -> int:
    """|W_l| = 2n(2n-1)^(l-1)."""
    if n < 1 or l < 1:
        raise InputError("need n >= 1 and l >= 1")
    return 2 * n * (2 * n - 1) ** (l - 1)


def _log10_above(n: int, l: int, bound: float) -> bool:
    """Whether log10 |W_l| surely exceeds `bound`, decided without |W_l|."""
    q = 2 * n - 1
    return q > 1 and l - 1 > (bound - math.log10(2 * n)) / math.log10(q)


def word_count_exceeds(n: int, l: int, cap: int) -> bool:
    """|W_l| > cap, without building |W_l| when it is far above the cap."""
    if n < 1 or l < 1:
        raise InputError("need n >= 1 and l >= 1")
    if cap < 1 or _log10_above(n, l, math.log10(cap) + 1):
        return True
    return word_count(n, l) > cap


def word_count_text(n: int, l: int) -> str:
    """|W_l| in digits or, when it has too many digits to print, as
    2n*(2n-1)^(l-1)."""
    if not _log10_above(n, l, _PRINT_DIGITS):
        try:
            return str(word_count(n, l))
        except ValueError:  # above the interpreter's int -> str digit limit
            pass
    return f"{2 * n}*{2 * n - 1}^{l - 1}"


def cyclic_count_text(n: int, lo: int, hi: int) -> str:
    """|C(n, lo)| + ... + |C(n, hi)| for n >= 2 in digits or, when it has too
    many digits to print, as its terms (2n-1)^l + (2n-1) for even l and
    (2n-1)^l + 1 for odd l."""
    q = 2 * n - 1
    if not _log10_above(n, hi, _PRINT_DIGITS):  # |C(n, l)| < |W_l|
        try:
            return str(sum(cyclically_reduced_count(n, l) for l in range(lo, hi + 1)))
        except ValueError:  # above the interpreter's int -> str digit limit
            pass
    first, last = (f"{q}^{l}+{q if l % 2 == 0 else 1}" for l in (lo, hi))
    return first if lo == hi else f"{first}+...+{last}"


def check_enumerable(n: int, l: int) -> None:
    """Raise ResourceCapError before W_l is built if it is too large.

    |W_l| is bounded by ENUMERATION_CAP, read on each call.  For n = 1,
    |W_l| = 2 whatever l is, so there the letters 2l are bounded by the cap as
    well; for n >= 2 the word bound already limits l to about log_3(cap), and
    this second bound never applies.
    """
    cap = ENUMERATION_CAP
    if word_count_exceeds(n, l, cap):
        raise ResourceCapError(
            f"|W_{l}| = {word_count_text(n, l)} exceeds enumeration cap {cap}"
        )
    if n == 1 and 2 * l > cap:
        raise ResourceCapError(f"W_{l} has {2 * l} letters, above enumeration cap {cap}")


def iter_reduced(n: int, l: int) -> Iterator[Word]:
    """Stream all freely reduced length-l words in canonical order.

    The walk keeps one iterator over the alphabet per letter of the prefix,
    so the word length is not bounded by the recursion limit.
    """
    if n < 1 or l < 1:
        raise InputError("need n >= 1 and l >= 1")
    alphabet = [unflatten_letter(c, n) for c in range(1, 2 * n + 1)]
    prefix: list[int] = []
    choices = [iter(alphabet)]
    while choices:
        for x in choices[-1]:
            if not prefix or prefix[-1] != -x:
                prefix.append(x)
                break
        else:  # this position is exhausted: back up one letter
            choices.pop()
            if prefix:
                prefix.pop()
            continue
        if len(prefix) == l:
            yield tuple(prefix)
            prefix.pop()
        else:
            choices.append(iter(alphabet))


def enumerate_reduced(n: int, l: int) -> list[Word]:
    """All freely reduced words of length l, canonical order."""
    check_enumerable(n, l)
    return list(iter_reduced(n, l))


def reduced_labels(n: int, l: int) -> list[str]:
    """`[word_to_label(w) for w in enumerate_reduced(n, l)]`, built from the
    labels of W_{ceil(l/2)} and W_{floor(l/2)} instead of word by word."""
    check_enumerable(n, l)
    return _joined_labels(n, l)[0]


def _joined_labels(n: int, l: int) -> tuple[list[str], list[int]]:
    """Labels of W_l in canonical order, and each word's last letter as a
    0-based flattened code.

    Canonical order is lexicographic, so W_l lists each head of W_{ceil(l/2)}
    in order, each followed by the tails of W_{floor(l/2)} in order that do
    not start with the inverse of its last letter.  The tails fall into 2n
    equal blocks, one per first letter.
    """
    m = 2 * n
    if l == 1:
        return [word_to_label((unflatten_letter(c + 1, n),)) for c in range(m)], list(range(m))
    heads, head_last = _joined_labels(n, (l + 1) // 2)
    tails, tail_last = (heads, head_last) if l % 2 == 0 else _joined_labels(n, l // 2)
    size = len(tails) // m
    follow = []  # for a head ending in code c: the tails that may follow it
    for c in range(m):
        lo = (c + n) % m * size
        follow.append((tails[:lo] + tails[lo + size :], tail_last[:lo] + tail_last[lo + size :]))
    labels = [h + t for h, c in zip(heads, head_last) for t in follow[c][0]]
    last = [x for c in head_last for x in follow[c][1]]
    return labels, last


def enumerate_cyclically_reduced(n: int, k: int) -> list[Word]:
    """All cyclically reduced words of length k, canonical order."""
    check_enumerable(n, k)  # |W_k| bounds |C(n, k)|
    return [w for w in iter_reduced(n, k) if is_cyclically_reduced(w)]


def cyclically_reduced_count(n: int, k: int) -> int:
    """|C(n, k)| = (2n-1)^k + 1 + (n-1)(1 + (-1)^k)."""
    if n < 1 or k < 1:
        raise InputError("need n >= 1 and k >= 1")
    return (2 * n - 1) ** k + 1 + (n - 1) * (1 + (-1) ** k)


def unrank_cyclically_reduced_letters(n: int, k: int, ranks: Iterable[int]) -> np.ndarray:
    """The words at `ranks` in the canonical order of C(n, k), as the rows of
    an int64 (len(ranks), k) array of signed letters.

    Equals `[enumerate_cyclically_reduced(n, k)[i] for i in ranks]` without
    building C(n, k): each rank is walked digit by digit, the candidate
    letters (in flattened-code order) owning consecutive rank intervals as
    wide as the number of cyclically reduced completions after them.  After
    the first letter f, with r letters still to come, that width is
    `other[r]` for every letter but one: f is one wider when r is odd, and
    f^-1 one narrower when r is even.  So each letter is one floor division,
    shifted by one past that odd letter's interval.
    """
    m = 2 * n
    total = cyclically_reduced_count(n, k)
    dtype = np.int64 if total < 2**63 else object
    ranks = np.array(ranks, dtype=dtype, ndmin=1)
    if ranks.size and not (0 <= ranks.min() and ranks.max() < total):
        raise InputError(f"rank outside [0, {total}) of C({n}, {k})")
    # other[r]: the reduced r-letter continuations, not ending in f^-1, after
    # a letter that is neither f nor f^-1
    other = [1]
    for r in range(1, k):
        other.append((m - 1) * other[-1] + (-1) ** r)
    words = np.empty((ranks.size, k), dtype=np.int64)
    for lo in range(0, ranks.size, _UNRANK_BLOCK):
        codes = words[lo : lo + _UNRANK_BLOCK].T  # 0-based flattened codes, then letters
        rest = ranks[lo : lo + _UNRANK_BLOCK]
        first = rest // (total // m)
        rest = rest - first * (total // m)
        codes[0] = prev = first = first.astype(np.int64, copy=False)
        first_inverse = (first + n) % m
        for i in range(1, k):
            r = k - 1 - i
            # at n = 1 every other[r] of odd r is 0, no letter but f has that
            # width, and every rest is 0
            width = max(other[r], 1)
            odd = first if r % 2 else first_inverse
            banned = (prev + n) % m
            live = odd != banned  # the odd letter is a candidate
            at = odd - (odd > banned)  # its place among the candidates
            end = (at.astype(dtype, copy=False) + 1) * width
            if r % 2:  # f's interval holds one rank more, `end`
                shifted = rest - (live & (rest >= end))
                digit = shifted // width
                rest = shifted - digit * width + (live & (rest == end))
            else:  # f^-1's interval holds one rank fewer, and ends before `end - 1`
                shifted = rest + (live & (rest >= end - 1))
                digit = shifted // width
                rest = shifted - digit * width
            digit = digit.astype(np.int64, copy=False)
            codes[i] = prev = digit + (digit >= banned)
        inverses = codes >= n
        codes += 1
        np.subtract(n, codes, out=codes, where=inverses)
    return words


def class_index(w: Word, n: int) -> int:
    """Flattened code of the first letter of w."""
    if not w:
        raise InputError("class_index of empty word")
    return flatten_letter(w[0], n)


def split_lengths(k: int) -> tuple[int, int, int]:
    """Piece lengths (|r_x|, |r_y|, |r_z|) for a length-k relator."""
    if k < 3:
        raise InputError("need k >= 3")
    r = k % 3
    if r == 0:
        return (k // 3, k // 3, k // 3)
    if r == 1:
        return ((k - 1) // 3, (k - 1) // 3, (k + 2) // 3)
    return ((k + 1) // 3, (k + 1) // 3, (k - 2) // 3)


def critical_density(k: int) -> Fraction:
    """d_k = (k + (-k mod 3)) / 3k, as an exact rational."""
    if k < 3:
        raise InputError("need k >= 3")
    return Fraction(k + ((-k) % 3), 3 * k)


def word_to_text(w: Word) -> str:
    """Whitespace-separated token form, e.g. 'g1 g2 G1'."""
    return " ".join(f"g{x}" if x > 0 else f"G{-x}" for x in w)


def letter_from_token(tok: str) -> int:
    """The letter of one g<i> / G<i> token."""
    m = _TOKEN_RE.fullmatch(tok)
    if m is None:
        raise InputError(f"malformed word token {tok!r}")
    i = int(m.group(2))
    if i < 1:
        raise InputError(f"generator index must be >= 1, got {tok!r}")
    return i if m.group(1) == "g" else -i


def word_to_label(w: Word) -> str:
    """Space-free token form used as a graph vertex label, e.g. 'g1g2G1'."""
    return "".join(f"g{x}" if x > 0 else f"G{-x}" for x in w)


def word_from_label(label: str) -> Word:
    parts = _TOKEN_RE.findall(label)
    if "".join(s + d for s, d in parts) != label:
        raise InputError(f"malformed vertex label {label!r}")
    return tuple(int(d) if s == "g" else -int(d) for s, d in parts)
