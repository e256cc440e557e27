"""Seeded samplers for the random graph and random group models.

Every sampler is a pure function of (parameters, Seed); distinct stream_ids
give independent, order-free streams for parallel sweeps.  Reproducibility is
promised within this artifact only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import words as W
from .delta import Presentation
from .errors import InputError, ResourceCapError
from .multigraph import MultiGraph

# most vertex pairs the red, bred, gnp and bgnp models may draw
PAIR_CAP = 10**8


@dataclass(frozen=True)
class Seed:
    value: int
    stream_id: int = 0

    def __post_init__(self):
        # None would draw fresh entropy: the stream would not repeat
        seeds = (self.value, self.stream_id)
        if not all(isinstance(x, (int, np.integer)) and x >= 0 for x in seeds):
            raise InputError("seed and stream must be integers >= 0")

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.value, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def __str__(self) -> str:
        return f"{self.value}:{self.stream_id}"


def _pair_labels(prefix: str, m: int) -> list[str]:
    width = len(str(m))
    return [f"{prefix}{i:0{width}d}" for i in range(1, m + 1)]


def _bernoulli(rng: np.random.Generator, shape, p: float, what: str) -> np.ndarray:
    """`rng.random(shape) < p`, or a ResourceCapError where the allocator
    refuses the draw, of at most PAIR_CAP vertex pairs."""
    try:
        return rng.random(shape) < p
    except MemoryError:
        raise ResourceCapError(f"{what}: its vertex pairs are too many to draw")


def _check_pairs(pairs: int, what: str) -> None:
    """Refuse a model that would draw more than PAIR_CAP vertex pairs."""
    if pairs > PAIR_CAP:
        raise ResourceCapError(f"{what} = {pairs} vertex pairs exceed pair cap {PAIR_CAP}")


def sample_gnp(m: int, p: float, seed: Seed) -> MultiGraph:
    """Erdos-Renyi G(m, p): each of the C(m,2) pairs independently, no loops,
    drawn a row (i, i+1..m-1) at a time as the reduced models draw theirs."""
    if m < 1 or not 0.0 <= p <= 1.0:
        raise InputError("need m >= 1 and p in [0, 1]")
    _check_pairs(m * (m - 1) // 2, f"C({m}, 2)")
    rng = seed.rng()
    u, v = _row_edges([_hits(rng, p, np.arange(i + 1, m)) for i in range(m)])
    return MultiGraph(_pair_labels("u", m), u, v)


def sample_bipartite_gnp(m1: int, m2: int, p: float, seed: Seed) -> MultiGraph:
    """Erdos-Renyi bipartite G(m1, m2, p), partitioned output, drawn in blocks
    of V1 rows of about 2^16 pairs: for PCG64 the numbers one m1 x m2 draw
    yields, in O(m2 + 2^16) memory and few calls when m2 is small."""
    if m1 < 1 or m2 < 1 or not 0.0 <= p <= 1.0:
        raise InputError("need m1, m2 >= 1 and p in [0, 1]")
    _check_pairs(m1 * m2, f"{m1} * {m2}")
    rng = seed.rng()
    what = f"G(m1, m2, p) on m1 = {m1}, m2 = {m2}"
    step = max(1, 2**16 // m2)  # V1 rows per block
    starts = range(0, m1, step)
    blocks = [np.nonzero(_bernoulli(rng, (min(step, m1 - a), m2), p, what)) for a in starts]
    u = np.concatenate([a + i for a, (i, _) in zip(starts, blocks)])
    v = np.concatenate([j for _, j in blocks])
    labels = _pair_labels("u", m1) + _pair_labels("v", m2)
    return MultiGraph(labels, u, m1 + v, side=np.arange(m1 + m2) < m1)


def _universe_size(n: int, l: int) -> int:
    """|W_l|, or the ResourceCapError that enumerating W_l would raise."""
    W.check_enumerable(n, l)
    return W.word_count(n, l)


def _word_universe(n: int, l: int) -> tuple[list[str], np.ndarray]:
    """Labels and classes (first-letter codes) of W_l in canonical order: the
    words of each first letter fill one block of (2n-1)^(l-1)."""
    labels = W.reduced_labels(n, l)
    return labels, np.arange(len(labels)) // (2 * n - 1) ** (l - 1) + 1


def _hits(rng: np.random.Generator, p: float, js: np.ndarray) -> np.ndarray:
    """The j of `js` whose Bernoulli(p) draw, one per j in order, succeeds."""
    return js[rng.random(len(js)) < p]


def _row_edges(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) arrays of the edges {i, j} for every j in rows[i]."""
    u = np.repeat(np.arange(len(rows)), [len(js) for js in rows])
    return u, np.concatenate([np.zeros(0, dtype=np.int64), *rows])


def sample_red(n: int, l: int, p: float, seed: Seed) -> MultiGraph:
    """Reduced random graph on W_l.

    Each unordered cross-class pair gets two independent Bernoulli(p) draws
    (one per direction), each success adding 1 to the multiplicity; same-class
    pairs are forbidden.  Max multiplicity 2.  Row i of the pairs (i, j > i)
    is one `rng.random` call, which for PCG64 draws what one call per pair
    would, in O(|W_l|) memory.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError("need p in [0, 1]")
    size = _universe_size(n, l)
    _check_pairs(size * (size - 1) // 2, f"C(|W_{l}|, 2)")
    labels, classes = _word_universe(n, l)
    rng = seed.rng()
    rows, mults = [], []
    for i, c in enumerate(classes):
        js = i + 1 + np.flatnonzero(classes[i + 1 :] != c)
        mult = (rng.random((len(js), 2)) < p).sum(axis=1)
        hit = mult > 0
        rows.append(js[hit])
        mults.append(mult[hit])
    u, v = _row_edges(rows)
    return MultiGraph(labels, u, v, np.concatenate(mults))


def sample_bred(n: int, l: int, p: float, seed: Seed) -> MultiGraph:
    """Reduced random bipartite graph, V1 = W_l, V2 = W_{l+1}.

    The pair (v, w) is forbidden when w lies in the class-index block of v's
    class (the concatenation constraint inherited from cyclic reduction);
    all other cross pairs appear independently with probability p.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError("need p in [0, 1]")
    if l < 3:
        raise InputError("the model is declared for l >= 3")
    pairs = _universe_size(n, l) * _universe_size(n, l + 1)
    _check_pairs(pairs, f"|W_{l}| * |W_{l + 1}|")
    labels1, classes1 = _word_universe(n, l)
    labels2, classes2 = _word_universe(n, l + 1)
    rng = seed.rng()
    u, v = _row_edges([_hits(rng, p, np.flatnonzero(classes2 != c)) for c in classes1])
    side = np.arange(len(labels1) + len(labels2)) < len(labels1)
    return MultiGraph(labels1 + labels2, u, len(labels1) + v, side=side)


def strict_model_size(n: int, k: int, d: float) -> int:
    """floor((2n-1)^(kd)), with a tiny guard against float round-down."""
    try:
        return int(math.floor((2 * n - 1) ** (k * d) + 1e-9))
    except (OverflowError, ValueError):  # (2n-1)^(kd) is no finite float
        raise InputError(f"model size {2 * n - 1}^({k}*{d}) is not a finite count")


def _universe_sizes(n: int, lo: int, hi: int) -> list[int]:
    """|C(n, l)| for l = lo..hi, the universe the presentation samplers rank,
    or a ResourceCapError if its total reaches 2^63, where numpy draws no
    rank.  A logarithm decides first, so no (2n-1)^hi far above that is
    built; under it hi is small, and so is the list."""
    if hi < 20 / math.log10(2 * n - 1):  # (2n-1)^hi < 10^20, hi kept an int
        sizes = [W.cyclically_reduced_count(n, l) for l in range(lo, hi + 1)]
        if sum(sizes) < 2**63:
            return sizes
    what = f"|C({n}, {lo})|" if lo == hi else f"|C({n}, {lo})| + ... + |C({n}, {hi})|"
    raise ResourceCapError(
        f"{what} = {W.cyclic_count_text(n, lo, hi)} exceeds int64 rank cap {2**63 - 1}"
    )


def _uniform_ranks(total: int, size: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """`size` distinct ranks of a universe of `total` words of at most
    `length` letters, drawn uniformly.

    `Generator.choice` draws them with Floyd's algorithm in O(size) memory
    when total > 10^4 and size <= total // 50, and otherwise shuffles all of
    `arange(total)`; the words unranked from them take up to size * length
    letters.  The caps bound what both allocate, before they do.
    """
    if size > total:
        raise InputError(
            f"requested {size} relators but the universe has {total}"
        )
    cap = W.ENUMERATION_CAP
    if size > cap:
        raise ResourceCapError(f"{size} relators exceed enumeration cap {cap}")
    if size > total // 50 and total > cap:
        raise ResourceCapError(
            f"drawing {size} of {total} words shuffles all {total}, above enumeration cap {cap}"
        )
    if size * length > cap:
        raise ResourceCapError(
            f"{size} relators of up to {length} letters: {size * length} letters "
            f"exceed enumeration cap {cap}"
        )
    return np.sort(rng.choice(total, size=size, replace=False))


def _draw_window(
    n: int, lo: int, sizes: list[int], count: int, rng: np.random.Generator, k: int | None
) -> Presentation:
    """`count` distinct words drawn uniformly from C(n, lo), C(n, lo + 1), ...,
    whose sizes are `sizes`, concatenated in that order; the presentation
    records the relator length k (None: lengths vary)."""
    hi = lo + len(sizes) - 1
    offsets = np.cumsum([0] + sizes)
    ranks = _uniform_ranks(int(offsets[-1]), count, hi, rng)
    letters, starts, end = [], [np.zeros(1, dtype=np.int64)], 0
    for l, a, b in zip(range(lo, hi + 1), offsets, offsets[1:]):
        words = W.unrank_cyclically_reduced_letters(n, l, ranks[(a <= ranks) & (ranks < b)] - a)
        letters.append(words.reshape(-1))
        starts.append(end + l * np.arange(1, len(words) + 1, dtype=np.int64))
        end += words.size
    return Presentation._from_arrays(n, np.concatenate(letters), np.concatenate(starts), k)


def check_strict_params(n: int, k: int, d: float) -> None:
    """The checks of `sample_gamma_strict` that no seed changes."""
    if n < 2 or k < 3 or not 0.0 < d < 1.0:
        raise InputError("need n >= 2, k >= 3, d in (0, 1)")


def check_p_params(n: int, k: int, p: float) -> None:
    """The checks of `sample_gamma_p` that no seed changes."""
    if n < 2 or k < 3 or not 0.0 <= p <= 1.0:
        raise InputError("need n >= 2, k >= 3, p in [0, 1]")


def check_lax_params(n: int, k: int, d: float, f: int) -> None:
    """The checks of `sample_gamma_lax` that no seed changes."""
    if f < 0 or f >= k:
        raise InputError("need 0 <= f(k) < k")
    if k - f < 3:
        raise InputError("need k - f(k) >= 3")
    if not 0.0 < d < 1.0:  # NaN too
        raise InputError("need d in (0, 1)")
    if n < 2:
        raise InputError("need n >= 2")


def sample_gamma_strict(n: int, k: int, d: float, seed: Seed) -> Presentation:
    """Strict model: a uniform size-floor((2n-1)^(kd)) subset of C(n, k), the
    lax window at f = 0 with k recorded."""
    check_strict_params(n, k, d)
    sizes = _universe_sizes(n, k, k)
    return _draw_window(n, k, sizes, strict_model_size(n, k, d), seed.rng(), k)


def sample_gamma_p(n: int, k: int, p: float, seed: Seed) -> Presentation:
    """Bernoulli model: each word of C(n, k) kept independently with prob p.

    Drawn as the same law in O(kept words): a count K ~ Binomial(|C(n, k)|, p),
    then a uniform K-subset, as the strict model draws its subset.
    """
    check_p_params(n, k, p)
    sizes = _universe_sizes(n, k, k)
    rng = seed.rng()
    return _draw_window(n, k, sizes, int(rng.binomial(sizes[0], p)), rng, k)


def sample_gamma_lax(n: int, k: int, d: float, f: int, seed: Seed) -> Presentation:
    """Lax model: uniform subset drawn from all lengths in [k-f, k+f].

    The universe is C(n, k-f), ..., C(n, k+f) concatenated in that order.
    """
    check_lax_params(n, k, d, f)
    sizes = _universe_sizes(n, k - f, k + f)
    return _draw_window(n, k - f, sizes, strict_model_size(n, k, d), seed.rng(), None)
