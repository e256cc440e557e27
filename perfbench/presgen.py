"""Seeded generator of random presentations for the benchmark.

It draws distinct cyclically reduced words of length k by vectorised
rejection: a uniform freely reduced word is kept when its last letter is not
the inverse of its first, which leaves the uniform law on C(n, k).  The size
is the strict-model size m = floor((2n-1)^(k*d)).  The generator uses none of
spectralt's samplers, so the inputs stay fixed when those samplers change.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def strict_size(n: int, k: int, d: float) -> int:
    """floor((2n-1)^(k*d)), with the same guard against float round-down."""
    return int(math.floor((2 * n - 1) ** (k * d) + 1e-9))


def cyclic_count(n: int, k: int) -> int:
    """|C(n, k)| = (2n-1)^k + 1 + (n-1)(1 + (-1)^k)."""
    return (2 * n - 1) ** k + 1 + (n - 1) * (1 + (-1) ** k)


def random_words(n: int, k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct cyclically reduced words as an (m, k) array of signed letters.

    Letters are coded 0..2n-1 while drawing (c < n is a_{c+1}, c >= n its
    inverse); words are kept in the order they were first drawn.
    """
    if n < 1 or k < 3:
        raise ValueError("need n >= 1 and k >= 3")
    if m > cyclic_count(n, k):
        raise ValueError(f"{m} distinct words requested but |C({n},{k})| is smaller")
    if k * math.log2(2 * n) >= 63:
        raise ValueError("words do not fit a 63-bit key")
    q = 2 * n
    place = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = np.empty((0, k), dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    while len(codes) < m:
        batch = max(2 * (m - len(codes)), 1024)
        w = np.empty((batch, k), dtype=np.int64)
        w[:, 0] = rng.integers(0, q, size=batch)
        for i in range(1, k):
            u = rng.integers(0, q - 1, size=batch)
            inv_prev = (w[:, i - 1] + n) % q
            w[:, i] = u + (u >= inv_prev)
        w = w[w[:, -1] != (w[:, 0] + n) % q]
        codes = np.concatenate([codes, w])
        keys = np.concatenate([keys, w @ place])
        first = np.sort(np.unique(keys, return_index=True)[1])
        codes, keys = codes[first], keys[first]
    codes = codes[:m]
    return np.where(codes < n, codes + 1, n - codes - 1)


def presentation_text(n: int, k: int, words: np.ndarray) -> str:
    """The presentation file format read by `spectralt certify`."""
    lines = [f"n {n}", f"k {k}"]
    lines.extend(
        " ".join(f"g{x}" if x > 0 else f"G{-x}" for x in row) for row in words.tolist()
    )
    return "\n".join(lines) + "\n"


def write_presentation(path: Path, n: int, k: int, d: float, seed: int) -> np.ndarray:
    """Write a strict-size presentation drawn from `seed`; return its words."""
    rng = np.random.default_rng(seed)
    words = random_words(n, k, strict_size(n, k, d), rng)
    path.write_text(presentation_text(n, k, words))
    return words

