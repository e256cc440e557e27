"""Computations the package made before it made them faster, kept as
oracles: a 2n x k x 2n table of completion counts that unranks C(n, k) with a
cumsum over all 2n letters per digit, a ranking of W_l that takes each piece
of Delta_k's relators apart, lambda_1 from ARPACK's restarted Lanczos
(`eigsh`), and the reduced models drawn one pair at a time over an enumerated
W_l together with the couplings that extend them to unrestricted ones."""

import numpy as np

from spectralt import spectra
from spectralt import words as W
from spectralt.multigraph import edge_key

from graphs import graph


def _completions(inverse, k, dtype):
    """table[f, r, c]: reduced r-letter continuations after the letter c whose
    last letter is not the inverse of the first letter f (0-based codes)."""
    m = len(inverse)
    table = np.ones((m, k, m), dtype=dtype)
    table[np.arange(m), 0, inverse] = 0
    for r in range(1, k):
        prev = table[:, r - 1, :]
        table[:, r, :] = prev.sum(axis=1, keepdims=True) - prev[:, inverse]
    return table


def _pick(counts, ranks):
    """Per row, the letter whose rank interval holds the rank, and the rank
    within that interval; the letters' intervals have widths `counts`."""
    ends = counts.cumsum(axis=1)
    letter = (ends <= ranks[:, None]).sum(axis=1)
    rows = np.arange(len(ranks))
    return letter, ranks - ends[rows, letter] + counts[rows, letter]


def unrank_by_table(n, k, ranks):
    """`W.unrank_cyclically_reduced_letters(n, k, ranks)`, digit by digit over
    the table of completion counts."""
    m = 2 * n
    total = W.cyclically_reduced_count(n, k)
    dtype = np.int64 if total < 2**63 else object
    ranks = np.array(ranks, dtype=dtype, ndmin=1)
    inverse = (np.arange(m) + n) % m
    table = _completions(inverse, k, dtype)
    first_counts = table[np.arange(m), k - 1, np.arange(m)]
    letters = np.array([W.unflatten_letter(c, n) for c in range(1, m + 1)], dtype=np.int64)
    codes = np.empty((ranks.size, k), dtype=np.intp)
    if not ranks.size:
        return codes.astype(np.int64)
    first, rest = _pick(np.tile(first_counts, (ranks.size, 1)), ranks)
    codes[:, 0] = first
    for i in range(1, k):
        counts = table[first, k - 1 - i]
        counts[np.arange(rest.size), inverse[codes[:, i - 1]]] = 0
        codes[:, i], rest = _pick(counts, rest)
    return letters[codes]


def rank_reduced(n, words):
    """Index of each row of `words`, a freely reduced word of signed letters,
    in `W.enumerate_reduced(n, l)`: the first letter's flattened code is the
    leading digit, and each later letter a base-(2n-1) digit, its code less
    one if it follows the previous letter's inverse."""
    code = np.concatenate([np.arange(2 * n - 1, n - 1, -1), [0], np.arange(n)])
    inverse = (np.arange(2 * n) + n) % (2 * n)
    codes = code[words + n]
    if not len(codes):
        return np.zeros(0, dtype=np.int64)
    rank = codes[:, 0].copy()
    for i in range(1, codes.shape[1]):
        rank = rank * (2 * n - 1) + codes[:, i] - (codes[:, i] > inverse[codes[:, i - 1]])
    return rank


def link_edges(p, k):
    """`delta._link_edges(p, k)`, each piece and each inverse piece cut out of
    the relators and ranked on its own."""
    letters, offsets = p.letters, p.offsets
    starts = offsets[:-1][np.diff(offsets) == k]
    rel = letters[starts[:, None] + np.arange(k)]
    a, b, c = W.split_lengths(k)
    x, y, z = rel[:, :a], rel[:, a : a + b], rel[:, a + b :]
    z_at = W.word_count(p.n, a) if c != a else 0

    def rank(w, at=0):
        return rank_reduced(p.n, w) + at

    def inv(w):
        return -w[:, ::-1]

    return (
        (rank(x), rank(inv(z), z_at)),
        (rank(y), rank(inv(x))),
        (rank(z, z_at), rank(inv(y))),
    )


def eigsh_lambda1(g):
    """`spectra._lanczos(g)` as ARPACK computed it: one Ritz pair of
    L + 2 x0 x0^T from `eigsh` to tol = LANCZOS_TOL, started from the same
    vector; None if ARPACK fails or the residual gate does."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    lap, x0 = spectra._sparse_laplacian(g)
    matvecs = 0

    def shifted(x):
        nonlocal matvecs
        matvecs += 1
        return lap @ x + (2 * (x0 @ x)) * x0

    try:
        vals, vecs = eigsh(
            LinearOperator(lap.shape, matvec=shifted, dtype=float),
            k=1, which="SA", tol=spectra.LANCZOS_TOL,
            v0=spectra._start_vector(g.num_vertices()),
        )
    except ArpackError:
        return None
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    residual = float(np.linalg.norm(lap @ x - vals[0] * x))
    if not residual <= spectra.LANCZOS_MAX_RESIDUAL:
        return None
    return spectra.Lambda1Solve(float(vals[0]), "lanczos", residual, matvecs)


def old_universe(n, l):
    """Labels and class indices (first-letter codes) of W_l, enumerated word
    by word."""
    ws = W.enumerate_reduced(n, l)
    return [W.word_to_label(w) for w in ws], [W.class_index(w, n) for w in ws]


def old_coupled_red(n, l, p, seed):
    """(G, G'): G the reduced model on W_l, two Bernoulli(p) draws per
    cross-class pair, one scalar draw at a time in row-major order; G' the
    coupling's G(|W_l|, 2p - p^2) >= G, G's edges collapsed to one copy and
    then each same-class pair drawn with probability 2p - p^2 from the same
    generator."""
    rng = seed.rng()
    labels, classes = old_universe(n, l)
    m = len(labels)
    edges = {}
    for i in range(m):
        for j in range(i + 1, m):
            if classes[i] == classes[j]:
                continue
            mult = int(rng.random() < p) + int(rng.random() < p)
            if mult:
                edges[edge_key(labels[i], labels[j])] = mult
    extended = {key: 1 for key in edges}
    for i in range(m):
        for j in range(i + 1, m):
            if classes[i] == classes[j] and rng.random() < 2 * p - p * p:
                extended[edge_key(labels[i], labels[j])] = 1
    return graph(labels, edges), graph(labels, extended)


def old_coupled_bred(n, l, p, seed):
    """(G, G'): G the bipartite reduced model on W_l + W_{l+1}, one draw per
    pair of different classes; G' >= G the full bipartite G(|W_l|, |W_{l+1}|,
    p), the same-class pairs then filled from the same generator."""
    rng = seed.rng()
    (labels1, classes1), (labels2, classes2) = old_universe(n, l), old_universe(n, l + 1)
    partition = (labels1, labels2)
    graphs = []
    for same in (False, True):
        edges = dict(graphs[0].edges) if graphs else {}
        for i, v in enumerate(labels1):
            for j, w in enumerate(labels2):
                if (classes1[i] == classes2[j]) == same and rng.random() < p:
                    edges[edge_key(v, w)] = 1
        graphs.append(graph(labels1 + labels2, edges, partition=partition))
    return tuple(graphs)
