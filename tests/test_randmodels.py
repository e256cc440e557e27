import functools
import math

import numpy as np
import pytest

from spectralt import words as W
from spectralt.delta import Presentation, build_delta_k
from spectralt.errors import InputError, ResourceCapError
from spectralt.multigraph import MultiGraph, edge_key
from spectralt import randmodels
from spectralt.randmodels import (
    PAIR_CAP,
    Seed,
    _bernoulli,
    _uniform_ranks,
    _word_universe,
    sample_bipartite_gnp,
    sample_bred,
    sample_gamma_lax,
    sample_gamma_p,
    sample_gamma_strict,
    sample_gnp,
    sample_red,
    strict_model_size,
)

from graphs import sides
from oracles import old_coupled_bred, old_coupled_red, old_universe


class TestSeed:
    def test_repeatable(self):
        a = Seed(42, 3).rng().integers(0, 1 << 30, 10)
        b = Seed(42, 3).rng().integers(0, 1 << 30, 10)
        assert (a == b).all()

    def test_streams_differ(self):
        a = Seed(42, 0).rng().integers(0, 1 << 30, 10)
        b = Seed(42, 1).rng().integers(0, 1 << 30, 10)
        assert not (a == b).all()

    def test_str(self):
        assert str(Seed(7, 2)) == "7:2"


class TestGnp:
    def test_extremes(self):
        g = sample_gnp(6, 0.0, Seed(0))
        assert g.num_edges() == 0 and g.num_vertices() == 6
        g = sample_gnp(6, 1.0, Seed(0))
        assert g.num_edges() == 15

    def test_determinism(self):
        assert sample_gnp(10, 0.4, Seed(5, 1)) == sample_gnp(10, 0.4, Seed(5, 1))

    def test_bipartite(self):
        g = sample_bipartite_gnp(3, 4, 1.0, Seed(0))
        assert g.num_edges() == 12
        assert g.side is not None

    def test_more_pairs_than_the_enumeration_cap(self):
        # 4500 vertices: 10,122,750 pairs, above ENUMERATION_CAP
        assert sample_gnp(4500, 0.0, Seed(0)).num_vertices() == 4500
        assert sample_bipartite_gnp(3200, 3200, 0.0, Seed(0)).num_vertices() == 6400

    def test_pair_cap_comes_before_the_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pairs drawn above the pair cap")

        monkeypatch.setattr(randmodels, "_hits", refuse)  # G(m, p)'s row draws
        monkeypatch.setattr(randmodels, "_bernoulli", refuse)  # G(m1, m2, p)'s one draw
        with pytest.raises(ResourceCapError) as err:
            sample_gnp(10**12, 0.3, Seed(0))
        assert str(err.value) == (
            f"C(1000000000000, 2) = {10**12 * (10**12 - 1) // 2} vertex pairs exceed "
            f"pair cap {PAIR_CAP}"
        )
        with pytest.raises(ResourceCapError) as err:
            sample_bipartite_gnp(2, 10**12, 0.3, Seed(0))
        assert str(err.value) == (
            f"2 * 1000000000000 = 2000000000000 vertex pairs exceed pair cap {PAIR_CAP}"
        )
        # C(630, 2) = 198,135 pairs and 450 * 441 = 198,450
        monkeypatch.setattr(randmodels, "PAIR_CAP", 198_135)
        with pytest.raises(AssertionError, match="drawn"):
            sample_gnp(630, 0.3, Seed(0))
        with pytest.raises(ResourceCapError, match="= 198450 vertex pairs exceed"):
            sample_bipartite_gnp(450, 441, 0.3, Seed(0))

    def test_a_draw_numpy_cannot_allocate_is_a_resource_cap(self):
        class OutOfMemory:
            def random(self, shape):
                raise MemoryError

        with pytest.raises(ResourceCapError, match="too many to draw"):
            _bernoulli(OutOfMemory(), 10, 0.5, "G(m, p) on m = 5")

    def test_marginals(self):
        trials = 400
        hits = sum(
            sample_gnp(4, 0.3, Seed(9, i)).edges.get(edge_key("u1", "u2"), 0)
            for i in range(trials)
        )
        sigma = math.sqrt(trials * 0.3 * 0.7)
        assert abs(hits - trials * 0.3) <= 4 * sigma


class TestRed:
    def test_no_same_class_edges(self):
        for i in range(50):
            g = sample_red(2, 2, 0.6, Seed(10, i))
            for u, v in g.edges:
                cu = W.class_index(W.word_from_label(u), 2)
                cv = W.class_index(W.word_from_label(v), 2)
                assert cu != cv

    def test_multiplicity_at_most_two(self):
        for i in range(20):
            g = sample_red(2, 2, 1.0, Seed(11, i))
            assert max(g.edges.values()) <= 2

    def test_p1_is_complete_cross_class(self):
        g = sample_red(2, 1, 1.0, Seed(0))
        # 4 single letters, all cross pairs doubled
        assert g.num_vertices() == 4
        assert all(m == 2 for m in g.edges.values())
        assert len(g.edges) == 6

    def test_vertex_set_is_all_words(self):
        g = sample_red(2, 2, 0.0, Seed(0))
        assert g.num_vertices() == W.word_count(2, 2) == 12
        assert g.num_edges() == 0


class TestBred:
    def test_no_forbidden_pairs(self):
        # labels recur across seeds, so each one's class is parsed once
        label_class = functools.cache(
            lambda label: W.class_index(W.word_from_label(label), 2)
        )
        for i in range(50):
            g = sample_bred(2, 3, 0.6, Seed(12, i))
            for u, v in g.edges:
                assert label_class(u) != label_class(v)

    def test_bipartite_between_consecutive_lengths(self):
        g = sample_bred(2, 3, 0.5, Seed(13, 0))
        assert g.side is not None
        sizes = sorted([g.side.sum(), (~g.side).sum()])
        assert sizes == [W.word_count(2, 3), W.word_count(2, 4)]

    def test_short_l_guard(self):
        with pytest.raises(InputError, match=r"^the model is declared for l >= 3$"):
            sample_bred(2, 2, 0.5, Seed(0))


class TestCoupling:
    """The coupling lemmas, on the reference constructions of the oracles."""

    def test_red_containment_and_collapse(self):
        for i in range(30):
            g, g_prime = old_coupled_red(2, 2, 0.3, Seed(14, i))
            g_prime_edges = g_prime.edges
            for (u, v), m in g.edges.items():
                assert g_prime_edges.get(edge_key(u, v), 0) == 1
            assert max(g_prime_edges.values(), default=1) == 1

    def test_red_marginal_rate(self):
        trials = 500
        p = 0.3
        target = 2 * p - p * p
        hits = {}
        for i in range(trials):
            _, g_prime = old_coupled_red(2, 2, p, Seed(15, i))
            for e in g_prime.edges:
                hits[e] = hits.get(e, 0) + 1
        sigma = math.sqrt(trials * target * (1 - target))
        # cross-class pairs must hit at rate 2p - p^2
        for e, count in hits.items():
            assert abs(count - trials * target) <= 4 * sigma

    def test_bred_containment(self):
        for i in range(30):
            g, g_prime = old_coupled_bred(2, 3, 0.3, Seed(16, i))
            g_prime_edges = g_prime.edges
            for u, v in g.edges:
                assert g_prime_edges.get(edge_key(u, v), 0) >= 1


class TestGamma:
    def test_strict_size(self):
        assert strict_model_size(2, 3, 1 / 3) == 3
        assert strict_model_size(2, 6, 0.5) == 27
        p = sample_gamma_strict(2, 3, 1 / 3, Seed(17, 0))
        assert len(p.relators) == 3

    def test_strict_determinism(self):
        a = sample_gamma_strict(2, 4, 0.4, Seed(18, 2))
        b = sample_gamma_strict(2, 4, 0.4, Seed(18, 2))
        assert a == b

    def test_p_extremes(self):
        full = sample_gamma_p(2, 3, 1.0, Seed(0))
        assert len(full.relators) == 28
        empty = sample_gamma_p(2, 3, 0.0, Seed(0))
        assert empty.relators == ()

    def test_lax_lengths_in_window(self):
        for i in range(30):
            p = sample_gamma_lax(2, 5, 0.3, 1, Seed(19, i))
            assert all(4 <= len(r) <= 6 for r in p.relators)

    def test_lax_zero_slack_matches_strict(self):
        # the same window draw: only the strict sample records k
        cases = [(n, k, seed) for n in (2, 3) for k in (3, 4, 8)
                 for seed in (Seed(20, 0), Seed(21, 3))]
        for n, k, seed in cases:
            lax = sample_gamma_lax(n, k, 0.4, 0, seed)
            strict = sample_gamma_strict(n, k, 0.4, seed)
            assert np.array_equal(lax.letters, strict.letters)
            assert np.array_equal(lax.offsets, strict.offsets)
            assert (lax.k, strict.k) == (None, k)
            assert all(len(r) == k for r in lax.relators)
            assert len(lax.relators) == strict_model_size(n, k, 0.4)

    def test_lax_params_validation(self):
        with pytest.raises(InputError):
            sample_gamma_lax(2, 4, 0.3, 2, Seed(0))  # k - f < 3
        with pytest.raises(InputError):
            sample_gamma_lax(2, 4, 0.3, -1, Seed(0))
        for d in (0.0, 1.0, 1.5, -0.5, float("nan")):
            with pytest.raises(InputError, match=r"need d in \(0, 1\)"):
                sample_gamma_lax(2, 5, d, 1, Seed(0))


class TestBernoulliLaw:
    """The binomial count and uniform subset draw each word of C(n, k)
    independently with probability p: over 2000 seeds the count's mean and
    variance, and each word's inclusion frequency, match Bernoulli(p)."""

    TRIALS = 2000

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_counts_and_inclusions(self, n, k, p):
        universe = {w: i for i, w in enumerate(W.enumerate_cyclically_reduced(n, k))}
        size, trials = len(universe), self.TRIALS
        counts = np.zeros(trials)
        hits = np.zeros(size)
        for t in range(trials):
            relators = sample_gamma_p(n, k, p, Seed(60, t)).relators
            counts[t] = len(relators)
            hits[[universe[w] for w in relators]] += 1
        # the count is Binomial(size, p): its mean within 4 standard errors,
        # its variance within 15% (the sample variance's standard error is
        # sqrt(2 / trials) ~ 3.2% of it, nearly normal data)
        var = size * p * (1 - p)
        assert abs(counts.mean() - size * p) <= 4 * math.sqrt(var / trials)
        assert abs(counts.var(ddof=1) / var - 1) <= 0.15
        # each word's count is Binomial(trials, p): within 4.5 sigma, which
        # all of up to 126 words pass by chance with probability > 99.9%
        assert np.abs(hits - trials * p).max() <= 4.5 * math.sqrt(trials * p * (1 - p))


class TestNoEnumeration:
    """The presentation samplers unrank only the words they draw: at (2, 16),
    |W_16| = 57,395,628 is above the enumeration cap and nothing enumerates."""

    @pytest.fixture(autouse=True)
    def refuse_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a word universe was enumerated")

        for name in ("enumerate_reduced", "enumerate_cyclically_reduced", "iter_reduced"):
            monkeypatch.setattr(W, name, refuse)

    def test_strict_p_and_lax(self):
        total = W.cyclically_reduced_count(2, 16)
        assert W.word_count(2, 16) > W.ENUMERATION_CAP
        strict = sample_gamma_strict(2, 16, 0.45, Seed(1))
        assert strict.num_relators == strict_model_size(2, 16, 0.45) == 2724
        p = sample_gamma_p(2, 16, 1e-4, Seed(1))
        assert abs(p.num_relators - total * 1e-4) <= 4 * math.sqrt(total * 1e-4)
        lax = sample_gamma_lax(2, 16, 0.45, 1, Seed(1))
        assert lax.num_relators == 2724
        assert {len(r) for r in lax.relators} == {15, 16, 17}
        for pres in (strict, p):
            assert all(len(r) == 16 and W.is_cyclically_reduced(r) for r in pres.relators)

    def test_a_large_alphabet_is_drawn_without_a_table(self):
        # |C(10^6, 3)| < 2^63, and 77 relators are under the caps; no table of
        # completion counts over the 2*10^6 letters is built
        assert strict_model_size(10**6, 3, 0.1) == 77
        p = sample_gamma_strict(10**6, 3, 0.1, Seed(0))
        words = p.relators
        assert p.num_relators == len(set(words)) == 77
        assert all(len(w) == 3 and W.is_cyclically_reduced(w) for w in words)
        codes = [[W.flatten_letter(x, 10**6) for x in w] for w in words]
        assert codes == sorted(codes)


# The samplers as they were when they enumerated their universe word by word
# and drew one number per pair: the new ones must reproduce their streams.
# The Bernoulli model is the enumerating form of its construction since it
# draws a binomial count and then a uniform subset.  G(m, p) drew all C(m, 2)
# pairs at once, and G(m1, m2, p) all m1 * m2.  The reduced models' forms are
# in oracles.py with their couplings.  The universes are cached only to keep
# the tests fast.
old_enumerate = functools.lru_cache(maxsize=None)(W.enumerate_cyclically_reduced)


def old_uniform_subset(universe, size, rng):
    if size > len(universe):
        raise InputError(
            f"requested {size} relators but the universe has {len(universe)}"
        )
    idx = sorted(rng.choice(len(universe), size=size, replace=False))
    return tuple(universe[i] for i in idx)


def old_gamma_strict(n, k, d, seed):
    universe = old_enumerate(n, k)
    relators = old_uniform_subset(universe, strict_model_size(n, k, d), seed.rng())
    return Presentation(n, relators, k)


def old_gamma_p(n, k, p, seed):
    universe = old_enumerate(n, k)
    rng = seed.rng()
    return Presentation(n, old_uniform_subset(universe, rng.binomial(len(universe), p), rng), k)


def old_gamma_lax(n, k, d, f, seed):
    lengths = range(k - f, k + f + 1)
    universe = [w for l in lengths for w in old_enumerate(n, l)]
    size = strict_model_size(n, k, d)
    return Presentation(n, old_uniform_subset(universe, size, seed.rng()), None)


def old_gnp(m, p, seed):
    # one draw of all C(m, 2) pairs, mapped back to (row, column)
    hits = np.flatnonzero(seed.rng().random(m * (m - 1) // 2) < p)
    rows = np.arange(m)
    starts = rows * m - rows * (rows + 1) // 2
    u = np.searchsorted(starts, hits, side="right") - 1
    labels = [f"u{i:0{len(str(m))}d}" for i in range(1, m + 1)]
    return MultiGraph(labels, u, hits - starts[u] + u + 1)


def old_bipartite_gnp(m1, m2, p, seed):
    i, j = np.nonzero(seed.rng().random((m1, m2)) < p)
    labels = [f"u{a:0{len(str(m1))}d}" for a in range(1, m1 + 1)]
    labels += [f"v{b:0{len(str(m2))}d}" for b in range(1, m2 + 1)]
    return MultiGraph(labels, i, m1 + j, side=np.arange(m1 + m2) < m1)


def same_graph(a, b):
    return a.dump() == b.dump() and sides(a) == sides(b)


class TestStreamIdentity:
    @pytest.mark.parametrize("n,k", [(2, 3), (2, 8), (3, 5)])
    def test_gamma_models(self, n, k):
        for i in range(4):
            seed = Seed(30 + i, i)
            for d in (0.3, 0.55):
                assert sample_gamma_strict(n, k, d, seed) == old_gamma_strict(n, k, d, seed)
                lax = (n, k, d, 1 if k > 3 else 0)
                assert sample_gamma_lax(*lax, seed) == old_gamma_lax(*lax, seed)
            for p in (0.0, 0.2, 1.0):
                assert sample_gamma_p(n, k, p, seed) == old_gamma_p(n, k, p, seed)

    @pytest.mark.parametrize("m", [1, 2, 7, 50, 600])
    def test_gnp(self, m):
        for i in range(2):
            seed = Seed(60 + i, i)
            for p in (0.0, 0.3, 1.0):
                assert same_graph(sample_gnp(m, p, seed), old_gnp(m, p, seed))

    @pytest.mark.parametrize("m1,m2", [(1, 1), (1, 9), (9, 1), (40, 70), (300, 2)])
    def test_bipartite_gnp(self, m1, m2):
        for i in range(2):
            seed = Seed(70 + i, i)
            for p in (0.0, 0.3, 1.0):
                new = sample_bipartite_gnp(m1, m2, p, seed)
                assert same_graph(new, old_bipartite_gnp(m1, m2, p, seed))

    @pytest.mark.parametrize("n,l", [(2, 1), (2, 3), (3, 2), (3, 3)])
    def test_reduced_graphs(self, n, l):
        for i in range(4):
            seed = Seed(40 + i, i)
            for p in (0.0, 0.35, 1.0):
                old_g, _ = old_coupled_red(n, l, p, seed)
                assert same_graph(sample_red(n, l, p, seed), old_g)
                if l < 3:  # the bipartite model is declared for l >= 3 only
                    continue
                old_g, _ = old_coupled_bred(n, l, p, seed)
                assert same_graph(sample_bred(n, l, p, seed), old_g)

    def test_whole_universe_and_too_large_a_draw(self):
        universe = W.enumerate_cyclically_reduced(2, 4)
        total = len(universe)
        a, b = Seed(50).rng(), Seed(50).rng()
        ranks = _uniform_ranks(total, total, 4, a)
        words = W.unrank_cyclically_reduced_letters(2, 4, ranks).tolist()
        assert tuple(map(tuple, words)) == old_uniform_subset(universe, total, b)
        with pytest.raises(InputError) as new:
            _uniform_ranks(total, total + 1, 4, a)
        with pytest.raises(InputError) as old:
            old_uniform_subset(universe, total + 1, b)
        assert str(new.value) == str(old.value)
        assert str(new.value) == "requested 85 relators but the universe has 84"

    def test_cap_errors(self, monkeypatch):
        # |C(2, 6)| = 732 and |C(2, 4..6)| = 1060 are above a cap of 100;
        # Generator.choice draws up to 14 and 21 ranks of them in O(m)
        seed = Seed(0)
        runs = [
            (sample_gamma_strict, old_gamma_strict, (2, 6, 0.4)),  # 13 relators
            (sample_gamma_p, old_gamma_p, (2, 6, 0.01)),
            (sample_gamma_lax, old_gamma_lax, (2, 5, 0.5, 1)),  # 15
        ]
        old = [old_fn(*args, seed) for _, old_fn, args in runs]
        monkeypatch.setattr(W, "ENUMERATION_CAP", 100)
        assert [new_fn(*args, seed) for new_fn, _, args in runs] == old
        capped = [
            (lambda: sample_gamma_strict(2, 6, 0.9, seed),
             "377 relators exceed enumeration cap 100"),
            (lambda: sample_gamma_strict(2, 6, 0.6, seed),
             "drawing 52 of 732 words shuffles all 732, above enumeration cap 100"),
            (lambda: sample_gamma_p(2, 6, 0.3, seed),
             "210 relators exceed enumeration cap 100"),
            (lambda: sample_gamma_lax(2, 6, 0.65, 1, seed),
             "drawing 72 of 3164 words shuffles all 3164, above enumeration cap 100"),
        ]
        for call, message in capped:
            with pytest.raises(ResourceCapError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("n,l", [(1, 1), (1, 6), (2, 1), (2, 3), (2, 5), (3, 1), (3, 4), (3, 5)])
    def test_word_universe(self, n, l):
        labels, classes = _word_universe(n, l)
        old_labels, old_classes = old_universe(n, l)
        assert labels == old_labels and classes.tolist() == old_classes


class TestPairCap:
    """red and bred refuse more than PAIR_CAP vertex pairs before they
    enumerate a word."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("W_l enumerated before the pair cap")
        monkeypatch.setattr(W, "reduced_labels", refuse)

    @pytest.mark.parametrize("sampler", [sample_red])
    @pytest.mark.parametrize("l", [9, 12])
    def test_red(self, sampler, l):
        size = W.word_count(2, l)
        with pytest.raises(ResourceCapError) as err:
            sampler(2, l, 0.5, Seed(0))
        assert str(err.value) == (
            f"C(|W_{l}|, 2) = {size * (size - 1) // 2} vertex pairs exceed pair cap {PAIR_CAP}"
        )

    @pytest.mark.parametrize("sampler", [sample_bred])
    def test_bred(self, sampler):
        with pytest.raises(ResourceCapError) as err:
            sampler(2, 8, 0.5, Seed(0))
        pairs = W.word_count(2, 8) * W.word_count(2, 9)
        assert str(err.value) == f"|W_8| * |W_9| = {pairs} vertex pairs exceed pair cap {PAIR_CAP}"

    def test_enumeration_cap_comes_first(self, monkeypatch):
        monkeypatch.setattr(W, "ENUMERATION_CAP", 100)
        message = r"^\|W_9\| = 26244 exceeds enumeration cap 100$"
        with pytest.raises(ResourceCapError, match=message):
            sample_red(2, 9, 0.5, Seed(0))
        with pytest.raises(ResourceCapError, match=r"\|W_4\| = 108 exceeds enumeration cap 100"):
            sample_bred(2, 3, 0.5, Seed(0))

    def test_at_the_cap(self, monkeypatch):
        # C(|W_3|, 2) = 36 * 35 / 2 = 630 pairs
        monkeypatch.setattr(randmodels, "PAIR_CAP", 630)
        with pytest.raises(AssertionError, match="enumerated"):
            sample_red(2, 3, 0.5, Seed(0))
        monkeypatch.setattr(randmodels, "PAIR_CAP", 629)
        with pytest.raises(ResourceCapError, match="630 vertex pairs exceed pair cap 629"):
            sample_red(2, 3, 0.5, Seed(0))


W9 = "|W_9| = 26244 exceeds enumeration cap 100"
W4 = "|W_4| = 108 exceeds enumeration cap 100"
W5 = "|W_5| = 324 exceeds enumeration cap 100"

# entry point -> a call above a cap of 100, and the message it exits with
CAPPED_CALLS = {
    "sample_red": (lambda: sample_red(2, 9, 0.5, Seed(0)), W9),
    "sample_bred": (lambda: sample_bred(2, 3, 0.5, Seed(0)), W4),
    "sample_gamma_strict": (lambda: sample_gamma_strict(2, 6, 0.9, Seed(0)),
                            "377 relators exceed enumeration cap 100"),
    "sample_gamma_p": (lambda: sample_gamma_p(2, 6, 0.1, Seed(0)),
                       "drawing 93 of 732 words shuffles all 732, above enumeration cap 100"),
    "sample_gamma_lax": (lambda: sample_gamma_lax(2, 6, 0.9, 1, Seed(0)),
                         "377 relators exceed enumeration cap 100"),
    "enumerate_reduced": (lambda: W.enumerate_reduced(2, 5), W5),
    "enumerate_reduced-n1": (lambda: W.enumerate_reduced(1, 60),
                             "W_60 has 120 letters, above enumeration cap 100"),
    "reduced_labels": (lambda: W.reduced_labels(2, 5), W5),
    "enumerate_cyclically_reduced": (lambda: W.enumerate_cyclically_reduced(2, 5), W5),
    "build_delta_k": (lambda: build_delta_k(Presentation(2, ()), 15), W5),
}


class TestEnumerationCap:
    """Every entry point reads ENUMERATION_CAP when it is called."""

    @pytest.mark.parametrize("name", CAPPED_CALLS)
    def test_patched_cap(self, monkeypatch, name):
        call, message = CAPPED_CALLS[name]
        monkeypatch.setattr(W, "ENUMERATION_CAP", 100)
        with pytest.raises(ResourceCapError) as err:
            call()
        assert str(err.value) == message


# a draw under the relator and shuffle caps whose letters are above a cap
# of 100: model -> (call, relators drawn, longest relator length)
LETTER_CAPPED = {
    "strict": (lambda: sample_gamma_strict(2, 8, 0.45, Seed(0)), 52, 8),
    "p": (lambda: sample_gamma_p(2, 8, 0.01, Seed(0)), 85, 8),
    "lax": (lambda: sample_gamma_lax(2, 8, 0.45, 1, Seed(0)), 52, 9),
}


class TestLetterCap:
    """strict, p and lax refuse more than ENUMERATION_CAP letters, relators
    times the longest relator length, before a word is unranked."""

    @pytest.mark.parametrize("model", LETTER_CAPPED)
    def test_patched_cap(self, monkeypatch, model):
        call, size, length = LETTER_CAPPED[model]
        monkeypatch.setattr(W, "ENUMERATION_CAP", size * length)
        assert len(call().relators) == size
        monkeypatch.setattr(W, "ENUMERATION_CAP", size * length - 1)

        def refuse(*args):
            raise AssertionError("unranked above the letter cap")

        monkeypatch.setattr(W, "unrank_cyclically_reduced_letters", refuse)
        with pytest.raises(ResourceCapError) as err:
            call()
        assert str(err.value) == (
            f"{size} relators of up to {length} letters: {size * length} letters "
            f"exceed enumeration cap {size * length - 1}"
        )
