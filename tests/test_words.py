import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralt import words as W
from spectralt.errors import InputError, ResourceCapError

from oracles import rank_reduced, unrank_by_table


def letters(n):
    return st.integers(min_value=-n, max_value=n).filter(lambda x: x != 0)


class TestReduction:
    def test_cyclic(self):
        assert W.is_cyclically_reduced((1, 2, 1))
        assert not W.is_cyclically_reduced((1, 2, -1))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_count_formula(self, n, l):
        words = W.enumerate_reduced(n, l)
        assert len(words) == W.word_count(n, l) == 2 * n * (2 * n - 1) ** (l - 1)
        assert all(W.is_reduced(w) and len(w) == l for w in words)

    def test_canonical_order(self):
        words = W.enumerate_reduced(2, 2)
        flats = [tuple(W.flatten_letter(x, 2) for x in w) for w in words]
        assert flats == sorted(flats)

    def test_cyclically_reduced_count(self):
        assert len(W.enumerate_cyclically_reduced(2, 3)) == 28

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(W, "ENUMERATION_CAP", 1000)
        with pytest.raises(ResourceCapError):
            W.enumerate_reduced(3, 10)


class TestUnrank:
    @pytest.mark.parametrize(
        "n,k", [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 7)]
    )
    def test_all_ranks_give_the_enumeration(self, n, k):
        words = W.enumerate_cyclically_reduced(n, k)
        count = W.cyclically_reduced_count(n, k)
        assert count == len(words) == (2 * n - 1) ** k + 1 + (n - 1) * (1 + (-1) ** k)
        rows = W.unrank_cyclically_reduced_letters(n, k, range(count))
        assert rows.dtype == np.int64 and rows.shape == (count, k)
        assert list(map(tuple, rows.tolist())) == words

    def test_ranks_past_int64(self):
        count = W.cyclically_reduced_count(2, 41)
        assert count > 2**63
        first, last = W.unrank_cyclically_reduced_letters(2, 41, [0, count - 1]).tolist()
        assert first == [1] * 41 and last == [-2] * 41

    def test_rank_range(self):
        assert W.unrank_cyclically_reduced_letters(2, 3, []).shape == (0, 3)
        for bad in ([-1], [28]):
            with pytest.raises(InputError, match=re.escape("rank outside [0, 28) of C(2, 3)")):
                W.unrank_cyclically_reduced_letters(2, 3, bad)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_the_table_of_completions_gives_the_same_words(self, data):
        """Against the 2n x k x 2n table of completion counts where that table
        is small; everywhere, sorted ranks give cyclically reduced words in
        increasing canonical order, and the first and last ranks give a_1^k
        and (a_n^-1)^k."""
        n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 63, 64, 1000]))
        k = data.draw(st.sampled_from(list(range(1, 13)) + [30, 40]))
        total = W.cyclically_reduced_count(n, k)
        ranks = data.draw(st.lists(st.integers(0, total - 1), max_size=20))
        ranks += data.draw(st.sampled_from([[], [0], [total - 1], [0, total - 1]]))
        words = W.unrank_cyclically_reduced_letters(n, k, ranks)
        assert words.dtype == np.int64 and words.shape == (len(ranks), k)
        if 4 * n * n * k <= 10**6:
            assert words.tolist() == unrank_by_table(n, k, ranks).tolist()
        by_rank = dict(zip(ranks, map(tuple, words.tolist())))
        ordered = [by_rank[r] for r in sorted(by_rank)]
        assert all(W.is_cyclically_reduced(w) for w in ordered)
        flat = [[W.flatten_letter(x, n) for x in w] for w in ordered]
        assert all(a < b for a, b in zip(flat, flat[1:]))
        assert by_rank.get(0, (1,) * k) == (1,) * k
        assert by_rank.get(total - 1, (-n,) * k) == (-n,) * k
        with pytest.raises(InputError, match=re.escape(f"rank outside [0, {total}) of C({n}, {k})")):
            W.unrank_cyclically_reduced_letters(n, k, ranks + [total])

    def test_no_table_bounds_the_alphabet(self):
        count = W.cyclically_reduced_count(10**6, 3)
        words = W.unrank_cyclically_reduced_letters(10**6, 3, [0, 1, count // 2, count - 1])
        assert words.tolist() == [[1, 1, 1], [1, 1, 2], [-1, 2, 2], [-(10**6)] * 3]


class TestSplit:
    @pytest.mark.parametrize(
        "k,expect",
        [(3, (1, 1, 1)), (4, (1, 1, 2)), (5, (2, 2, 1)), (6, (2, 2, 2)),
         (7, (2, 2, 3)), (8, (3, 3, 2))],
    )
    def test_lengths(self, k, expect):
        assert W.split_lengths(k) == expect
        assert sum(W.split_lengths(k)) == k

    @pytest.mark.parametrize("k,num,den", [(3, 1, 3), (4, 1, 2), (5, 2, 5), (6, 1, 3)])
    def test_critical_density(self, k, num, den):
        d = W.critical_density(k)
        assert (d.numerator, d.denominator) == (num, den)


class TestClasses:
    def test_class_is_first_letter(self):
        assert W.class_index((1, 2), 2) == 1
        assert W.class_index((-1, 2), 2) == 3


class TestText:
    def test_round_trip(self):
        w = (1, 2, -1, -2)
        assert tuple(map(W.letter_from_token, W.word_to_text(w).split())) == w
        assert W.word_to_text(w) == "g1 g2 G1 G2"

    def test_label_round_trip(self):
        w = (1, -2, 1)
        label = W.word_to_label(w)
        assert " " not in label
        assert W.word_from_label(label) == w

    def test_rejects_invalid(self):
        for tok in ("g0", "G", "x1", "g1G1"):
            with pytest.raises(InputError):
                W.letter_from_token(tok)


class TestArrays:
    @pytest.mark.parametrize("n,l", [(1, 1), (1, 4), (2, 1), (2, 5), (3, 4), (4, 3)])
    def test_rank_is_the_enumeration_index(self, n, l):
        words = W.enumerate_reduced(n, l)
        ranks = rank_reduced(n, np.array(words))
        assert ranks.tolist() == list(range(len(words)))
        shuffled = np.random.default_rng(l).permutation(len(words))
        assert rank_reduced(n, np.array(words)[shuffled]).tolist() == shuffled.tolist()

    @pytest.mark.parametrize(
        "n,l", [(1, 1), (1, 4), (2, 1), (2, 5), (3, 4), (4, 3), (63, 2), (64, 2)]
    )
    def test_rank_pieces_are_enumeration_indices(self, n, l):
        """Every piece lo..hi-1 of a word, and its inverse, ranks at its index
        in W_{hi-lo}."""
        words = W.enumerate_reduced(n, l)
        bounds = [(lo, hi) for lo in range(l) for hi in range(lo + 1, l + 1)]
        pieces = W.rank_pieces(n, np.array(words), bounds)
        index = {m: {w: i for i, w in enumerate(W.enumerate_reduced(n, m))} for m in range(1, l + 1)}
        for (lo, hi), (ranks, inverse_ranks) in zip(bounds, pieces):
            assert ranks.dtype == inverse_ranks.dtype == np.int64
            assert ranks.tolist() == [index[hi - lo][w[lo:hi]] for w in words]
            inverse = [tuple(-x for x in reversed(w[lo:hi])) for w in words]
            assert inverse_ranks.tolist() == [index[hi - lo][w] for w in inverse]
        assert W.rank_pieces(n, np.zeros((0, l), dtype=np.int64), bounds)[0][0].tolist() == []

    def test_flatten(self):
        letters, offsets = W.flatten([(1, 2), (), (-3,)])
        assert letters.tolist() == [1, 2, -3] and offsets.tolist() == [0, 2, 2, 3]
        big, _ = W.flatten([(10**30, 1)])
        assert big.tolist() == [10**30, 1]

    @given(st.lists(st.lists(letters(2), max_size=5).map(tuple), max_size=8))
    def test_first_unreduced(self, words):
        expect = next((i for i, w in enumerate(words) if not W.is_reduced(w)), len(words))
        assert W.first_unreduced(*W.flatten(words)) == expect

    def test_first_unreduced_ignores_word_seams(self):
        assert W.first_unreduced(*W.flatten([(1,), (-1,), (2, -1), (1, 2)])) == 4
        assert W.first_unreduced(*W.flatten([(1,), (), (2, -2)])) == 2
        assert W.first_unreduced(*W.flatten([(10**30, -10**30)])) == 0

    def test_letter_from_token(self):
        assert [W.letter_from_token(t) for t in ("g1", "G2", "g10")] == [1, -2, 10]
        for tok, message in [("x", "malformed word token 'x'"),
                             ("G0", "generator index must be >= 1, got 'G0'")]:
            with pytest.raises(InputError, match=message):
                W.letter_from_token(tok)


def recursive_reduced(n, l):
    """The recursive enumeration `iter_reduced` replaced, as an oracle."""
    alphabet = [W.unflatten_letter(c, n) for c in range(1, 2 * n + 1)]

    def rec(prefix, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for x in alphabet:
            if prefix and prefix[-1] == -x:
                continue
            yield from rec(prefix + [x], remaining - 1)

    return list(rec([], l))


class TestIterativeEnumeration:
    @pytest.mark.parametrize("n,l", [(n, l) for n in (1, 2, 3) for l in range(1, 7)])
    def test_same_order_as_the_recursion(self, n, l):
        assert list(W.iter_reduced(n, l)) == recursive_reduced(n, l)

    def test_longer_than_the_recursion_limit(self):
        assert W.enumerate_reduced(1, 5000) == [(1,) * 5000, (-1,) * 5000]

    @pytest.mark.parametrize("n,l", [(n, l) for n in (1, 2, 3) for l in range(1, 9)])
    def test_labels(self, n, l):
        expect = [W.word_to_label(w) for w in W.enumerate_reduced(n, l)]
        assert W.reduced_labels(n, l) == expect

    def test_labels_of_long_words_and_many_generators(self, monkeypatch):
        assert W.reduced_labels(1, 100001) == ["g1" * 100001, "G1" * 100001]
        expect = [W.word_to_label(w) for w in W.enumerate_reduced(12, 3)]
        assert W.reduced_labels(12, 3) == expect
        monkeypatch.setattr(W, "ENUMERATION_CAP", 1000)
        with pytest.raises(ResourceCapError, match=r"^\|W_10\| = 78732 exceeds enumeration cap 1000$"):
            W.reduced_labels(2, 10)


class TestCountCaps:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_exceeds_is_exact(self, n):
        for l in range(1, 40):
            count = W.word_count(n, l)
            for cap in (0, 1, count - 1, count, count + 1, 10**7):
                assert W.word_count_exceeds(n, l, cap) == (count > cap)

    def test_huge_lengths_are_decided_without_the_count(self):
        assert W.word_count_exceeds(2, 10**100, 10**7)
        assert not W.word_count_exceeds(1, 10**100, 10**7)
        assert W.word_count_exceeds(10**400, 1, 10**7)
        assert W.word_count_text(2, 10**12) == "4*3^999999999999"
        assert W.word_count_text(2, 10**6) == "4*3^999999"

    def test_printable_counts_keep_their_digits(self):
        for n, l in [(2, 5), (3, 9), (2, 3000), (2, 9000)]:
            assert W.word_count_text(n, l) == str(W.word_count(n, l))
        assert W.word_count_text(1, 10**12) == "2"
        # 4343 digits: past the interpreter's int -> str limit
        assert W.word_count_text(2, 9100) == "4*3^9099"

    def test_enumeration_caps(self):
        message = f"|W_50| = {W.word_count(2, 50)} exceeds enumeration cap 10000000"
        with pytest.raises(ResourceCapError, match=re.escape(message)):
            W.enumerate_reduced(2, 50)
        with pytest.raises(ResourceCapError, match="W_6000000 has 12000000 letters"):
            W.enumerate_reduced(1, 6 * 10**6)
        with pytest.raises(ResourceCapError, match="W_6000000 has 12000000 letters"):
            W.reduced_labels(1, 6 * 10**6)
        with pytest.raises(InputError):
            W.word_count_exceeds(0, 3, 10)
