import importlib.util
import re
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralt import delta as D, words as W
from spectralt.delta import (
    Presentation,
    _header_int,
    build_delta3,
    build_delta_k,
    double_edge_audit,
    sigma_decomposition,
)
from spectralt.cli import main
from spectralt.errors import InputError
from spectralt.multigraph import edge_key, union
from spectralt.randmodels import (
    Seed, sample_gamma_lax, sample_gamma_p, sample_gamma_strict,
)

from graphs import graph, sides
from oracles import link_edges


def aba():
    return Presentation(2, ((1, 2, 1),))


def of_length(p, k):
    return tuple(r for r in p.relators if len(r) == k)


class TestPresentation:
    def test_validation(self):
        with pytest.raises(InputError):
            Presentation(2, ((1, -1),))  # not reduced
        with pytest.raises(InputError):
            Presentation(2, ((1, 2, -1),))  # not cyclically reduced
        with pytest.raises(InputError):
            Presentation(2, ((3,),))  # letter out of range

    def test_relator_lengths(self):
        p = Presentation(2, ((1, 2, 1), (1, 2, 1, 2)))
        assert p.lengths.tolist() == [3, 4] and p.num_relators == 2
        assert of_length(p, 3) == ((1, 2, 1),)

    def test_dump_parse_round_trip(self):
        p = Presentation(2, ((1, 2, 1), (2, 2, 2)), k=3)
        assert Presentation.parse(p.dump()) == p
        mixed = Presentation(2, ((1, 2, 1), (2, 1, -2, 1)))
        assert Presentation.parse(mixed.dump()) == mixed

    @pytest.mark.parametrize("p", [
        Presentation._from_arrays(1, *W.flatten(((1, 1, 1), (-1,)))),
        sample_gamma_p(2, 6, 0.3, Seed(5, 0)),
        sample_gamma_p(12, 4, 0.02, Seed(5, 0)),
        Presentation._from_arrays(2, *W.flatten(()), k=3),
        Presentation._from_arrays(2**70, *W.flatten(((2**70, 1, -(2**65)), (3,)))),
    ], ids=["n1", "n2", "n12", "empty", "object"])
    def test_dump_writes_each_relator_as_word_to_text(self, p):
        head = f"n {p.n}\n" + ("" if p.k is None else f"k {p.k}\n")
        lines = (W.word_to_text(p._relator(i)) + "\n" for i in range(p.num_relators))
        expect = head + "".join(lines)
        for block in (1, 7, D._DUMP_BLOCK):
            with patch.object(D, "_DUMP_BLOCK", block):
                assert p.dump() == expect
        assert "relators" not in vars(p)

    def test_k_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            Presentation(2, ((1, 2, 1, 2),), k=3)

    def test_parse_builds_no_tuples(self, monkeypatch):
        calls = []
        real = W.flatten
        monkeypatch.setattr(W, "flatten", lambda words: calls.append(len(words)) or real(words))
        p = Presentation.parse("n 2\nk 3\ng1 g2 g1\ng2 g2 g1\n")
        build_delta_k(p, 3)
        assert calls == [] and "relators" not in vars(p)
        assert [p.letters.tolist(), p.offsets.tolist()] == [[1, 2, 1, 2, 2, 1], [0, 3, 6]]
        assert p.letters.dtype == p.offsets.dtype == np.int64
        assert p == Presentation(2, ((1, 2, 1), (2, 2, 1)), k=3)

    @pytest.mark.parametrize("text,scanned", [
        ("n 2\nk 3\ng1 g2 g1\ng2 g2 g1\n", True),
        ("n 2\nk 3\ng1 g2 g1\n# \u00e9\ng2 g2 g1\n", False),  # not ASCII
    ], ids=["array-scan", "line-parse"])
    def test_parse_checks_free_reduction_once(self, monkeypatch, text, scanned):
        assert (D._scan(text) is not None) == scanned
        expect = Presentation(2, ((1, 2, 1), (2, 2, 1)), k=3)
        calls = []
        real = W.first_unreduced
        monkeypatch.setattr(W, "first_unreduced", lambda *a: calls.append(1) or real(*a))
        assert Presentation.parse(text) == expect
        assert len(calls) == 1

    @pytest.mark.parametrize("bad,message", [
        ((1, 2, 2, -2, 1, 1), "relator 'g1 g2 g2 G2 g1 g1' not cyclically reduced"),
        ((1, -1, 2, 2, 1, 2), "relator 'g1 G1 g2 g2 g1 g2' not cyclically reduced"),
        ((1, 2, -2, 1, 1, 2), "relator 'g1 g2 G2 g1 g1 g2' not cyclically reduced"),
        ((1, 2, 0, 1, 2, 1), "relator letter outside alphabet of size 2"),
    ], ids=["inside-r_y", "inside-r_x", "seam", "letter-0"])
    def test_rejects_relators_not_cyclically_reduced(self, bad, message):
        # interior cancellation, cancellation across the r_x | r_y seam, and
        # the letter 0, after and before relators that pass
        good = ((1, 2, 1, 2, 1, 2),) * 40
        for relators in ((bad,), good + (bad,) + good):
            for k in (None, len(bad)):
                with pytest.raises(InputError) as err:
                    Presentation(2, relators, k)
                assert str(err.value) == message
                with pytest.raises(InputError) as err:
                    Presentation._from_arrays(2, *W.flatten(relators), k)
                assert str(err.value) == message

    def test_parse_comments_and_blank_lines(self):
        q = Presentation.parse("# header\nn 2\n\ng1 g2 g1\n")
        assert q.relators == ((1, 2, 1),)


class TestDelta:
    def test_aba_is_the_expected_path(self):
        g = build_delta3(aba())
        expect = graph(
            ["g1", "g2", "G1", "G2"],
            [("g1", "G1"), ("g2", "G1"), ("g1", "G2")],
        )
        assert g == expect

    def test_edge_count_three_per_relator(self):
        for k in (3, 4, 5, 6):
            p = sample_gamma_p(2, k, 0.4, Seed(1, k))
            g = build_delta_k(p, k)
            assert g.num_edges() == 3 * len(p.relators)

    def test_other_length_relators_ignored(self):
        p = Presentation(2, ((1, 2, 1), (1, 2, 1, 2)))
        assert build_delta_k(p, 3) == build_delta3(aba())

    def test_edges_additive_in_relators(self):
        p = sample_gamma_p(2, 4, 0.5, Seed(2, 0))
        half1 = Presentation(2, p.relators[::2])
        half2 = Presentation(2, p.relators[1::2])
        combined = union(build_delta_k(half1, 4), build_delta_k(half2, 4))
        assert combined.edges == build_delta_k(p, 4).edges

    def test_vertex_sets(self):
        p = sample_gamma_p(2, 5, 0.3, Seed(3, 0))
        g = build_delta_k(p, 5)
        # k = 5: words of lengths (k+1)/3 = 2 and (k-2)/3 = 1
        assert g.num_vertices() == W.word_count(2, 2) + W.word_count(2, 1)

    def test_build_delta3_rejects_wrong_length(self):
        with pytest.raises(InputError):
            build_delta3(Presentation(2, ((1, 2, 1, 2),)))

    @pytest.mark.parametrize("k", [2, 0, -5])
    @pytest.mark.parametrize("build", [build_delta_k, sigma_decomposition])
    def test_k_below_3_is_refused(self, build, k):
        # by the piece lengths, before any word set or edge is built
        with pytest.raises(InputError, match="^need k >= 3$"):
            build(Presentation(2, ((1, 2, 1),)), k)


class TestSigma:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_union_recovers_delta(self, k):
        p = sample_gamma_p(2, k, 0.4, Seed(4, k))
        dec = sigma_decomposition(p, k)
        delta = build_delta_k(p, k)
        assert dec.delta() == delta
        # MultiGraph equality ignores vertex order; bit-identical lambda1 needs it
        assert dec.delta().vertices == delta.vertices
        assert dec.sigma1.vertices == dec.sigma3.vertices == delta.vertices
        assert dec.sigma2.vertices == delta.vertices[: W.word_count(2, W.split_lengths(k)[0])]

    def test_case_dispatch(self):
        for k, case in [(3, 0), (4, 1), (5, 2), (6, 0)]:
            p = sample_gamma_p(2, k, 0.3, Seed(5, k))
            dec = sigma_decomposition(p, k)
            assert dec.case == case
            if case == 0:
                assert dec.sigma1.side is None
            else:
                assert dec.sigma1.side is not None
                assert dec.sigma3.side is not None
                assert dec.sigma2.num_vertices() == W.word_count(2, W.split_lengths(k)[0])

    def test_same_class_never_adjacent(self):
        # Sigma edge endpoints always start with different letters: the link
        # decomposition lands inside the reduced random-graph support.
        for k in (3, 4, 5, 6):
            p = sample_gamma_p(2, k, 0.5, Seed(6, k))
            dec = sigma_decomposition(p, k)
            for s in (dec.sigma1, dec.sigma2, dec.sigma3):
                for u, v in s.edges:
                    wu, wv = W.word_from_label(u), W.word_from_label(v)
                    assert W.class_index(wu, 2) != W.class_index(wv, 2)


def relabel(g, mapping):
    return graph(
        [mapping[v] for v in g.vertices],
        {edge_key(mapping[u], mapping[v]): m for (u, v), m in g.edges.items()},
    )


class TestReencoding:
    """Delta_k over A_n equals Delta_3 over the alphabet of split fragments."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_graph_equality(self, k):
        p = sample_gamma_p(2, k, 0.35, Seed(7, k))
        if not p.relators:
            pytest.skip("empty sample")
        xy_len, z_len = (
            (k // 3, k // 3) if k % 3 == 0
            else ((k - 1) // 3, (k + 2) // 3) if k % 3 == 1
            else ((k + 1) // 3, (k - 2) // 3)
        )
        lengths = sorted({xy_len, z_len})
        alphabet = [w for l in lengths for w in W.enumerate_reduced(2, l)]
        gens = [w for w in alphabet if w < invert(w)]
        code = {}
        for i, w in enumerate(gens, start=1):
            code[w] = i
            code[invert(w)] = -i
        relators3 = tuple(
            tuple(code[part] for part in split_relator(r, k))
            for r in of_length(p, k)
        )
        d3 = build_delta3(Presentation(len(gens), relators3))
        back = {}
        for w, c in code.items():
            back[W.word_to_label((c,))] = W.word_to_label(w)
        relabeled = relabel(d3, back)
        dk = build_delta_k(p, k)
        # Delta_3 carries all 2|gens| letters; Delta_k only words of the two
        # split lengths, which is the same set
        assert relabeled == dk


class TestAudit:
    def test_matches_brute_force(self):
        for i in range(20):
            p = sample_gamma_p(2, 3, 0.3, Seed(8, i))
            g = build_delta_k(p, 3)
            audit = double_edge_audit(g)
            mults = g.edges.values()
            assert audit.max_multiplicity == max(mults, default=0)
            doubles = [e for e, m in g.edges.items() if m >= 2]
            assert audit.double_edge_count == len(doubles)
            per_vertex = {}
            for u, v in doubles:
                per_vertex[u] = per_vertex.get(u, 0) + 1
                per_vertex[v] = per_vertex.get(v, 0) + 1
            matching = all(c <= 1 for c in per_vertex.values())
            assert audit.doubles_form_matching == matching

    def test_m_bound_flag(self):
        # hub with four doubled edges: max doubles per vertex is 4 > M = 3
        g = graph(
            "habcd", {("h", x): 2 for x in "abcd"}
        )
        audit = double_edge_audit(g, m_bound=3)
        assert audit.max_multiplicity == 2
        assert audit.max_doubles_per_vertex == 4
        assert not audit.doubles_form_matching
        assert not audit.within_m_bound
        assert double_edge_audit(g, m_bound=4).within_m_bound


# ---- the label-keyed implementations the array build replaced, as oracles

def invert(w):
    return tuple(-x for x in reversed(w))


def split_relator(r, k):
    """The three pieces r_x, r_y, r_z of a length-k relator."""
    a, b, _ = W.split_lengths(k)
    return r[:a], r[a : a + b], r[a + b :]


def old_labels(n, l):
    return [W.word_to_label(w) for w in W.enumerate_reduced(n, l)]


def old_relator_edges(r, k):
    rx, ry, rz = split_relator(r, k)
    lab, inv = W.word_to_label, invert
    return (
        edge_key(lab(rx), lab(inv(rz))),
        edge_key(lab(ry), lab(inv(rx))),
        edge_key(lab(rz), lab(inv(ry))),
    )


def old_build_delta_k(p, k):
    l_k, _, L_k = W.split_lengths(k)
    vertices = old_labels(p.n, l_k)
    if L_k != l_k:
        vertices = vertices + old_labels(p.n, L_k)
    edges = {}
    for r in of_length(p, k):
        for key in old_relator_edges(r, k):
            edges[key] = edges.get(key, 0) + 1
    return graph(vertices, edges)


def old_sigma_decomposition(p, k):
    xy_len, _, z_len = W.split_lengths(k)
    xy = old_labels(p.n, xy_len)
    z = old_labels(p.n, z_len) if z_len != xy_len else []
    es = ({}, {}, {})
    relators = of_length(p, k)
    for r in relators:
        for e, key in zip(es, old_relator_edges(r, k)):
            e[key] = e.get(key, 0) + 1
    if k % 3 == 0:
        sigmas = tuple(graph(xy, e) for e in es)
    else:
        part = (xy, z)
        sigmas = (graph(xy + z, es[0], partition=part), graph(xy, es[1]),
                  graph(xy + z, es[2], partition=part))
    return sigmas, len(p.relators) - len(relators)


def old_word_from_text(text):
    letters = []
    for tok in text.split():
        m = re.fullmatch(r"([gG])(\d+)", tok)
        if m is None:
            raise InputError(f"malformed word token {tok!r}")
        i = int(m.group(2))
        if i < 1:
            raise InputError(f"generator index must be >= 1, got {tok!r}")
        letters.append(i if m.group(1) == "g" else -i)
    w = tuple(letters)
    if not W.is_reduced(w):
        raise InputError(f"word {text!r} is not freely reduced")
    return w


def old_parse(text):
    n = k = None
    relators = []
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
            relators.append(old_word_from_text(line))
    if n is None:
        raise InputError("presentation file missing 'n <int>' header")
    return n, tuple(relators), k


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def same_graph(g, old):
    return (g.vertices == old.vertices and g.edges == old.edges
            and g.dump() == old.dump() and sides(g) == sides(old))


def sample(n, k, seed):
    # about 500-2500 relators, so the comparison stays fast up to k = 14
    d = min(0.9, np.log(400 + 150 * k) / (k * np.log(2 * n - 1)))
    return sample_gamma_strict(n, k, d, Seed(seed, k))


CASES = [(2, k) for k in range(3, 15)] + [(3, k) for k in range(3, 9)]


class TestAgainstLabelImplementation:
    @pytest.mark.parametrize("n,k", CASES)
    def test_delta_and_sigma(self, n, k):
        for seed in (1, 2):
            p = sample(n, k, seed)
            other = sample(n, k - 1 if k > 3 else 4, seed)
            mixed = Presentation(n, p.relators + other.relators)
            for pres in (p, mixed):
                delta = build_delta_k(pres, k)
                assert same_graph(delta, old_build_delta_k(pres, k))
                assert delta.degrees() == old_build_delta_k(pres, k).degrees()
                dec = sigma_decomposition(pres, k)
                sigmas, ignored = old_sigma_decomposition(pres, k)
                assert dec.ignored_relators == ignored
                for new, old in zip((dec.sigma1, dec.sigma2, dec.sigma3), sigmas):
                    assert same_graph(new, old)

    def test_no_relators_of_length_k(self):
        p = Presentation(2, ((1, 2, 1),))
        assert same_graph(build_delta_k(p, 6), old_build_delta_k(p, 6))
        assert sigma_decomposition(p, 5).ignored_relators == 1

    def test_audit_on_loops(self):
        g = graph("abc", {("a", "a"): 2, ("a", "b"): 2, ("c", "c"): 1})
        audit = double_edge_audit(g)
        assert (audit.max_multiplicity, audit.double_edge_count) == (2, 2)
        assert audit.max_doubles_per_vertex == 2 and not audit.doubles_form_matching
        empty = double_edge_audit(graph("ab"))
        assert (empty.max_multiplicity, empty.max_doubles_per_vertex) == (0, 0)


@st.composite
def link_cases(draw):
    """(presentation, k): relators of length k and, one time in two, of
    other lengths, which `_link_edges` leaves out; sometimes no relator of
    length k at all."""
    n = draw(st.sampled_from([1, 2, 3, 4, 63, 64, 100]))
    k = draw(st.integers(3, 13))
    lengths = [k] * draw(st.integers(0, 6))
    if draw(st.booleans()):
        lengths += draw(st.lists(st.integers(1, 14), max_size=4))
    words = []
    for l in draw(st.permutations(lengths)):
        rank = draw(st.integers(0, W.cyclically_reduced_count(n, l) - 1))
        words += W.unrank_cyclically_reduced_letters(n, l, [rank]).tolist()
    return Presentation(n, map(tuple, words)), k


class TestLinkEdgesAgainstOracle:
    """Every piece ranked from one array of letter codes gives the edges of
    each piece cut out and ranked on its own."""

    @staticmethod
    def assert_same(p, k):
        for (u, v), (ou, ov) in zip(D._link_edges(p, k), link_edges(p, k)):
            assert u.dtype == v.dtype == np.int64
            assert u.tolist() == ou.tolist() and v.tolist() == ov.tolist()

    @settings(max_examples=300, deadline=None)
    @given(link_cases())
    def test_random_presentations(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize("n,k", [(2, 15), (2, 16), (2, 17), (2, 21), (63, 7), (64, 8)])
    def test_every_split(self, n, k):
        self.assert_same(sample(n, k, 5), k)

    def test_mixed_lengths_and_none_of_length_k(self):
        lax = sample_gamma_lax(2, 9, 0.45, 2, Seed(3))
        for k in range(6, 13):
            self.assert_same(lax, k)
        self.assert_same(Presentation(2, ((1, 2, 1),)), 6)
        self.assert_same(Presentation(2, ()), 4)

    @pytest.mark.parametrize("n,k", [(2, 9), (2, 21), (3, 7), (64, 5)])
    def test_the_rows_view_and_the_gather_give_the_same_edges(self, n, k):
        # every relator of length k: the letters are reshaped; relators of
        # other lengths in between: the length-k ones are gathered
        p = sample(n, k, 5)
        assert (p.lengths == k).all()
        relators = list(p.relators)
        for at in (0, len(relators) // 2, len(relators)):
            relators.insert(at, (1, 2) if n > 1 else (1,))
        mixed = Presentation(n, relators)
        assert not (mixed.lengths == k).all()
        for (u, v), (mu, mv) in zip(D._link_edges(p, k), D._link_edges(mixed, k)):
            assert np.array_equal(u, mu) and np.array_equal(v, mv)
        self.assert_same(p, k)


TOKENS = ["g1", "G1", "g2", "G2", "g3", "g0", "G0", "x", "n", "k", "2", "3", "#", "g01",
          "g99999999999999999999", "G99999999999999999999"]


@st.composite
def texts(draw):
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=6), max_size=8))
    head = draw(st.sampled_from(["", "n 2\n", "n 3\nk 3\n", "# c\nn 2\nk 4\n"]))
    return head + "\n".join(" ".join(line) for line in lines)


class TestParseAgainstRegexImplementation:
    @settings(max_examples=300, deadline=None)
    @given(texts())
    def test_same_presentation_or_message(self, text):
        def old(text):
            return Presentation(*old_parse(text))

        assert outcome(Presentation.parse, text) == outcome(old, text)

    def test_validation_starts_at_the_first_bad_relator(self):
        good = ((1, 2, 1),) * 50
        for bad, message in [((1, 2, -1), "not cyclically reduced"),
                             ((1, 5, 1), "outside alphabet"), ((), "not cyclically reduced"),
                             ((2, 1, 2, 1), "length 4 != k = 3")]:
            with pytest.raises(InputError, match=message):
                Presentation(2, good + (bad,) + good, k=3)


# ---- Presentation.parse against the line-by-line parse it replaced

def line_parse(text):
    """The line-by-line parse and the constructor checks as they were before
    the array scan: (n, k, relators), or InputError."""
    n = k = None
    relators, lines = [], []
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
                relators.append(tuple(map(W.letter_from_token, parts)))
                lines.append(line)
    finally:
        bad = next((i for i, r in enumerate(relators) if not W.is_reduced(r)), None)
        if bad is not None:
            raise InputError(f"word {lines[bad]!r} is not freely reduced")
    if n is None:
        raise InputError("presentation file missing 'n <int>' header")
    if n < 1:
        raise InputError("generator count must be >= 1")
    for r in relators:
        if not W.is_cyclically_reduced(r):
            raise InputError(f"relator {W.word_to_text(r)!r} not cyclically reduced")
        if any(abs(x) > n for x in r):
            raise InputError(f"relator letter outside alphabet of size {n}")
        if k is not None and len(r) != k:
            raise InputError(f"relator {W.word_to_text(r)!r} has length {len(r)} != k = {k}")
    return n, k, tuple(relators)


HEADERS = ["n 2", "n 3", "n 12", "k 3", "k 4", "n 02", "k 003", "\tn  2 ", "n x", "n -1",
           "n +2", "n 0", "n 2 3", "k", "n", "n 99999999999999999999", "k 99999999999999999999",
           "n ٢", "n 2_0", "n 0000000000000000002", "n " + "9" * 4301, "k " + "3" * 5000]
PARSE_TOKENS = ["g1", "G1", "g2", "G2", "g3", "G3", "g12", "G12", "g01", "g0", "G00", "g10",
                "g999999999999999999", "g9999999999999999999", "G99999999999999999999",
                "g9223372036854775808", "g000000000000000001",
                "g١", "gé", "x", "1", "g", "gg1", "g1g2", "G1#c", "g-1", "\x00", "\x7f"]
LINE_ENDS = ["\n"] * 30 + ["\r\n"] * 6 + ["\r", "\r", "\v", "\f", "\x1c", "\x1f", "\x85", " "]
COMMENTS = [""] * 16 + ["# c", "#", " # n 2 g1 \t", "##", "#é", "#\x0b g1"]


@st.composite
def presentation_files(draw):
    """Mostly well-formed files, with headers in every order and position,
    comments, every kind of line end, tabs and leading zeros; one in two gets
    up to three defects: g0, 20-digit indices, header values past the
    4300-digit int conversion limit, unicode digits, non-ASCII and
    control bytes, malformed or duplicate headers, unreduced lines."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(3, 5))
    ranks = st.integers(0, W.cyclically_reduced_count(n, k) - 1)
    words = W.unrank_cyclically_reduced_letters(n, k, draw(st.lists(ranks, max_size=8))).tolist()
    lines = [draw(st.sampled_from([" ", "\t"])).join(
        draw(st.sampled_from([f"g{x}", f"g0{x}"])) if x > 0 else f"G{-x}" for x in w
    ) for w in words]
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([f"n {n}", f" n\t0{n}"])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, 1)), f"k {k}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        defect = draw(st.one_of(
            st.sampled_from(HEADERS + ["", "g1 G1", "g2 g1 G1", "g1 g2 G1"]),
            st.lists(st.sampled_from(PARSE_TOKENS), min_size=1, max_size=4).map(" ".join),
        ))
        lines.insert(draw(st.integers(0, len(lines))), defect)
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(COMMENTS)) + draw(st.sampled_from(LINE_ENDS))
    return text if draw(st.booleans()) else text.rstrip("\n")


def parsed(text):
    try:
        p = Presentation.parse(text)
    except InputError as exc:
        return f"InputError: {exc}"
    assert p.offsets.dtype == np.int64 and p.offsets[0] == 0
    flat = [x for r in p.relators for x in r]
    return p.n, p.k, p.relators, p.letters.tolist() == flat, np.diff(p.offsets).tolist()


def line_parsed(text):
    try:
        n, k, relators = line_parse(text)
    except InputError as exc:
        return f"InputError: {exc}"
    return n, k, relators, True, [len(r) for r in relators]


class TestParseAgainstLineParse:
    @settings(max_examples=600, deadline=None)
    @given(presentation_files(), st.sampled_from([1, 5, 24, D._PARSE_BLOCK]))
    def test_same_presentation_or_message(self, text, block):
        with patch.object(D, "_PARSE_BLOCK", block):
            assert parsed(text) == line_parsed(text)

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 5), (12, 4), (2, 9)])
    def test_sampled_dumps(self, n, k):
        p = sample_gamma_p(n, k, 0.02 if n == 12 else 0.4, Seed(11, k))
        text = p.dump()
        for block in (1, 64, D._PARSE_BLOCK):
            with patch.object(D, "_PARSE_BLOCK", block):
                q = Presentation.parse(text)
            assert q == p and "relators" not in vars(q)
            assert q.letters.tolist() == p.letters.tolist()
        crlf = "# sampled\r\n" + text.replace("\n", "\r\n").replace(" ", "\t")
        assert Presentation.parse(crlf) == p

    def test_the_scan_reads_what_dump_writes(self):
        texts = ["n 2\nk 3\ng1 g2 g1\n", "n 12\ng12 G11 g10\n", "n 3\n", "n 2\nk 3\n",
                 "n 2\ng000000000000000001\n", "n 02\nk 03\ng01 g2 g1\n"]
        for text in texts:
            assert D._scan(text) is not None, text
        headers_anywhere = "k 3\n# c\nn 2\n\n\tg1 g2\tg1 # x\r\ng2 g2 g1"
        for text in [headers_anywhere, "n 2\ng1 g0\n", "n 2\ng1 G1\n", "n 2\ng1\nk 1\n",
                     "n 2\nn 2\n", "n 2\ng1é\n", "n 2\x0bg1\n", "g1\n", "n 2\ng1g2\n",
                     "n 2\ng99999999999999999999\n", "n 2\ng9223372036854775808\n",
                     "n 2\ng 1\n", "n 2\n1 g1\n", "n 2\ngg1\n", "n 2\ng1 g\n", "n 2\nG1 G\n",
                     "n 0000000000000000002\ng1\n", "n " + "2" * 4301 + "\n", "n 2\ng1",
                     "n 2\n\ng1\n", "n 2\ng1  g2\n", "n 2\ng1 \n", "n 2\n g1\n", "n 2\ng1\t g2\n",
                     "n 2\r\ng1\r\n", "n 2\ng1 # c\n", "k 3\nn 2\ng1 g2 g1\n", "n 2 \ng1\n"]:
            assert D._scan(text) is None, text
        assert Presentation.parse(headers_anywhere) == Presentation(2, ((1, 2, 1), (2, 2, 1)), 3)


def load_presgen():
    """The benchmark's presentation writer, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "presgen.py"
    spec = importlib.util.spec_from_file_location("presgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScanTraffic:
    """Every writer of presentation text in the repo writes text the array
    scan takes, so no real input reaches the line parser."""

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_writers_take_the_array_scan(self, n, tmp_path, monkeypatch, capsys):
        k = 5
        p = sample_gamma_strict(n, k, 0.3, Seed(3, 0))
        out = tmp_path / "sample.txt"
        argv = ["sample", "--model", "strict", "--n", str(n), "--k", str(k), "--d", "0.3",
                "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        presgen = load_presgen()
        words = presgen.random_words(n, k, 40, np.random.default_rng(n))
        texts = [p.dump(), out.read_text(), presgen.presentation_text(n, k, words)]

        def refuse(*args):
            raise AssertionError("text went to the line parser")

        monkeypatch.setattr(D, "_parse_lines", refuse)
        for text in texts:
            assert D._scan(text) is not None
            q = Presentation.parse(text)
            assert (q.n, q.k) == (n, k)
        assert texts[0] == texts[1] and Presentation.parse(texts[0]) == p


DUMP_EDITS = ["", " ", "  ", "\n", "g", "G", "0", "9" * 19, "g0", "k 3\n", "n 2\n"]


@st.composite
def dump_texts(draw):
    """Text in the form `dump` writes, for n in 1..15 so that indices have
    one or two digits, words not freely or cyclically reduced and the letter
    0 included, and an optional `k` line; then 0 to 2 edits, each of which
    puts one of DUMP_EDITS in place of zero or one character, and one in
    four texts loses its final line end."""
    n = draw(st.integers(1, 15))
    letter = st.integers(-n, n)  # 0 is written G0; one in four texts may hold it
    letter = letter if draw(st.integers(0, 3)) == 0 else letter.filter(bool)
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=8))
    if draw(st.booleans()):
        words = [w for w in words if W.is_reduced(w)]
    k = draw(st.sampled_from([None, 3, len(words[0]) if words else 4]))
    text = f"n {n}\n" + ("" if k is None else f"k {k}\n")
    text += "".join(W.word_to_text(w) + "\n" for w in words)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        gaps = [i for i, c in enumerate(text) if c in " \n"]  # half the edits land on one
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(gaps)))
        text = text[:at] + draw(st.sampled_from(DUMP_EDITS)) + text[at + draw(st.integers(0, 1)):]
    return text.removesuffix("\n") if draw(st.integers(0, 3)) == 0 else text


class TestDumpFormAgainstLineParse:
    @settings(max_examples=600, deadline=None)
    @given(dump_texts(), st.sampled_from([1, 5, 24, D._PARSE_BLOCK]))
    def test_same_presentation_or_message(self, text, block):
        with patch.object(D, "_PARSE_BLOCK", block):
            assert parsed(text) == line_parsed(text)


@st.composite
def relator_blocks(draw, index=st.one_of(st.integers(1, 9), st.integers(1, 9), st.integers(0, 10**12))):
    """Whole relator lines as `dump` writes them, by default each index of
    one digit (1..9), of several digits, or 0, so that lines of one-digit
    tokens, wider tokens and `g0` mix in one block."""
    token = st.tuples(st.sampled_from("gG"), index)
    lines = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=8))
    return "".join(" ".join(f"{c}{i}" for c, i in line) + "\n" for line in lines), lines


# bytes next to those each column of a one-digit cell holds: letter, digit, gap
NEAR_CELL_BYTES = ("fhFH1 \n", "0/:g \n", "\t\r!\x1f1g")


@st.composite
def corrupted_blocks(draw):
    """A block of one-digit indices with one byte but the last replaced: in
    one column of the cells by a byte next to those that column holds, or
    anywhere by any of them."""
    text, _ = draw(relator_blocks(st.integers(1, 9)))
    column = draw(st.sampled_from([0, 1, 2, None]))
    cells = range(column or 0, len(text) - 1, 1 if column is None else 3)
    at = draw(st.sampled_from(cells)) if cells else 0
    near = "".join(NEAR_CELL_BYTES) if column is None else NEAR_CELL_BYTES[column]
    return text[:at] + draw(st.sampled_from(near)) + text[at + 1 :]


def general_branch(raw):
    with patch.object(D, "_one_digit_cells", lambda b: None):
        return D._scan_block(raw)


class TestOneDigitCells:
    """The column branch of `_scan_block` reads a block of one-digit tokens as
    its general branch and the line parser do, and no other block."""

    @settings(max_examples=400, deadline=None)
    @given(relator_blocks())
    def test_blocks(self, case):
        text, lines = case
        raw = text.encode()
        one_digit = all(1 <= i <= 9 for line in lines for _, i in line)
        cells = D._one_digit_cells(np.frombuffer(raw, np.uint8)) if len(raw) % 3 == 0 else None
        assert (cells is not None) == one_digit
        general = general_branch(raw)
        assert (general is None) == any(i == 0 for line in lines for _, i in line)
        if cells is not None:
            assert cells[0].dtype == np.int8
            assert cells[0].tolist() == general[0].tolist() and cells[1].tolist() == general[1].tolist()
            assert D._scan_block(raw)[0].tolist() == general[0].tolist()

    @settings(max_examples=400, deadline=None)
    @given(corrupted_blocks())
    def test_corrupted_blocks(self, text):
        # whatever the column branch takes, the general branch takes as well
        raw = text.encode()
        cells = D._one_digit_cells(np.frombuffer(raw, np.uint8)) if len(raw) % 3 == 0 else None
        if cells is not None:
            general = general_branch(raw)
            assert general is not None
            assert cells[0].tolist() == general[0].tolist() and cells[1].tolist() == general[1].tolist()

    @settings(max_examples=400, deadline=None)
    @given(dump_texts(), st.sampled_from([1, 5, 24, D._PARSE_BLOCK]))
    def test_texts(self, text, block):
        # n <= 9 and n >= 10, edits, g0, and blocks of one line up to all
        with patch.object(D, "_PARSE_BLOCK", block):
            scanned = D._scan(text)
            with patch.object(D, "_one_digit_cells", lambda b: None):
                general = D._scan(text)
            assert parsed(text) == line_parsed(text)
        assert (scanned is None) == (general is None)
        if scanned is not None:
            n, letters, offsets, k = scanned
            assert (n, k) == (general[0], general[3]) and letters.dtype == np.int64
            assert letters.tolist() == general[1].tolist() and offsets.tolist() == general[2].tolist()

    def test_a_dump_of_one_digit_tokens_takes_the_column_branch(self, monkeypatch):
        p = sample_gamma_strict(3, 7, 0.5, Seed(4))
        taken = []
        cells = D._one_digit_cells
        monkeypatch.setattr(D, "_one_digit_cells", lambda b: taken.append(cells(b) is not None) or cells(b))
        assert Presentation.parse(p.dump()) == p and taken and all(taken)
