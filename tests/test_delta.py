import pytest

from spectralt import words as W
from spectralt.delta import (
    Presentation,
    build_delta3,
    build_delta_k,
    double_edge_audit,
    sigma_decomposition,
)
from spectralt.errors import InputError
from spectralt.multigraph import MultiGraph, edge_key, union
from spectralt.randmodels import Seed, sample_gamma_p


def aba():
    return Presentation(2, ((1, 2, 1),))


class TestPresentation:
    def test_validation(self):
        with pytest.raises(InputError):
            Presentation(2, ((1, -1),))  # not reduced
        with pytest.raises(InputError):
            Presentation(2, ((1, 2, -1),))  # not cyclically reduced
        with pytest.raises(InputError):
            Presentation(2, ((3,),))  # letter out of range

    def test_relators_of_length(self):
        p = Presentation(2, ((1, 2, 1), (1, 2, 1, 2)))
        assert p.relators_of_length(3) == ((1, 2, 1),)

    def test_dump_parse_round_trip(self):
        p = Presentation(2, ((1, 2, 1), (2, 2, 2)), k=3)
        assert Presentation.parse(p.dump()) == p
        mixed = Presentation(2, ((1, 2, 1), (2, 1, -2, 1)))
        assert Presentation.parse(mixed.dump()) == mixed

    def test_k_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            Presentation(2, ((1, 2, 1, 2),), k=3)

    def test_parse_comments_and_blank_lines(self):
        q = Presentation.parse("# header\nn 2\n\ng1 g2 g1\n")
        assert q.relators == ((1, 2, 1),)


class TestDelta:
    def test_aba_is_the_expected_path(self):
        g = build_delta3(aba())
        expect = MultiGraph(
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


class TestSigma:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_union_recovers_delta(self, k):
        p = sample_gamma_p(2, k, 0.4, Seed(4, k))
        dec = sigma_decomposition(p, k)
        delta = build_delta_k(p, k)
        assert dec.delta() == delta
        # MultiGraph equality ignores vertex order; bit-identical lambda1 needs it
        assert dec.delta().vertices == delta.vertices

    def test_case_dispatch(self):
        for k, case in [(3, 0), (4, 1), (5, 2), (6, 0)]:
            p = sample_gamma_p(2, k, 0.3, Seed(5, k))
            dec = sigma_decomposition(p, k)
            assert dec.case == case
            if case == 0:
                assert dec.sigma1.partition is None
            else:
                assert dec.sigma1.partition is not None
                assert dec.sigma3.partition is not None
                assert dec.sigma2.num_vertices() == W.word_count(2, dec.l_k)

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
    return MultiGraph(
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
        gens = [w for w in alphabet if w < W.invert(w)]
        code = {}
        for i, w in enumerate(gens, start=1):
            code[w] = i
            code[W.invert(w)] = -i
        relators3 = tuple(
            tuple(code[part] for part in W.split_relator(r, k))
            for r in p.relators_of_length(k)
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
        g = MultiGraph(
            "habcd", {("h", x): 2 for x in "abcd"}
        )
        audit = double_edge_audit(g, m_bound=3)
        assert audit.max_multiplicity == 2
        assert audit.max_doubles_per_vertex == 4
        assert not audit.doubles_form_matching
        assert not audit.within_m_bound
        assert double_edge_audit(g, m_bound=4).within_m_bound
