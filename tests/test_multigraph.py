import numpy as np
import pytest

from spectralt.errors import InputError
from spectralt.multigraph import MultiGraph, edge_key, union


def path4():
    return MultiGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


class TestConstruction:
    def test_vertex_order_is_first_occurrence(self):
        g = MultiGraph(["b", "a", "b"], [("a", "b")])
        assert g.vertices == ("b", "a")

    def test_multiplicity_accumulates(self):
        g = MultiGraph("ab", [("a", "b"), ("b", "a")])
        assert g.multiplicity("a", "b") == 2
        assert g.num_edges() == 2

    def test_edge_key_is_sorted(self):
        assert edge_key("b", "a") == edge_key("a", "b")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError):
            MultiGraph("ab", [("a", "c")])

    def test_partition_must_cover_and_cross(self):
        with pytest.raises(InputError):
            MultiGraph("abc", [], partition=(["a"], ["b"]))
        with pytest.raises(InputError):
            MultiGraph("ab", [("a", "b")], partition=(["a", "b"], []))


class TestDegrees:
    def test_path_degrees(self):
        g = path4()
        assert g.degrees() == {"a": 1, "b": 2, "c": 2, "d": 1}
        prof = g.degree_profile()
        assert (prof.min, prof.max) == (1, 2)
        assert prof.mean == pytest.approx(1.5)

    def test_loop_counts_once(self):
        g = MultiGraph("a", [("a", "a")])
        assert g.degree("a") == 1

    def test_adjacency(self):
        g = MultiGraph("ab", {("a", "b"): 3})
        a = g.adjacency_matrix()
        assert a.dtype == np.int64
        assert a[0, 1] == a[1, 0] == 3


class TestOps:
    def test_collapse(self):
        g = MultiGraph("ab", {("a", "b"): 2})
        assert g.collapse_multi_edges().multiplicity("a", "b") == 1

    def test_components(self):
        assert path4().components() == 1
        assert MultiGraph("abcd", [("a", "b")]).components() == 3

    def test_union_sums_multiplicities(self):
        g = MultiGraph("ab", [("a", "b")], partition=("a", "b"))
        h = MultiGraph("bca", [("a", "b")] * 2, partition=("ac", "b"))
        u = union(g, h, g)
        assert u.multiplicity("a", "b") == 4
        assert u.vertices == ("a", "b", "c")
        assert u.partition == (frozenset("ac"), frozenset("b"))

    def test_union_of_disjoint_vertex_sets(self):
        g = MultiGraph("ab", [("a", "b")])
        h = MultiGraph("cd", [("c", "d")])
        e = MultiGraph("ef", [("e", "f")])
        u = union(g, h, e)
        assert u.vertices == tuple("abcdef") and u.num_edges() == 3

    def test_union_partition_needs_every_input(self):
        g = MultiGraph("ab", [("a", "b")], partition=("a", "b"))
        plain = MultiGraph("bc", [("b", "c")])
        assert union(g, g, plain).partition is None
        flipped = MultiGraph("ab", [("a", "b")], partition=("b", "a"))
        with pytest.raises(InputError, match="conflicting"):
            union(g, g, flipped)

    def test_dump_parse_round_trip(self):
        g = MultiGraph("abc", {("a", "b"): 2, ("b", "c"): 1})
        h = MultiGraph.parse(g.dump())
        assert h == g
        assert h.dump() == g.dump()

    def test_parse_rejects_non_integer_multiplicity(self):
        with pytest.raises(InputError, match="multiplicity must be an integer"):
            MultiGraph.parse("v a\nv b\ne a b x\n")

    def test_equality_ignores_vertex_order(self):
        g = MultiGraph("ab", [("a", "b")])
        h = MultiGraph("ba", [("a", "b")])
        assert g == h
