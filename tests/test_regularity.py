import pytest

from spectralt.errors import InputError
from spectralt.multigraph import MultiGraph
from spectralt.randmodels import Seed, sample_bipartite_gnp, sample_red
from spectralt.regularity import (
    RegularityParams,
    extract_red_regular_union,
    extract_regular_subgraph,
    is_almost_biregular,
    is_almost_regular,
    ore_ryser_feasible,
    red_class_layers,
)


def bipartite(v1, v2, pairs):
    return MultiGraph(list(v1) + list(v2), pairs, partition=(v1, v2))


class TestAlmostRegular:
    def test_within_band(self):
        g = MultiGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert is_almost_regular(g, 2, 0.25)
        assert not is_almost_regular(g, 4, 0.25)

    def test_biregular(self):
        g = bipartite(["a", "b"], ["x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        assert is_almost_biregular(g, 2, 2, 0.1)


class TestExtraction:
    def test_complete_bipartite_factor(self):
        v1, v2 = ["a", "b", "c"], ["x", "y", "z"]
        g = bipartite(v1, v2, [(u, v) for u in v1 for v in v2])
        f = extract_regular_subgraph(g, 2, 2)
        assert f is not None
        deg = f.degrees()
        assert all(deg[v] == 2 for v in v1 + v2)
        assert all(g.multiplicity(u, v) == 1 for u, v in f.edges)

    def test_infeasible_returns_none(self):
        v1, v2 = ["a", "b"], ["x", "y"]
        g = bipartite(v1, v2, [("a", "x")])
        assert extract_regular_subgraph(g, 1, 1) is None

    def test_balance_violation(self):
        v1, v2 = ["a", "b"], ["x", "y", "z"]
        g = bipartite(v1, v2, [(u, v) for u in v1 for v in v2])
        with pytest.raises(InputError, match="balance"):
            extract_regular_subgraph(g, 1, 1)

    def test_zero_target(self):
        v1, v2 = ["a"], ["x"]
        g = bipartite(v1, v2, [("a", "x")])
        f = extract_regular_subgraph(g, 0, 0)
        assert f is not None and f.num_edges() == 0

    def test_requires_partition(self):
        g = MultiGraph("ab", [("a", "b")])
        with pytest.raises(InputError):
            extract_regular_subgraph(g, 1, 1)


class TestOreRyser:
    def test_agrees_with_flow_exhaustively(self):
        v1 = ["x1", "x2", "x3"]
        v2 = ["y1", "y2", "y3"]
        pairs = [(u, v) for u in v1 for v in v2]
        for d in range(4):
            for bits in range(512):
                edges = [e for j, e in enumerate(pairs) if bits >> j & 1]
                g = bipartite(v1, v2, edges)
                assert ore_ryser_feasible(g, d, d) == (
                    extract_regular_subgraph(g, d, d) is not None
                )

    def test_large_graph_uses_flow(self):
        g = sample_bipartite_gnp(10, 10, 0.9, Seed(21, 0))
        # 20 vertices is beyond the brute-force cutoff; smoke the flow path
        assert isinstance(ore_ryser_feasible(g, 2, 2), bool)


class TestRedLayers:
    def test_layers_partition_single_edges(self):
        for i in range(10):
            g = sample_red(2, 2, 0.5, Seed(22, i))
            layers = red_class_layers(g, 2)
            assert sorted(layers) == [1, 2, 3, 4]
            total = {}
            for layer in layers.values():
                for e in layer.edges:
                    total[e] = total.get(e, 0) + 1
            for e, m in g.edges.items():
                assert total[e] == (2 if m >= 2 else 1)

    def test_layer_is_class_bipartite(self):
        g = sample_red(2, 2, 0.7, Seed(23, 0))
        layers = red_class_layers(g, 2)
        for i, layer in layers.items():
            side, rest = layer.partition
            assert len(side) == 3  # n=2, l=2: 4 classes of 3 words

    def test_same_class_edge_rejected(self):
        g = MultiGraph(["g1g2", "g1G2"], [("g1g2", "g1G2")])
        with pytest.raises(InputError, match="same-class"):
            red_class_layers(g, 2)


class TestRedUnion:
    def test_dense_union_is_regular(self):
        successes = 0
        for i in range(20):
            g = sample_red(2, 2, 0.9, Seed(24, i))
            u = extract_red_regular_union(g, 2, 2, 3, 1)
            if u is None:
                continue
            successes += 1
            deg = u.degrees()
            assert all(d == 6 for d in deg.values())
        assert successes >= 15

    def test_balance_guard(self):
        g = sample_red(2, 2, 0.9, Seed(25, 0))
        with pytest.raises(InputError):
            extract_red_regular_union(g, 2, 2, 2, 1)

    def test_params_validation(self):
        with pytest.raises(InputError):
            RegularityParams(delta=-0.1)
