import numpy as np
import pytest

from spectralt.errors import InputError
from spectralt.multigraph import MultiGraph, _canonical, edge_key, union
from spectralt.randmodels import (
    Seed, sample_bipartite_gnp, sample_bred, sample_gnp, sample_red,
)

from graphs import graph


def path4():
    return graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


class TestConstruction:
    def test_vertex_order_is_first_occurrence(self):
        g = graph(["b", "a", "b"], [("a", "b")])
        assert g.vertices == ("b", "a")

    def test_multiplicity_accumulates(self):
        g = graph("ab", [("a", "b"), ("b", "a")])
        assert g.edges.get(edge_key("a", "b"), 0) == 2
        assert g.num_edges() == 2

    def test_edge_key_is_sorted(self):
        assert edge_key("b", "a") == edge_key("a", "b")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError, match=r"not a vertex index in \[0, 2\)"):
            MultiGraph("ab", [0], [2])
        with pytest.raises(InputError, match="not a vertex index"):
            MultiGraph("ab", [-1], [1])
        with pytest.raises(InputError, match=r"edge endpoint not a vertex: \('a', 'c'\)"):
            graph("ab", [("a", "c")])

    def test_side_mask_must_match_vertex_count(self):
        with pytest.raises(InputError, match=r"shape \(2,\) does not match 3 vertices"):
            MultiGraph("abc", [], [], side=[True, False])
        with pytest.raises(InputError, match=r"shape \(\) does not match 1 vertices"):
            MultiGraph("a", [], [], side=True)

    def test_edges_must_cross_the_sides(self):
        with pytest.raises(InputError, match=r"edge \('a', 'b'\) does not cross"):
            MultiGraph("ab", [0], [1], side=[True, True])
        with pytest.raises(InputError, match=r"edge \('b', 'c'\) does not cross"):
            MultiGraph("abc", [0, 1], [1, 2], side=[True, False, False])

    def test_side_mask_is_a_read_only_copy(self):
        mask = np.array([True, False])
        g = MultiGraph("ab", [0], [1], side=mask)
        mask[0] = False
        assert g.side.tolist() == [True, False] and not g.side.flags.writeable
        assert MultiGraph("ab", [0], [1]).side is None

    def test_edge_arrays_must_match_in_length(self):
        with pytest.raises(InputError, match="differ in length"):
            MultiGraph("abc", [0, 1], [1])
        with pytest.raises(InputError, match="differ in length"):
            MultiGraph("abc", [0, 1], [1, 2], [1])

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(InputError, match="multiplicity 0 < 1"):
            MultiGraph("abc", [0, 1], [1, 2], [1, 0])

    def test_repeated_labels_rejected(self):
        with pytest.raises(InputError, match="repeat"):
            MultiGraph(["a", "b", "a"], [0], [1])


class TestDegrees:
    def test_path_degrees(self):
        g = path4()
        assert g.degrees() == {"a": 1, "b": 2, "c": 2, "d": 1}
        prof = g.degree_profile()
        assert (prof.min, prof.max) == (1, 2)
        assert prof.mean == pytest.approx(1.5)

    def test_loop_counts_once(self):
        g = graph("a", [("a", "a")])
        assert g.degree("a") == 1

    def test_adjacency(self):
        g = graph("ab", {("a", "b"): 3})
        a = g.adjacency_matrix()
        assert a.dtype == np.int64
        assert a[0, 1] == a[1, 0] == 3

    def test_degree_array_is_counted_once_and_read_only(self):
        g = graph("abcd", {("a", "b"): 2, ("b", "c"): 1, ("c", "c"): 3})
        deg = g.degree_array()
        assert deg is g.degree_array() and deg.dtype == np.int64
        assert deg.tolist() == [2, 3, 4, 0]
        with pytest.raises(ValueError):
            deg[0] = 7
        assert g.degree_profile().max == 4 and g.degrees() == dict(zip("abcd", [2, 3, 4, 0]))


class TestOps:
    def test_collapse(self):
        g = graph("ab", {("a", "b"): 2})
        assert g.collapse_multi_edges().edges.get(edge_key("a", "b"), 0) == 1

    def test_components(self):
        assert path4().components() == 1
        assert graph("abcd", [("a", "b")]).components() == 3

    def test_union_sums_multiplicities(self):
        g = graph("ab", [("a", "b")], partition=("a", "b"))
        h = graph("bca", [("a", "b")] * 2, partition=("ac", "b"))
        u = union(g, h, g)
        assert u.edges.get(edge_key("a", "b"), 0) == 4
        assert u.vertices == ("a", "b", "c")
        assert u.side.tolist() == [True, False, True]

    def test_union_of_disjoint_vertex_sets(self):
        g = graph("ab", [("a", "b")])
        h = graph("cd", [("c", "d")])
        e = graph("ef", [("e", "f")])
        u = union(g, h, e)
        assert u.vertices == tuple("abcdef") and u.num_edges() == 3

    def test_union_partition_needs_every_input(self):
        g = graph("ab", [("a", "b")], partition=("a", "b"))
        plain = graph("bc", [("b", "c")])
        assert union(g, g, plain).side is None
        flipped = graph("ab", [("a", "b")], partition=("b", "a"))
        with pytest.raises(InputError, match="conflicting"):
            union(g, g, flipped)

    def test_equality_ignores_vertex_order(self):
        g = graph("ab", [("a", "b")])
        h = graph("ba", [("a", "b")])
        assert g == h


class OldGraph:
    """The dict-keyed multigraph the array one replaced, kept as an oracle."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(dict.fromkeys(vertices))
        items = edges.items() if isinstance(edges, dict) else ((e, 1) for e in edges)
        self.edges = {}
        for (u, v), m in items:
            key = edge_key(u, v)
            self.edges[key] = self.edges.get(key, 0) + m

    def degrees(self):
        deg = {v: 0 for v in self.vertices}
        for (u, v), m in self.edges.items():
            deg[u] += m
            if v != u:
                deg[v] += m
        return deg

    def adjacency_matrix(self):
        index = {v: i for i, v in enumerate(self.vertices)}
        a = np.zeros((len(index), len(index)), dtype=np.int64)
        for (u, v), m in self.edges.items():
            a[index[u], index[v]] += m
            if u != v:
                a[index[v], index[u]] += m
        return a

    def components(self):
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(v) for v in self.vertices})

    def dump(self):
        lines = [f"v {v}" for v in self.vertices]
        lines += [f"e {u} {v} {m}" for (u, v), m in sorted(self.edges.items())]
        return "\n".join(lines) + "\n"


def random_edges(rng, labels, count):
    """Random edges with loops and repeats, as a dict or as a pair list."""
    pairs = [(labels[rng.integers(len(labels))], labels[rng.integers(len(labels))])
             for _ in range(count)]
    if rng.random() < 0.5:
        return pairs
    return {pair: int(rng.integers(1, 4)) for pair in pairs}


def random_labels(rng):
    # construction order differs from label order, and "a10" < "a9"
    pool = ["a9", "a10", "b", "B", "g1G2", "g1g2", "G1", "x", "y1", "y10", "y2", "zz", "a1"]
    m = int(rng.integers(1, len(pool) + 1))
    return [pool[i] for i in rng.permutation(len(pool))[:m]]


class TestAgainstDictImplementation:
    def assert_same(self, g, old):
        assert g.vertices == old.vertices
        assert g.edges == old.edges
        assert g.num_edges() == sum(old.edges.values())
        assert g.degrees() == old.degrees()
        assert g.components() == old.components()
        assert g.dump() == old.dump()
        assert np.array_equal(g.adjacency_matrix(), old.adjacency_matrix())
        u, v, mult = g.edge_arrays
        assert np.all(u <= v) and np.all(mult >= 1)
        assert np.all(np.diff(u * len(g.vertices) + v) > 0)  # distinct and sorted

    def test_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            labels = random_labels(rng)
            vertices = labels + labels[: rng.integers(len(labels) + 1)]  # repeats
            edges = random_edges(rng, labels, int(rng.integers(0, 20)))
            self.assert_same(graph(vertices, edges), OldGraph(vertices, edges))

    def test_sparse_graphs_components(self):
        rng = np.random.default_rng(8)
        labels = [f"v{i}" for i in range(60)]
        for count in (0, 5, 20, 40, 60, 120):
            for _ in range(5):
                edges = random_edges(rng, labels, count)
                g, old = graph(labels, edges), OldGraph(labels, edges)
                assert g.components() == old.components()

    def test_long_path_components(self):
        labels = [f"v{i:03d}" for i in range(300)]
        order = np.random.default_rng(9).permutation(300)
        path = [(labels[order[i]], labels[order[i + 1]]) for i in range(299)]
        assert graph(labels, path).components() == 1
        assert graph(labels, path[:150] + path[151:]).components() == 2

    def test_union_and_collapse(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                labels = random_labels(rng)
                parts.append((labels, random_edges(rng, labels, int(rng.integers(0, 10)))))
            merged = OldGraph([v for labels, _ in parts for v in labels], {})
            for labels, edges in parts:
                for key, m in OldGraph(labels, edges).edges.items():
                    merged.edges[key] = merged.edges.get(key, 0) + m
            self.assert_same(union(*(graph(*part) for part in parts)), merged)
            g = graph(*parts[0])
            collapsed = OldGraph(g.vertices, {key: 1 for key in g.edges})
            self.assert_same(g.collapse_multi_edges(), collapsed)

    def test_edges_is_a_copy(self):
        g = graph("ab", {("a", "b"): 2})
        g.edges[("a", "b")] = 5
        assert g.edges.get(edge_key("a", "b"), 0) == 2
        with pytest.raises(ValueError):
            g.edge_arrays[2][0] = 5

    def test_equality_with_other_vertex_order_or_edges(self):
        g = graph("abc", {("a", "b"): 2, ("c", "c"): 1})
        assert g == graph("cab", {("b", "a"): 2, ("c", "c"): 1})
        assert g != graph("abc", {("a", "b"): 1, ("c", "c"): 1})
        assert g != graph("abcd", {("a", "b"): 2, ("c", "c"): 1})

    def test_equality_across_vertex_orders_reads_no_edge_dict(self, monkeypatch):
        monkeypatch.setattr(MultiGraph, "edges", property(lambda g: pytest.fail(".edges read")))
        edges = {("a", "b"): 2, ("c", "c"): 1, ("b", "d"): 3, ("a", "d"): 1}
        g = graph("abcd", edges)
        assert g == graph("dbca", {(b, a): m for (a, b), m in edges.items()})
        assert g != graph("dbca", {**edges, ("a", "d"): 2})
        # the same sizes and structure on another label set
        assert g != graph("abce", {(a, b.replace("d", "e")): m for (a, b), m in edges.items()})


def unique_canonical(m, u, v, mult):
    """`multigraph._canonical` through `np.unique` alone, as it was before
    already-canonical input took a fast path."""
    keys = np.minimum(u, v) * m + np.maximum(u, v)
    if mult is None:
        keys, total = np.unique(keys, return_counts=True)
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        total = np.zeros(len(keys), dtype=np.int64)
        np.add.at(total, inverse, mult)
    m = max(m, 1)
    return keys // m, keys % m, total


class TestCanonical:
    def assert_same(self, m, u, v, mult):
        got = _canonical(m, u, v, mult)
        expect = unique_canonical(m, u, v, mult)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_unique_path(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 30))
        u, v = rng.integers(0, m, size=(2, int(rng.integers(0, 60))))
        mult = rng.integers(1, 5, len(u)) if seed % 2 else None
        self.assert_same(m, u, v, mult)  # shuffled, pairs repeated
        low, high, total = unique_canonical(m, u, v, mult)
        swapped = rng.random(len(low)) < 0.5  # the same edges, some as (v, u)
        self.assert_same(m, low, high, total)
        self.assert_same(m, np.where(swapped, high, low), np.where(swapped, low, high), total)
        if len(low):
            again = np.sort(np.append(np.arange(len(low)), 0))  # one pair twice
            self.assert_same(m, low[again], high[again], total[again])
        # distinct and sorted: returned as they are, with no sort
        monkeypatch.setattr(np, "unique", None)
        got = _canonical(m, low, high, total if mult is not None else None)
        assert np.array_equal(got[0], low) and np.array_equal(got[1], high)

    def test_graph_copies_the_callers_multiplicities(self):
        mult = np.array([2, 3])
        g = MultiGraph("abc", [0, 1], [1, 2], mult)
        mult[0] = 9
        assert mult.flags.writeable and g.edge_arrays[2].tolist() == [2, 3]


def fstring_dump(g):
    """`MultiGraph.dump` as it was written before: one f-string per edge."""
    lab = g.vertices
    a, b, order = g._label_keys()
    lines = [f"v {v}" for v in lab]
    for x, y, m in zip(a[order].tolist(), b[order].tolist(), g.edge_arrays[2][order].tolist()):
        lines.append(f"e {lab[x]} {lab[y]} {m}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("sample", [
    lambda: sample_gnp(60, 0.3, Seed(1)),
    lambda: sample_bipartite_gnp(20, 35, 0.4, Seed(2)),
    lambda: sample_red(2, 3, 0.4, Seed(3)),
    lambda: sample_bred(2, 3, 0.3, Seed(4)),
    lambda: sample_red(3, 2, 0.7, Seed(5)),
    lambda: graph("ba", []),
    lambda: MultiGraph([], [], []),
], ids=["gnp", "bgnp", "red", "bred", "red n3", "no edges", "empty"])
def test_dump_is_the_fstring_text(sample):
    g = sample()
    assert g.dump() == fstring_dump(g)
