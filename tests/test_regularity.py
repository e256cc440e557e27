import numpy as np
import pytest

from spectralt import regularity
from spectralt import words as W
from spectralt.delta import sigma_decomposition
from spectralt.errors import InputError
from spectralt.multigraph import edge_key
from spectralt.randmodels import (
    Seed,
    sample_bipartite_gnp,
    sample_gamma_strict,
    sample_red,
)
from spectralt.regularity import (
    extract_red_regular_union,
    extract_regular_subgraph,
    ore_ryser_feasible,
    red_class_layers,
)

from graphs import graph, sides


def bipartite(v1, v2, pairs):
    return graph(list(v1) + list(v2), pairs, partition=(v1, v2))


class TestExtraction:
    def test_complete_bipartite_factor(self):
        v1, v2 = ["a", "b", "c"], ["x", "y", "z"]
        g = bipartite(v1, v2, [(u, v) for u in v1 for v in v2])
        f = extract_regular_subgraph(g, 2, 2)
        assert f is not None
        deg = f.degrees()
        assert all(deg[v] == 2 for v in v1 + v2)
        g_edges = g.edges
        assert all(g_edges.get(edge_key(u, v), 0) == 1 for u, v in f.edges)

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
        g = graph("ab", [("a", "b")])
        with pytest.raises(InputError):
            extract_regular_subgraph(g, 1, 1)

    def test_max_flow_stops_at_the_flow_it_needs(self, flow_phases):
        # s = 0, t = 1: s->2 (2), s->3 (1), 2->t (1), 2->3 (1), 3->t (2)
        network = (4, np.array([0, 0, 2, 2, 3]), np.array([2, 3, 1, 3, 1]),
                   np.array([2, 1, 1, 1, 2]), np.zeros(5, dtype=np.int64), 0, 1)
        added, res = regularity._max_flow(*network, 10**9)  # runs until no path is left
        assert added == 3
        # at need = the maximum it stops there, with the same residual network
        at_max = regularity._max_flow(*network, 3)
        assert at_max[0] == 3 and at_max[1].tolist() == res.tolist()
        assert regularity._max_flow(*network, 1)[0] == 1
        assert regularity._max_flow(*network, 0)[1].tolist() == [2, 0, 1, 0, 1, 0, 1, 0, 2, 0]


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
            assert np.count_nonzero(layer.side) == 3  # n=2, l=2: 4 classes of 3 words

    @pytest.mark.parametrize("n,l", [(2, 2), (2, 3), (3, 2)])
    def test_layers_keep_g_vertex_order(self, n, l):
        g = sample_red(n, l, 0.6, Seed(23, l))
        cls = np.array([W.class_index(W.word_from_label(v), n) for v in g.vertices])
        for i, layer in red_class_layers(g, n).items():
            assert layer.vertices == g.vertices
            assert np.array_equal(layer.side, cls == i)

    def test_same_class_edge_rejected(self):
        g = graph(["g1g2", "g1G2"], [("g1g2", "g1G2")])
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


# ---- the label-keyed extraction this module replaced, kept as an oracle ----


class OldDinic:
    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, cap):
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def old_extract_regular_subgraph(g, d1, d2):
    if g.side is None:
        raise InputError("graph carries no bipartition")
    if any(m > 1 for m in g.edges.values()):
        raise InputError("graph is not simple; collapse multi-edges first")
    p1, p2 = sides(g)
    order = {v: i for i, v in enumerate(g.vertices)}
    left, right = sorted(p1, key=order.get), sorted(p2, key=order.get)
    if d1 * len(left) != d2 * len(right):
        raise InputError(f"balance violation: {d1}*{len(left)} != {d2}*{len(right)}")
    if d1 == 0:
        return graph(g.vertices, {}, partition=sides(g))
    li = {v: i for i, v in enumerate(left)}
    ri = {v: i for i, v in enumerate(right)}
    s, t = 0, 1
    dinic = OldDinic(2 + len(left) + len(right))
    for v in left:
        dinic.add_edge(s, 2 + li[v], d1)
    for v in right:
        dinic.add_edge(2 + len(left) + ri[v], t, d2)
    edge_ids = []
    for key in sorted(g.edges):
        u, v = key
        a, b = (li[u], ri[v]) if u in li else (li[v], ri[u])
        edge_ids.append((dinic.add_edge(2 + a, 2 + len(left) + b, 1), key))
    if dinic.max_flow(s, t) != d1 * len(left):
        return None
    chosen = {key: 1 for idx, key in edge_ids if dinic.cap[idx] == 0}
    return graph(g.vertices, chosen, partition=sides(g))


def list_max_flow(size, tail, head, cap, flow, s, t, need, phases=None):
    """`regularity._max_flow` on Python lists, as it was written before its
    level graph was built in numpy: a full BFS and a descent that scans every
    arc from the node's pointer.  Appends each phase's level of t to `phases`."""
    arc_tail = np.stack([tail, head], axis=1).ravel()
    arc_at = np.argsort(arc_tail, kind="stable")
    slot = np.empty_like(arc_at)
    slot[arc_at] = np.arange(len(arc_at))
    to = np.stack([head, tail], axis=1).ravel()[arc_at].tolist()
    res = np.stack([cap - flow, flow], axis=1).ravel()[arc_at].tolist()
    rev = slot[arc_at ^ 1].tolist()
    start = [0] + np.cumsum(np.bincount(arc_tail, minlength=size)).tolist()
    added = 0
    while added < need:
        level = [-1] * size
        level[s] = 0
        queue = [s]
        for x in queue:
            for i in range(start[x], start[x + 1]):
                if res[i] > 0 and level[to[i]] < 0:
                    level[to[i]] = level[x] + 1
                    queue.append(to[i])
        if phases is not None:
            phases.append(level[t])
        if level[t] < 0:
            break
        it = start[:-1]
        path, arcs = [s], []
        while path and added < need:
            x = path[-1]
            if x == t:
                got = min(map(res.__getitem__, arcs))
                for i in arcs:
                    res[i] -= got
                    res[rev[i]] += got
                added += got
                cut = 0
                while res[arcs[cut]]:
                    cut += 1
                del path[cut + 1 :], arcs[cut:]
                continue
            i, end, down = it[x], start[x + 1], level[x] + 1
            while i < end and not (res[i] > 0 and level[to[i]] == down):
                i += 1
            it[x] = i
            if i < end:
                arcs.append(i)
                path.append(to[i])
            else:
                path.pop()
                if arcs:
                    arcs.pop()
                    it[path[-1]] += 1
    return added, np.array(res, dtype=np.int64)[slot]


@pytest.fixture
def flow_phases(monkeypatch):
    """Check every `_max_flow` call against `list_max_flow`; the phase count
    of each call (BFS passes that found t), in call order."""
    counts = []
    max_flow = regularity._max_flow

    def checked(*args):
        phases = []
        expect = list_max_flow(*args, phases=phases)
        added, res = max_flow(*args)
        assert added == expect[0] and np.array_equal(res, expect[1])
        counts.append(sum(level >= 0 for level in phases))
        return added, res

    monkeypatch.setattr(regularity, "_max_flow", checked)
    return counts


def old_red_class_layers(g, n):
    classes = {v: W.class_index(W.word_from_label(v), n) for v in g.vertices}
    index = {v: i for i, v in enumerate(g.vertices)}
    layer_edges = {i: {} for i in range(1, 2 * n + 1)}
    for (u, v), m in g.edges.items():
        cu, cv = classes[u], classes[v]
        if cu == cv:
            raise InputError(f"same-class edge {(u, v)}: not a reduced-model graph")
        key = edge_key(u, v)
        if m >= 2:
            layer_edges[cu][key] = 1
            layer_edges[cv][key] = 1
        elif (index[u] + index[v]) % 2 == 0:
            layer_edges[cu][key] = 1
        else:
            layer_edges[cv][key] = 1
    layers = {}
    for i in range(1, 2 * n + 1):
        side = [v for v in g.vertices if classes[v] == i]
        rest = [v for v in g.vertices if classes[v] != i]
        layers[i] = graph(list(g.vertices), layer_edges[i], partition=(side, rest))
    return layers


def same_graph(a, b):
    """Equal vertex order, partition, edge arrays and edge dict."""
    if a is None or b is None:
        return a is b
    return (
        a.vertices == b.vertices
        and sides(a) == sides(b)
        and all(np.array_equal(x, y) for x, y in zip(a.edge_arrays, b.edge_arrays))
        and a.edges == b.edges
    )


def assert_same_factors(g, targets):
    for d1, d2 in targets:
        assert same_graph(extract_regular_subgraph(g, d1, d2), old_extract_regular_subgraph(g, d1, d2))


def assert_same_layers(g, n, ts):
    new, old = red_class_layers(g, n), old_red_class_layers(g, n)
    assert sorted(new) == sorted(old) == list(range(1, 2 * n + 1))
    q = 2 * n - 1
    for i in new:
        assert same_graph(new[i], old[i])
        assert_same_factors(new[i], [(q * t, t) for t in ts])


def random_bipartite(seed):
    """A simple bipartite graph whose labels sort unlike its vertex indices,
    and balanced degree targets for it."""
    rng = np.random.default_rng(seed)
    m1 = int(rng.integers(1, 25))
    m2 = m1 * int(rng.integers(1, 3))
    labels = [f"v{x}" for x in rng.permutation(m1 + m2).tolist()]
    left, right = labels[:m1], labels[m1:]
    mask = rng.random((m1, m2)) < rng.uniform(0.2, 0.9)
    pairs = [(left[i], right[j]) for i, j in zip(*np.nonzero(mask))]
    rng.shuffle(pairs)
    order = rng.permutation(m1 + m2).tolist()
    g = graph([labels[i] for i in order], pairs, partition=(left, right))
    return g, [(m2 // m1 * t, t) for t in range(0, 5)]


# n=2 k=6..15 and n=3 k=6,7, each at three densities
SIGMA_CASES = [(2, k, d) for k in range(6, 16) for d in (0.45, 0.6, 0.7)] + [
    (3, k, d) for k in (6, 7) for d in (0.45, 0.6, 0.7)
]


class TestAgainstLabelExtraction:
    @pytest.mark.parametrize("n,k,d", SIGMA_CASES)
    def test_sigma_layers_and_factors(self, n, k, d, monkeypatch, flow_phases):
        monkeypatch.setattr(W, "ENUMERATION_CAP", 10**8)
        p = sample_gamma_strict(n, k, d, Seed(k, int(100 * d)))
        dec = sigma_decomposition(p, k)
        for sigma in (dec.sigma1, dec.sigma2, dec.sigma3):
            assert_same_layers(sigma, n, (1, 2, 3))
        if dec.case:
            q = 2 * n - 1
            d2 = (lambda t: t) if dec.case == 1 else (lambda t: q * q * t)
            for sigma in (dec.sigma1, dec.sigma3):
                assert_same_factors(
                    sigma.collapse_multi_edges(), [(q * t, d2(t)) for t in (1, 2, 3)]
                )

    @pytest.mark.parametrize("seed", range(12))
    def test_red_graphs_in_shuffled_vertex_order(self, seed):
        # index order differs from label order, so the parity rule's
        # orientation by label and the label-keyed arc order both show
        rng = np.random.default_rng(seed)
        n, l = (2, 3) if seed % 2 else (3, 2)
        g = sample_red(n, l, 0.3 + 0.05 * (seed % 8), Seed(30, seed))
        order = rng.permutation(g.num_vertices()).tolist()
        g = graph([g.vertices[i] for i in order], g.edges)
        assert_same_layers(g, n, (1, 2, 3, 4))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_bipartite_graphs(self, seed, flow_phases):
        g, targets = random_bipartite(seed)
        assert_same_factors(g, targets)

    def test_greedy_first_phase_is_dinics(self, monkeypatch, flow_phases):
        cases = [random_bipartite(seed) for seed in range(40)]
        for n, k, d in [(2, 9, 0.7), (2, 10, 0.7), (2, 11, 0.7), (3, 6, 0.7)]:
            dec = sigma_decomposition(sample_gamma_strict(n, k, d, Seed(k, 1)), k)
            q = 2 * n - 1
            cases += [(x, [(q * t, t) for t in (1, 2, 3)])
                      for x in red_class_layers(dec.sigma2, n).values()]
        expect = [extract_regular_subgraph(g, *dd) for g, targets in cases for dd in targets]
        assert any(f is not None for f in expect) and None in expect
        # with no flow from the greedy pass, the first phase runs as a search
        monkeypatch.setattr(
            regularity, "_first_phase", lambda left_of, *_: np.zeros(len(left_of), bool)
        )
        got = [extract_regular_subgraph(g, *dd) for g, targets in cases for dd in targets]
        assert all(same_graph(a, b) for a, b in zip(got, expect))
        # the level graph is rebuilt, and residuals written back, phase after
        # phase: the benchmark's calls almost all finish in one
        assert max(flow_phases) >= 3

    def test_same_class_error_names_the_same_edge(self):
        # the first in (u, v) order, which is g.edges' order, named as
        # edge_key orients it, which here is not the index order
        g = graph(
            ["g2g1", "g2G1", "g1G2", "g1g2", "G1g2"],
            [("g2g1", "g2G1"), ("g2g1", "G1g2"), ("g1G2", "g1g2")],
        )
        with pytest.raises(InputError) as new:
            red_class_layers(g, 2)
        with pytest.raises(InputError) as old:
            old_red_class_layers(g, 2)
        assert str(new.value) == str(old.value) == (
            "same-class edge ('g2G1', 'g2g1'): not a reduced-model graph"
        )

    def test_long_augmenting_path(self, flow_phases):
        # a path: L_0 meets R_0, and L_i (i > 0) meets R_i and R_{i-1}.
        # Taking L_1..L_{N-1} first matches each to R_{i-1}, so L_0 needs the
        # one augmenting path through all 2N vertices, deeper than the
        # recursion limit of a recursive search
        n = 600
        lab = lambda side, i: f"{side}{i:03d}"
        left = [lab("L", i) for i in [*range(1, n), 0]]
        right = [lab("R", i) for i in range(n)]
        pairs = [(lab("L", i), lab("R", i)) for i in range(n)]
        pairs += [(lab("L", i), lab("R", i - 1)) for i in range(1, n)]
        g = graph(left + right, pairs, partition=(left, right))
        f = extract_regular_subgraph(g, 1, 1)
        assert f is not None
        assert sorted(f.edges) == sorted(edge_key(*e) for e in pairs[:n])
