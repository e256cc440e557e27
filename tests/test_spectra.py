import math

import numpy as np
import pytest

from spectralt import spectra
from spectralt.delta import build_delta_k
from spectralt.errors import DegenerateGraphError, InputError, ResourceCapError
from spectralt.multigraph import MultiGraph
from spectralt.randmodels import Seed, sample_bipartite_gnp, sample_gamma_strict, sample_gnp

from graphs import graph
from oracles import eigsh_lambda1


def complete_graph(m):
    labels = [f"v{i}" for i in range(m)]
    return graph(labels, [(a, b) for i, a in enumerate(labels)
                               for b in labels[i + 1:]])


def cycle_graph(m):
    labels = [f"v{i}" for i in range(m)]
    return graph(labels, [(labels[i], labels[(i + 1) % m]) for i in range(m)])


class TestLaplacian:
    @pytest.mark.parametrize("m", range(3, 11))
    def test_complete_graph_gap(self, m):
        assert spectra.lambda1(complete_graph(m)) == pytest.approx(
            m / (m - 1), abs=1e-9
        )

    def test_c4_spectrum(self):
        eigs = spectra.spectrum(spectra.normalized_laplacian(cycle_graph(4)))
        assert np.allclose(eigs, [0, 1, 1, 2], atol=1e-9)

    def test_path4_gap(self):
        g = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert spectra.lambda1(g) == pytest.approx(0.5, abs=1e-9)

    def test_range(self):
        for i in range(10):
            g = sample_gnp(10, 0.5, Seed(3, i))
            if g.degree_profile().min == 0:
                continue
            eigs = spectra.spectrum(spectra.normalized_laplacian(g))
            assert eigs[0] >= -1e-9 and eigs[-1] <= 2 + 1e-9

    def test_isolated_vertex_degenerate(self):
        g = graph("abc", [("a", "b")])
        with pytest.raises(DegenerateGraphError):
            spectra.normalized_laplacian(g)
        assert spectra.lambda1(g) == 0.0
        assert spectra.spectral_report(g) == spectra.SpectralReport((), 0.0, True)
        assert spectra.spectral_report(graph("")).degenerate

    def test_loop_counts_once_in_degree(self):
        g = graph("ab", {("a", "a"): 1, ("a", "b"): 1})
        lap = spectra.normalized_laplacian(g)
        assert np.allclose(lap, [[0.5, -1 / np.sqrt(2)], [-1 / np.sqrt(2), 1.0]])

    def test_disconnected_lambda1_zero(self):
        g = graph("abcd", [("a", "b"), ("c", "d")])
        assert spectra.lambda1(g) == 0.0

    def test_single_vertex_rejected(self):
        with pytest.raises(InputError):
            spectra.lambda1(graph("a"))

    def test_eigen_cap(self, monkeypatch):
        monkeypatch.setenv("SPECTRAL_T_MAX_VERTICES", "3")
        with pytest.raises(ResourceCapError):
            spectra.lambda1(complete_graph(4))
        assert spectra.eigen_cap() == 3


class TestWeyl:
    def test_holds_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(3, 8))
            a = rng.normal(size=(m, m))
            b = rng.normal(size=(m, m))
            assert spectra.weyl_check(a + a.T, b + b.T)


class TestBounds:
    def test_report_switching(self):
        g = cycle_graph(5)
        rep = spectra.spectral_report(g)
        assert rep.lambda1 == pytest.approx(rep.eigenvalues[1])


def complete_bipartite(a, b):
    left, right = [f"x{i}" for i in range(a)], [f"y{j}" for j in range(b)]
    return graph(left + right, [(u, v) for u in left for v in right])


def petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return graph([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                      outer + inner + spokes)


def hypercube(dim):
    labels = [format(i, f"0{dim}b") for i in range(2**dim)]
    return graph(labels, [(labels[i], labels[i ^ (1 << b)])
                               for i in range(2**dim) for b in range(dim) if i < i ^ (1 << b)])


def loops_and_multi_edges():
    g = complete_graph(7)
    edges = {key: 1 + (i % 3) for i, key in enumerate(sorted(g.edges))}
    edges.update({("v0", "v0"): 2, ("v3", "v3"): 1, ("v5", "v5"): 4})
    return graph(g.vertices, edges)


def random_delta(n, k, d):
    return build_delta_k(sample_gamma_strict(n, k, d, Seed(k)), k)


# connected graphs: regular, a lambda_1 of multiplicity > 1 (K_m: m - 1,
# C_m: 2, Petersen: 5, Q_4: 4), bipartite (the eigenvalue 2), loops and
# multi-edges, and random link graphs for n = 2, 3 (at k = 18, 972 vertices,
# lambda_1 at the bulk edge, close to lambda_2)
CONNECTED = {
    "K5": lambda: complete_graph(5),
    "K12": lambda: complete_graph(12),
    "C4": lambda: cycle_graph(4),
    "C9": lambda: cycle_graph(9),
    "C40": lambda: cycle_graph(40),
    "petersen": petersen,
    "Q4": lambda: hypercube(4),
    "K3,5": lambda: complete_bipartite(3, 5),
    "loops+multi": loops_and_multi_edges,
    "delta n2k6": lambda: random_delta(2, 6, 0.5),
    "delta n2k8": lambda: random_delta(2, 8, 0.5),
    "delta n2k9": lambda: random_delta(2, 9, 0.45),
    "delta n2k12": lambda: random_delta(2, 12, 0.45),
    "delta n3k5": lambda: random_delta(3, 5, 0.5),
    "delta n3k6": lambda: random_delta(3, 6, 0.45),
    "delta n2k18": lambda: random_delta(2, 18, 0.45),
}


# link graphs above DENSE_LAMBDA1_MAX: Delta_3 of the triangular model at
# n = 300, 1000, 2000 (600 to 4000 vertices) and n = 2 Delta_k up to k = 21
LARGE = {
    **{f"delta3 n{n}": (lambda n=n: random_delta(n, 3, 0.45)) for n in (300, 1000, 2000)},
    **{f"delta n2k{k}": (lambda k=k: random_delta(2, k, 0.45)) for k in (17, 19, 20, 21)},
}


# the corpus and the other n = 2 link graphs of the dense solve, k <= 15
DENSE_DELTAS = {
    **CONNECTED,
    **{f"delta n2k{k}": (lambda k=k: random_delta(2, k, 0.45)) for k in (13, 14, 15)},
}


def dense_lambda1(g):
    return float(np.linalg.eigvalsh(spectra.normalized_laplacian(g))[1])


@pytest.fixture
def lanczos_everywhere(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_LAMBDA1_MAX", 0)


class TestLanczos:
    @pytest.mark.parametrize("name", CONNECTED)
    def test_agrees_with_dense(self, lanczos_everywhere, name):
        g = CONNECTED[name]()
        assert g.components() == 1
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "lanczos"
        assert solve.residual <= spectra.LANCZOS_MAX_RESIDUAL
        assert abs(solve.value - dense_lambda1(g)) <= 1e-9

    @pytest.mark.parametrize("name", [*CONNECTED, *LARGE])
    def test_agrees_with_arpack(self, lanczos_everywhere, name):
        # the restarted eigsh solve this recurrence replaced, and the dense one
        g = {**CONNECTED, **LARGE}[name]()
        assert g.components() == 1
        solve = spectra.lambda1(g, report=True)
        arpack = eigsh_lambda1(g)
        assert solve.solver == arpack.solver == "lanczos"
        assert solve.residual <= spectra.LANCZOS_MAX_RESIDUAL
        for value in (arpack.value, dense_lambda1(g)):
            assert abs(solve.value - value) <= 1e-9
            assert (solve.value > 0.5 + spectra.CERT_MARGIN) == (value > 0.5 + spectra.CERT_MARGIN)

    def test_known_values(self, lanczos_everywhere):
        assert spectra.lambda1(petersen()) == pytest.approx(2 / 3, abs=1e-9)
        assert spectra.lambda1(hypercube(4)) == pytest.approx(0.5, abs=1e-9)
        assert spectra.lambda1(complete_graph(12)) == pytest.approx(12 / 11, abs=1e-9)
        bipartite = spectra.spectrum(spectra.normalized_laplacian(complete_bipartite(3, 5)))
        assert bipartite[-1] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("graph", [
        graph("abcdef", [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")]),
        graph("abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "d")]),
    ])
    def test_disconnected_is_zero_without_a_solve(self, lanczos_everywhere, graph):
        assert spectra.lambda1(graph, report=True) == spectra.Lambda1Solve(0.0, "components", 0.0)

    def test_dense_below_the_threshold_is_unchanged(self):
        g = CONNECTED["delta n2k12"]()
        assert g.num_vertices() <= spectra.DENSE_LAMBDA1_MAX
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "dense" and solve.residual <= 1e-10
        assert solve.value == spectra.lambda1(g) == dense_lambda1(g)

    @pytest.mark.parametrize("name", CONNECTED)
    def test_dense_solve_reads_the_same_lower_triangle(self, name):
        g = CONNECTED[name]()
        full = spectra.normalized_laplacian(g)
        lower = spectra._dense_laplacian(g, lower=True)
        assert np.array_equal(lower, np.tril(full)) and not np.triu(lower, 1).any()
        assert spectra.spectrum(lower, lower=True).tolist() == np.linalg.eigvalsh(full).tolist()

    @pytest.mark.parametrize("name", DENSE_DELTAS)
    def test_sparse_and_dense_laplacians_are_equal(self, name):
        # entry for entry: both are filled from the one walk over the edges
        g = DENSE_DELTAS[name]()
        full = spectra.normalized_laplacian(g)
        lap, _ = spectra._sparse_laplacian(g)
        assert np.array_equal(lap.toarray(), full) and np.array_equal(full, full.T)

    def test_lower_spectrum_ignores_the_upper_triangle(self):
        m = np.array([[2.0, 7.0], [1.0, 2.0]])
        with pytest.raises(InputError, match="not symmetric"):
            spectra.spectrum(m)
        assert spectra.spectrum(m, lower=True).tolist() == pytest.approx([1.0, 3.0])

    def test_threshold_keeps_small_link_graphs_dense(self):
        assert spectra.DENSE_LAMBDA1_MAX >= 500

    def test_one_ritz_pair_to_a_tolerance_inside_the_gate(self, lanczos_everywhere, monkeypatch):
        # the estimate is relative to |theta| <= 2: 2 tol must stay well
        # inside the residual gate checked afterwards
        calls = []
        smallest_ritz_pair = spectra._smallest_ritz_pair

        def recording(d, e):
            pair = smallest_ritz_pair(d, e)
            calls.append((d.copy(), e.copy(), pair))
            return pair

        monkeypatch.setattr(spectra, "_smallest_ritz_pair", recording)
        g = CONNECTED["delta n2k18"]()
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "lanczos" and calls
        for d, e, (theta, s) in calls:  # the smallest Ritz pair, and only it
            t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert theta == pytest.approx(np.linalg.eigvalsh(t)[0], abs=1e-12)
            assert s.shape == d.shape and np.linalg.norm(s) == pytest.approx(1.0)
            assert np.linalg.norm(t @ s - theta * s) <= 1e-12
        assert 2 * spectra.LANCZOS_TOL <= spectra.LANCZOS_MAX_RESIDUAL / 10
        # and it is the tolerance the recurrence stops at: a looser one stops
        # it at an earlier test (and leaves the gate to the dense solve)
        calls.clear()
        monkeypatch.setattr(spectra, "LANCZOS_TOL", 1e-3)
        spectra.lambda1(g)
        assert calls and len(calls[-1][0]) < solve.matvecs

    def test_the_ritz_pair_is_eigh_tridiagonals(self):
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(5)
        for size in (1, 2, 3, 8, 64, 209):
            d, e = 1 + rng.random(size), rng.random(size - 1) / 2
            theta, s = spectra._smallest_ritz_pair(d, e)
            w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
            assert theta == w[0] and np.array_equal(s, v[:, 0])

    @pytest.mark.parametrize("name", [*CONNECTED, *(f"delta n2k{k}" for k in (17, 19, 20, 21))])
    def test_skipped_tests_leave_lambda1(self, lanczos_everywhere, monkeypatch, name):
        # the pair is tested at every multiple of LANCZOS_CHECK_STEPS steps,
        # at the last step and where beta_j <= LANCZOS_TOL, and nowhere else;
        # testing it at every step stops less than LANCZOS_CHECK_STEPS steps
        # earlier, at the same lambda_1
        from scipy.linalg import blas

        g = {**CONNECTED, **LARGE}[name]()
        tested, betas = [], []
        smallest_ritz_pair, dnrm2 = spectra._smallest_ritz_pair, blas.dnrm2
        monkeypatch.setattr(
            spectra, "_smallest_ritz_pair", lambda d, e: tested.append(len(d)) or smallest_ritz_pair(d, e)
        )
        monkeypatch.setattr(blas, "dnrm2", lambda w: betas.append(dnrm2(w)) or betas[-1])
        solve = spectra.lambda1(g, report=True)
        check = spectra.LANCZOS_CHECK_STEPS
        steps = min(spectra.LANCZOS_MAX_STEPS, max(g.num_vertices(), spectra.LANCZOS_MIN_STEPS))
        assert solve.solver == "lanczos" and solve.matvecs == len(betas)
        assert tested == [
            j + 1 for j, beta in enumerate(betas)
            if (j + 1) % check == 0 or j + 1 == steps or not beta > spectra.LANCZOS_TOL
        ]
        monkeypatch.setattr(spectra, "LANCZOS_CHECK_STEPS", 1)
        every = spectra.lambda1(g, report=True)
        assert every.solver == "lanczos"
        assert every.matvecs <= solve.matvecs < every.matvecs + check
        assert abs(solve.value - every.value) <= 1e-12

    def test_a_near_breakdown_is_tested_at_once(self, lanczos_everywhere):
        # L + 2 x0 x0^T of C40 has 20 distinct eigenvalues (lambda_0 moves
        # onto the eigenvalue 2), so beta_20 falls to rounding level, off the
        # schedule, and the pair passes there
        g = CONNECTED["C40"]()
        solve = spectra.lambda1(g, report=True)
        assert solve.matvecs == 20 and solve.value == pytest.approx(dense_lambda1(g), abs=1e-12)

    def test_matvecs_are_counted_and_repeat(self, monkeypatch):
        g = random_delta(2, 18, 0.45)
        first, second = (spectra.lambda1(g, report=True) for _ in range(2))
        assert first.solver == second.solver == "lanczos"
        assert first.matvecs > 0 and first.matvecs == second.matvecs
        assert first.value == second.value
        # one product with L per step, and one for the residual
        products = []
        sparse_laplacian = spectra._sparse_laplacian

        class Counted:
            def __init__(self, lap):
                self.lap = lap

            def __matmul__(self, x):
                products.append(x)
                return self.lap @ x

        def counted(g):
            lap, x0 = sparse_laplacian(g)
            return Counted(lap), x0

        monkeypatch.setattr(spectra, "_sparse_laplacian", counted)
        assert spectra.lambda1(g, report=True).matvecs == first.matvecs == len(products) - 1

    def test_matvecs_are_zero_without_lanczos(self):
        dense = spectra.lambda1(CONNECTED["delta n2k12"](), report=True)
        assert dense.solver == "dense" and dense.matvecs == 0
        components = spectra.lambda1(graph("abcd", [("a", "b"), ("c", "d")]), report=True)
        assert components.matvecs == 0
        assert components == spectra.Lambda1Solve(0.0, "components", 0.0, matvecs=7)

    def test_no_convergence_falls_back_to_dense(self, lanczos_everywhere, monkeypatch):
        g = CONNECTED["delta n2k12"]()
        assert spectra.lambda1(g, report=True).matvecs > 16
        monkeypatch.setattr(spectra, "LANCZOS_MAX_STEPS", 16)
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "dense" and solve.value == dense_lambda1(g)

    def test_an_estimate_that_never_passes_falls_back(self, lanczos_everywhere, monkeypatch):
        # at a step bound of the vertex count the last Ritz pair may pass the
        # gate, but only a passed estimate ends the recurrence with a solve
        monkeypatch.setattr(spectra, "LANCZOS_TOL", 0.0)
        g = CONNECTED["delta n2k12"]()
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "dense" and solve.value == dense_lambda1(g)

    def test_large_residual_falls_back_to_dense(self, lanczos_everywhere, monkeypatch):
        monkeypatch.setattr(spectra, "LANCZOS_MAX_RESIDUAL", -1.0)
        g = cycle_graph(9)
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "dense" and solve.value == dense_lambda1(g)

    def test_start_vector_meets_the_lambda1_eigenspace(self, lanczos_everywhere, monkeypatch):
        # on a regular graph the constant vector spans lambda_0's eigenspace and
        # is orthogonal to lambda_1's, so it must not start the iteration
        starts = []
        start_vector = spectra._start_vector

        def recording(size):
            starts.append(start_vector(size))
            return starts[-1]

        monkeypatch.setattr(spectra, "_start_vector", recording)
        g = cycle_graph(12)
        spectra.lambda1(g)
        spectra.lambda1(g)
        assert len(starts) == 2 and np.array_equal(starts[0], starts[1])
        vals, vecs = np.linalg.eigh(spectra.normalized_laplacian(g))
        eigenspace = vecs[:, np.isclose(vals, vals[1])]
        assert np.linalg.norm(eigenspace.T @ starts[0]) > 0.01 * np.linalg.norm(starts[0])

    def test_basis_is_bounded_before_it_is_allocated(self, lanczos_everywhere, monkeypatch):
        # no more rows than vertices above the floor for small graphs, so no
        # more bytes than the dense solve's matrix
        shapes = []
        empty = np.empty

        def recording(shape, *args, **kwargs):
            shapes.append(tuple(np.atleast_1d(shape).tolist()))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording)
        g = CONNECTED["delta n2k18"]()
        size = g.num_vertices()
        assert spectra.LANCZOS_MIN_STEPS < size < spectra.LANCZOS_MAX_STEPS
        assert spectra.lambda1(g, report=True).solver == "lanczos"
        assert (size, size) in shapes
        assert max(math.prod(s) for s in shapes) <= size * size
        shapes.clear()
        monkeypatch.setattr(spectra, "LANCZOS_MAX_STEPS", 20)
        assert spectra.lambda1(g, report=True).solver == "dense"
        assert (20, size) in shapes

    @pytest.mark.parametrize("dense_max", [0, 10**6])
    def test_cap_checked_before_any_allocation(self, monkeypatch, dense_max):
        def allocation(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(spectra, "DENSE_LAMBDA1_MAX", dense_max)
        monkeypatch.setattr(spectra, "_lanczos", allocation)
        monkeypatch.setattr(spectra, "_laplacian_entries", allocation)
        monkeypatch.setenv("SPECTRAL_T_MAX_VERTICES", "5")
        with pytest.raises(ResourceCapError, match="matrix size 6 exceeds eigensolve cap 5"):
            spectra.lambda1(complete_graph(6))
        with pytest.raises(ResourceCapError):
            spectra.normalized_laplacian(complete_graph(6))
        assert spectra.lambda1(graph("abcdef", [("a", "b")])) == 0.0


def random_biregular(seed):
    """A connected (q d, d)-biregular multigraph, sides of p and q p vertices,
    drawn by matching degree stubs at random; vertex order shuffled, and
    the first side the larger one for odd seeds."""
    rng = np.random.default_rng(seed)
    while True:
        p, ratio, d = int(rng.integers(2, 25)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
        size = p * (1 + ratio)
        left = np.repeat(np.arange(p), ratio * d)
        right = p + rng.permutation(np.repeat(np.arange(ratio * p), d))
        at = rng.permutation(size)
        side = np.zeros(size, dtype=bool)
        side[at[:p]] = True
        g = MultiGraph([f"v{i}" for i in range(size)], at[left], at[right],
                       side=side if seed % 2 == 0 else ~side)
        if g.components() == 1:
            return g


def connected_bgnp(m1, m2, p, seed):
    g = sample_bipartite_gnp(m1, m2, p, Seed(seed))
    assert g.components() == 1
    return g


BIPARTITE = {
    **{f"biregular {seed}": (lambda seed=seed: random_biregular(seed)) for seed in range(12)},
    "bgnp 20x60": lambda: connected_bgnp(20, 60, 0.3, 1),
    "bgnp 70x15": lambda: connected_bgnp(70, 15, 0.4, 2),
    "bgnp 2x9": lambda: connected_bgnp(2, 9, 0.8, 3),
}


def bipartite(a, b, pairs):
    """The graph on sides x0..x{a-1} and y0..y{b-1} with edges (xi, yj)."""
    left, right = [f"x{i}" for i in range(a)], [f"y{j}" for j in range(b)]
    return graph(left + right, [(left[i], right[j]) for i, j in pairs],
                 partition=(left, right))


@pytest.fixture
def solve_orders(monkeypatch):
    """The order of every matrix `spectrum` solves, in call order."""
    orders = []
    spectrum = spectra.spectrum

    def recording(m, **kwargs):
        orders.append(len(m))
        return spectrum(m, **kwargs)

    monkeypatch.setattr(spectra, "spectrum", recording)
    return orders


class TestBipartite:
    @pytest.mark.parametrize("name", BIPARTITE)
    def test_agrees_with_the_full_solve(self, solve_orders, name):
        g = BIPARTITE[name]()
        solve = spectra.lambda1(g, report=True)
        # one eigensolve, of the smaller side's Gram matrix
        assert solve_orders == [min(np.count_nonzero(g.side), np.count_nonzero(~g.side))]
        assert solve.solver == "dense"
        assert abs(solve.value - dense_lambda1(g)) <= 1e-12
        assert solve.residual <= 1e-10  # of the full L, read on demand

    @pytest.mark.parametrize("name", BIPARTITE)
    def test_the_gram_block_is_minus_the_laplacians(self, monkeypatch, name):
        # C is -L on (rows, columns), entry for entry, so C C^T is that
        # block's Gram matrix to the bit
        g = BIPARTITE[name]()
        grams = []
        spectrum = spectra.spectrum
        monkeypatch.setattr(
            spectra, "spectrum", lambda m, **kw: grams.append(m) or spectrum(m, **kw)
        )
        spectra.lambda1(g)
        rows = g.side if 2 * np.count_nonzero(g.side) <= len(g.side) else ~g.side
        block = -spectra.normalized_laplacian(g)[np.ix_(rows, ~rows)]
        assert len(grams) == 1 and np.array_equal(grams[0], block @ block.T)

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 5), (7, 4)])
    def test_complete_bipartite_falls_back(self, solve_orders, a, b):
        # sigma_2 = 0: the Gram solve, then the full one
        g = bipartite(a, b, [(i, j) for i in range(a) for j in range(b)])
        assert spectra.lambda1(g) == pytest.approx(1.0, abs=1e-12)
        assert solve_orders == [min(a, b), a + b]

    @pytest.mark.parametrize("q", [1, 2, 6])
    def test_star_takes_the_full_solve(self, solve_orders, q):
        # one vertex on the smaller side: no sigma_2 to take
        g = bipartite(1, q, [(0, j) for j in range(q)])
        assert spectra.lambda1(g) == pytest.approx(2.0 if q == 1 else 1.0, abs=1e-12)
        assert solve_orders == [1 + q]

    def test_disconnected_is_zero_without_a_solve(self, solve_orders):
        g = bipartite(3, 4, [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3)])
        assert spectra.lambda1(g, report=True) == spectra.Lambda1Solve(0.0, "components", 0.0)
        assert solve_orders == []


def random_tail_graph(seed):
    """A connected multigraph whose last q vertices (q > p, the prefix size)
    form an independent set without loops: the prefix has loops and
    multi-edges among itself, and each tail vertex one to three edges of
    multiplicity 1 to 3 into it."""
    rng = np.random.default_rng(seed)
    while True:
        p = int(rng.integers(1, 30))
        q = int(rng.integers(p + 1, 3 * p + 8))
        inner = int(rng.integers(0, 3 * p))
        u = [rng.integers(0, p, inner)]
        v = [rng.integers(0, p, inner)]  # loops among them
        for w in range(p, p + q):
            ends = rng.integers(0, p, int(rng.integers(1, 4)))
            u.append(ends)
            v.append(np.full(len(ends), w))
        u, v = np.concatenate(u), np.concatenate(v)
        g = MultiGraph([f"v{i}" for i in range(p + q)], u, v, rng.integers(1, 4, len(u)))
        if g.components() == 1 and g.edge_arrays[0][-1] == p - 1:
            return g


# graphs whose vertices from p = u[-1] + 1 on form an independent set of more
# than half of them: random multigraphs, n = 2 link graphs with k = 1 (mod 3)
# (W_{l_k} then W_{L_k}, |W_{L_k}| = 3 |W_{l_k}|) and k = 4 at n = 3..12
# (2n words of length 1, then 2n (2n - 1) of length 2)
TAIL = {
    **{f"random {seed}": (lambda seed=seed: random_tail_graph(seed)) for seed in range(16)},
    **{f"delta n2k{k}": (lambda k=k: random_delta(2, k, 0.6)) for k in (7, 10, 13)},
    **{f"delta n{n}k4": (lambda n=n: random_delta(n, 4, 0.7)) for n in range(3, 13)},
}


class TestIndependentTail:
    @pytest.mark.parametrize("name", TAIL)
    def test_agrees_with_the_full_solve(self, solve_orders, name):
        g = TAIL[name]()
        assert g.components() == 1 and g.side is None
        p = int(g.edge_arrays[0][-1]) + 1
        assert 2 * p < g.num_vertices()
        solve = spectra.lambda1(g, report=True)
        # one solve of order 2p, a second one if the Cholesky root was refused
        assert solve_orders in ([2 * p], [2 * p, 2 * p])
        assert solve.solver == "dense" and solve.matvecs == 0
        assert abs(solve.value - dense_lambda1(g)) <= 1e-12
        assert solve.residual <= 1e-12

    def test_above_the_dense_threshold_no_lanczos_runs(self, monkeypatch):
        g = TAIL["delta n12k4"]()
        assert g.num_vertices() == 576 > spectra.DENSE_LAMBDA1_MAX
        monkeypatch.setattr(spectra, "_lanczos", lambda g: pytest.fail("Lanczos ran"))
        assert abs(spectra.lambda1(g) - dense_lambda1(g)) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3, 7, 40])
    def test_star_takes_lambda1_from_a_padded_zero(self, solve_orders, q):
        # K_{1,q} with no side: M = [[0, 1], [1, 0]], whose mu_2 = -1 is below
        # the zero the padding adds
        g = graph(["c", *(f"l{j}" for j in range(q))], [("c", f"l{j}") for j in range(q)])
        solve = spectra.lambda1(g, report=True)
        assert solve.value == 1.0 and solve_orders == [2]
        assert abs(solve.value - dense_lambda1(g)) <= 1e-12
        assert solve.residual <= 1e-12

    def test_a_rank_deficient_block_takes_the_qr(self, solve_orders, monkeypatch):
        # v0 meets only v1: B has a zero row, and B B^T no Cholesky factor
        qrs = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, **kw: qrs.append(a.shape) or qr(a, **kw))
        pairs = [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (2, 6), (3, 7), (1, 8)]
        g = MultiGraph([f"v{i}" for i in range(9)], *zip(*pairs))
        solve = spectra.lambda1(g, report=True)
        assert solve_orders == [8] and qrs == [(5, 4)]
        assert abs(solve.value - dense_lambda1(g)) <= 1e-12
        assert solve.residual <= 1e-12

    @pytest.mark.parametrize("name", ["random 3", "delta n2k13", "delta n5k4"])
    def test_a_small_mu2_takes_the_qr(self, solve_orders, monkeypatch, name):
        # every mu_2^2 is below 4: each Cholesky solve is redone from the QR
        g = TAIL[name]()
        p = int(g.edge_arrays[0][-1]) + 1
        cholesky = spectra.lambda1(g)
        monkeypatch.setattr(spectra, "BIPARTITE_MIN_SIGMA2_SQ", 4.0)
        solve_orders.clear()
        qr = spectra.lambda1(g, report=True)
        assert solve_orders == [2 * p, 2 * p]
        assert abs(qr.value - dense_lambda1(g)) <= 1e-12 and abs(qr.value - cholesky) <= 1e-12
        assert qr.residual <= 1e-12

    @pytest.mark.parametrize("k", [5, 6, 8, 9, 11, 12])
    def test_declines_unless_k_is_1_mod_3(self, k):
        # k = 0 (mod 3): one word length, with edges up to the last vertex;
        # k = 2 (mod 3): W_{L_k} is the smaller set
        g = random_delta(2, k, 0.6)
        assert g.components() == 1
        assert spectra._tail_lambda1(g) is None

    def test_declines_unless_the_tail_is_more_than_half(self):
        # K_{2,2} in side order and the path a-b-c: 2p = m
        for g in (graph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
                  graph("abc", [("a", "b"), ("b", "c")]), cycle_graph(6)):
            assert 2 * (g.edge_arrays[0][-1] + 1) >= g.num_vertices()
            assert spectra._tail_lambda1(g) is None

    def test_declines_above_the_dense_threshold(self, monkeypatch):
        g = TAIL["delta n2k13"]()  # 2p = 216
        assert spectra._tail_lambda1(g) is not None
        monkeypatch.setattr(spectra, "DENSE_LAMBDA1_MAX", 215)
        assert spectra._tail_lambda1(g) is None
