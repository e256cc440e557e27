import numpy as np
import pytest

from spectralt import spectra
from spectralt.errors import DegenerateGraphError, InputError, ResourceCapError
from spectralt.multigraph import MultiGraph
from spectralt.randmodels import Seed, sample_gnp


def complete_graph(m):
    labels = [f"v{i}" for i in range(m)]
    return MultiGraph(labels, [(a, b) for i, a in enumerate(labels)
                               for b in labels[i + 1:]])


def cycle_graph(m):
    labels = [f"v{i}" for i in range(m)]
    return MultiGraph(labels, [(labels[i], labels[(i + 1) % m]) for i in range(m)])


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
        g = MultiGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert spectra.lambda1(g) == pytest.approx(0.5, abs=1e-9)

    def test_range(self):
        for i in range(10):
            g = sample_gnp(10, 0.5, Seed(3, i))
            if g.degree_profile().min == 0:
                continue
            eigs = spectra.spectrum(spectra.normalized_laplacian(g))
            assert eigs[0] >= -1e-9 and eigs[-1] <= 2 + 1e-9

    def test_isolated_vertex_degenerate(self):
        g = MultiGraph("abc", [("a", "b")])
        with pytest.raises(DegenerateGraphError):
            spectra.normalized_laplacian(g)
        assert spectra.lambda1(g) == 0.0
        assert spectra.spectral_report(g) == spectra.SpectralReport((), 0.0, True)
        assert spectra.spectral_report(MultiGraph("")).degenerate

    def test_loop_counts_once_in_degree(self):
        g = MultiGraph("ab", {("a", "a"): 1, ("a", "b"): 1})
        lap = spectra.normalized_laplacian(g)
        assert np.allclose(lap, [[0.5, -1 / np.sqrt(2)], [-1 / np.sqrt(2), 1.0]])

    def test_disconnected_lambda1_zero(self):
        g = MultiGraph("abcd", [("a", "b"), ("c", "d")])
        assert spectra.lambda1(g) == 0.0

    def test_single_vertex_rejected(self):
        with pytest.raises(InputError):
            spectra.lambda1(MultiGraph("a"))

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
    def test_bipartite_adjacency_bound(self):
        g = MultiGraph(
            "abcd", [("a", "c"), ("a", "d"), ("b", "c")],
            partition=("ab", "cd"),
        )
        bound = spectra.adjacency_spectral_bound(g)
        eigs = np.linalg.eigvalsh(g.adjacency_matrix().astype(float))
        assert np.max(np.abs(eigs)) <= bound + 1e-9

    def test_report_switching(self):
        g = cycle_graph(5)
        rep = spectra.spectral_report(g)
        assert rep.lambda1 == pytest.approx(rep.eigenvalues[1])
