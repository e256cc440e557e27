import dataclasses
import json
import math

import pytest

from spectralt import certify as C
from spectralt import cli, multigraph, regularity, spectra
from spectralt.certify import (
    certify_via_decomposition,
    union_bound,
    union_bound_empirical_check,
    zuk_certificate,
)
from spectralt.delta import Presentation, build_delta_k
from spectralt.errors import HypothesisViolation, InputError, ResourceCapError
from spectralt.randmodels import Seed, sample_gamma_p, sample_gamma_strict
from spectralt.words import enumerate_cyclically_reduced

from graphs import graph

SQRT2 = math.sqrt(2.0)


def full_presentation(k):
    """Every cyclically reduced word of length k over 2 generators."""
    return Presentation(2, tuple(enumerate_cyclically_reduced(2, k)))


def failing_call(fn, at, result=None):
    """fn, except that its call number `at` (from 1) returns `result`, or
    raises it if it is an exception."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        if len(calls) != at:
            return fn(*args)
        if isinstance(result, Exception):
            raise result
        return result

    return wrapper


def hexagon_triple():
    v1, v2 = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
    g1 = graph(v1, {("x1", "x2"): 2, ("x2", "x3"): 2, ("x1", "x3"): 2})
    cyc1 = [("x1", "y1"), ("y1", "x2"), ("x2", "y2"),
            ("y2", "x3"), ("x3", "y3"), ("y3", "x1")]
    cyc2 = [("x1", "y2"), ("y2", "x2"), ("x2", "y3"),
            ("y3", "x3"), ("x3", "y1"), ("y1", "x1")]
    g2 = graph(v1 + v2, cyc1, partition=(v1, v2))
    g3 = graph(v1 + v2, cyc2, partition=(v1, v2))
    return g1, g2, g3


class TestUnionBound:
    def test_zero_deficits(self):
        assert union_bound(0, 0, 0) == 1.0

    def test_known_value(self):
        assert union_bound(0, 1 / 3, 1 / 3) == pytest.approx(0.764298, abs=1e-6)

    def test_epsilon_corollary(self):
        eps = 0.009
        assert union_bound(eps, eps + 1 / 3, eps + 1 / 3) >= 0.75

    @pytest.mark.parametrize("c", [0, 0.1, 1 / 3])
    def test_symmetric_identity(self, c):
        assert union_bound(0, c, c) == pytest.approx(1 - c / SQRT2, abs=1e-12)

    def test_range_validation(self):
        for at in range(3):
            for c in (-0.1, 1.0, 2.5, math.nan, math.inf):
                cs = [0.1, 0.2, 0.3]
                cs[at] = c
                with pytest.raises(InputError, match=rf"eigenvalue deficit {c} outside \[0, 1\)"):
                    union_bound(*cs)


class TestEmpiricalCheck:
    def test_hexagons_hold(self):
        res = union_bound_empirical_check(*hexagon_triple(), 2, 2)
        assert res.holds
        assert res.lhs >= res.rhs - 1e-6

    def test_disconnected_bipartite_rejected(self):
        v1, v2 = ["x1", "x2"], ["y1", "y2"]
        g1 = graph(v1, {("x1", "x2"): 2})
        g2 = graph(v1 + v2, [("x1", "y1"), ("x2", "y2")], partition=(v1, v2))
        g3 = graph(v1 + v2, [("x1", "y2"), ("x2", "y1")], partition=(v1, v2))
        # perfect matchings are disconnected, so c >= 1 trips the guard
        with pytest.raises(HypothesisViolation, match="c_2"):
            union_bound_empirical_check(g1, g2, g3, 1, 1)

    def test_wrong_regularity_rejected(self):
        g1, g2, g3 = hexagon_triple()
        with pytest.raises(HypothesisViolation, match="regular"):
            union_bound_empirical_check(g1, g2, g3, 3, 3)

    def test_missing_partition_rejected(self):
        g1, g2, g3 = hexagon_triple()
        bare = graph(g2.vertices, g2.edges)
        with pytest.raises(HypothesisViolation, match="bipartite"):
            union_bound_empirical_check(g1, bare, g3, 2, 2)

    @pytest.mark.parametrize("which", ["g1-labels", "g3-sides-swapped", "g3-extra-vertex"])
    def test_misaligned_vertex_sets_rejected(self, which):
        g1, g2, g3 = hexagon_triple()
        v1, v2 = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
        if which == "g1-labels":
            g1 = graph(["x1", "x2", "x4"], {("x1", "x2"): 2, ("x2", "x4"): 2, ("x1", "x4"): 2})
        elif which == "g3-sides-swapped":
            g3 = graph(g3.vertices, g3.edges, partition=(v2, v1))
        else:
            g3 = graph(v1 + v2 + ["y4"], g3.edges, partition=(v1, v2 + ["y4"]))
        with pytest.raises(HypothesisViolation, match="vertex sets do not align"):
            union_bound_empirical_check(g1, g2, g3, 2, 2)

    def test_irregular_bipartite_factor_rejected(self):
        g1, g2, g3 = hexagon_triple()
        with pytest.raises(HypothesisViolation, match=r"^clause ii\): G2 is not \(2,3\)-regular$"):
            union_bound_empirical_check(g1, g2, g3, 2, 3)
        # x1 and y3 of G3 get degree 3, G1 and G2 stay regular
        v1, v2 = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
        g3 = graph(v1 + v2, {**g3.edges, ("x1", "y3"): 1}, partition=(v1, v2))
        with pytest.raises(HypothesisViolation, match=r"^clause ii\): G3 is not \(2,2\)-regular$"):
            union_bound_empirical_check(g1, g2, g3, 2, 2)

    def test_sides_compared_as_sets(self):
        # g3 lists both sides in another order: the sides still align, and
        # the combined graph keeps g1's order then the sorted second side
        g1, g2, g3 = hexagon_triple()
        reordered = graph(["y3", "y2", "y1", "x2", "x3", "x1"], g3.edges,
                          partition=(["x1", "x2", "x3"], ["y1", "y2", "y3"]))
        res = union_bound_empirical_check(g1, g2, reordered, 2, 2)
        assert res.holds
        assert (res.lhs, res.rhs) == (0.9084936490538902, 0.6464466094067263)


class TestZuk:
    def test_aba_not_certified(self):
        cert = zuk_certificate(Presentation(2, ((1, 2, 1),)), 3)
        assert cert.lambda1 == pytest.approx(0.5, abs=1e-9)
        assert not cert.certified
        assert cert.method == "direct-delta-k"

    def test_dense_certified(self):
        rels = tuple(enumerate_cyclically_reduced(2, 3))
        cert = zuk_certificate(Presentation(2, rels), 3)
        assert cert.lambda1 > 0.5
        assert cert.certified

    def test_empty_relators_not_certified(self):
        cert = zuk_certificate(Presentation(2, ()), 3)
        assert cert.lambda1 == 0.0
        assert not cert.certified

    def test_threshold_margin_is_strict(self):
        # lambda1 exactly 1/2 must not certify
        cert = zuk_certificate(Presentation(2, ((1, 2, 1),)), 3)
        assert cert.lambda1 == pytest.approx(0.5)
        assert not cert.certified


class TestPipeline:
    def test_dense_k3_bound_below_direct(self):
        rels = tuple(enumerate_cyclically_reduced(2, 3))
        cert = certify_via_decomposition(Presentation(2, rels), 3)
        assert cert.pipeline_bound is not None
        assert cert.pipeline_bound <= cert.lambda1 + 1e-6
        assert cert.certified  # still decided by the direct value

    def test_sparse_sample_fails_gracefully(self):
        p = Presentation(2, ((1, 2, 1), (2, 2, 2), (1, 1, 1)))
        cert = certify_via_decomposition(p, 3)
        assert not cert.certified
        assert cert.pipeline_bound is None or cert.pipeline_bound <= 0.5

    def test_params_validation(self):
        p = Presentation(2, ((1, 2, 1),))
        for delta in (-0.1, 1.0, float("nan")):
            with pytest.raises(InputError, match="^need 0 <= delta < 1$"):
                certify_via_decomposition(p, 3, delta)
        with pytest.raises(InputError, match="^--m-bound must be >= 0$"):
            certify_via_decomposition(p, 3, m_bound=-1)
        # the delta check comes first
        with pytest.raises(InputError, match="^need 0 <= delta < 1$"):
            certify_via_decomposition(p, 3, 2.0, m_bound=-1)

    def test_bipartite_case_bound_below_direct(self):
        rels = tuple(enumerate_cyclically_reduced(2, 5))
        cert = certify_via_decomposition(Presentation(2, rels), 5)
        assert cert.pipeline_bound is not None
        assert cert.pipeline_bound <= cert.lambda1 + 1e-6

    @pytest.mark.parametrize("k,vertex_sets", [(6, 1), (7, 2)], ids=["k=0 mod 3", "k=1 mod 3"])
    def test_label_work_once_per_vertex_set(self, k, vertex_sets):
        # the Sigma graphs, their class layers and factors rank their labels
        # once per vertex set (W_{l_k}, and Delta_k's when 3 does not divide
        # k) and read the classes of Sigma_2's once
        regularity._label_classes.cache_clear()
        multigraph._label_rank.cache_clear()
        cert = certify_via_decomposition(sample_gamma_strict(2, k, 0.8, Seed(0)), k)
        assert cert.pipeline_bound is not None
        rank = multigraph._label_rank.cache_info()
        assert rank.misses == vertex_sets and rank.hits > 0
        assert regularity._label_classes.cache_info().misses == 1

    def test_a_falsified_union_bound_is_reported(self, monkeypatch):
        # a deferred lhs below rhs: one diagnostics line more, after the union
        # line; the JSON is unchanged and does not read lhs
        p = Presentation(2, tuple(enumerate_cyclically_reduced(2, 5)))
        held = certify_via_decomposition(p, 5)
        check, reads = C.union_bound_empirical_check, []

        def falsified_check(*args):
            real = check(*args)
            return C.UnionCheck(real.c, lambda: reads.append(real.rhs) or real.rhs - 0.01)

        monkeypatch.setattr(C, "union_bound_empirical_check", falsified_check)
        falsified = certify_via_decomposition(p, 5)
        assert falsified.to_json() == held.to_json() and reads == []
        at = next(i for i, line in enumerate(held.diagnostics) if line.startswith("pipeline union"))
        rhs = falsified.pipeline_bound
        assert falsified.diagnostics == (
            *held.diagnostics[:at],
            f"pipeline union lambda1={rhs - 0.01:.6f} bound={rhs:.6f}",
            "pipeline: union lambda1 is below the bound: a solver or construction bug",
            *held.diagnostics[at + 1 :],
        )
        assert reads == [rhs]

    @pytest.mark.parametrize("at", [1, 2, 3], ids=["sigma1", "sigma2", "sigma3"])
    def test_same_vertex_set_route_retries_a_smaller_target(self, monkeypatch, at):
        # k = 9: the first target is t = 9 with delta = 0 and t = 8 with
        # delta = 0.1; a factor missing at t = 9 leaves what t = 8 finds
        p = full_presentation(9)
        at_8 = certify_via_decomposition(p, 9, 0.1)
        monkeypatch.setattr(C, "layer_factor_union", failing_call(C.layer_factor_union, at))
        retried = certify_via_decomposition(p, 9, 0.0)
        assert "pipeline: factors at t=8, regular degree 48" in at_8.diagnostics
        assert retried == at_8 and retried.diagnostics == at_8.diagnostics

    def test_same_vertex_set_route_without_factors(self, monkeypatch):
        # t = 7 down to 1 tried, one factor each; the direct verdict stands
        p = full_presentation(9)
        direct = certify_via_decomposition(p, 9)
        targets = []
        monkeypatch.setattr(C, "layer_factor_union", lambda g, layers, a, t: targets.append(t))
        cert = certify_via_decomposition(p, 9)
        assert targets == [7, 6, 5, 4, 3, 2, 1]
        assert (cert.pipeline_bound, cert.certified) == (None, direct.certified)
        assert cert.diagnostics[-1] == "pipeline: no regular factors found in the attempted target range"

    def test_a_disconnected_factor_invalidates_the_bound(self, monkeypatch):
        two_triangles = graph("abcdef", [("a", "b"), ("b", "c"), ("c", "a"),
                                         ("d", "e"), ("e", "f"), ("f", "d")])
        monkeypatch.setattr(C, "layer_factor_union", failing_call(C.layer_factor_union, 3, two_triangles))
        cert = certify_via_decomposition(full_presentation(9), 9)
        assert cert.pipeline_bound is None
        assert cert.diagnostics[-2:] == (
            "pipeline: factors at t=7, regular degree 42",
            "pipeline: a factor is disconnected (c_i >= 1); bound invalid",
        )

    @pytest.mark.parametrize("fn,at,result", [
        ("extract_regular_subgraph", 1, None),
        ("extract_regular_subgraph", 2, None),
        ("layer_factor_union", 1, None),
        ("union_bound_empirical_check", 1, HypothesisViolation("clause ii): G2 is not (27,81)-regular")),
    ], ids=["pi1", "pi3", "pi2", "hypothesis"])
    def test_bipartite_route_retries_a_smaller_target(self, monkeypatch, fn, at, result):
        # k = 11: the first target is t = 9 with delta = 0 and t = 8 with
        # delta = 0.1; a failure at t = 9 leaves what t = 8 finds, after the
        # violation's line
        p = full_presentation(11)
        at_8 = certify_via_decomposition(p, 11, 0.1)
        monkeypatch.setattr(C, fn, failing_call(getattr(C, fn), at, result))
        retried = certify_via_decomposition(p, 11, 0.0)
        first = next(i for i, line in enumerate(at_8.diagnostics) if line.startswith("pipeline"))
        assert at_8.diagnostics[first] == "pipeline: factors at t=8, (d1,d2)=(24,72)"
        violation = [f"pipeline: hypothesis violation at t=9: {result}"] if result else []
        assert retried.diagnostics == (
            *at_8.diagnostics[:first], *violation, *at_8.diagnostics[first:]
        )
        assert retried.to_json() == at_8.to_json()

    def test_deterministic(self):
        p = sample_gamma_p(2, 6, 0.5, Seed(26, 0))
        a = certify_via_decomposition(p, 6)
        b = certify_via_decomposition(p, 6)
        assert a == b

    def test_no_target_fits_the_degree_caps(self):
        # a Sigma_2 layer allows no t >= 1, so no target is tried
        p = sample_gamma_strict(2, 10, 0.55, Seed(9))
        cert = certify_via_decomposition(p, 10)
        assert cert.pipeline_bound is None
        assert cert.diagnostics[-1] == (
            "pipeline: no target t >= 1 fits the degree caps "
            "(V1 allows t <= 1, Sigma_2 layers t <= 0, V2 t <= 1)"
        )
        same_vertices = certify_via_decomposition(Presentation(2, ((1, 2, 1), (2, 2, 2))), 3)
        assert same_vertices.diagnostics[-1] == (
            "pipeline: no target t >= 1 fits the degree caps "
            "(Sigma_1, Sigma_2, Sigma_3 layers allow t <= 0, 0, 0)"
        )

    @pytest.mark.parametrize("k", [4, 7, 8])
    def test_targets_tried_keep_their_line(self, k):
        cert = certify_via_decomposition(sample_gamma_p(2, k, 0.5, Seed(0, k)), k)
        assert cert.pipeline_bound is None
        assert cert.diagnostics[-1] == "pipeline: no regular factors found in the attempted target range"

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_lambda1_is_the_direct_value(self, k):
        # Delta_k comes from the Sigma split here, so this pins it bit for bit
        p = sample_gamma_p(2, k, 0.5, Seed(27, k))
        pipeline, direct = certify_via_decomposition(p, k), zuk_certificate(p, k)
        assert pipeline.lambda1 == direct.lambda1
        # and both routes report the same Delta_k, solve and verdict
        assert pipeline.certified == direct.certified
        assert (pipeline.vertices, pipeline.edges) == (direct.vertices, direct.edges)
        assert pipeline.diagnostics[:2] == direct.diagnostics[:2]


class TestJson:
    def test_frozen_keys(self):
        cert = zuk_certificate(Presentation(2, ((1, 2, 1),)), 3, seed_info="9:0")
        data = json.loads(cert.to_json())
        assert list(data) == [
            "method", "k", "lambda1", "pipeline_bound", "threshold",
            "certified", "vertices", "edges", "audit", "seed_info",
        ]
        assert list(data["audit"]) == ["max_multiplicity", "doubles_form_matching"]
        assert data["pipeline_bound"] is None
        assert data["seed_info"] == "9:0"

    def test_threshold_is_the_verdicts(self):
        # the JSON writes the threshold `certified` is decided against, and a
        # certificate cannot be given another
        cert = zuk_certificate(Presentation(2, ((1, 2, 1),)), 3)
        assert json.loads(cert.to_json())["threshold"] == C.THRESHOLD == 0.5
        with pytest.raises(TypeError):
            dataclasses.replace(cert, threshold=0.4)


class TestSolverDiagnostics:
    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_lanczos_certificate_matches_dense(self, monkeypatch, k):
        p = sample_gamma_p(2, k, 0.3, Seed(12, k))
        dense = zuk_certificate(p, k)
        monkeypatch.setattr(spectra, "DENSE_LAMBDA1_MAX", 0)
        for certify in (zuk_certificate, certify_via_decomposition):
            cert = certify(p, k)
            assert abs(cert.lambda1 - dense.lambda1) <= 1e-9
            assert cert.certified == dense.certified
            line = cert.diagnostics[1]
            assert line.startswith("lambda1 solver=lanczos residual=")
            assert line.endswith(f"margin={cert.lambda1 - 0.5:.12g}")
        assert dense.diagnostics[1].startswith("lambda1 solver=dense residual=")

    def test_the_line_shows_the_lanczos_steps(self, monkeypatch):
        p = sample_gamma_p(2, 8, 0.3, Seed(12, 8))
        dense = zuk_certificate(p, 8)
        monkeypatch.setattr(spectra, "DENSE_LAMBDA1_MAX", 0)
        cert = zuk_certificate(p, 8)
        steps = cert.notes[1].matvecs
        assert steps > 0 and f" matvecs={steps} margin=" in cert.diagnostics[1]
        assert " matvecs=0 margin=" in dense.diagnostics[1]
        assert "matvecs" not in cert.to_json()


class TestLazyResidual:
    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []
        real = spectra._dense_residual

        def counted(lap, value):
            calls.append(value)
            return real(lap, value)

        monkeypatch.setattr(spectra, "_dense_residual", counted)
        return calls

    def test_computed_on_first_read(self, residual_calls):
        g = build_delta_k(sample_gamma_p(2, 6, 0.5, Seed(27, 0)), 6)
        solve = spectra.lambda1(g, report=True)
        assert solve.solver == "dense" and residual_calls == []
        first = solve.residual
        assert solve.residual == first and residual_calls == [solve.value]
        lap = spectra.normalized_laplacian(g)
        assert first == spectra._dense_residual(lap, solve.value) <= 1e-10

    @pytest.mark.parametrize("certify", [zuk_certificate, certify_via_decomposition])
    def test_only_read_diagnostics_pay_for_it(self, residual_calls, certify):
        p = sample_gamma_p(2, 6, 0.5, Seed(27, 1))
        cert = certify(p, 6)
        assert residual_calls == [] and cert.to_json()
        line = cert.diagnostics[1]
        assert residual_calls == [cert.lambda1]
        assert line.startswith("lambda1 solver=dense residual=")
        assert cert.diagnostics[1] == line and len(residual_calls) == 1


class TestLazyUnionCheck:
    """The union graph of the three-graph check and its lambda_1 are computed
    on the first read of `lhs` or `holds`, which only `diagnostics` makes."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Vertex counts of the lambda_1 solves `certify` makes, with "union"
        for each union graph built."""
        calls = []
        real_union, real_lambda1 = C.union, C.lambda1

        def counted_union(*graphs):
            calls.append("union")
            return real_union(*graphs)

        def counted_lambda1(g, **kwargs):
            calls.append(g.num_vertices())
            return real_lambda1(g, **kwargs)

        monkeypatch.setattr(C, "union", counted_union)
        monkeypatch.setattr(C, "lambda1", counted_lambda1)
        return calls

    @pytest.mark.parametrize("k,presentation", [
        (5, lambda: full_presentation(5)),
        (7, lambda: sample_gamma_strict(2, 7, 0.8, Seed(0))),
    ], ids=["k=2 mod 3", "k=1 mod 3"])
    def test_only_read_diagnostics_pay_for_it(self, solves, k, presentation):
        cert = certify_via_decomposition(presentation(), k)
        assert cert.to_json() and cert.pipeline_bound is not None
        # Delta_k, then the three factors; no union graph
        assert "union" not in solves and len(solves) == 4
        vertices = solves[0]
        lines = cert.diagnostics
        assert solves[4:] == ["union", vertices]
        assert any(line.startswith("pipeline union lambda1=") for line in lines)
        assert cert.diagnostics == lines and len(solves) == 6

    def test_sweep_rows_do_not_pay_for_it(self, solves, capsys):
        # k = 7 and k = 8 (mod 3: 1 and 2), one trial each with a bound
        for k, d in ((7, "0.8"), (8, "0.75")):
            code = cli.main(["sweep", "--n", "2", "--k", str(k), "--d-grid", d,
                             "--trials", "1", "--jobs", "1", "--pipeline"])
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert code == 0 and row[7] != "" and row[9] == "ok"
        assert "union" not in solves and len(solves) == 8

    def test_lhs_is_computed_once(self, solves):
        res = union_bound_empirical_check(*hexagon_triple(), 2, 2)
        assert solves == [3, 6, 6]
        assert res.holds and res.lhs == 0.9084936490538902
        assert solves == [3, 6, 6, "union", 6]


class TestCapBeforeBuild:
    """The eigensolve cap is checked on Delta_k's vertex count, the |W_l| of
    its piece lengths, before Delta_k or its Sigma split is built."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("Delta_k built above the eigensolve cap")

        monkeypatch.setattr(C, "build_delta_k", build)
        monkeypatch.setattr(C, "sigma_decomposition", build)

    @pytest.mark.parametrize("certify", [zuk_certificate, certify_via_decomposition])
    @pytest.mark.parametrize("k,size", [(12, 108), (13, 432), (14, 432)])
    def test_refused_before_it_is_built(self, monkeypatch, nothing_built, certify, k, size):
        monkeypatch.setenv("SPECTRAL_T_MAX_VERTICES", str(size - 1))
        p = sample_gamma_p(2, k, 1e-5, Seed(31, k))  # Delta_k is disconnected
        with pytest.raises(ResourceCapError, match=f"^matrix size {size} exceeds eigensolve cap {size - 1}$"):
            certify(p, k)

    @pytest.mark.parametrize("certify", [zuk_certificate, certify_via_decomposition])
    def test_at_the_cap_it_is_built(self, monkeypatch, certify):
        monkeypatch.setenv("SPECTRAL_T_MAX_VERTICES", "108")
        assert certify(sample_gamma_p(2, 12, 1e-5, Seed(31, 12)), 12).vertices == 108
