import json
import math

import pytest

from spectralt.certify import (
    certify_via_decomposition,
    union_bound,
    union_bound_empirical_check,
    zuk_certificate,
)
from spectralt.delta import Presentation
from spectralt.errors import HypothesisViolation, InputError
from spectralt.multigraph import MultiGraph
from spectralt.randmodels import Seed, sample_gamma_p
from spectralt.words import enumerate_cyclically_reduced

SQRT2 = math.sqrt(2.0)


def hexagon_triple():
    v1, v2 = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
    g1 = MultiGraph(v1, {("x1", "x2"): 2, ("x2", "x3"): 2, ("x1", "x3"): 2})
    cyc1 = [("x1", "y1"), ("y1", "x2"), ("x2", "y2"),
            ("y2", "x3"), ("x3", "y3"), ("y3", "x1")]
    cyc2 = [("x1", "y2"), ("y2", "x2"), ("x2", "y3"),
            ("y3", "x3"), ("x3", "y1"), ("y1", "x1")]
    g2 = MultiGraph(v1 + v2, cyc1, partition=(v1, v2))
    g3 = MultiGraph(v1 + v2, cyc2, partition=(v1, v2))
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
        with pytest.raises(InputError):
            union_bound(1.0, 0, 0)
        with pytest.raises(InputError):
            union_bound(0, -0.1, 0)


class TestEmpiricalCheck:
    def test_hexagons_hold(self):
        res = union_bound_empirical_check(*hexagon_triple(), 2, 2)
        assert res.holds
        assert res.lhs >= res.rhs - 1e-6

    def test_disconnected_bipartite_rejected(self):
        v1, v2 = ["x1", "x2"], ["y1", "y2"]
        g1 = MultiGraph(v1, {("x1", "x2"): 2})
        g2 = MultiGraph(v1 + v2, [("x1", "y1"), ("x2", "y2")], partition=(v1, v2))
        g3 = MultiGraph(v1 + v2, [("x1", "y2"), ("x2", "y1")], partition=(v1, v2))
        # perfect matchings are disconnected, so c >= 1 trips the guard
        with pytest.raises(HypothesisViolation, match="c_2"):
            union_bound_empirical_check(g1, g2, g3, 1, 1)

    def test_wrong_regularity_rejected(self):
        g1, g2, g3 = hexagon_triple()
        with pytest.raises(HypothesisViolation, match="regular"):
            union_bound_empirical_check(g1, g2, g3, 3, 3)

    def test_missing_partition_rejected(self):
        g1, g2, g3 = hexagon_triple()
        bare = MultiGraph(g2.vertices, g2.edges)
        with pytest.raises(HypothesisViolation, match="bipartite"):
            union_bound_empirical_check(g1, bare, g3, 2, 2)


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

    def test_bipartite_case_bound_below_direct(self):
        rels = tuple(enumerate_cyclically_reduced(2, 5))
        cert = certify_via_decomposition(Presentation(2, rels), 5)
        assert cert.pipeline_bound is not None
        assert cert.pipeline_bound <= cert.lambda1 + 1e-6

    def test_deterministic(self):
        p = sample_gamma_p(2, 6, 0.5, Seed(26, 0))
        a = certify_via_decomposition(p, 6)
        b = certify_via_decomposition(p, 6)
        assert a == b

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_lambda1_is_the_direct_value(self, k):
        # Delta_k comes from the Sigma split here, so this pins it bit for bit
        p = sample_gamma_p(2, k, 0.5, Seed(27, k))
        assert certify_via_decomposition(p, k).lambda1 == zuk_certificate(p, k).lambda1


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
