"""Spectral certification of Property (T) for finitely presented groups.

Builds link graphs of presentations, computes normalized-Laplacian spectra,
samples random group/graph models with reproducible seeds, extracts regular
spanning subgraphs, and assembles certificates.
"""

from .certify import (
    Certificate,
    certify_via_decomposition,
    union_bound,
    union_bound_empirical_check,
    zuk_certificate,
)
from .delta import (
    DoubleEdgeAudit,
    Presentation,
    SigmaDecomposition,
    build_delta3,
    build_delta_k,
    double_edge_audit,
    sigma_decomposition,
)
from .errors import (
    DegenerateGraphError,
    HypothesisViolation,
    InputError,
    ResourceCapError,
    SpectralTError,
)
from .multigraph import MultiGraph, union
from .randmodels import (
    Seed,
    sample_bipartite_gnp,
    sample_bred,
    sample_gamma_lax,
    sample_gamma_p,
    sample_gamma_strict,
    sample_gnp,
    sample_red,
    strict_model_size,
)
from .regularity import (
    extract_red_regular_union,
    extract_regular_subgraph,
    ore_ryser_feasible,
    red_class_layers,
)
from .spectra import lambda1, normalized_laplacian, spectral_report, spectrum
from .words import critical_density, enumerate_cyclically_reduced, word_count

__version__ = "0.1.0"
