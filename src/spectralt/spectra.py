"""Normalized Laplacian spectra, lambda_1, and eigenvalue-ordering utilities.

lambda_1 of a disconnected graph (or one with an isolated vertex) is 0 by
convention, decided by component search before any solve.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGraphError, InputError, ResourceCapError
from .multigraph import MultiGraph

CERT_MARGIN = 1e-9
DEFAULT_EIGEN_CAP = 4000
SYMMETRY_TOL = 1e-9


def eigen_cap() -> int:
    raw = os.environ.get("SPECTRAL_T_MAX_VERTICES", str(DEFAULT_EIGEN_CAP))
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SPECTRAL_T_MAX_VERTICES must be an integer, got {raw!r}")


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple[float, ...]
    lambda1: float
    degenerate: bool


def normalized_laplacian(g: MultiGraph) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}; requires min degree >= 1."""
    a = g.adjacency_matrix().astype(float)
    deg = a.sum(axis=1)  # a loop counts once, as in MultiGraph.degrees
    isolated = [v for v, d in zip(g.vertices, deg) if d == 0]
    if isolated:
        raise DegenerateGraphError(f"isolated vertices: {isolated}")
    scale = 1.0 / np.sqrt(deg)
    return np.eye(len(deg)) - scale[:, None] * a * scale[None, :]


def spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > eigen_cap():
        raise ResourceCapError(
            f"matrix size {m.shape[0]} exceeds eigensolve cap {eigen_cap()}"
        )
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(m))):
        raise InputError(f"matrix not symmetric (max asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(m)


def spectral_report(g: MultiGraph) -> SpectralReport:
    if g.num_vertices() == 0:
        return SpectralReport((), 0.0, True)
    try:
        eigs = spectrum(normalized_laplacian(g))
    except DegenerateGraphError:
        return SpectralReport((), 0.0, True)
    lam1 = 0.0 if g.components() > 1 else float(eigs[1]) if len(eigs) > 1 else 0.0
    return SpectralReport(tuple(float(x) for x in eigs), lam1, False)


def lambda1(g: MultiGraph) -> float:
    """Second-smallest normalized-Laplacian eigenvalue; 0 if disconnected."""
    if g.num_vertices() < 2:
        raise InputError("lambda1 needs at least 2 vertices")
    if g.components() > 1:  # with >= 2 vertices, also true if one is isolated
        return 0.0
    return float(spectrum(normalized_laplacian(g))[1])


def weyl_check(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Check Weyl's inequalities mu_i(A)+mu_m(B) <= mu_i(A+B) <= mu_i(A)+mu_1(B)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    mu_a = spectrum(a)[::-1]
    mu_b = spectrum(b)[::-1]
    mu_ab = spectrum(a + b)[::-1]
    lo = mu_a + mu_b[-1]
    hi = mu_a + mu_b[0]
    return bool(np.all(mu_ab >= lo - tol) and np.all(mu_ab <= hi + tol))


def adjacency_spectral_bound(g: MultiGraph) -> float:
    """Degree bound on the adjacency spectral radius.

    Max degree in general; for bipartite graphs the refinement
    max sqrt(deg(v) deg(w)) over cross pairs.
    """
    deg = g.degrees()
    if not deg:
        return 0.0
    if g.partition is not None:
        p1, p2 = g.partition
        d1 = max((deg[v] for v in p1), default=0)
        d2 = max((deg[v] for v in p2), default=0)
        return float(np.sqrt(d1 * d2))
    return float(max(deg.values()))
