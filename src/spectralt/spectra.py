"""Normalized Laplacian spectra, lambda_1, and eigenvalue-ordering utilities.

lambda_1 of a disconnected graph (or one with an isolated vertex) is 0 by
convention, decided by component search before any solve.  Up to
DENSE_LAMBDA1_MAX vertices it is a dense `eigvalsh` of the lower triangle of
the normalized Laplacian, or, on a graph with a bipartition, 1 - sigma_2 of
its normalized bi-adjacency block C, from the smaller side's Gram matrix
C C^T (the full solve again when that side has one vertex or sigma_2 is too
small for its square root to keep the digits).  Above that, an unrestarted
Lanczos recurrence on the sparse Laplacian with its known null vector
shifted to the top of the spectrum, stopped once its estimate for the
smallest Ritz pair is well inside the residual gate, and falling back to the
dense solve if it breaks down, reaches its step bound or leaves a residual
above LANCZOS_MAX_RESIDUAL.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateGraphError, InputError, ResourceCapError
from .multigraph import MultiGraph

CERT_MARGIN = 1e-9
DEFAULT_EIGEN_CAP = 4000
SYMMETRY_TOL = 1e-9

# largest vertex count whose lambda_1 comes from the dense solve.  Warm, on
# 2 vCPUs, Lanczos overtakes it near 200 vertices (Delta_3: 2.3 against 2.3 ms
# at 200, 3.2 against 9.9 ms at 400, 5.4 against 23.7 ms at 600; n = 2
# Delta_14, 432 vertices: 3.6 against 10.1 ms), but Lanczos imports scipy
# (~0.35 s), which the link graphs and pipeline factors of n = 2, k <= 14
# (at most 432 vertices) never pay for below this threshold
DENSE_LAMBDA1_MAX = 500
LANCZOS_MAX_RESIDUAL = 1e-10
# the Lanczos stopping tolerance, relative to |theta| <= 2: 2 tol stays 10x
# inside the residual gate
LANCZOS_TOL = LANCZOS_MAX_RESIDUAL / 20
# Lanczos steps: at most the vertex count, so the basis takes no more bytes
# than the dense solve's matrix, but at least LANCZOS_MIN_STEPS (a small
# graph takes a few more steps than it has vertices) and at most
# LANCZOS_MAX_STEPS; the smallest Ritz pair is tested at multiples of
# LANCZOS_CHECK_STEPS steps
LANCZOS_MIN_STEPS = 100
LANCZOS_MAX_STEPS = 1000
LANCZOS_CHECK_STEPS = 8
# least sigma_2^2 whose square root the bipartite solve takes: below it a
# rounding error e in sigma_2^2 becomes e / (2 sigma_2) in lambda_1
BIPARTITE_MIN_SIGMA2_SQ = 1e-8
# seed of the fixed standard-normal start vectors; never the all-ones vector,
# which on a regular graph is orthogonal to the lambda_1 eigenspace
START_SEED = 0


def eigen_cap() -> int:
    raw = os.environ.get("SPECTRAL_T_MAX_VERTICES", str(DEFAULT_EIGEN_CAP))
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SPECTRAL_T_MAX_VERTICES must be an integer, got {raw!r}")


def _check_cap(size: int) -> None:
    if size > eigen_cap():
        raise ResourceCapError(f"matrix size {size} exceeds eigensolve cap {eigen_cap()}")


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple[float, ...]
    lambda1: float
    degenerate: bool


@dataclass(frozen=True)
class Lambda1Solve:
    """lambda_1 with the solver that found it ("components" when the graph is
    disconnected, "dense" or "lanczos"), the residual ||L x - lambda_1 x||
    of a unit vector x found with it (0 for "components"), and the steps of
    the Lanczos recurrence, one operator application each (0 for the other
    solvers).

    The residual is given as a number or as a function computing it on first
    read: the dense solve's costs two more O(m^3) linear solves, which only
    a printed diagnostics line needs.
    """

    value: float
    solver: str
    _residual: float | Callable[[], float] = field(repr=False, compare=False)
    matvecs: int = field(default=0, compare=False)

    @cached_property
    def residual(self) -> float:
        r = self._residual
        return r() if callable(r) else r


def normalized_laplacian(g: MultiGraph) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}; requires min degree >= 1."""
    deg = g.degree_array()
    isolated = [v for v, d in zip(g.vertices, deg.tolist()) if d == 0]
    if isolated:
        raise DegenerateGraphError(f"isolated vertices: {isolated}")
    _check_cap(len(deg))
    return _dense_laplacian(g, lower=False)


def _laplacian_entries(g: MultiGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, off, diag) of L, no isolated vertex allowed: off = -((s_v m) s_u), s = deg^{-1/2},
    at (v, u) and (u, v) for each distinct edge u < v; diag = 1 plus the loop terms."""
    u, v, mult = g.edge_arrays  # distinct, u <= v, sorted by (u, v)
    scale = 1.0 / np.sqrt(g.degree_array())
    off = -((scale[v] * mult) * scale[u])
    diag = np.ones(len(scale))
    loop = u == v
    if loop.any():
        diag[u[loop]] += off[loop]
        u, v, off = u[~loop], v[~loop], off[~loop]
    return u, v, off, diag


def _dense_laplacian(g: MultiGraph, *, lower: bool) -> np.ndarray:
    """L, or with lower=True its lower triangle: all `spectrum(lower=True)` reads."""
    u, v, off, diag = _laplacian_entries(g)
    lap = np.diag(diag)
    lap[v, u] = off
    if not lower:
        lap[u, v] = off
    return lap


def spectrum(m: np.ndarray, *, lower: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.  With lower=True they are
    those of the symmetric matrix whose lower triangle m holds: nothing above
    the diagonal is read, and there is no symmetry to check."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    _check_cap(m.shape[0])
    if m.size and not lower:
        asym = np.max(np.abs(m - m.T))
        if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(m))):
            raise InputError(f"matrix not symmetric (max asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(m, UPLO="L")


def spectral_report(g: MultiGraph) -> SpectralReport:
    if g.num_vertices() == 0:
        return SpectralReport((), 0.0, True)
    try:
        eigs = spectrum(normalized_laplacian(g))
    except DegenerateGraphError:
        return SpectralReport((), 0.0, True)
    lam1 = 0.0 if g.components() > 1 else float(eigs[1]) if len(eigs) > 1 else 0.0
    return SpectralReport(tuple(float(x) for x in eigs), lam1, False)


def _start_vector(size: int) -> np.ndarray:
    return np.random.default_rng(START_SEED).standard_normal(size)


def _dense_residual(lap: np.ndarray, value: float) -> float:
    """Residual of the vector two steps of inverse iteration near `value` find;
    infinite if the shifted matrix is singular."""
    shifted = lap - (value + 1e-10) * np.eye(len(lap))
    x = _start_vector(len(lap))
    try:
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x /= np.linalg.norm(x)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(np.linalg.norm(lap @ x - value * x))


def _sparse_laplacian(g: MultiGraph):
    """The normalized Laplacian of a graph without isolated vertices as a
    scipy CSR array, and x0 = D^{1/2} 1 / ||D^{1/2} 1||."""
    from scipy.sparse import csr_array

    u, v, off, diag = _laplacian_entries(g)
    # each row's entries in column order, below the diagonal, on it and above
    # it, none repeated, so the CSR is canonical without a sort; int32
    # indices make each product ~12% faster than int64 ones
    u, v, at = u.astype(np.int32), v.astype(np.int32), np.arange(len(diag), dtype=np.int32)
    rows = np.concatenate([v, at, u])
    cols = np.concatenate([u, at, v])
    lap = csr_array((np.concatenate([off, diag, off]), (rows, cols)), shape=(len(at),) * 2)
    root = np.sqrt(g.degree_array())
    return lap, root / np.linalg.norm(root)


def _lanczos(g: MultiGraph) -> Lambda1Solve | None:
    """lambda_1 from an unrestarted Lanczos recurrence on the sparse Laplacian
    of a connected graph, or None if it breaks down or reaches its step bound
    before its estimate passes, or leaves too large a residual.

    x0 = D^{1/2} 1 / ||D^{1/2} 1|| spans L's null space (A 1 = D 1, a loop
    counted once in both), so on L + 2 x0 x0^T lambda_0 moves to 2 and
    lambda_1 is the smallest eigenvalue: one Ritz pair to converge, only as
    far as the residual gate needs.  The basis is not reorthogonalised: an
    extreme Ritz pair converges without it (Paige 1980), and the residual
    gate checks the pair it gives.  The pair is tested every
    LANCZOS_CHECK_STEPS steps, at the last step, and at once where beta_j <=
    LANCZOS_TOL: the basis then (nearly) spans an invariant subspace, and the
    estimate may drop at any step.
    """
    from scipy.linalg.blas import daxpy, ddot, dnrm2

    size = g.num_vertices()
    steps = min(LANCZOS_MAX_STEPS, max(size, LANCZOS_MIN_STEPS))
    lap, x0 = _sparse_laplacian(g)
    basis = np.empty((steps, size))  # rows past the last step are never touched
    alpha, beta = np.empty(steps), np.empty(steps)
    q = _start_vector(size)
    basis[0] = q / np.linalg.norm(q)
    for j in range(steps):
        q = basis[j]
        # w = A q - beta_{j-1} q_{j-1} - alpha_j q, updated in place by BLAS
        w = lap @ q
        daxpy(x0, w, a=2 * ddot(x0, q))
        if j:
            daxpy(basis[j - 1], w, a=-beta[j - 1])
        alpha[j] = ddot(q, w)
        daxpy(q, w, a=-alpha[j])
        beta[j] = dnrm2(w)
        last = j + 1 == steps or not beta[j] > 0
        if last or (j + 1) % LANCZOS_CHECK_STEPS == 0 or beta[j] <= LANCZOS_TOL:
            ritz = _smallest_ritz_pair(alpha[: j + 1], beta[:j])
            if ritz is None:
                return None
            theta, s = ritz
            # beta_j |s_j| estimates ||A x - theta x|| for x = Q^T s
            if beta[j] * abs(s[j]) <= LANCZOS_TOL * abs(theta):
                break
            if last:
                return None
        np.divide(w, beta[j], out=basis[j + 1])
    x = basis[: j + 1].T @ s
    x /= np.linalg.norm(x)
    value = float(theta)
    residual = float(np.linalg.norm(lap @ x - value * x))
    if not residual <= LANCZOS_MAX_RESIDUAL:
        return None
    return Lambda1Solve(value, "lanczos", residual, j + 1)


def _smallest_ritz_pair(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray] | None:
    """The smallest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and a unit eigenvector, from LAPACK's
    bisection (dstebz) and inverse iteration (dstein), as
    `scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))`
    finds them; None if LAPACK reports a failure."""
    from scipy.linalg.lapack import dstebz, dstein

    if len(d) == 1:
        return float(d[0]), np.ones(1)
    _, w, block, split, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info:
        return None
    s, info = dstein(d, e, w[:1], block, split)
    return None if info else (float(w[0]), s[:, 0])


def _bipartite_lambda1(g: MultiGraph) -> float | None:
    """lambda_1 of a connected graph with a bipartition, as 1 - sigma_2(C) for
    C = D1^{-1/2} B D2^{-1/2}, B the bi-adjacency block with the smaller side
    as rows; None if that side has fewer than 2 vertices or sigma_2^2 <
    BIPARTITE_MIN_SIGMA2_SQ.

    L = I - [[0, C], [C^T, 0]] has the eigenvalues 1 -+ sigma_i and 1, so
    lambda_1 = 1 - sigma_2; sigma_2^2 is the second-largest eigenvalue of
    C C^T, one row per vertex of the smaller side.
    """
    rows = g.side if 2 * np.count_nonzero(g.side) <= len(g.side) else ~g.side
    size = int(np.count_nonzero(rows))
    if size < 2:
        return None
    at = np.where(rows, np.cumsum(rows), np.cumsum(~rows)) - 1  # index on its side
    u, v, off, _ = _laplacian_entries(g)  # every edge crosses: no loop
    a, b = np.where(rows[u], u, v), np.where(rows[u], v, u)  # a row, b a column
    c = np.zeros((size, len(rows) - size))
    c[at[a], at[b]] = -off
    sigma2_sq = spectrum(c @ c.T, lower=True)[-2]
    if sigma2_sq < BIPARTITE_MIN_SIGMA2_SQ:
        return None
    return float(1.0 - np.sqrt(sigma2_sq))


def lambda1(g: MultiGraph, *, report: bool = False) -> float | Lambda1Solve:
    """Second-smallest normalized-Laplacian eigenvalue; 0 if disconnected.

    With report=True the result is a Lambda1Solve naming the solver and its
    residual.
    """
    size = g.num_vertices()
    if size < 2:
        raise InputError("lambda1 needs at least 2 vertices")
    if g.components() > 1:  # with >= 2 vertices, also true if one is isolated
        solve = Lambda1Solve(0.0, "components", 0.0)
    else:
        _check_cap(size)
        solve = _lanczos(g) if size > DENSE_LAMBDA1_MAX else None
        if solve is None:
            value = _bipartite_lambda1(g) if g.side is not None else None
            if value is None:
                value = float(spectrum(_dense_laplacian(g, lower=True), lower=True)[1])
            solve = Lambda1Solve(
                value, "dense", lambda: _dense_residual(normalized_laplacian(g), value)
            )
    return solve if report else solve.value


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

