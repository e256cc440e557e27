"""Correctness guards for benchmark operations, and an independent lambda_1.

The oracle rebuilds the link graph Delta_k from the relators with numpy alone
(no spectralt code) and takes its normalized-Laplacian spectrum with
`numpy.linalg.eigvalsh`.  The guards run after the timed loop; each returns
the list of problems it found, so an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from presgen import cyclic_count, strict_size

THRESHOLD = 0.5
CERT_MARGIN = 1e-9
LAMBDA_TOL = 1e-9
SIGMAS = 6.0

SWEEP_HEADER = [
    "n", "k", "d", "trial", "seed", "num_relators",
    "lambda1", "pipeline_bound", "certified", "status",
]


def split_lengths(k: int) -> tuple[int, int, int]:
    """Piece lengths (|r_x|, |r_y|, |r_z|) of a length-k relator."""
    a = (k + 1) // 3 if k % 3 == 2 else k // 3
    return a, a, k - 2 * a


def _keys(words: np.ndarray, n: int) -> np.ndarray:
    """Integer key of each row of signed letters; distinct across lengths too,
    because every digit is nonzero."""
    codes = np.where(words > 0, words, n - words)  # 1..2n, never 0
    base = 2 * n + 1
    return codes @ (base ** np.arange(words.shape[1] - 1, -1, -1, dtype=np.int64))


def _reduced_words(n: int, l: int) -> np.ndarray:
    """All freely reduced words of length l, as rows of signed letters."""
    letters = np.array([x for x in range(-n, n + 1) if x], dtype=np.int64)
    words = letters[:, None]
    for _ in range(l - 1):
        nxt = np.repeat(words, len(letters), axis=0)
        last = np.tile(letters, len(words))
        keep = nxt[:, -1] != -last
        words = np.column_stack([nxt[keep], last[keep]])
    return words


def oracle_lambda1(n: int, k: int, relators: np.ndarray) -> float:
    """lambda_1 of Delta_k on the full vertex sets W_l, W_L; 0 if degenerate.

    A relator r = r_x r_y r_z contributes the edges (r_x, r_z^-1),
    (r_y, r_x^-1) and (r_z, r_y^-1); a loop adds its multiplicity once to
    A[v, v] and to deg(v).
    """
    a, b, c = split_lengths(k)
    lengths = sorted({a, c})
    vertex_keys = np.concatenate(
        [_keys(_reduced_words(n, l), n) for l in lengths]
    )
    order = np.argsort(vertex_keys)
    sorted_keys = vertex_keys[order]

    def index(words: np.ndarray) -> np.ndarray:
        keys = _keys(words, n)
        pos = np.searchsorted(sorted_keys, keys)
        if not np.array_equal(sorted_keys[pos], keys):
            raise ValueError("edge endpoint is not a reduced word")
        return order[pos]

    def inverse(words: np.ndarray) -> np.ndarray:
        return -words[:, ::-1]

    rx, ry, rz = relators[:, :a], relators[:, a : a + b], relators[:, a + b :]
    ends = [(rx, inverse(rz)), (ry, inverse(rx)), (rz, inverse(ry))]
    u = np.concatenate([index(p) for p, _ in ends])
    v = np.concatenate([index(q) for _, q in ends])
    m = len(vertex_keys)
    adj = np.zeros((m, m))
    np.add.at(adj, (u, v), 1.0)
    off = u != v
    np.add.at(adj, (v[off], u[off]), 1.0)
    deg = adj.sum(axis=1)
    if m < 2 or deg.min() == 0:
        return 0.0
    scale = 1.0 / np.sqrt(deg)
    lap = np.eye(m) - scale[:, None] * adj * scale[None, :]
    return float(np.linalg.eigvalsh(lap)[1])


def verdict_problems(lam: float, certified: bool) -> list[str]:
    if certified != (lam > THRESHOLD + CERT_MARGIN):
        return [f"verdict certified={certified} disagrees with lambda1={lam!r}"]
    return []


def certify_problems(
    rc: int, stdout: str, oracle: float, pipeline: bool
) -> list[str]:
    """Guards for one `certify` op: exit 0, verdict, oracle, pipeline bound."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        cert = json.loads(stdout)
        lam, certified = float(cert["lambda1"]), cert["certified"]
        bound = cert["pipeline_bound"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    problems = verdict_problems(lam, certified)
    if abs(lam - oracle) > LAMBDA_TOL:
        problems.append(f"lambda1 {lam!r} differs from oracle {oracle!r}")
    if pipeline and bound is None:
        problems.append("pipeline_bound is null")
    return problems


def sweep_problems(
    rc: int, stdout: str, n: int, k: int, d: float, model: str
) -> list[str]:
    """Guards for one single-trial `sweep` op and its one CSV row."""
    if rc != 0:
        return [f"exit code {rc}"]
    rows = [r for r in csv.reader(io.StringIO(stdout)) if r and not r[0].startswith("#")]
    if not rows or rows[0] != SWEEP_HEADER or len(rows) != 2:
        return [f"unexpected sweep output {stdout!r}"]
    row = dict(zip(SWEEP_HEADER, rows[1]))
    if row["status"] != "ok":
        return [f"trial status {row['status']!r}"]
    problems = verdict_problems(float(row["lambda1"]), row["certified"] == "true")
    got = int(row["num_relators"])
    if model == "strict":
        want = strict_size(n, k, d)
        if got != want:
            problems.append(f"strict model drew {got} relators, not {want}")
    else:
        p = (2 * n - 1) ** (k * (d - 1.0))
        mean = cyclic_count(n, k) * p
        sigma = math.sqrt(mean * (1.0 - p))
        if abs(got - mean) > SIGMAS * sigma:
            problems.append(f"{got} relators is beyond {SIGMAS} sigma of {mean:.1f}")
    return problems
