"""The benchmark's workloads: the inputs each op gets and the guards it must pass.

A workload is built from the run's seed; op i gets `argv(i)`, a command line
for `spectralt.cli.main`, `case(i)` names the kind of input it gets, and
`problems(i, rc, stdout)` lists what is wrong with its result.  Op 0 is the
warm-up.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from checks import certify_problems, oracle_lambda1, sweep_problems
from presgen import write_presentation


class SweepSample:
    """Why: each op enumerates all of W_12 and samples relators from it, which
    is about 98% of the op; Delta_12 has only 108 vertices."""

    N, K = 2, 12
    DENSITIES = (0.40, 0.45, 0.50, 0.55)
    MODELS = ("p", "strict")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _params(self, i: int) -> tuple[float, str]:
        return self.DENSITIES[(i // 2) % len(self.DENSITIES)], self.MODELS[i % 2]

    def case(self, i: int) -> str:
        d, model = self._params(i)
        return f"d={d} {model}"

    def argv(self, i: int) -> list[str]:
        d, model = self._params(i)
        return [
            "sweep", "--model", model, "--n", str(self.N), "--k", str(self.K),
            "--d-grid", repr(d), "--trials", "1", "--jobs", "1",
            "--seed", str(self.seed * 1_000_000 + i),
        ]

    def problems(self, i: int, rc: int, stdout: str) -> list[str]:
        d, model = self._params(i)
        return sweep_problems(rc, stdout, self.N, self.K, d, model)


class CertifyFiles:
    """`certify FILE` over a pool of generated presentations, cycled in order."""

    SPECS: tuple[tuple[int, int, float], ...] = ()  # (n, k, d) of each file
    PIPELINE = False

    def __init__(self, seed: int, workdir: Path):
        self.files, self.words = [], []
        for j, (n, k, d) in enumerate(self.SPECS):
            path = workdir / f"presentation-{j}.txt"
            words = write_presentation(path, n, k, d, seed * 1000 + j)
            # kept for the oracle as int8, so they add little to peak_rss_mb
            self.words.append(words.astype(np.int8))
            self.files.append(path)
        self._oracle: dict[int, float] = {}

    def case(self, i: int) -> str:
        n, k, d = self.SPECS[i % len(self.files)]
        return f"n={n} k={k} d={d}"

    def argv(self, i: int) -> list[str]:
        argv = ["certify", str(self.files[i % len(self.files)])]
        return argv + ["--pipeline"] if self.PIPELINE else argv

    def problems(self, i: int, rc: int, stdout: str) -> list[str]:
        j = i % len(self.files)
        if j not in self._oracle:
            n, k, _ = self.SPECS[j]
            self._oracle[j] = oracle_lambda1(n, k, self.words[j])
        return certify_problems(rc, stdout, self._oracle[j], self.PIPELINE)


class CertifyLarge(CertifyFiles):
    """Why: n=2 k=21 d=0.45 gives about 32k relators and a 2916-vertex
    Delta_k, so parsing, building Delta_k and the dense eigensolve do nearly
    all the work and no sampler runs."""

    SPECS = ((2, 21, 0.45),) * 2


class PipelineDense(CertifyFiles):
    """Why: dense presentations at k = 12, 13, 14 (all three k mod 3 cases)
    build a small, heavily multi-edged Delta_k twice and run max-flow factor
    extraction, which runs in no other workload; densities are set so that
    the three cases cost about the same."""

    SPECS = ((2, 12, 0.75), (2, 13, 0.67), (2, 14, 0.61)) * 2
    PIPELINE = True


WORKLOADS = {
    "sweep-sample": SweepSample,
    "certify-large": CertifyLarge,
    "pipeline-dense": PipelineDense,
}
