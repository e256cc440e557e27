"""Tests for the benchmark's own code: generator, oracle, guards and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from checks import certify_problems, oracle_lambda1, sweep_problems  # noqa: E402
from presgen import random_words, strict_size, write_presentation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from spectralt import Presentation, build_delta_k, lambda1  # noqa: E402


def _presentation(n: int, k: int, words: np.ndarray) -> Presentation:
    return Presentation(n, tuple(map(tuple, words.tolist())), k)


@pytest.mark.parametrize("k", [6, 7, 8, 9])
@pytest.mark.parametrize("d", [0.25, 0.5, 0.7])
def test_oracle_matches_spectralt(k, d):
    words = random_words(2, k, strict_size(2, k, d), np.random.default_rng(k))
    expected = lambda1(build_delta_k(_presentation(2, k, words), k))
    assert abs(oracle_lambda1(2, k, words) - expected) <= 1e-9
    assert oracle_lambda1(2, k, words.astype(np.int8)) == oracle_lambda1(2, k, words)


@pytest.mark.parametrize("n,k", [(2, 6), (2, 7), (3, 5)])
def test_generated_words(n, k):
    m = strict_size(n, k, 0.6)
    words = random_words(n, k, m, np.random.default_rng(3))
    assert words.shape == (m, k)
    assert np.all(words != 0) and np.all(np.abs(words) <= n)
    assert not np.any(words[:, 1:] == -words[:, :-1])  # freely reduced
    assert not np.any(words[:, -1] == -words[:, 0])  # cyclically reduced
    assert len({tuple(w) for w in words.tolist()}) == m
    same = random_words(n, k, m, np.random.default_rng(3))
    other = random_words(n, k, m, np.random.default_rng(4))
    assert np.array_equal(words, same)
    assert not np.array_equal(words, other)


def test_presentation_file_round_trip(tmp_path):
    path = tmp_path / "p.txt"
    words = write_presentation(path, 2, 7, 0.5, 11)
    parsed = Presentation.parse(path.read_text())
    assert parsed == _presentation(2, 7, words)


def _span(name, start, end, parent, op=1):
    return tr.Span(name, start, end, parent, op)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(tr.OP, 0.0, 10.0, -1),
        _span("certify:zuk_certificate", 1.0, 9.0, 0),
        _span("delta:build_delta_k", 2.0, 5.0, 1),
        _span("multigraph:MultiGraph.__init__", 3.0, 4.0, 2),
        _span("spectra:spectrum", 4.0, 6.0, 1),  # overlaps its sibling by 1
        _span("spectra:spectrum", 8.5, 9.5, 1),  # clipped at the parent's end
    ]
    assert tr.self_times(spans) == pytest.approx([2.0, 3.5, 2.0, 1.0, 2.0, 1.0])

    tracer = tr.Tracer()
    tracer.spans.extend(spans)
    row = tr.op_metrics(tracer)[1]
    assert row["trace.op_s"] == pytest.approx(10.0)
    assert row["certify.self_s"] == pytest.approx(3.5)
    assert row["delta.build_s"] == pytest.approx(2.0)
    assert row["multigraph.construct_s"] == pytest.approx(1.0)
    assert row["spectra.eigensolve_s"] == pytest.approx(3.0)
    assert row["trace.spans_per_op"] == 6


def test_summarize_takes_per_op_medians():
    per_op = {
        op: dict.fromkeys(tr.PER_LAYER, 0.0) | {"delta.build_s": float(op)}
        for op in (1, 2, 3)
    }
    assert tr.summarize(per_op, [1, 2, 3])["delta.build_s"] == 2.0


def _certificate(lam, certified, bound=0.7):
    return json.dumps({"lambda1": lam, "certified": certified, "pipeline_bound": bound})


def test_certify_guards():
    assert certify_problems(0, _certificate(0.8, True), 0.8, pipeline=True) == []
    assert certify_problems(0, _certificate(0.8, False), 0.8, pipeline=False)
    assert certify_problems(0, _certificate(0.4, True), 0.4, pipeline=False)
    assert certify_problems(0, _certificate(0.8, True, None), 0.8, pipeline=True)
    assert certify_problems(0, _certificate(0.8, True, None), 0.8, pipeline=False) == []
    assert certify_problems(0, _certificate(0.8, True), 0.8 + 1e-6, pipeline=False)
    assert certify_problems(3, "", 0.8, pipeline=False)
    assert certify_problems(0, "not json", 0.8, pipeline=False)


def _sweep_output(num_relators, lam, certified, status="ok"):
    header = "n,k,d,trial,seed,num_relators,lambda1,pipeline_bound,certified,status"
    row = f"2,12,0.5,0,7:0,{num_relators},{lam},,{certified},{status}"
    return f"{header}\r\n{row}\r\n# rate d=0.5 certified 1/1 (1.000)\n"


def test_sweep_guards():
    mean = 531444 * 3 ** (12 * (0.5 - 1.0))
    assert sweep_problems(0, _sweep_output(729, 0.7, "true"), 2, 12, 0.5, "p") == []
    assert sweep_problems(0, _sweep_output(729, 0.7, "false"), 2, 12, 0.5, "p")
    assert sweep_problems(0, _sweep_output(int(mean * 2), 0.7, "true"), 2, 12, 0.5, "p")
    assert sweep_problems(0, _sweep_output(729, 0.7, "true"), 2, 12, 0.5, "strict") == []
    assert sweep_problems(0, _sweep_output(730, 0.7, "true"), 2, 12, 0.5, "strict")
    assert sweep_problems(0, _sweep_output("", "", "", "resource-cap"), 2, 12, 0.5, "p")


def test_guards_on_real_pipeline_op(tmp_path):
    import spectralt.cli as cli

    path = tmp_path / "p.txt"
    words = write_presentation(path, 2, 6, 0.8, 5)
    rc, out = run.call(cli.main, ["certify", str(path), "--pipeline"])
    oracle = oracle_lambda1(2, 6, words)
    assert certify_problems(rc, out, oracle, pipeline=True) == []
    cert = json.loads(out)
    flipped = json.dumps(cert | {"certified": not cert["certified"]})
    assert certify_problems(rc, flipped, oracle, pipeline=True)
    nulled = json.dumps(cert | {"pipeline_bound": None})
    assert certify_problems(rc, nulled, oracle, pipeline=True)


_TRACED_OP = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import run, tracer as tr
import spectralt.cli as cli
from presgen import write_presentation
from pathlib import Path
t = tr.Tracer()
missing = tr.install(t)
import spectralt.certify, spectralt.delta
assert spectralt.certify.build_delta_k is spectralt.delta.build_delta_k
assert cli.zuk_certificate is spectralt.certify.zuk_certificate
write_presentation(Path({path!r}), 2, 9, 0.6, 1)
rc, out = t.run_op(1, run.call, cli.main, ["certify", {path!r}])
spans = [s for s in t.spans if s is not None]
print(json.dumps({{"rc": rc, "missing": missing, "names": [s.name for s in spans],
                  "parents": [s.parent for s in spans], "row": tr.op_metrics(t)[1]}}))
"""


def test_tracer_wraps_names_imported_by_value(tmp_path):
    code = _TRACED_OP.format(
        here=str(HERE), src=str(HERE.parent / "src"), path=str(tmp_path / "p.txt")
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rc"] == 0 and got["missing"] == []
    names = got["names"]
    assert names[:3] == [tr.OP, "cli:main", "delta:Presentation.parse"]
    assert "certify:zuk_certificate" in names and "spectra:spectrum" in names
    parent = names[got["parents"][names.index("delta:build_delta_k")]]
    assert parent == "certify:zuk_certificate"
    row = got["row"]
    assert row["spectra.eigensolves"] == 1 and row["spectra.order_max"] == 36
    assert row["delta.vertices"] == 36 and row["randmodels.relators_drawn"] == 0


def test_benchmark_json_names_match_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in bench["per_layer"]] == list(tr.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == [tr.UNITS[n] for n in tr.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
