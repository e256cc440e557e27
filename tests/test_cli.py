import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spectralt import certify as C
from spectralt import cli
from spectralt import words as W
from spectralt.cli import main
from spectralt.delta import Presentation
from spectralt.randmodels import Seed, sample_gamma_strict


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def with_options(tmp_path, argv, options):
    """argv with `options` appended if they are flags, or read from a
    --config file if they are a dict."""
    if not isinstance(options, dict):
        return [*argv, *options]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(options))
    return ["--config", str(path), *argv]


def on_both_routes(values, ids):
    """(value, route) params: each value with `--pipeline`, under its id, and
    without it, under its id and `-direct`."""
    return [
        pytest.param(value, route, id=f"{i}{suffix}")
        for route, suffix in ((["--pipeline"], ""), ([], "-direct"))
        for value, i in zip(values, ids)
    ]


@pytest.fixture
def aba_file(tmp_path):
    path = tmp_path / "aba.txt"
    path.write_text("n 2\nk 3\ng1 g2 g1\n")
    return str(path)


class TestCertify:
    def test_aba(self, capsys, aba_file):
        code, out, _ = run(capsys, "certify", aba_file)
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is False
        assert data["lambda1"] == pytest.approx(0.5)

    def test_malformed_token(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\ng0 g1\n")
        code, _, err = run(capsys, "certify", str(path), "--k", "3")
        assert code == 2
        assert "g0" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "certify", "/nonexistent/file")
        assert code == 2

    def test_malformed_header(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n x\ng1 g2 g1\n")
        code, _, err = run(capsys, "certify", str(path), "--k", "3")
        assert code == 2
        assert err == "error: 'n' header needs an integer, got 'x'\n"

    def test_malformed_vertex_cap(self, capsys, monkeypatch, aba_file):
        monkeypatch.setenv("SPECTRAL_T_MAX_VERTICES", "abc")
        for args in (["certify", aba_file],
                     ["sweep", "--n", "2", "--k", "3", "--d-grid", "0.3", "--jobs", "1"]):
            code, _, err = run(capsys, *args)
            assert code == 2
            assert err == "error: SPECTRAL_T_MAX_VERTICES must be an integer, got 'abc'\n"

    def test_k_mismatch_still_exits_zero(self, capsys, aba_file):
        code, out, _ = run(capsys, "certify", aba_file, "--k", "4")
        assert code == 0
        assert json.loads(out)["lambda1"] == 0.0

    @pytest.mark.parametrize(
        "m_bound,route",
        on_both_routes([["--m-bound", "-1"], {"m_bound": -1}], ["m_bound0", "m_bound1"]),
    )
    def test_m_bound_below_zero(self, capsys, tmp_path, aba_file, m_bound, route):
        argv = with_options(tmp_path, ["certify", aba_file, *route], m_bound)
        assert run(capsys, *argv) == (2, "", "error: --m-bound must be >= 0\n")

    @pytest.mark.parametrize(
        "delta,route",
        on_both_routes(
            [["--delta", "-0.1"], ["--delta", "1"], ["--delta", "nan"], {"delta": -0.1}],
            ["-0.1", "1", "nan", "config"],
        ),
    )
    def test_delta_outside_unit_interval(self, capsys, tmp_path, aba_file, delta, route):
        argv = with_options(tmp_path, ["certify", aba_file, *route], delta)
        assert run(capsys, *argv) == (2, "", "error: need 0 <= delta < 1\n")

    @pytest.mark.parametrize(
        "options,route",
        on_both_routes(
            [["--delta", "2", "--m-bound", "-1"], {"delta": 2, "m_bound": -1}],
            ["flags", "config"],
        ),
    )
    def test_delta_is_checked_before_m_bound(self, capsys, tmp_path, aba_file, options, route):
        argv = with_options(tmp_path, ["certify", aba_file, *route], options)
        assert run(capsys, *argv) == (2, "", "error: need 0 <= delta < 1\n")

    def test_m_bound_zero(self, capsys, aba_file):
        code, _, err = run(capsys, "certify", aba_file, "--pipeline", "--m-bound", "0",
                           "--diagnostics")
        assert code == 0 and "(M=0: ok)\n" in err


GOLDEN = Path(__file__).parent / "golden"


class TestPipelineGolden:
    """`certify FILE --pipeline` stdout and its `--diagnostics` stderr, byte
    for byte, for one n = 2 presentation in each k mod 3 case and one n = 3
    presentation with six class layers (tests/golden)."""

    @pytest.mark.parametrize(
        "n,k,name",
        [(2, 5, "pipeline_k5"), (2, 6, "pipeline_k6"), (2, 7, "pipeline_k7"),
         (3, 6, "pipeline_n3_k6")],
        ids=["k=2 mod 3", "k=0 mod 3", "k=1 mod 3", "n=3 k=0 mod 3"],
    )
    def test_outputs_are_pinned(self, capsys, tmp_path, n, k, name):
        if (n, k) in ((2, 7), (3, 6)):
            pres = sample_gamma_strict(n, k, 0.8, Seed(0))
        else:
            pres = Presentation(n, tuple(W.enumerate_cyclically_reduced(n, k)))
        path = tmp_path / "pres.txt"
        path.write_text(pres.dump())
        argv = ["certify", str(path), "--k", str(k), "--pipeline"]
        stdout = (GOLDEN / f"{name}.stdout").read_text()
        assert run(capsys, *argv) == (0, stdout, "")
        stderr = (GOLDEN / f"{name}.stderr").read_text()
        assert run(capsys, *argv, "--diagnostics") == (0, stdout, stderr)


class TestSample:
    def test_full_bernoulli_presentation(self, capsys):
        code, out, _ = run(capsys, "sample", "--model", "p",
                           "--n", "2", "--k", "3", "--p", "1")
        assert code == 0
        relator_lines = [
            l for l in out.splitlines() if l and not l.startswith(("n ", "k "))
        ]
        assert len(relator_lines) == 28

    def test_empty_red_graph(self, capsys):
        code, out, _ = run(capsys, "sample", "--model", "red",
                           "--n", "2", "--l", "2", "--p", "0")
        assert code == 0
        vlines = [l for l in out.splitlines() if l.startswith("v ")]
        elines = [l for l in out.splitlines() if l.startswith("e ")]
        assert len(vlines) == 12 and not elines

    def test_lax_lengths(self, capsys):
        code, out, _ = run(capsys, "sample", "--model", "lax", "--n", "2",
                           "--k", "4", "--f", "1", "--d", "0.333")
        assert code == 0
        lengths = {
            len(l.split()) for l in out.splitlines()
            if l and not l.startswith(("n ", "k "))
        }
        assert lengths <= {3, 4, 5}

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "sample", "--model", "red", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("d", ["1.5", "-0.5", "nan"])
    def test_lax_density_outside_unit_interval(self, capsys, d):
        # refused as the strict model refuses it, before anything is drawn
        code, out, err = run(capsys, "sample", "--model", "lax", "--n", "2", "--k", "5",
                             "--f", "1", "--d", d)
        assert (code, out, err) == (2, "", "error: need d in (0, 1)\n")

    @pytest.mark.parametrize("model,required", [
        ("gnp", ["m", "p"]),
        ("bgnp", ["m1", "m2", "p"]),
        ("red", ["n", "l", "p"]),
        ("bred", ["n", "l", "p"]),
        ("strict", ["n", "k", "d"]),
        ("p", ["n", "k", "p"]),
        ("lax", ["n", "k", "d", "f"]),
    ])
    def test_missing_option_message(self, capsys, model, required):
        given = {"m": "4", "m1": "3", "m2": "3", "n": "2", "l": "2", "k": "4",
                 "p": "0.5", "d": "0.3", "f": "1"}
        flags = [f"--{name}" for name in required]
        message = f"error: model {model} requires {', '.join(flags[:-1])} and {flags[-1]}\n"
        for missing in required:
            argv = ["sample", "--model", model, "--out", os.devnull]
            for name in required:
                if name != missing:
                    argv += [f"--{name}", given[name]]
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("model", [["p"], {"p": 1}, 3, True, "x"])
    def test_unknown_model_from_config(self, capsys, tmp_path, model):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model, "n": 2, "k": 4, "p": 0.5}))
        code, out, err = run(capsys, "--config", str(path), "sample")
        assert (code, out, err) == (2, "", f"error: unknown model {model!r}\n")

    @pytest.mark.parametrize("argv", [
        ["--model", "red", "--n", "2", "--l", "9", "--p", "0.5"],
        ["--model", "red", "--n", "2", "--l", "12", "--p", "0.5"],
        ["--model", "bred", "--n", "2", "--l", "8", "--p", "0.5"],
        ["--model", "gnp", "--m", "20000", "--p", "0.5"],
        ["--model", "bgnp", "--m1", "10001", "--m2", "10000", "--p", "0.5"],
    ])
    def test_pair_cap(self, capsys, argv):
        code, out, err = run(capsys, "sample", *argv)
        assert code == 3 and not out
        assert err.startswith("resource cap: ") and "exceed pair cap 100000000" in err

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(capsys, "sample", "--model", "strict", "--n", "2",
                             "--k", "4", "--d", "0.4", "--seed", "11",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "3",
                           "--d-grid", "0.3333333333333333",
                           "--trials", "1", "--seed", "0", "--jobs", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,d,trial,seed,num_relators,lambda1,pipeline_bound,certified,status"
        row = lines[1].split(",")
        assert row[5] == "3"  # floor(3^(3*(1/3))) relators
        assert lines[-1].startswith("# rate")

    def test_deterministic_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--n", "2", "--k", "3",
                             "--d-grid", "0.3,0.5", "--trials", "4",
                             "--seed", "3", "--jobs", "2", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_sorted_by_grid_then_trial(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "3",
                           "--d-grid", "0.3,0.5", "--trials", "3",
                           "--seed", "0", "--jobs", "1")
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        keys = [(float(r[2]), int(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_missing_grid(self, capsys):
        code, _, _ = run(capsys, "sweep", "--n", "2", "--k", "3")
        assert code == 2

    @pytest.mark.parametrize("grid", [
        ["--d-min", "0.3", "--d-step", "0"],
        ["--d-min", "0.3", "--d-max", "0.5", "--d-step", "-0.1"],
        ["--d-min", "0.3", "--d-max", "inf"],
        ["--d-grid", "0.3,x"],
        ["--d-grid", "nan"],
        ["--d-grid", "0.4,inf"],
        {"d_grid": [float("nan")]},  # the config's NaN, Infinity and -Infinity
        {"d_grid": [0.4, float("inf")]},
        {"d_grid": [float("-inf")]},
        {"d_grid": [10**400]},  # no float
    ])
    def test_unbounded_or_malformed_grid(self, capsys, monkeypatch, tmp_path, grid):
        # refused with one line before any trial runs
        monkeypatch.setattr(cli, "_sweep_trial", lambda task: pytest.fail("a trial ran"))
        code, out, err = run(capsys, *with_options(tmp_path, ["sweep", "--n", "2", "--k", "3"], grid))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", [["--jobs", "0"], ["--jobs", "-3"], {"jobs": 0}])
    def test_jobs_below_one(self, capsys, monkeypatch, tmp_path, jobs):
        # refused like --trials 0, before any trial runs
        monkeypatch.setattr(cli, "_sweep_trial", lambda task: pytest.fail("a trial ran"))
        argv = with_options(tmp_path, ["sweep", "--n", "2", "--k", "3", "--d-grid", "0.3"], jobs)
        assert run(capsys, *argv) == (2, "", "error: --jobs must be >= 1\n")

    @pytest.mark.parametrize("options,message", [
        (["--n", "0", "--d-grid", "0.4"], "need n >= 2, k >= 3, d in (0, 1)"),
        (["--n", "2", "--k", "2", "--d-grid", "0.4"], "need n >= 2, k >= 3, d in (0, 1)"),
        (["--n", "2", "--d-grid", "0.4,1.5"], "need n >= 2, k >= 3, d in (0, 1)"),
        ({"n": 2, "d_grid": [0.0]}, "need n >= 2, k >= 3, d in (0, 1)"),
        (["--model", "p", "--n", "1", "--d-grid", "0.4"], "need n >= 2, k >= 3, p in [0, 1]"),
        (["--model", "p", "--n", "-3", "--d-grid", "0.4"], "need n >= 2, k >= 3, p in [0, 1]"),
        (["--model", "p", "--n", "2", "--d-grid", "1.5"], "need n >= 2, k >= 3, p in [0, 1]"),
        (["--model", "lax", "--n", "2", "--f", "-1", "--d-grid", "0.4"], "need 0 <= f(k) < k"),
        ({"model": "lax", "n": 2, "f": 4, "d_grid": [0.4]}, "need 0 <= f(k) < k"),
        (["--model", "lax", "--n", "2", "--f", "1", "--d-grid", "0.4"], "need k - f(k) >= 3"),
        (["--model", "lax", "--n", "1", "--d-grid", "0.4"], "need n >= 2"),
        (["--model", "lax", "--n", "2", "--d-grid", "0.4,1.5"], "need d in (0, 1)"),
        ({"model": "lax", "n": 2, "d_grid": [-0.5]}, "need d in (0, 1)"),
    ])
    def test_parameters_no_trial_can_run(self, capsys, monkeypatch, tmp_path, options, message):
        # refused with the sampler's message, before any trial runs
        monkeypatch.setattr(cli, "_sweep_trial", lambda task: pytest.fail("a trial ran"))
        argv = with_options(tmp_path, ["sweep", "--k", "3", "--trials", "2", "--jobs", "1"], options)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_unwritable_out_fails_before_a_trial(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_sweep_trial", lambda task: pytest.fail("a trial ran"))
        path = str(tmp_path / "missing" / "x.csv")
        argv = ["sweep", "--n", "2", "--k", "3", "--d-grid", "0.3", "--trials", "2",
                "--jobs", "1", "--out", path]
        assert run(capsys, *argv) == (
            2, "", f"error: [Errno 2] No such file or directory: {path!r}\n"
        )

    @pytest.mark.parametrize("model", cli.SWEEP_MODELS)
    def test_sweep_model_check_takes_the_sampler_arguments(self, model):
        # check(*args) and sampler(*args, seed) take the same arguments
        sampler, check, args = cli._sweep_model(model, 2, 6, 1, 0.45)
        *params, seed = inspect.signature(sampler).parameters.values()
        assert seed.name == "seed"
        assert list(inspect.signature(check).parameters.values()) == params
        assert len(args) == len(params)
        check(*args)
        assert sampler(*args, Seed(0)).num_relators > 0

    @pytest.mark.parametrize("model", ["gnp", ["p"], 3])
    def test_unknown_model_from_config(self, capsys, monkeypatch, tmp_path, model):
        # refused with one line before any trial runs
        monkeypatch.setattr(cli, "_sweep_trial", lambda task: pytest.fail("a trial ran"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model}))
        code, out, err = run(capsys, "--config", str(path), "sweep", "--n", "2", "--k", "3",
                             "--d-grid", "0.3", "--trials", "2", "--jobs", "1")
        assert (code, out) == (2, "")
        assert err == f"error: unknown sweep model {model!r}\n"

    def test_range_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "3", "--d-min", "0.3",
                           "--d-max", "0.5", "--d-step", "0.1", "--jobs", "1")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert [r[2] for r in rows] == ["0.3", "0.4", "0.5"]

    @pytest.mark.parametrize("grid", [
        ["--d-grid", "0.3", "--trials", str(10**12)],
        ["--d-grid", "0.3,0.4", "--trials", str(cli.SWEEP_TRIAL_CAP // 2 + 1)],
        ["--d-min", "0.3", "--d-max", "0.5", "--d-step", "1e-300"],
        ["--d-min=-1e308", "--d-max", "1e308", "--d-step", "1"],
    ])
    def test_trial_cap(self, capsys, grid):
        # refused before the grid or the task list is built
        code, out, err = run(capsys, "sweep", "--n", "2", "--k", "3", "--jobs", "1", *grid)
        assert code == 3 and out == ""
        assert err.startswith("resource cap: sweep of up to ") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs,trials,cpus,workers", [
        (1000, 3, 8, 3), (1000, 10, 4, 4), (2, 10, 4, 2), (4, 10, None, None),
    ])
    def test_pool_size(self, capsys, monkeypatch, jobs, trials, cpus, workers):
        started, contexts = [], []

        class Pool:
            """Records its size and runs the tasks in this process."""

            def __init__(self, max_workers, mp_context):
                started.append(max_workers)
                contexts.append(mp_context.get_start_method())

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "3", "--d-grid", "0.3",
                           "--trials", str(trials), "--jobs", str(jobs))
        assert code == 0 and len(out.splitlines()) == trials + 2
        assert started == ([workers] if workers else [])
        assert contexts == (["spawn"] if workers else [])


class TestPoolWorkers:
    def test_csv_is_the_same_for_any_job_count(self, capsys, tmp_path):
        paths = {jobs: tmp_path / f"jobs{jobs}.csv" for jobs in (1, 2)}
        for jobs, path in paths.items():
            code, _, _ = run(capsys, "sweep", "--n", "2", "--k", "6", "--d-grid", "0.35,0.45",
                             "--trials", "3", "--seed", "8", "--jobs", str(jobs), "--out", str(path))
            assert code == 0
        assert paths[1].read_bytes() == paths[2].read_bytes()

    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        for name in cli.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        with cli._one_blas_thread():
            assert all(os.environ[name] == "1" for name in cli.BLAS_THREAD_VARIABLES)
        assert dict(os.environ) == before

    @pytest.mark.parametrize("name", cli.BLAS_THREAD_VARIABLES)
    def test_a_thread_count_the_user_set_is_kept(self, monkeypatch, name):
        for other in cli.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(name, "3")
        before = dict(os.environ)
        with cli._one_blas_thread():
            assert dict(os.environ) == before
        assert dict(os.environ) == before

    def test_workers_read_the_thread_count(self, monkeypatch):
        # spawned workers see the environment the pool starts them in
        for name in cli.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with cli._one_blas_thread(), ProcessPoolExecutor(1, mp_context=spawn) as pool:
            seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result()
        assert seen == "1" and "OPENBLAS_NUM_THREADS" not in os.environ


class TestParserOnce:
    def test_main_matches_a_fresh_process(self, capsys, aba_file):
        """Calls that share one parser print what a fresh process prints for
        each command line, errors and help included."""
        commands = [
            ["certify", aba_file, "--diagnostics"],
            ["sample", "--model", "gnp", "--m", "4", "--p", "0.5", "--seed", "2"],
            ["verify", "regularity"],
            ["sweep", "--n", "2"],
            ["sample", "--model", "nope"],
            ["certify", "--k", "x"],
            [],
            ["certify", "--help"],
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        fresh = {}
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "spectralt.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
        for argv in commands + commands[::-1]:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == fresh[tuple(argv)], argv

    def test_the_parser_is_built_once(self, capsys, aba_file):
        cli.build_parser.cache_clear()
        assert main(["certify", aba_file]) == 0
        assert main(["verify", "regularity"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestDiagnostics:
    def test_lambda1_line(self, capsys, aba_file):
        code, out, err = run(capsys, "certify", aba_file)
        assert code == 0 and err == ""
        code, out_diag, err = run(capsys, "certify", aba_file, "--diagnostics")
        assert out_diag == out  # the JSON does not change
        line = next(l for l in err.splitlines() if l.startswith("lambda1 "))
        solver, residual, matvecs, margin = (part.split("=")[1] for part in line.split()[1:])
        assert solver == "dense" and float(residual) <= 1e-10 and matvecs == "0"
        assert float(margin) == pytest.approx(json.loads(out)["lambda1"] - 0.5, abs=1e-12)

    def test_pipeline_and_disconnected(self, capsys, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("n 2\nk 6\ng1 g1 g1 g1 g1 g1\n")
        for extra in ([], ["--pipeline"]):
            code, _, err = run(capsys, "certify", str(path), "--diagnostics", *extra)
            assert code == 0
            assert "lambda1 solver=components residual=0.000e+00 matvecs=0 margin=-0.5" in err.splitlines()


SRC = Path(__file__).resolve().parents[1] / "src"


def test_small_commands_do_not_import_scipy(tmp_path):
    """The Lanczos path imports scipy; certify and sweep on link graphs below
    DENSE_LAMBDA1_MAX must not, since importing it costs about 0.4 s.  At
    k = 13 the pipeline takes lambda_1 of bipartite factors from their
    smaller side, which must not import it either."""
    path = tmp_path / "p.txt"
    path.write_text("n 2\nk 6\n" + "\n".join(
        W.word_to_text(w) for w in W.enumerate_cyclically_reduced(2, 6)[::7]) + "\n")
    bipartite = tmp_path / "k13.txt"
    bipartite.write_text(sample_gamma_strict(2, 13, 0.6, Seed(13)).dump())
    code = (
        "import contextlib, io, sys\n"
        "import spectralt.cli as cli, spectralt.spectra as sp\n"
        "solves, gram = [], sp._bipartite_lambda1\n"
        "sp._bipartite_lambda1 = lambda g: solves.append(gram(g)) or solves[-1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['certify', {str(path)!r}, '--pipeline']) == 0\n"
        f"    assert cli.main(['certify', {str(bipartite)!r}, '--pipeline']) == 0\n"
        "    assert cli.main(['sweep', '--n', '2', '--k', '12', '--d-grid', '0.45',"
        " '--jobs', '1', '--seed', '3']) == 0\n"
        "assert any(s is not None for s in solves), solves\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestVerify:
    @pytest.mark.parametrize("suite", ["spectra", "lemmas", "regularity", "models"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, "verify", suite, "--seed", "5")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "nope")
        assert code == 2


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path, aba_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"presentation": aba_file, "k": 3}))
        code, out, _ = run(capsys, "--config", str(cfg), "certify")
        assert code == 0
        assert json.loads(out)["k"] == 3

    # each command: a config, the command line it is given to (ABA stands
    # for the path of a presentation file) and the error line it must print
    @pytest.mark.parametrize("command", [
        ({"n": "abc"}, ["sweep", "--k", "3", "--d-grid", "0.3"],
         "n must be int, got 'abc'"),
        ({"n": "abc"}, ["sample", "--model", "red", "--l", "2", "--p", "0.5"],
         "n must be int, got 'abc'"),
        ({"pipeline": "false"}, ["certify", "ABA"], "pipeline must be bool, got 'false'"),
        ({"pipeline": 1}, ["sweep", "--n", "2", "--k", "3", "--d-grid", "0.3"],
         "pipeline must be bool, got 1"),
        ({"diagnostics": "no"}, ["certify", "ABA"], "diagnostics must be bool, got 'no'"),
        ({"k": 3.9}, ["certify", "ABA"], "k must be int, got 3.9"),
        ({"seed": True}, ["sample", "--model", "gnp", "--m", "4", "--p", "0.5"],
         "seed must be int, got True"),
        ({"m": 4.5}, ["sample", "--model", "gnp", "--p", "0.5"], "m must be int, got 4.5"),
        ({"p": False}, ["sample", "--model", "gnp", "--m", "4"], "p must be float, got False"),
        ({"delta": True}, ["certify", "ABA", "--pipeline"], "delta must be float, got True"),
        ({"d_grid": [0.3, True]}, ["sweep", "--n", "2", "--k", "3"],
         "malformed density grid [0.3, True]"),
    ])
    def test_malformed_value(self, capsys, tmp_path, aba_file, command):
        config, argv, message = command
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [aba_file if a == "ABA" else a for a in argv]
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("config, argv", [
        ({"k": 3.0, "pipeline": False, "diagnostics": None}, ["certify", "ABA"]),
        ({"k": "3", "pipeline": True}, ["certify", "ABA"]),
        ({"seed": "7", "m": 4.0, "p": "0.5"}, ["sample", "--model", "gnp"]),
    ])
    def test_well_typed_value(self, capsys, tmp_path, aba_file, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [aba_file if a == "ABA" else a for a in argv]
        code, _, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 0 and "error" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"n": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    ], ids=["huge-int", "deep-nesting"])
    def test_unreadable_json(self, capsys, tmp_path, aba_file, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "--config", str(cfg), "certify", aba_file)
        assert code == 2 and out == ""
        assert err.startswith("error: config file cannot be read: ") and message in err
        assert err.count("\n") == 1

    def test_flags_override_config(self, capsys, tmp_path, aba_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 4}))
        code, out, _ = run(capsys, "--config", str(cfg), "certify", aba_file,
                           "--k", "3")
        assert code == 0
        assert json.loads(out)["k"] == 3


JUNK_TOKENS = ["g1", "G2", "g0", "g4", "G", "x", "1", "g1g2", "#", "n", "k", "3"]


@st.composite
def presentation_texts(draw):
    """Presentation files on at most 3 generators with relators of length <= 8:
    mostly well formed, some with a malformed header or line."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    ranks = st.integers(0, W.cyclically_reduced_count(n, k) - 1)
    relators = W.unrank_cyclically_reduced_letters(n, k, draw(st.lists(ranks, max_size=12))).tolist()
    lines = [
        draw(st.sampled_from([f"n {n}"] * 6 + ["", "n 0", "n x", "n 2 3"])),
        draw(st.sampled_from([f"k {k}"] * 3 + ["", "k 0", "k -2", "k y", f"k {k + 1}"])),
    ] + [W.word_to_text(r) for r in relators]
    if draw(st.integers(0, 3)) == 0:
        junk = st.lists(st.sampled_from(JUNK_TOKENS), max_size=8).map(" ".join)
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + "\n"


class TestCertifyFuzz:
    @settings(max_examples=100, deadline=None)
    @given(
        presentation_texts(),
        st.lists(
            st.sampled_from([["--pipeline"], ["--pipeline"], ["--diagnostics"],
                             ["--k", "3"], ["--k", "7"], ["--k", "0"], ["--k", "-1"]]),
            max_size=2,
        ),
    )
    def test_exit_code_and_no_traceback(self, text, flags):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.txt")
            with open(path, "w") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["certify", path] + [f for flag in flags for f in flag])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def flags(**values):
    return [str(x) for name, v in values.items() if v is not None
            for x in (f"--{name.replace('_', '-')}", v)]


HUGE_K = [3003, 10**6, 10**12]
LENGTHS = st.sampled_from([None, -1, 0, 1, 3, 4, 12] + HUGE_K)
DENSITIES = st.sampled_from([None, -1.0, 0.0, 0.3, 0.45, 1.5, 1e300, float("nan"), float("inf")])


SEEDS = st.sampled_from([None, 0, 7, 7, 7, 7, 7, -1])
JSON_VALUES = [None, True, False, -1, 0, 1, 2, 3, 10**12, 10**400, 0.3, 1.5, float("nan"),
               "x", "3", "0.3", "nan", [], [0.3], ["x"], {}, {"a": 1}]
CONFIG_KEYS = ["k", "n", "l", "m", "f", "p", "d", "d_grid", "d_min", "d_max", "d_step", "seed",
               "stream", "trials", "out", "pipeline", "diagnostics", "delta", "m_bound", "suite"]


class TestSampleSweepConfigFuzz:
    """Malformed or extreme `sample`, `sweep` and config input exits 0, 2 or 3
    with no traceback: k up to 10^12, n = 1, densities that overflow, negative
    seeds, config values of every JSON type."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["strict", "p", "lax", "red", "bred", "gnp", "bgnp"]),
        st.sampled_from([-1, 0, 1, 2, 2, 3]), LENGTHS,
        # at n = 2, red and bred pass the pair cap up to l = 8, which takes
        # seconds, and from l = 9 on exit 3 before enumerating a word
        st.sampled_from([-1, 0, 1, 3, 9, 12] + HUGE_K), DENSITIES,
        st.sampled_from([-0.5, 0.0, 0.01, 0.3, 2.0, float("nan")]),
        st.sampled_from([-1, 0, 1, 2, 10**12]), SEEDS, SEEDS,
        st.sampled_from([-1, 0, 1, 5, 10**12]), st.booleans(),
    )
    def test_sample(self, model, n, k, l, d, p, f, seed, stream, m, complete):
        given_flags = {
            "strict": dict(n=n, k=k, d=d), "p": dict(n=n, k=k, p=min(p, 0.01)),
            "lax": dict(n=n, k=k, d=d, f=f), "red": dict(n=n, l=l, p=p),
            "bred": dict(n=n, l=l, p=p), "gnp": dict(m=m, p=p), "bgnp": dict(m1=m, m2=m, p=p),
        }[model]
        if not complete:  # drop one required flag, add an unused one
            given_flags.popitem()
            given_flags["f" if model != "lax" else "l"] = f
        argv = ["sample", "--model", model, "--out", os.devnull] + flags(
            seed=seed, stream=stream, **given_flags)
        code, err = quiet_main(argv)
        assert code in (0, 2, 3) and "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([None, "strict", "p", "lax"]), st.sampled_from([-1, 0, 1, 2, 2, 3]),
        st.sampled_from([-1, 0, 3, 5, 7] + HUGE_K), st.sampled_from([None, 0, 1, 10**12]),
        st.sampled_from(["0.3", "0.45,1.5", "nan", "1e300", "-1", "0.2,0.4", "0.5"]), SEEDS,
        st.booleans(),
    )
    def test_sweep(self, model, n, k, f, grid, seed, pipeline):
        argv = ["sweep", "--trials", "2", "--jobs", "1", "--out", os.devnull] + flags(
            model=model, n=n, k=k, f=f, d_grid=grid, seed=seed)
        code, err = quiet_main(argv + ["--pipeline"] * pipeline)
        assert code in (0, 2, 3) and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["certify", "sample", "sweep", "verify"]),
        st.sampled_from(["aba", "aba", "missing", 1, None, [], 3.5]),
        st.sampled_from(["strict", "p", "lax", "red", "gnp", "x", 3, None, ["p"]]),
        st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(JSON_VALUES), max_size=6),
        st.sampled_from(["json"] * 6 + ["list", "broken", "binary"]),
    )
    def test_config(self, command, presentation, model, cfg, kind):
        with tempfile.TemporaryDirectory() as tmp:
            aba = os.path.join(tmp, "aba.txt")
            with open(aba, "w") as fh:
                fh.write("n 2\nk 3\ng1 g2 g1\n")
            cfg = {"presentation": aba if presentation == "aba" else presentation,
                   "model": model, "n": 2, "k": 3, "l": 2, "d": 0.3, "p": 0.3, "m": 4,
                   "d_grid": [0.3], **cfg}
            if isinstance(cfg["out"] if "out" in cfg else None, str):
                cfg["out"] = os.path.join(tmp, "out")
            if cfg.get("trials") in (10**12, 10**400):
                cfg["trials"] = 2
            text = {"json": json.dumps(cfg), "list": json.dumps([cfg]),
                    "broken": json.dumps(cfg)[:-1]}.get(kind)
            path = os.path.join(tmp, "cfg.json")
            with open(path, "wb") as fh:
                fh.write(b"\xff\xfe{" if text is None else text.encode())
            argv = ["--config", path, command]
            if command == "sweep":
                argv += ["--jobs", "1"]
            code, err = quiet_main(argv)
        assert code in (0, 2, 3) and "Traceback" not in err


class TestHugeK:
    """|W_k| or |C(n, k)| far above its cap is refused before it is built or
    printed."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--model", "strict", "--n", "2", "--k", "1000000", "--d", "0.4"],
        ["sample", "--model", "p", "--n", "2", "--k", "1000000000000", "--p", "0.1"],
        ["sample", "--model", "p", "--n", "2", "--k", str(10**400), "--p", "0.1"],
        ["sweep", "--n", "2", "--k", "1000000", "--d-grid", "0.4", "--jobs", "1"],
    ], ids=["strict", "p", "p-no-float-k", "sweep"])
    def test_sample_and_sweep(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        if argv[0] == "sweep":
            assert code == 0 and ",resource-cap" in out
        else:
            k = argv[6]
            assert code == 3
            assert err == f"resource cap: |C(2, {k})| = 3^{k}+3 exceeds int64 rank cap " \
                          f"{2**63 - 1}\n"

    @pytest.mark.parametrize("n,k,message", [
        (2, 10**6, "|W_333333| = 4*3^333332 exceeds enumeration cap 10000000"),
        (2, 10**12, "|W_333333333333| = 4*3^333333333332 exceeds enumeration cap 10000000"),
        (1, 3 * 10**9, "W_1000000000 has 2000000000 letters, above enumeration cap 10000000"),
    ], ids=["n2-k1e6", "n2-k1e12", "n1-k3e9"])
    def test_certify(self, capsys, tmp_path, n, k, message):
        path = tmp_path / "p.txt"
        path.write_text(f"n {n}\nk {k}\n")
        for extra in ([], ["--pipeline"]):
            code, out, err = run(capsys, "certify", str(path), *extra)
            assert (code, out, err) == (3, "", f"resource cap: {message}\n")

    def test_n1_long_relator(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        for relators in ("", "g1 " * 3003):
            path.write_text(f"n 1\nk 3003\n{relators}\n")
            code, out, _ = run(capsys, "certify", str(path))
            assert code == 0 and json.loads(out)["vertices"] == 2

    def test_printable_counts_keep_their_digits(self, capsys):
        # |C(2, 40)| = 3^40 + 3 is the first |C(2, k)| above 2^63
        code, _, err = run(capsys, "sample", "--model", "strict", "--n", "2", "--k", "40",
                           "--d", "0.4")
        assert code == 3 and f"|C(2, 40)| = {W.cyclically_reduced_count(2, 40)} exceeds" in err
        code, _, err = run(capsys, "sample", "--model", "lax", "--n", "2", "--k", "40",
                           "--f", "2", "--d", "0.4")
        total = sum(W.cyclically_reduced_count(2, l) for l in range(38, 43))
        assert code == 3 and err == f"resource cap: |C(2, 38)| + ... + |C(2, 42)| = {total} " \
                                    f"exceeds int64 rank cap {2**63 - 1}\n"
        code, _, err = run(capsys, "sample", "--model", "lax", "--n", "2", "--k", "1000000",
                           "--f", "2", "--d", "0.4")
        assert code == 3 and "= 3^999998+3+...+3^1000002+3 exceeds" in err


class Unranked(Exception):
    pass


class TestLetterCap:
    def test_strict_letters_are_capped_before_the_unrank(self, capsys, monkeypatch):
        # n = 2, d = 0.45: k = 26 draws 382,224 relators, 9,937,824 letters,
        # under the cap of 10^7; k = 27 draws 626,647, 16,919,469 letters
        def unrank(n, k, ranks):
            raise Unranked(f"{len(ranks)} words of length {k}")

        monkeypatch.setattr(W, "unrank_cyclically_reduced_letters", unrank)
        argv = ["sample", "--model", "strict", "--n", "2", "--d", "0.45", "--k"]
        with pytest.raises(Unranked, match="382224 words of length 26"):
            main(argv + ["26"])
        code, out, err = run(capsys, *argv, "27")
        assert (code, out, err) == (
            3, "", "resource cap: 626647 relators of up to 27 letters: 16919469 letters "
                   "exceed enumeration cap 10000000\n"
        )


class TestEigensolveCapRows:
    @pytest.mark.parametrize("pipeline", [False, True])
    @pytest.mark.parametrize("d", [0.1, 0.45])
    def test_no_delta_k_is_built(self, monkeypatch, d, pipeline):
        # Delta_22 has 11,664 vertices, above the cap of 4000; at d = 0.1 it
        # is also disconnected
        def build(*args):
            raise AssertionError("Delta_k built above the eigensolve cap")

        monkeypatch.setattr(C, "build_delta_k", build)
        monkeypatch.setattr(C, "sigma_decomposition", build)
        row = cli._sweep_trial(("strict", 2, 22, 0, d, 0, 5, 0, pipeline))
        assert row[-1] == "resource-cap"


class TestSweepBeyondTheEnumerationCap:
    """Only the drawn relators are unranked, so sweeps run where |W_k| is
    above the enumeration cap: at n = 2, k = 15 (|W_15| = 19,131,876), and in
    the k-angular regime at n = 20, k = 6 (|W_6| = 3,608,967,960)."""

    @pytest.mark.parametrize("argv", [
        ["--n", "2", "--k", "15", "--model", "strict"],
        ["--n", "2", "--k", "15", "--model", "p"],
        ["--n", "20", "--k", "6"],
    ], ids=["n2-k15-strict", "n2-k15-p", "n20-k6"])
    def test_ok_rows(self, capsys, argv):
        assert W.word_count_exceeds(int(argv[1]), int(argv[3]), W.ENUMERATION_CAP)
        code, out, _ = run(capsys, "sweep", *argv, "--d-grid", "0.45", "--jobs", "1")
        rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
        assert code == 0 and [row[-1] for row in rows] == ["ok"]


class TestCertifyBuildsNoTuples:
    def test_relators_never_read(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "p.txt"
        pres = cli.sample_gamma_strict(2, 7, 0.5, cli.Seed(3))
        path.write_text("# sampled\n" + pres.dump())

        def refuse(self):
            raise AssertionError("relator tuples built")

        monkeypatch.setattr(Presentation, "relators", property(refuse))
        for extra in ([], ["--pipeline", "--diagnostics"]):
            code, out, _ = run(capsys, "certify", str(path), *extra)
            assert code == 0 and json.loads(out)["k"] == 7
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "7", "--d-grid", "0.5",
                           "--jobs", "1", "--pipeline")
        assert code == 0 and ",ok" in out
