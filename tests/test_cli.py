import json

import pytest

from spectralt.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    ])
    def test_unbounded_or_malformed_grid(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--n", "2", "--k", "3", *grid)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("command", [
        ["sweep", "--k", "3", "--d-grid", "0.3"],
        ["sample", "--model", "red", "--l", "2", "--p", "0.5"],
    ])
    def test_malformed_value(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "abc"}))
        code, out, err = run(capsys, "--config", str(cfg), *command)
        assert code == 2 and out == ""
        assert err == "error: n must be int, got 'abc'\n"

    def test_flags_override_config(self, capsys, tmp_path, aba_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 4}))
        code, out, _ = run(capsys, "--config", str(cfg), "certify", aba_file,
                           "--k", "3")
        assert code == 0
        assert json.loads(out)["k"] == 3
