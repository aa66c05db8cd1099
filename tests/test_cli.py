import csv
import json

import pytest

from gl3hecke import cli


def run(argv):
    return cli.main(argv)


class TestVerifyCommand:
    def test_schur_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "schur", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = [c["name"] for c in report["suites"]["schur"]["checks"]]
        assert "s11_square_expansion_mismatches" in names

    def test_hecke_suite_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "hecke", "--seed", "7", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for check in report["suites"]["hecke"]["checks"]:
            assert set(check) == {"name", "status", "value", "bound"}


class TestKatoCommand:
    def test_anchor_report(self, tmp_path):
        out = tmp_path / "kato.json"
        code = run(["kato", "--l1", "1", "--l2", "1", "--p", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["lhs"] == pytest.approx(0.75)
        assert report["diff"] <= 1e-6


class TestGenAndIngest:
    def test_gl2_round_trip(self, tmp_path):
        path = tmp_path / "gl2.csv"
        assert run(["gen", "--what", "gl2", "--N", "200", "--out", str(path)]) == 0
        form = cli.ingest(str(path), "gl2csv")
        assert form.ramanujan is True
        assert form.pairs[0][0] == 2
        assert form.pairs[0][1] == pytest.approx(-24 / 2 ** 5.5)

    def test_tau_csv(self, tmp_path):
        path = tmp_path / "tau.csv"
        assert run(["gen", "--what", "tau", "--N", "10", "--out", str(path)]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["m", "value"]
        assert rows[1] == ["1", "1"]
        assert rows[2] == ["2", "-24"]

    def test_table_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        assert run(["gen", "--what", "table", "--N", "20", "--out", str(path)]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["m", "n", "re", "im"]
        assert len(rows) == 21

    def test_samples_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        assert run([
            "gen", "--what", "samples", "--measure", "plancherel", "--p", "5",
            "--count", "64", "--seed", "3", "--out", str(path),
        ]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["theta1", "theta2"]
        assert len(rows) == 65

    def test_density_table_csv(self, tmp_path):
        path = tmp_path / "density.csv"
        assert run([
            "gen", "--what", "density", "--measure", "sato-tate", "--K", "8",
            "--out", str(path),
        ]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["theta1", "theta2", "density"]
        assert len(rows) == 1 + 64
        total = sum(float(r[2]) for r in rows[1:]) * (2 * 3.141592653589793 / 8) ** 2
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_ingest_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prime,eig\n2,1.0\n")
        with pytest.raises(cli.IngestError, match="header"):
            cli.ingest(str(path), "gl2csv")

    def test_ingest_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,lambda\n2,1.0\n3,not-a-number\n")
        with pytest.raises(cli.IngestError, match=":3:"):
            cli.ingest(str(path), "gl2csv")

    def test_ingest_rejects_duplicate_prime(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("p,lambda\n2,1.0\n2,0.5\n")
        with pytest.raises(cli.IngestError, match="duplicate prime 2"):
            cli.ingest(str(path), "gl2csv")

    def test_ingest_flags_non_tempered_rows(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("p,lambda\n2,2.5\n")
        form = cli.ingest(str(path), "gl2csv")
        assert form.ramanujan is False
        assert "warning" in capsys.readouterr().err

    def test_seq_ingest(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("m,value\n1,1.0\n2,-2.0\n4,0.5\n")
        seq = cli.ingest(str(path), "seqcsv")
        assert seq.values == [1.0, -2.0, 0.0, 0.5]


class TestSignsCommand:
    def test_pipeline_report(self, tmp_path):
        out = tmp_path / "signs.json"
        code = run(["signs", "--source", "sym2-tau", "--X", "2000",
                    "--H", "auto", "--M", "auto", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["H"] == 4  # ceil(2000^(1/6))
        assert report["sign_changes"]["changes"] > 0
        assert report["scan"]["total_x"] > 0

    def test_csv_source(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("m,value\n1,1.0\n2,-1.0\n3,1.0\n")
        out = tmp_path / "signs.json"
        code = run(["signs", "--source", "csv", "--path", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sign_changes"]["changes"] == 2


class TestMvtCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "mvt.json"
        code = run(["mvt", "--N", "64", "--T", "32", "--draws", "3",
                    "--seed", "5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["draws"]) == 3
        assert report["max_ratio"] <= 8.0


class TestSatotateCommand:
    def test_interval_report(self, tmp_path):
        out = tmp_path / "st.json"
        code = run(["satotate", "--p", "2", "--samples", "5000", "--seed", "1",
                    "--a", "-1", "--b", "8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["empirical"] == 1.0


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        pairs = [
            ["kato", "--l1", "1", "--l2", "0", "--p", "3"],
            ["satotate", "--p", "2", "--samples", "2000", "--seed", "9",
             "--a", "0.0", "--b", "4.0"],
            ["mvt", "--N", "64", "--T", "16", "--draws", "2", "--seed", "4"],
            ["verify", "--suite", "schur", "--seed", "0"],
            ["signs", "--X", "1500"],
        ]
        for base in pairs:
            out1 = tmp_path / "a.json"
            out2 = tmp_path / "b.json"
            assert run(base + ["--out", str(out1)]) == 0
            assert run(base + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()


class TestErrorPaths:
    def test_missing_file_is_config_error(self):
        assert run(["signs", "--source", "csv", "--path", "/nonexistent.csv"]) == 2

    @pytest.mark.parametrize("command", ["verify", "kato", "satotate", "mvt"])
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_bad_tol_is_config_error(self, capsys, tol, command):
        argv = {
            "verify": ["verify", "--suite", "schur"],
            "kato": ["kato", "--l1", "1", "--l2", "1", "--p", "2"],
            "satotate": ["satotate", "--p", "2", "--samples", "200"],
            "mvt": ["mvt", "--N", "8", "--T", "8", "--draws", "1"],
        }[command]
        assert run(argv + ["--tol", tol]) == 2
        assert "field 'tol' must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["mvt", "--T", "-5"], "T"),
        (["mvt", "--T", "0"], "T"),
        (["mvt", "--N", "-3"], "N"),
        (["mvt", "--N", "0"], "N"),
        (["mvt", "--draws", "0"], "draws"),
        (["satotate", "--p", "5", "--cells", "-1"], "cells"),
        (["signs", "--X", "2000", "--M", "0"], "M"),
    ], ids=["mvt-T-neg", "mvt-T-zero", "mvt-N-neg", "mvt-N-zero", "mvt-draws-zero",
            "satotate-cells-neg", "signs-M-zero"])
    def test_bad_size_is_config_error(self, capsys, argv, field):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"field '{field}'" in err

    def test_csv_source_without_path_is_config_error(self, capsys):
        assert run(["signs", "--source", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--path" in err


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("args,env", [
        (["satotate", "--p", "2", "--samples", "3000", "--seed", "6",
          "--a", "-1.0", "--b", "2.0"], {}),
        # the subprocess runs single-threaded BLAS, the test process its default
        (["mvt", "--N", "1024", "--T", "1024", "--draws", "5", "--seed", "3"],
         {"OPENBLAS_NUM_THREADS": "1"}),
    ], ids=["satotate", "mvt-single-blas-thread"])
    def test_fresh_interpreter_matches_in_process(self, tmp_path, args, env):
        # guards against any dependence on per-process cache warm-up order
        import os
        import subprocess
        import sys

        out1 = tmp_path / "inproc.json"
        assert run(args + ["--out", str(out1)]) == 0
        out2 = tmp_path / "subproc.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gl3hecke.cli", *args, "--out", str(out2)],
            capture_output=True, env={**os.environ, **env},
        )
        assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()
