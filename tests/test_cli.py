import argparse
import ast
import csv
import inspect
import json
import math
import textwrap

import numpy as np
import pytest

from gl3hecke import cli, measures, schuralg, suites, tau


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

    def test_mvt_suite_passes_at_seed_6(self, tmp_path):
        # D built from generic data exceeded the frozen constant 4 here
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "mvt", "--seed", "6", "--out", str(out)])
        assert code == 0
        checks = json.loads(out.read_text())["suites"]["mvt"]["checks"]
        assert [c["status"] for c in checks] == ["pass", "pass", "pass"]

    def test_every_bound_is_fixed_in_its_suite(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        bounds = {name: {c["name"]: c["bound"] for c in suite["checks"]}
                  for name, suite in report["suites"].items()}
        assert bounds == {
            "hecke": {"hecke_residual_max_200_triples": 1e-8, "mobius_expand_max_error": 1e-8,
                      "hermitian_symmetry_max": 1e-9, "ramanujan_bound_excess": 1e-10},
            "schur": {"s11_square_expansion_mismatches": 0.0, "degenerate_point_sum_vs_64": 1e-9},
            "kato": {"kato_identity_max_diff": 1e-6, "kato_anchor_112_vs_0.75": 1e-6},
            "measures": {"measure_mass_max_deviation": 1e-8, "schur_orthonormality_max_dev": 1e-7,
                         "density_weyl_invariance_max": 1e-12,
                         "plancherel_to_st_sup_monotone": 0.0, "interval_mass_gap_p1009": 0.02},
            "bernstein": {"bernstein_l1_norm_max": 1.0, "schur_roundtrip_mismatches": 0.0,
                          "bernstein_l1_anchor": 0.0},
            "satotate": {"effective_st_9cell_p2": 0.01, "effective_st_9cell_p5": 0.01},
            "signs": {"sign_changes_count": 1e5 ** (5.0 / 6.0) / 10.0,
                      "partial_sum_abs_vs_X^0.9": 1e5 ** 0.9, "s1_le_s2_everywhere": 0.0,
                      "s1_lt_s2_fraction": 0.5, "windows_with_change_fraction": 0.5,
                      "rankin_selberg_ratio_X1000": 1.0, "rankin_selberg_ratio_X10000": 1.0,
                      "rankin_selberg_ratio_X100000": 1.0, "sign_balance_dev": 0.1,
                      "nonvanishing_ratio_log10": math.log10(2.0),
                      "tau_identity_failures": 0.0},
            "euler": {"euler_degenerate_closed_form": 1e-10,
                      "euler_degenerate_series_vs_closed": 1e-10,
                      "euler_series_vs_closed_max": 1e-9, "euler_ratio_identity_max": 1e-9},
            "mvt": {"mvt_ratio_max_50_draws": 8.0, "mvt_closed_form_max_rel_error": 1e-12,
                    "d_estimate_ratio_max": 4.0},
        }
        assert set(report) == {"command", "seed", "suites", "passed"}

    def test_tol_is_not_an_option(self, capsys):
        # no one number may loosen bounds of different units at once
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--tol", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


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
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["p", "lambda"]
        assert rows[0][0] == "2"
        assert float(rows[0][1]) == pytest.approx(-24 / 2 ** 5.5)

    def test_gl2_ingest_is_tau_prime_eigenvalues_bit_for_bit(self, tmp_path, capsys):
        # nothing in the package reads a p,lambda file: it is the arrays of
        # tau_prime_eigenvalues, read back bit for bit by any CSV reader
        path = tmp_path / "gl2.csv"
        assert run(["gen", "--what", "gl2", "--N", "2000", "--out", str(path)]) == 0
        assert capsys.readouterr().err == ""
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["p", "lambda"]
        primes, lam = tau.tau_prime_eigenvalues(2000)
        assert [int(r[0]) for r in rows] == primes.tolist()
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got.view(np.int64), lam.view(np.int64))

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

    def test_table_csv_rectangle(self, tmp_path):
        path = tmp_path / "table.csv"
        assert run(["gen", "--what", "table", "--N", "40", "--bound-n", "25",
                    "--out", str(path)]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) == 1 + 40 * 25
        assert rows[-1][:2] == ["40", "25"]

    def test_table_cell_cap_boundary(self):
        # N * bound-n = 10^6 is accepted, 10^6 + 2 cells are refused
        for N, bound_n, ok in ((1000, 1000, True), (250_000, 4, True), (500_001, 2, False)):
            args = cli.build_parser().parse_args(
                ["gen", "--what", "table", "--N", str(N), "--bound-n", str(bound_n),
                 "--out", "x.csv"])
            assert (cli._config_error(args) is None) == ok

    def test_samples_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        assert run([
            "gen", "--what", "samples", "--p", "5",
            "--count", "64", "--seed", "3", "--out", str(path),
        ]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["theta1", "theta2"]
        assert len(rows) == 65

    def test_density_table_csv(self, tmp_path):
        path = tmp_path / "density.csv"
        assert run([
            "gen", "--what", "density", "--p", "sato-tate", "--K", "8",
            "--out", str(path),
        ]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["theta1", "theta2", "density"]
        assert len(rows) == 1 + 64
        total = sum(float(r[2]) for r in rows[1:]) * (2 * 3.141592653589793 / 8) ** 2
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_ingest_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,lambda\n2,1.0\n")
        with pytest.raises(cli.IngestError, match=r"bad\.csv:1: expected header 'm,value'$"):
            cli.ingest(str(path))

    def test_ingest_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,value\n1,1.0\n2,not-a-number\n")
        with pytest.raises(cli.IngestError, match=r"bad\.csv:3: could not convert"):
            cli.ingest(str(path))

    def test_ingest_rejects_duplicate_index(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("m,value\n1,1.0\n2,1.0\n2,0.5\n")
        with pytest.raises(cli.IngestError, match=r"dup\.csv:4: duplicate index 2$"):
            cli.ingest(str(path))

    @pytest.mark.parametrize("m", ["0", "1000001"])
    def test_seq_ingest_rejects_index_outside_the_cap(self, tmp_path, capsys, m):
        # one row past 10^6 would otherwise make ingest allocate up to m
        path = tmp_path / "seq.csv"
        path.write_text(f"m,value\n1,1.0\n{m},1.0\n")
        with pytest.raises(cli.IngestError, match=":3: index m = "):
            cli.ingest(str(path))
        assert run(["signs", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:3: index m = {m} outside [1, 10^6]" in err

    def test_seq_ingest_accepts_the_cap(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("m,value\n1000000,-1.0\n")
        seq = cli.ingest(str(path))
        assert len(seq.values) == 10**6 and seq.values[-1] == -1.0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_seq_ingest_rejects_non_finite_values(self, tmp_path, capsys, text):
        # a NaN would count as a negative entry and as a false sign change
        path = tmp_path / "seq.csv"
        path.write_text(f"m,value\n1,1.0\n2,{text}\n3,-1.0\n")
        with pytest.raises(cli.IngestError, match=":3: value = "):
            cli.ingest(str(path))
        assert run(["signs", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:3: value = {text} is not finite" in err

    def test_seq_ingest(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("m,value\n1,1.0\n2,-2.0\n4,0.5\n")
        seq = cli.ingest(str(path))
        assert seq.values.tolist() == [1.0, -2.0, 0.0, 0.5]


class TestSignsCommand:
    def test_pipeline_report(self, tmp_path):
        out = tmp_path / "signs.json"
        code = run(["signs", "--X", "2000", "--H", "auto", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["source"] == "sym2-tau"
        assert report["H"] == 4  # ceil(2000^(1/6))
        assert report["M"] == report["scan"]["M"] == 3  # min(ceil(2000^0.1), H - 1)
        assert report["sign_changes"]["changes"] > 0
        assert report["scan"]["total_x"] > 0

    def test_M_is_derived_not_an_option(self, capsys):
        # the scan reads X and H alone; M is kept in the report, derived from them
        with pytest.raises(SystemExit) as exc:
            run(["signs", "--X", "2000", "--M", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --M 3" in capsys.readouterr().err

    def test_zero_tol_reaches_every_statistic(self, tmp_path):
        out = tmp_path / "signs.json"
        assert run(["signs", "--X", "2000", "--zero-tol", "0.5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        counts = report["sign_changes"]
        nonzero = counts["positives"] + counts["negatives"]
        assert counts["zeros"] > 0
        assert report["nonvanishing"]["lhs"] == nonzero / 2000
        assert report["sign_balance"]["pos_frac"] == counts["positives"] / nonzero

    def test_csv_source(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("m,value\n1,1.0\n2,-1.0\n3,1.0\n")
        out = tmp_path / "signs.json"
        code = run(["signs", "--path", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert (report["source"], report["X"]) == ("csv", 3)
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

    def test_nan_draw_fails(self, tmp_path, monkeypatch):
        # a NaN second moment in draw 2: Python's max would keep draw 1's ratio
        real = cli.dmod.second_moment_many

        def planted(polys, T):
            moments = real(polys, T)
            moments[1] = math.nan
            return moments

        monkeypatch.setattr(cli.dmod, "second_moment_many", planted)
        out = tmp_path / "mvt.json"
        assert run(["mvt", "--N", "64", "--T", "32", "--draws", "3",
                    "--seed", "5", "--out", str(out)]) == 1
        assert math.isnan(json.loads(out.read_text())["max_ratio"])

    def test_caps_boundary(self):
        # N = 10^4, T = 10^9 and 100 draws are accepted, one more of any refused;
        # _config_error returns before anything is drawn
        for N, T, draws, ok in ((10**4, 10**9, 100, True), (10**4 + 1, 512, 5, False),
                                (512, 10**9 + 1, 5, False), (512, 512, 101, False)):
            args = cli.build_parser().parse_args(
                ["mvt", "--N", str(N), "--T", str(T), "--draws", str(draws)])
            assert (cli._config_error(args) is None) == ok


class TestEqualCells:
    @pytest.mark.parametrize("a,b", [(-1.0, 8.0), (0.0, 4.0), (-1.0, 2.0), (0.1, 0.7),
                                     (7.9999999, 8.0), (-1.0, -1.0 + 1e-13), (2.5, 2.5)])
    def test_cells_tile_the_interval(self, a, b):
        # on [-1, 8] the old last edge -1 + k (9/k) was 8.000000000000002 at
        # k = 561, which indicator_mass refuses, and 7.999999999999998 at k = 519
        for k in range(1, 1001):
            lo, hi = np.array(suites.equal_cells(a, b, k)).T
            assert len(lo) == k and lo[0] == a and hi[-1] == b
            assert np.array_equal(hi[:-1], lo[1:])  # contiguous
            assert np.all((a <= lo) & (lo <= hi) & (hi <= b))

    @pytest.mark.parametrize("k", [1, 7, 9, 100, 519, 561, 1000])
    def test_inner_edges_are_the_old_report_edges(self, k):
        # the reports of satotate --cells k stay byte-identical
        width = 9.0 / k
        edges = [e for cell in suites.equal_cells(-1.0, 8.0, k) for e in cell]
        assert edges[:-1] == [e for c in range(k) for e in (-1.0 + c * width,
                                                           -1.0 + (c + 1) * width)][:-1]


class TestSatotateCommand:
    def test_caps_boundary(self):
        # 10^7 samples and 1,000 cells are accepted, one more of either refused;
        # _config_error returns before anything is sampled
        for samples, cells, ok in ((10**7, 1000, True), (10**7 + 1, 9, False),
                                   (100_000, 1001, False)):
            args = cli.build_parser().parse_args(
                ["satotate", "--p", "5", "--samples", str(samples), "--cells", str(cells)])
            assert (cli._config_error(args) is None) == ok

    def test_interval_report(self, tmp_path):
        out = tmp_path / "st.json"
        code = run(["satotate", "--p", "2", "--samples", "5000", "--seed", "1",
                    "--a", "-1", "--b", "8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cells"][0]["interval"] == [-1.0, 8.0]
        assert report["cells"][0]["empirical"] == 1.0

    def test_cells_of_a_and_b(self, tmp_path):
        out = tmp_path / "st.json"
        assert run(["satotate", "--p", "5", "--samples", "200", "--cells", "3",
                    "--a", "0", "--b", "1", "--out", str(out)]) in (0, 1)
        report = json.loads(out.read_text())
        assert [c["interval"] for c in report["cells"]] == [
            [0.0, 1 / 3], [1 / 3, 2 / 3], [2 / 3, 1.0]]
        assert set(report) == {"command", "p", "samples", "seed", "cells", "max_excess_diff"}

    def test_561_cells_end_at_8(self, tmp_path):
        out = tmp_path / "st.json"
        assert run(["satotate", "--p", "5", "--samples", "200", "--cells", "561",
                    "--out", str(out)]) in (0, 1)
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 561 and cells[-1]["interval"][1] == 8.0

    def test_cells_share_one_draw(self, tmp_path, monkeypatch):
        draws = []
        real = cli.schuralg.sample_app

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(cli.schuralg, "sample_app", counting)
        out = tmp_path / "cells.json"
        run(["satotate", "--p", "2", "--cells", "9", "--samples", "2000", "--out", str(out)])
        assert draws == [(2, 2000, 0)]
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 9 and sum(c["empirical"] for c in cells) == pytest.approx(1.0)

    def test_nan_cell_fails(self, tmp_path, monkeypatch):
        # a NaN mass in cell 2 of 3: Python's max would keep cell 1's excess
        real, cells = cli.schuralg.indicator_mass, []

        def planted(p, cell):
            cells.append(cell)
            mass, unc = real(p, cell)
            return (math.nan if len(cells) == 2 else mass), unc

        monkeypatch.setattr(cli.schuralg, "indicator_mass", planted)
        out = tmp_path / "cells.json"
        assert run(["satotate", "--p", "2", "--cells", "3", "--out", str(out)]) == 1
        assert len(cells) == 3
        assert math.isnan(json.loads(out.read_text())["max_excess_diff"])


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        pairs = [
            ["kato", "--l1", "1", "--l2", "0", "--p", "3"],
            # 4 standard errors of the cell's sampled mass inside the default
            # tol 0.01; at 2000 samples it was 0.9, and a third of seeds exit 1
            ["satotate", "--p", "2", "--samples", "40000", "--seed", "9",
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
        assert run(["signs", "--path", "/nonexistent.csv"]) == 2

    @pytest.mark.parametrize("command", ["kato", "satotate", "mvt"])
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_bad_tol_is_config_error(self, capsys, tol, command):
        argv = {
            "kato": ["kato", "--l1", "1", "--l2", "1", "--p", "2"],
            "satotate": ["satotate", "--p", "2", "--samples", "200"],
            "mvt": ["mvt", "--N", "8", "--T", "8", "--draws", "1"],
        }[command]
        assert run(argv + ["--tol", tol]) == 2
        assert "field 'tol' must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["mvt", "--T", "-5"], "field 'T'"),
        (["mvt", "--T", "0"], "field 'T'"),
        (["mvt", "--N", "-3"], "field 'N'"),
        (["mvt", "--N", "0"], "field 'N'"),
        (["mvt", "--draws", "0"], "field 'draws'"),
        (["mvt", "--N", "10001"], "field 'N' must lie in [1, 10^4]"),
        (["mvt", "--T", "1000000001"], "field 'T' must lie in (0, 10^9]"),
        (["mvt", "--T", str(10 ** 400)], "field 'T' must lie in (0, 10^9]"),
        (["mvt", "--draws", "101"], "field 'draws' must lie in [1, 100]"),
        (["satotate", "--p", "5", "--cells", "-1"], "field 'cells'"),
        (["satotate", "--p", "5", "--cells", "0"], "field 'cells' must be at least 1"),
        (["satotate", "--p", "5", "--cells", "9", "--b", "9"], "-1 <= a <= b <= 8"),
        (["signs", "--path", "x.csv", "--H", "3"], "field 'H' sets the sym2 tau scan, not --path"),
        (["signs", "--X", "2000", "--H", "0"], "field 'H'"),
        (["signs", "--X", "2000", "--H", "1"], "field 'H'"),
        (["kato", "--l1", "7", "--l2", "0", "--p", "2"], "field 'l1' must lie in [0, 6]"),
        (["kato", "--l1", "-1", "--l2", "0", "--p", "2"], "field 'l1' must lie in [0, 6]"),
        (["kato", "--l1", "0", "--l2", "7", "--p", "2"], "field 'l2' must lie in [0, 6]"),
        (["kato", "--l1", "1", "--l2", "1", "--p", "4"], "field 'p' must be a prime"),
        (["kato", "--l1", "1", "--l2", "1", "--p", "0"], "field 'p' must be a prime"),
        (["satotate", "--p", "9"], "field 'p' must be a prime"),
        (["satotate", "--p", "2", "--samples", "99"], "field 'samples' must be at least 100"),
        (["satotate", "--p", "2", "--samples", "10000001"], "field 'samples' must be at most 10^7"),
        (["satotate", "--p", "2", "--samples", str(10 ** 12)], "field 'samples' must be at most 10^7"),
        (["satotate", "--p", "2", "--cells", "1001"], "field 'cells' must be at most 1000"),
        (["satotate", "--p", "2", "--cells", str(10 ** 9)], "field 'cells' must be at most 1000"),
        (["satotate", "--p", "2", "--a", "-2"], "-1 <= a <= b <= 8"),
        (["satotate", "--p", "2", "--a", "3", "--b", "2"], "-1 <= a <= b <= 8"),
        (["satotate", "--p", "2", "--b", "nan"], "-1 <= a <= b <= 8"),
        (["gen", "--what", "samples", "--p", "4", "--out", "x.csv"], "field 'p' must be a prime"),
        (["gen", "--what", "density", "--p", "1", "--out", "x.csv"], "field 'p' must be a prime"),
        (["gen", "--what", "tau", "--N", "0", "--out", "x.csv"], "field 'N' must lie in [1, 10^6]"),
        (["gen", "--what", "gl2", "--N", "1000001", "--out", "x.csv"],
         "field 'N' must lie in [1, 10^6]"),
        (["gen", "--what", "table", "--N", "100", "--bound-n", "0", "--out", "x.csv"],
         "field 'bound-n' must lie in [1, N]"),
        (["gen", "--what", "table", "--N", "100", "--bound-n", "101", "--out", "x.csv"],
         "field 'bound-n' must lie in [1, N]"),
        (["gen", "--what", "table", "--N", "1001", "--bound-n", "1000", "--out", "x.csv"],
         "field 'bound-n' must keep N * bound-n at most 10^6"),
        (["gen", "--what", "table", "--N", "1000000", "--bound-n", "1000000",
          "--out", "x.csv"],
         "field 'bound-n' must keep N * bound-n at most 10^6"),
        (["gen", "--what", "samples", "--count", "0", "--out", "x.csv"],
         "field 'count' must lie in [1, 10^6]"),
        (["gen", "--what", "samples", "--count", "1000001", "--out", "x.csv"],
         "field 'count' must lie in [1, 10^6]"),
        (["gen", "--what", "density", "--K", "7", "--out", "x.csv"],
         "field 'K' must lie in [8, 1000]"),
        (["gen", "--what", "density", "--K", "1001", "--out", "x.csv"],
         "field 'K' must lie in [8, 1000]"),
        (["signs", "--X", "0"], "field 'X' must lie in [1, 10^6]"),
        (["signs", "--X", "1000001"], "field 'X' must lie in [1, 10^6]"),
        (["signs", "--X", "5"], "the scan window needs H <= (X - H) / 2"),
        (["signs", "--X", "100", "--zero-tol", "-1"], "field 'zero-tol' must be non-negative"),
        (["kato", "--l1", "1", "--l2", "1", "--p", "2", "--tol", "1e-16"],
         "field 'tol' = 1e-16 is below what Kato quadrature can certify"),
        (["kato", "--l1", "6", "--l2", "6", "--p", "1009", "--tol", "1e-8"],
         "field 'tol' = 1e-08 is below what Kato quadrature can certify"),
        (["gen", "--what", "samples", "--seed", "-1", "--out", "x.csv"],
         "field 'seed' must lie in [0, 2^64)"),
        (["gen", "--what", "samples", "--seed", str(2 ** 64), "--out", "x.csv"],
         "field 'seed' must lie in [0, 2^64)"),
        (["satotate", "--p", "2", "--seed", "-1"], "field 'seed' must lie in [0, 2^64)"),
        (["satotate", "--p", "2", "--seed", str(2 ** 64)], "field 'seed' must lie in [0, 2^64)"),
        (["verify", "--suite", "satotate", "--seed", "-1"], "field 'seed' must lie in [0, 2^64)"),
        (["verify", "--suite", "satotate", "--seed", str(2 ** 64)],
         "field 'seed' must lie in [0, 2^64)"),
        (["mvt", "--seed", "-1"], "field 'seed' must lie in [0, 2^64)"),
        (["mvt", "--seed", str(2 ** 64)], "field 'seed' must lie in [0, 2^64)"),
    ], ids=["mvt-T-neg", "mvt-T-zero", "mvt-N-neg", "mvt-N-zero", "mvt-draws-zero",
            "mvt-N-big", "mvt-T-big", "mvt-T-10-400", "mvt-draws-big",
            "satotate-cells-neg", "satotate-cells-zero", "satotate-cells-b-big", "signs-path-H",
            "signs-H-zero", "signs-H-one",
            "kato-l1-big", "kato-l1-neg", "kato-l2-big", "kato-p-composite", "kato-p-zero",
            "satotate-p", "satotate-samples", "satotate-samples-big", "satotate-samples-10-12",
            "satotate-cells-big", "satotate-cells-10-9", "satotate-a-low", "satotate-a-above-b",
            "satotate-b-nan", "gen-samples-p", "gen-density-p", "gen-tau-N-zero",
            "gen-gl2-N-big", "gen-table-bound-n-zero", "gen-table-bound-n-above-N",
            "gen-table-cells-past-cap", "gen-table-cells-10-12",
            "gen-count-zero", "gen-count-big", "gen-K-small", "gen-K-big",
            "signs-X-zero", "signs-X-big",
            "signs-window-X-small", "signs-zero-tol-neg",
            "kato-tol-below-floor", "kato-tol-below-floor-66",
            "gen-seed-neg", "gen-seed-2-64", "satotate-seed-neg", "satotate-seed-2-64",
            "verify-seed-neg", "verify-seed-2-64", "mvt-seed-neg", "mvt-seed-2-64"])
    def test_bad_size_is_config_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "x.csv").exists()

    def test_value_error_inside_a_command_propagates(self, monkeypatch):
        # a fault of the program is not a configuration error
        def planted(*args, **kwargs):
            raise ValueError("planted")

        monkeypatch.setattr(cli.klpoly, "kato_check", planted)
        with pytest.raises(ValueError, match="planted"):
            run(["kato", "--l1", "1", "--l2", "1", "--p", "2"])

    @pytest.mark.parametrize("argv,message", [
        (["signs", "--path", "seq.csv", "--X", "10"],
         "argument --X: not allowed with argument --path"),
        (["signs", "--source", "csv", "--path", "seq.csv"], "unrecognized arguments: --source csv"),
        (["gen", "--what", "samples", "--measure", "sato-tate", "--out", "x.csv"],
         "unrecognized arguments: --measure sato-tate"),
    ], ids=["signs-path-and-X", "signs-source", "gen-measure"])
    def test_path_selecting_flag_is_refused(self, capsys, argv, message):
        # signs reads --path or else sym2 tau up to --X, and gen's measure is its --p
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--what", "samples", "--p", "foo", "--out", "x.csv"],
         "gl3hecke gen: error: argument --p: expected a prime or 'sato-tate', got 'foo'"),
        (["gen", "--what", "density", "--p", "5.0", "--out", "x.csv"],
         "gl3hecke gen: error: argument --p: expected a prime or 'sato-tate', got '5.0'"),
        (["signs", "--H", "foo"],
         "gl3hecke signs: error: argument --H: expected an integer or 'auto', got 'foo'"),
    ], ids=["gen-p-foo", "gen-p-float", "signs-H-foo"])
    def test_non_integer_flag_says_what_it_takes(self, capsys, tmp_path, monkeypatch,
                                                 argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not (tmp_path / "x.csv").exists()


def args_read(fn) -> set[str]:
    """The names that fn's source reads as args.<name>."""
    return {node.attr for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def test_args_read_finds_attribute_reads():
    def cmd(args, other):
        return args.X + other.H + getattr(args, "M") + (lambda: args.zero_tol)()

    assert args_read(cmd) == {"X", "zero_tol"}


GEN_HEADERS = {"tau": ["m", "value"], "gl2": ["p", "lambda"], "table": ["m", "n", "re", "im"],
               "samples": ["theta1", "theta2"], "density": ["theta1", "theta2", "density"]}


@pytest.mark.parametrize("what", next(a for a in SUBCOMMANDS["gen"]._actions
                                      if a.dest == "what").choices)
def test_each_gen_choice_writes_its_own_header(tmp_path, what):
    # cmd_gen ends in the density branch, so a --what choice added without
    # a branch of its own would write density's header
    path = tmp_path / "out.csv"
    assert run(["gen", "--what", what, "--N", "10", "--count", "4", "--K", "8",
                "--out", str(path)]) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == GEN_HEADERS[what]
    assert len({tuple(h) for h in GEN_HEADERS.values()}) == len(GEN_HEADERS)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_flag_is_read(name):
    # a flag that neither its command nor _config_error reads is a setting
    # that does nothing
    parser = SUBCOMMANDS[name]
    read = args_read(parser.get_default("fn")) | args_read(cli._config_error)
    assert {a.dest for a in parser._actions if a.dest != "help"} - read == set()


def test_sampling_commands_never_load_numpy_random(tmp_path):
    # the sampler's SplitMix64 stream is numpy array arithmetic alone
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = ("import sys\n"
            "from gl3hecke.cli import main\n"
            "assert main(['verify', '--suite', 'satotate', '--seed', '0',\n"
            "             '--out', sys.argv[1]]) == 0\n"
            "assert main(['gen', '--what', 'samples', '--out', sys.argv[2]]) == 0\n"
            "print('numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(measures.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "verify.json"),
                           str(tmp_path / "samples.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("args,env", [
        # 40,000 samples: the default tol 0.01 is 5 standard errors of the mass
        (["satotate", "--p", "2", "--samples", "40000", "--seed", "6",
          "--a", "-1.0", "--b", "2.0"], {}),
        # the sampler and the memoised pushforward pieces over all nine cells
        (["verify", "--suite", "satotate", "--seed", "3"], {}),
        # the tau memo
        (["verify", "--suite", "signs", "--seed", "0"], {}),
        # the D windows, sieved with in-place complex products
        (["verify", "--suite", "mvt", "--seed", "0"], {}),
        # the Jacobi-Trudi and Pieri expansions, memoised per process: the
        # first run here starts cold, the second warm
        (["verify", "--suite", "bernstein", "--seed", "0"], {}),
        # the alias tables of the grid searches, memoised per shape
        (["verify", "--suite", "kato", "--seed", "0"], {}),
        # the subprocess runs single-threaded BLAS, the test process its default
        (["mvt", "--N", "1024", "--T", "1024", "--draws", "5", "--seed", "3"],
         {"OPENBLAS_NUM_THREADS": "1"}),
    ], ids=["satotate", "verify-satotate", "verify-signs", "verify-mvt",
         "verify-bernstein", "verify-kato", "mvt-single-blas-thread"])
    def test_fresh_interpreter_matches_in_process(self, tmp_path, args, env):
        # guards against any dependence on per-process cache warm-up order
        import os
        import subprocess
        import sys

        # the first in-process run starts with cold Schur expansions and
        # alias tables, the second with every memo warm
        schuralg.schur_to_epoly.cache_clear()
        schuralg._monomial_in_schur.cache_clear()
        measures._resolution_aliases.cache_clear()
        out0, out1 = tmp_path / "inproc0.json", tmp_path / "inproc.json"
        assert run(args + ["--out", str(out0)]) == 0
        assert run(args + ["--out", str(out1)]) == 0
        assert out0.read_bytes() == out1.read_bytes()
        out2 = tmp_path / "subproc.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gl3hecke.cli", *args, "--out", str(out2)],
            capture_output=True, env={**os.environ, **env},
        )
        assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()
