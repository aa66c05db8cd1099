"""Acceptance gate: every criterion runs at the bounds fixed in its suite and prints
one pass/fail line.  Budgets are wall-clock seconds on a commodity machine."""

import json
import time

from gl3hecke import cli, suites


def report(n, label, checks, elapsed, budget):
    ok = suites.all_passed(checks)
    worst = max(checks, key=lambda c: 0 if c.status == "pass" else 1)
    print(
        f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'} "
        f"({len(checks)} checks, {elapsed:.1f}s / budget {budget}s)"
    )
    for c in checks:
        if c.status != "pass":
            print(f"    failed: {c.name} value={c.value} bound={c.bound}")
    assert ok, f"criterion {n} failed at {worst.name}"
    assert elapsed < budget, f"criterion {n} exceeded runtime budget"


def test_criterion_1_hecke_identities():
    t0 = time.time()
    checks = suites.suite_hecke(seed=0)
    report(1, "hecke identity suite", checks, time.time() - t0, 10)


def test_criterion_2_schur_identity():
    t0 = time.time()
    checks = suites.suite_schur(seed=0)
    report(2, "schur identity suite", checks, time.time() - t0, 1)


def test_criterion_3_kato_identity():
    t0 = time.time()
    checks = suites.suite_kato(seed=0)
    report(3, "kato identity suite", checks, time.time() - t0, 60)


def test_criterion_4_measure_mass_and_orthonormality():
    t0 = time.time()
    checks = suites.suite_measures(seed=0)
    report(4, "measure mass and orthonormality", checks, time.time() - t0, 30)


def test_criterion_5_bernstein_bound():
    t0 = time.time()
    checks = suites.suite_bernstein(seed=0)
    report(5, "bernstein expansion bound", checks, time.time() - t0, 30)


def test_criterion_6_effective_sato_tate():
    t0 = time.time()
    checks = suites.suite_satotate(seed=0)
    report(6, "effective sato-tate self-consistency", checks, time.time() - t0, 120)


def test_criterion_7_sign_change_pipeline():
    t0 = time.time()
    checks = suites.suite_signs(seed=0)
    report(7, "sign-change pipeline", checks, time.time() - t0, 180)


def test_criterion_8_euler_and_mean_value():
    t0 = time.time()
    checks = suites.suite_euler(seed=0) + suites.suite_mvt(seed=0)
    report(8, "euler factor and mean value calibration", checks, time.time() - t0, 60)


def test_criterion_9_deterministic_reports(tmp_path):
    t0 = time.time()
    commands = [
        ["kato", "--l1", "1", "--l2", "1", "--p", "2"],
        ["satotate", "--p", "5", "--samples", "20000", "--seed", "11",
         "--a", "0.0", "--b", "8.0"],
        ["mvt", "--N", "64", "--T", "32", "--draws", "3", "--seed", "2"],
        ["verify", "--suite", "bernstein", "--seed", "0"],
        ["verify", "--suite", "hecke", "--seed", "3"],
        ["verify", "--suite", "schur", "--seed", "1"],
        ["verify", "--suite", "kato", "--seed", "0"],
        ["verify", "--suite", "measures", "--seed", "5"],
        ["verify", "--suite", "satotate", "--seed", "2"],
        ["verify", "--suite", "euler", "--seed", "4"],
        ["signs", "--X", "2000"],
    ]
    identical = True
    for base in commands:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(base + ["--out", str(a)]) == 0
        assert cli.main(base + ["--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes()
        identical = identical and same
        json.loads(a.read_text())  # reports must stay valid JSON
    status = "PASS" if identical else "FAIL"
    print(f"ACCEPTANCE 9 deterministic reports: {status} "
          f"({len(commands)} commands, {time.time() - t0:.1f}s)")
    assert identical
