"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Most criteria reuse the CLI verification suites so that the library,
the command-line reports, and this suite all measure the same residuals
with the same pinned tolerances.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from torsionlab.cli import format_report, run_verify
from torsionlab.complexes import MetricComplex, torsion_form
from torsionlab.glue import standard_sweep
from torsionlab.instances import random_invertible

SEED = 2026
# stdout of `torsionlab verify all --seed 2026`
GOLDEN = Path(__file__).resolve().parent / "data" / "verify_all_2026.txt"


@pytest.fixture(scope="module")
def verify_all():
    report = run_verify("all", seed=SEED)
    entries = {f"{c['suite']}/{c['name']}": c for c in report["checks"]}
    return entries, {style: format_report(report, style) for style in ("json", "text")}


def check(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description} {detail}")
    assert ok, f"criterion {num:02d}: {description} {detail}"


def entry_ok(entries, name, tolerance=None):
    c = entries[name]
    if tolerance is not None and c["tolerance"] > tolerance:
        return False, c
    return c["verdict"] == "pass", c


def test_criterion_01_two_term_log_det():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    residuals = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        tau = random_invertible(rng, n)
        E = MetricComplex([n, n], [tau], [np.eye(n, dtype=complex)] * 2)
        residuals.append(abs(torsion_form(E).degree0
                             + np.log(np.abs(np.linalg.det(tau)))))
    worst = np.max(residuals)  # a NaN residual propagates and fails
    elapsed = time.monotonic() - start
    check(1, "two-term torsion equals -log|det| (50 instances, 1e-9, <10s)",
          worst < 1e-9 and elapsed < 10.0,
          f"residual={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_02_convention_lock(verify_all):
    entries, _ = verify_all
    ok, c = entry_ok(entries, "finite/eigen_route_matches_quadrature", 1e-9)
    check(2, "eigenvalue route matches quadrature route (100 complexes, 1e-9)",
          ok, f"residual={c['value']:.2e}")


def test_criterion_03_metric_anomaly(verify_all):
    entries, _ = verify_all
    ok, c = entry_ok(entries, "finite/metric_anomaly_degree0", 1e-8)
    check(3, "degree-0 metric anomaly identity (50 triples, 1e-8)",
          ok, f"residual={c['value']:.2e}")


def test_criterion_04_transgression(verify_all):
    entries, _ = verify_all
    ok1, c1 = entry_ok(entries, "finite/transgression_on_circle_base", 1e-6)
    ok2, c2 = entry_ok(entries,
                       "finite/transgression_residual_decreases_with_grid")
    check(4, "transgression identity over the circle base (grid 64, 1e-6, "
          "residual decreasing with grid)",
          ok1 and ok2, f"residual={c1['value']:.2e} delta={c2['value']:.2e}")


def test_criterion_05_page_decomposition(verify_all):
    entries, _ = verify_all
    checks = [entry_ok(entries, "spectral/torsion_decomposes_over_pages", 1e-8),
              entry_ok(entries, "spectral/les_torsion_splits_over_pages", 1e-9),
              entry_ok(entries, "spectral/les_quadrature_route_agrees", 1e-9)]
    check(5, "page decomposition of torsion (100 doubles, 1e-8; "
          "sequence splittings, 1e-9)",
          all(ok for ok, _ in checks),
          " ".join(f"{c['value']:.2e}" for _, c in checks))


def test_criterion_06_morse_structural(verify_all):
    entries, _ = verify_all
    names = ["morse/differential_squares_to_zero",
             "morse/generator_rows_exact_and_split",
             "morse/comparison_maps_commute",
             "morse/anti_invariant_map_is_isometry",
             "morse/boundary_defect_is_half_log2_per_generator",
             "morse/anti_invariant_torsions_vanish"]
    checks = [entry_ok(entries, n) for n in names]
    check(6, "critical-point structural suite (exact rows, commuting "
          "comparison maps, log-2 boundary defect; 1e-12)",
          all(ok for ok, _ in checks),
          " ".join(f"{c['value']:.2e}" for _, c in checks))


def test_criterion_07_zeta_engine(verify_all):
    entries, _ = verify_all
    checks = [entry_ok(entries, "analytic/zeta_determinant_reference_values", 1e-9),
              entry_ok(entries, "analytic/zeta_engine_matches_summation_oracle",
                       1e-9)]
    check(7, "zeta determinants match closed forms and the summation "
          "oracle (1e-9)",
          all(ok for ok, _ in checks),
          " ".join(f"{c['value']:.2e}" for _, c in checks))


def test_criterion_08_heat_route(verify_all):
    entries, _ = verify_all
    ok1, c1 = entry_ok(entries, "analytic/heat_integral_matches_zeta_route", 1e-7)
    ok2, c2 = entry_ok(entries, "analytic/heat_supertrace_endpoint_limits", 1e-4)
    check(8, "heat-integral torsion matches zeta route (1e-7); "
          "supertrace endpoint limits (1e-4)",
          ok1 and ok2, f"residual={c1['value']:.2e} limits={c2['value']:.2e}")


def test_criterion_09_gluing_formula(verify_all):
    entries, _ = verify_all
    start = time.monotonic()
    reports = standard_sweep(1e-7)
    elapsed = time.monotonic() - start
    worst = np.max([abs(r["residual"]["value"]) for r in reports])  # NaN propagates
    flags = [entry_ok(entries, "gluing/flagship_analytic_lhs_vanishes"),
             entry_ok(entries, "gluing/flagship_correction_is_log2"),
             entry_ok(entries, "gluing/flagship_sequence_torsion_is_minus_log2")]
    check(9, "gluing identity sweep (84 scenarios, 1e-7, <60s) and "
          "flagship values (0, log 2, -log 2)",
          worst < 1e-7 and elapsed < 60.0 and all(ok for ok, _ in flags),
          f"residual={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_10_double_formulas(verify_all):
    entries, _ = verify_all
    oks, values = [], []
    for label in ("flagship", "twisted"):
        for key, tol in (("analytic_identity", 1e-7),
                         ("analytic_reflection", 1e-7),
                         ("combinatorial_identity", 1e-12),
                         ("combinatorial_reflection", 1e-12)):
            ok, c = entry_ok(entries, f"gluing/{label}_double_{key}", tol)
            oks.append(ok)
            values.append(c["value"])
    check(10, "equivariant double formulas (analytic 1e-7, "
          "combinatorial 1e-12, both group elements)",
          all(oks), f"max={max(abs(v) for v in values):.2e}")


def test_criterion_11_deterministic_reports(verify_all):
    first = verify_all[1]["json"]
    second = format_report(run_verify("all", seed=SEED), "json")
    check(11, "verification reports are byte-identical under a fixed seed",
          first == second and "verdict" in first)


def test_verify_all_text_matches_the_committed_report(verify_all):
    # any move in a verify residual, tolerance or verdict shows here; an
    # intended one regenerates the file with the command above
    _, formatted = verify_all
    assert formatted["text"] + "\n" == GOLDEN.read_text()
