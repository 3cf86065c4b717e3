"""Batch entry points: torsion computations from data files and
verification suites with machine-readable reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input
(a non-finite complex entry included), 3 a data invariant (such as a
differential not squaring to zero) fails.

All randomness in a verification run flows from a single generator
seeded by ``--seed``, and timing information goes to stderr only, so
reports are byte-identical across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from .algebra import AlgebraError, FormElement, exterior_d
from .analytic import (
    GeometryError,
    ModelGeometry,
    QuadraticFamily,
    equivariant_scalar_torsion as analytic_equivariant_torsion,
    family_log_det,
    geometry_from_json,
    heat_supertrace,
    euler_characteristics,
    scalar_torsion,
    spectrum,
    torsion_via_heat_integral,
    zeta_log_det,
)
from .complexes import (
    ComplexDataError,
    MetricComplex,
    NonFiniteDataError,
    char_form,
    complex_from_json,
    tilde_f,
    torsion_form,
)
from .glue import (
    GluingError,
    GluingScenario,
    standard_sweep,
    verify_double_formula,
    verify_gluing_degree0,
    verify_morse_side,
)
from .hodge import IllConditionedError, induced_gram, scalar_torsion_eigen
from .instances import (
    random_circle_two_term,
    random_complex_instance,
    random_exact_row_double_complex,
    random_invertible,
    random_metric,
    random_unitary,
)
from .morse import (
    MorseDataError,
    arc_data,
    comparison_torsions,
    double,
    doubled_complex,
    equivariant_scalar_torsion as morse_equivariant_torsion,
    morse_from_json,
    psi_maps,
    split_circle_data,
    thom_smale,
    three_column_double,
    z2_split,
)
from .quad import QuadratureError, QuadratureSpec
from .spectral import (
    DoubleComplexError,
    page_decomposition_residual,
    three_column_les,
    total_complex,
)

LOG2 = float(np.log(2.0))

# exit 3; caught before ValueError (exit 2), of which LinAlgError is one
INVARIANT_ERRORS = (MorseDataError, GeometryError, ComplexDataError,
                    DoubleComplexError, GluingError, AlgebraError,
                    IllConditionedError, QuadratureError,
                    np.linalg.LinAlgError, FloatingPointError)


def _entry(name: str, value: float, tolerance: float, ok: bool | None = None) -> dict:
    value = float(value)
    if ok is None:
        ok = abs(value) < tolerance
    return {"name": name, "value": value, "tolerance": float(tolerance),
            "verdict": "pass" if ok else "fail"}


# ---- verification suites -------------------------------------------------


def suite_finite(rng, tolerance: float | None = None, grid: int = 64, **_) -> list:
    tol = 1e-9 if tolerance is None else tolerance
    checks = []

    worst = 0.0
    for _i in range(50):
        n = int(rng.integers(1, 5))
        tau = random_invertible(rng, n)
        E = MetricComplex([n, n], [tau], [np.eye(n, dtype=complex)] * 2)
        value = torsion_form(E).degree0
        worst = max(worst, abs(value + np.log(np.abs(np.linalg.det(tau)))))
    checks.append(_entry("two_term_torsion_is_minus_log_det", worst, tol))

    worst = 0.0
    for _i in range(100):
        E = random_complex_instance(rng, length=int(rng.integers(1, 5)), max_dim=5)
        worst = max(worst, abs(torsion_form(E).degree0 - scalar_torsion_eigen(E)))
    checks.append(_entry("eigen_route_matches_quadrature", worst, tol))

    worst = 0.0
    for _i in range(50):
        E = random_complex_instance(rng, length=int(rng.integers(1, 4)), max_dim=4)
        h1 = [random_metric(rng, d) for d in E.dims]
        E1 = E.with_metric(h1)
        lhs = torsion_form(E1).degree0 - torsion_form(E).degree0
        term_e = tilde_f(E, E.h, h1).coefficient(0).real
        term_h = 0.0
        for q, (a, b) in enumerate(zip(induced_gram(E), induced_gram(E1))):
            if a.shape[0]:
                term_h += ((-1.0) ** q) * 0.5 * (
                    np.log(np.linalg.det(b).real) - np.log(np.linalg.det(a).real))
        worst = max(worst, abs(lhs - (term_e - term_h)))
    checks.append(_entry("metric_anomaly_degree0", worst, max(1e-8, tol)))

    def transgression_residual(seed, g):
        sub = np.random.default_rng(seed)
        worst = 0.0
        for _j in range(5):
            E = random_circle_two_term(sub, grid=g)
            res = torsion_form(E)
            lhs = exterior_d(FormElement(
                E.base, {0: np.asarray(res.degree0, dtype=complex)}))
            diff = lhs.coefficient(1) - char_form(E).coefficient(1)
            worst = max(worst, float(np.max(np.abs(diff))))
        return worst

    seed = int(rng.integers(2 ** 32))
    fine = transgression_residual(seed, grid)
    coarse = transgression_residual(seed, grid // 2)
    checks.append(_entry("transgression_on_circle_base", fine, 1e-6))
    checks.append(_entry("transgression_residual_decreases_with_grid",
                         fine - coarse, 0.0, ok=fine < coarse))
    return checks


def suite_spectral(rng, tolerance: float | None = None, **_) -> list:
    tol = 1e-9 if tolerance is None else tolerance
    checks = []

    worst = 0.0
    for _i in range(100):
        D = random_exact_row_double_complex(rng)
        worst = max(worst, page_decomposition_residual(D))
    checks.append(_entry("torsion_decomposes_over_pages", worst, max(1e-8, tol)))

    worst_exact, worst_split = 0, 0.0
    for _i in range(25):
        data = three_column_les(random_exact_row_double_complex(rng))
        worst_exact = max(worst_exact, *data.les.betti())
        worst_split = max(worst_split, abs(
            data.torsion_les() - data.torsion_e1() - data.torsion_e2()))
    checks.append(_entry("long_exact_sequence_is_exact", worst_exact, 0.5))
    checks.append(_entry("les_torsion_splits_over_pages", worst_split, tol))

    worst = 0.0
    for _i in range(3):
        data = three_column_les(random_exact_row_double_complex(
            rng, n_rows=2, max_dim=2))
        worst = max(worst, abs(data.torsion_les(method="quadrature")
                               - data.torsion_les()))
    checks.append(_entry("les_quadrature_route_agrees", worst, tol))
    return checks


def suite_morse(rng, tolerance: float | None = None, **_) -> list:
    tol = 1e-12 if tolerance is None else tolerance
    checks = []

    # A Thom-Smale complex of a circle has two terms, so d^2 is also read
    # on the total complex of its relative -> full -> absolute columns.
    worst = 0.0
    for _i in range(10):
        M = split_circle_data(random_invertible(rng, int(rng.integers(1, 4))))
        for E in (thom_smale(M), total_complex(three_column_double(M))):
            worst = max([worst, *(np.linalg.norm(b @ a) for a, b in zip(E.v, E.v[1:]))])
    checks.append(_entry("differential_squares_to_zero", worst, tol))

    worst = 0
    for _i in range(10):
        D = three_column_double(split_circle_data(random_invertible(
            rng, int(rng.integers(1, 4)))))
        rows = D.transpose()
        for q in range(D.Q):
            worst = max(worst, *rows.column_complex(q).betti())
    checks.append(_entry("generator_rows_exact_and_split", worst, 0.5))

    comm = iso = defect = anti = 0.0
    for rank in (1, 2, 3):
        t1, t2 = random_unitary(rng, rank), random_unitary(rng, rank)
        P = psi_maps(arc_data((t1, t2), rank=rank))
        for q in range(len(P.plus.v)):
            diff = P.absolute.v[q] @ P.psi1[q] - P.psi1[q + 1] @ P.plus.v[q]
            if diff.size:
                comm = max(comm, float(np.max(np.abs(diff))))
        for q in range(len(P.minus.v)):
            diff = P.minus.v[q] @ P.psi2[q] - P.psi2[q + 1] @ P.relative.v[q]
            if diff.size:
                comm = max(comm, float(np.max(np.abs(diff))))
        total, worst_anti = comparison_torsions(P)
        defect = max(defect, abs(total + 0.5 * LOG2 * 2 * rank))
        anti = max(anti, worst_anti)
        for m in P.psi2:
            if m.shape[1]:
                iso = max(iso, float(np.max(np.abs(
                    m.conj().T @ m - np.eye(m.shape[1])))))
    checks.append(_entry("comparison_maps_commute", comm, tol))
    checks.append(_entry("anti_invariant_map_is_isometry", iso, tol))
    checks.append(_entry("boundary_defect_is_half_log2_per_generator", defect, tol))
    checks.append(_entry("anti_invariant_torsions_vanish", anti, tol))

    worst = 0.0
    for rank in (1, 2):
        t1, t2 = random_unitary(rng, rank), random_unitary(rng, rank)
        C = doubled_complex(double(arc_data((t1, t2), rank=rank)))
        plus, minus, _, _ = z2_split(C)
        tp, tm = scalar_torsion_eigen(plus), scalar_torsion_eigen(minus)
        for element, chi in (("identity", 1.0), ("reflection", -1.0)):
            worst = max(worst, abs(
                morse_equivariant_torsion(C, element) - (tp + chi * tm)))
    checks.append(_entry("equivariant_torsion_splits_by_parity", worst, tol))
    return checks


def suite_analytic(rng, tolerance: float | None = None,
                   precision: float = 1e-9, **_) -> list:
    tol = 1e-7 if tolerance is None else tolerance
    checks = []

    worst = 0.0
    for L in (0.5, 1.0, 2.0):
        for bc in ("abs", "rel"):
            s = spectrum(ModelGeometry("interval", L, bc=bc))
            worst = max(worst, abs(zeta_log_det(s, 0) - np.log(2.0 * L)))
        s = spectrum(ModelGeometry("circle", L))
        worst = max(worst, abs(zeta_log_det(s, 0) - np.log(L ** 2)))
    for theta in (0.4, np.pi / 2, 2.8):
        s = spectrum(ModelGeometry("circle", 1.0,
                                   holonomy=np.array([[np.exp(1j * theta)]])))
        worst = max(worst, abs(zeta_log_det(s, 0)
                               - np.log(4.0 * np.sin(theta / 2) ** 2)))
    checks.append(_entry("zeta_determinant_reference_values", worst, 1e-9))

    worst = 0.0
    for _i in range(10):
        fam = QuadraticFamily(float(rng.uniform(0.3, 5.0)),
                              float(rng.uniform(0.05, 1.0)),
                              int(rng.integers(1, 4)))
        worst = max(worst, abs(family_log_det(fam)
                               - family_log_det(fam, "euler_maclaurin")))
    checks.append(_entry("zeta_engine_matches_summation_oracle", worst, 1e-9))

    geoms = [ModelGeometry("circle", 2.0),
             ModelGeometry("circle", 0.7, holonomy=random_unitary(rng, 2)),
             ModelGeometry("interval", 1.0, bc="abs"),
             ModelGeometry("interval", 1.4, bc="rel", rank=2)]
    worst = 0.0
    quad = QuadratureSpec(tolerance=precision)
    for g in geoms:
        worst = max(worst, abs(torsion_via_heat_integral(g, quad)
                               - scalar_torsion(g)))
    checks.append(_entry("heat_integral_matches_zeta_route", worst, tol))

    worst = 0.0
    for g in geoms:
        chi, chi_prime = euler_characteristics(g)
        s = spectrum(g)
        worst = max(worst, abs(heat_supertrace(s, 1e-3) - 0.25 * chi))
        worst = max(worst, abs(heat_supertrace(s, 1e3) - 0.5 * chi_prime))
    checks.append(_entry("heat_supertrace_endpoint_limits", worst, 1e-4))

    worst = 0.0
    for L, r in ((0.6, 1), (1.0, 1), (2.3, 2)):
        g = ModelGeometry("interval", L, bc="abs", rank=r)
        t_abs = scalar_torsion(g)
        t_rel = scalar_torsion(ModelGeometry("interval", L, bc="rel", rank=r))
        for element, chi in (("identity", 1.0), ("reflection", -1.0)):
            worst = max(worst, abs(analytic_equivariant_torsion(g, element)
                                   - (t_abs + chi * t_rel)))
    checks.append(_entry("equivariant_torsion_of_the_double", worst, tol))
    return checks


def suite_gluing(rng, tolerance: float | None = None, **_) -> list:
    tol = 1e-7 if tolerance is None else tolerance
    checks = []

    reports = standard_sweep(tol)
    worst = max(abs(r["residual"]["value"]) for r in reports)
    checks.append(_entry("gluing_identity_sweep", worst, tol))

    flagship = GluingScenario("circle", 2.0, 0.5, holonomy=np.eye(1))
    report = verify_gluing_degree0(flagship, tol)
    checks.append(_entry("flagship_analytic_lhs_vanishes",
                         report["analytic_lhs"], 1e-9))
    checks.append(_entry("flagship_correction_is_log2",
                         report["log2_correction"] - LOG2, 1e-12))
    checks.append(_entry("flagship_sequence_torsion_is_minus_log2",
                         report["mv_torsion"] + LOG2, 1e-12))

    theta = float(rng.uniform(0.5, np.pi))
    twisted = GluingScenario("circle", 1.5, 0.4,
                             holonomy=np.diag([np.exp(1j * theta), 1.0]))
    for s, label in ((flagship, "flagship"), (twisted, "twisted")):
        for prefix, entries in ((label, verify_morse_side(s)),
                                (f"{label}_double", verify_double_formula(s))):
            checks.extend(_entry(f"{prefix}_{key}", e["value"], e["tolerance"])
                          for key, e in entries.items() if key != "scenario")
    return checks


SUITES = {
    "finite": suite_finite,
    "spectral": suite_spectral,
    "morse": suite_morse,
    "analytic": suite_analytic,
    "gluing": suite_gluing,
}


def run_verify(suite: str, seed: int = 0, tolerance: float | None = None,
               grid: int = 64, precision: float = 1e-9) -> dict:
    names = list(SUITES) if suite == "all" else [suite]
    rng = np.random.default_rng(seed)
    checks = []
    for name in names:
        for entry in SUITES[name](rng, tolerance=tolerance, grid=grid,
                                  precision=precision):
            entry["suite"] = name
            checks.append(entry)
    ok = all(c["verdict"] == "pass" for c in checks)
    return {"command": "verify", "suite": suite, "seed": seed,
            "checks": checks, "verdict": "pass" if ok else "fail"}


# ---- torsion from data files ---------------------------------------------


def run_torsion(path: str, kind: str) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    values: dict = {}
    if kind == "complex":
        E = complex_from_json(text)
        val = np.asarray(torsion_form(E).degree0)
        if val.ndim == 0:
            values["torsion_degree0"] = float(val.real)
        else:
            # base-dependent function: report its values over the grid
            values["torsion_degree0"] = [float(x) for x in val.real]
    elif kind == "morse":
        E = thom_smale(morse_from_json(text))
        values["torsion_degree0"] = float(scalar_torsion_eigen(E))
    elif kind == "double":
        C = doubled_complex(morse_from_json(text))
        values["torsion_degree0"] = float(scalar_torsion_eigen(C.complex))
        for element in ("identity", "reflection"):
            values[f"equivariant_{element}"] = float(
                morse_equivariant_torsion(C, element))
    elif kind == "geometry":
        g = geometry_from_json(text)
        values["torsion_degree0"] = float(scalar_torsion(g))
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return {"command": "torsion", "kind": kind, "input_sha256": digest,
            "values": values, "verdict": "pass"}


# ---- report formatting and entry point -----------------------------------


def format_report(report: dict, style: str = "text") -> str:
    if style == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines = [f"command: {report['command']}"]
    if report["command"] == "verify":
        lines.append(f"suite: {report['suite']}  seed: {report['seed']}")
        for c in report["checks"]:
            lines.append(f"[{c['verdict'].upper():4s}] {c['suite']}/{c['name']}: "
                         f"value={c['value']:.12e} tolerance={c['tolerance']:.1e}")
    else:
        lines.append(f"kind: {report['kind']}  input: {report['input_sha256']}")
        for name, value in report["values"].items():
            if isinstance(value, list):
                shown = ", ".join(f"{x:.12e}" for x in value[:4])
                lines.append(f"{name} = [{shown}{', ...' if len(value) > 4 else ''}]")
            else:
                lines.append(f"{name} = {value:.12e}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Torsion computations and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tor = sub.add_parser("torsion", help="compute torsion from a data file")
    p_tor.add_argument("input")
    p_tor.add_argument("--kind", required=True,
                       choices=["complex", "morse", "double", "geometry"])
    p_tor.add_argument("--report", choices=["json", "text"], default="text")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=[*SUITES, "all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tolerance", type=float, default=None)
    p_ver.add_argument("--precision", type=float, default=1e-9)
    p_ver.add_argument("--grid", type=int, default=64)
    p_ver.add_argument("--report", choices=["json", "text"], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "torsion":
            report = run_torsion(args.input, args.kind)
        else:
            report = run_verify(args.suite, seed=args.seed,
                                tolerance=args.tolerance, grid=args.grid,
                                precision=args.precision)
    except NonFiniteDataError as exc:  # a ComplexDataError, but malformed input
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except INVARIANT_ERRORS as exc:
        print(f"data invariant violated: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    print(format_report(report, args.report))
    print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
