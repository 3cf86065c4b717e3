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
# the two elements of Z/2 and the sign each gives the anti-invariant part
PARITIES = (("identity", 1.0), ("reflection", -1.0))

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


def _fold(measure, cases) -> np.ndarray:
    """Element-wise maximum of the residual tuples ``measure(case)`` over the
    cases in order (a generator of cases draws each one just before it is
    measured). A NaN residual propagates, so its check fails; ``max(0.0, nan)``
    would read 0.0."""
    return np.max([np.atleast_1d(measure(case)) for case in cases], axis=0)


def _sup(arrays) -> float:
    """Largest absolute entry over the arrays (0.0 if none); NaN propagates."""
    return np.max([np.max(np.abs(a), initial=0.0) for a in arrays], initial=0.0)


# ---- verification suites -------------------------------------------------


def suite_finite(rng, tol: float) -> list:
    def two_term(tau):
        E = MetricComplex([len(tau)] * 2, [tau], [np.eye(len(tau), dtype=complex)] * 2)
        return abs(torsion_form(E).degree0 + np.log(np.abs(np.linalg.det(tau))))

    def routes(E):
        return abs(torsion_form(E).degree0 - scalar_torsion_eigen(E))

    def anomaly_case():
        E = random_complex_instance(rng, length=int(rng.integers(1, 4)), max_dim=4)
        return E, [random_metric(rng, d) for d in E.dims]

    def anomaly(case):
        E, h1 = case
        E1 = E.with_metric(h1)
        lhs = torsion_form(E1).degree0 - torsion_form(E).degree0
        term_e = tilde_f(E, E.h, h1).coefficient(0).real
        term_h = 0.0
        for q, (a, b) in enumerate(zip(induced_gram(E), induced_gram(E1))):
            if a.shape[0]:
                term_h += ((-1.0) ** q) * 0.5 * (
                    np.log(np.linalg.det(b).real) - np.log(np.linalg.det(a).real))
        return abs(lhs - (term_e - term_h))

    def transgression(E):
        lhs = exterior_d(FormElement(
            E.base, {0: np.asarray(torsion_form(E).degree0, dtype=complex)}))
        return _sup([lhs.coefficient(1) - char_form(E).coefficient(1)])

    def circles(seed, grid):
        sub = np.random.default_rng(seed)
        return (random_circle_two_term(sub, grid=grid) for _j in range(5))

    taus = (random_invertible(rng, int(rng.integers(1, 5))) for _i in range(50))
    (two,) = _fold(two_term, taus)
    instances = (random_complex_instance(rng, length=int(rng.integers(1, 5)), max_dim=5)
                 for _i in range(100))
    (eigen,) = _fold(routes, instances)
    (metric,) = _fold(anomaly, (anomaly_case() for _i in range(50)))
    seed = int(rng.integers(2 ** 32))
    (fine,) = _fold(transgression, circles(seed, 64))
    (coarse,) = _fold(transgression, circles(seed, 32))
    return [_entry("two_term_torsion_is_minus_log_det", two, tol),
            _entry("eigen_route_matches_quadrature", eigen, tol),
            _entry("metric_anomaly_degree0", metric, max(1e-8, tol)),
            _entry("transgression_on_circle_base", fine, 1e-6),
            _entry("transgression_residual_decreases_with_grid",
                   fine - coarse, 0.0, ok=fine < coarse)]


def suite_spectral(rng, tol: float) -> list:
    def doubles(count, **shape):
        return (random_exact_row_double_complex(rng, **shape) for _i in range(count))

    def splits(D):
        data = three_column_les(D)
        return (np.max(data.les.betti(), initial=0),
                abs(data.torsion_les() - data.torsion_e1() - data.torsion_e2()))

    def quadrature(D):
        data = three_column_les(D)
        return abs(data.torsion_les(method="quadrature") - data.torsion_les())

    (pages,) = _fold(page_decomposition_residual, doubles(100))
    exact, split = _fold(splits, doubles(25))
    (quad,) = _fold(quadrature, doubles(3, n_rows=2, max_dim=2))
    return [_entry("torsion_decomposes_over_pages", pages, max(1e-8, tol)),
            _entry("long_exact_sequence_is_exact", exact, 0.5),
            _entry("les_torsion_splits_over_pages", split, tol),
            _entry("les_quadrature_route_agrees", quad, tol)]


def suite_morse(rng, tol: float) -> list:
    def circles():
        return (split_circle_data(random_invertible(rng, int(rng.integers(1, 4))))
                for _i in range(10))

    def arcs(ranks):
        return ((rank, arc_data((random_unitary(rng, rank), random_unitary(rng, rank)),
                                rank=rank)) for rank in ranks)

    # A Thom-Smale complex of a circle has two terms, so d^2 is also read
    # on the total complex of its relative -> full -> absolute columns.
    def squares(M):
        complexes = (thom_smale(M), total_complex(three_column_double(M)))
        return np.max([np.linalg.norm(b @ a)
                       for E in complexes for a, b in zip(E.v, E.v[1:])], initial=0.0)

    def rows_betti(M):
        rows = three_column_double(M).transpose()
        return np.max([n for p in range(rows.P) for n in rows.column_complex(p).betti()],
                      initial=0)

    def comparison(case):
        rank, arc = case
        P = psi_maps(arc)
        invariant = [P.absolute.v[q] @ P.psi1[q] - P.psi1[q + 1] @ P.plus.v[q]
                     for q in range(len(P.plus.v))]
        anti_invariant = [P.minus.v[q] @ P.psi2[q] - P.psi2[q + 1] @ P.relative.v[q]
                          for q in range(len(P.minus.v))]
        isometry = [m.conj().T @ m - np.eye(m.shape[1]) for m in P.psi2]
        total, anti = comparison_torsions(P)
        return (_sup(invariant + anti_invariant), _sup(isometry),
                abs(total + 0.5 * LOG2 * 2 * rank), anti)

    def parity(case):
        C = doubled_complex(double(case[1]))
        plus, minus, _, _ = z2_split(C)
        tp, tm = scalar_torsion_eigen(plus), scalar_torsion_eigen(minus)
        return np.max([abs(morse_equivariant_torsion(C, element) - (tp + chi * tm))
                       for element, chi in PARITIES])

    (square,) = _fold(squares, circles())
    (rows,) = _fold(rows_betti, circles())
    comm, iso, defect, anti = _fold(comparison, arcs((1, 2, 3)))
    (split,) = _fold(parity, arcs((1, 2)))
    return [_entry("differential_squares_to_zero", square, tol),
            _entry("generator_rows_exact_and_split", rows, 0.5),
            _entry("comparison_maps_commute", comm, tol),
            _entry("anti_invariant_map_is_isometry", iso, tol),
            _entry("boundary_defect_is_half_log2_per_generator", defect, tol),
            _entry("anti_invariant_torsions_vanish", anti, tol),
            _entry("equivariant_torsion_splits_by_parity", split, tol)]


def suite_analytic(rng, tol: float) -> list:
    references = []
    for L in (0.5, 1.0, 2.0):
        for bc in ("abs", "rel"):
            references.append((ModelGeometry("interval", L, bc=bc), np.log(2.0 * L)))
        references.append((ModelGeometry("circle", L), np.log(L ** 2)))
    for theta in (0.4, np.pi / 2, 2.8):
        holonomy = np.array([[np.exp(1j * theta)]])
        references.append((ModelGeometry("circle", 1.0, holonomy=holonomy),
                           np.log(4.0 * np.sin(theta / 2) ** 2)))

    def zeta(case):
        g, reference = case
        return abs(zeta_log_det(spectrum(g), 0) - reference)

    def family():
        return QuadraticFamily(float(rng.uniform(0.3, 5.0)),
                               float(rng.uniform(0.05, 1.0)),
                               int(rng.integers(1, 4)))

    def oracle(fam):
        return abs(family_log_det(fam) - family_log_det(fam, "euler_maclaurin"))

    def heat(g):
        chi, chi_prime = euler_characteristics(g)
        s = spectrum(g)
        route = torsion_via_heat_integral(g, QuadratureSpec(tolerance=1e-9))
        return (abs(route - scalar_torsion(g)),
                np.max([abs(heat_supertrace(s, 1e-3) - 0.25 * chi),
                        abs(heat_supertrace(s, 1e3) - 0.5 * chi_prime)]))

    def double_split(case):
        L, r = case
        g = ModelGeometry("interval", L, bc="abs", rank=r)
        t_abs = scalar_torsion(g)
        t_rel = scalar_torsion(ModelGeometry("interval", L, bc="rel", rank=r))
        return np.max([abs(analytic_equivariant_torsion(g, element) - (t_abs + chi * t_rel))
                       for element, chi in PARITIES])

    (reference,) = _fold(zeta, references)
    (summation,) = _fold(oracle, (family() for _i in range(10)))
    geoms = [ModelGeometry("circle", 2.0),
             ModelGeometry("circle", 0.7, holonomy=random_unitary(rng, 2)),
             ModelGeometry("interval", 1.0, bc="abs"),
             ModelGeometry("interval", 1.4, bc="rel", rank=2)]
    route, limits = _fold(heat, geoms)
    (doubled,) = _fold(double_split, ((0.6, 1), (1.0, 1), (2.3, 2)))
    return [_entry("zeta_determinant_reference_values", reference, 1e-9),
            _entry("zeta_engine_matches_summation_oracle", summation, 1e-9),
            _entry("heat_integral_matches_zeta_route", route, tol),
            _entry("heat_supertrace_endpoint_limits", limits, 1e-4),
            _entry("equivariant_torsion_of_the_double", doubled, tol)]


def suite_gluing(rng, tol: float) -> list:
    (sweep,) = _fold(lambda r: abs(r["residual"]["value"]), standard_sweep(tol))
    flagship = GluingScenario("circle", 2.0, 0.5, holonomy=np.eye(1))
    report = verify_gluing_degree0(flagship, tol)
    checks = [_entry("gluing_identity_sweep", sweep, tol),
              _entry("flagship_analytic_lhs_vanishes", report["analytic_lhs"], 1e-9),
              _entry("flagship_correction_is_log2", report["log2_correction"] - LOG2, 1e-12),
              _entry("flagship_sequence_torsion_is_minus_log2",
                     report["mv_torsion"] + LOG2, 1e-12)]
    theta = float(rng.uniform(0.5, np.pi))
    twisted = GluingScenario("circle", 1.5, 0.4,
                             holonomy=np.diag([np.exp(1j * theta), 1.0]))
    for s, label in ((flagship, "flagship"), (twisted, "twisted")):
        for prefix, entries in ((label, verify_morse_side(s)),
                                (f"{label}_double", verify_double_formula(s))):
            checks.extend(_entry(f"{prefix}_{key}", e["value"], e["tolerance"])
                          for key, e in entries.items() if key != "scenario")
    return checks


# suite and its default tolerance, which --tolerance replaces
SUITES = {
    "finite": (suite_finite, 1e-9),
    "spectral": (suite_spectral, 1e-9),
    "morse": (suite_morse, 1e-12),
    "analytic": (suite_analytic, 1e-7),
    "gluing": (suite_gluing, 1e-7),
}


def run_verify(suite: str, seed: int = 0, tolerance: float | None = None) -> dict:
    names = list(SUITES) if suite == "all" else [suite]
    rng = np.random.default_rng(seed)
    checks = []
    for name in names:
        run, default = SUITES[name]
        tol = default if tolerance is None else tolerance
        for entry in run(rng, tol):
            checks.append(dict(entry, suite=name))
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
    p_ver.add_argument("--report", choices=["json", "text"], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "torsion":
            report = run_torsion(args.input, args.kind)
        else:
            report = run_verify(args.suite, seed=args.seed, tolerance=args.tolerance)
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
