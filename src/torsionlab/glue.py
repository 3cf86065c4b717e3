"""End-to-end verification of the degree-zero gluing formula.

A :class:`GluingScenario` cuts a one-dimensional model geometry (circle
or interval) into two pieces along a point set Y, giving Z = Z1 u_Y Z2
with absolute conditions on the Z1 side of the cut and relative on the
Z2 side.  The headline identity verified here is

    T(Z) - T_abs(Z1) - T_rel(Z2) = (log 2 / 2) rank chi(Y) + T_f(H)

where H is the long exact cohomology sequence of the decomposition with
its L2 Gram matrices, assembled as a finite metric complex (graded 3p,
3p+1, 3p+2 for the relative / full / absolute cohomologies).

The combinatorial side re-derives the same defect from critical-point
complexes: the alternating column-torsion ledger, the page-one metric
comparison term, and the sqrt(2) boundary rescaling of the comparison
map onto the invariant part of the double.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analytic import (
    ModelGeometry,
    equivariant_scalar_torsion as analytic_equivariant_torsion,
    l2_cohomology,
    scalar_torsion,
)
from .complexes import MetricComplex, tilde_f
from .hodge import cohomology_class_basis, induced_gram, scalar_torsion_eigen
from .morse import (
    arc_data,
    doubled_complex,
    double,
    equivariant_scalar_torsion as morse_equivariant_torsion,
    psi_maps,
    split_circle_data,
    three_column_double,
)
from .spectral import page_torsion, pages, three_column_les

__all__ = [
    "GluingScenario",
    "MayerVietorisData",
    "GluingError",
    "build_mv",
    "verify_gluing_degree0",
    "verify_morse_side",
    "verify_double_formula",
    "standard_sweep",
    "scenario_to_json",
    "scenario_from_json",
]

LOG2 = float(np.log(2.0))


class GluingError(ValueError):
    """Inconsistent gluing scenario or failed exactness."""


@dataclass
class GluingScenario:
    """A model geometry cut at a point set into an absolute and a
    relative piece.

    Circles are cut at two points into two arcs (chi(Y) = 2); intervals
    are cut at an interior point (chi(Y) = 1).  ``bc`` is the outer
    boundary condition of an interval scenario.
    """

    kind: str = "circle"
    length: float = 2.0
    split: float = 0.5
    rank: int = 1
    holonomy: np.ndarray | None = None
    bc: str = "abs"

    def __post_init__(self):
        if not 0.0 < self.split < 1.0:
            raise GluingError("split fraction must lie strictly between 0 and 1")
        if self.kind == "circle":
            if self.holonomy is None:
                self.holonomy = np.eye(self.rank, dtype=complex)
            self.holonomy = np.asarray(self.holonomy, dtype=complex)
            self.rank = self.holonomy.shape[0]
        elif self.kind == "interval":
            if self.bc not in ("abs", "rel"):
                raise GluingError("interval scenario needs outer bc 'abs' or 'rel'")
        else:
            raise GluingError(f"unknown scenario kind {self.kind!r}")
        # geometry invariants (length, unitarity) checked by the models
        self.geometry()

    @property
    def l1(self) -> float:
        return self.split * self.length

    @property
    def l2(self) -> float:
        return (1.0 - self.split) * self.length

    def chi_y(self) -> int:
        return 2 if self.kind == "circle" else 1

    def geometry(self) -> ModelGeometry:
        if self.kind == "circle":
            return ModelGeometry("circle", self.length, holonomy=self.holonomy)
        return ModelGeometry("interval", self.length, bc=self.bc, rank=self.rank)

    def side_geometries(self):
        """(Z1 with absolute cut condition, Z2 with relative one)."""
        if self.kind == "circle":
            return (ModelGeometry("interval", self.l1, bc="abs", rank=self.rank),
                    ModelGeometry("interval", self.l2, bc="rel", rank=self.rank))
        if self.bc == "abs":
            return (ModelGeometry("interval", self.l1, bc="abs", rank=self.rank),
                    ModelGeometry("interval", self.l2, bc="mixed", rank=self.rank))
        return (ModelGeometry("interval", self.l1, bc="mixed", rank=self.rank),
                ModelGeometry("interval", self.l2, bc="rel", rank=self.rank))


@dataclass
class MayerVietorisData:
    """The six-term exact cohomology sequence of the cut, with L2 Grams.

    Degrees 3p / 3p+1 / 3p+2 carry H^p(Z2, Y), H^p(Z), H^p(Z1)."""

    complex: MetricComplex
    labels: list

    def validate(self) -> "MayerVietorisData":
        betti = self.complex.betti()
        if any(betti):
            raise GluingError(
                f"long exact sequence fails exactness: dims {self.complex.dims}, "
                f"cohomology ranks {betti}")
        return self

    def torsion(self) -> float:
        return scalar_torsion_eigen(self.complex)


def build_mv(s: GluingScenario) -> MayerVietorisData:
    """Assemble the long exact sequence with closed-form L2 metrics.

    The connecting maps come from the two-arc simplicial model of the
    cut; only the Gram matrices carry metric information.  In the
    chosen coordinates (fiber values for degree zero, periods for
    degree one) the maps are the subspace inclusion of the invariant
    fiber directions, the holonomy defect U - I, and the adjoint
    projection back onto the invariants.
    """
    r = s.rank
    labels = ["H0(Z2,Y)", "H0(Z)", "H0(Z1)", "H1(Z2,Y)", "H1(Z)", "H1(Z1)"]
    if s.kind == "circle":
        h = l2_cohomology(s.geometry())
        basis = h[0].fiber_basis
        k = h[0].dim
        dims = [0, k, r, r, k, 0]
        v = [np.zeros((k, 0), dtype=complex),
             basis,
             s.holonomy - np.eye(r),
             basis.conj().T,
             np.zeros((0, k), dtype=complex)]
        grams = [np.eye(0), s.length * np.eye(k), s.l1 * np.eye(r),
                 (1.0 / s.l2) * np.eye(r), (1.0 / s.length) * np.eye(k),
                 np.eye(0)]
    elif s.bc == "abs":
        dims = [0, r, r, 0, 0, 0]
        v = [np.zeros((r, 0)), np.eye(r), np.zeros((0, r)),
             np.zeros((0, 0)), np.zeros((0, 0))]
        grams = [np.eye(0), s.length * np.eye(r), s.l1 * np.eye(r),
                 np.eye(0), np.eye(0), np.eye(0)]
    else:
        dims = [0, 0, 0, r, r, 0]
        v = [np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((r, 0)),
             np.eye(r), np.zeros((0, r))]
        grams = [np.eye(0), np.eye(0), np.eye(0),
                 (1.0 / s.l2) * np.eye(r), (1.0 / s.length) * np.eye(r),
                 np.eye(0)]
    mc = MetricComplex(dims, [np.asarray(m, dtype=complex) for m in v],
                       [np.asarray(g, dtype=complex) for g in grams])
    return MayerVietorisData(mc, labels).validate()


def _entry(value: float, tolerance: float) -> dict:
    value = float(value)
    return {"value": value, "tolerance": tolerance,
            "pass": bool(abs(value) < tolerance)}


def verify_gluing_degree0(s: GluingScenario, tolerance: float = 1e-7) -> dict:
    """Residual of the degree-zero gluing identity for one scenario."""
    z1, z2 = s.side_geometries()
    t_z = scalar_torsion(s.geometry())
    t_abs = scalar_torsion(z1)
    t_rel = scalar_torsion(z2)
    correction = 0.5 * LOG2 * s.rank * s.chi_y()
    mv = build_mv(s)
    t_h = mv.torsion()
    residual = t_z - t_abs - t_rel - correction - t_h
    return {
        "scenario": scenario_to_json(s),
        "analytic_lhs": t_z - t_abs - t_rel,
        "torsion_z": t_z,
        "torsion_abs_z1": t_abs,
        "torsion_rel_z2": t_rel,
        "log2_correction": correction,
        "mv_torsion": t_h,
        "residual": _entry(residual, tolerance),
    }


# ---- combinatorial (critical-point) side ---------------------------------


def _invariant_basis(m: np.ndarray):
    """Orthonormal basis of the fixed space ker(m - I)."""
    n = m.shape[0]
    u, sv, vh = np.linalg.svd(m - np.eye(n))
    rank = int(np.sum(sv > 1e-10 * max(sv[0] if len(sv) else 0.0, 1.0)))
    return vh[rank:].conj().T


def _morse_l2_grams(s: GluingScenario, D, class_reps):
    """L2 Gram matrices on the column cohomologies of the three-column
    critical-point complex, in the given class-representative bases.

    Degree-zero classes are parallel sections (squared norm = length x
    |fiber value|^2); degree-one classes are identified with their
    harmonic one-form representatives through the period map.
    """
    r = s.rank
    big_l, l1, l2 = s.length, s.l1, s.l2
    # the cochain complex sees the transposed holonomy
    fixed = _invariant_basis(s.holonomy.T)
    k = fixed.shape[1]
    full = D.column_complex(1)

    def deg0_gram(reps, length):
        x1 = reps[:r, :]
        return length * (x1.conj().T @ x1)

    def full_deg1_gram(reps):
        if reps.shape[1] == 0:
            return np.zeros((0, 0), dtype=complex)
        # harmonic representatives have period coordinates proportional
        # to the arc lengths; solve class = harmonic + coboundary
        harm = np.concatenate([(l1 / big_l) * fixed, (l2 / big_l) * fixed], axis=0)
        stacked = np.concatenate([harm, full.v[0]], axis=1)
        sol, *_ = np.linalg.lstsq(stacked, reps, rcond=None)
        err = np.linalg.norm(stacked @ sol - reps)
        if err > 1e-8 * max(np.linalg.norm(reps), 1.0):
            raise GluingError(
                f"degree-one class has no harmonic representative (residual {err:.2e})")
        coeff = sol[:k]
        return (1.0 / big_l) * (coeff.conj().T @ coeff)

    grams = [
        # relative column: degree one only, period coordinates
        [np.zeros((0, 0), dtype=complex),
         (1.0 / l2) * (class_reps[0][1].conj().T @ class_reps[0][1])],
        [deg0_gram(class_reps[1][0], big_l), full_deg1_gram(class_reps[1][1])],
        [deg0_gram(class_reps[2][0], l1),
         np.zeros((0, 0), dtype=complex)],
    ]
    return grams


def verify_morse_side(s: GluingScenario, tolerance: float = 1e-9,
                      analytic_tolerance: float = 1e-7) -> dict:
    """The combinatorial ledger for a circle scenario.

    Checks: exactness/splitness of the generator rows, the alternating
    column-torsion formula for the page-zero torsion, the four-term
    ledger identity with L2 metrics, agreement of the L2 long exact
    sequence with the Mayer-Vietoris torsion, the sqrt(2) boundary
    defect of the invariant comparison map, the vanishing of the
    anti-invariant comparison torsions, and the full comparison with
    the analytic torsions.
    """
    if s.kind != "circle":
        raise GluingError("the critical-point ledger is set up for circle scenarios")
    M = split_circle_data(s.holonomy)
    D = three_column_double(M)
    cols = [D.column_complex(p) for p in range(3)]
    class_reps = [cohomology_class_basis(c) for c in cols]
    l2_grams = _morse_l2_grams(s, D, class_reps)
    hodge_grams = [induced_gram(c, reps) for c, reps in zip(cols, class_reps)]
    data = three_column_les(D, grams=l2_grams, class_reps=class_reps)

    # generator rows rel -> full -> abs are exact (and split: partition)
    row_defect = 0
    for q in range(D.Q):
        row = MetricComplex([D.dim(0, q), D.dim(1, q), D.dim(2, q)],
                            [D.hv_at(0, q), D.hv_at(1, q)],
                            [np.eye(D.dim(p, q), dtype=complex) for p in range(3)])
        row_defect = max(row_defect, *row.betti())

    # page-zero torsion as the alternating sum of column torsions
    t_cols = [scalar_torsion_eigen(c) for c in cols]
    t_e0 = t_cols[0] - t_cols[1] + t_cols[2]
    page0 = pages(D, r_max=0)[0]
    alt_residual = page_torsion(page0, method="eigen") - t_e0

    # metric comparison term on the first page, L2 -> combinatorial
    comparison = 0.0
    for q, row in enumerate(data.row_complexes):
        target = [hodge_grams[p][q] for p in range(3)]
        comparison += float(np.real(
            tilde_f(row, row.h, target).coefficient(0)))

    ledger = t_e0 + data.torsion_e1() + data.torsion_e2() + comparison

    mv = build_mv(s)
    les_vs_mv = data.torsion_les() - mv.torsion()

    # boundary defect of the invariant comparison map
    P = psi_maps(arc_data(rank=s.rank))
    defect = 0.0
    for q, m in enumerate(P.psi1):
        if m.shape[0] == 0:
            continue
        two_term = MetricComplex([m.shape[1], m.shape[0]], [m],
                                 [np.eye(m.shape[1]), np.eye(m.shape[0])])
        defect += ((-1.0) ** q) * scalar_torsion_eigen(two_term)
    defect_residual = defect - (-0.5 * LOG2 * s.chi_y() * s.rank)

    anti = 0.0
    for m in P.psi2:
        if m.shape[1] == 0:
            continue
        two_term = MetricComplex([m.shape[1], m.shape[0]], [m],
                                 [np.eye(m.shape[1]), np.eye(m.shape[0])])
        anti = max(anti, abs(scalar_torsion_eigen(two_term)))

    # full comparison with the analytic torsions
    z1, z2 = s.side_geometries()
    lhs = scalar_torsion(s.geometry()) - scalar_torsion(z1) - scalar_torsion(z2)
    rhs = 0.5 * LOG2 * s.rank * s.chi_y() - t_e0 - comparison
    return {
        "scenario": scenario_to_json(s),
        "rows_exact_split": _entry(row_defect, 1),
        "page0_alternating_sum": _entry(alt_residual, tolerance),
        "ledger_identity": _entry(ledger, tolerance),
        "les_matches_mv": _entry(les_vs_mv, tolerance),
        "boundary_defect": _entry(defect_residual, 1e-12),
        "anti_invariant_torsions": _entry(anti, 1e-12),
        "analytic_comparison": _entry(lhs - rhs, analytic_tolerance),
    }


def verify_double_formula(s: GluingScenario, analytic_tolerance: float = 1e-7,
                          combinatorial_tolerance: float = 1e-12) -> dict:
    """Both double formulas on the absolute piece of the scenario.

    Analytic: the equivariant torsion of the doubled interval equals
    T_abs + chi(g) T_rel.  Combinatorial: the equivariant torsion of a
    doubled arc complex equals T(C+) + chi(g) T(C-).
    """
    r = s.rank
    g1 = ModelGeometry("interval", s.l1, bc="abs", rank=r)
    t_abs = scalar_torsion(g1)
    t_rel = scalar_torsion(ModelGeometry("interval", s.l1, bc="rel", rank=r))
    report = {"scenario": scenario_to_json(s)}
    for element, chi in (("identity", 1.0), ("reflection", -1.0)):
        resid = analytic_equivariant_torsion(g1, element) - (t_abs + chi * t_rel)
        report[f"analytic_{element}"] = _entry(resid, analytic_tolerance)
    transports = (np.eye(r, dtype=complex),
                  s.holonomy if s.kind == "circle" else np.eye(r, dtype=complex))
    C = doubled_complex(double(arc_data(transports, rank=r)))
    from .morse import z2_split
    plus, minus, _, _ = z2_split(C)
    t_plus = scalar_torsion_eigen(plus)
    t_minus = scalar_torsion_eigen(minus)
    for element, chi in (("identity", 1.0), ("reflection", -1.0)):
        resid = morse_equivariant_torsion(C, element) - (t_plus + chi * t_minus)
        report[f"combinatorial_{element}"] = _entry(resid, combinatorial_tolerance)
    return report


def standard_sweep(tolerance: float = 1e-7):
    """The standard scenario grid for the gluing identity."""
    out = []
    for length in (1.0, 2.0, 4.0):
        for split in (0.25, 0.5, 0.75):
            for theta in (0.0, np.pi / 3, np.pi / 2, np.pi):
                for rank in (1, 2):
                    if rank == 1:
                        U = np.array([[np.exp(1j * theta)]])
                    else:
                        # mix an invariant and a rotated fiber direction
                        U = np.diag([np.exp(1j * theta), 1.0]).astype(complex)
                    s = GluingScenario("circle", length, split, holonomy=U)
                    out.append(verify_gluing_degree0(s, tolerance))
    for length in (1.0, 2.0):
        for split in (0.25, 0.5, 0.75):
            for bc in ("abs", "rel"):
                s = GluingScenario("interval", length, split, rank=1, bc=bc)
                out.append(verify_gluing_degree0(s, tolerance))
    return out


# ---- serialization -------------------------------------------------------


def scenario_to_json(s: GluingScenario) -> str:
    doc = {"kind": s.kind, "length": s.length, "split": s.split, "rank": s.rank}
    if s.kind == "circle":
        doc["holonomy"] = {"re": s.holonomy.real.tolist(),
                           "im": s.holonomy.imag.tolist()}
    else:
        doc["bc"] = s.bc
    return json.dumps(doc, sort_keys=True)


def scenario_from_json(text: str) -> GluingScenario:
    doc = json.loads(text)
    if doc["kind"] == "circle":
        U = np.asarray(doc["holonomy"]["re"]) + 1j * np.asarray(doc["holonomy"]["im"])
        return GluingScenario("circle", float(doc["length"]), float(doc["split"]),
                              holonomy=U)
    return GluingScenario("interval", float(doc["length"]), float(doc["split"]),
                          rank=int(doc["rank"]), bc=doc["bc"])
