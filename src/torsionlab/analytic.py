"""Degree-zero analytic torsion for one-dimensional model geometries.

Covers circles with unitary holonomy and intervals with absolute or
relative boundary conditions.  Laplacian spectra are affine-quadratic
families (c(n+a))^2, so zeta-regularized determinants reduce to Hurwitz
zeta special values:

    log det' Delta = sum_fam mult * (2 ln c (1/2 - a) - 2 ln Gamma(a) + ln 2 pi)

An independent Euler-Maclaurin + complex-step evaluation of -zeta'(0)
serves as the cross-check oracle, and a heat-trace integral with the
standard small-/large-time counterterms provides a third route.
Doubling an interval yields a circle whose spectrum splits by parity
into the Neumann and Dirichlet families; the equivariant torsion
weights eigenvalue families by the reflection character.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .complexes import _mat_from_json, _mat_to_json, check_finite, rank_split
from .quad import QuadratureSpec, adaptive_quad, dyadic_tail

__all__ = [
    "ModelGeometry",
    "QuadraticFamily",
    "SpectrumData",
    "GeometryError",
    "spectrum",
    "doubled_spectrum",
    "family_log_det",
    "zeta_log_det",
    "scalar_torsion",
    "torsion_via_heat_integral",
    "equivariant_scalar_torsion",
    "l2_cohomology",
    "euler_characteristics",
    "L2Cohomology",
    "geometry_to_json",
    "geometry_from_json",
]

_TWO_PI = 2.0 * np.pi
# Gamma(a) ~ 1/a overflows a float for every a at or below 1 / (largest float)
_A_MIN = 1.0 / sys.float_info.max


class GeometryError(ValueError):
    """Invalid model geometry."""


@dataclass
class ModelGeometry:
    """Circle of circumference L with unitary holonomy, or interval of
    length L with absolute/relative boundary conditions and a trivial
    rank-r flat bundle."""

    kind: str                      # "circle" | "interval"
    length: float
    holonomy: np.ndarray | None = None   # circle only
    bc: str | None = None                # interval only: "abs" | "rel"
    rank: int = 1

    def __post_init__(self):
        check_finite("length", self.length)
        if self.length <= 0:
            raise GeometryError("length must be positive")
        if self.kind == "circle":
            if self.holonomy is None:
                self.holonomy = np.eye(self.rank, dtype=complex)
            self.holonomy = np.asarray(self.holonomy, dtype=complex)
            check_finite("holonomy", self.holonomy)
            n = self.holonomy.shape[0]
            if self.holonomy.shape != (n, n):
                raise GeometryError("holonomy must be square")
            self.rank = n
            dev = np.linalg.norm(self.holonomy.conj().T @ self.holonomy - np.eye(n))
            if dev > 1e-10:
                raise GeometryError(
                    "only unitary holonomies carry explicit model spectra")
        elif self.kind == "interval":
            # "mixed" = absolute at one endpoint, relative at the other
            if self.bc not in ("abs", "rel", "mixed"):
                raise GeometryError("interval needs bc in {'abs', 'rel', 'mixed'}")
            if self.rank < 1:
                raise GeometryError("rank must be at least one")
        else:
            raise GeometryError(f"unknown geometry kind {self.kind!r}")


@dataclass(frozen=True)
class QuadraticFamily:
    """Eigenvalues (c (n + a))^2 for n = 0, 1, 2, ..., with multiplicity."""

    c: float
    a: float
    mult: int
    parity: str = "none"     # "even" / "odd" under the doubling reflection


def _check_family(fam: QuadraticFamily) -> None:
    """Raise GeometryError unless 0 < c < inf and 0 < a <= 1 with Gamma(a)
    finite: the domain of the Hurwitz values behind family_log_det."""
    if not (0 < fam.c < math.inf and _A_MIN < fam.a <= 1):
        raise GeometryError("family parameters must satisfy c>0, 0<a<=1 with "
                            f"Gamma(a) finite; got c={fam.c!r}, a={fam.a!r}")


@dataclass
class SpectrumData:
    families: list          # per degree q: list of QuadraticFamily
    zero_modes: list        # per degree q: kernel dimension

    def validate(self) -> "SpectrumData":
        for fams in self.families:
            for f in fams:
                _check_family(f)
        # one-dimensional Hodge duality: the nonzero spectra in the two
        # degrees agree as multisets of families
        key = lambda fams: sorted((round(f.c, 12), round(f.a, 12), f.mult)
                                  for f in fams)
        if key(self.families[0]) != key(self.families[1]):
            raise GeometryError("degree-0 and degree-1 nonzero spectra must agree")
        return self


def spectrum(g: ModelGeometry) -> SpectrumData:
    """Explicit Laplacian spectra of the model geometry per form degree.

    On a circle the zero modes are the parallel sections: the k
    holonomy eigenvalues nearest 1, with k = dim ker(U - I), are trivial.
    """
    if g.kind == "circle":
        c = _TWO_PI / g.length
        lam = np.linalg.eigvals(g.holonomy)
        zeros = rank_split(g.holonomy - np.eye(g.rank))[1].shape[1]
        trivial = set(np.argsort(np.abs(lam - 1.0))[:zeros].tolist())
        fams = []
        for i, theta in enumerate(np.mod(np.angle(lam), _TWO_PI)):
            if i in trivial:
                fams.append(QuadraticFamily(c, 1.0, 2))
            else:
                fams.append(QuadraticFamily(c, theta / _TWO_PI, 1))
                fams.append(QuadraticFamily(c, 1.0 - theta / _TWO_PI, 1))
        return SpectrumData([list(fams), list(fams)], [zeros, zeros]).validate()
    c = np.pi / g.length
    if g.bc == "mixed":
        fam = [QuadraticFamily(c, 0.5, g.rank)]
        return SpectrumData([fam, list(fam)], [0, 0]).validate()
    fam = [QuadraticFamily(c, 1.0, g.rank)]
    if g.bc == "abs":
        return SpectrumData([fam, list(fam)], [g.rank, 0]).validate()
    return SpectrumData([fam, list(fam)], [0, g.rank]).validate()


def doubled_spectrum(g: ModelGeometry) -> SpectrumData:
    """Spectrum of the doubled interval (a circle of twice the length)
    tagged by parity under the sheet-swapping reflection.

    Even functions restrict to Neumann eigenfunctions and odd ones to
    Dirichlet eigenfunctions; for one-forms the parities exchange.
    """
    if g.kind != "interval" or g.bc == "mixed":
        raise GeometryError("doubling is defined for abs/rel intervals")
    c = np.pi / g.length
    r = g.rank
    deg0 = [QuadraticFamily(c, 1.0, r, "even"), QuadraticFamily(c, 1.0, r, "odd")]
    deg1 = [QuadraticFamily(c, 1.0, r, "odd"), QuadraticFamily(c, 1.0, r, "even")]
    return SpectrumData([deg0, deg1], [r, r]).validate()


# ---- zeta determinants ---------------------------------------------------


def family_log_det(fam: QuadraticFamily, method: str = "closed",
                   terms: int = 64) -> float:
    """log det' of the family (c(n+a))^2, i.e. -zeta'(0) of its zeta sum.

    The closed form uses Hurwitz-zeta special values zeta_H(0, a) =
    1/2 - a and zeta_H'(0, a) = ln Gamma(a) - (1/2) ln 2 pi.  The
    "euler_maclaurin" route differentiates an order-4 Euler-Maclaurin
    continuation at s = 0 by a complex step.
    """
    _check_family(fam)
    if method == "closed":
        val = 2.0 * np.log(fam.c) * (0.5 - fam.a) - 2.0 * math.log(math.gamma(fam.a)) \
            + np.log(_TWO_PI)
        return fam.mult * float(val)
    if method != "euler_maclaurin":
        raise ValueError(f"unknown zeta method {method!r}")

    def hurwitz(s, a, N):
        n = np.arange(N)
        head = np.sum((n + a) ** (-s))
        x = N + a
        tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s) \
            + s * x ** (-s - 1.0) / 12.0 \
            - s * (s + 1.0) * (s + 2.0) * x ** (-s - 3.0) / 720.0
        return head + tail

    def zeta(s):
        return fam.mult * np.exp(-2.0 * s * np.log(fam.c)) * hurwitz(2.0 * s, fam.a, terms)

    step = 1e-20
    deriv = float(np.imag(zeta(1j * step)) / step)
    return -deriv


def zeta_log_det(s: SpectrumData, q: int, method: str = "closed") -> float:
    """log det' of the degree-q Laplacian of the spectrum."""
    return sum(family_log_det(f, method) for f in s.families[q])


def _character_torsion(s: SpectrumData, character, method: str) -> float:
    """(1/2) sum_q (-1)^q q sum_f character(f.parity) log det' f over the
    families f of the degree-q spectrum."""
    total = 0.0
    for q in range(2):
        acc = sum(character(f.parity) * family_log_det(f, method)
                  for f in s.families[q])
        total += 0.5 * ((-1.0) ** q) * q * acc
    return total


def scalar_torsion(g: ModelGeometry, method: str = "closed") -> float:
    """Degree-zero analytic torsion (1/2) sum_q (-1)^q q log det' Delta_q."""
    return _character_torsion(spectrum(g), lambda parity: 1.0, method)


# ---- heat-trace route ----------------------------------------------------


# Terms per block of a heat sum: bounds its (nodes, terms) temporaries
# near t = 0, where a node keeps about 13.4 / (c sqrt(t)) terms.
_HEAT_BLOCK = 2048


def _family_heat_sum(fam: QuadraticFamily, ts) -> np.ndarray:
    """sum_n mult (1 - t lam / 2) e^{-t lam / 4} over the family, per t in ts."""
    ts = np.asarray(ts, dtype=float)
    # keep terms with t lam / 4 <= 45; beyond that they are below 1e-18
    n_max = np.maximum(np.ceil(np.sqrt(180.0 / ts) / fam.c - fam.a).astype(int) + 1, 1)
    top = int(n_max.max())
    total = np.zeros(ts.shape)
    for start in range(0, top, _HEAT_BLOCK):
        n = np.arange(start, min(start + _HEAT_BLOCK, top))
        tl = np.multiply.outer(ts, (fam.c * (n + fam.a)) ** 2)
        terms = (1.0 - 0.5 * tl) * np.exp(-0.25 * tl)
        total += np.sum(np.where(n < n_max[..., None], terms, 0.0), axis=-1)
    return fam.mult * total


def heat_supertrace(s: SpectrumData, t):
    """h(t) = (1/2) sum_q (-1)^q q [zero modes + weighted heat sums], for a
    scalar t or elementwise for an array of them."""
    total = 0.0
    for q in range(2):
        acc = float(s.zero_modes[q])
        for fam in s.families[q]:
            acc += _family_heat_sum(fam, t)
        total += 0.5 * ((-1.0) ** q) * q * acc
    return float(total) if np.ndim(t) == 0 else total


def torsion_via_heat_integral(g: ModelGeometry,
                              quad: QuadratureSpec = QuadratureSpec(tolerance=1e-9)
                              ) -> float:
    """Degree-zero torsion as a counterterm-regularized heat integral.

    Integrates -[h(t) - chi'/2 - (chi/4 - chi'/2)(1 - t/2)e^{-t/4}]/t
    (chi and chi' are rank-weighted cohomology counts) over
    (0, infinity); the integrand extends continuously to t = 0 and
    decays exponentially.  The t > 1 half is ``quad.dyadic_tail``,
    doubling t per window and settling no earlier than the decay time
    1/lam_min of the slowest mode; a tail still above a tenth of the
    tolerance after 60 windows raises ``QuadratureError``.
    """
    chi, chi_prime = euler_characteristics(g)
    s = spectrum(g)
    a_inf = 0.5 * chi_prime
    a_zero = 0.25 * chi - 0.5 * chi_prime   # chi already counts the rank

    def integrand(ts):
        counter = a_inf + a_zero * (1.0 - 0.5 * ts) * np.exp(-0.25 * ts)
        heat = heat_supertrace(s, ts)
        return -(heat - counter) / ts

    # the integrand tends to a nonzero constant as t -> 0; the Kronrod
    # nodes are interior, so t = 0 itself is never evaluated
    lower, _ = adaptive_quad(integrand, 0.0, 1.0, quad)
    # The slowest mode decays like exp(-lam_min t).  Before t = 1/lam_min a
    # window can be small only because the heat trace still follows its
    # small-time counterterm, so the stopping test waits until then (windows
    # start at powers of two t, where t >= 1/lam_min iff t * lam_min >= 1).
    lam_min = min((f.c * f.a) ** 2 for fams in s.families for f in fams)
    upper, _ = dyadic_tail(integrand, 2.0, quad, 60, settle=1.0 / lam_min)
    return float(lower + upper)


def equivariant_scalar_torsion(g: ModelGeometry, element: str = "identity",
                               method: str = "closed") -> float:
    """Equivariant torsion of the doubled interval under the reflection.

    Eigenvalue families of the double are weighted by the character of
    the group element on their parity class (+1 on even, -1 on odd for
    the reflection).
    """
    s = doubled_spectrum(g)
    if element == "identity":
        character = lambda parity: 1.0
    elif element == "reflection":
        character = lambda parity: 1.0 if parity == "even" else -1.0
    else:
        raise ValueError(f"unknown group element {element!r}")
    return _character_torsion(s, character, method)


# ---- cohomology ----------------------------------------------------------


@dataclass
class L2Cohomology:
    dim: int
    gram: np.ndarray
    basis: str
    # coordinates of the harmonic basis inside the fiber (circle only)
    fiber_basis: np.ndarray | None = None


def l2_cohomology(g: ModelGeometry):
    """Closed-form harmonic cohomology with its L2 Gram matrices.

    Circle: H^0 = ker(U - I) with constant sections of squared norm L;
    H^1 spanned by the unit-period classes of squared norm 1/L.
    Interval: absolute keeps constants (norm^2 = L) in degree 0,
    relative keeps the coordinate one-forms (norm^2 = L) in degree 1.
    """
    if g.kind == "circle":
        basis = rank_split(g.holonomy - np.eye(g.rank))[1]
        k = basis.shape[1]
        h0 = L2Cohomology(k, g.length * np.eye(k), "parallel constants", basis)
        h1 = L2Cohomology(k, (1.0 / g.length) * np.eye(k),
                          "unit-period classes", basis)
        return [h0, h1]
    r = g.rank
    if g.bc == "mixed":
        return [L2Cohomology(0, np.zeros((0, 0)), "none"),
                L2Cohomology(0, np.zeros((0, 0)), "none")]
    if g.bc == "abs":
        return [L2Cohomology(r, g.length * np.eye(r), "constants"),
                L2Cohomology(0, np.zeros((0, 0)), "none")]
    return [L2Cohomology(0, np.zeros((0, 0)), "none"),
            L2Cohomology(r, g.length * np.eye(r), "coordinate one-forms")]


def euler_characteristics(g: ModelGeometry):
    """(chi, chi') from the L2 cohomology ranks."""
    h = l2_cohomology(g)
    chi = h[0].dim - h[1].dim
    chi_prime = -h[1].dim
    return chi, chi_prime


# ---- serialization -------------------------------------------------------


def geometry_to_json(g: ModelGeometry) -> str:
    doc = {"kind": g.kind, "length": g.length, "rank": g.rank}
    if g.kind == "circle":
        doc["holonomy"] = _mat_to_json(g.holonomy)
    else:
        doc["bc"] = g.bc
    return json.dumps(doc, indent=2)


def geometry_from_json(text: str) -> ModelGeometry:
    doc = json.loads(text)
    if doc["kind"] == "circle":
        return ModelGeometry("circle", float(doc["length"]),
                             holonomy=_mat_from_json(doc["holonomy"]))
    return ModelGeometry("interval", float(doc["length"]), bc=doc["bc"],
                         rank=int(doc["rank"]))
