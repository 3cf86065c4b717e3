"""Critical-point (Thom-Smale style) cochain complexes.

A :class:`MorseData` records critical points with indices, region labels
and boundary flags, together with instantons (index-dropping connecting
trajectories) carrying orientation signs and parallel-transport matrices.
From it we assemble:

* cochain complexes for the closed manifold, the absolute side, the
  relative side, and the separating hypersurface (``thom_smale``);
* the doubled datum with its sheet-swapping involution (``double``),
  packaged as a :class:`Z2Complex`, and its +/- eigen-subcomplexes
  (``z2_split``);
* the comparison maps between one-sided complexes and the invariant /
  anti-invariant parts of the double (``psi_maps``);
* the equivariant degree-zero torsion (``equivariant_scalar_torsion``):
  ``hodge``'s eigenvalue route with each mode weighted by the involution;
* the three-column double complex relative -> full -> absolute
  (``three_column_double``).

Signs and transports are input data; the assembled differential must
square to zero, which is the consistency gate for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    MetricComplex,
    _mat_from_json,
    _mat_to_json,
    check_finite,
    rank_split,
)
from .hodge import scalar_torsion_eigen
from .spectral import DoubleComplexData

__all__ = [
    "MorseData",
    "MorseDataError",
    "CriticalPoint",
    "Instanton",
    "Z2Complex",
    "thom_smale",
    "double",
    "doubled_complex",
    "z2_split",
    "PsiMaps",
    "psi_maps",
    "comparison_torsions",
    "equivariant_scalar_torsion",
    "three_column_double",
    "morse_to_json",
    "morse_from_json",
    "circle_height_data",
    "arc_data",
    "split_circle_data",
]

_REGIONS = ("Z1", "Z2", "Y")


class MorseDataError(ValueError):
    """Inconsistent critical-point data."""


@dataclass
class CriticalPoint:
    id: str
    index: int
    on_boundary: bool = False
    region: str = "Z1"


@dataclass
class Instanton:
    src: str         # critical point of index i
    dst: str         # critical point of index i - 1
    sign: int        # orientation count, +1 or -1
    transport: np.ndarray

    def __post_init__(self):
        self.transport = np.asarray(self.transport, dtype=complex)


@dataclass
class MorseData:
    rank: int
    points: list
    instantons: list
    mirror: dict = field(default_factory=dict)   # id -> mirror id (doubles)

    def point(self, pid: str) -> CriticalPoint:
        for p in self.points:
            if p.id == pid:
                return p
        raise MorseDataError(f"unknown critical point {pid!r}")

    def validate(self) -> "MorseData":
        seen = set()
        for p in self.points:
            if p.id in seen:
                raise MorseDataError(f"duplicate critical point id {p.id!r}")
            seen.add(p.id)
            if p.region not in _REGIONS:
                raise MorseDataError(f"unknown region {p.region!r} for {p.id!r}")
            if p.on_boundary != (p.region == "Y"):
                raise MorseDataError(
                    f"{p.id!r}: boundary flag must match the Y region label")
        for g in self.instantons:
            s, d = self.point(g.src), self.point(g.dst)
            if d.index != s.index - 1:
                raise MorseDataError(
                    f"instanton {g.src!r}->{g.dst!r} must drop the index by one")
            if g.sign not in (1, -1):
                raise MorseDataError(f"instanton {g.src!r}->{g.dst!r}: sign must be +-1")
            if g.transport.shape != (self.rank, self.rank):
                raise MorseDataError(
                    f"instanton {g.src!r}->{g.dst!r}: transport must be rank x rank")
            check_finite(f"instanton {g.src!r}->{g.dst!r}: transport", g.transport)
            if {s.region, d.region} == {"Z1", "Z2"}:
                raise MorseDataError(
                    f"instanton {g.src!r}->{g.dst!r} crosses the separating set")
        return self

    def max_index(self) -> int:
        return max((p.index for p in self.points), default=0)


def _generators(M: MorseData, variant: str):
    """Ordered generator ids per degree for the requested complex."""
    if variant == "full":
        keep = lambda p: True
    elif variant == "absolute":
        keep = lambda p: p.region in ("Z1", "Y")
    elif variant == "relative":
        keep = lambda p: p.region == "Z2"
    elif variant == "boundary":
        keep = lambda p: p.region == "Y"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    degrees = M.max_index() + 1
    gens = [[] for _ in range(degrees)]
    for p in M.points:
        if keep(p):
            gens[p.index].append(p.id)
    return gens


def _place(r: int, rows, cols, blocks) -> np.ndarray:
    """The matrix from the fibers over the generator ids ``cols`` to those
    over ``rows``, generator j's fiber at rows j r..(j + 1) r of its list.
    Each (row id, column id, r x r block) of ``blocks`` is added at its
    generators' place, in order, so blocks at one place sum."""
    at_row = {pid: j * r for j, pid in enumerate(rows)}
    at_col = {pid: j * r for j, pid in enumerate(cols)}
    out = np.zeros((r * len(rows), r * len(cols)), dtype=complex)
    for i, j, blk in blocks:
        out[at_row[i]:at_row[i] + r, at_col[j]:at_col[j] + r] += blk
    return out


def thom_smale(M: MorseData, variant: str = "full") -> MetricComplex:
    """Cochain complex generated by the selected critical points.

    The degree-q piece is one fiber copy per index-q point; the cochain
    differential dualizes the instanton-counting boundary operator, so
    the block from a target point to a source point is the signed sum of
    transposed transports.
    """
    return _thom_smale(M.validate(), variant)


def _thom_smale(M: MorseData, variant: str = "full") -> MetricComplex:
    """``thom_smale`` of an already validated M."""
    gens = _generators(M, variant)
    r = M.rank
    v = [_place(r, gens[q + 1], gens[q],
                [(g.src, g.dst, g.sign * g.transport.T) for g in M.instantons
                 if g.src in gens[q + 1] and g.dst in gens[q]])
         for q in range(len(gens) - 1)]
    # consistency gate: the assembled differential must square to zero
    for q in range(len(v) - 1):
        square = v[q + 1] @ v[q]
        if np.linalg.norm(square) > 1e-10 * max(np.linalg.norm(v[q]) ** 2, 1.0):
            bad = np.argwhere(np.abs(square) > 1e-10)
            i, j = bad[0]
            src = gens[q][j // r]
            dst = gens[q + 2][i // r]
            raise MorseDataError(
                f"differential does not square to zero between {src!r} and {dst!r}")
    dims = [r * len(layer) for layer in gens]
    return MetricComplex(dims, v, [np.eye(d, dtype=complex) for d in dims])


# ---- doubling ------------------------------------------------------------


def double(M: MorseData):
    """Mirror the interior points across the boundary set.

    Returns the doubled datum (all interior points duplicated, boundary
    points shared, instantons mirrored with the same signs and
    transports) whose ``mirror`` table realizes the sheet-swapping
    involution.
    """
    M.validate()
    sides = {p.region for p in M.points if p.region != "Y"}
    if len(sides) > 1:
        raise MorseDataError("doubling expects a one-sided datum")
    if not any(p.region == "Y" for p in M.points):
        raise MorseDataError("doubling requires marked boundary points")
    mirror = {}
    points = []
    for p in M.points:
        points.append(CriticalPoint(p.id, p.index, p.on_boundary, p.region))
        if p.region == "Y":
            mirror[p.id] = p.id
        else:
            twin = p.id + "~"
            mirror[p.id] = twin
            mirror[twin] = p.id
            points.append(CriticalPoint(twin, p.index, False, p.region))
    instantons = []
    for g in M.instantons:
        instantons.append(Instanton(g.src, g.dst, g.sign, g.transport))
        ms, md = mirror[g.src], mirror[g.dst]
        if (ms, md) != (g.src, g.dst):
            instantons.append(Instanton(ms, md, g.sign, g.transport))
    return MorseData(M.rank, points, instantons, mirror).validate()


@dataclass
class Z2Complex:
    """A metric complex with a degree-wise involution."""

    complex: MetricComplex
    involution: list

    def validate(self) -> "Z2Complex":
        E = self.complex
        for name, blocks in (("involution", self.involution),
                             ("differential", E.v), ("metric", E.h)):
            for q, blk in enumerate(blocks):
                check_finite(f"{name} {q}", blk)
        for q, phi in enumerate(self.involution):
            if np.linalg.norm(phi @ phi - np.eye(phi.shape[0])) > 1e-10:
                raise MorseDataError(f"involution does not square to one in degree {q}")
            if np.linalg.norm(phi.conj().T @ E.h[q] @ phi - E.h[q]) > 1e-10:
                raise MorseDataError(f"involution is not isometric in degree {q}")
        for q, vq in enumerate(E.v):
            if np.linalg.norm(vq @ self.involution[q]
                              - self.involution[q + 1] @ vq) > 1e-10:
                raise MorseDataError(
                    f"involution does not commute with the differential at degree {q}")
        return self


def doubled_complex(M: MorseData, variant: str = "full") -> Z2Complex:
    """The cochain complex of a doubled datum with its involution."""
    if not M.mirror:
        raise MorseDataError("datum carries no mirror table; call double() first")
    E = thom_smale(M, variant)
    r = M.rank
    invol = [_place(r, layer, layer, [(M.mirror[pid], pid, np.eye(r)) for pid in layer])
             for layer in _generators(M, variant)]
    return Z2Complex(E, invol).validate()


def z2_split(C: Z2Complex):
    """The +-1 eigen-subcomplexes with induced differentials and metrics."""
    return _z2_split(C.validate())


def _z2_split(C: Z2Complex):
    """``z2_split`` of an already validated C."""
    E = C.complex
    out = []
    for sign in (1, -1):
        # the +-1 eigenspace of phi is the range of the projector (1 +- phi)/2
        bases = [rank_split(0.5 * (np.eye(len(phi)) + sign * phi))[0]
                 for phi in C.involution]
        dims = [b.shape[1] for b in bases]
        v = [bases[q + 1].conj().T @ E.v[q] @ bases[q] for q in range(len(E.v))]
        h = [b.conj().T @ E.h[q] @ b for q, b in enumerate(bases)]
        out.append((MetricComplex(dims, v, h), bases))
    (plus, plus_bases), (minus, minus_bases) = out
    return plus, minus, plus_bases, minus_bases


# ---- comparison maps -----------------------------------------------------


@dataclass
class PsiMaps:
    """Comparison maps between one-sided complexes and the split double.

    ``psi1[q]``: invariant part of the double -> absolute complex
    (scales boundary generators by sqrt(2)); ``psi2[q]``: relative
    complex -> anti-invariant part of the double (an isometry).
    """

    doubled: Z2Complex
    plus: MetricComplex
    minus: MetricComplex
    absolute: MetricComplex
    relative: MetricComplex
    psi1: list
    psi2: list


def psi_maps(M: MorseData) -> PsiMaps:
    """Build the double of a one-sided datum and its comparison maps."""
    dbl = double(M)
    C = doubled_complex(dbl)
    plus, minus, plus_bases, minus_bases = _z2_split(C)
    # for a one-sided datum the full generator set is the absolute one
    one_abs = thom_smale(M, "full")
    one_rel = thom_smale(
        MorseData(M.rank,
                  [CriticalPoint(p.id, p.index, p.on_boundary,
                                 "Z2" if p.region != "Y" else "Y")
                   for p in M.points],
                  M.instantons), "relative")
    gens_dbl = _generators(dbl, "full")
    r = M.rank
    half = np.sqrt(2.0) / 2.0
    psi1, psi2 = [], []
    for q, layer in enumerate(gens_dbl):
        one_ids = [p.id for p in M.points if p.index == q]
        # restriction to each sheet, averaged: sqrt(2)/2 (j1* + j2*); a
        # boundary point is its own mirror and gets both halves
        m1 = _place(r, one_ids, layer,
                    [(pid, sid, half * np.eye(r))
                     for pid in one_ids for sid in (pid, dbl.mirror[pid])])
        # signed extension from the relative side: sqrt(2)/2 (j1 - j2)
        rel_ids = [pid for pid in one_ids
                   if M.point(pid).region != "Y"]
        m2 = _place(r, layer, rel_ids,
                    [blk for pid in rel_ids
                     for blk in ((pid, pid, half * np.eye(r)),
                                 (dbl.mirror[pid], pid, -half * np.eye(r)))])
        psi1.append(m1 @ plus_bases[q])
        psi2.append(minus_bases[q].conj().T @ m2)
    return PsiMaps(C, plus, minus, one_abs, one_rel, psi1, psi2)


def comparison_torsions(P: PsiMaps):
    """Two-term torsions of the comparison maps, with identity metrics.

    Returns the alternating sum over ``psi1``, the boundary defect, and
    the largest |torsion| over ``psi2``, which vanishes for isometries.
    """
    def torsion(m):
        return scalar_torsion_eigen(MetricComplex([m.shape[1], m.shape[0]], [m],
                                                  [np.eye(m.shape[1]), np.eye(m.shape[0])]))

    defect = sum(((-1.0) ** q) * torsion(m) for q, m in enumerate(P.psi1) if m.shape[0])
    anti = max((abs(torsion(m)) for m in P.psi2 if m.shape[1]), default=0.0)
    return defect, anti


# ---- equivariant torsion -------------------------------------------------


def equivariant_scalar_torsion(C: Z2Complex, g: str = "reflection") -> float:
    """Degree-zero equivariant torsion of an involution-invariant complex.

    (1/2) sum_q (-1)^q q tr(g log' Delta_q), with g the involution
    ("reflection") or the identity: ``hodge.scalar_torsion_eigen`` with
    the involution as its weight, read from singular values, so its zero
    modes pass the same rank check against ``betti()``.
    """
    C.validate()
    if g not in ("identity", "reflection"):
        raise ValueError(f"unknown group element {g!r}")
    return scalar_torsion_eigen(C.complex, C.involution if g == "reflection" else None)


# ---- three-column assembly -----------------------------------------------


def three_column_double(M: MorseData) -> DoubleComplexData:
    """Relative -> full -> absolute cochain columns as a double complex.

    Horizontal maps are the inclusion of relatively-supported cochains
    and the restriction to the absolute side; each row is exact and
    split because the generator sets partition.  The middle vertical
    differential carries a minus sign so the differentials anticommute.
    """
    M.validate()
    rel = _thom_smale(M, "relative")
    full = _thom_smale(M, "full")
    abso = _thom_smale(M, "absolute")
    gens = [_generators(M, variant) for variant in ("relative", "full", "absolute")]
    r = M.rank
    dv, hv = {}, {}
    for q, (rel_ids, full_ids, abs_ids) in enumerate(zip(*gens)):
        hv[(0, q)] = _place(r, full_ids, rel_ids, [(pid, pid, np.eye(r)) for pid in rel_ids])
        hv[(1, q)] = _place(r, abs_ids, full_ids, [(pid, pid, np.eye(r)) for pid in abs_ids])
    for q in range(len(full.v)):
        dv[(0, q)] = rel.v[q]
        dv[(1, q)] = -full.v[q]
        dv[(2, q)] = abso.v[q]
    return DoubleComplexData([rel.dims, full.dims, abso.dims], dv, hv).validate()


# ---- serialization -------------------------------------------------------


def morse_to_json(M: MorseData) -> str:
    doc = {
        "rank": M.rank,
        "points": [{"id": p.id, "index": p.index, "on_boundary": p.on_boundary,
                    "region": p.region} for p in M.points],
        "instantons": [{"from": g.src, "to": g.dst, "sign": g.sign,
                        "transport": _mat_to_json(g.transport)}
                       for g in M.instantons],
    }
    if M.mirror:
        doc["mirror"] = M.mirror
    return json.dumps(doc, indent=2)


def morse_from_json(text: str) -> MorseData:
    doc = json.loads(text)
    points = [CriticalPoint(p["id"], int(p["index"]), bool(p["on_boundary"]),
                            p["region"]) for p in doc["points"]]
    instantons = [Instanton(g["from"], g["to"], int(g["sign"]),
                            _mat_from_json(g["transport"]))
                  for g in doc["instantons"]]
    return MorseData(int(doc["rank"]), points, instantons,
                     dict(doc.get("mirror", {}))).validate()


# ---- example builders ----------------------------------------------------


def circle_height_data(holonomy: np.ndarray, rank: int | None = None) -> MorseData:
    """Height-function datum on a circle: one minimum, one maximum, two
    connecting instantons of opposite sign, one carrying the holonomy."""
    holonomy = np.asarray(holonomy, dtype=complex)
    r = holonomy.shape[0] if rank is None else rank
    eye = np.eye(r, dtype=complex)
    points = [CriticalPoint("min", 0), CriticalPoint("max", 1)]
    instantons = [Instanton("max", "min", 1, eye),
                  Instanton("max", "min", -1, holonomy)]
    return MorseData(r, points, instantons).validate()


def arc_data(transports=(None, None), rank: int = 1, region: str = "Z1") -> MorseData:
    """Arc with two boundary minima and one interior maximum."""
    eye = np.eye(rank, dtype=complex)
    t1 = eye if transports[0] is None else np.asarray(transports[0], dtype=complex)
    t2 = eye if transports[1] is None else np.asarray(transports[1], dtype=complex)
    m = "m1" if region == "Z1" else "m2"
    points = [CriticalPoint("y1", 0, True, "Y"),
              CriticalPoint("y2", 0, True, "Y"),
              CriticalPoint(m, 1, False, region)]
    instantons = [Instanton(m, "y1", 1, t1), Instanton(m, "y2", -1, t2)]
    return MorseData(rank, points, instantons).validate()


def split_circle_data(holonomy: np.ndarray, rank: int | None = None) -> MorseData:
    """Circle separated by two boundary points into two arcs, each with
    one interior maximum; one instanton carries the holonomy."""
    holonomy = np.asarray(holonomy, dtype=complex)
    r = holonomy.shape[0] if rank is None else rank
    eye = np.eye(r, dtype=complex)
    points = [CriticalPoint("y1", 0, True, "Y"),
              CriticalPoint("y2", 0, True, "Y"),
              CriticalPoint("m1", 1, False, "Z1"),
              CriticalPoint("m2", 1, False, "Z2")]
    instantons = [Instanton("m1", "y1", 1, eye),
                  Instanton("m1", "y2", -1, eye),
                  Instanton("m2", "y1", -1, holonomy),
                  Instanton("m2", "y2", 1, eye)]
    return MorseData(r, points, instantons).validate()
