"""Double complexes, spectral pages, and torsion decompositions.

A ``DoubleComplexData`` holds bigraded spaces c^{p,q} with anticommuting
differentials (vertical and horizontal).  From it we build:

* the total complex with differential equal to the sum of the two,
* spectral pages for either filtration, with metrics induced by
  orthogonal representatives in the (metric-orthonormalized) ambient
  space,
* per-page torsions and the additive decomposition of the total torsion
  over pages (for acyclic total complexes),
* for three-column complexes with exact rows: the first and second
  pages as honest metric complexes with pluggable cohomology Gram
  matrices, the connecting map, and the associated long exact sequence
  as a single graded complex (degrees 3p, 3p+1, 3p+2 for the three
  column cohomologies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .complexes import MetricComplex, check_finite, rank_split, torsion_form
from .hodge import (
    cohomology_class_basis,
    induced_gram,
    scalar_torsion_eigen,
)
from .quad import QuadratureSpec

__all__ = [
    "DoubleComplexData",
    "SpectralPage",
    "total_complex",
    "pages",
    "page_to_complex",
    "page_torsion",
    "page_decomposition_residual",
    "compose",
    "ThreeColumnData",
    "three_column_les",
]

# relative residual allowed when a page vector is placed in a span; ranks
# are decided by the package-wide policy in ``complexes``
_TOL = 1e-8


class DoubleComplexError(ValueError):
    """Invalid bigraded data (differentials fail to anticommute, etc.)."""


def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=complex)


@dataclass
class DoubleComplexData:
    """Bigraded spaces with vertical and horizontal differentials.

    ``dims[p][q]`` is the dimension of c^{p,q}; ``dv[p][q]`` maps
    c^{p,q} -> c^{p,q+1} and ``hv[p][q]`` maps c^{p,q} -> c^{p+1,q}.
    ``h[p][q]`` are optional Hermitian metrics (default orthonormal).
    """

    dims: list
    dv: dict = field(default_factory=dict)
    hv: dict = field(default_factory=dict)
    h: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dims = [[int(d) for d in col] for col in self.dims]
        self.dv = {k: np.asarray(m, dtype=complex) for k, m in self.dv.items()}
        self.hv = {k: np.asarray(m, dtype=complex) for k, m in self.hv.items()}
        self.h = {k: np.asarray(m, dtype=complex) for k, m in self.h.items()}

    @property
    def P(self) -> int:
        return len(self.dims)

    @property
    def Q(self) -> int:
        return len(self.dims[0]) if self.dims else 0

    def dim(self, p, q) -> int:
        if 0 <= p < self.P and 0 <= q < self.Q:
            return self.dims[p][q]
        return 0

    def dv_at(self, p, q) -> np.ndarray:
        m = self.dv.get((p, q))
        if m is None:
            return _zeros(self.dim(p, q + 1), self.dim(p, q))
        return m

    def hv_at(self, p, q) -> np.ndarray:
        m = self.hv.get((p, q))
        if m is None:
            return _zeros(self.dim(p + 1, q), self.dim(p, q))
        return m

    def h_at(self, p, q) -> np.ndarray:
        m = self.h.get((p, q))
        if m is None:
            return np.eye(self.dim(p, q), dtype=complex)
        return m

    def validate(self):
        """Finite entries, dv^2 = 0, hv^2 = 0 and dv hv + hv dv = 0.

        Only products of two stored blocks are formed: an absent block
        is zero, and so is every product it enters.
        """
        for name, blocks in (("vertical differential", self.dv),
                             ("horizontal differential", self.hv), ("metric", self.h)):
            for key, m in blocks.items():
                check_finite(f"{name} at {key}", m)
        scale = max([np.linalg.norm(m) for m in (*self.dv.values(), *self.hv.values())],
                    default=1.0)
        tol = 1e-10 * max(scale * scale, 1.0)
        dv, hv = self.dv.get, self.hv.get

        def norm_of(*pairs):
            terms = [a @ b for a, b in pairs if a is not None and b is not None]
            return np.linalg.norm(sum(terms)) if terms else 0.0

        for p in range(self.P):
            for q in range(self.Q):
                if norm_of((dv((p, q + 1)), dv((p, q)))) > tol:
                    raise DoubleComplexError(f"vertical differential squares to nonzero at {(p, q)}")
                if norm_of((hv((p + 1, q)), hv((p, q)))) > tol:
                    raise DoubleComplexError(f"horizontal differential squares to nonzero at {(p, q)}")
                if norm_of((dv((p + 1, q)), hv((p, q))), (hv((p, q + 1)), dv((p, q)))) > tol:
                    raise DoubleComplexError(f"differentials do not anticommute at {(p, q)}")
        return self

    def transpose(self) -> "DoubleComplexData":
        """Swap the two gradings (and the two differentials)."""
        dims = [[self.dims[p][q] for p in range(self.P)] for q in range(self.Q)]
        dv = {(q, p): m for (p, q), m in self.hv.items()}
        hv = {(q, p): m for (p, q), m in self.dv.items()}
        h = {(q, p): m for (p, q), m in self.h.items()}
        return DoubleComplexData(dims, dv, hv, h)

    def column_complex(self, p, grading_offset=0) -> MetricComplex:
        dims = [self.dim(p, q) for q in range(self.Q)]
        v = [self.dv_at(p, q) for q in range(self.Q - 1)]
        h = [self.h_at(p, q) for q in range(self.Q)]
        return MetricComplex(dims, v, h, grading_offset=grading_offset)


def _graded_sum(dims: dict, maps, metrics=None, degree=sum) -> MetricComplex:
    """Graded direct sum of spaces keyed by position.

    ``dims[key]`` is the dimension of the space at ``key``, which sits in
    degree ``degree(key)``; within a degree the spaces lie in the
    insertion order of ``dims``.  Each ``(src, dst, matrix)`` in ``maps``
    fills the differential block from src to dst, and dst must sit one
    degree above src.  The metric is block diagonal:
    ``metrics[key]``, or the identity where none is given.
    """
    sizes = [0] * (max(map(degree, dims), default=0) + 1)
    place = {}
    for key, d in dims.items():
        n = degree(key)
        place[key] = (n, slice(sizes[n], sizes[n] + d))
        sizes[n] += d
    v = [_zeros(sizes[n + 1], sizes[n]) for n in range(len(sizes) - 1)]
    for src, dst, m in maps:
        n, cols = place[src]
        v[n][place[dst][1], cols] = m
    h = [np.eye(d, dtype=complex) for d in sizes]
    for key, m in (metrics or {}).items():
        if key in place:
            n, sl = place[key]
            h[n][sl, sl] = m
    return MetricComplex(sizes, v, h)


def total_complex(D: DoubleComplexData) -> MetricComplex:
    """Direct-sum complex over the total degree, differential dv + hv."""
    D.validate()
    dims = {(p, n - p): D.dim(p, n - p)
            for n in range(D.P + D.Q - 1) for p in range(D.P) if 0 <= n - p < D.Q}
    maps = [((p, q), (p, q + 1), D.dv_at(p, q)) for p, q in dims if q + 1 < D.Q]
    maps += [((p, q), (p + 1, q), D.hv_at(p, q)) for p, q in dims if p + 1 < D.P]
    return _graded_sum(dims, maps, D.h)


# ---- spectral pages -----------------------------------------------------


@dataclass
class SpectralPage:
    """One page of the spectral sequence of a filtered double complex.

    ``spaces[(p, q)]`` holds orthonormal ambient representatives of the
    subquotient (columns in the metric-orthonormalized total space);
    the induced metric in these coordinates is the identity.
    ``d[(p, q)]`` is the page differential into (p + r, q - r + 1).
    """

    r: int
    filtration: str
    spaces: dict
    d: dict

    def dim(self, p, q) -> int:
        m = self.spaces.get((p, q))
        return 0 if m is None else m.shape[1]

    def total_dim(self) -> int:
        return sum(v.shape[1] for v in self.spaces.values())


class _Ambient:
    """Orthonormalized total space of a double complex, with block slices."""

    def __init__(self, D: DoubleComplexData):
        self.D = D
        self.offsets = {}
        total = 0
        for p in range(D.P):
            for q in range(D.Q):
                self.offsets[(p, q)] = total
                total += D.dim(p, q)
        self.N = total
        # Cholesky frames: y = L^H x are orthonormal coordinates per block;
        # a map m from src to dst becomes L_dst^H m (L_src^H)^{-1}
        frames, inverse = {}, {}
        for p in range(D.P):
            for q in range(D.Q):
                if D.dim(p, q):
                    frames[(p, q)] = np.linalg.cholesky(D.h_at(p, q)).conj().T
                    inverse[(p, q)] = np.linalg.inv(frames[(p, q)])
        self.full = _zeros(self.N, self.N)

        def place(src, dst, m):
            # an absent map is zero and leaves its block of ``full`` zero
            if m is None or m.size == 0:
                return
            mt = frames[dst] @ m @ inverse[src]
            i, j = self.offsets[dst], self.offsets[src]
            self.full[i:i + mt.shape[0], j:j + mt.shape[1]] += mt

        for p in range(D.P):
            for q in range(D.Q):
                if q + 1 < D.Q:
                    place((p, q), (p, q + 1), D.dv.get((p, q)))
                if p + 1 < D.P:
                    place((p, q), (p + 1, q), D.hv.get((p, q)))

    def block_columns(self, blocks):
        """Identity columns spanning the listed (p, q) blocks."""
        cols = []
        for p, q in blocks:
            off = self.offsets[(p, q)]
            cols.extend(range(off, off + self.D.dim(p, q)))
        out = _zeros(self.N, len(cols))
        for j, c in enumerate(cols):
            out[c, j] = 1.0
        return out

    def filtration_blocks(self, p_min, n):
        return [(p, n - p) for p in range(max(p_min, 0), self.D.P)
                if 0 <= n - p < self.D.Q]

    def low_projector_rows(self, p_cut, n):
        """Row selector for blocks at total degree n with p < p_cut."""
        blocks = [(p, n - p) for p in range(0, min(p_cut, self.D.P))
                  if 0 <= n - p < self.D.Q]
        return self.block_columns(blocks).conj().T


def _null_columns(constraint: np.ndarray, basis: np.ndarray):
    """Orthonormal basis of {x in span(basis) : constraint @ x = 0}."""
    if basis.shape[1] == 0 or constraint.shape[0] == 0:
        return basis
    return basis @ rank_split(constraint @ basis)[1]


def pages(D: DoubleComplexData, filtration: str = "columns", r_max: int | None = None):
    """Spectral pages E_0 .. E_{r_max} for the chosen filtration.

    For the "rows" filtration the double complex is transposed first, so
    page labels (p, q) refer to the transposed bigrading.
    """
    if filtration == "rows":
        return pages(D.transpose(), "columns", r_max)
    if filtration != "columns":
        raise ValueError(f"unknown filtration {filtration!r}")
    D.validate()
    if r_max is None:
        r_max = max(D.P, 2)
    amb = _Ambient(D)

    # Both spaces are pure functions of (r, p, q) for this D, and b_space
    # is asked for again by every source that targets it and by the next
    # page: each is built once per call.  Callers never modify the arrays.
    @cache
    def z_space(r, p, q):
        """{x in F^p C^n : D x lands in F^{p+r} C^{n+1}} (any r >= -1)."""
        n = p + q
        if not (0 <= n <= D.P + D.Q - 2):
            return _zeros(amb.N, 0)
        basis = amb.block_columns(amb.filtration_blocks(max(p, 0), n))
        # the cut p + r uses the unclamped filtration index
        rows = amb.low_projector_rows(p + r, n + 1)
        return _null_columns(rows @ amb.full, basis)

    @cache
    def b_space(r, p, q):
        """Boundary subspace of Z_r^{p,q}, orthonormalized."""
        boundary = z_space(r - 1, p + 1, q - 1)
        lift = z_space(r - 1, p - r + 1, q + r - 2)
        return rank_split(np.concatenate([boundary, amb.full @ lift], axis=1))[0]

    # Metrics are induced page by page through finite-dimensional Hodge
    # theory: representatives stay ambient-orthonormal, and each passage
    # to the next page restricts to the harmonic subspace in page
    # coordinates.  (Minimal-norm ambient representatives would give a
    # different, filtration-inflated metric from page two on.)
    spaces = {(p, q): amb.block_columns([(p, q)])
              for p in range(D.P) for q in range(D.Q)}
    zreps = dict(spaces)
    scale = max(np.linalg.norm(amb.full), 1.0)
    out = []
    for r in range(r_max + 1):
        diffs = {}
        for (p, q), src in spaces.items():
            tgt_key = (p + r, q - r + 1)
            tgt = zreps.get(tgt_key)
            if src.shape[1] == 0 or tgt is None or tgt.shape[1] == 0:
                continue
            w = amb.full @ zreps[(p, q)]
            b_tgt = b_space(r, *tgt_key)
            stacked = np.concatenate([tgt, b_tgt], axis=1)
            coords, *_ = np.linalg.lstsq(stacked, w, rcond=None)
            err = np.linalg.norm(stacked @ coords - w)
            if err > _TOL * scale:
                raise DoubleComplexError(
                    f"page {r} differential image escapes its target at "
                    f"{(p, q)} (residual {err:.2e})")
            diffs[(p, q)] = coords[:tgt.shape[1]]
        out.append(SpectralPage(r, "columns", dict(spaces), diffs))
        if r == r_max:  # page r_max + 1 is not asked for
            break
        nxt, nxt_z = {}, {}
        for (p, q), src in spaces.items():
            k = src.shape[1]
            if k == 0:
                nxt[(p, q)] = src
                nxt_z[(p, q)] = src
                continue
            constraints = [_zeros(0, k)]
            mat_out = diffs.get((p, q))
            if mat_out is not None:
                constraints.append(mat_out)
            mat_in = diffs.get((p - r, q + r - 1))
            if mat_in is not None:
                constraints.append(mat_in.conj().T)
            harm = _null_columns(np.concatenate(constraints, axis=0), np.eye(k, dtype=complex))
            nxt[(p, q)] = src @ harm
            # representative inside Z_{r+1} of the same class, corrected
            # within the class modulo the page-r boundary space
            z = zreps[(p, q)] @ harm
            rows = amb.low_projector_rows(p + r + 1, p + q + 1) @ amb.full
            b_src = b_space(r, p, q)
            if rows.shape[0] and b_src.shape[1] and z.shape[1]:
                corr, *_ = np.linalg.lstsq(rows @ b_src, -(rows @ z), rcond=None)
                z = z + b_src @ corr
            if rows.shape[0] and z.shape[1]:
                resid = np.linalg.norm(rows @ z)
                if resid > _TOL * scale:
                    raise DoubleComplexError(
                        f"no filtration-compatible representative at page {r + 1}, "
                        f"{(p, q)} (residual {resid:.2e})")
            nxt_z[(p, q)] = z
        spaces, zreps = nxt, nxt_z
    return out


def page_to_complex(page: SpectralPage) -> MetricComplex:
    """Assemble a page into one graded complex over the total degree."""
    dims = {key: page.dim(*key) for key in sorted(page.spaces)}
    maps = [((p, q), (p + page.r, q - page.r + 1), m) for (p, q), m in page.d.items()]
    return _graded_sum(dims, maps)


def _degree0_torsion(E: MetricComplex, method: str, quad: QuadratureSpec) -> float:
    """Degree-zero torsion of E by the eigenvalue or the quadrature route."""
    if method == "eigen":
        return scalar_torsion_eigen(E)
    if method == "quadrature":
        return torsion_form(E, quad).degree0
    raise ValueError(f"unknown method {method!r}: expected 'eigen' or 'quadrature'")


def page_torsion(page: SpectralPage, quad: QuadratureSpec = QuadratureSpec(),
                 method: str = "quadrature") -> float:
    """Degree-zero torsion of one page, via the integral or the eigenvalue route."""
    return _degree0_torsion(page_to_complex(page), method, quad)


def page_decomposition_residual(D: DoubleComplexData, method: str = "eigen",
                    quad: QuadratureSpec = QuadratureSpec(),
                    filtration: str = "columns") -> float:
    """|T(total) - sum_r T(E_r)| at degree zero, for acyclic total complexes.

    The additive decomposition of the torsion over spectral pages holds
    when the total complex is acyclic (the limit page vanishes, so no
    filtration-adapted metric correction enters).
    """
    total = total_complex(D)
    if any(total.betti()):
        raise DoubleComplexError("total complex is not acyclic; decomposition "
                                 "requires a vanishing limit page")
    t_total = _degree0_torsion(total, method, quad)
    t_pages = sum(page_torsion(page, quad, method) for page in pages(D, filtration))
    return abs(t_total - t_pages)


# ---- composition of exact sequences -------------------------------------


def compose(E: MetricComplex, Eprime: MetricComplex) -> MetricComplex:
    """Splice two exact sequences sharing their junction space.

    E ends at the space where Eprime starts; the spliced complex drops
    the shared space and uses the composite map across the junction.
    """
    if E.dims[-1] != Eprime.dims[0]:
        raise ValueError("junction dimensions differ")
    l = len(E.dims) - 1
    dims = E.dims[:-1] + Eprime.dims[1:]
    bridge = Eprime.v[0] @ E.v[l - 1]
    v = E.v[:-1] + [bridge] + Eprime.v[1:]
    h = E.h[:-1] + Eprime.h[1:]
    return MetricComplex(dims, v, h, grading_offset=E.grading_offset)


# ---- three-column complexes and their long exact sequence ---------------


def _solve_in_span(basis: np.ndarray, rhs: np.ndarray):
    rhs = rhs.reshape(basis.shape[0], -1)
    sol, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    err = np.linalg.norm(basis @ sol - rhs)
    if err > 1e-8 * max(np.linalg.norm(rhs), 1.0):
        raise DoubleComplexError(f"vector not in expected span (residual {err:.2e})")
    return sol


def _class_coords(reps: np.ndarray, image_of: np.ndarray, vec: np.ndarray):
    """Coordinates of a cocycle in the class basis, modulo the given image."""
    stacked = np.concatenate([reps, image_of], axis=1) if image_of.size else reps
    sol = _solve_in_span(stacked, vec)
    return sol[:reps.shape[1]]


@dataclass
class ThreeColumnData:
    """First/second pages and long exact sequence of a three-column
    double complex with exact rows, with explicit cohomology Grams."""

    row_complexes: list        # per q: [H^q(col0) -> H^q(col1) -> H^q(col2)], offset q
    e2_complex: MetricComplex  # assembled second page with its connecting map
    les: MetricComplex         # the long exact sequence, graded 3p/3p+1/3p+2
    class_reps: list           # per column p: list over q of cochain class bases

    def torsion_e1(self, method: str = "eigen",
                   quad: QuadratureSpec = QuadratureSpec()) -> float:
        return sum((_degree0_torsion(row, method, quad) for row in self.row_complexes), 0.0)

    def torsion_e2(self, method: str = "eigen",
                   quad: QuadratureSpec = QuadratureSpec()) -> float:
        return _degree0_torsion(self.e2_complex, method, quad)

    def torsion_les(self, method: str = "eigen",
                    quad: QuadratureSpec = QuadratureSpec()) -> float:
        return _degree0_torsion(self.les, method, quad)


def three_column_les(D: DoubleComplexData, grams=None, class_reps=None) -> ThreeColumnData:
    """Cohomology of the three columns, the maps between them, the
    connecting map, and the induced long exact sequence.

    ``grams[p][q]``, when given, replaces the Hodge-induced Gram matrix
    on H^q(column p) -- it must refer to the same class representatives
    (``class_reps[p][q]``, cochain-valued column bases; computed
    metric-independently when not supplied).
    """
    if D.P != 3:
        raise ValueError("a three-column double complex is required")
    D.validate()
    Q = D.Q
    if class_reps is None or grams is None:
        cols = [D.column_complex(p) for p in range(3)]
        if class_reps is None:
            class_reps = [cohomology_class_basis(c) for c in cols]
        if grams is None:
            grams = [induced_gram(c, r) for c, r in zip(cols, class_reps)]

    # maps induced on cohomology by the horizontal differential
    def induced_map(p, q):
        src = class_reps[p][q]
        dst = class_reps[p + 1][q]
        if src.shape[1] == 0 or dst.shape[1] == 0:
            return _zeros(dst.shape[1], src.shape[1])
        pushed = D.hv_at(p, q) @ src
        img = D.dv_at(p + 1, q - 1) if q > 0 else _zeros(D.dim(p + 1, 0), 0)
        return _class_coords(dst, img, pushed)

    d1 = {(p, q): induced_map(p, q) for p in range(2) for q in range(Q)}

    # connecting map H^q(col2) -> H^{q+1}(col0) by the zig-zag through col1
    def connecting(q):
        src = class_reps[2][q]
        dst = class_reps[0][q + 1] if q + 1 < Q else _zeros(0, 0)
        if src.shape[1] == 0 or dst.shape[1] == 0:
            return _zeros(dst.shape[1], src.shape[1])
        out = []
        img = D.dv_at(0, q)
        for j in range(src.shape[1]):
            z = src[:, j:j + 1]
            x = _solve_in_span(D.hv_at(1, q), z)          # lift through restriction
            w = D.dv_at(1, q) @ x                         # differential of the lift
            u = _solve_in_span(D.hv_at(0, q + 1), w)      # pull back along inclusion
            out.append(_class_coords(dst, img, u))
        return np.concatenate(out, axis=1)

    delta = {q: connecting(q) for q in range(Q)}

    # --- first page rows -------------------------------------------------
    rows = []
    for q in range(Q):
        dims = [class_reps[p][q].shape[1] for p in range(3)]
        v = [d1[(0, q)], d1[(1, q)]]
        h = [np.asarray(grams[p][q], dtype=complex) for p in range(3)]
        rows.append(MetricComplex(dims, v, h, grading_offset=q))

    # --- long exact sequence, grading 3q (col0) / 3q+1 (col1) / 3q+2 (col2)
    keys = [(p, q) for q in range(Q) for p in range(3)]
    maps = [((p, q), (p + 1, q), d1[(p, q)]) for p, q in keys if p < 2]
    maps += [((2, q), (0, q + 1), delta[q]) for q in range(Q - 1)]
    les = _graded_sum({(p, q): class_reps[p][q].shape[1] for p, q in keys}, maps,
                      {(p, q): grams[p][q] for p, q in keys}, lambda k: 3 * k[1] + k[0])

    # --- second page: cohomology of the rows with the connecting map -----
    # spaces: per q the row cohomology with metric induced by the row Gram
    e2_reps, e2_grams = [], []
    for q in range(Q):
        reps = cohomology_class_basis(rows[q])
        e2_reps.append(reps)
        e2_grams.append(induced_gram(rows[q], reps))
    # the only differential on this page: (0, q) -> (2, q - 1)
    maps = []
    for q in range(1, Q):
        src_reps = e2_reps[q][0]       # classes in H^q(col0) coordinates
        dst_reps = e2_reps[q - 1][2]   # classes in H^{q-1}(col2) coordinates
        if src_reps.shape[1] == 0 or dst_reps.shape[1] == 0:
            continue
        blocks = []
        for j in range(src_reps.shape[1]):
            z = class_reps[0][q] @ src_reps[:, j:j + 1]    # cochain rep in col0
            pushed = D.hv_at(0, q) @ z                     # its image in col1
            x = _solve_in_span(D.dv_at(1, q - 1), pushed)  # trivialize vertically
            y = D.hv_at(1, q - 1) @ x                      # land in col2, degree q-1
            img = D.dv_at(2, q - 2) if q - 2 >= 0 else _zeros(D.dim(2, q - 1), 0)
            cls = _class_coords(class_reps[2][q - 1], img, y)
            # express in the row-cohomology basis modulo the row image
            row_img = d1[(1, q - 1)]
            blocks.append(_class_coords(dst_reps, row_img, cls))
        maps.append(((0, q), (2, q - 1), np.concatenate(blocks, axis=1)))
    # graded by the total degree p + q, ordered by q within a degree
    e2 = _graded_sum({(p, q): e2_reps[q][p].shape[1] for p, q in keys}, maps,
                     {(p, q): e2_grams[q][p] for p, q in keys})

    return ThreeColumnData(rows, e2, les, class_reps)
