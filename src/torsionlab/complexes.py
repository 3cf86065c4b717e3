"""Flat complexes of metric vector spaces and their torsion forms.

A ``MetricComplex`` is a finite graded complex (E^0 -> E^1 -> ... -> E^k)
of complex inner-product spaces with differential ``v`` and Hermitian
metrics ``h``.  Over a point base with formal form generators, or over a
circle with theta-dependent metric families, we compute:

* the metric-variation matrix omega = h^{-1} (d h),
* the characteristic odd form built from f(a) = a e^{a^2},
* the torsion form: minus the integral over t of the number-weighted
  supertrace of f'(X_t), with the standard counterterms subtracted,
* the even metric-comparison class built from two metrics on the same
  complex.

All conventions are normalized so that a two-term acyclic complex with
map tau and orthonormal metrics has degree-zero torsion -log|det tau|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    CircleBase,
    FormalPoint,
    FormElement,
    FormMatrix,
    PHI_ROOT,
    f_prime_supertrace,
    f_prime_supertrace_at_zero,
    matrix_function,
    phi_rescale,
    regular_supertrace,
)
from .quad import QuadratureSpec, adaptive_quad, dyadic_tail

__all__ = [
    "MetricComplex",
    "TorsionFormResult",
    "omega",
    "rescale_metric",
    "x_t",
    "char_form",
    "torsion_form",
    "tilde_f",
    "complex_to_json",
    "complex_from_json",
    "RANK_THRESHOLD",
    "numerical_rank",
    "ranked_svd",
    "rank_split",
    "SPAN_THRESHOLD",
    "solve_in_span",
    "metric_frame",
]

# Dyadic windows the t > 1 half of a torsion form may walk before it gives up.
TAIL_WINDOWS = 40

# Largest accepted magnitude of a differential or metric entry: products
# of two entries, times the t of the quadrature (up to 2^80), stay far
# below the float maximum 1.8e308.
MAX_ENTRY = 1e100


class ComplexDataError(ValueError):
    """Invalid metric-complex data (v^2 != 0, bad metric, shape mismatch)."""


class NonFiniteDataError(ComplexDataError):
    """A NaN, infinite or overflowing (above ``MAX_ENTRY``) entry: malformed
    input, where other ``ComplexDataError``s are violated invariants."""


def check_finite(name: str, values) -> None:
    """Raise ``NonFiniteDataError`` unless every entry is at most ``MAX_ENTRY``
    in magnitude (a NaN fails too)."""
    if not (np.abs(values) <= MAX_ENTRY).all():
        raise NonFiniteDataError(f"{name} has a non-finite or overflowing entry")


# ---- the numerical-rank policy ---------------------------------------------
#
# Every rank and zero-mode decision is made here: a singular value counts
# when it exceeds RANK_THRESHOLD * max(s_max, 1), with s_max the largest
# singular value of the same matrix.

RANK_THRESHOLD = 1e-10


def numerical_rank(s) -> int:
    """Number of values in ``s`` (sorted decreasing) above the rank cut."""
    return int(np.count_nonzero(s > RANK_THRESHOLD * max(s[0] if len(s) else 0.0, 1.0)))


# The decomposition below is the only call of the SVD.  A
# ``MetricComplex`` stores it once per differential.


def _svd_factors(m: np.ndarray):
    """The SVD factors u, s, vh of m: the reduced ones, except that a wide
    m keeps its full vh, whose trailing rows span its null space."""
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.zeros((rows, 0), dtype=complex), np.zeros(0), np.eye(cols, dtype=complex)
    return np.linalg.svd(m, full_matrices=rows < cols)


def ranked_svd(m: np.ndarray):
    """The SVD factors u, s, vh of m (``_svd_factors``) and its numerical rank."""
    u, s, vh = _svd_factors(m)
    return u, s, vh, numerical_rank(s)


def _split(u, s, vh, rank):
    return u[:, :rank], vh[rank:].conj().T


def rank_split(m: np.ndarray):
    """Orthonormal bases of the column space and of the null space of m,
    split at its numerical rank."""
    return _split(*ranked_svd(m))


# Every span-membership decision is made here: rhs lies in span(basis) when
# its least-squares residual is at most SPAN_THRESHOLD * max(scale, 1), with
# scale |rhs| unless the caller fixes one.

SPAN_THRESHOLD = 1e-8


def solve_in_span(basis: np.ndarray, rhs: np.ndarray, error, what: str, scale=None):
    """Coordinates x, one column per column of rhs, with basis @ x = rhs.

    Past the span cut it raises ``error`` with the message ``what`` and the
    residual.  An empty basis leaves the residual |rhs|."""
    rhs = rhs.reshape(basis.shape[0], -1)
    if basis.shape[1]:
        sol, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    else:
        sol = np.zeros((0, rhs.shape[1]), dtype=complex)
    err = np.linalg.norm(basis @ sol - rhs)
    if scale is None:
        scale = np.linalg.norm(rhs)
    if err > SPAN_THRESHOLD * max(scale, 1.0):
        raise error(f"{what} (residual {err:.2e})")
    return sol


def metric_frame(h: np.ndarray):
    """L^H and its inverse for the Cholesky factor L of one metric block
    h = L L^H, so that y = L^H x are orthonormal coordinates.  A block
    that is exactly the identity is its own frame, unfactorized: callers
    only read frames, so the block itself is both, and ``lh is lh_inv``."""
    # n nonzeros, all on a unit diagonal: the identity, without building one
    if np.count_nonzero(h) == h.shape[-1] and (h.diagonal() == 1).all():
        return h, h
    lh = np.linalg.cholesky(h).conj().T
    return lh, np.linalg.inv(lh)


def _as_metric_blocks(h, dims, base):
    """Normalize metric input: (d,d) blocks, or (grid,d,d) families on a circle."""
    out = []
    for i, d in enumerate(dims):
        blk = np.asarray(h[i], dtype=complex)
        if isinstance(base, CircleBase):
            if blk.ndim == 2:
                blk = np.broadcast_to(blk, (base.grid_size, d, d)).copy()
            if blk.shape != (base.grid_size, d, d):
                raise ComplexDataError(f"metric block {i} has shape {blk.shape}")
        else:
            if blk.shape != (d, d):
                if blk.size == d * d:
                    blk = blk.reshape(d, d)
                else:
                    raise ComplexDataError(f"metric block {i} has shape {blk.shape}")
        out.append(blk)
    return out


@dataclass
class MetricComplex:
    """A finite graded complex of metric vector spaces.

    ``v[i]`` maps E^i to E^{i+1} and is stored as a (dims[i+1], dims[i])
    matrix.  ``h[i]`` is the positive Hermitian metric on E^i; over a
    CircleBase it may be a theta-family of shape (grid, d, d).
    ``grading_offset`` shifts the integer degree labels (needed for
    subquotient complexes whose natural grading does not start at 0).
    """

    dims: list
    v: list
    h: list
    base: object = None
    omega_data: object = None
    grading_offset: int = 0
    # the store: SVD factors of v[i] and frames of h[q], filled on first use
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dims = [int(d) for d in self.dims]
        k = len(self.dims)
        vs = []
        for i in range(k - 1):
            m = np.asarray(self.v[i], dtype=complex).reshape(self.dims[i + 1], self.dims[i])
            vs.append(m)
        self.v = vs
        self.h = _as_metric_blocks(self.h, self.dims, self.base)

    # ---- bookkeeping ----------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.dims) - 1

    @property
    def total_dim(self) -> int:
        return int(sum(self.dims))

    @property
    def grading(self):
        out = []
        for i, d in enumerate(self.dims):
            out.extend([self.grading_offset + i] * d)
        return tuple(out)

    def block_slices(self):
        out, start = [], 0
        for d in self.dims:
            out.append(slice(start, start + d))
            start += d
        return out

    def v_total(self) -> np.ndarray:
        n = self.total_dim
        out = np.zeros((n, n), dtype=complex)
        sl = self.block_slices()
        for i, vi in enumerate(self.v):
            out[sl[i + 1], sl[i]] = vi
        return out

    def validate(self):
        for name, blocks in (("differential", self.v), ("metric", self.h)):
            for i, blk in enumerate(blocks):
                check_finite(f"{name} {i}", blk)
        scale = max([np.linalg.norm(vi) for vi in self.v], default=0.0)
        for i in range(len(self.v) - 1):
            resid = np.linalg.norm(self.v[i + 1] @ self.v[i])
            if resid > 1e-10 * max(scale**2, 1.0):
                raise ComplexDataError(f"v is not a differential: |v_{i+1} v_{i}| = {resid:.2e}")
        for i, hi in enumerate(self.h):
            blocks = hi if hi.ndim == 3 else hi[None]
            for blk in blocks:
                if blk.size == 0:
                    continue
                if np.linalg.norm(blk - blk.conj().T) > 1e-10 * np.linalg.norm(blk):
                    raise ComplexDataError(f"metric {i} is not Hermitian")
                w = np.linalg.eigvalsh(blk)
                if w[0] <= 1e-12 * max(w[-1], 1.0):
                    raise ComplexDataError(f"metric {i} is not positive definite")
        return self

    # ---- the store -------------------------------------------------------
    #
    # The SVD factors of each differential, and each metric frame, are
    # computed at most once per complex; every rank reader (``betti`` too)
    # cuts the stored singular values by ``numerical_rank``.  An entry is
    # keyed on the block it was computed from, so replacing v[i] or h[q]
    # refills it; a block edited in place is not seen.

    def _stored(self, compute, blocks, i):
        entry = self._store.get((compute, i))
        if entry is None or entry[0] is not blocks[i]:
            entry = self._store[compute, i] = (blocks[i], compute(blocks[i]))
        return entry[1]

    def ranked_svd(self, i):
        """``ranked_svd`` of v[i], from the stored factors."""
        u, s, vh = self._stored(_svd_factors, self.v, i)
        return u, s, vh, numerical_rank(s)

    def rank_split(self, i):
        """``rank_split`` of v[i], from the stored factors."""
        return _split(*self.ranked_svd(i))

    def frame(self, q):
        """``metric_frame`` of the point-base metric h[q]."""
        return self._stored(metric_frame, self.h, q)

    def betti(self):
        """Cohomology dimensions, from the ranks of v (metric-independent)."""
        ranks = [self.ranked_svd(i)[3] if vi.size else 0 for i, vi in enumerate(self.v)]
        out = []
        for i, d in enumerate(self.dims):
            r_out = ranks[i] if i < len(ranks) else 0
            r_in = ranks[i - 1] if i > 0 else 0
            out.append(d - r_out - r_in)
        return tuple(out)

    def with_metric(self, h) -> "MetricComplex":
        return MetricComplex(self.dims, self.v, h, base=self.base,
                             omega_data=self.omega_data,
                             grading_offset=self.grading_offset)

    def form_algebra(self):
        """The coefficient algebra used for form-valued outputs."""
        if self.base is not None:
            return self.base
        return FormalPoint(0)


@dataclass
class TorsionFormResult:
    """Torsion form with its quadrature error and counterterm record.

    ``degree0`` is the real degree-zero part (a scalar, or a grid
    function over a circle base); ``element`` carries all degrees.
    """

    element: FormElement
    degree0: object
    error: float
    d_E: int
    d_H: int
    betti: tuple


# ---- basic constructions ------------------------------------------------


def rescale_metric(E: MetricComplex, t: float) -> MetricComplex:
    """Multiply the metric on E^i by t^i."""
    if t <= 0:
        raise ValueError("metric rescaling parameter must be positive")
    return E.with_metric([(t ** i) * hi for i, hi in enumerate(E.h)])


def _solved_total(E: MetricComplex, pairs, offset: int = 0) -> np.ndarray:
    """Total matrix with a^{-1} b, for the i-th pair (a, b), in the block mapping
    E^{i+offset} to E^i, behind the a's leading (stack, then circle grid) axes."""
    grid = (E.base.grid_size,) if isinstance(E.base, CircleBase) else ()
    lead = np.broadcast_shapes(grid, *(a.shape[:-2] for a, _ in pairs))
    out = np.zeros(lead + (E.total_dim,) * 2, dtype=complex)
    sl = E.block_slices()
    for i, (a, b) in enumerate(pairs):
        if a.size and b.size:
            out[..., sl[i], sl[i + offset]] = np.linalg.solve(a, b)
    return out


def omega(E: MetricComplex, h=None) -> FormMatrix:
    """The one-form h^{-1} (d h) for E's metric, or for stacked blocks ``h``."""
    alg = E.form_algebra()
    if isinstance(alg, CircleBase):
        blk = _solved_total(E, [(hi, alg.derivative(hi, axis=-3))
                                for hi in (E.h if h is None else h)])
        return FormMatrix(alg, E.total_dim, E.grading, {1: blk})
    if E.omega_data is not None:
        return E.omega_data
    return FormMatrix(alg, E.total_dim, E.grading)


def _v_adjoint(E: MetricComplex) -> np.ndarray:
    """h-adjoint of the total differential, blockwise h_i^{-1} v_i^dagger h_{i+1}."""
    return _solved_total(E, [(E.h[i], vi.conj().T @ E.h[i + 1])
                             for i, vi in enumerate(E.v)], offset=1)


def x_t(E: MetricComplex, t: float) -> FormMatrix:
    """The odd superconnection-difference matrix at time t.

    Equals (omega + t v^* - v)/2, where v^* is the metric adjoint of the
    differential; the flat-connection parts cancel.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    return _x_t(omega(E), E.v_total(), _v_adjoint(E), t)


def _x_t(w: FormMatrix, vmat: np.ndarray, vstar: np.ndarray, t: float) -> FormMatrix:
    return w + FormMatrix.from_plain(w.algebra, 0.5 * (t * vstar - vmat), w.grading)


def char_form(E: MetricComplex) -> FormElement:
    """The odd characteristic form of the complex-with-metric.

    (2 i pi)^{1/2} times the rescaled supertrace of f(omega/2); real with
    only odd degrees.
    """
    alg, signs, n = E.form_algebra(), [(-1.0) ** g for g in E.grading], E.total_dim
    f = matrix_function(omega(E) * 0.5, "f").coeffs
    val = regular_supertrace(alg, f.reshape(f.shape[:-3] + (f.shape[-3] * n, n)), signs)
    return PHI_ROOT * phi_rescale(FormElement.from_vector(alg, val))


def _chi_sums(E: MetricComplex):
    g = [E.grading_offset + i for i in range(len(E.dims))]
    b = E.betti()
    d_E = sum(((-1) ** gi) * gi * d for gi, d in zip(g, E.dims))
    d_H = sum(((-1) ** gi) * gi * bi for gi, bi in zip(g, b))
    return d_E, d_H, b


def _number_supertrace(E: MetricComplex):
    """The map from an array ts of times to the rows of coefficients
    (``FormElement.to_vector`` order) of the supertrace of (N/2) f'(X_t),
    phi-rescaled, one row per t, and whether X_t^2 is linear in t
    (``_square_is_linear``).  The map's optional second argument maps the
    stack of the X_t^2 to their exponentials; by default they are
    evaluated afresh.

    Only the even part is evaluated: f' of the even part of X_t's
    regular representation, which is exact (see ``algebra``).  X_t is
    odd in total parity, so f'(X_t) is even, and every entry of it that
    joins indices of opposite parity, the diagonals of odd blocks among
    them, is a sum of products with an exact-zero factor.  The odd
    coefficients therefore come out as exact zeros, dropped keys and kept
    ones alike.
    """
    alg = E.form_algebra()
    # Everything below except f'(X_t) itself is independent of t.
    # phi_rescale multiplies degree k by c^k, an automorphism of the
    # algebra, so it commutes with f'.  X_t is affine in t, and so is its
    # regular representation: rep0 + t rep1.
    w, vmat, vstar = omega(E), E.v_total(), _v_adjoint(E)
    x0 = _x_t(w, vmat, vstar, 0.0)
    if not x0.is_odd():
        raise ComplexDataError("omega is not odd in total parity, so it is not "
                               "h^{-1} dh of a graded metric")
    rep0 = phi_rescale(x0).regular(even=True)
    rep1 = FormMatrix.from_plain(alg, 0.5 * vstar, E.grading).regular(even=True)
    node_axis = (-1,) + (1,) * rep0.ndim
    # supertrace against N/2: sum_i (-1)^{g_i} (g_i/2) M_ii
    weights = np.array([((-1.0) ** g) * 0.5 * g for g in E.grading])

    def supertrace(ts, exp_square=None):
        x = rep0 + ts.reshape(node_axis) * rep1
        msq = x @ x
        emsq = matrix_function(msq, "exp") if exp_square is None else exp_square(msq)
        return f_prime_supertrace(alg, msq, emsq[..., :E.total_dim], weights)

    return supertrace, _square_is_linear(rep0, rep1)


def _square_is_linear(rep0: np.ndarray, rep1: np.ndarray) -> bool:
    """Whether X_t^2 = t K for one K per slice, to rounding, with K not
    diagonal: the gate of the tail reuse in ``torsion_form``.

    X_t's even representation is rep0 + t rep1, whose square is
    rep0^2 + t K + t^2 rep1^2 with K = rep0 rep1 + rep1 rep0.  It is
    (t v* - v)/2, at each grid point on a circle, wherever omega drops
    out of the even block: on a point base without ``omega_data``, on a
    circle, whose omega is a one-form, and on FormalPoint(1).  rep0^2 and
    rep1^2 must vanish to rounding in every slice, relative to that
    slice's |rep0|^2 and |rep1|^2: ``validate()`` admits a v^2 residual
    up to 1e-10 scale^2, which would enter X_t^2 apart from the t K term.
    Where K is exactly diagonal, as on rank-one two-term data, every X_t^2
    is too, and ``_expm`` takes its exponential entry by entry, cheaper
    than two squarings.
    """
    cut = 8 * rep0.shape[-1] * np.finfo(float).eps
    for m in (rep0, rep1):
        square = np.linalg.norm(m @ m, axis=(-2, -1))
        if not (square <= cut * np.linalg.norm(m, axis=(-2, -1)) ** 2).all():
            return False
    k = rep0 @ rep1 + rep1 @ rep0
    return bool(k[..., ~np.eye(k.shape[-1], dtype=bool)].any())


def torsion_form(E: MetricComplex, quad: QuadratureSpec = QuadratureSpec()) -> TorsionFormResult:
    """Torsion form of the complex: minus the t-integral of the
    counterterm-corrected number-weighted supertrace of f'(X_t).

    The integral is split at t = 1 with substitutions u = sqrt(t) and
    u = 1/sqrt(t), which make both halves smooth.  The torsion form is
    even: its odd coefficients are exact zeros, and f'(X_t) is evaluated
    on the even part of the form algebra alone (``_number_supertrace``).
    That needs X_t odd in total parity, true for omega = h^{-1} dh of a
    graded metric; an ``omega_data`` that is not odd raises
    ``ComplexDataError``.  The t > 1 half is a ``quad.dyadic_tail`` that
    halves u = 1/sqrt(t) per window from u = 1; after ``TAIL_WINDOWS``
    windows above a tenth of the tolerance it raises ``QuadratureError``.
    """
    d_E, d_H, betti = _chi_sums(E)
    alg = E.form_algebra()
    if E.total_dim == 0:
        zero = FormElement(alg)
        return TorsionFormResult(zero, 0.0, 0.0, d_E, d_H, betti)

    supertrace, linear = _number_supertrace(E)
    # the degree-0 coefficient: one value, or one per grid point
    degree0 = slice(0, alg.grid_size if isinstance(alg, CircleBase) else 1)

    def integrand(ts, exp_square=None):
        """Rows of the form coefficients (FormElement.to_vector order) per t."""
        out = supertrace(ts, exp_square)
        # counterterms: d_H/2 at t = infinity, (d_E - d_H)/2 f'(i sqrt(t)/2) at t = 0
        out[:, degree0] -= (0.5 * d_H + 0.5 * (d_E - d_H) * (1.0 - 0.5 * ts)
                            * np.exp(-0.25 * ts))[:, None]
        return out

    # dt/t = 2 du/u under both substitutions
    lower, err_lo = adaptive_quad(lambda u: integrand(u * u) * (2.0 / u)[:, None],
                                  0.0, 1.0, quad)
    # The t > 1 half decays exponentially in t = u^{-2}, but floating-point
    # evaluation of f'(X_t) loses absolute accuracy like t * eps.  Walk
    # dyadic windows towards u = 0 and stop once a window's contribution is
    # negligible, before round-off noise dominates the integrand.
    #
    # The windows halve in u, so a panel of one window has the nodes of a
    # panel of the window before, halved exactly: 4x the t.  Where
    # X_t^2 = t K in every slice, grid points included (``linear``, from
    # X_t's even representation), e^{X^2} there is that panel's e^{X^2}
    # to the fourth power, two squarings instead of a Pade evaluation.
    # ``last`` holds the previous window's e^{X^2} by panel nodes until
    # they are used, ``seen`` the current's.  Kronrod nodes lie strictly
    # inside a window (u in (2^-k-1, 2^-k)), so the binary exponent of a
    # node names its window, and the stores rotate when it changes.
    last, seen, window = {}, {}, None

    def tail_exp(u, msq):
        nonlocal last, seen, window
        exponent = np.frexp(u[0])[1]
        if exponent != window:
            last, seen, window = seen, {}, exponent
        prior = last.pop((2.0 * u).tobytes(), None)
        if prior is None:
            e = matrix_function(msq, "exp")
        else:
            e = prior @ prior
            e = e @ e
        seen[u.tobytes()] = e
        return e

    def tail(u):
        exp_square = (lambda msq: tail_exp(u, msq)) if linear else None
        return integrand(u ** -2.0, exp_square) * (2.0 / u)[:, None]

    upper, err_hi = dyadic_tail(tail, 0.5, quad, TAIL_WINDOWS)
    total = -(lower + upper)
    element = FormElement.from_vector(alg, total)
    deg0 = element.coefficient(0)
    degree0 = np.real(deg0) if isinstance(alg, CircleBase) else float(np.real(deg0))
    return TorsionFormResult(element, degree0, err_lo + err_hi, d_E, d_H, betti)


# ---- metric comparison --------------------------------------------------


def _check_cone(eigenvalues):
    """Raise unless every metric eigenvalue on the path is positive (a NaN
    is not): the square root and logarithm below need it."""
    if not np.all(eigenvalues > 0):
        raise ValueError("metric path left the positive-definite cone")


def _metric_path(h0, h1, path: str):
    """Return a callable mapping an array ls of path parameters to the
    metric blocks h and hdot of a path from h0 to h1, with ls's axis leading."""
    if path == "linear":
        def at(ls):
            pairs = list(zip(h0, h1))
            return ([np.multiply.outer(1.0 - ls, a) + np.multiply.outer(ls, b) for a, b in pairs],
                    [np.broadcast_to(b - a, ls.shape + a.shape) for a, b in pairs])

        return at
    if path == "loglinear":
        # h_l = h0^{1/2} X^l h0^{1/2} with X = h0^{-1/2} h1 h0^{-1/2}
        roots = []
        for a, b in zip(h0, h1):
            wa, va = np.linalg.eigh(a)
            _check_cone(wa)
            sqa = (va * np.sqrt(wa)[..., None, :]) @ np.swapaxes(va.conj(), -2, -1)
            isqa = (va * (1.0 / np.sqrt(wa))[..., None, :]) @ np.swapaxes(va.conj(), -2, -1)
            x = isqa @ b @ isqa
            x = 0.5 * (x + np.swapaxes(x.conj(), -2, -1))
            wx, vx = np.linalg.eigh(x)
            _check_cone(wx)
            roots.append((sqa, vx, np.swapaxes(vx.conj(), -2, -1), np.log(wx)))

        def at(ls):
            hl, hd = [], []
            for sqa, vx, vxh, lw in roots:
                w = np.exp(np.multiply.outer(ls, lw))
                for out, wi in ((hl, w), (hd, w * lw)):
                    out.append(sqa @ ((vx * wi[..., None, :]) @ vxh) @ sqa)
            return hl, hd

        return at
    raise ValueError(f"unknown metric path {path!r}")


def tilde_f(E: MetricComplex, h0, h1, path: str = "linear",
            quad: QuadratureSpec = QuadratureSpec()) -> FormElement:
    """Even comparison class of two metrics on the same flat complex.

    Integrates the rescaled graded trace of (1/2) h^{-1} hdot f'(omega/2)
    along a path of metrics from h0 to h1.  The degree-zero part is half
    the alternating-with-weights log ratio of metric volumes.  A panel's
    nodes are evaluated at once, as stacks with the node axis leading: one
    matrix-function call gives e^{(omega/2)^2}, and as the factor h^{-1} hdot
    is even, ``f_prime_supertrace`` reads that of f'(omega/2) h^{-1} hdot / 2.
    A point-base complex without ``omega_data`` has omega = 0, and e^0 = I
    exactly: there the factor's own supertrace is read
    (``f_prime_supertrace_at_zero``).
    """
    alg = E.form_algebra()
    flat = E.omega_data is None and not isinstance(alg, CircleBase)
    path_at = _metric_path(*(_as_metric_blocks(h, E.dims, E.base) for h in (h0, h1)), path)
    signs = np.array([(-1.0) ** g for g in E.grading])
    unit = FormElement.from_vector(alg, FormElement(alg).to_vector() + 1.0)
    rescale = phi_rescale(unit).to_vector()  # phi_rescale: one factor per coefficient

    def integrand(ls):
        hl, hd = path_at(ls)
        for blk in hl:
            if blk.shape[-1]:
                _check_cone(np.linalg.eigvalsh(blk))
        factor = 0.5 * _solved_total(E, list(zip(hl, hd)))
        if flat:
            return f_prime_supertrace_at_zero(alg, factor, signs) * rescale
        half = 0.5 * omega(E, hl).regular(even=True)
        msq = half @ half
        col = matrix_function(msq, "exp")[..., :E.total_dim] @ factor
        return f_prime_supertrace(alg, msq, col, signs) * rescale

    value, _ = adaptive_quad(integrand, 0.0, 1.0, quad)
    return FormElement.from_vector(alg, value)


# ---- serialization ------------------------------------------------------


def _mat_to_json(m: np.ndarray):
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _mat_from_json(obj):
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def complex_to_json(E: MetricComplex) -> str:
    """The JSON document of E; a complex with ``omega_data`` has none,
    since dropping it would change the torsion form."""
    if E.omega_data is not None:
        raise ValueError("complex_to_json cannot encode omega_data")
    base = None
    if isinstance(E.base, FormalPoint):
        base = {"kind": "formal_point", "n_generators": E.base.n_generators,
                "truncation_degree": E.base.truncation_degree}
    elif isinstance(E.base, CircleBase):
        base = {"kind": "circle", "grid_size": E.base.grid_size,
                "circumference": E.base.circumference}
    doc = {
        "dims": E.dims,
        "v": [_mat_to_json(vi) for vi in E.v],
        "h": [_mat_to_json(hi) for hi in E.h],
        "base": base,
        "grading_offset": E.grading_offset,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def complex_from_json(text: str) -> MetricComplex:
    doc = json.loads(text)
    base = None
    bdoc = doc.get("base")
    if bdoc is not None:
        if bdoc["kind"] == "formal_point":
            base = FormalPoint(bdoc["n_generators"], bdoc.get("truncation_degree"))
        elif bdoc["kind"] == "circle":
            base = CircleBase(bdoc["grid_size"], bdoc["circumference"])
        else:
            raise ComplexDataError(f"unknown base kind {bdoc['kind']!r}")
    dims = doc["dims"]
    v = [_mat_from_json(m) for m in doc["v"]]
    h = [_mat_from_json(m) for m in doc["h"]]
    return MetricComplex(dims, v, h, base=base,
                        grading_offset=doc.get("grading_offset", 0)).validate()
