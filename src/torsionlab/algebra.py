"""Coefficient algebras for desk-scale differential forms.

Two base algebras are supported:

* ``FormalPoint`` -- the exterior algebra on a handful of anticommuting
  generators over the complex numbers (a point base with formal form
  directions), optionally truncated above a degree.
* ``CircleBase`` -- functions sampled on a uniform grid over a circle of
  given circumference, together with function-times-dtheta one-forms.
  Derivatives are spectral (FFT), so smooth data differentiates to
  machine precision.

A matrix with entries in either algebra, sum_I xi_I M_I, is a
``FormMatrix``: one dense array of its blocks M_I in basis order.  Its
arithmetic goes through the regular representation, left multiplication
on (forms) x C^n, xi_K x ``x`` -> sign(I, K) xi_{I u K} x S^{|K|} M_I
S^{|K|} x, with S = diag((-1)^grading) carrying the Koszul sign.  That is
an ordinary matrix of size n * (number of basis forms): 2n on a circle,
where A + B dtheta becomes [[A, 0], [B, S A S]] at each grid point (Van
Loan 1978), and n 2^k on ``FormalPoint(k)``, fewer under truncation.  The
stored array is its first block column: the matrix is one gather through
a table made once per algebra, and a product is read back by a reshape.
exp, f(a) = a e^{a^2} and f'(a) = (1 + 2a^2) e^{a^2} of a form-valued
matrix are ordinary matrix functions of it; one kernel evaluates the
exponential of a whole stack at once by Pade scaling and squaring
(Higham 2005).  ``f_prime_supertrace`` reads the supertrace of f' from
a^2 and e^{a^2} without forming their product.

The regular representation never maps a key to one of lower degree, so
the keys of degree above any bound span an invariant subspace, and the
blocks of the keys up to that bound form the representation of a
quotient algebra: a function of the kept block is the kept block of the
function, exactly.  ``regular(even=True)`` keeps the keys of degree at
most 2 floor(max_degree / 2).  Torsion forms are even forms, so they
need no more: on a circle that is the n x n degree-0 block instead of
the 2n x 2n Van Loan matrix, on ``FormalPoint(k)`` with k odd the
top-degree keys drop out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FormalPoint",
    "CircleBase",
    "FormElement",
    "FormMatrix",
    "regular_supertrace",
    "f_prime_supertrace",
    "f_prime_supertrace_at_zero",
    "phi_rescale",
    "matrix_function",
    "exterior_d",
    "PHI_ROOT",
]

# Fixed branch of (2 i pi)^{1/2}; chosen so that the odd characteristic
# forms below come out real.
PHI_ROOT = complex(np.sqrt(2.0 * np.pi)) * np.exp(0.25j * np.pi)

# Slices per pass of the exponential kernel: bounds its temporaries, so
# peak memory does not grow with the stack.
EXPM_CHUNK = 128

# Degree-13 Pade coefficients and the 1-norm up to which that approximant
# of exp is accurate to double precision (Higham 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# Rows P0..P3: coefficients of I, A^2, A^4, A^6 in U = A (A^6 P0 + P1), V = A^6 P2 + P3.
_PADE13_EVEN = np.array([(0.0,) + _PADE13[9::2], _PADE13[1:8:2],
                         (0.0,) + _PADE13[8:13:2], _PADE13[0:7:2]])


class AlgebraError(ValueError):
    """Mismatched or unsupported coefficient algebras."""


@dataclass(frozen=True)
class FormalPoint:
    """Exterior algebra on ``n_generators`` anticommuting generators."""

    n_generators: int
    truncation_degree: int | None = None

    def __post_init__(self):
        if self.n_generators < 0:
            raise AlgebraError("n_generators must be >= 0")

    @property
    def max_degree(self) -> int:
        if self.truncation_degree is None:
            return self.n_generators
        return min(self.truncation_degree, self.n_generators)

    def key_degree(self, key: int) -> int:
        return bin(key).count("1")


@dataclass(frozen=True)
class CircleBase:
    """Functions-plus-one-forms on a uniform circle grid.

    Elements are pairs (f, g dtheta) with f, g sampled at
    ``grid_size`` equispaced points of a circle of the given
    circumference.
    """

    grid_size: int
    circumference: float = 2.0 * np.pi

    def __post_init__(self):
        if self.grid_size < 4 or (self.grid_size & (self.grid_size - 1)) != 0:
            raise AlgebraError("grid_size must be a power of two, >= 4")
        if self.circumference <= 0:
            raise AlgebraError("circumference must be positive")

    @property
    def max_degree(self) -> int:
        return 1

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.grid_size) * (self.circumference / self.grid_size)

    def key_degree(self, key: int) -> int:
        return key

    def derivative(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Spectral d/dtheta along ``axis``, the grid axis: the first one
        of a grid function or of a (grid, n, n) family, -3 in a stack of
        such families.  All other axes are carried along."""
        n = self.grid_size
        freqs = 2.0j * np.pi * np.fft.fftfreq(n) * n / self.circumference
        spec = np.fft.fft(values, axis=axis)
        shape = [1] * values.ndim
        shape[axis] = n
        return np.fft.ifft(spec * freqs.reshape(shape), axis=axis)


def _check_same_algebra(a, b):
    if a.algebra != b.algebra:
        raise AlgebraError(f"algebra mismatch: {a.algebra} vs {b.algebra}")


@lru_cache(maxsize=32)
def _basis(algebra):
    """Basis keys in coefficient order, and the regular representation's
    gather table.  Keys are generator masks; the circle's keys 0 and
    dtheta = 1 multiply like the masks of one generator.  Where xi_I xi_K =
    sign xi_J, entry (J, K) of ``index`` is I's slot and of ``sign`` is
    sign; where no basis form xi_I does (products above the top degree
    vanish), the index is the padded zero slot len(keys).  ``odd`` is the
    parity of each key's degree.
    """
    top = 2 if isinstance(algebra, CircleBase) else 1 << algebra.n_generators
    keys = tuple(m for m in range(top) if algebra.key_degree(m) <= algebra.max_degree)
    index = np.full((len(keys),) * 2, len(keys))
    sign = np.ones((len(keys),) * 2)
    for i, k1 in enumerate(keys):
        for k, k2 in enumerate(keys):
            if not k1 & k2 and k1 | k2 in keys:
                j = keys.index(k1 | k2)
                index[j, k] = i
                # Koszul sign: one -1 per generator of k2 below a generator of k1
                below = [(1 << a) - 1 for a in range(k1.bit_length()) if k1 >> a & 1]
                sign[j, k] = (-1) ** sum(bin(k2 & m).count("1") for m in below)
    odd = np.array([algebra.key_degree(k) % 2 for k in keys], dtype=bool)
    return keys, index, sign, odd


@lru_cache(maxsize=32)
def _even_keys(algebra) -> np.ndarray:
    """Basis positions of the keys of degree at most 2 floor(max_degree / 2)."""
    keys = _basis(algebra)[0]
    top = 2 * (algebra.max_degree // 2)
    return np.array([i for i, k in enumerate(keys) if algebra.key_degree(k) <= top])


@lru_cache(maxsize=64)
def _regular_tables(algebra, grading, even):
    """The gather index of ``_basis`` and the factor sign(I, K) (S x S)^{|K|}
    for each block (J, K) of the regular representation, S =
    diag((-1)^grading), of shape (keys, keys, n, n); with ``even``, for the
    blocks of ``_even_keys`` alone."""
    _, index, sign, odd = _basis(algebra)
    s = np.array([(-1.0) ** g for g in grading])
    factor = sign[:, :, None, None] * np.where(odd[None, :, None, None], np.outer(s, s), 1.0)
    if even:
        kept = np.ix_(_even_keys(algebra), _even_keys(algebra))
        return index[kept], factor[kept]
    return index, factor


class FormElement:
    """Homogeneous-by-degree container for an element of the algebra.

    ``data`` maps a key (generator bitmask for FormalPoint, form degree
    for CircleBase) to the complex coefficient (a scalar, or a grid
    array for CircleBase).
    """

    def __init__(self, algebra, data=None):
        self.algebra = algebra
        self.data = {}
        if data:
            for key, val in data.items():
                val = np.asarray(val, dtype=complex) if isinstance(algebra, CircleBase) else complex(val)
                if isinstance(algebra, CircleBase) and val.shape != (algebra.grid_size,):
                    raise AlgebraError("CircleBase coefficient has wrong grid shape")
                if algebra.key_degree(key) > algebra.max_degree:
                    continue
                self.data[key] = val

    # ---- ring structure -------------------------------------------------

    def __add__(self, other: "FormElement") -> "FormElement":
        _check_same_algebra(self, other)
        out = dict(self.data)
        for key, val in other.data.items():
            out[key] = out[key] + val if key in out else val
        return FormElement(self.algebra, out)

    def __sub__(self, other: "FormElement") -> "FormElement":
        return self + (other * (-1.0))

    def __mul__(self, c) -> "FormElement":
        if isinstance(c, FormElement):
            return self.wedge(c)
        return FormElement(self.algebra, {k: v * c for k, v in self.data.items()})

    __rmul__ = __mul__

    def wedge(self, other: "FormElement") -> "FormElement":
        """Product as 1 x 1 form-valued matrices of even grading."""
        _check_same_algebra(self, other)
        prod = (self._as_matrix() @ other._as_matrix()).coeffs[..., 0, 0]  # ([grid,] keys)
        return FormElement.from_vector(self.algebra, prod.T.ravel())

    def _as_matrix(self) -> "FormMatrix":
        return FormMatrix(self.algebra, 1, (0,),
                          {k: np.asarray(v)[..., None, None] for k, v in self.data.items()})

    # ---- inspection -----------------------------------------------------

    def degree_component(self, degree: int) -> "FormElement":
        keep = {k: v for k, v in self.data.items() if self.algebra.key_degree(k) == degree}
        return FormElement(self.algebra, keep)

    def coefficient(self, key=0):
        """Raw coefficient for a key (0.0 if absent)."""
        if key in self.data:
            return self.data[key]
        if isinstance(self.algebra, CircleBase):
            return np.zeros(self.algebra.grid_size, dtype=complex)
        return 0.0 + 0.0j

    def norm(self) -> float:
        return max((float(np.max(np.abs(v))) for v in self.data.values()), default=0.0)

    def max_imag(self) -> float:
        return max((float(np.max(np.abs(np.imag(v)))) for v in self.data.values()), default=0.0)

    def to_vector(self) -> np.ndarray:
        """Flatten all coefficients into one complex vector: basis keys in
        order, each followed by its grid on a circle."""
        return np.concatenate([np.ravel(self.coefficient(k)) for k in _basis(self.algebra)[0]])

    @staticmethod
    def from_vector(algebra, vec: np.ndarray) -> "FormElement":
        keys = _basis(algebra)[0]
        parts = np.split(np.asarray(vec, dtype=complex), len(keys))
        if not isinstance(algebra, CircleBase):
            parts = [p[0] for p in parts]
        return FormElement(algebra, dict(zip(keys, parts)))


class FormMatrix:
    """Square matrix with entries in a form algebra, carrying a grading.

    Built from a dict of ``(n, n)`` blocks (FormalPoint) or ``(grid, n, n)``
    blocks (CircleBase) by key, behind optional leading stack axes that
    broadcast; keys above the top degree are dropped.  Stored as one array
    ``coeffs`` of shape ``(*stack, [grid,] keys, n, n)``, in ``_basis``
    order with absent blocks zero.  ``grading`` lists the integer degree
    of each basis index; it defines the supertrace sign and the number
    operator.
    """

    def __init__(self, algebra, size: int, grading, data=None):
        self.algebra = algebra
        self.size = int(size)
        self.grading = tuple(int(g) for g in grading)
        if len(self.grading) != self.size:
            raise AlgebraError("grading length must equal matrix size")
        grid = (algebra.grid_size,) if isinstance(algebra, CircleBase) else ()
        expected = grid + (self.size, self.size)
        data = {key: np.asarray(block, dtype=complex) for key, block in (data or {}).items()}
        for block in data.values():
            if block.shape[-len(expected):] != expected:
                raise AlgebraError(f"block shape {block.shape}, expected {expected}")
        # keys above the top degree are not basis keys, so they drop out here
        blocks = [data.get(key, np.zeros(expected, dtype=complex)) for key in _basis(algebra)[0]]
        lead = np.broadcast_shapes(*(b.shape for b in blocks))
        self.coeffs = np.stack([np.broadcast_to(b, lead) for b in blocks], axis=-3)

    # ---- constructors ---------------------------------------------------

    @staticmethod
    def identity(algebra, size, grading) -> "FormMatrix":
        return FormMatrix.from_plain(algebra, np.eye(size), grading)

    @staticmethod
    def from_plain(algebra, mat: np.ndarray, grading) -> "FormMatrix":
        """Wrap an ordinary complex matrix as the degree-0 part."""
        mat = np.asarray(mat, dtype=complex)
        if isinstance(algebra, CircleBase) and mat.ndim == 2:
            mat = np.broadcast_to(mat, (algebra.grid_size,) + mat.shape)
        return FormMatrix(algebra, mat.shape[-1], grading, {0: mat})

    def _like(self, coeffs) -> "FormMatrix":
        """Same algebra, size and grading, with coefficients already laid out."""
        out = object.__new__(FormMatrix)
        out.algebra, out.size, out.grading = self.algebra, self.size, self.grading
        out.coeffs = coeffs
        return out

    # ---- regular representation -----------------------------------------

    def regular(self, even: bool = False) -> np.ndarray:
        """This matrix as left multiplication on (forms) x C^n.

        An ordinary matrix of size n * (number of basis forms), behind the
        coefficients' leading axes (stack axes, then the circle's grid).
        Block (J, K) is sign(I, K) S^{|K|} M_I S^{|K|} where xi_I xi_K =
        sign(I, K) xi_J, so block column 0 lists the blocks M_I in
        coefficient order.  With ``even``, only the blocks of the keys of
        degree at most 2 floor(max_degree / 2): the representation on the
        quotient by the forms of higher degree.
        """
        if self.coeffs.shape[-3] == 1:  # a one-key algebra: the block itself
            return self.coeffs[..., 0, :, :]
        index, factor = _regular_tables(self.algebra, self.grading, even)
        if len(index) == 1:  # key 0 alone kept: the block itself
            return self.coeffs[..., 0, :, :]
        n, nk, lead = self.size, len(index), self.coeffs.shape[:-3]
        padded = np.concatenate([self.coeffs, np.zeros(lead + (1, n, n), dtype=complex)], axis=-3)
        blocks = padded[..., index, :, :] * factor
        return np.swapaxes(blocks, -3, -2).reshape(lead + (nk * n, nk * n))

    def from_regular(self, rep: np.ndarray) -> "FormMatrix":
        """The matrix over this one's algebra, of its size and grading,
        whose regular representation (or that representation's first
        block column) is ``rep``."""
        n, nk = self.size, len(_basis(self.algebra)[0])
        # a copy, unless rep is that column: coeffs holds no view of a whole rep
        col = np.ascontiguousarray(rep[..., :n])
        return self._like(col.reshape(col.shape[:-2] + (nk, n, n)))

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        _check_same_algebra(self, other)
        if self.size != other.size:
            raise AlgebraError("size mismatch in matrix sum")
        return self._like(self.coeffs + other.coeffs)

    def __mul__(self, c) -> "FormMatrix":
        return self._like(self.coeffs * c)

    __rmul__ = __mul__

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        """Product in the super tensor algebra of forms and endomorphisms.

        When the right factor has odd form degree, the left factor picks
        up a Koszul sign on its parity-odd entries (the entry's
        endomorphism parity moves past the form coefficient); the regular
        representation carries that sign.  The right factor enters as its
        first block column, which is its ``coeffs``.
        """
        _check_same_algebra(self, other)
        if self.size != other.size:
            raise AlgebraError("size mismatch in matrix product")
        if not (self.coeffs.any() and other.coeffs.any()):
            shape = np.broadcast_shapes(self.coeffs.shape, other.coeffs.shape)
            return self._like(np.zeros(shape, dtype=complex))
        col = other.coeffs.reshape(other.coeffs.shape[:-3] + (-1, other.size))
        return self.from_regular(self.regular() @ col)

    # ---- inspection -----------------------------------------------------

    def block(self, key=0) -> np.ndarray:
        keys = _basis(self.algebra)[0]
        if key in keys:
            return self.coeffs[..., keys.index(key), :, :]
        return np.zeros(self.coeffs.shape[:-3] + (self.size, self.size), dtype=complex)

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs), initial=0.0))

    def is_odd(self) -> bool:
        """Whether the matrix is odd in total parity (form degree plus
        grading): no block M_I has a nonzero entry (i, j) with
        |I| + g_i + g_j even.  An exact-zero test."""
        g = np.array(self.grading) % 2
        odd = _basis(self.algebra)[3]
        even_entry = (odd[:, None, None] ^ g[:, None] ^ g[None, :]) == 0
        return not self.coeffs[..., even_entry].any()


def regular_supertrace(algebra, reps: np.ndarray, weights) -> np.ndarray:
    """Weighted traces sum_i weights_i (M_I)_ii of every block M_I, for a
    stack of regular representations of shape (..., [grid,] N, N), or of
    their even parts (``regular(even=True)``), whose dropped keys get
    zero coefficients.

    Returns shape (..., number of coefficients), each row in
    ``FormElement.to_vector`` order.
    """
    n = len(weights)
    blocks = _key_rows(algebra, reps[..., :n], n)
    return _trace_rows(algebra, np.diagonal(blocks, axis1=-2, axis2=-1) @ weights)


def f_prime_supertrace(algebra, msq: np.ndarray, col: np.ndarray, weights) -> np.ndarray:
    """``regular_supertrace(algebra, (I + 2 msq) @ R, weights)`` without the
    product, for ``msq`` regular representations or their even parts,
    (..., [grid,] N, N), and any R with first block column C = ``col``,
    (..., N, n): with msq = a^2 and R = e^{a^2}, the supertrace of f'(a).
    Row bn + i of that column of the product meets column i in C_{bn+i, i}
    + 2 sum_j msq_{bn+i, j} C_{j, i}: N^2 products per slice, not N^3."""
    n = len(weights)
    diagonals = np.diagonal(_key_rows(algebra, col, n), axis1=-2, axis2=-1) + 2.0 * np.einsum(
        "...bij,...ji->...bi", _key_rows(algebra, msq, n), col)
    return _trace_rows(algebra, diagonals @ weights)


def f_prime_supertrace_at_zero(algebra, col: np.ndarray, weights) -> np.ndarray:
    """``f_prime_supertrace`` at a = 0 for an even-part representation:
    msq = 0 and e^0 = I, so with R's first block column C = ``col`` zero
    below its first block, the supertrace of f'(0) R is that of the block
    ``col`` (..., n, n) in the degree-0 coefficient, read without forming
    a regular representation."""
    n = len(weights)
    diagonals = np.zeros(col.shape[:-2] + (len(_even_keys(algebra)), n), dtype=complex)
    diagonals[..., 0, :] = np.diagonal(col, axis1=-2, axis2=-1)
    return _trace_rows(algebra, diagonals @ weights)


def _key_rows(algebra, rows: np.ndarray, n: int) -> np.ndarray:
    """Rows (..., K n, M) of K kept keys' blocks as (..., K, n, M); K is
    every key when n = 0."""
    keys = rows.shape[-2] // n if n else len(_basis(algebra)[0])
    return rows.reshape(rows.shape[:-2] + (keys, n, rows.shape[-1]))


def _trace_rows(algebra, traces: np.ndarray) -> np.ndarray:
    """Block traces (..., [grid,] kept keys) as rows in ``FormElement.to_vector``
    order; the keys that ``regular(even=True)`` drops get zeros."""
    nk = len(_basis(algebra)[0])
    if traces.shape[-1] < nk:
        full = np.zeros(traces.shape[:-1] + (nk,), dtype=traces.dtype)
        full[..., _even_keys(algebra)] = traces
        traces = full
    if isinstance(algebra, CircleBase):  # (..., grid, keys) -> (..., keys * grid)
        traces = np.swapaxes(traces, -1, -2)
        return traces.reshape(traces.shape[:-2] + (-1,))
    return traces


def phi_rescale(obj):
    """Multiply each degree-k component by (2 i pi)^{-k/2} (fixed branch)."""
    if isinstance(obj, FormMatrix):  # one broadcast by degree
        keys = _basis(obj.algebra)[0]
        factors = np.array([PHI_ROOT ** (-obj.algebra.key_degree(k)) for k in keys])
        return obj._like(obj.coeffs * factors[:, None, None])
    return FormElement(obj.algebra, {k: v * PHI_ROOT ** (-obj.algebra.key_degree(k))
                                     for k, v in obj.data.items()})


def _expm_pade(a: np.ndarray) -> np.ndarray:
    """exp of an (m, n, n) stack by degree-13 Pade scaling and squaring,
    with the number of squarings chosen per slice.

    The approximant is formed as I + (V - U)^{-1} 2U rather than
    (V - U)^{-1} (V + U), which keeps the relative accuracy of the small
    deviation from I when the exponent is small; the squarings then act
    on the approximant itself, so decayed modes keep theirs.
    """
    n = a.shape[-1]
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms, _THETA13) / _THETA13)).astype(int)
    # decreasing squarings, so that each squaring acts on a leading block
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    a = a[order] * np.ldexp(1.0, -squarings)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    powers = np.stack([np.broadcast_to(np.eye(n), a.shape), a2, a4, a4 @ a2])
    # the four even polynomials, as one real product
    even = (_PADE13_EVEN @ powers.view(float).reshape(4, -1)).view(complex).reshape(powers.shape)
    u = a @ (powers[3] @ even[0] + even[1])
    v = powers[3] @ even[2] + even[3]
    r = np.linalg.solve(v - u, 2.0 * u) + powers[0]
    for k in range(squarings[0]):
        head = r[:np.count_nonzero(squarings > k)]
        head[...] = head @ head
    return r[np.argsort(order)]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack of shape (..., n, n).

    Exactly diagonal slices get the exponential of their diagonal; the
    rest go through ``_expm_pade`` in chunks of ``EXPM_CHUNK`` slices.
    """
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite entries in matrix exponential")
    n = a.shape[-1]
    out = np.zeros(a.shape, dtype=complex)
    if n == 0:
        return out
    m = math.prod(a.shape[:-2])
    flat, out = a.reshape((m, n, n)), out.reshape((m, n, n))
    # off-diagonal entries: drop the last, and the rest fall in columns 1..n
    diagonal = ~flat.reshape(m, n * n)[:, :-1].reshape(m, n - 1, n + 1)[:, :, 1:].any(axis=(1, 2))
    ii = np.arange(n)
    rows = np.nonzero(diagonal)[0][:, None]
    out[rows, ii, ii] = np.exp(flat[rows, ii, ii])
    rest = np.nonzero(~diagonal)[0]
    for lo in range(0, len(rest), EXPM_CHUNK):
        sel = rest[lo:lo + EXPM_CHUNK]
        out[sel] = _expm_pade(flat[sel])
    return out.reshape(a.shape)


def matrix_function(m, which: str):
    """Evaluate exp, f(a) = a e^{a^2} or f'(a) = (1+2a^2) e^{a^2} at a matrix.

    ``m`` is a ``FormMatrix``, whose exponential is taken in its regular
    representation, or an ndarray of shape ``(..., n, n)`` holding a
    stack of matrices, evaluated all at once.
    """
    if isinstance(m, FormMatrix):
        ident = FormMatrix.identity(m.algebra, m.size, m.grading)

        def expm(a):  # exp(0) = I
            return a.from_regular(_expm(a.regular())) if a.coeffs.any() else ident
    else:
        m = np.asarray(m, dtype=complex)
        expm, ident = _expm, np.eye(m.shape[-1])
    if which == "exp":
        return expm(m)
    msq = m @ m
    emsq = expm(msq)
    if which == "f":
        return m @ emsq
    if which == "f_prime":
        return (ident + 2.0 * msq) @ emsq
    raise ValueError(f"unknown matrix function {which!r}")


def exterior_d(elem: FormElement) -> FormElement:
    """d on the circle algebra: functions map to derivative-times-dtheta."""
    alg = elem.algebra
    if not isinstance(alg, CircleBase):
        raise AlgebraError("exterior_d requires a CircleBase algebra")
    out = {}
    if 0 in elem.data:
        out[1] = alg.derivative(elem.data[0])
    return FormElement(alg, out)
