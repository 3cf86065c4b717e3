"""Coefficient algebras for desk-scale differential forms.

Two base algebras are supported:

* ``FormalPoint`` -- the exterior algebra on a handful of anticommuting
  generators over the complex numbers (a point base with formal form
  directions), optionally truncated above a degree.
* ``CircleBase`` -- functions sampled on a uniform grid over a circle of
  given circumference, together with function-times-dtheta one-forms.
  Derivatives are spectral (FFT), so smooth data differentiates to
  machine precision.

On top of either algebra we provide matrices with entries in the algebra
(``FormMatrix``), a supertrace against an integer grading, the
normalization operator ``phi_rescale`` and the entire functions
``exp``, ``f(a) = a e^{a^2}`` and ``f'(a) = (1 + 2a^2) e^{a^2}`` of a
matrix argument.

All form-valued arithmetic goes through one representation, the regular
representation: ``sum_I xi_I M_I`` acts on (forms) x C^n by left
multiplication, xi_K x ``x`` -> sign(I, K) xi_{I u K} x S^{|K|} M_I S^{|K|} x,
with S = diag((-1)^grading) carrying the Koszul sign.  That is an
ordinary matrix of size n * (number of basis forms): 2n on a circle,
where A + B dtheta becomes [[A, 0], [B, S A S]] at each grid point (Van
Loan 1978), and n 2^k on ``FormalPoint(k)``, fewer under truncation.
Its first block column holds the blocks M_I themselves.  Products of
form-valued matrices and of forms are products of these matrices, and
exp, f and f' of a form-valued matrix are ordinary matrix functions.  One
kernel evaluates the exponential of a whole stack of matrices at once by
Pade scaling and squaring (Higham 2005).
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
    "wedge_mul",
    "supertrace",
    "regular_supertrace",
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

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """Spectral d/dtheta along axis 0, the grid axis; any trailing
        axes (matrix indices) are carried along."""
        n = self.grid_size
        freqs = 2.0j * np.pi * np.fft.fftfreq(n) * n / self.circumference
        spec = np.fft.fft(values, axis=0)
        shape = [1] * values.ndim
        shape[0] = n
        return np.fft.ifft(spec * freqs.reshape(shape), axis=0)


def _check_same_algebra(a, b):
    if a.algebra != b.algebra:
        raise AlgebraError(f"algebra mismatch: {a.algebra} vs {b.algebra}")


def _merge_masks(m1: int, m2: int):
    """Koszul sign and union for two generator masks; None if they collide."""
    if m1 & m2:
        return None
    # count inversions: pairs (i in m1, j in m2) with i > j
    sign = 1
    m = m1
    while m:
        i = m & (-m)  # lowest set bit of the remainder of m1
        if bin(m2 & (i - 1)).count("1") % 2:
            sign = -sign
        m &= m - 1
    return sign, m1 | m2


@lru_cache(maxsize=32)
def _basis(algebra):
    """Basis keys in coefficient order, and the multiplication table.

    Keys are generator masks; the circle's keys 0 and dtheta = 1 multiply
    like the masks of one generator.  The table lists
    (key_i, k, j, sign, odd) with key_i key_k = sign key_j and odd the
    parity of key_k's degree, dropping products above the algebra's top
    degree.
    """
    top = 2 if isinstance(algebra, CircleBase) else 1 << algebra.n_generators
    keys = tuple(m for m in range(top) if algebra.key_degree(m) <= algebra.max_degree)
    index = {key: i for i, key in enumerate(keys)}
    table = []
    for k1 in keys:
        for k, k2 in enumerate(keys):
            merged = _merge_masks(k1, k2)
            if merged is not None and merged[1] in index:
                table.append((k1, k, index[merged[1]], merged[0], algebra.key_degree(k2) % 2))
    return keys, tuple(table)


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
        prod = self._as_matrix() @ other._as_matrix()
        return FormElement(self.algebra, {k: v[..., 0, 0] for k, v in prod.data.items()})

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

    ``data`` maps keys to ``(n, n)`` complex blocks (FormalPoint) or
    ``(grid, n, n)`` blocks (CircleBase).  ``grading`` lists the integer
    degree of each basis index; it defines the supertrace sign and the
    number operator.
    """

    def __init__(self, algebra, size: int, grading, data=None):
        self.algebra = algebra
        self.size = int(size)
        self.grading = tuple(int(g) for g in grading)
        if len(self.grading) != self.size:
            raise AlgebraError("grading length must equal matrix size")
        self.data = {}
        if data:
            for key, block in data.items():
                block = np.asarray(block, dtype=complex)
                expected = self._block_shape()
                if block.shape != expected:
                    raise AlgebraError(f"block shape {block.shape}, expected {expected}")
                if algebra.key_degree(key) > algebra.max_degree:
                    continue
                self.data[key] = block

    def _block_shape(self):
        if isinstance(self.algebra, CircleBase):
            return (self.algebra.grid_size, self.size, self.size)
        return (self.size, self.size)

    # ---- constructors ---------------------------------------------------

    @staticmethod
    def identity(algebra, size, grading) -> "FormMatrix":
        return FormMatrix.from_plain(algebra, np.eye(size), grading)

    @staticmethod
    def from_plain(algebra, mat: np.ndarray, grading) -> "FormMatrix":
        """Wrap an ordinary complex matrix as the degree-0 part."""
        mat = np.asarray(mat, dtype=complex)
        out = FormMatrix(algebra, mat.shape[-1], grading)
        if isinstance(algebra, CircleBase) and mat.ndim == 2:
            mat = np.broadcast_to(mat, (algebra.grid_size,) + mat.shape).copy()
        out.data[0] = mat
        return out

    def _like(self, data) -> "FormMatrix":
        """Same algebra, size and grading, with blocks already checked."""
        out = object.__new__(FormMatrix)
        out.algebra, out.size, out.grading, out.data = self.algebra, self.size, self.grading, data
        return out

    # ---- regular representation -----------------------------------------

    def regular(self) -> np.ndarray:
        """This matrix as left multiplication on (forms) x C^n.

        An ordinary matrix of size n * (number of basis forms), with the
        circle's grid as a leading axis.  Block (J, K) is
        sign(I, K) S^{|K|} M_I S^{|K|} where xi_I xi_K = sign(I, K) xi_J,
        so block column 0 lists the blocks M_I in coefficient order.
        """
        keys, table = _basis(self.algebra)
        if len(keys) == 1:  # no form generators: the block itself
            return self.block(0)
        n, nk = self.size, len(keys)
        lead = self._block_shape()[:-2]
        out = np.zeros(lead + (nk, n, nk, n), dtype=complex)
        s = np.array([(-1.0) ** g for g in self.grading])
        for key, k, j, sign, odd in table:
            blk = self.data.get(key)
            if blk is not None:
                if odd:
                    blk = blk * np.outer(s, s)
                out[..., j, :, k, :] = blk if sign > 0 else -blk
        return out.reshape(lead + (nk * n, nk * n))

    def from_regular(self, rep: np.ndarray) -> "FormMatrix":
        """The matrix over this one's algebra, of its size and grading,
        whose regular representation (or that representation's first
        block column) is ``rep``."""
        n = self.size
        keys = _basis(self.algebra)[0]
        return self._like({key: rep[..., i * n:(i + 1) * n, :n] for i, key in enumerate(keys)})

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        _check_same_algebra(self, other)
        out = {k: v.copy() for k, v in self.data.items()}
        for key, val in other.data.items():
            out[key] = out[key] + val if key in out else val.copy()
        return FormMatrix(self.algebra, self.size, self.grading, out)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self + (other * (-1.0))

    def __mul__(self, c) -> "FormMatrix":
        return self._like({k: v * c for k, v in self.data.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        """Product in the super tensor algebra of forms and endomorphisms.

        When the right factor has odd form degree, the left factor picks
        up a Koszul sign on its parity-odd entries (the entry's
        endomorphism parity moves past the form coefficient); the regular
        representation carries that sign.
        """
        _check_same_algebra(self, other)
        if self.size != other.size:
            raise AlgebraError("size mismatch in matrix product")
        if not (self.data and other.data):
            return self._like({})
        return self.from_regular(self.regular() @ other.regular()[..., :other.size])

    # ---- inspection -----------------------------------------------------

    def block(self, key=0) -> np.ndarray:
        if key in self.data:
            return self.data[key]
        return np.zeros(self._block_shape(), dtype=complex)

    def norm(self) -> float:
        return max((float(np.max(np.abs(v))) for v in self.data.values()), default=0.0)


def wedge_mul(a: FormMatrix, b: FormMatrix) -> FormMatrix:
    """Matrix product over the coefficient algebra."""
    return a @ b


def supertrace(m: FormMatrix) -> FormElement:
    """Sum of diagonal entries weighted by (-1)^{grading}."""
    signs = np.array([(-1.0) ** g for g in m.grading])
    return FormElement(m.algebra, {key: np.diagonal(blk, axis1=-2, axis2=-1) @ signs
                                   for key, blk in m.data.items()})


def regular_supertrace(algebra, reps: np.ndarray, weights) -> np.ndarray:
    """Weighted traces sum_i weights_i (M_I)_ii of every block M_I, for a
    stack of regular representations of shape (..., [grid,] N, N).

    Returns shape (..., number of coefficients), each row in
    ``FormElement.to_vector`` order.
    """
    weights = np.asarray(weights)
    n, nk = len(weights), len(_basis(algebra)[0])
    col = reps[..., :n]
    traces = np.diagonal(col.reshape(col.shape[:-2] + (nk, n, n)), axis1=-2, axis2=-1) @ weights
    if isinstance(algebra, CircleBase):  # (..., grid, keys) -> (..., keys * grid)
        traces = np.swapaxes(traces, -1, -2)
        return traces.reshape(traces.shape[:-2] + (-1,))
    return traces


def phi_rescale(obj):
    """Multiply each degree-k component by (2 i pi)^{-k/2} (fixed branch)."""
    data = {k: v * PHI_ROOT ** (-obj.algebra.key_degree(k)) for k, v in obj.data.items()}
    if isinstance(obj, FormMatrix):
        return obj._like(data)
    return FormElement(obj.algebra, data)


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
            return a.from_regular(_expm(a.regular())) if a.data else ident
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
