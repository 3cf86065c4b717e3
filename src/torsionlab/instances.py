"""Random desk-scale instances for tests and verification suites.

Everything is generated from a caller-supplied ``numpy.random.Generator``
so that verification runs are reproducible from a single seed.  All
instances are built well-conditioned by construction: differentials have
singular values in [1/2, 2] and metrics have eigenvalues in [1/2, 2], so
spectral gaps stay far away from the rank thresholds.
"""

from __future__ import annotations

import numpy as np

from .algebra import CircleBase
from .complexes import MetricComplex
from .spectral import DoubleComplexData

__all__ = [
    "random_unitary",
    "random_invertible",
    "random_metric",
    "random_differentials",
    "random_complex_instance",
    "random_acyclic_complex",
    "random_two_term",
    "random_circle_metric_family",
    "random_circle_two_term",
    "random_exact_row_double_complex",
    "random_exact_sequence",
]


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(_gaussian(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_invertible(rng, n: int, smin: float = 0.5, smax: float = 2.0) -> np.ndarray:
    """Random matrix with singular values drawn from [smin, smax]."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    s = rng.uniform(smin, smax, size=n)
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


def random_metric(rng, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Random Hermitian positive matrix with eigenvalues in [lo, hi]."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    u = random_unitary(rng, n)
    w = rng.uniform(lo, hi, size=n)
    return (u * w) @ u.conj().T


def _orthonormal_columns(rng, n: int, k: int, avoid: np.ndarray | None = None) -> np.ndarray:
    """k orthonormal columns in C^n, orthogonal to the columns of `avoid`."""
    g = _gaussian(rng, n, k)
    if avoid is not None and avoid.shape[1]:
        g = g - avoid @ (avoid.conj().T @ g)
    q, _ = np.linalg.qr(g)
    return q[:, :k]


def random_differentials(rng, dims, ranks):
    """Maps v_i with v_{i+1} v_i = 0 and prescribed ranks, singular values in [1/2, 2]."""
    v = []
    image = None
    for i in range(len(dims) - 1):
        r = ranks[i]
        if r == 0:
            v.append(np.zeros((dims[i + 1], dims[i]), dtype=complex))
            image = None
            continue
        src = _orthonormal_columns(rng, dims[i], r, avoid=image)
        dst = _orthonormal_columns(rng, dims[i + 1], r)
        s = rng.uniform(0.5, 2.0, size=r)
        v.append((dst * s) @ src.conj().T)
        image = dst
    return v


def random_complex_instance(rng, length: int | None = None, max_dim: int = 5,
                            identity_metric: bool = False) -> MetricComplex:
    """A random metric complex with v^2 = 0 and generic cohomology."""
    k = int(length) if length is not None else int(rng.integers(1, 5))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(k + 1)]
    ranks = []
    prev = 0
    for i in range(k):
        cap = min(dims[i] - prev, dims[i + 1])
        r = int(rng.integers(0, cap + 1)) if cap > 0 else 0
        ranks.append(r)
        prev = r
    v = random_differentials(rng, dims, ranks)
    h = [np.eye(d, dtype=complex) if identity_metric else random_metric(rng, d)
         for d in dims]
    return MetricComplex(dims, v, h).validate()


def random_acyclic_complex(rng, length: int | None = None, max_rank: int = 3,
                           identity_metric: bool = False) -> MetricComplex:
    """A random exact complex (every cohomology group vanishes)."""
    k = int(length) if length is not None else int(rng.integers(1, 5))
    ranks = [int(rng.integers(1, max_rank + 1)) for _ in range(k)]
    dims = [ranks[0]]
    for i in range(1, k):
        dims.append(ranks[i - 1] + ranks[i])
    dims.append(ranks[-1])
    v = random_differentials(rng, dims, ranks)
    h = [np.eye(d, dtype=complex) if identity_metric else random_metric(rng, d)
         for d in dims]
    E = MetricComplex(dims, v, h).validate()
    assert not any(E.betti())
    return E


def random_two_term(rng, n: int, identity_metric: bool = True) -> MetricComplex:
    """A two-term acyclic complex given by an invertible map."""
    tau = random_invertible(rng, n)
    h = [np.eye(n, dtype=complex)] * 2 if identity_metric else \
        [random_metric(rng, n), random_metric(rng, n)]
    return MetricComplex([n, n], [tau], h)


# ---- circle-base instances ----------------------------------------------


def random_circle_metric_family(rng, alg: CircleBase, d: int,
                                modes: int = 2, amplitude: float = 0.6) -> np.ndarray:
    """Smooth positive metric family h(theta), shape (grid, d, d).

    Built as the exponential of a Hermitian trigonometric polynomial, so
    it is uniformly positive and band-limited (safe for FFT derivatives).
    """
    theta = alg.theta * (2.0 * np.pi / alg.circumference)
    s = np.zeros((alg.grid_size, d, d), dtype=complex)
    for k in range(1, modes + 1):
        a = _gaussian(rng, d, d)
        b = _gaussian(rng, d, d)
        a = 0.5 * (a + a.conj().T)
        b = 0.5 * (b + b.conj().T)
        scale = amplitude / (modes * np.sqrt(d))
        s += scale * (np.cos(k * theta)[:, None, None] * a
                      + np.sin(k * theta)[:, None, None] * b)
    const = 0.3 * _gaussian(rng, d, d)
    s += (const + const.conj().T)[None]
    w, u = np.linalg.eigh(s)
    return (u * np.exp(w)[..., None, :]) @ np.swapaxes(u.conj(), -2, -1)


def random_circle_two_term(rng, grid: int = 64, rank: int | None = None,
                           circumference: float = 2.0 * np.pi) -> MetricComplex:
    """Acyclic two-term complex over a circle with a smooth metric family."""
    alg = CircleBase(grid, circumference)
    r = int(rank) if rank is not None else int(rng.integers(1, 3))
    tau = random_invertible(rng, r)
    h = [random_circle_metric_family(rng, alg, r),
         random_circle_metric_family(rng, alg, r)]
    return MetricComplex([r, r], [tau], h, base=alg)


# ---- double complexes ---------------------------------------------------


def _twist_blocks(rng, da_seq, dc_seq, dims_a, dims_c):
    """Solve dA_{q+1} X_q + X_{q+1} dC_q = 0 for a random family X."""
    Q = len(dims_a)
    # unknowns: X_q of shape (dims_a[q+1], dims_c[q]) for q = 0..Q-2
    shapes = [(dims_a[q + 1], dims_c[q]) for q in range(Q - 1)]
    total = sum(r * c for r, c in shapes)
    if total == 0:
        return [np.zeros(s, dtype=complex) for s in shapes]
    offs, acc = [], 0
    for r, c in shapes:
        offs.append(acc)
        acc += r * c
    rows = []
    # constraint per q (0..Q-3): dA_{q+1} X_q + X_{q+1} dC_q = 0
    for q in range(Q - 2):
        out_shape = (dims_a[q + 2], dims_c[q])
        m = np.zeros((out_shape[0] * out_shape[1], total), dtype=complex)
        ra, ca = shapes[q]
        # we vectorize row-major: vec(A X B) = (A kron B^T) vec(X)
        m[:, offs[q]:offs[q] + ra * ca] = np.kron(da_seq[q + 1], np.eye(ca))
        rb, cb = shapes[q + 1]
        m[:, offs[q + 1]:offs[q + 1] + rb * cb] = np.kron(np.eye(rb), dc_seq[q].T)
        rows.append(m)
    if rows:
        sys = np.concatenate(rows, axis=0)
        _, s, vh = np.linalg.svd(sys)
        rank = int(np.sum(s > 1e-10 * max(s[0] if len(s) else 0.0, 1.0)))
        null = vh[rank:].conj().T
    else:
        null = np.eye(total, dtype=complex)
    if null.shape[1] == 0:
        coeffs = np.zeros(total, dtype=complex)
    else:
        coeffs = null @ _gaussian(rng, null.shape[1], 1)[:, 0]
    scale = max(np.max(np.abs(coeffs)), 1e-12)
    coeffs = coeffs / scale
    out = []
    for (r, c), off in zip(shapes, offs):
        out.append(coeffs[off:off + r * c].reshape(r, c))
    return out


def random_exact_row_double_complex(rng, n_rows: int | None = None,
                                    max_dim: int = 3,
                                    identity_metric: bool = False) -> DoubleComplexData:
    """Three-column double complex with exact split rows.

    Column 1 is (a twisted extension of) the direct sum of columns 0 and
    2; the twist is drawn from the space of compatible off-diagonal
    blocks, so the induced connecting maps are generically nonzero.
    """
    Q = int(n_rows) if n_rows is not None else int(rng.integers(2, 4))
    dims_a = [int(rng.integers(1, max_dim + 1)) for _ in range(Q)]
    dims_c = [int(rng.integers(1, max_dim + 1)) for _ in range(Q)]

    def column_diff(dims):
        ranks, prev = [], 0
        for i in range(len(dims) - 1):
            cap = min(dims[i] - prev, dims[i + 1])
            r = int(rng.integers(0, cap + 1)) if cap > 0 else 0
            ranks.append(r)
            prev = r
        return random_differentials(rng, dims, ranks)

    da = column_diff(dims_a)
    dc = column_diff(dims_c)
    da_seq = da + [np.zeros((0, dims_a[-1]), dtype=complex)]
    dc_seq = dc + [np.zeros((0, dims_c[-1]), dtype=complex)]
    X = _twist_blocks(rng, da, dc, dims_a, dims_c)

    dims = [[dims_a[q] for q in range(Q)],
            [dims_a[q] + dims_c[q] for q in range(Q)],
            [dims_c[q] for q in range(Q)]]
    T = [random_invertible(rng, dims[1][q]) for q in range(Q)]
    M = [random_invertible(rng, dims_c[q]) for q in range(Q)]

    hv, dv, h = {}, {}, {}
    for q in range(Q):
        Tinv = np.linalg.inv(T[q])
        hv[(0, q)] = T[q][:, :dims_a[q]]
        hv[(1, q)] = M[q] @ Tinv[dims_a[q]:, :]
        if not identity_metric:
            for p in range(3):
                h[(p, q)] = random_metric(rng, dims[p][q])
    for q in range(Q - 1):
        dv[(0, q)] = da[q]
        dv[(2, q)] = M[q + 1] @ dc[q] @ np.linalg.inv(M[q])
        blk = np.zeros((dims[1][q + 1], dims[1][q]), dtype=complex)
        blk[:dims_a[q + 1], :dims_a[q]] = -da[q]
        blk[:dims_a[q + 1], dims_a[q]:] = X[q]
        blk[dims_a[q + 1]:, dims_a[q]:] = -dc[q]
        dv[(1, q)] = T[q + 1] @ blk @ np.linalg.inv(T[q])
    return DoubleComplexData(dims, dv, hv, h).validate()


def random_exact_sequence(rng, length: int | None = None,
                          start_dim: int | None = None,
                          end_dim: int | None = None) -> MetricComplex:
    """Random exact sequence, optionally pinning the first/last dimension."""
    k = int(length) if length is not None else int(rng.integers(1, 4))
    ranks = [int(rng.integers(1, 4)) for _ in range(k)]
    if start_dim is not None:
        ranks[0] = int(start_dim)
    if end_dim is not None:
        ranks[-1] = int(end_dim)
    dims = [ranks[0]]
    for i in range(1, k):
        dims.append(ranks[i - 1] + ranks[i])
    dims.append(ranks[-1])
    v = random_differentials(rng, dims, ranks)
    h = [random_metric(rng, d) for d in dims]
    return MetricComplex(dims, v, h).validate()
