"""Reference values computed apart from torsionlab.

Nothing here imports the library: every oracle works from the raw input
arrays (differentials, metrics, holonomy angles, family parameters) with
numpy, the standard library and mpmath, so a fault in the library cannot
also hide in the reference it is checked against.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

# Errors below this are reported at the floor when turned into digits of
# accuracy; it sits at double precision for the O(1) values checked here.
ERROR_FLOOR = 1e-16


def hermitian_sqrt(h: np.ndarray) -> np.ndarray:
    """S with S = S^H and S S = h, for a Hermitian positive h."""
    w, u = np.linalg.eigh(h)
    return (u * np.sqrt(w)) @ u.conj().T


def log_singular_values(m: np.ndarray, rank: int | None = None) -> float:
    """Sum of log of the nonzero singular values of m.

    ``rank`` names how many are nonzero when the caller built the map and
    knows it; otherwise singular values above 1e-8 of the largest count.
    """
    if min(m.shape) == 0:
        return 0.0
    s = np.linalg.svd(m, compute_uv=False)
    if rank is None:
        rank = int(np.sum(s > 1e-8 * max(s[0], 1.0)))
    return float(np.sum(np.log(s[:rank])))


def point_torsion(v, h, ranks=None, grading_offset: int = 0) -> float:
    """Degree-zero torsion of a point-base complex from singular values.

    T = -sum_q (-1)^q sum log sigma(w_q), where w_q = S_{q+1} v_q S_q^{-1}
    is the differential in metric-orthonormal coordinates (S_q^2 = h_q).
    It equals half the alternating number-weighted sum of log det' of
    the Laplacians, without forming a Laplacian.
    """
    roots = [hermitian_sqrt(np.asarray(hq, dtype=complex)) if len(hq) else None
             for hq in h]
    total = 0.0
    for q, vq in enumerate(v):
        vq = np.asarray(vq, dtype=complex)
        if min(vq.shape) == 0:
            continue
        w = roots[q + 1] @ vq @ np.linalg.inv(roots[q])
        rank = None if ranks is None else ranks[q]
        total -= (-1.0) ** (grading_offset + q) * log_singular_values(w, rank)
    return total


def two_term_torsion(tau: np.ndarray) -> float:
    """-log|det tau|: the normalization of a two-term complex with
    orthonormal metrics."""
    return -float(np.linalg.slogdet(tau)[1])


def log_det_metric(h: np.ndarray) -> np.ndarray:
    """log det of a Hermitian positive matrix, or of a stack of them."""
    return np.sum(np.log(np.linalg.eigvalsh(h)), axis=-1)


def circle_fiber_torsion(tau: np.ndarray, h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """Degree-zero torsion of tau: E0 -> E1 at each grid point of a circle.

    With metric families h0(theta), h1(theta) the fiberwise two-term
    torsion is -log|det tau| - (1/2) log det h1 + (1/2) log det h0.
    """
    return two_term_torsion(tau) - 0.5 * log_det_metric(h1) + 0.5 * log_det_metric(h0)


def tilde_f_degree0(h0, h1, grading_offset: int = 0) -> float:
    """Degree-zero part of the metric comparison class:
    (1/2) sum_q (-1)^q log(det h1_q / det h0_q)."""
    total = 0.0
    for q, (a, b) in enumerate(zip(h0, h1)):
        if len(a) == 0:
            continue
        total += 0.5 * (-1.0) ** (grading_offset + q) * float(
            log_det_metric(np.asarray(b)) - log_det_metric(np.asarray(a)))
    return total


def fourier_derivative(values: np.ndarray, circumference: float) -> np.ndarray:
    """Spectral d/dtheta of a periodic grid function (grid along axis 0).

    Exact, up to rounding, for trigonometric polynomials of degree below
    half the grid size.  Frequencies follow numpy's fftfreq.
    """
    n = values.shape[0]
    freqs = 2j * np.pi * np.fft.fftfreq(n, d=circumference / n)
    shape = (n,) + (1,) * (values.ndim - 1)
    return np.fft.ifft(np.fft.fft(values, axis=0) * freqs.reshape(shape), axis=0)


def circle_char_form(h0: np.ndarray, h1: np.ndarray, circumference: float) -> np.ndarray:
    """dtheta part of the odd characteristic form of a two-term complex on
    a circle grid: (1/2) str(h^{-1} h') = (1/2) [tr(h0^{-1} h0') - tr(h1^{-1} h1')],
    with h' the spectral derivative of the sampled metric families.

    Higher powers of the one-form h^{-1} dh vanish on a circle, so this is
    the whole degree-1 part of the rescaled supertrace of f(omega/2).
    """
    def trace_log_derivative(h):
        dh = fourier_derivative(h, circumference)
        return np.trace(np.linalg.solve(h, dh), axis1=-2, axis2=-1)

    return 0.5 * (trace_log_derivative(h0) - trace_log_derivative(h1))


def circle_torsion(angles, length: float) -> float:
    """Analytic torsion of a flat circle of the given length.

    -sum_j log|2 sin(theta_j / 2)| over the non-trivial holonomy angles,
    plus -log L for each trivial one.  ``angles`` must be exactly 0 for
    the trivial directions.
    """
    total = 0.0
    for theta in angles:
        if theta == 0.0:
            total -= math.log(length)
        else:
            total -= math.log(abs(2.0 * math.sin(0.5 * theta)))
    return total


def interval_torsion(rank: int, length: float, bc: str) -> float:
    """Analytic torsion of an interval with a trivial rank-r bundle.

    Absolute or relative conditions at both ends give -(1/2) r log 2L.
    Absolute at one end and relative at the other ("mixed") has the
    spectrum (pi (n + 1/2) / L)^2, whose log det is log 2, so the
    torsion is -(1/2) r log 2 whatever the length.
    """
    if bc == "mixed":
        return -0.5 * rank * LOG2
    return -0.5 * rank * math.log(2.0 * length)


def family_log_det(c: float, a: float, mult: int) -> float:
    """log det' of the eigenvalue family (c (n + a))^2, n >= 0.

    Equals -zeta'(0) for zeta(s) = mult c^{-2s} zeta_H(2s, a), evaluated
    with mpmath's Hurwitz zeta at 30 digits.
    """
    import mpmath

    with mpmath.workdps(30):
        z0 = mpmath.zeta(0, a)
        dz0 = mpmath.zeta(0, a, 1)
        value = -mult * (-2 * mpmath.log(c) * z0 + 2 * dz0)
        return float(value)


def rank(m: np.ndarray) -> int:
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > 1e-8 * max(s[0], 1.0)))


def cohomology_dims(dims, v) -> list:
    """dim H^q = dim E^q - rank v_q - rank v_{q-1}."""
    ranks = [rank(np.asarray(m)) for m in v]
    out = []
    for q, d in enumerate(dims):
        out.append(d - (ranks[q] if q < len(ranks) else 0) - (ranks[q - 1] if q else 0))
    return out


def total_complex(dims, dv, hv, h):
    """Total complex of a double complex: total degree n = p + q, with
    differential dv + hv and the direct-sum metric.

    ``dims[p][q]`` are the dimensions; ``dv(p, q)``, ``hv(p, q)`` and
    ``h(p, q)`` return the vertical and horizontal maps and the metric.
    """
    P, Q = len(dims), len(dims[0])
    nmax = P + Q - 2
    place, tot = {}, [0] * (nmax + 1)
    for n in range(nmax + 1):
        for p in range(P):
            q = n - p
            if 0 <= q < Q:
                place[(p, q)] = tot[n]
                tot[n] += dims[p][q]
    v = [np.zeros((tot[n + 1], tot[n]), dtype=complex) for n in range(nmax)]
    metric = [np.zeros((tot[n], tot[n]), dtype=complex) for n in range(nmax + 1)]
    for (p, q), off in place.items():
        d = dims[p][q]
        n = p + q
        metric[n][off:off + d, off:off + d] = h(p, q)
        if q + 1 < Q:
            dst = place[(p, q + 1)]
            v[n][dst:dst + dims[p][q + 1], off:off + d] += dv(p, q)
        if p + 1 < P:
            dst = place[(p + 1, q)]
            v[n][dst:dst + dims[p + 1][q], off:off + d] += hv(p, q)
    return tot, v, metric


def digits(error: float, tolerance: float) -> float:
    """log10(tolerance / error), with the error held at ERROR_FLOOR."""
    return math.log10(tolerance / max(abs(error), ERROR_FLOOR))
