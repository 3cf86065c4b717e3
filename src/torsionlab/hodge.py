"""Finite-dimensional Hodge theory for metric complexes.

Provides harmonic representatives, induced metrics on cohomology, and the
eigenvalue route to the degree-zero torsion:

    (1/2) sum_q (-1)^q q log det' Delta_q = sum_q (-1)^(q+1) sum_i log s_{q,i}

with det' the product of nonzero eigenvalues and s_{q,i} the nonzero
singular values of the q-th differential in metric-orthonormal
coordinates, whose squares are those eigenvalues.  The route reads the
singular values, never the Laplacians.  This is the closed-form
cross-check for the quadrature-based torsion form.  Given a degree-wise
involution phi commuting with the differential, the same route gives the
equivariant torsion: each log s is weighted by the diagonal of phi at the
mode's right singular vector, which sums to tr(phi log' Delta_q).
"""

from __future__ import annotations

import numpy as np

from .algebra import CircleBase
from .complexes import MetricComplex, _chi_sums, rank_split, ranked_svd

__all__ = [
    "cohomology_class_basis",
    "harmonic_representatives",
    "induced_gram",
    "scalar_torsion_eigen",
    "chi_primes",
    "IllConditionedError",
]


class IllConditionedError(RuntimeError):
    """A differential's numerical rank in metric-orthonormal coordinates
    differs from its rank in the stored coordinates."""


def _require_point_base(E: MetricComplex):
    if isinstance(E.base, CircleBase):
        raise ValueError("the eigenvalue route and harmonic representatives are "
                         "implemented for point-base complexes")


def _scale(E: MetricComplex) -> float:
    """max_q |v_q| (Frobenius), the scale of E's rank cuts."""
    return max([np.linalg.norm(vq) for vq in E.v], default=1.0)


def cohomology_class_basis(E: MetricComplex):
    """Metric-independent cocycle representatives of a cohomology basis.

    Computed from the differential alone (standard inner product), so
    the same class basis can be reused under different metrics.
    """
    scale = _scale(E)
    out = []
    for q, d in enumerate(E.dims):
        if d == 0:
            out.append(np.zeros((0, 0), dtype=complex))
            continue
        # v_q's factors give the kernel here and the image in degree q + 1
        kernel = (E.rank_split(q, scale) if q < len(E.v)
                  else rank_split(np.zeros((0, d), dtype=complex)))[1]
        image = E.rank_split(q - 1, scale)[0] if q > 0 else np.zeros((d, 0), dtype=complex)
        # part of the kernel transverse to the image
        proj = kernel - image @ (image.conj().T @ kernel)
        # a kernel inside the image leaves no classes, and no SVD to take
        out.append(rank_split(proj, 1.0)[0] if proj.any() else np.zeros((d, 0), dtype=complex))
    return out


def harmonic_representatives(E: MetricComplex, class_basis=None):
    """h-harmonic representatives of the given cocycle classes, per degree."""
    _require_point_base(E)
    if class_basis is None:
        class_basis = cohomology_class_basis(E)
    scale = _scale(E)
    out = []
    for q, z in enumerate(class_basis):
        if z.shape[1] == 0 or q == 0 or min(E.v[q - 1].shape) == 0:
            out.append(z.copy())
            continue
        # work with the thresholded image so that a numerically negligible
        # differential cannot leak spurious directions into the projection
        lift = E.rank_split(q - 1, scale)[0]
        if lift.shape[1] == 0:
            out.append(z.copy())
            continue
        lh = E.frame(q)[0]
        a, *_ = np.linalg.lstsq(lh @ lift, lh @ z, rcond=None)
        out.append(z - lift @ a)
    return out


def induced_gram(E: MetricComplex, class_basis=None):
    """Gram matrices of the metric induced on cohomology by harmonic theory."""
    reps = harmonic_representatives(E, class_basis)
    return [r.conj().T @ hq @ r for r, hq in zip(reps, E.h)]


def scalar_torsion_eigen(E: MetricComplex, involution=None) -> float:
    """Degree-zero torsion from singular values (closed-form route).

    Each differential is taken to orthonormal coordinates, v~_q =
    L_{q+1}^H v_q L_q^{-H}, and degree q contributes (-1)^(q+1) times the
    sum of the logs of its nonzero singular values.  Its numerical rank
    must equal the rank of v_q that ``betti()`` counts; otherwise a zero
    mode is unresolved and ``IllConditionedError`` names the singular
    values on both sides of the cut.

    With a degree-wise ``involution`` phi (commuting with the differential,
    isometric) this is the equivariant torsion of phi: each log s weights
    by Re r^H phi r at its right singular vector r in orthonormal
    coordinates, so degree q of the Laplacian sum contributes
    tr(phi log' Delta_q).  None means the identity element.
    """
    _require_point_base(E)
    betti = E.betti()
    total, rank = 0.0, 0
    for q, vq in enumerate(E.v):
        rank = E.dims[q] - betti[q] - rank
        if vq.size == 0:  # no modes, and betti() gives it rank 0
            continue
        (lh, lh_inv), (lh_out, lh_out_inv) = E.frame(q), E.frame(q + 1)
        if lh is lh_inv and lh_out is lh_out_inv:
            # both frames are the identity, and I v I is v: read v's factors
            _, s, vh, found = E.ranked_svd(q)
        else:
            _, s, vh, found = ranked_svd(lh_out @ vq @ lh_inv)
        if found != rank:
            above = s[found - 1] if found else np.inf
            below = s[found] if found < len(s) else 0.0
            raise IllConditionedError(
                f"degree {q}: v has rank {rank} but rank {found} in orthonormal "
                f"coordinates (singular values {above:.3e} | {below:.3e} at the cut)")
        logs = np.log(s[:rank])
        if involution is not None:
            # phi in orthonormal coordinates y = L^H x: L^H phi L^{-H}
            phi = lh @ involution[q] @ lh_inv
            r = vh[:rank].conj().T
            logs = np.einsum("ij,ik,kj->j", r.conj(), phi, r).real * logs
        total += (-1.0) ** (E.grading_offset + q + 1) * float(np.sum(logs))
    return total


def chi_primes(E: MetricComplex):
    """Alternating sums over ranks: (chi, chi', d(E), d(H(E))), where
    chi' = d(H(E))."""
    d_E, d_H, betti = _chi_sums(E)
    chi = sum(((-1) ** (E.grading_offset + i)) * b for i, b in enumerate(betti))
    return chi, d_H, d_E, d_H
