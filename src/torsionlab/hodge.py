"""Finite-dimensional Hodge theory for metric complexes.

Provides per-degree Laplacians, harmonic subspaces, induced metrics on
cohomology, and the eigenvalue route to the degree-zero torsion:

    (1/2) sum_q (-1)^q q log det' Delta_q

with det' the product of nonzero eigenvalues.  This is the closed-form
cross-check for the quadrature-based torsion form.  Given a degree-wise
involution phi commuting with the differential, the same route gives the
equivariant torsion: each nonzero mode's log is weighted by the diagonal
of phi in the Laplacian eigenbasis, which sums to tr(phi log' Delta_q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CircleBase
from .complexes import MetricComplex, _chi_sums, numerical_rank, rank_split

__all__ = [
    "HodgeData",
    "hodge_decompose",
    "orthonormal_laplacians",
    "cohomology_class_basis",
    "harmonic_representatives",
    "induced_gram",
    "scalar_torsion_eigen",
    "chi_primes",
    "IllConditionedError",
]


class IllConditionedError(RuntimeError):
    """Kernel dimension of a Laplacian could not be resolved cleanly."""


def _require_point_base(E: MetricComplex):
    if isinstance(E.base, CircleBase):
        raise ValueError("Hodge decomposition is implemented for point-base complexes")


def _cholesky_frames(E: MetricComplex):
    """Cholesky factors L_q of the metrics; y = L^H x are orthonormal coords."""
    frames = []
    for hq in E.h:
        if hq.shape[0] == 0:
            frames.append(np.zeros((0, 0), dtype=complex))
            continue
        frames.append(np.linalg.cholesky(hq))
    return frames


def orthonormal_laplacians(E: MetricComplex):
    """Per-degree Laplacians in metric-orthonormal coordinates, and the
    Cholesky frames of the metrics."""
    frames = _cholesky_frames(E)
    # the differential in those coordinates: y_{q+1} = L_{q+1}^H v (L_q^H)^{-1} y_q
    vt = [frames[q + 1].conj().T @ vq @ np.linalg.inv(frames[q].conj().T)
          if min(vq.shape) else vq for q, vq in enumerate(E.v)]
    laplacians = []
    for q, d in enumerate(E.dims):
        lap = np.zeros((d, d), dtype=complex)
        if q < len(vt) and min(vt[q].shape) > 0:
            lap += vt[q].conj().T @ vt[q]
        if q > 0 and min(vt[q - 1].shape) > 0:
            lap += vt[q - 1] @ vt[q - 1].conj().T
        laplacians.append(lap)
    return laplacians, frames


@dataclass
class HodgeData:
    laplacians: list
    eigenvalues: list
    eigenvectors: list   # of the Laplacians, in orthonormal coordinates
    betti: tuple
    harmonics: list      # h-orthonormal harmonic bases, original coordinates
    frames: list         # Cholesky factors of the metrics


def hodge_decompose(E: MetricComplex) -> HodgeData:
    """Eigendecompose the per-degree Laplacians and split off the kernels."""
    _require_point_base(E)
    betti = E.betti()
    laplacians, frames = orthonormal_laplacians(E)
    eigenvalues, eigenvectors, harmonics = [], [], []
    for q, (d, lap) in enumerate(zip(E.dims, laplacians)):
        if d == 0:
            eigenvalues.append(np.zeros(0))
            eigenvectors.append(np.zeros((0, 0), dtype=complex))
            harmonics.append(np.zeros((0, 0), dtype=complex))
            continue
        w, u = np.linalg.eigh(lap)
        w = np.clip(w, 0.0, None)
        eigenvalues.append(w)
        eigenvectors.append(u)
        # w are eigenvalues of the Laplacian, i.e. squared singular values
        # of the differentials, cut here as if they were singular values
        kernel_dim = d - numerical_rank(w[::-1])
        if kernel_dim != betti[q]:
            gap = (w[kernel_dim - 1] if kernel_dim else 0.0,
                   w[kernel_dim] if kernel_dim < len(w) else np.inf)
            raise IllConditionedError(
                f"degree {q}: spectral kernel dim {kernel_dim} != rank-based "
                f"cohomology dim {betti[q]} (eigenvalue gap {gap})")
        # back to original coordinates: x = (L^H)^{-1} y
        basis = np.linalg.solve(frames[q].conj().T, u[:, :kernel_dim]) if kernel_dim else \
            np.zeros((d, 0), dtype=complex)
        harmonics.append(basis)
    return HodgeData(laplacians, eigenvalues, eigenvectors, betti, harmonics, frames)


def cohomology_class_basis(E: MetricComplex):
    """Metric-independent cocycle representatives of a cohomology basis.

    Computed from the differential alone (standard inner product), so
    the same class basis can be reused under different metrics.
    """
    scale = max([np.linalg.norm(vq) for vq in E.v], default=1.0)
    out = []
    for q, d in enumerate(E.dims):
        if d == 0:
            out.append(np.zeros((0, 0), dtype=complex))
            continue
        vq = E.v[q] if q < len(E.v) else np.zeros((0, d), dtype=complex)
        kernel = rank_split(vq, scale)[1]
        image = rank_split(E.v[q - 1], scale)[0] if q > 0 else np.zeros((d, 0), dtype=complex)
        # part of the kernel transverse to the image
        proj = kernel - image @ (image.conj().T @ kernel)
        out.append(rank_split(proj, 1.0)[0])
    return out


def harmonic_representatives(E: MetricComplex, class_basis=None):
    """h-harmonic representatives of the given cocycle classes, per degree."""
    _require_point_base(E)
    if class_basis is None:
        class_basis = cohomology_class_basis(E)
    frames = _cholesky_frames(E)
    scale = max([np.linalg.norm(vq) for vq in E.v], default=1.0)
    out = []
    for q, z in enumerate(class_basis):
        if z.shape[1] == 0 or q == 0 or min(E.v[q - 1].shape) == 0:
            out.append(z.copy())
            continue
        # work with the thresholded image so that a numerically negligible
        # differential cannot leak spurious directions into the projection
        lift = rank_split(E.v[q - 1], scale)[0]
        if lift.shape[1] == 0:
            out.append(z.copy())
            continue
        a, *_ = np.linalg.lstsq(frames[q].conj().T @ lift, frames[q].conj().T @ z, rcond=None)
        out.append(z - lift @ a)
    return out


def induced_gram(E: MetricComplex, class_basis=None):
    """Gram matrices of the metric induced on cohomology by harmonic theory."""
    reps = harmonic_representatives(E, class_basis)
    return [r.conj().T @ hq @ r for r, hq in zip(reps, E.h)]


def scalar_torsion_eigen(E: MetricComplex, involution=None) -> float:
    """Degree-zero torsion from Laplacian eigenvalues (closed-form route).

    With a degree-wise ``involution`` phi (commuting with the differential,
    isometric) this is the equivariant torsion of phi: each nonzero mode u
    weights its log by Re u^H phi u in orthonormal coordinates, so degree q
    contributes tr(phi log' Delta_q).  None means the identity element.
    """
    data = hodge_decompose(E)
    total = 0.0
    for q, w in enumerate(data.eigenvalues):
        # hodge_decompose has checked that the first betti[q] are the kernel
        nonzero = w[data.betti[q]:]
        g = E.grading_offset + q
        if len(nonzero):
            logs = np.log(nonzero)
            if involution is not None:
                # phi in orthonormal coordinates y = L^H x: L^H phi L^{-H}
                lh = data.frames[q].conj().T
                phi = lh @ involution[q] @ np.linalg.inv(lh)
                u = data.eigenvectors[q][:, data.betti[q]:]
                logs = np.einsum("ij,ik,kj->j", u.conj(), phi, u).real * logs
            total += 0.5 * ((-1.0) ** g) * g * float(np.sum(logs))
    return total


def chi_primes(E: MetricComplex):
    """Alternating sums over ranks: (chi, chi', d(E), d(H(E))), where
    chi' = d(H(E))."""
    d_E, d_H, betti = _chi_sums(E)
    chi = sum(((-1) ** (E.grading_offset + i)) * b for i, b in enumerate(betti))
    return chi, d_H, d_E, d_H
