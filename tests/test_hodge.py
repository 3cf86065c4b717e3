"""Tests for finite-dimensional Hodge theory and the eigenvalue route."""

import mpmath
import numpy as np
import pytest

from torsionlab import cli, complexes
from torsionlab.complexes import MetricComplex
from torsionlab.hodge import (
    IllConditionedError,
    chi_primes,
    cohomology_class_basis,
    harmonic_representatives,
    induced_gram,
    scalar_torsion_eigen,
)
from torsionlab.instances import (
    random_acyclic_complex,
    random_circle_two_term,
    random_complex_instance,
    random_invertible,
    random_metric,
    random_two_term,
    random_unitary,
)
from torsionlab.morse import Z2Complex, arc_data, double, doubled_complex


def laplacian_route(E, involution=None):
    """Reference for ``scalar_torsion_eigen``: eigh of each Laplacian
    Delta_q = v~^H v~ + v~ v~^H in orthonormal coordinates, with the first
    betti[q] eigenvalues taken as its kernel.  Returns the torsion
    (1/2) sum_q (-1)^q q tr(phi log' Delta_q) and h-orthonormal harmonic
    bases per degree."""
    betti = E.betti()
    lh = [np.linalg.cholesky(hq).conj().T for hq in E.h]
    vt = [lh[q + 1] @ vq @ np.linalg.inv(lh[q]) for q, vq in enumerate(E.v)]
    torsion, harmonics = 0.0, []
    for q, d in enumerate(E.dims):
        lap = np.zeros((d, d), dtype=complex)
        if q < len(vt):
            lap += vt[q].conj().T @ vt[q]
        if q > 0:
            lap += vt[q - 1] @ vt[q - 1].conj().T
        w, u = np.linalg.eigh(lap)
        logs = np.log(w[betti[q]:])
        if involution is not None:
            phi = lh[q] @ involution[q] @ np.linalg.inv(lh[q])
            modes = u[:, betti[q]:]
            logs = np.einsum("ij,ik,kj->j", modes.conj(), phi, modes).real * logs
        g = E.grading_offset + q
        torsion += 0.5 * (-1.0) ** g * g * float(np.sum(logs))
        harmonics.append(np.linalg.solve(lh[q], u[:, :betti[q]]))
    return torsion, harmonics


def invariant_doubled_complex(rng, rank):
    """A doubled arc complex under a random metric that its involution
    preserves, h = (h0 + phi^H h0 phi) / 2."""
    t1, t2 = random_unitary(rng, rank), random_unitary(rng, rank)
    C = doubled_complex(double(arc_data((t1, t2), rank=rank)))
    h = []
    for phi in C.involution:
        h0 = random_metric(rng, len(phi))
        h.append(0.5 * (h0 + phi.conj().T @ h0 @ phi))
    return Z2Complex(MetricComplex(C.complex.dims, C.complex.v, h), C.involution).validate()


def twisted_z2_complex(rng, length):
    """E (+) E, for an acyclic E under two random metrics, with
    phi = 1 (+) -1, moved by a random degree-wise change of basis g: phi
    has modes of both signs, and phi, v and h share no basis."""
    E = random_acyclic_complex(rng, length=length, max_rank=2)
    g = [random_invertible(rng, 2 * d) for d in E.dims]
    gi = [np.linalg.inv(x) for x in g]
    v = [g[q + 1] @ np.kron(np.eye(2), vq) @ gi[q] for q, vq in enumerate(E.v)]
    h = []
    for q, hq in enumerate(E.h):
        z = np.zeros_like(hq)
        h.append(gi[q].conj().T @ np.block([[hq, z], [z, random_metric(rng, len(hq))]]) @ gi[q])
    phi = [g[q] @ np.kron(np.diag([1.0, -1.0]), np.eye(d)) @ gi[q] for q, d in enumerate(E.dims)]
    return Z2Complex(MetricComplex([2 * d for d in E.dims], v, h), phi).validate()


class TestClassBasis:
    def test_metric_independent(self):
        rng = np.random.default_rng(3)
        E = random_complex_instance(rng, length=3, max_dim=4)
        other = E.with_metric([random_metric(rng, d) for d in E.dims])
        b1 = cohomology_class_basis(E)
        b2 = cohomology_class_basis(other)
        for a, b in zip(b1, b2):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_spans_match_betti_and_are_cocycles(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            E = random_complex_instance(rng, length=3, max_dim=4)
            basis = cohomology_class_basis(E)
            for q, z in enumerate(basis):
                assert z.shape[1] == E.betti()[q]
                if q < len(E.v) and z.shape[1]:
                    assert np.linalg.norm(E.v[q] @ z) < 1e-8


class TestHarmonicRepresentatives:
    def test_differ_from_classes_by_exact_terms(self):
        rng = np.random.default_rng(5)
        E = random_complex_instance(rng, length=3, max_dim=4, identity_metric=False)
        basis = cohomology_class_basis(E)
        reps = harmonic_representatives(E, basis)
        for q, (z, r) in enumerate(zip(basis, reps)):
            if z.shape[1] == 0:
                continue
            diff = z - r
            if q == 0:
                assert np.linalg.norm(diff) < 1e-10
                continue
            # the difference lies in the image of the previous differential
            sol, *_ = np.linalg.lstsq(E.v[q - 1], diff, rcond=None)
            assert np.linalg.norm(E.v[q - 1] @ sol - diff) < 1e-8

    def test_closed_and_coclosed(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            E = random_complex_instance(rng, length=3, max_dim=4,
                                        identity_metric=False)
            for q, r in enumerate(harmonic_representatives(E)):
                if r.shape[1] == 0:
                    continue
                assert r.shape[1] == E.betti()[q]
                if q < len(E.v):
                    assert np.linalg.norm(E.v[q] @ r) < 1e-8
                if q > 0:
                    # h-orthogonal to the image of the previous differential
                    pairing = E.v[q - 1].conj().T @ E.h[q] @ r
                    assert np.linalg.norm(pairing) < 1e-8

    def test_gram_matches_hodge_determinant(self):
        # any two bases of the harmonic space have Gram matrices with
        # determinants in the ratio |det(change of basis)|^2; compare
        # against the orthonormal Hodge basis via projection coefficients.
        rng = np.random.default_rng(6)
        E = random_complex_instance(rng, length=2, max_dim=4, identity_metric=False)
        grams = induced_gram(E)
        reps = harmonic_representatives(E)
        for q, (g, hbasis, r) in enumerate(zip(grams, laplacian_route(E)[1], reps)):
            if g.shape[0] == 0:
                continue
            coeff = hbasis.conj().T @ E.h[q] @ r
            expected = coeff.conj().T @ coeff
            np.testing.assert_allclose(g, expected, atol=1e-8)


class TestScalarTorsion:
    def test_two_term_log_det(self):
        rng = np.random.default_rng(7)
        E = random_two_term(rng, 4)
        expected = -np.log(np.abs(np.linalg.det(E.v[0])))
        assert scalar_torsion_eigen(E) == pytest.approx(expected, abs=1e-10)

    def test_two_term_metric_anomaly(self):
        # log det' Delta_0 = log |det tau|^2 + log det h_1 - log det h_0
        rng = np.random.default_rng(0)
        tau = random_invertible(rng, 3)
        h = [random_metric(rng, 3), random_metric(rng, 3)]
        E = MetricComplex([3, 3], [tau], h)
        assert E.betti() == (0, 0)
        logdet = [np.linalg.slogdet(hq)[1] for hq in h]
        expected = -np.log(np.abs(np.linalg.det(tau))) - 0.5 * (logdet[1] - logdet[0])
        assert scalar_torsion_eigen(E) == pytest.approx(expected, abs=1e-10)

    def test_grading_offset_sign(self):
        rng = np.random.default_rng(8)
        E = random_two_term(rng, 3)
        shifted = MetricComplex(E.dims, E.v, E.h, grading_offset=2)
        assert scalar_torsion_eigen(shifted) == pytest.approx(
            scalar_torsion_eigen(E), abs=1e-12)
        odd = MetricComplex(E.dims, E.v, E.h, grading_offset=1)
        assert scalar_torsion_eigen(odd) == pytest.approx(
            -scalar_torsion_eigen(E), abs=1e-12)

    def test_matches_the_laplacian_reference(self):
        rng = np.random.default_rng(10)
        cases = [(random_complex_instance(rng, length=length, max_dim=4,
                                          identity_metric=False), None)
                 for length in (2, 3, 4) for _ in range(4)]
        doubles = [invariant_doubled_complex(rng, rank) for rank in (1, 2, 3)]
        doubles += [twisted_z2_complex(rng, length) for length in (2, 3)]
        for C in doubles:
            cases += [(C.complex, None), (C.complex, C.involution)]
        for E, phi in cases:
            assert scalar_torsion_eigen(E, phi) == pytest.approx(
                laplacian_route(E, phi)[0], abs=1e-10)

    def test_two_term_sigma_sweep_against_mpmath(self):
        # U diag(1, sigma) W: the error may grow like eps/sigma, the
        # conditioning of the problem itself, or the route names its gap
        rng = np.random.default_rng(0)
        u, w = random_unitary(rng, 2), random_unitary(rng, 2)
        eps = np.finfo(float).eps
        for k in range(10):
            sigma = 10.0 ** -k
            v = u @ np.diag([1.0, sigma]) @ w
            with mpmath.workdps(50):
                m = [[mpmath.mpc(x.real, x.imag) for x in row] for row in v]
                truth = float(-mpmath.log(abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])))
            E = MetricComplex([2, 2], [v], [np.eye(2, dtype=complex)] * 2)
            try:
                got = scalar_torsion_eigen(E)
            except IllConditionedError as err:
                assert "singular values" in str(err), k
                continue
            assert abs(got - truth) <= 10 * eps / sigma, k

    def test_unresolvable_kernel_raises(self):
        # v has rank 2, but the metric scales its second singular value to
        # 3.2e-11 in orthonormal coordinates, below the rank cut
        v = np.diag([1.0, 1e-9]).astype(complex)
        E = MetricComplex([2, 2], [v], [np.eye(2), np.diag([1.0, 1e-3])])
        with pytest.raises(IllConditionedError, match="singular values"):
            scalar_torsion_eigen(E)
        # singular values resolve diag(1, 2e-6), whose Laplacian eigenvalue
        # 4e-12 the former route cut as a zero mode
        tau = np.diag([1.0, 2e-6]).astype(complex)
        E = MetricComplex([2, 2], [tau], [np.eye(2), np.eye(2)])
        assert scalar_torsion_eigen(E) == pytest.approx(-np.log(2e-6), abs=1e-12)

    def test_circle_base_is_rejected_as_malformed(self, monkeypatch, capsys):
        # the route is for point bases; on a circle it is a ValueError, exit 2
        E = random_circle_two_term(np.random.default_rng(3), grid=8)
        for route in (scalar_torsion_eigen, harmonic_representatives):
            with pytest.raises(ValueError, match="eigenvalue route and harmonic "
                               "representatives are implemented for point-base"):
                route(E)
        monkeypatch.setattr(cli, "run_verify", lambda *a, **k: scalar_torsion_eigen(E))
        assert cli.main(["verify", "finite"]) == 2
        assert "point-base complexes" in capsys.readouterr().err


class TestRankPolicy:
    def test_every_rank_decision_follows_the_one_threshold(self, monkeypatch):
        monkeypatch.setattr(complexes, "RANK_THRESHOLD", 1e-3)
        E = MetricComplex([2, 2], [np.diag([1.0, 1e-4])], [np.eye(2)] * 2)
        assert E.betti() == (1, 1)
        assert tuple(z.shape[1] for z in cohomology_class_basis(E)) == (1, 1)
        assert scalar_torsion_eigen(E) == 0.0

    def test_class_bases_are_cut_at_each_differentials_own_scale(self):
        # 5e-9 is a rank at its own scale, as betti() counts it, though not
        # at the scale of the 1e3 differential beside it
        v = [np.array([[1e3]]), np.zeros((1, 1)), np.array([[5e-9]])]
        E = MetricComplex([1, 1, 1, 1], v, [np.eye(1)] * 4)
        assert E.betti() == (0, 0, 0, 0)
        assert tuple(z.shape[1] for z in cohomology_class_basis(E)) == E.betti()


class TestChiSums:
    def test_counts_on_known_complex(self):
        E = MetricComplex([2, 2], [np.zeros((2, 2))], [np.eye(2)] * 2)
        chi, chi_prime, d_E, d_H = chi_primes(E)
        assert chi == 0
        assert chi_prime == -2
        assert d_E == -2
        assert d_H == -2

    def test_acyclic_has_zero_chi_prime(self):
        rng = np.random.default_rng(9)
        E = random_acyclic_complex(rng, length=3)
        chi, chi_prime, d_E, d_H = chi_primes(E)
        assert chi == 0
        assert chi_prime == 0
