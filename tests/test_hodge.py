"""Tests for finite-dimensional Hodge theory and the eigenvalue route."""

import numpy as np
import pytest

from torsionlab import complexes
from torsionlab.complexes import MetricComplex
from torsionlab.hodge import (
    IllConditionedError,
    chi_primes,
    cohomology_class_basis,
    harmonic_representatives,
    hodge_decompose,
    induced_gram,
    scalar_torsion_eigen,
)
from torsionlab.instances import (
    random_complex_instance,
    random_invertible,
    random_metric,
    random_two_term,
)


class TestHodgeDecompose:
    def test_two_term_laplacians(self):
        rng = np.random.default_rng(0)
        tau = random_invertible(rng, 3)
        E = MetricComplex([3, 3], [tau], [np.eye(3), np.eye(3)])
        data = hodge_decompose(E)
        np.testing.assert_allclose(data.laplacians[0], tau.conj().T @ tau, atol=1e-12)
        np.testing.assert_allclose(data.laplacians[1], tau @ tau.conj().T, atol=1e-12)
        s = np.linalg.svd(tau, compute_uv=False)
        np.testing.assert_allclose(np.sort(data.eigenvalues[0]), np.sort(s ** 2),
                                   atol=1e-10)
        assert data.betti == (0, 0)

    def test_harmonics_are_closed_and_coclosed(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            E = random_complex_instance(rng, length=3, max_dim=4,
                                        identity_metric=False)
            data = hodge_decompose(E)
            for q, basis in enumerate(data.harmonics):
                if basis.shape[1] == 0:
                    continue
                assert basis.shape[1] == data.betti[q]
                if q < len(E.v):
                    assert np.linalg.norm(E.v[q] @ basis) < 1e-8
                if q > 0:
                    # h-orthogonal to the image of the previous differential
                    pairing = E.v[q - 1].conj().T @ E.h[q] @ basis
                    assert np.linalg.norm(pairing) < 1e-8

    def test_harmonic_basis_is_orthonormal_in_h(self):
        rng = np.random.default_rng(2)
        E = random_complex_instance(rng, length=2, max_dim=4, identity_metric=False)
        data = hodge_decompose(E)
        for q, basis in enumerate(data.harmonics):
            if basis.shape[1] == 0:
                continue
            gram = basis.conj().T @ E.h[q] @ basis
            np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)

    def test_unresolvable_kernel_raises(self):
        tau = np.diag([1.0, 2e-6]).astype(complex)
        E = MetricComplex([2, 2], [tau], [np.eye(2), np.eye(2)])
        with pytest.raises(IllConditionedError):
            hodge_decompose(E)


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

    def test_gram_matches_hodge_determinant(self):
        # any two bases of the harmonic space have Gram matrices with
        # determinants in the ratio |det(change of basis)|^2; compare
        # against the orthonormal Hodge basis via projection coefficients.
        rng = np.random.default_rng(6)
        E = random_complex_instance(rng, length=2, max_dim=4, identity_metric=False)
        grams = induced_gram(E)
        data = hodge_decompose(E)
        reps = harmonic_representatives(E)
        for q, (g, hbasis, r) in enumerate(zip(grams, data.harmonics, reps)):
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

    def test_grading_offset_sign(self):
        rng = np.random.default_rng(8)
        E = random_two_term(rng, 3)
        shifted = MetricComplex(E.dims, E.v, E.h, grading_offset=2)
        assert scalar_torsion_eigen(shifted) == pytest.approx(
            scalar_torsion_eigen(E), abs=1e-12)
        odd = MetricComplex(E.dims, E.v, E.h, grading_offset=1)
        assert scalar_torsion_eigen(odd) == pytest.approx(
            -scalar_torsion_eigen(E), abs=1e-12)


class TestRankPolicy:
    def test_every_rank_decision_follows_the_one_threshold(self, monkeypatch):
        monkeypatch.setattr(complexes, "RANK_THRESHOLD", 1e-3)
        E = MetricComplex([2, 2], [np.diag([1.0, 1e-4])], [np.eye(2)] * 2)
        assert E.betti() == (1, 1)
        assert tuple(z.shape[1] for z in cohomology_class_basis(E)) == (1, 1)
        assert hodge_decompose(E).betti == (1, 1)
        assert scalar_torsion_eigen(E) == 0.0


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
        from torsionlab.instances import random_acyclic_complex
        E = random_acyclic_complex(rng, length=3)
        chi, chi_prime, d_E, d_H = chi_primes(E)
        assert chi == 0
        assert chi_prime == 0
