"""Tests for model spectra, zeta determinants, and heat-trace torsion."""

import time

import mpmath
import numpy as np
import pytest

from torsionlab.analytic import (
    GeometryError,
    ModelGeometry,
    QuadraticFamily,
    doubled_spectrum,
    equivariant_scalar_torsion,
    euler_characteristics,
    family_log_det,
    geometry_from_json,
    geometry_to_json,
    heat_supertrace,
    l2_cohomology,
    scalar_torsion,
    spectrum,
    torsion_via_heat_integral,
    zeta_log_det,
)
from torsionlab.instances import random_unitary
from torsionlab.quad import QuadratureError

LOG2 = float(np.log(2.0))


class TestGeometry:
    def test_nonpositive_length_rejected(self):
        with pytest.raises(GeometryError):
            ModelGeometry("interval", 0.0, bc="abs")

    def test_nonunitary_holonomy_rejected(self):
        with pytest.raises(GeometryError):
            ModelGeometry("circle", 1.0, holonomy=np.diag([2.0, 1.0]))

    def test_interval_needs_boundary_condition(self):
        with pytest.raises(GeometryError):
            ModelGeometry("interval", 1.0)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(0)
        for g in (ModelGeometry("circle", 2.5, holonomy=random_unitary(rng, 2)),
                  ModelGeometry("interval", 0.7, bc="rel", rank=3)):
            back = geometry_from_json(geometry_to_json(g))
            assert back.kind == g.kind and back.rank == g.rank
            assert back.length == pytest.approx(g.length)
            if g.kind == "circle":
                np.testing.assert_allclose(back.holonomy, g.holonomy)
            else:
                assert back.bc == g.bc


class TestSpectrum:
    def test_trivial_circle_modes(self):
        s = spectrum(ModelGeometry("circle", 1.0))
        assert s.zero_modes == [1, 1]
        [fam] = s.families[0]
        assert fam.mult == 2 and fam.a == 1.0
        assert fam.c == pytest.approx(2 * np.pi)

    def test_twisted_circle_has_no_zero_modes(self):
        U = np.array([[np.exp(0.7j)]])
        s = spectrum(ModelGeometry("circle", 1.0, holonomy=U))
        assert s.zero_modes == [0, 0]
        a_values = sorted(f.a for f in s.families[0])
        assert a_values == pytest.approx([0.7 / (2 * np.pi), 1 - 0.7 / (2 * np.pi)])

    def test_interval_boundary_conditions(self):
        s_abs = spectrum(ModelGeometry("interval", 1.0, bc="abs", rank=2))
        s_rel = spectrum(ModelGeometry("interval", 1.0, bc="rel", rank=2))
        assert s_abs.zero_modes == [2, 0]
        assert s_rel.zero_modes == [0, 2]
        assert s_abs.families[0][0].c == pytest.approx(np.pi)

    def test_hodge_duality_of_nonzero_spectra(self):
        rng = np.random.default_rng(1)
        for g in (ModelGeometry("circle", 1.3, holonomy=random_unitary(rng, 3)),
                  ModelGeometry("interval", 2.0, bc="rel", rank=2)):
            spectrum(g).validate()

    def test_parity_multiset_identity(self):
        # Neumann + Dirichlet truncations = doubled-circle truncation
        L, n = 0.8, 40
        neu = [(k * np.pi / L) ** 2 for k in range(n)]
        dir_ = [(k * np.pi / L) ** 2 for k in range(1, n)]
        circ = [0.0] + [x for k in range(1, n)
                        for x in [(2 * np.pi * k / (2 * L)) ** 2] * 2]
        np.testing.assert_allclose(sorted(neu + dir_), sorted(circ)[:2 * n - 1],
                                   rtol=1e-14)
        s = doubled_spectrum(ModelGeometry("interval", L, bc="abs"))
        parities = sorted(f.parity for f in s.families[0])
        assert parities == ["even", "odd"]


class TestZetaLogDet:
    def test_dirichlet_interval(self):
        s = spectrum(ModelGeometry("interval", 1.0, bc="rel"))
        assert zeta_log_det(s, 0) == pytest.approx(LOG2, abs=1e-12)

    def test_trivial_circle_is_log_length_squared(self):
        for L in (0.5, 1.0, 3.0):
            s = spectrum(ModelGeometry("circle", L))
            assert zeta_log_det(s, 0) == pytest.approx(2 * np.log(L), abs=1e-12)

    def test_holonomy_circle_product_formula(self):
        for theta in (0.3, 1.0, 2.9):
            U = np.array([[np.exp(1j * theta)]])
            s = spectrum(ModelGeometry("circle", 1.0, holonomy=U))
            expected = np.log(4 * np.sin(theta / 2) ** 2)
            assert zeta_log_det(s, 0) == pytest.approx(expected, abs=1e-12)

    def test_euler_maclaurin_oracle_agrees(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            fam = QuadraticFamily(float(rng.uniform(0.3, 5.0)),
                                  float(rng.uniform(0.05, 1.0)),
                                  int(rng.integers(1, 4)))
            closed = family_log_det(fam)
            oracle = family_log_det(fam, "euler_maclaurin")
            assert closed == pytest.approx(oracle, abs=1e-9)

    def test_both_routes_match_mpmath_hurwitz_zeta(self):
        # an oracle sharing no code with either route: -zeta'(0) of the
        # family is mult (2 ln c (1/2 - a) - 2 zeta_H'(0, a)), with mpmath's
        # Hurwitz zeta derivative at 30 digits (no lgamma involved)
        rng = np.random.default_rng(3)
        worst_closed = worst_em = 0.0
        with mpmath.workdps(30):
            for _ in range(200):
                fam = QuadraticFamily(float(rng.uniform(0.3, 5.0)),
                                      float(rng.uniform(0.05, 1.0)),
                                      int(rng.integers(1, 4)))
                c, a = mpmath.mpf(fam.c), mpmath.mpf(fam.a)
                exact = fam.mult * (2 * mpmath.log(c) * (mpmath.mpf(1) / 2 - a)
                                    - 2 * mpmath.zeta(0, a, 1))
                worst_closed = max(worst_closed, abs(float(family_log_det(fam) - exact)))
                worst_em = max(worst_em, abs(float(
                    family_log_det(fam, "euler_maclaurin") - exact)))
        assert worst_closed < 1e-13
        assert worst_em < 1e-10


class TestScalarTorsion:
    def test_reference_values(self):
        assert scalar_torsion(ModelGeometry("circle", 2.0)) == \
            pytest.approx(-LOG2, abs=1e-12)
        assert scalar_torsion(ModelGeometry("interval", 1.0, bc="abs")) == \
            pytest.approx(-0.5 * LOG2, abs=1e-12)
        assert scalar_torsion(ModelGeometry("interval", 1.0, bc="rel")) == \
            pytest.approx(-0.5 * LOG2, abs=1e-12)

    def test_holonomy_circle(self):
        theta = 1.1
        g = ModelGeometry("circle", 1.0, holonomy=np.array([[np.exp(1j * theta)]]))
        expected = -0.5 * np.log(4 * np.sin(theta / 2) ** 2)
        assert scalar_torsion(g) == pytest.approx(expected, abs=1e-12)

    def test_rank_scales_linearly(self):
        one = scalar_torsion(ModelGeometry("interval", 1.7, bc="abs", rank=1))
        three = scalar_torsion(ModelGeometry("interval", 1.7, bc="abs", rank=3))
        assert three == pytest.approx(3 * one, abs=1e-12)


class TestHeatIntegral:
    def geometries(self):
        rng = np.random.default_rng(3)
        return [ModelGeometry("circle", 2.0),
                ModelGeometry("circle", 0.7, holonomy=random_unitary(rng, 2)),
                ModelGeometry("interval", 1.0, bc="abs"),
                ModelGeometry("interval", 1.4, bc="rel", rank=2)]

    def test_agrees_with_zeta_route(self):
        # to rounding: the integrand tends to a nonzero constant as t -> 0,
        # so a lower limit of 1e-8 would leave a gap of 1e-8 times it
        for g in self.geometries():
            heat = torsion_via_heat_integral(g)
            assert heat == pytest.approx(scalar_torsion(g), abs=1e-13)

    def test_slow_modes_against_closed_forms(self):
        # Long mixed intervals and long twisted circles: the heat trace
        # still matches its small-time counterterm over the first dyadic
        # windows, long before the slowest mode has decayed.
        cases = [(ModelGeometry("interval", L, bc="mixed", rank=r), -0.5 * r * LOG2)
                 for L in (3.49, 4.0, 5.0) for r in (1, 2)]
        theta = 1.0
        cases += [(ModelGeometry("circle", L, holonomy=np.array([[np.exp(1j * theta)]])),
                   -np.log(2.0 * np.sin(0.5 * theta))) for L in (7.0, 9.0)]
        for g, expected in cases:
            assert torsion_via_heat_integral(g) == pytest.approx(expected, abs=1e-7)

    def test_tail_that_never_settles_raises(self):
        # angle 1e-9: the slowest mode decays at t = 1/lam_min = 1e18, past
        # the last of the 60 windows (t from 2^59 to 2^60)
        g = ModelGeometry("circle", 1.0, holonomy=np.array([[np.exp(1e-9j)]]))
        start = time.monotonic()
        with pytest.raises(QuadratureError, match="dyadic windows"):
            torsion_via_heat_integral(g)
        assert time.monotonic() - start < 1.0

    def test_small_time_limit(self):
        # h(t) -> chi/4 as t -> 0 (chi is rank-weighted)
        for g in self.geometries():
            chi, _ = euler_characteristics(g)
            s = spectrum(g)
            assert heat_supertrace(s, 1e-3) == pytest.approx(0.25 * chi, abs=1e-4)

    def test_large_time_limit(self):
        # h(t) -> chi'/2 as t -> infinity
        for g in self.geometries():
            _, chi_prime = euler_characteristics(g)
            s = spectrum(g)
            assert heat_supertrace(s, 1e3) == pytest.approx(
                0.5 * chi_prime, abs=1e-4)


class TestEquivariant:
    def test_identity_element_recovers_double(self):
        g = ModelGeometry("interval", 1.0, bc="abs")
        assert equivariant_scalar_torsion(g, "identity") == \
            pytest.approx(scalar_torsion(ModelGeometry("circle", 2.0)), abs=1e-12)

    def test_identity_splits_into_boundary_conditions(self):
        for L, r in ((0.6, 1), (2.3, 2)):
            g = ModelGeometry("interval", L, bc="abs", rank=r)
            lhs = equivariant_scalar_torsion(g, "identity")
            rhs = scalar_torsion(ModelGeometry("interval", L, bc="abs", rank=r)) \
                + scalar_torsion(ModelGeometry("interval", L, bc="rel", rank=r))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_reflection_vanishes_on_symmetric_interval(self):
        for L in (0.5, 1.0, 4.0):
            g = ModelGeometry("interval", L, bc="abs", rank=2)
            assert equivariant_scalar_torsion(g, "reflection") == \
                pytest.approx(0.0, abs=1e-12)

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            equivariant_scalar_torsion(
                ModelGeometry("interval", 1.0, bc="abs"), "rotation")


class TestL2Cohomology:
    def test_interval_grams(self):
        h = l2_cohomology(ModelGeometry("interval", 1.0, bc="abs", rank=2))
        assert h[0].dim == 2 and h[1].dim == 0
        np.testing.assert_allclose(h[0].gram, np.eye(2))
        h = l2_cohomology(ModelGeometry("interval", 3.0, bc="rel"))
        np.testing.assert_allclose(h[1].gram, [[3.0]])

    def test_trivial_circle_norms(self):
        h = l2_cohomology(ModelGeometry("circle", 2.0))
        np.testing.assert_allclose(h[0].gram, [[2.0]])
        np.testing.assert_allclose(h[1].gram, [[0.5]])

    def test_twisted_circle_is_acyclic(self):
        U = np.array([[np.exp(0.4j)]])
        h = l2_cohomology(ModelGeometry("circle", 1.0, holonomy=U))
        assert h[0].dim == 0 and h[1].dim == 0

    def test_partially_invariant_holonomy(self):
        U = np.diag([1.0, np.exp(1j)]).astype(complex)
        h = l2_cohomology(ModelGeometry("circle", 1.5, holonomy=U))
        assert h[0].dim == 1
        np.testing.assert_allclose(h[0].fiber_basis, [[1.0], [0.0]], atol=1e-12)

    def test_euler_counts(self):
        assert euler_characteristics(ModelGeometry("circle", 1.0)) == (0, -1)
        assert euler_characteristics(
            ModelGeometry("interval", 1.0, bc="abs", rank=2)) == (2, 0)
        assert euler_characteristics(
            ModelGeometry("interval", 1.0, bc="rel", rank=2)) == (-2, -2)
