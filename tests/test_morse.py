"""Tests for critical-point complexes, doubling, and comparison maps."""

import numpy as np
import pytest

from torsionlab.complexes import MetricComplex, NonFiniteDataError
from torsionlab.hodge import IllConditionedError, scalar_torsion_eigen
from torsionlab.instances import random_invertible, random_metric, random_unitary
from torsionlab.morse import (
    CriticalPoint,
    Instanton,
    MorseData,
    MorseDataError,
    Z2Complex,
    arc_data,
    circle_height_data,
    double,
    doubled_complex,
    equivariant_scalar_torsion,
    morse_from_json,
    morse_to_json,
    psi_maps,
    split_circle_data,
    thom_smale,
    three_column_double,
    z2_split,
)
from torsionlab.spectral import page_decomposition_residual, three_column_les

LOG2 = float(np.log(2.0))


class TestValidation:
    def test_duplicate_ids_rejected(self):
        M = MorseData(1, [CriticalPoint("a", 0), CriticalPoint("a", 1)], [])
        with pytest.raises(MorseDataError):
            M.validate()

    def test_index_must_drop_by_one(self):
        pts = [CriticalPoint("a", 2), CriticalPoint("b", 0)]
        M = MorseData(1, pts, [Instanton("a", "b", 1, np.eye(1))])
        with pytest.raises(MorseDataError):
            M.validate()

    def test_instanton_may_not_cross_separating_set(self):
        pts = [CriticalPoint("a", 1, False, "Z1"), CriticalPoint("b", 0, False, "Z2")]
        M = MorseData(1, pts, [Instanton("a", "b", 1, np.eye(1))])
        with pytest.raises(MorseDataError):
            M.validate()

    def test_boundary_flag_must_match_region(self):
        M = MorseData(1, [CriticalPoint("y", 0, False, "Y")], [])
        with pytest.raises(MorseDataError):
            M.validate()

    def test_square_zero_gate_names_the_failing_pair(self):
        pts = [CriticalPoint("a", 2), CriticalPoint("b", 1), CriticalPoint("c", 0)]
        inst = [Instanton("a", "b", 1, np.eye(1)),
                Instanton("b", "c", 1, np.eye(1))]
        with pytest.raises(MorseDataError, match="'c' and 'a'"):
            thom_smale(MorseData(1, pts, inst))


class TestThomSmale:
    def test_single_minimum_interval(self):
        M = MorseData(2, [CriticalPoint("p", 0)], [])
        E = thom_smale(M)
        assert E.dims == [2]
        assert scalar_torsion_eigen(E) == 0.0

    def test_circle_differential_and_torsion(self):
        rng = np.random.default_rng(0)
        U = random_invertible(rng, 3)
        E = thom_smale(circle_height_data(U))
        assert E.dims == [3, 3]
        np.testing.assert_allclose(E.v[0], np.eye(3) - U.T, atol=1e-14)
        expected = -np.log(np.abs(np.linalg.det(np.eye(3) - U)))
        assert scalar_torsion_eigen(E) == pytest.approx(expected, abs=1e-10)

    def test_variant_generator_counts(self):
        rng = np.random.default_rng(1)
        M = split_circle_data(random_invertible(rng, 2))
        assert thom_smale(M, "full").dims == [4, 4]
        assert thom_smale(M, "absolute").dims == [4, 2]
        assert thom_smale(M, "relative").dims == [0, 2]
        assert thom_smale(M, "boundary").dims == [4, 0]

    def test_split_circle_full_complex_is_acyclic(self):
        rng = np.random.default_rng(2)
        U = random_invertible(rng, 2)
        E = thom_smale(split_circle_data(U))
        assert E.betti() == (0, 0)

    def test_trivial_holonomy_gives_circle_cohomology(self):
        E = thom_smale(split_circle_data(np.eye(2)))
        assert E.betti() == (2, 2)


class TestDoubling:
    def test_doubled_arc_is_a_circle_datum(self):
        D = double(arc_data(rank=2))
        interior = [p for p in D.points if p.region != "Y"]
        boundary = [p for p in D.points if p.region == "Y"]
        assert len(interior) == 2 and len(boundary) == 2
        assert D.mirror["m1"] == "m1~" and D.mirror["y1"] == "y1"
        assert len(D.instantons) == 4

    def test_double_requires_one_sided_datum(self):
        rng = np.random.default_rng(3)
        with pytest.raises(MorseDataError):
            double(split_circle_data(random_invertible(rng, 2)))

    def test_doubled_complex_involution_invariants(self):
        rng = np.random.default_rng(4)
        t1, t2 = random_unitary(rng, 2), random_unitary(rng, 2)
        C = doubled_complex(double(arc_data((t1, t2), rank=2)))
        C.validate()

    @pytest.mark.parametrize("where,value", [
        ("involution", np.nan), ("involution", np.inf),
        ("differential", np.nan), ("metric", 1e200)])
    def test_non_finite_entry_rejected(self, where, value):
        C = doubled_complex(double(arc_data(rank=2)))
        E = C.complex
        invol, v, h = list(C.involution), list(E.v), list(E.h)
        blocks = {"involution": invol, "differential": v, "metric": h}[where]
        blk = blocks[0].copy()
        blk[0, 0] = value
        blocks[0] = blk
        bad = Z2Complex(MetricComplex(E.dims, v, h), invol)
        with pytest.raises(NonFiniteDataError, match=f"{where} 0"):
            bad.validate()
        for call in (z2_split, equivariant_scalar_torsion):
            with pytest.raises(NonFiniteDataError):
                call(bad)

    def test_split_dimensions(self):
        C = doubled_complex(double(arc_data(rank=2)))
        plus, minus, _, _ = z2_split(C)
        assert plus.dims == [4, 2]
        assert minus.dims == [0, 2]
        assert sum(plus.dims) + sum(minus.dims) == sum(C.complex.dims)

    def test_split_pieces_are_subcomplexes(self):
        rng = np.random.default_rng(5)
        t1, t2 = random_unitary(rng, 3), random_unitary(rng, 3)
        C = doubled_complex(double(arc_data((t1, t2), rank=3)))
        plus, minus, pb, mb = z2_split(C)
        # plus/minus torsions add up to the torsion of the whole complex
        lhs = scalar_torsion_eigen(C.complex)
        rhs = scalar_torsion_eigen(plus) + scalar_torsion_eigen(minus)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestPsiMaps:
    def build(self, rank=2, seed=6):
        rng = np.random.default_rng(seed)
        t1, t2 = random_unitary(rng, rank), random_unitary(rng, rank)
        return psi_maps(arc_data((t1, t2), rank=rank))

    def test_psi1_commutes_with_differentials(self):
        P = self.build()
        for q in range(len(P.plus.v)):
            lhs = P.absolute.v[q] @ P.psi1[q]
            rhs = P.psi1[q + 1] @ P.plus.v[q]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_psi2_commutes_with_differentials(self):
        P = self.build()
        for q in range(len(P.minus.v)):
            lhs = P.minus.v[q] @ P.psi2[q]
            rhs = P.psi2[q + 1] @ P.relative.v[q]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_psi2_is_an_isometry(self):
        P = self.build(rank=3, seed=7)
        for q, m in enumerate(P.psi2):
            if m.shape[1] == 0:
                continue
            np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[1]),
                                       atol=1e-12)

    def test_psi1_scales_boundary_generators(self):
        P = self.build(rank=2, seed=8)
        # degree 0: only boundary generators; psi1 has |det| = sqrt(2)^(2r)
        s0 = np.linalg.svd(P.psi1[0], compute_uv=False)
        np.testing.assert_allclose(s0, np.sqrt(2.0) * np.ones(4), atol=1e-12)
        # degree 1: only interior pairs; psi1 is an isometry there
        s1 = np.linalg.svd(P.psi1[1], compute_uv=False)
        np.testing.assert_allclose(s1, np.ones(2), atol=1e-12)

    def test_alternating_comparison_torsion_counts_boundary(self):
        # sum_q (-1)^q T(two-term psi1_q) = -(log 2 / 2) chi(Y) rank
        for rank in (1, 2, 3):
            P = self.build(rank=rank, seed=9 + rank)
            total = 0.0
            for q, m in enumerate(P.psi1):
                if m.shape[0] == 0:
                    continue
                two_term = MetricComplex([m.shape[1], m.shape[0]], [m],
                                         [np.eye(m.shape[1]), np.eye(m.shape[0])])
                total += ((-1.0) ** q) * scalar_torsion_eigen(two_term)
            assert total == pytest.approx(-0.5 * LOG2 * 2 * rank, abs=1e-12)

    def test_anti_invariant_comparison_torsion_vanishes(self):
        P = self.build(rank=2, seed=13)
        for q, m in enumerate(P.psi2):
            if m.shape[1] == 0:
                continue
            two_term = MetricComplex([m.shape[1], m.shape[0]], [m],
                                     [np.eye(m.shape[1]), np.eye(m.shape[0])])
            assert scalar_torsion_eigen(two_term) == pytest.approx(0.0, abs=1e-12)


class TestEquivariantTorsion:
    def test_identity_element_matches_plain_torsion(self):
        rng = np.random.default_rng(14)
        t1, t2 = random_unitary(rng, 2), random_unitary(rng, 2)
        C = doubled_complex(double(arc_data((t1, t2), rank=2)))
        # the identity element is the plain eigenvalue route itself
        assert equivariant_scalar_torsion(C, "identity") == scalar_torsion_eigen(C.complex)

    def test_reflection_weights_by_character(self):
        rng = np.random.default_rng(15)
        for rank in (1, 2, 3):
            t1, t2 = random_unitary(rng, rank), random_unitary(rng, rank)
            C = doubled_complex(double(arc_data((t1, t2), rank=rank)))
            plus, minus, _, _ = z2_split(C)
            lhs = equivariant_scalar_torsion(C, "reflection")
            rhs = scalar_torsion_eigen(plus) - scalar_torsion_eigen(minus)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_unknown_element_rejected(self):
        C = doubled_complex(double(arc_data(rank=1)))
        with pytest.raises(ValueError):
            equivariant_scalar_torsion(C, "rotation")

    def test_reflection_under_an_invariant_metric(self):
        # h = (h0 + phi^H h0 phi) / 2 makes the involution isometric for a
        # non-identity metric, so the frames' L^H phi L^{-H} is exercised
        rng = np.random.default_rng(21)
        for rank in (1, 2, 3):
            t1, t2 = random_unitary(rng, rank), random_unitary(rng, rank)
            C = doubled_complex(double(arc_data((t1, t2), rank=rank)))
            E = C.complex
            h = []
            for phi in C.involution:
                h0 = random_metric(rng, len(phi))
                h.append(0.5 * (h0 + phi.conj().T @ h0 @ phi))
            C = Z2Complex(MetricComplex(E.dims, E.v, h), C.involution).validate()
            plus, minus, _, _ = z2_split(C)
            t_plus, t_minus = scalar_torsion_eigen(plus), scalar_torsion_eigen(minus)
            for element, chi in (("identity", 1.0), ("reflection", -1.0)):
                lhs = equivariant_scalar_torsion(C, element)
                assert lhs == pytest.approx(t_plus + chi * t_minus, abs=1e-12)

    def test_unresolved_zero_mode_raises(self):
        # v = diag(1, 1e-9) has rank 2, but under h_1 = diag(1, 1e-3) its
        # second singular value in orthonormal coordinates is 3.2e-11,
        # below the rank cut: the zero mode is unresolved
        v = np.diag([1.0, 1e-9]).astype(complex)
        phi = np.diag([1.0, -1.0]).astype(complex)
        h = [np.eye(2, dtype=complex), np.diag([1.0, 1e-3]).astype(complex)]
        E = MetricComplex([2, 2], [v], h)
        C = Z2Complex(E, [phi, phi]).validate()
        with pytest.raises(IllConditionedError):
            scalar_torsion_eigen(E)
        for element in ("identity", "reflection"):
            with pytest.raises(IllConditionedError):
                equivariant_scalar_torsion(C, element)
        # diag(1, 1e-6) under identity metrics is resolved: its singular
        # value 1e-6 sits in the phi = -1 eigenspace
        v = np.diag([1.0, 1e-6]).astype(complex)
        E = MetricComplex([2, 2], [v], [np.eye(2, dtype=complex)] * 2)
        C = Z2Complex(E, [phi, phi]).validate()
        assert scalar_torsion_eigen(E) == pytest.approx(-np.log(1e-6), abs=1e-12)
        for element, chi in (("identity", 1.0), ("reflection", -1.0)):
            assert equivariant_scalar_torsion(C, element) == pytest.approx(
                -chi * np.log(1e-6), abs=1e-12)


class TestThreeColumnAssembly:
    def test_columns_validate_and_rows_are_exact(self):
        rng = np.random.default_rng(16)
        D = three_column_double(split_circle_data(random_invertible(rng, 2)))
        data = three_column_les(D)
        assert not any(data.les.betti())

    def test_torsion_decomposition_across_columns(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            D = three_column_double(split_circle_data(random_invertible(rng, 2)))
            lhs = data = three_column_les(D)
            assert data.torsion_les() == pytest.approx(
                data.torsion_e1() + data.torsion_e2(), abs=1e-10)

    def test_page_decomposition_of_total_torsion(self):
        rng = np.random.default_rng(18)
        D = three_column_double(split_circle_data(random_invertible(rng, 3)))
        assert page_decomposition_residual(D) < 1e-9


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        M = split_circle_data(random_invertible(rng, 2))
        back = morse_from_json(morse_to_json(M))
        assert [p.id for p in back.points] == [p.id for p in M.points]
        for a, b in zip(back.instantons, M.instantons):
            assert (a.src, a.dst, a.sign) == (b.src, b.dst, b.sign)
            np.testing.assert_allclose(a.transport, b.transport)

    def test_round_trip_preserves_mirror_table(self):
        D = double(arc_data(rank=1))
        back = morse_from_json(morse_to_json(D))
        assert back.mirror == D.mirror
        doubled_complex(back).validate()
