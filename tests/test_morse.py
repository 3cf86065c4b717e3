"""Tests for critical-point complexes, doubling, and comparison maps."""

import numpy as np
import pytest

from torsionlab.analytic import l2_cohomology
from torsionlab.complexes import MetricComplex, NonFiniteDataError
from torsionlab.glue import GluingScenario, build_mv
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


def same_bits(a, b):
    """Equal shapes, dtypes and bytes; lists compare entry by entry."""
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


class TestBlockPlacement:
    """Every generator-indexed layout, and the Mayer-Vietoris sequence,
    equal bit for bit a reference that places each generator's fiber by
    its own offset dict, one block at a time."""

    KEEP = {"full": ("Z1", "Z2", "Y"), "absolute": ("Z1", "Y"),
            "relative": ("Z2",), "boundary": ("Y",)}

    def gens(self, M, variant):
        return [[p.id for p in M.points if p.index == q and p.region in self.KEEP[variant]]
                for q in range(M.max_index() + 1)]

    @staticmethod
    def offsets(ids, r):
        return {pid: j * r for j, pid in enumerate(ids)}

    def differentials(self, M, variant):
        gens, r, out = self.gens(M, variant), M.rank, []
        for q in range(len(gens) - 1):
            rows, cols = self.offsets(gens[q + 1], r), self.offsets(gens[q], r)
            blk = np.zeros((r * len(rows), r * len(cols)), dtype=complex)
            for g in M.instantons:
                if g.src in rows and g.dst in cols:
                    i, j = rows[g.src], cols[g.dst]
                    blk[i:i + r, j:j + r] += g.sign * g.transport.T
            out.append(blk)
        return out

    def involution(self, M, variant):
        r, out = M.rank, []
        for layer in self.gens(M, variant):
            pos = self.offsets(layer, r)
            phi = np.zeros((r * len(layer), r * len(layer)), dtype=complex)
            for pid in layer:
                tid = M.mirror[pid]
                phi[pos[tid]:pos[tid] + r, pos[pid]:pos[pid] + r] = np.eye(r)
            out.append(phi)
        return out

    def psi(self, M):
        dbl, r, half = double(M), M.rank, np.sqrt(2.0) / 2.0
        _, _, plus_bases, minus_bases = z2_split(doubled_complex(dbl))
        psi1, psi2 = [], []
        for q, layer in enumerate(self.gens(dbl, "full")):
            pos = self.offsets(layer, r)
            one_ids = [p.id for p in M.points if p.index == q]
            rel_ids = [pid for pid in one_ids if M.point(pid).region != "Y"]
            m1 = np.zeros((r * len(one_ids), r * len(layer)), dtype=complex)
            m2 = np.zeros((r * len(layer), r * len(rel_ids)), dtype=complex)
            for j, pid in enumerate(one_ids):
                tid = dbl.mirror[pid]
                m1[j * r:(j + 1) * r, pos[pid]:pos[pid] + r] += half * np.eye(r)
                m1[j * r:(j + 1) * r, pos[tid]:pos[tid] + r] += half * np.eye(r)
                if pid == tid:  # a boundary point: both halves at one place
                    assert m1[j * r, pos[pid]] == half + half
            for j, pid in enumerate(rel_ids):
                tid = dbl.mirror[pid]
                m2[pos[pid]:pos[pid] + r, j * r:(j + 1) * r] += half * np.eye(r)
                m2[pos[tid]:pos[tid] + r, j * r:(j + 1) * r] -= half * np.eye(r)
            psi1.append(m1 @ plus_bases[q])
            psi2.append(minus_bases[q].conj().T @ m2)
        return psi1, psi2

    def horizontal(self, M):
        gens = {v: self.gens(M, v) for v in ("relative", "full", "absolute")}
        r, hv = M.rank, {}
        for q, layer in enumerate(gens["full"]):
            pos = self.offsets(layer, r)
            rel, abso = gens["relative"][q], gens["absolute"][q]
            inc = np.zeros((r * len(layer), r * len(rel)), dtype=complex)
            for j, pid in enumerate(rel):
                inc[pos[pid]:pos[pid] + r, j * r:(j + 1) * r] = np.eye(r)
            res = np.zeros((r * len(abso), r * len(layer)), dtype=complex)
            for j, pid in enumerate(abso):
                res[j * r:(j + 1) * r, pos[pid]:pos[pid] + r] = np.eye(r)
            hv[(0, q)], hv[(1, q)] = inc, res
        return hv

    @staticmethod
    def mv(s):
        """The six-term sequence with every zero block written out."""
        r, z, e0 = s.rank, np.zeros, np.eye(0)
        if s.kind == "circle":
            h = l2_cohomology(s.geometry())
            basis, k = h[0].fiber_basis, h[0].dim
            dims = [0, k, r, r, k, 0]
            v = [z((k, 0)), basis, s.holonomy - np.eye(r), basis.conj().T, z((0, k))]
            grams = [e0, s.length * np.eye(k), s.l1 * np.eye(r),
                     (1.0 / s.l2) * np.eye(r), (1.0 / s.length) * np.eye(k), e0]
        elif s.bc == "abs":
            dims = [0, r, r, 0, 0, 0]
            v = [z((r, 0)), np.eye(r), z((0, r)), z((0, 0)), z((0, 0))]
            grams = [e0, s.length * np.eye(r), s.l1 * np.eye(r), e0, e0, e0]
        else:
            dims = [0, 0, 0, r, r, 0]
            v = [z((0, 0)), z((0, 0)), z((r, 0)), np.eye(r), z((0, r))]
            grams = [e0, e0, e0, (1.0 / s.l2) * np.eye(r), (1.0 / s.length) * np.eye(r), e0]
        return MetricComplex(dims, [np.asarray(m, dtype=complex) for m in v],
                             [np.asarray(g, dtype=complex) for g in grams])

    def test_every_layout_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(31)
        # rank 2 with non-symmetric transports, so a missing transpose shows
        t = [random_invertible(rng, 2) for _ in range(3)]
        assert not np.allclose(t[0], t[0].T)
        split = split_circle_data(t[0])
        height = circle_height_data(t[1])  # two instantons on one (max, min) pair
        arc = arc_data((t[1], t[2]), rank=2)
        for M in (split, height, arc):
            for variant in self.KEEP:
                E = thom_smale(M, variant)
                assert E.dims == [2 * len(ids) for ids in self.gens(M, variant)]
                assert same_bits(E.v, self.differentials(M, variant))
        dbl = double(arc)
        for variant in ("full", "absolute"):
            C = doubled_complex(dbl, variant)
            assert same_bits(C.complex.v, self.differentials(dbl, variant))
            assert same_bits(C.involution, self.involution(dbl, variant))
        # the sqrt(2) entries of psi1 at the two boundary points
        P = psi_maps(arc)
        psi1, psi2 = self.psi(arc)
        assert same_bits(P.psi1, psi1) and same_bits(P.psi2, psi2)
        D = three_column_double(split)
        hv = self.horizontal(split)
        assert D.hv.keys() == hv.keys() and all(same_bits(D.hv[k], hv[k]) for k in hv)
        v = {variant: self.differentials(split, variant)
             for variant in ("relative", "full", "absolute")}
        for q in range(D.Q - 1):
            assert same_bits(D.dv[(0, q)], v["relative"][q])
            assert same_bits(D.dv[(1, q)], -v["full"][q])
            assert same_bits(D.dv[(2, q)], v["absolute"][q])
        W = random_unitary(rng, 2)
        U = W @ np.diag([np.exp(0.4j), 1.0]) @ W.conj().T
        for s in (GluingScenario("circle", 2.7, 0.35, holonomy=U),
                  GluingScenario("interval", 1.5, 0.25, rank=2, bc="abs"),
                  GluingScenario("interval", 1.5, 0.25, rank=2, bc="rel")):
            got, want = build_mv(s).complex, self.mv(s)
            assert got.dims == want.dims
            assert same_bits(got.v, want.v) and same_bits(got.h, want.h)


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
