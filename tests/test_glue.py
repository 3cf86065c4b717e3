"""Tests for the degree-zero gluing identity and its combinatorial ledger."""

import numpy as np
import pytest

from torsionlab.glue import (
    GluingError,
    GluingScenario,
    _arc_comparison_torsions,
    build_mv,
    scenario_from_json,
    scenario_to_json,
    standard_sweep,
    verify_double_formula,
    verify_gluing_degree0,
    verify_morse_side,
)
from torsionlab.instances import random_unitary
from torsionlab.morse import Z2Complex, arc_data, comparison_torsions, psi_maps
from torsionlab.spectral import DoubleComplexData

LOG2 = float(np.log(2.0))


def flagship():
    return GluingScenario("circle", 2.0, 0.5, holonomy=np.eye(1))


class TestScenario:
    def test_split_fraction_range(self):
        with pytest.raises(GluingError):
            GluingScenario("circle", 1.0, 1.5)

    def test_unknown_kind(self):
        with pytest.raises(GluingError):
            GluingScenario("torus", 1.0, 0.5)

    def test_interval_needs_outer_bc(self):
        with pytest.raises(GluingError):
            GluingScenario("interval", 1.0, 0.5, bc="free")

    def test_side_lengths(self):
        s = GluingScenario("circle", 4.0, 0.25)
        assert s.l1 == pytest.approx(1.0)
        assert s.l2 == pytest.approx(3.0)

    def test_serialization_round_trip(self):
        theta = 0.9
        for s in (GluingScenario("circle", 1.5, 0.3,
                                 holonomy=np.diag([np.exp(1j * theta), 1.0])),
                  GluingScenario("interval", 2.0, 0.75, rank=2, bc="rel")):
            back = scenario_from_json(scenario_to_json(s))
            assert back.kind == s.kind and back.rank == s.rank
            assert back.length == pytest.approx(s.length)
            assert back.split == pytest.approx(s.split)
            if s.kind == "circle":
                np.testing.assert_allclose(back.holonomy, s.holonomy)
            else:
                assert back.bc == s.bc


class TestMayerVietoris:
    def test_flagship_structure_and_torsion(self):
        mv = build_mv(flagship())
        assert mv.complex.dims == [0, 1, 1, 1, 1, 0]
        # invariant rank 1, arcs of length 1 on a circle of length 2
        assert mv.torsion() == pytest.approx(-LOG2, abs=1e-12)

    def test_acyclic_circle_closed_form(self):
        theta = 1.2
        s = GluingScenario("circle", 3.0, 0.4,
                           holonomy=np.array([[np.exp(1j * theta)]]))
        mv = build_mv(s)
        assert mv.complex.dims == [0, 0, 1, 1, 0, 0]
        expected = -np.log(np.abs(np.exp(1j * theta) - 1.0)) \
            + 0.5 * np.log(s.l1 * s.l2)
        assert mv.torsion() == pytest.approx(expected, abs=1e-12)

    def test_interval_closed_forms(self):
        s = GluingScenario("interval", 2.0, 0.25, rank=3, bc="abs")
        assert build_mv(s).torsion() == pytest.approx(
            1.5 * np.log(s.l1 / s.length), abs=1e-12)
        s = GluingScenario("interval", 2.0, 0.25, rank=3, bc="rel")
        assert build_mv(s).torsion() == pytest.approx(
            1.5 * np.log(s.l2 / s.length), abs=1e-12)

    def test_exactness_failure_is_reported(self):
        from torsionlab.glue import MayerVietorisData
        from torsionlab.complexes import MetricComplex
        broken = MetricComplex([1, 1], [np.zeros((1, 1))],
                               [np.eye(1), np.eye(1)])
        with pytest.raises(GluingError, match="exactness"):
            MayerVietorisData(broken, ["a", "b"]).validate()


class TestGluingIdentity:
    def test_flagship_values(self):
        report = verify_gluing_degree0(flagship())
        assert report["analytic_lhs"] == pytest.approx(0.0, abs=1e-9)
        assert report["log2_correction"] == pytest.approx(LOG2, abs=1e-12)
        assert report["mv_torsion"] == pytest.approx(-LOG2, abs=1e-12)
        assert report["residual"]["pass"]

    def test_twisted_circle(self):
        U = np.diag([np.exp(2.1j), np.exp(-0.4j)])
        s = GluingScenario("circle", 1.3, 0.6, holonomy=U)
        assert verify_gluing_degree0(s)["residual"]["pass"]

    def test_interval_scenarios(self):
        for bc in ("abs", "rel"):
            s = GluingScenario("interval", 1.7, 0.3, rank=2, bc=bc)
            report = verify_gluing_degree0(s)
            assert report["log2_correction"] == pytest.approx(LOG2, abs=1e-12)
            assert report["residual"]["pass"]

    def test_role_swap_consistency(self):
        # swapping the two arcs of a symmetric circle leaves the pieces'
        # torsion sum unchanged
        a = verify_gluing_degree0(GluingScenario("circle", 2.0, 0.25))
        b = verify_gluing_degree0(GluingScenario("circle", 2.0, 0.75))
        assert a["torsion_z"] == pytest.approx(b["torsion_z"], abs=1e-12)
        assert a["residual"]["pass"] and b["residual"]["pass"]

    def test_standard_sweep(self):
        reports = standard_sweep()
        assert len(reports) == 84
        assert all(r["residual"]["pass"] for r in reports)


class TestMorseSide:
    def test_flagship_ledger(self):
        report = verify_morse_side(flagship())
        for key in ("rows_exact_split", "page0_alternating_sum",
                    "ledger_identity", "les_matches_mv", "boundary_defect",
                    "anti_invariant_torsions", "analytic_comparison"):
            assert report[key]["pass"], (key, report[key])

    def test_twisted_and_higher_rank(self):
        for U in (np.array([[np.exp(0.8j)]]),
                  np.diag([np.exp(1j * np.pi / 3), 1.0])):
            s = GluingScenario("circle", 1.5, 0.4, holonomy=U)
            report = verify_morse_side(s)
            assert report["ledger_identity"]["pass"]
            assert report["les_matches_mv"]["pass"]
            assert report["analytic_comparison"]["pass"]

    def test_interval_scenario_rejected(self):
        with pytest.raises(GluingError):
            verify_morse_side(GluingScenario("interval", 1.0, 0.5, bc="abs"))


class TestArcComparisonCache:
    def test_cached_pair_equals_a_fresh_build_bit_for_bit(self):
        for rank in (1, 2, 3):
            cached = _arc_comparison_torsions(rank)
            fresh = comparison_torsions(psi_maps(arc_data(rank=rank)))
            assert [float(x).hex() for x in cached] == [float(x).hex() for x in fresh]

    def test_one_entry_per_rank(self):
        # the key is the rank alone: holonomies, lengths and splits of the
        # standard grid and of random scenarios add no entries
        _arc_comparison_torsions.cache_clear()
        ranks = set()
        for report in standard_sweep():
            s = scenario_from_json(report["scenario"])
            if s.kind == "circle":
                verify_morse_side(s)
                ranks.add(s.rank)
        rng = np.random.default_rng(22)
        for rank in (1, 3, 3, 2):
            s = GluingScenario("circle", float(rng.uniform(0.5, 4.0)),
                               float(rng.uniform(0.2, 0.8)),
                               holonomy=random_unitary(rng, rank))
            verify_morse_side(s)
            ranks.add(rank)
        info = _arc_comparison_torsions.cache_info()
        assert ranks == {1, 2, 3}
        assert info.currsize == info.misses == len(ranks)


class TestDoubleFormula:
    def test_flagship(self):
        report = verify_double_formula(flagship())
        for key in ("analytic_identity", "analytic_reflection",
                    "combinatorial_identity", "combinatorial_reflection"):
            assert report[key]["pass"], (key, report[key])

    def test_rank_two_holonomy(self):
        U = np.diag([np.exp(0.5j), np.exp(-1.1j)])
        s = GluingScenario("circle", 3.0, 0.7, holonomy=U)
        report = verify_double_formula(s)
        assert all(report[k]["pass"] for k in report if k != "scenario")


class TestRepeatedWork:
    """Each verify_* call decomposes each matrix once and validates its
    input once; the public entry points it builds on still validate."""

    def scenario(self):
        return GluingScenario("circle", 2.7, 0.35,
                              holonomy=np.diag([np.exp(0.4j), 1.0]).astype(complex))

    def record_svds(self, monkeypatch, key):
        seen, svd = [], np.linalg.svd

        def recorded(a, full_matrices=True, compute_uv=True, **kw):
            seen.append(key(a, full_matrices, compute_uv))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kw)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        return seen

    def test_double_formula_decomposes_no_matrix_twice(self, monkeypatch):
        seen = self.record_svds(monkeypatch, lambda a, full, uv: (a.shape, a.tobytes(), full, uv))
        verify_double_formula(self.scenario())
        assert seen and len(set(seen)) == len(seen)

    def test_morse_side_decomposes_no_array_twice(self, monkeypatch):
        # keyed on the array itself: distinct complexes of the ledger share
        # some matrices by value (an E1 row differential is a block of the
        # long exact sequence), but no complex decomposes a block twice
        _arc_comparison_torsions(2)
        held = []

        def key(a, full, uv):
            held.append(a)  # keeps ids unique for the call
            return id(a), full, uv

        seen = self.record_svds(monkeypatch, key)
        verify_morse_side(self.scenario())
        assert seen and len(set(seen)) == len(seen)

    def test_each_input_is_validated_once(self, monkeypatch):
        counts = {}
        for cls in (DoubleComplexData, Z2Complex):
            def counted(self, _validate=cls.validate, _name=cls.__name__):
                counts[_name] = counts.get(_name, 0) + 1
                return _validate(self)
            monkeypatch.setattr(cls, "validate", counted)
        verify_morse_side(self.scenario())
        assert counts == {"DoubleComplexData": 1}
        counts.clear()
        verify_double_formula(self.scenario())
        assert counts == {"Z2Complex": 1}
