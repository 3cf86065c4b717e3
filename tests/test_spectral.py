"""Tests for double complexes, spectral pages, and torsion decompositions."""

import numpy as np
import pytest

from torsionlab.complexes import MetricComplex, torsion_form
from torsionlab.hodge import scalar_torsion_eigen
from torsionlab.instances import (
    random_exact_row_double_complex,
    random_exact_sequence,
    random_invertible,
)
from torsionlab.spectral import (
    DoubleComplexData,
    compose,
    page_decomposition_residual,
    page_to_complex,
    page_torsion,
    pages,
    three_column_les,
    total_complex,
)


def small_double(rng, **kw):
    return random_exact_row_double_complex(rng, **kw)


class TestDoubleComplexData:
    def test_random_instances_validate(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            small_double(rng).validate()

    def test_broken_anticommutation_rejected(self):
        rng = np.random.default_rng(1)
        D = small_double(rng, n_rows=2)
        bad = DoubleComplexData(D.dims, dict(D.dv), dict(D.hv), dict(D.h))
        key = (0, 0)
        bad.hv[key] = bad.hv[key] + 0.1 * np.ones_like(bad.hv[key])
        with pytest.raises(Exception):
            bad.validate()

    def test_transpose_involution(self):
        rng = np.random.default_rng(2)
        D = small_double(rng)
        T = D.transpose().transpose()
        assert T.dims == D.dims
        for k in D.dv:
            np.testing.assert_allclose(T.dv_at(*k), D.dv_at(*k))


class TestTotalComplex:
    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(3)
        D = small_double(rng)
        tot = total_complex(D)
        for n, d in enumerate(tot.dims):
            expected = sum(D.dim(p, n - p) for p in range(D.P))
            assert d == expected

    def test_differential_squares_to_zero(self):
        rng = np.random.default_rng(4)
        tot = total_complex(small_double(rng))
        tot.validate()

    def test_exact_rows_give_acyclic_total(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            tot = total_complex(small_double(rng))
            assert not any(tot.betti())


class TestPages:
    def test_page0_has_full_dims(self):
        rng = np.random.default_rng(6)
        D = small_double(rng)
        p0 = pages(D, r_max=0)[0]
        for p in range(D.P):
            for q in range(D.Q):
                assert p0.dim(p, q) == D.dim(p, q)

    def test_dims_decrease_and_limit_vanishes(self):
        rng = np.random.default_rng(7)
        D = small_double(rng)
        ps = pages(D, r_max=D.P + D.Q)
        sizes = [pg.total_dim() for pg in ps]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 0  # acyclic total complex

    def test_rows_filtration_collapses_at_page1(self):
        # rows are exact, so the rows-filtration first page is zero
        rng = np.random.default_rng(8)
        D = small_double(rng)
        ps = pages(D, filtration="rows", r_max=1)
        assert ps[1].total_dim() == 0

    def test_page_differentials_square_to_zero(self):
        rng = np.random.default_rng(9)
        D = small_double(rng)
        for pg in pages(D, r_max=3):
            page_to_complex(pg).validate()

    def test_last_page_ranks_follow_the_one_policy(self):
        # a horizontal singular value of 1e-9 is nonzero to the package's
        # rank policy, so the pages converge to the zero total cohomology
        D = DoubleComplexData([[2], [2]], hv={(0, 0): np.diag([1.0, 1e-9])})
        last = page_to_complex(pages(D)[-1])
        assert tuple(last.dims) == total_complex(D).betti() == (0, 0)

    def test_orthonormal_representatives(self):
        rng = np.random.default_rng(10)
        D = small_double(rng)
        for pg in pages(D, r_max=2):
            for m in pg.spaces.values():
                if m.shape[1]:
                    np.testing.assert_allclose(m.conj().T @ m,
                                               np.eye(m.shape[1]), atol=1e-10)


class TestPageDecomposition:
    def test_total_torsion_decomposes_over_pages(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            D = small_double(rng)
            assert page_decomposition_residual(D) < 1e-9

    def test_quadrature_route_agrees(self):
        rng = np.random.default_rng(12)
        D = small_double(rng, n_rows=2, max_dim=2)
        assert page_decomposition_residual(D, method="quadrature") < 1e-8

    def test_rows_filtration_also_decomposes(self):
        rng = np.random.default_rng(13)
        D = small_double(rng)
        assert page_decomposition_residual(D, filtration="rows") < 1e-9

    def test_nonacyclic_rejected(self):
        v = np.zeros((1, 1))
        D = DoubleComplexData([[1, 1], [1, 1]])
        with pytest.raises(Exception):
            page_decomposition_residual(D)


class TestCompose:
    def test_splice_is_exact_and_additive(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            E = random_exact_sequence(rng, length=int(rng.integers(1, 4)))
            l = len(E.dims) - 1
            Ep = random_exact_sequence(rng, length=int(rng.integers(1, 4)),
                                       start_dim=E.dims[-1])
            # both sequences must see the same metric on the shared space
            Ep = Ep.with_metric([E.h[-1]] + Ep.h[1:])
            glued = compose(E, Ep)
            assert not any(glued.betti())
            lhs = scalar_torsion_eigen(glued)
            rhs = scalar_torsion_eigen(E) + ((-1.0) ** (l + 1)) * scalar_torsion_eigen(Ep)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_junction_mismatch_raises(self):
        rng = np.random.default_rng(15)
        E = random_exact_sequence(rng, length=2, end_dim=2)
        Ep = random_exact_sequence(rng, length=2, start_dim=3)
        with pytest.raises(ValueError):
            compose(E, Ep)


class TestThreeColumn:
    def test_les_is_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            data = three_column_les(small_double(rng))
            assert not any(data.les.betti())

    def test_les_torsion_decomposes_over_pages(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            data = three_column_les(small_double(rng))
            lhs = data.torsion_les()
            rhs = data.torsion_e1() + data.torsion_e2()
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_quadrature_route_agrees(self):
        rng = np.random.default_rng(18)
        data = three_column_les(small_double(rng, n_rows=2, max_dim=2))
        lhs = data.torsion_les(method="quadrature")
        rhs = data.torsion_e1(method="quadrature") + data.torsion_e2(method="quadrature")
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_requires_three_columns(self):
        D = DoubleComplexData([[1], [1]])
        with pytest.raises(ValueError):
            three_column_les(D)
