"""Tests for double complexes, spectral pages, and torsion decompositions."""

import numpy as np
import pytest

from torsionlab import spectral
from torsionlab.complexes import MetricComplex, NonFiniteDataError
from torsionlab.hodge import scalar_torsion_eigen
from torsionlab.instances import (
    random_exact_row_double_complex,
    random_exact_sequence,
    random_invertible,
)
from torsionlab.morse import split_circle_data, three_column_double
from torsionlab.spectral import (
    DoubleComplexData,
    DoubleComplexError,
    SpectralPage,
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
        # each public entry point validates what it is given
        for call in (pages, lambda D: pages(D, "rows"), three_column_les, total_complex,
                     page_decomposition_residual):
            with pytest.raises(DoubleComplexError):
                call(bad)

    def test_transpose_involution(self):
        rng = np.random.default_rng(2)
        D = small_double(rng)
        T = D.transpose().transpose()
        assert T.dims == D.dims
        for k in D.dv:
            np.testing.assert_allclose(T.dv_at(*k), D.dv_at(*k))


def validate_all_positions(D):
    """The all-positions loop that ``validate()`` had before it formed only
    products of stored blocks: every product is formed, absent blocks as
    explicit zeros.  Kept here as a reference for that change."""
    scale = max([np.linalg.norm(m) for m in (*D.dv.values(), *D.hv.values())],
                default=1.0)
    tol = 1e-10 * max(scale * scale, 1.0)
    for p in range(D.P):
        for q in range(D.Q):
            if np.linalg.norm(D.dv_at(p, q + 1) @ D.dv_at(p, q)) > tol:
                raise DoubleComplexError(f"vertical differential squares to nonzero at {(p, q)}")
            if np.linalg.norm(D.hv_at(p + 1, q) @ D.hv_at(p, q)) > tol:
                raise DoubleComplexError(f"horizontal differential squares to nonzero at {(p, q)}")
            anti = (D.dv_at(p + 1, q) @ D.hv_at(p, q)
                    + D.hv_at(p, q + 1) @ D.dv_at(p, q))
            if np.linalg.norm(anti) > tol:
                raise DoubleComplexError(f"differentials do not anticommute at {(p, q)}")
    return D


def first_message(check, D):
    try:
        check(D)
    except DoubleComplexError as exc:
        return str(exc)
    return None


class TestValidate:
    def test_matches_the_all_positions_loop(self):
        # one dv or hv block perturbed at a time, every stored position
        # (edge and interior) at sizes from below the cut to order one;
        # then one dv and one hv block at once, which fixes the check order
        rng = np.random.default_rng(19)
        verdicts = set()
        for n_rows in (2, 2, 3, 3):
            D = small_double(rng, n_rows=n_rows)
            singles = [[(which, key)] for which in ("dv", "hv") for key in getattr(D, which)]
            pairs = [[("dv", a), ("hv", b)] for a in D.dv for b in D.hv]
            for targets in singles + pairs:
                noise = {t: rng.standard_normal(getattr(D, t[0])[t[1]].shape)
                         + 1j * rng.standard_normal(getattr(D, t[0])[t[1]].shape)
                         for t in targets}
                for size in (0.0, 1e-13, 1e-10, 1e-8, 1e-4, 1.0):
                    blocks = {"dv": dict(D.dv), "hv": dict(D.hv)}
                    for which, key in targets:
                        blocks[which][key] = blocks[which][key] + size * noise[(which, key)]
                    bad = DoubleComplexData(D.dims, blocks["dv"], blocks["hv"], D.h)
                    got = first_message(DoubleComplexData.validate, bad)
                    want = first_message(validate_all_positions, bad)
                    assert got == want, (n_rows, targets, size)
                    verdicts.add(None if got is None else got.split(" at ")[0])
        # passes and each of the three failure kinds were seen
        assert verdicts == {None, "vertical differential squares to nonzero",
                            "horizontal differential squares to nonzero",
                            "differentials do not anticommute"}

    @pytest.mark.parametrize("which,key,value", [
        ("hv", (0, 0), np.nan), ("hv", (1, 1), np.inf),
        ("dv", (1, 0), np.nan), ("dv", (2, 0), 1e200), ("h", (2, 1), np.nan)])
    def test_non_finite_entry_rejected(self, which, key, value):
        rng = np.random.default_rng(20)
        D = small_double(rng, n_rows=2)
        blocks = {"dv": dict(D.dv), "hv": dict(D.hv), "h": dict(D.h)}
        blk = blocks[which][key].copy()
        blk[0, 0] = value
        blocks[which][key] = blk
        bad = DoubleComplexData(D.dims, blocks["dv"], blocks["hv"], blocks["h"])
        with pytest.raises(NonFiniteDataError, match="non-finite or overflowing"):
            bad.validate()
        with pytest.raises(NonFiniteDataError):
            pages(bad)

    def test_nan_passed_the_norm_checks_alone(self):
        # norm(NaN) > tol is False: only the finiteness check catches it
        rng = np.random.default_rng(21)
        D = small_double(rng, n_rows=2)
        hv = dict(D.hv)
        hv[(0, 0)] = np.full_like(hv[(0, 0)], np.nan)
        validate_all_positions(DoubleComplexData(D.dims, D.dv, hv, D.h))


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

    def test_shorter_run_is_a_prefix_of_the_full_one(self):
        rng = np.random.default_rng(23)
        D = small_double(rng, n_rows=3)
        full = pages(D)
        for r_max in (0, 1):
            part = pages(D, r_max=r_max)
            assert len(part) == r_max + 1
            for a, b in zip(part, full):
                assert a.spaces.keys() == b.spaces.keys() and a.d.keys() == b.d.keys()
                assert all(np.array_equal(a.spaces[k], b.spaces[k]) for k in a.spaces)
                assert all(np.array_equal(a.d[k], b.d[k]) for k in a.d)

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


@pytest.mark.parametrize("route", ["page_torsion", "page_decomposition_residual",
                                   "torsion_e1", "torsion_e2", "torsion_les"])
def test_unknown_method_rejected(route):
    D = small_double(np.random.default_rng(24), n_rows=2, max_dim=2)
    data = three_column_les(D)
    call = {"page_torsion": lambda m: page_torsion(pages(D, r_max=0)[0], method=m),
            "page_decomposition_residual": lambda m: page_decomposition_residual(D, method=m),
            "torsion_e1": lambda m: data.torsion_e1(method=m),
            "torsion_e2": lambda m: data.torsion_e2(method=m),
            "torsion_les": lambda m: data.torsion_les(method=m)}[route]
    with pytest.raises(ValueError, match="unknown method 'quadratur'"):
        call("quadratur")


# ---- the layout loops that ``_graded_sum`` replaced, kept as references ---


def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=complex)


def total_complex_loop(D):
    nmax = D.P + D.Q - 2
    dims, offsets = [], {}
    for n in range(nmax + 1):
        total = 0
        for p in range(D.P):
            q = n - p
            if 0 <= q < D.Q:
                offsets[(p, q)] = (n, total)
                total += D.dim(p, q)
        dims.append(total)
    v = []
    for n in range(nmax):
        blk = _zeros(dims[n + 1], dims[n])
        for p in range(D.P):
            q = n - p
            if not (0 <= q < D.Q) or D.dim(p, q) == 0:
                continue
            _, src = offsets[(p, q)]
            s_src = slice(src, src + D.dim(p, q))
            if D.dim(p, q + 1):
                _, dst = offsets[(p, q + 1)]
                blk[dst:dst + D.dim(p, q + 1), s_src] += D.dv_at(p, q)
            if D.dim(p + 1, q):
                _, dst = offsets[(p + 1, q)]
                blk[dst:dst + D.dim(p + 1, q), s_src] += D.hv_at(p, q)
        v.append(blk)
    h = []
    for n in range(nmax + 1):
        blk = _zeros(dims[n], dims[n])
        for p in range(D.P):
            q = n - p
            if 0 <= q < D.Q and D.dim(p, q):
                _, off = offsets[(p, q)]
                blk[off:off + D.dim(p, q), off:off + D.dim(p, q)] = D.h_at(p, q)
        h.append(blk)
    return MetricComplex(dims, v, h)


def page_loop(page):
    keys = sorted(page.spaces.keys())
    if not keys:
        return MetricComplex([0], [], [np.zeros((0, 0))])
    nmax = max(p + q for p, q in keys)
    layout, dims = {}, []
    for n in range(nmax + 1):
        total = 0
        for p, q in keys:
            if p + q == n and page.dim(p, q):
                layout[(p, q)] = (n, total)
                total += page.dim(p, q)
        dims.append(total)
    v = []
    for n in range(nmax):
        blk = _zeros(dims[n + 1], dims[n])
        for (p, q), mat in page.d.items():
            if p + q != n or (p, q) not in layout:
                continue
            tgt = (p + page.r, q - page.r + 1)
            if tgt not in layout:
                continue
            _, src_off = layout[(p, q)]
            _, dst_off = layout[tgt]
            blk[dst_off:dst_off + mat.shape[0], src_off:src_off + mat.shape[1]] = mat
        v.append(blk)
    h = [np.eye(d, dtype=complex) for d in dims]
    return MetricComplex(dims, v, h)


def les_loop(Q, dims, d1, delta, grams):
    """``dims``, ``grams`` keyed by (column, row); ``d1`` by its source."""
    les_dims, les_v, les_h = [], [], []
    for q in range(Q):
        for p in range(3):
            les_dims.append(dims[(p, q)])
            les_h.append(np.asarray(grams[(p, q)], dtype=complex))
    for j in range(len(les_dims) - 1):
        q, slot = divmod(j, 3)
        les_v.append(d1[(slot, q)] if slot < 2 else delta[q])
    return MetricComplex(les_dims, les_v, les_h)


def e2_loop(Q, dims, d2, grams):
    """``d2[q]`` maps (0, q) to (2, q - 1) where it is nonzero."""
    nmax = Q + 1
    layout, sizes = {}, [0] * (nmax + 1)
    for q in range(Q):
        for p in range(3):
            n = q + p
            layout[(p, q)] = (n, sizes[n])
            sizes[n] += dims[(p, q)]
    v = [_zeros(sizes[n + 1], sizes[n]) for n in range(nmax)]
    for q, mat in d2.items():
        n, src_off = layout[(0, q)]
        _, dst_off = layout[(2, q - 1)]
        v[n][dst_off:dst_off + mat.shape[0], src_off:src_off + mat.shape[1]] = mat
    h = []
    for n in range(nmax + 1):
        blk = _zeros(sizes[n], sizes[n])
        for (p, q), (nn, off) in layout.items():
            d = dims[(p, q)]
            if nn == n and d:
                blk[off:off + d, off:off + d] = np.asarray(grams[(p, q)], dtype=complex)
        h.append(blk)
    return MetricComplex(sizes, v, h)


def assert_same(got, want, zero_signs=True):
    """Equal dims, offset and blocks; with ``zero_signs`` equal bytes too.

    The old total-complex loop added each block into zeros, which turns
    a stored -0.0 into +0.0; ``_graded_sum`` places the block as stored.
    """
    assert got.dims == want.dims and got.grading_offset == want.grading_offset
    assert len(got.v) == len(want.v) and len(got.h) == len(want.h)
    for a, b in zip(got.v + got.h, want.v + want.h):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not zero_signs or a.tobytes() == b.tobytes()


class TestGradedSum:
    def doubles(self):
        rng = np.random.default_rng(25)
        for i in range(24):
            yield small_double(rng, n_rows=1 + i % 4, max_dim=1 + i % 3,
                               identity_metric=bool(i % 2))
        for rank in (1, 2, 3):
            yield three_column_double(split_circle_data(random_invertible(rng, rank)))

    def test_total_complex_matches_the_loop(self):
        for D in self.doubles():
            for X in (D, D.transpose()):
                assert_same(total_complex(X), total_complex_loop(X), zero_signs=False)

    def test_pages_match_the_loop(self):
        for D in self.doubles():
            for filtration in ("columns", "rows"):
                for page in pages(D, filtration):
                    assert_same(page_to_complex(page), page_loop(page))

    def test_empty_page(self):
        page = SpectralPage(0, "columns", {}, {})
        assert_same(page_to_complex(page), page_loop(page))
        assert page_to_complex(page).dims == [0]

    def test_les_and_e2_match_the_loops(self, monkeypatch):
        calls, graded_sum = [], spectral._graded_sum

        def record(dims, maps, metrics=None, degree=sum):
            calls.append((dims, {(s, d): m for s, d, m in maps}, metrics))
            return graded_sum(dims, maps, metrics, degree)

        monkeypatch.setattr(spectral, "_graded_sum", record)
        for D in self.doubles():
            calls.clear()
            data = three_column_les(D)
            (dims, maps, grams), (e2_dims, e2_maps, e2_grams) = calls
            d1 = {s: m for (s, d), m in maps.items() if d == (s[0] + 1, s[1])}
            delta = {s[1]: m for (s, d), m in maps.items() if s[0] == 2}
            assert len(d1) == 2 * D.Q and len(delta) == D.Q - 1
            assert_same(data.les, les_loop(D.Q, dims, d1, delta, grams))
            d2 = {s[1]: m for (s, d), m in e2_maps.items()}
            assert all(d == (2, s[1] - 1) for s, d in e2_maps)
            assert_same(data.e2_complex, e2_loop(D.Q, e2_dims, d2, e2_grams))
