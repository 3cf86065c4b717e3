"""Tests for the coefficient algebras and matrix calculus."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from torsionlab import algebra
from torsionlab.algebra import (
    EXPM_CHUNK,
    AlgebraError,
    CircleBase,
    FormalPoint,
    FormElement,
    FormMatrix,
    PHI_ROOT,
    _basis,
    exterior_d,
    f_prime_supertrace,
    matrix_function,
    phi_rescale,
    regular_supertrace,
)


def random_form_matrix(rng, alg, size, grading, max_degree=None):
    data = {}
    if isinstance(alg, CircleBase):
        for key in (0, 1):
            data[key] = rng.standard_normal((alg.grid_size, size, size)) \
                + 1j * rng.standard_normal((alg.grid_size, size, size))
    else:
        for mask in range(1 << alg.n_generators):
            if max_degree is not None and bin(mask).count("1") > max_degree:
                continue
            data[mask] = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return FormMatrix(alg, size, grading, data)


# An untruncated and a truncated exterior algebra, and a circle grid.
ALGEBRAS = (FormalPoint(3), FormalPoint(3, truncation_degree=2), CircleBase(8, 2.0))


def supertrace(m):
    """Sum of diagonal entries weighted by (-1)^{grading}, as a FormElement."""
    signs = [(-1.0) ** g for g in m.grading]
    return FormElement.from_vector(m.algebra, regular_supertrace(m.algebra, m.regular(), signs))


def blockwise_product(a, b):
    """Reference product, block by block: (xi_I M)(xi_K N) is
    sign(I, K) xi_{I u K} (S^|K| M S^|K|) N, with sign(I, K) the parity of
    the pairs i in I, k in K with i > k, and S = diag((-1)^grading)."""
    s = np.array([(-1.0) ** g for g in a.grading])
    keys = _basis(a.algebra)[0]
    out = {}
    for k1, m in zip(keys, map(a.block, keys)):
        for k2, n in zip(keys, map(b.block, keys)):
            key = k1 | k2
            if k1 & k2 or a.algebra.key_degree(key) > a.algebra.max_degree:
                continue
            inversions = sum(bin(k2 & ((1 << i) - 1)).count("1") for i in range(8) if k1 >> i & 1)
            left = m * np.outer(s, s) if bin(k2).count("1") % 2 else m
            out[key] = out.get(key, 0) + (-1) ** inversions * (left @ n)
    return out


class TestWedgeMul:
    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        alg = FormalPoint(2)
        m = random_form_matrix(rng, alg, 3, (0, 1, 1))
        ident = FormMatrix.identity(alg, 3, (0, 1, 1))
        prod = ident @ m
        for key in _basis(alg)[0]:
            np.testing.assert_allclose(prod.block(key), m.block(key), atol=1e-14)

    def test_generators_anticommute(self):
        alg = FormalPoint(2)
        eye = np.eye(2, dtype=complex)
        xi1 = FormMatrix(alg, 2, (0, 1), {0b01: eye})
        xi2 = FormMatrix(alg, 2, (0, 1), {0b10: eye})
        ab = xi1 @ xi2
        ba = xi2 @ xi1
        np.testing.assert_allclose(ab.block(0b11), -ba.block(0b11), atol=1e-14)

    def test_degree0_matches_plain_product(self):
        rng = np.random.default_rng(1)
        alg = FormalPoint(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fa = FormMatrix.from_plain(alg, a, (0, 0, 1))
        fb = FormMatrix.from_plain(alg, b, (0, 0, 1))
        np.testing.assert_allclose((fa @ fb).block(0), a @ b, atol=1e-12)

    def test_size_mismatch_raises(self):
        alg = FormalPoint(1)
        a = FormMatrix.identity(alg, 2, (0, 1))
        b = FormMatrix.identity(alg, 3, (0, 1, 1))
        with pytest.raises(Exception):
            a @ b

    def test_algebra_mismatch_raises(self):
        a = FormMatrix.identity(FormalPoint(1), 2, (0, 1))
        b = FormMatrix.identity(FormalPoint(2), 2, (0, 1))
        with pytest.raises(Exception):
            a @ b

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        for alg in ALGEBRAS:
            ms = [random_form_matrix(rng, alg, 2, (0, 1)) for _ in range(3)]
            left = (ms[0] @ ms[1]) @ ms[2]
            right = ms[0] @ (ms[1] @ ms[2])
            for key in _basis(alg)[0]:
                np.testing.assert_allclose(left.block(key), right.block(key), atol=1e-10)

    def test_matches_blockwise_product(self):
        rng = np.random.default_rng(4)
        for alg in ALGEBRAS:
            a, b = (random_form_matrix(rng, alg, 3, (0, 1, 2)) for _ in range(2))
            prod, ref = a @ b, blockwise_product(a, b)
            for key in _basis(alg)[0]:
                np.testing.assert_allclose(prod.block(key), ref.get(key, 0), atol=1e-12)

    def test_stacked_blocks_embed_per_slice(self):
        # blocks with a leading stack axis embed slice by slice, a stacked
        # and an unstacked matrix add slice by slice, the regular
        # representation reads back to the same coefficients, and a stack
        # of circle families differentiates along its grid axis
        rng = np.random.default_rng(5)
        for alg in ALGEBRAS:
            ms = [random_form_matrix(rng, alg, 3, (0, 1, 2)) for _ in range(4)]
            stacked = FormMatrix(alg, 3, (0, 1, 2),
                                 {k: np.stack([m.block(k) for m in ms]) for k in _basis(alg)[0]})
            np.testing.assert_array_equal(stacked.regular(), np.stack([m.regular() for m in ms]))
            single = random_form_matrix(rng, alg, 3, (0, 1, 2))
            for total in (stacked + single, single + stacked):
                for k in _basis(alg)[0]:
                    np.testing.assert_array_equal(
                        total.block(k), np.stack([(m + single).block(k) for m in ms]))
            for m in (stacked, single):
                np.testing.assert_array_equal(m.from_regular(m.regular()).coeffs, m.coeffs)
        alg = CircleBase(8, 2.0)
        fams = rng.standard_normal((4, 8, 3, 3))
        np.testing.assert_allclose(alg.derivative(fams, axis=-3),
                                   np.stack([alg.derivative(f) for f in fams]), atol=1e-14)
        with pytest.raises(AlgebraError):
            FormMatrix(alg, 3, (0, 1, 2), {0: np.zeros((4, 3, 3))})

    def test_graded_commutativity_of_elements(self):
        # homogeneous scalar elements: a b = (-1)^{|a||b|} b a
        rng = np.random.default_rng(3)
        for alg in ALGEBRAS:
            keys = (0, 1) if isinstance(alg, CircleBase) else range(8)
            shape = (alg.grid_size,) if isinstance(alg, CircleBase) else ()
            for m1 in keys:
                for m2 in keys:
                    a = FormElement(alg, {m1: rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape)})
                    b = FormElement(alg, {m2: rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape)})
                    d1, d2 = bin(m1).count("1"), bin(m2).count("1")
                    ab = a.wedge(b)
                    ba = b.wedge(a) * ((-1.0) ** (d1 * d2))
                    np.testing.assert_allclose(ab.to_vector(), ba.to_vector(), atol=1e-12)

    def test_circle_one_forms_square_to_zero(self):
        alg = CircleBase(8, 1.0)
        f = FormElement(alg, {1: np.ones(8)})
        assert f.wedge(f).norm() == 0.0

    def test_one_key_regular_representation_needs_no_table(self, monkeypatch):
        # on FormalPoint(0) the regular representation is the block itself
        def no_table(*args):
            raise AssertionError("regular tables looked up for a one-key algebra")

        monkeypatch.setattr(algebra, "_regular_tables", no_table)
        rng = np.random.default_rng(4)
        m = random_form_matrix(rng, FormalPoint(0), 3, (0, 1, 1))
        for even in (False, True):
            rep = m.regular(even=even)
            np.testing.assert_array_equal(rep, m.block(0))


class TestSupertrace:
    def test_identity_with_grading(self):
        alg = FormalPoint(1)
        ident = FormMatrix.identity(alg, 3, (0, 0, 1))
        val = supertrace(ident)
        assert val.coefficient(0) == pytest.approx(1.0)

    def test_diag_two_blocks(self):
        alg = FormalPoint(1)
        m = FormMatrix.from_plain(alg, np.diag([2.5 + 1j, 0.5]), (0, 1))
        assert supertrace(m).coefficient(0) == pytest.approx(2.0 + 1j)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_vanishes_on_supercommutators(self, seed):
        # str([A, B]) = 0: str(AB) = (-1)^{|A||B|} str(BA) with |.| the
        # total parity (form degree plus endomorphism parity).
        rng = np.random.default_rng(seed)
        grading = (0, 0, 1)

        def prune(m, form_deg, e_parity):
            keep = {}
            for key in _basis(m.algebra)[0]:
                blk = m.block(key)
                if bin(key).count("1") != form_deg:
                    continue
                cut = np.zeros_like(blk)
                for i in range(3):
                    for j in range(3):
                        if (grading[i] + grading[j]) % 2 == e_parity:
                            cut[..., i, j] = blk[..., i, j]
                keep[key] = cut
            return FormMatrix(m.algebra, 3, grading, keep)

        for alg in (FormalPoint(2), FormalPoint(3, truncation_degree=2), CircleBase(8, 2.0)):
            for fa in (0, 1, 2):
                for fb in (0, 1, 2):
                    for pa in (0, 1):
                        for pb in (0, 1):
                            a = prune(random_form_matrix(rng, alg, 3, grading), fa, pa)
                            b = prune(random_form_matrix(rng, alg, 3, grading), fb, pb)
                            sign = (-1.0) ** ((fa + pa) * (fb + pb))
                            lhs = supertrace(a @ b)
                            rhs = supertrace(b @ a) * sign
                            np.testing.assert_allclose(lhs.to_vector(), rhs.to_vector(),
                                                       atol=1e-10)

    @pytest.mark.parametrize("size", [3, 0])
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("alg", [FormalPoint(1), FormalPoint(3), FormalPoint(4, 3),
                                     CircleBase(32)], ids=str)
    def test_f_prime_trace_matches_full_product(self, alg, even, size):
        # the trace of f'(X) from X^2 and the first block column of e^{X^2},
        # alone and through a right factor R as tilde_f uses it, against
        # the full product; FormalPoint(4, 3)'s kept keys of degree <= 2
        # are not a prefix of its basis, and the leading axis is a node axis
        rng = np.random.default_rng(size + 2 * even)
        grading, grid = (0, 1, 1)[:size], getattr(alg, "grid_size", None)
        lead = (4,) if grid is None else (4, grid)

        def random_blocks(scale):
            return scale * (rng.standard_normal(lead + (size, size))
                            + 1j * rng.standard_normal(lead + (size, size)))

        x = FormMatrix(alg, size, grading, {k: random_blocks(0.25) for k in _basis(alg)[0]})
        reps, weights = x.regular(even=even), rng.standard_normal(size)
        msq = reps @ reps
        col = matrix_function(msq, "exp")[..., :size]
        factor = random_blocks(0.5)
        full = matrix_function(reps, "f_prime")
        for got, ref in ((f_prime_supertrace(alg, msq, col, weights),
                          regular_supertrace(alg, full, weights)),
                         (f_prime_supertrace(alg, msq, col @ factor, weights),
                          regular_supertrace(alg, full[..., :size] @ factor, weights)),
                         (f_prime_supertrace(alg, msq[0], col[0], weights),
                          regular_supertrace(alg, full[0], weights))):
            assert got.shape == ref.shape == ref.shape[:-1] + (len(FormElement(alg).to_vector()),)
            assert size == 0 or np.abs(ref).max() > 1e-1  # not vacuous
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


class TestPhiRescale:
    def test_degree0_unchanged(self):
        alg = FormalPoint(2)
        e = FormElement(alg, {0: 3.0 + 4.0j})
        assert phi_rescale(e).coefficient(0) == pytest.approx(3.0 + 4.0j)

    def test_degree2_divided_by_2ipi(self):
        alg = FormalPoint(2)
        e = FormElement(alg, {0b11: 1.0})
        assert phi_rescale(e).coefficient(0b11) == pytest.approx(1.0 / (2.0j * np.pi))

    def test_degree1_branch(self):
        alg = FormalPoint(1)
        e = FormElement(alg, {0b1: 1.0})
        expected = 1.0 / (np.sqrt(2.0 * np.pi) * np.exp(0.25j * np.pi))
        assert phi_rescale(e).coefficient(0b1) == pytest.approx(expected)
        assert PHI_ROOT ** 2 == pytest.approx(2.0j * np.pi)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def check_tail_stack(which, g):
    """Batched degree-0 path on X_t = (t v* - v)/2 up to t = 1e6.

    v is a two-term differential with singular values (0, 1e-2, 1), so the
    stack spans the norms met in the tail windows of the torsion integral,
    with a kernel and a slowly decaying mode.  The oracle uses the
    similarity X_t = D Y D^{-1}, D = diag(t^{-g/2}), where
    Y = (sqrt(t)/2)(v* - v) is anti-Hermitian: g(X_t) = D U g(-i w) U* D^{-1}
    for the eigendecomposition i Y = U diag(w) U*.
    """
    rng = np.random.default_rng(0)
    n = 3
    v = np.zeros((2 * n, 2 * n), dtype=complex)
    v[n:, :n] = _unitary(rng, n) @ np.diag([0.0, 1e-2, 1.0]) @ _unitary(rng, n)
    times = np.array([1.0, 1e2, 1e4, 1e6])
    stack = 0.5 * (times[:, None, None] * v.conj().T - v)
    out = matrix_function(stack, which)
    assert out.shape == stack.shape
    for x, t, got in zip(stack, times, out):
        d = np.r_[np.ones(n), np.full(n, t ** -0.5)]
        w, u = np.linalg.eigh(0.5j * np.sqrt(t) * (v.conj().T - v))
        oracle = (d[:, None] * u * g(-1j * w)) @ (u.conj().T / d[None, :])
        # scaling and squaring is backward stable: error ~ eps * |X_t|
        np.testing.assert_allclose(got, oracle,
                                   atol=1e-13 * (1.0 + np.linalg.norm(x, 2)))


class TestMatrixFunction:
    def test_f_prime_at_zero_is_identity(self):
        alg = FormalPoint(2)
        z = FormMatrix(alg, 3, (0, 1, 2))
        out = matrix_function(z, "f_prime")
        np.testing.assert_allclose(out.block(0), np.eye(3), atol=1e-14)
        np.testing.assert_array_equal(matrix_function(z, "exp").block(0), np.eye(3))
        assert not matrix_function(z, "f").coeffs.any()
        with pytest.raises(ValueError):
            matrix_function(z, "g")
        np.testing.assert_allclose(matrix_function(np.zeros((4, 3, 3)), "f_prime"),
                                   np.broadcast_to(np.eye(3), (4, 3, 3)), atol=1e-14)
        check_tail_stack("f_prime", lambda z: (1.0 + 2.0 * z * z) * np.exp(z * z))

    def test_f_on_degree0_diagonal(self):
        alg = FormalPoint(1)
        a = np.diag([0.3, -0.7, 1.1]).astype(complex)
        out = matrix_function(FormMatrix.from_plain(alg, a, (0, 0, 1)), "f")
        expected = np.diag(np.diag(a) * np.exp(np.diag(a) ** 2))
        np.testing.assert_allclose(out.block(0), expected, atol=1e-12)
        check_tail_stack("f", lambda z: z * np.exp(z * z))

    def test_exp_of_square_zero_nilpotent(self):
        alg = FormalPoint(1)
        n = np.array([[0.0, 5.0], [0.0, 0.0]], dtype=complex)
        out = matrix_function(FormMatrix.from_plain(alg, n, (0, 1)), "exp")
        np.testing.assert_allclose(out.block(0), np.eye(2) + n, atol=1e-14)

    def test_exp_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        alg = FormalPoint(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T  # normal (Hermitian) test matrix
        out = matrix_function(FormMatrix.from_plain(alg, a, (0, 0, 1, 1)), "exp")
        w, u = np.linalg.eigh(a)
        oracle = (u * np.exp(w)) @ u.conj().T
        np.testing.assert_allclose(out.block(0), oracle, atol=1e-10 * np.linalg.norm(oracle))
        check_tail_stack("exp", np.exp)

    def test_exp_with_grassmann_part(self):
        # exp(c + xi A) = e^c (I + xi A) for commuting degree-0 scalar part
        c = 0.4
        a = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=complex)
        for alg, key in ((FormalPoint(1), 0b1), (FormalPoint(3, truncation_degree=1), 0b10),
                         (CircleBase(8, 2.0), 1)):
            lead = (alg.grid_size,) if isinstance(alg, CircleBase) else ()
            m = FormMatrix(alg, 2, (0, 1), {0: np.broadcast_to(c * np.eye(2), lead + (2, 2)),
                                            key: np.broadcast_to(a, lead + (2, 2))})
            out = matrix_function(m, "exp")
            np.testing.assert_allclose(out.block(0), np.exp(c) * np.broadcast_to(np.eye(2), lead + (2, 2)), atol=1e-12)
            np.testing.assert_allclose(out.block(key), np.exp(c) * np.broadcast_to(a, lead + (2, 2)), atol=1e-12)

    def test_circle_degree1_is_frechet_derivative(self):
        # exp(A + B dtheta) = e^A + S L(A, S B) dtheta, with L the Frechet
        # derivative of exp and S = diag((-1)^grading) (Van Loan 1978)
        rng = np.random.default_rng(21)
        alg = CircleBase(8, 3.0)
        grading = (0, 1, 1)
        m = random_form_matrix(rng, alg, 3, grading)
        out = matrix_function(m, "exp")
        s = np.array([(-1.0) ** g for g in grading])
        for g in range(alg.grid_size):
            a, b = m.block(0)[g], m.block(1)[g]
            expa, frechet = scipy.linalg.expm_frechet(a, s[:, None] * b)
            scale = np.linalg.norm(expa, 2) * (1.0 + np.linalg.norm(b, 2))
            np.testing.assert_allclose(out.block(0)[g], expa, atol=1e-13 * scale)
            np.testing.assert_allclose(out.block(1)[g], s[:, None] * frechet,
                                       atol=1e-12 * scale)

    def test_stack_matches_scipy_expm(self):
        # The stack kernel against scipy's expm slice by slice: 1-norms
        # from 1e-6 to 1e3, exactly diagonal and block-diagonal slices,
        # and more slices than one chunk.
        rng = np.random.default_rng(22)
        n = 4
        slices = []
        for norm in np.logspace(-6, 3, 10):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for a in (1j * (h + h.conj().T), -(h @ h.conj().T), h):
                if a is h and norm > 10.0:
                    continue  # general matrices: keep e^A within range
                slices.append(a * (norm / np.abs(a).sum(axis=0).max()))
        slices.append(np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        slices.append(np.zeros((n, n)))
        block = np.zeros((n, n), dtype=complex)
        block[:2, :2] = rng.standard_normal((2, 2))
        block[2:, 2:] = 40.0 * rng.standard_normal((2, 2))
        slices.append(block)
        stack = np.array(slices * (EXPM_CHUNK // len(slices) + 2))
        assert len(stack) > EXPM_CHUNK
        out = matrix_function(stack, "exp")
        for a, got in zip(stack, out):
            ref = scipy.linalg.expm(a)
            bound = 1e-13 * (1.0 + np.abs(a).sum(axis=0).max()) * max(1.0, np.linalg.norm(ref, 2))
            np.testing.assert_allclose(got, ref, atol=bound)
        np.testing.assert_array_equal(out[-3], np.diag(np.exp(np.diag(slices[-3]))))
        np.testing.assert_array_equal(out[-2], np.eye(n))
        assert not np.any(out[-1][:2, 2:]) and not np.any(out[-1][2:, :2])

    def test_small_exponent_keeps_relative_accuracy(self):
        # e^A - I = A + A^2/2 + ... is small and must come out with
        # relative accuracy: off the diagonal to rtol 1e-12, on it so that
        # I + (e^A - I) is within half a unit in the last place of 1.
        # The stack is -h h*, the shape of X_t^2 on a two-term complex.
        rng = np.random.default_rng(23)
        h = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        a = -(h @ np.swapaxes(h.conj(), -2, -1)) * np.logspace(-8, -3, 5)[:, None, None]
        series, term = np.zeros_like(a), np.broadcast_to(np.eye(4), a.shape)
        for k in range(1, 8):
            term = term @ a / k
            series += term
        off = ~np.eye(4, dtype=bool)
        got = matrix_function(a, "exp")
        np.testing.assert_allclose(got[:, off], series[:, off], rtol=1e-12)
        # (in extended precision where the platform has it)
        diag = np.diagonal(got.astype(np.clongdouble) - 1.0 - series, axis1=-2, axis2=-1)
        assert np.max(np.abs(diag)) <= 0.75 * np.spacing(1.0)

    def test_non_finite_raises(self):
        alg = FormalPoint(0)
        bad = FormMatrix.from_plain(alg, np.array([[np.inf]]), (0,))
        with pytest.raises(FloatingPointError):
            matrix_function(bad, "exp")
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = np.nan
        with pytest.raises(FloatingPointError):
            matrix_function(stack, "f_prime")


class TestExteriorD:
    def test_constant_maps_to_zero(self):
        alg = CircleBase(16)
        f = FormElement(alg, {0: np.full(16, 2.0 + 0.5j)})
        assert exterior_d(f).norm() < 1e-13

    def test_sin_derivative(self):
        alg = CircleBase(64)
        theta = alg.theta
        f = FormElement(alg, {0: np.sin(theta).astype(complex)})
        d = exterior_d(f)
        np.testing.assert_allclose(d.coefficient(1), np.cos(theta), atol=1e-10)

    def test_d_squared_zero(self):
        rng = np.random.default_rng(11)
        alg = CircleBase(32)
        f = FormElement(alg, {0: rng.standard_normal(32) + 1j * rng.standard_normal(32)})
        assert exterior_d(exterior_d(f)).norm() == 0.0

    def test_rejects_point_base(self):
        e = FormElement(FormalPoint(1), {0: 1.0})
        with pytest.raises(Exception):
            exterior_d(e)

    def test_circumference_scaling(self):
        L = 3.0
        alg = CircleBase(64, L)
        x = alg.theta
        f = FormElement(alg, {0: np.sin(2 * np.pi * x / L).astype(complex)})
        d = exterior_d(f)
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        np.testing.assert_allclose(d.coefficient(1), expected, atol=1e-9)
