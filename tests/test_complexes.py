"""Tests for metric complexes, characteristic forms and torsion forms."""

import time

import numpy as np
import pytest

from torsionlab import algebra, complexes
from torsionlab.algebra import (
    _basis,
    CircleBase,
    FormalPoint,
    FormMatrix,
    exterior_d,
    FormElement,
    matrix_function,
    phi_rescale,
    regular_supertrace,
)
from torsionlab.complexes import (
    ComplexDataError,
    MetricComplex,
    _number_supertrace,
    char_form,
    complex_from_json,
    complex_to_json,
    numerical_rank,
    omega,
    rank_split,
    rescale_metric,
    tilde_f,
    torsion_form,
    x_t,
)
from torsionlab.hodge import induced_gram, scalar_torsion_eigen
from torsionlab.instances import (
    random_circle_metric_family,
    random_circle_two_term,
    random_complex_instance,
    random_invertible,
    random_metric,
    random_two_term,
    random_unitary,
)
from torsionlab.quad import QuadratureError, QuadratureSpec, adaptive_quad


def two_term(tau, h0=None, h1=None, base=None):
    n = tau.shape[0]
    h0 = np.eye(n, dtype=complex) if h0 is None else h0
    h1 = np.eye(n, dtype=complex) if h1 is None else h1
    return MetricComplex([n, n], [tau], [h0, h1], base=base)


class TestOmega:
    def test_constant_metric_gives_zero(self):
        alg = CircleBase(16)
        E = two_term(2.0 * np.eye(2, dtype=complex), base=alg)
        assert omega(E).norm() < 1e-13

    def test_rank1_exponential_metric(self):
        alg = CircleBase(64)
        u = 0.3 * np.sin(alg.theta) + 0.1 * np.cos(2 * alg.theta)
        uprime = 0.3 * np.cos(alg.theta) - 0.2 * np.sin(2 * alg.theta)
        h = np.exp(u)[:, None, None] * np.ones((1, 1))
        E = MetricComplex([1], [], [h], base=alg)
        w = omega(E)
        np.testing.assert_allclose(w.block(1)[:, 0, 0], uprime, atol=1e-10)

    def test_frame_change_consistency(self):
        # h = g* g for a smooth frame g  =>  omega = h^{-1} h'
        rng = np.random.default_rng(5)
        alg = CircleBase(64)
        c = np.cos(alg.theta)
        g = (np.eye(2)[None] * (2.0 + 0.3 * c)[:, None, None]).astype(complex)
        g[:, 0, 1] = 0.4 * np.sin(alg.theta)
        h = np.swapaxes(g.conj(), 1, 2) @ g
        E = MetricComplex([2], [], [h], base=alg)
        hprime = alg.derivative(h)
        expected = np.linalg.solve(h, hprime)
        np.testing.assert_allclose(omega(E).block(1), expected, atol=1e-9)


class TestRescale:
    def test_t_one_is_identity(self):
        rng = np.random.default_rng(0)
        E = random_complex_instance(rng, length=2)
        Et = rescale_metric(E, 1.0)
        for a, b in zip(E.h, Et.h):
            np.testing.assert_allclose(a, b)

    def test_graded_powers(self):
        E = MetricComplex([1, 1], [np.array([[1.0]])],
                          [np.array([[1.0]]), np.array([[1.0]])])
        Et = rescale_metric(E, 2.0)
        assert Et.h[0][0, 0] == pytest.approx(1.0)
        assert Et.h[1][0, 0] == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(1)
        E = random_complex_instance(rng, length=1)
        with pytest.raises(ValueError):
            rescale_metric(E, 0.0)

    def test_adjoint_conjugation_relation(self):
        # the t-adjoint equals t^{-N} (adjoint) t^{N}
        from torsionlab.complexes import _v_adjoint
        rng = np.random.default_rng(2)
        E = random_complex_instance(rng, length=3)
        t = 1.7
        left = _v_adjoint(rescale_metric(E, t))
        tn = np.diag([t ** g for g in E.grading]).astype(complex)
        right = np.linalg.inv(tn) @ _v_adjoint(E) @ tn
        np.testing.assert_allclose(left, right, atol=1e-10)


class TestXt:
    def test_zero_differential_constant_metric(self):
        E = MetricComplex([2, 2], [np.zeros((2, 2))],
                          [np.eye(2), np.eye(2)])
        assert x_t(E, 3.0).norm() < 1e-14

    def test_two_term_formula(self):
        rng = np.random.default_rng(3)
        tau = random_invertible(rng, 3)
        E = two_term(tau)
        t = 2.5
        m = x_t(E, t).block(0)
        expected = np.zeros((6, 6), dtype=complex)
        expected[3:, :3] = -0.5 * tau
        expected[:3, 3:] = 0.5 * t * tau.conj().T
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_square_identity_on_circle(self):
        # rank one, equal metrics in both degrees: X_t^2 = -(t/4) Delta
        rng = np.random.default_rng(4)
        alg = CircleBase(32)
        u = 0.4 * np.sin(alg.theta)
        h = np.exp(u)[:, None, None] * np.ones((1, 1))
        tau = np.array([[1.3 - 0.4j]])
        E = MetricComplex([1, 1], [tau], [h, h], base=alg)
        t = 1.9
        sq = x_t(E, t) @ x_t(E, t)
        assert np.max(np.abs(sq.block(1))) < 1e-12  # odd part cancels
        tau_sq = float(np.abs(tau[0, 0]) ** 2)
        delta = tau_sq * np.eye(2)
        expected = np.broadcast_to(-0.25 * t * delta, (alg.grid_size, 2, 2))
        np.testing.assert_allclose(sq.block(0), expected, atol=1e-10)


class TestCharForm:
    def test_constant_metric_vanishes(self):
        alg = CircleBase(16)
        E = two_term(np.eye(2, dtype=complex), base=alg)
        assert char_form(E).norm() < 1e-13

    def test_rank1_two_term_degree1(self):
        alg = CircleBase(64)
        u = 0.5 * np.sin(alg.theta) + 0.2 * np.cos(alg.theta)
        uprime = 0.5 * np.cos(alg.theta) - 0.2 * np.sin(alg.theta)
        h1 = np.exp(u)[:, None, None] * np.ones((1, 1))
        h0 = np.ones((alg.grid_size, 1, 1), dtype=complex)
        E = MetricComplex([1, 1], [np.array([[1.0]])], [h0, h1], base=alg)
        val = char_form(E)
        np.testing.assert_allclose(val.coefficient(1), -0.5 * uprime, atol=1e-9)

    def test_real_on_random_inputs(self):
        rng = np.random.default_rng(6)
        E = random_circle_two_term(rng, grid=32)
        val = char_form(E)
        assert val.max_imag() < 1e-10
        assert val.degree_component(0).norm() < 1e-10


class TestTorsionForm:
    def test_tau_twice_identity(self):
        E = two_term(2.0 * np.eye(3, dtype=complex))
        res = torsion_form(E)
        assert res.degree0 == pytest.approx(-3.0 * np.log(2.0), abs=1e-9)
        assert res.d_E == -3
        assert res.d_H == 0

    def test_zero_complex(self):
        E = MetricComplex([0, 0], [np.zeros((0, 0))], [np.zeros((0, 0))] * 2)
        assert torsion_form(E).degree0 == 0.0

    def test_random_tau_log_det(self):
        rng = np.random.default_rng(7)
        tau = random_invertible(rng, 3)
        res = torsion_form(two_term(tau))
        expected = -np.log(np.abs(np.linalg.det(tau)))
        assert res.degree0 == pytest.approx(expected, abs=1e-9)

    def test_matches_eigen_route_nonacyclic(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            E = random_complex_instance(rng, length=3, max_dim=4)
            res = torsion_form(E)
            assert res.degree0 == pytest.approx(scalar_torsion_eigen(E), abs=1e-9)

    def test_grading_shift_sign(self):
        rng = np.random.default_rng(9)
        tau = random_invertible(rng, 2)
        base = two_term(tau)
        shifted = MetricComplex(base.dims, base.v, base.h, grading_offset=1)
        t0 = torsion_form(base).degree0
        t1 = torsion_form(shifted).degree0
        assert t1 == pytest.approx(-t0, abs=1e-9)

    def test_degree0_batch_matches_form_valued_path(self):
        # Over FormalPoint(1), with a zero omega_data one-form, X_t goes
        # through the FormMatrix path and its even truncation to key 0.
        rng = np.random.default_rng(12)
        E = random_complex_instance(rng, length=2, max_dim=3)
        alg = FormalPoint(1)
        n = E.total_dim
        zero = FormMatrix(alg, n, E.grading, {0b1: np.zeros((n, n))})
        batched = torsion_form(MetricComplex(E.dims, E.v, E.h))
        per_node = torsion_form(MetricComplex(E.dims, E.v, E.h, base=alg,
                                              omega_data=zero))
        np.testing.assert_allclose(per_node.element.to_vector(),
                                   [batched.degree0, 0.0], atol=1e-12)

    def test_result_is_real_and_even_on_circle(self):
        rng = np.random.default_rng(10)
        E = random_circle_two_term(rng, grid=32, rank=1)
        res = torsion_form(E)
        assert res.element.max_imag() < 1e-10
        assert not res.element.coefficient(1).any()

    @pytest.mark.parametrize("case", ["circle_r1", "circle_r2", "point_1", "point_3", "point_4t3"])
    def test_full_representation_integrand_is_even(self, case):
        # f'(X_t) over the whole regular representation, X_t built afresh
        # at each t: its odd coefficients vanish exactly, and its even ones
        # are those of the truncated integrand
        E = graded_one_form_complex(case)
        alg, ts = E.form_algebra(), np.array([0.05, 0.5, 1.0, 30.0, 400.0])
        weights = [((-1.0) ** g) * 0.5 * g for g in E.grading]
        reps = np.stack([phi_rescale(x_t(E, t)).regular() for t in ts])
        full = regular_supertrace(alg, matrix_function(reps, "f_prime"), weights)
        odd = np.repeat(_basis(alg)[3], alg.grid_size if isinstance(alg, CircleBase) else 1)
        assert np.abs(full[:, ~odd]).max() > 1e-3  # not vacuous
        if case in ("point_3", "point_4t3"):  # parts of degree 2
            assert np.abs(full[:, ~odd][:, 1:]).max() > 1e-3
        assert not full[:, odd].any()
        truncated = _number_supertrace(E)[0](ts)
        assert not truncated[:, odd].any()
        np.testing.assert_allclose(truncated[:, ~odd], full[:, ~odd], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", ["circle_r2_g64", "point_1"])
    def test_fiber_exponentials_are_total_dim(self, case, monkeypatch):
        E = graded_one_form_complex(case)
        shapes = []
        expm = algebra._expm

        def recording(a):
            shapes.append(a.shape)
            return expm(a)

        monkeypatch.setattr(algebra, "_expm", recording)
        torsion_form(E)
        assert shapes
        assert {s[-2:] for s in shapes} == {(E.total_dim, E.total_dim)}

    def test_omega_data_that_is_not_odd_is_rejected_at_once(self):
        # full one-form blocks also join degrees of equal parity: not the
        # h^{-1} dh of any graded metric, and the t > 1 integrand would not
        # decay
        rng = np.random.default_rng(21)
        E = random_complex_instance(rng, length=3, max_dim=3)
        n, alg = E.total_dim, FormalPoint(2)
        w = FormMatrix(alg, n, E.grading, {k: 0.3 * (rng.standard_normal((n, n))
                                                    + 1j * rng.standard_normal((n, n)))
                                           for k in (0b01, 0b10)})
        F = MetricComplex(E.dims, E.v, E.h, base=alg, omega_data=w)
        start = time.monotonic()
        with pytest.raises(ComplexDataError, match="not odd"):
            torsion_form(F)
        assert time.monotonic() - start < 1.0


def graded_one_form_complex(case):
    """A complex whose omega is odd: a circle family, or a point base with a
    random one-form omega_data that preserves the grading.  On
    FormalPoint(4, 3) the kept keys of degree <= 2 are not a prefix of
    the basis."""
    rng = np.random.default_rng(31)
    if case.startswith("circle"):
        grid = 64 if case.endswith("g64") else 32
        return random_circle_two_term(rng, grid=grid, rank=int(case[8]))
    E = random_complex_instance(rng, length=3, max_dim=3)
    alg = FormalPoint(4, 3) if case == "point_4t3" else FormalPoint(int(case[-1]))
    sl = E.block_slices()
    blocks = {}
    for a in range(alg.n_generators):
        blk = np.zeros((E.total_dim,) * 2, dtype=complex)
        for s, d in zip(sl, E.dims):
            blk[s, s] = 0.4 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        blocks[1 << a] = blk
    w = FormMatrix(alg, E.total_dim, E.grading, blocks)
    return MetricComplex(E.dims, E.v, E.h, base=alg, omega_data=w)


def reuses_tail(E):
    """Whether ``torsion_form(E)`` reuses e^{X_t^2} across tail windows."""
    return _number_supertrace(E)[1]


def fresh_torsion_form(E, monkeypatch):
    """Reference: ``torsion_form`` with every e^{X_t^2} evaluated afresh."""
    with monkeypatch.context() as m:
        m.setattr(complexes, "_square_is_linear", lambda rep0, rep1: False)
        return torsion_form(E)


def count_exp_slices(E, monkeypatch):
    """Slices that reach ``algebra._expm`` in ``torsion_form(E)``, and the
    quadrature nodes of its lower half and of its tail windows."""
    counts = {"slices": 0, "lower": 0, "tail": 0}
    expm, quad = algebra._expm, complexes.adaptive_quad

    def recording_expm(a):
        counts["slices"] += int(np.prod(a.shape[:-2]))
        return expm(a)

    def recording_quad(fn, a, b, spec):
        def counted(u):
            counts["tail" if a > 0 else "lower"] += len(u)
            return fn(u)
        return quad(counted, a, b, spec)

    with monkeypatch.context() as m:
        m.setattr(algebra, "_expm", recording_expm)
        m.setattr(complexes, "adaptive_quad", recording_quad)
        torsion_form(E)
    return counts


class TestDyadicTailReuse:
    def test_matches_eigen_route_and_fresh_evaluation(self, monkeypatch):
        rng = np.random.default_rng(41)
        reused = 0
        for i in range(50):
            E = random_complex_instance(rng, length=1 + i % 4, max_dim=5)
            # the other 11 have a diagonal K, so a diagonal X_t^2
            reused += reuses_tail(E)
            res = torsion_form(E)
            assert res.degree0 == pytest.approx(scalar_torsion_eigen(E), abs=1e-11)
            np.testing.assert_allclose(res.element.to_vector(),
                                       fresh_torsion_form(E, monkeypatch).element.to_vector(),
                                       rtol=0, atol=1e-12)
        assert reused == 39

    def test_point_base_reuses_tail_exponentials(self, monkeypatch):
        rng = np.random.default_rng(42)
        E = random_complex_instance(rng, length=3, max_dim=4)
        counts = count_exp_slices(E, monkeypatch)
        assert 0 < counts["slices"] < counts["tail"]
        with monkeypatch.context() as m:
            m.setattr(complexes, "_square_is_linear", lambda rep0, rep1: False)
            fresh = count_exp_slices(E, monkeypatch)
        assert fresh["slices"] == fresh["lower"] + fresh["tail"]
        assert (fresh["lower"], fresh["tail"]) == (counts["lower"], counts["tail"])

    @pytest.mark.parametrize("case", ["circle_r2", "point_1"])
    def test_reuses_where_omega_leaves_the_even_block(self, case, monkeypatch):
        # the even representation of a circle, or of FormalPoint(1), is the
        # degree-0 block (t v* - v)/2, at each grid point on a circle
        E = graded_one_form_complex(case)
        assert reuses_tail(E)
        counts = count_exp_slices(E, monkeypatch)
        grid = E.base.grid_size if isinstance(E.base, CircleBase) else 1
        assert 0 < counts["slices"] < grid * (counts["lower"] + counts["tail"])
        with monkeypatch.context() as m:
            m.setattr(complexes, "_square_is_linear", lambda rep0, rep1: False)
            fresh = count_exp_slices(E, monkeypatch)
        assert fresh["slices"] == grid * (fresh["lower"] + fresh["tail"])
        assert (fresh["lower"], fresh["tail"]) == (counts["lower"], counts["tail"])

    def test_omega_data_in_the_even_block_evaluates_every_node(self, monkeypatch):
        # on FormalPoint(2) the degree-2 keys are kept, and omega^2 enters X_t^2
        E = graded_one_form_complex("point_2")
        assert not reuses_tail(E)
        counts = count_exp_slices(E, monkeypatch)
        assert counts["slices"] == counts["lower"] + counts["tail"]

    @pytest.mark.parametrize("grid", [32, 64])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_circle_matches_fresh_evaluation_and_each_fiber(self, rank, grid, monkeypatch):
        rng = np.random.default_rng(46 + rank)
        E = random_circle_two_term(rng, grid=grid, rank=rank)
        assert reuses_tail(E) == (rank > 1)
        res = torsion_form(E)
        np.testing.assert_allclose(res.element.to_vector(),
                                   fresh_torsion_form(E, monkeypatch).element.to_vector(),
                                   rtol=0, atol=1e-12)
        for j in range(grid):
            fiber = two_term(E.v[0], E.h[0][j], E.h[1][j])
            assert res.degree0[j] == pytest.approx(scalar_torsion_eigen(fiber), abs=1e-11)

    def test_rank_one_circle_makes_no_squarings(self, monkeypatch):
        # K is diagonal: every X_t^2 is, and _expm takes it entry by entry
        E = graded_one_form_complex("circle_r1")
        assert not reuses_tail(E)
        counts = count_exp_slices(E, monkeypatch)
        assert counts["slices"] == E.base.grid_size * (counts["lower"] + counts["tail"])

    def test_rounding_scale_v_squared_takes_the_fresh_path(self, monkeypatch):
        # v^2 of about 1e-12 scale^2: validate() admits it, the reuse does
        # not, on a point base and at every grid point of a circle
        rng = np.random.default_rng(43)
        u = random_unitary(rng, 2)
        v0 = u @ np.array([[1.0], [0.0]])
        v1 = np.array([[1e-12, 1.5]]) @ u.conj().T
        h = [random_metric(rng, d) for d in (1, 2, 1)]
        assert 1e-14 < np.linalg.norm(v1 @ v0) / 1.5**2 < 1e-10
        for base, grid in ((None, 1), (CircleBase(32), 32)):
            E = MetricComplex([1, 2, 1], [v0, v1], h, base=base)
            E.validate()
            assert not reuses_tail(E)
            counts = count_exp_slices(E, monkeypatch)
            assert counts["slices"] == grid * (counts["lower"] + counts["tail"])

    @pytest.mark.parametrize("k", range(4))
    def test_near_degenerate_two_term(self, k, monkeypatch):
        # singular values 1 and 10^-k; at 1e-4 the tail bisects to max_levels
        rng = np.random.default_rng(44)
        tau = random_unitary(rng, 2) @ np.diag([1.0, 10.0 ** -k]) @ random_unitary(rng, 2)
        E = two_term(tau)
        assert reuses_tail(E)
        exact = scalar_torsion_eigen(E)
        assert torsion_form(E).degree0 == pytest.approx(exact, abs=1e-10)
        assert fresh_torsion_form(E, monkeypatch).degree0 == pytest.approx(exact, abs=1e-10)

    def test_tail_that_never_falls_below_the_cut_raises(self):
        # at tolerance 0 no window is below the cut, not even an exact zero
        rng = np.random.default_rng(45)
        E = two_term(random_invertible(rng, 2))
        start = time.monotonic()
        with pytest.raises(QuadratureError, match="dyadic windows"):
            torsion_form(E, QuadratureSpec(tolerance=0.0, max_levels=0))
        assert time.monotonic() - start < 1.0


class TestTransgression:
    def test_d_torsion_equals_char_form(self):
        # acyclic over the circle: d(T at degree 0) = char form at degree 1
        rng = np.random.default_rng(11)
        E = random_circle_two_term(rng, grid=64, rank=1)
        res = torsion_form(E)
        lhs = exterior_d(FormElement(E.base, {0: np.asarray(res.degree0, dtype=complex)}))
        rhs = char_form(E)
        np.testing.assert_allclose(lhs.coefficient(1), rhs.coefficient(1), atol=1e-7)


def loglinear_metric(a, b, l, derivative):
    """h0^{1/2} X^l h0^{1/2}, with X = h0^{-1/2} h1 h0^{-1/2}, or its
    l-derivative h0^{1/2} X^l log X h0^{1/2}."""
    wa, va = np.linalg.eigh(a)
    vah = np.swapaxes(va.conj(), -2, -1)
    sqa = (va * np.sqrt(wa)[..., None, :]) @ vah
    isqa = (va * (1.0 / np.sqrt(wa))[..., None, :]) @ vah
    x = isqa @ b @ isqa
    wx, vx = np.linalg.eigh(0.5 * (x + np.swapaxes(x.conj(), -2, -1)))
    w = np.exp(l * np.log(wx)) * (np.log(wx) if derivative else 1.0)
    return sqa @ ((vx * w[..., None, :]) @ np.swapaxes(vx.conj(), -2, -1)) @ sqa


def tilde_f_per_node(E, h0, h1, path, quad):
    """Reference comparison class: the same quadrature, with the integrand
    evaluated one path parameter at a time through FormMatrix products."""
    alg, n, sl = E.form_algebra(), E.total_dim, E.block_slices()
    h0 = [np.asarray(b, dtype=complex) for b in h0]
    h1 = [np.asarray(b, dtype=complex) for b in h1]

    def integrand(l):
        if path == "linear":
            hl = [(1.0 - l) * a + l * b for a, b in zip(h0, h1)]
            hd = [b - a for a, b in zip(h0, h1)]
        else:
            hl = [loglinear_metric(a, b, l, False) for a, b in zip(h0, h1)]
            hd = [loglinear_metric(a, b, l, True) for a, b in zip(h0, h1)]
        hinv_hd = np.zeros(hl[0].shape[:-2] + (n, n), dtype=complex)
        for i, (a, b) in enumerate(zip(hl, hd)):
            hinv_hd[..., sl[i], sl[i]] = np.linalg.solve(a, b)
        factor = FormMatrix(alg, n, E.grading, {0: 0.5 * hinv_hd})
        fp = matrix_function(omega(E.with_metric(hl)) * 0.5, "f_prime")
        prod, signs = factor @ fp, np.array([(-1.0) ** g for g in E.grading])
        trace = FormElement(alg, {k: np.diagonal(prod.block(k), axis1=-2, axis2=-1) @ signs
                                  for k in _basis(alg)[0]})
        return phi_rescale(trace).to_vector()

    value, _ = adaptive_quad(lambda ls: np.array([integrand(l) for l in ls]), 0.0, 1.0, quad)
    return value


class TestTildeF:
    @pytest.mark.parametrize("path", ["linear", "loglinear"])
    def test_batched_matches_per_node_reference(self, path):
        rng = np.random.default_rng(21)
        E = random_complex_instance(rng, length=3, max_dim=3)
        n = E.total_dim
        # FormalPoint(2) with a one-form in both generators: f'(omega/2)
        # has a degree-2 part
        alg = FormalPoint(2)
        w = FormMatrix(alg, n, E.grading, {k: 0.3 * (rng.standard_normal((n, n))
                                                    + 1j * rng.standard_normal((n, n)))
                                           for k in (0b01, 0b10)})
        circle = random_circle_two_term(rng, grid=32, rank=2)
        cases = [(E, [random_metric(rng, d) for d in E.dims]),
                 (MetricComplex(E.dims, E.v, E.h, base=alg, omega_data=w),
                  [random_metric(rng, d) for d in E.dims]),
                 (circle, [random_circle_metric_family(rng, circle.base, 2) for _ in range(2)])]
        # few levels, so that a mis-ordered integrand fails fast
        quad = QuadratureSpec(max_levels=8)
        for F, h1 in cases:
            ref = tilde_f_per_node(F, F.h, h1, path, quad)
            # not vacuous, including the xi_1 xi_2 coefficient
            assert np.max(np.abs(ref)) > 1e-2
            assert F.base is not alg or abs(ref[0b11]) > 1e-3
            np.testing.assert_allclose(tilde_f(F, F.h, h1, path, quad).to_vector(), ref,
                                       rtol=0, atol=1e-13)

    def test_metric_path_leaving_the_cone_raises(self):
        rng = np.random.default_rng(22)
        E = random_complex_instance(rng, length=2, max_dim=3)
        w, u = np.linalg.eigh(E.h[1])
        w[0] = -0.5
        h1 = list(E.h)
        h1[1] = (u * w) @ u.conj().T
        # the loglinear path takes the log of h1's eigenvalues up front;
        # few levels, so that a NaN integrand fails fast instead of bisecting
        for path in ("linear", "loglinear"):
            with pytest.raises(ValueError, match="metric path left the positive-definite cone"):
                tilde_f(E, E.h, h1, path=path, quad=QuadratureSpec(max_levels=8))

    def test_equal_metrics_vanish(self):
        rng = np.random.default_rng(12)
        E = random_complex_instance(rng, length=2)
        val = tilde_f(E, E.h, E.h)
        assert val.norm() < 1e-12

    def test_single_scaled_metric(self):
        c = 3.7
        E = MetricComplex([1], [], [np.array([[1.0]])])
        val = tilde_f(E, [np.array([[1.0]])], [np.array([[c]])])
        assert val.coefficient(0) == pytest.approx(0.5 * np.log(c), abs=1e-10)

    def test_path_independence_degree0(self):
        rng = np.random.default_rng(13)
        E = random_complex_instance(rng, length=2, max_dim=3)
        h1 = [random_metric(rng, d) for d in E.dims]
        a = tilde_f(E, E.h, h1, path="linear")
        b = tilde_f(E, E.h, h1, path="loglinear")
        assert a.coefficient(0) == pytest.approx(b.coefficient(0), abs=1e-9)

    def test_rejects_bad_path(self):
        rng = np.random.default_rng(14)
        E = random_complex_instance(rng, length=1)
        with pytest.raises(ValueError):
            tilde_f(E, E.h, E.h, path="geodesic-ish")


class TestAnomaly:
    def test_metric_variation_identity_degree0(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            E = random_complex_instance(rng, length=int(rng.integers(1, 4)), max_dim=4)
            h1 = [random_metric(rng, d) for d in E.dims]
            E1 = E.with_metric(h1)
            lhs = torsion_form(E1).degree0 - torsion_form(E).degree0
            term_e = tilde_f(E, E.h, h1).coefficient(0)
            g0 = induced_gram(E)
            g1 = induced_gram(E1)
            term_h = 0.0
            for q, (a, b) in enumerate(zip(g0, g1)):
                if a.shape[0] == 0:
                    continue
                sign = (-1.0) ** q
                term_h += sign * 0.5 * (np.log(np.linalg.det(b).real)
                                        - np.log(np.linalg.det(a).real))
            rhs = term_e.real - term_h
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestDfTildeShadow:
    def test_d_tilde_f_equals_char_form_difference(self):
        rng = np.random.default_rng(16)
        E0 = random_circle_two_term(rng, grid=64, rank=1)
        from torsionlab.instances import random_circle_metric_family
        h1 = [random_circle_metric_family(rng, E0.base, 1),
              random_circle_metric_family(rng, E0.base, 1)]
        E1 = E0.with_metric(h1)
        val = tilde_f(E0, E0.h, h1)
        lhs = exterior_d(val.degree_component(0))
        rhs = char_form(E1) - char_form(E0)
        np.testing.assert_allclose(lhs.coefficient(1), rhs.coefficient(1), atol=1e-8)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        E = random_complex_instance(rng, length=2)
        text = complex_to_json(E)
        E2 = complex_from_json(text)
        assert E2.dims == E.dims
        for a, b in zip(E.v, E2.v):
            np.testing.assert_allclose(a, b, atol=1e-12)
        assert complex_to_json(E2) == text

    def test_invalid_differential_rejected(self):
        doc = complex_to_json(MetricComplex([1, 1], [np.array([[1.0]])],
                                            [np.eye(1), np.eye(1)]))
        bad = doc.replace('"dims": [\n    1,\n    1\n  ]', '"dims": [\n    1,\n    1\n  ]')
        complex_from_json(bad)  # unchanged doc still loads


class TestRankPolicy:
    def test_cut_is_relative_above_unit_scale(self):
        assert numerical_rank(np.array([1.0, 2e-10, 5e-11])) == 2
        assert numerical_rank(np.array([1e3, 2e-8, 1e-8])) == 1
        assert numerical_rank(np.array([1.0, 5e-11]), scale=0.1) == 1
        assert numerical_rank(np.array([1.0, 5e-9]), scale=1e2) == 1
        assert numerical_rank(np.zeros(0)) == 0

    def test_split_bases_are_orthonormal_and_complementary(self):
        m = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1e-12]])
        col, null = rank_split(m)
        assert col.shape == (2, 1) and null.shape == (3, 2)
        np.testing.assert_allclose(null.conj().T @ null, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(m @ null, 0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrices(self, shape):
        col, null = rank_split(np.zeros(shape, dtype=complex))
        assert col.shape == (shape[0], 0)
        np.testing.assert_array_equal(null, np.eye(shape[1]))


class TestValidation:
    def test_v_squared_must_vanish(self):
        v0 = np.array([[1.0]])
        v1 = np.array([[1.0]])
        with pytest.raises(Exception):
            MetricComplex([1, 1, 1], [v0, v1], [np.eye(1)] * 3).validate()

    def test_metric_must_be_positive(self):
        with pytest.raises(Exception):
            MetricComplex([1], [], [np.array([[-1.0]])]).validate()
