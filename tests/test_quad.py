"""Tests for the Gauss-Kronrod quadrature driver and the batched heat route."""

import time

import numpy as np
import pytest
from scipy.special import erf

from torsionlab import complexes
from torsionlab.analytic import ModelGeometry, heat_supertrace, spectrum
from torsionlab.cli import main
from torsionlab.complexes import MetricComplex, complex_to_json
from torsionlab.instances import random_unitary
from torsionlab.quad import (GAUSS_WEIGHTS, KRONROD_WEIGHTS, NODES, QuadratureError,
                             QuadratureSpec, adaptive_quad)


def monomial_error(weights, d):
    exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
    return abs(weights @ NODES ** d - exact)


class TestRule:
    def test_gauss_nodes_are_legendre(self):
        x, w = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(NODES[1::2], x, atol=1e-15)
        np.testing.assert_allclose(GAUSS_WEIGHTS[1::2], w, atol=1e-15)
        assert not GAUSS_WEIGHTS[0::2].any()

    def test_kronrod_exact_to_degree_23(self):
        for d in range(24):
            assert monomial_error(KRONROD_WEIGHTS, d) < 1e-15, d
        assert monomial_error(KRONROD_WEIGHTS, 24) > 1e-10

    def test_gauss_exact_to_degree_13(self):
        for d in range(14):
            assert monomial_error(GAUSS_WEIGHTS, d) < 1e-15, d
        assert monomial_error(GAUSS_WEIGHTS, 14) > 1e-5


class TestAdaptiveQuad:
    def test_vector_valued_closed_forms(self):
        value, err = adaptive_quad(
            lambda x: np.stack([x ** 2, np.cos(x), np.exp(x)], axis=1), 0.0, 2.0)
        assert value.shape == (3,)
        np.testing.assert_allclose(value, [8.0 / 3.0, np.sin(2.0), np.exp(2.0) - 1.0],
                                   rtol=0, atol=1e-10)
        assert err < 1e-10

    def test_narrow_gaussian_bisects_and_bounds_its_error(self):
        # narrow, but wide enough for the first panel's nodes to see it
        width, centre = 0.05, 0.3
        panels = []

        def fn(x):
            panels.append(x.size)
            return np.exp(-((x - centre) / width) ** 2)

        value, err = adaptive_quad(fn, -1.0, 1.0, QuadratureSpec(tolerance=1e-10))
        exact = 0.5 * np.sqrt(np.pi) * width * (erf((1.0 - centre) / width)
                                                + erf((1.0 + centre) / width))
        assert len(panels) > 1 and set(panels) == {15}
        assert err < 1e-10
        assert abs(value - exact) <= err

    def test_max_levels_caps_the_bisection(self):
        calls = []

        def fn(x):
            calls.append(1)
            return np.abs(x - 0.1234567)

        adaptive_quad(fn, 0.0, 1.0, QuadratureSpec(tolerance=1e-30, max_levels=3))
        assert len(calls) == 2 ** 4 - 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        calls = []

        def fn(x):
            calls.append(1)
            return np.where(x > 0.7, bad, x)

        start = time.perf_counter()
        with pytest.raises(QuadratureError):
            adaptive_quad(fn, 0.0, 1.0)
        assert time.perf_counter() - start < 1.0
        assert len(calls) == 1


def test_quadrature_error_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "two.json"
    path.write_text(complex_to_json(
        MetricComplex([1, 1], [np.array([[2.0]])], [np.eye(1), np.eye(1)])))
    # a NaN f'(X_t) reaches the driver through the real torsion_form path
    monkeypatch.setattr(complexes, "matrix_function",
                        lambda m, kind: np.full(m.shape, np.nan, dtype=complex))
    assert main(["torsion", str(path), "--kind", "complex"]) == 3
    assert "non-finite integrand" in capsys.readouterr().err


def _per_node_heat_supertrace(s, t):
    """Reference: one heat sum per node, each truncated at its own n_max(t)."""
    total = 0.0
    for q in range(2):
        acc = float(s.zero_modes[q])
        for fam in s.families[q]:
            n_max = int(np.ceil(np.sqrt(180.0 / t) / fam.c - fam.a)) + 1
            lam = (fam.c * (np.arange(max(n_max, 1)) + fam.a)) ** 2
            acc += fam.mult * float(np.sum((1.0 - 0.5 * t * lam) * np.exp(-0.25 * t * lam)))
        total += 0.5 * ((-1.0) ** q) * q * acc
    return total


def test_batched_heat_supertrace_matches_per_node_reference():
    rng = np.random.default_rng(5)
    geoms = [ModelGeometry("circle", 2.0),
             ModelGeometry("circle", 0.7, holonomy=random_unitary(rng, 2)),
             ModelGeometry("interval", 1.0, bc="abs"),
             ModelGeometry("interval", 3.49, bc="mixed"),
             ModelGeometry("interval", 1.4, bc="rel", rank=2)]
    for g in geoms:
        s = spectrum(g)
        # panels of the heat route's lower half and of its tail windows
        for lo, hi in ((1e-4, 1e-3), (1e-3, 1.0), (1.0, 2.0), (16.0, 32.0)):
            ts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * NODES
            ref = [_per_node_heat_supertrace(s, t) for t in ts]
            np.testing.assert_allclose(heat_supertrace(s, ts), ref, rtol=0, atol=1e-14)
        assert heat_supertrace(s, 0.5) == _per_node_heat_supertrace(s, 0.5)
        # Near t = 0 a node sums up to 1.3e5 cancelling terms of size up to
        # one, so two summation orders differ by their rounding, not 1e-14.
        ts = np.geomspace(1e-8, 1e-6, 15)
        ref = [_per_node_heat_supertrace(s, t) for t in ts]
        n_terms = sum(f.mult * np.sqrt(180.0 / ts[0]) / f.c for f in s.families[1])
        np.testing.assert_allclose(heat_supertrace(s, ts), ref, rtol=0, atol=1e-16 * n_terms)
