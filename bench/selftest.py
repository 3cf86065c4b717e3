"""Tests of the benchmark itself: its oracles, its gates and its tracer.

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test
run does not collect it.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from torsionlab import algebra, cli, complexes, glue, hodge, instances, spectral  # noqa: E402

LOG2 = math.log(2.0)


# ---- oracles reproduce closed forms ----------------------------------------


def test_two_term_oracles_agree_with_hand_values():
    tau = np.diag([2.0, 0.5, 3.0]).astype(complex)
    assert oracles.two_term_torsion(tau) == pytest.approx(-math.log(3.0), abs=1e-15)
    eye = np.eye(3, dtype=complex)
    assert oracles.point_torsion([tau], [eye, eye]) == pytest.approx(-math.log(3.0), abs=1e-14)


def test_point_torsion_of_a_three_term_complex():
    # E0 = C -> E1 = C^2 -> E2 = C with maps a e_1 and b e_2^T; scaling the
    # metric on E1 by t multiplies w_0 by sqrt(t) and w_1 by 1/sqrt(t).
    a, b, t = 1.7, 0.6, 2.5
    v = [np.array([[a], [0.0]]), np.array([[0.0, b]])]
    h = [np.eye(1), t * np.eye(2), np.eye(1)]
    expected = -math.log(math.sqrt(t) * a) + math.log(b / math.sqrt(t))
    assert oracles.point_torsion(v, h) == pytest.approx(expected, abs=1e-14)
    # the grading offset flips every sign
    assert oracles.point_torsion(v, h, grading_offset=1) == pytest.approx(-expected, abs=1e-14)


def test_point_torsion_matches_laplacian_route():
    """Against (1/2) sum_q (-1)^q q log det' Delta_q, formed here."""
    rng = np.random.default_rng(3)
    for length in (1, 2, 3, 4):
        dims, v, h, ranks = workloads.random_complex(rng, length, 5)
        roots = [oracles.hermitian_sqrt(hq) for hq in h]
        w = [roots[q + 1] @ v[q] @ np.linalg.inv(roots[q]) for q in range(length)]
        total = 0.0
        for q, d in enumerate(dims):
            lap = np.zeros((d, d), dtype=complex)
            if q < length:
                lap += w[q].conj().T @ w[q]
            if q > 0:
                lap += w[q - 1] @ w[q - 1].conj().T
            ev = np.linalg.eigvalsh(lap)
            total += 0.5 * (-1.0) ** q * q * np.sum(np.log(ev[ev > 1e-9]))
        assert oracles.point_torsion(v, h, ranks) == pytest.approx(total, abs=1e-12)


def test_tilde_f_degree0_closed_form():
    h0 = [np.eye(1), np.eye(2)]
    h1 = [2.0 * np.eye(1), 3.0 * np.eye(2)]
    expected = 0.5 * LOG2 - 0.5 * 2.0 * math.log(3.0)
    assert oracles.tilde_f_degree0(h0, h1) == pytest.approx(expected, abs=1e-15)


def test_circle_fiber_torsion_with_constant_metrics():
    tau = np.array([[2.0, 0.0], [0.0, 0.25]], dtype=complex)
    h0 = np.broadcast_to(3.0 * np.eye(2), (8, 2, 2))
    h1 = np.broadcast_to(5.0 * np.eye(2), (8, 2, 2))
    expected = math.log(2.0) - math.log(5.0) + math.log(3.0)
    assert np.allclose(oracles.circle_fiber_torsion(tau, h0, h1), expected, atol=1e-14)


def test_fourier_derivative_is_exact_on_trigonometric_polynomials():
    length, grid = 3.0, 32
    theta = np.arange(grid) * length / grid
    x = 2.0 * np.pi * theta / length
    f = np.sin(2 * x) + 0.5 * np.cos(3 * x)
    df = (2.0 * np.pi / length) * (2 * np.cos(2 * x) - 1.5 * np.sin(3 * x))
    assert np.max(np.abs(oracles.fourier_derivative(f, length) - df)) < 1e-12


def test_circle_char_form_closed_form():
    # h0 = (2 + cos x) I_2, h1 = I_2: (1/2) tr(h0^{-1} h0') = -sin x / (2 + cos x) x'
    length, grid = 3.0, 32
    x = 2.0 * np.pi * np.arange(grid) / grid
    h0 = (2.0 + np.cos(x))[:, None, None] * np.eye(2)
    h1 = np.broadcast_to(np.eye(2), (grid, 2, 2))
    expected = -np.sin(x) / (2.0 + np.cos(x)) * (2.0 * np.pi / length)
    assert np.max(np.abs(oracles.circle_char_form(h0, h1, length) - expected)) < 1e-12


def test_circle_and_interval_closed_forms():
    assert oracles.circle_torsion([math.pi], 5.0) == pytest.approx(-LOG2, abs=1e-15)
    assert oracles.circle_torsion([math.pi / 3], 5.0) == pytest.approx(0.0, abs=1e-15)
    assert oracles.circle_torsion([0.0, 0.0], 2.0) == pytest.approx(-2.0 * LOG2, abs=1e-15)
    assert oracles.interval_torsion(3, 0.5, "abs") == pytest.approx(0.0, abs=1e-15)
    assert oracles.interval_torsion(2, 4.0, "rel") == pytest.approx(-math.log(8.0), abs=1e-15)
    assert oracles.interval_torsion(2, 4.0, "mixed") == pytest.approx(-LOG2, abs=1e-15)


def test_family_log_det_reference_values():
    # prod_{n>=1} n^2 = 2 pi and prod_{n>=0} (n + 1/2)^2 = 2, zeta-regularized
    assert oracles.family_log_det(1.0, 1.0, 1) == pytest.approx(math.log(2 * math.pi), abs=1e-14)
    assert oracles.family_log_det(1.0, 0.5, 1) == pytest.approx(LOG2, abs=1e-14)
    # scaling by c multiplies each eigenvalue by c^2: zeta(0) = 1/2 - a terms
    c, a = 2.5, 0.3
    lerch = 2.0 * math.log(c) * (0.5 - a) - 2.0 * math.lgamma(a) + math.log(2 * math.pi)
    assert oracles.family_log_det(c, a, 2) == pytest.approx(2.0 * lerch, abs=1e-13)


def test_total_complex_of_a_split_double_is_acyclic():
    D = instances.random_exact_row_double_complex(np.random.default_rng(5), n_rows=2)
    dims, v, h = oracles.total_complex(D.dims, D.dv_at, D.hv_at, D.h_at)
    assert sum(dims) == sum(map(sum, D.dims))
    assert oracles.cohomology_dims(dims, v) == [0] * len(dims)


def test_digits_has_a_floor():
    assert oracles.digits(1e-12, 1e-9) == pytest.approx(3.0)
    assert oracles.digits(0.0, 1e-9) == pytest.approx(7.0)


# ---- no gate is vacuous: a 1e-6 change to a result fails its check ----------


def _fails(item, result):
    return not all(abs(err) < tol for _, err, tol in item.check(result))


def _perturbations(result):
    """Copies of a program result, each with one output moved by 1e-6."""
    eps = 1e-6
    if isinstance(result, float):
        yield result + eps
    elif isinstance(result, tuple) and len(result) == 2 and isinstance(
            result[1], algebra.FormElement):
        deg0, form = result
        yield deg0 + eps, form
        moved = copy.deepcopy(form)
        moved.data[1] = moved.data[1] + eps
        yield deg0, moved
    elif isinstance(result, tuple):
        for i, part in enumerate(result):
            if isinstance(part, float):
                yield result[:i] + (part + eps,) + result[i + 1:]
            elif any(g.size for g in part):   # Gram matrices on cohomology
                grams = [g * (1.0 + eps) for g in part]
                yield result[:i] + (grams,) + result[i + 1:]
    elif isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, dict) and value["tolerance"] < 1e-6:
                moved = copy.deepcopy(result)
                moved[key]["value"] += eps
                yield moved
            elif isinstance(value, float):
                moved = dict(result, **{key: value + eps})
                yield moved
    elif isinstance(result, list):       # complexes of the spectral pages
        for i, E in enumerate(result):
            if any(np.any(m) for m in E.v):
                moved = list(result)
                moved[i] = complexes.MetricComplex(
                    E.dims, [m * (1.0 + eps) for m in E.v], E.h,
                    grading_offset=E.grading_offset)
                yield moved
    else:                                # three_column_les data
        moved = copy.deepcopy(result)
        moved.les.v[:] = [m * (1.0 + eps) for m in moved.les.v]
        yield moved


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_perturbed_results_fail_their_checks(name, tmp_path):
    wl = workloads.build(name, 11, str(tmp_path))
    try:
        seen = set()
        for item in wl.rounds[0]:
            if item.kind in seen or item.kind.startswith("sweep"):
                continue
            seen.add(item.kind)
            result = item.run()
            assert item.verdict(result)
            assert not _fails(item, result), item.kind
            moved = list(_perturbations(result))
            assert moved, item.kind
            for other in moved:
                assert _fails(item, other), item.kind
    finally:
        wl.close()


def test_sweep_counts_seventeen_failures_of_thirty_two():
    failed = 0
    for item in workloads._sweep_items():
        try:
            failed += not item.verdict(item.run())
        except (glue.GluingError, hodge.IllConditionedError, spectral.DoubleComplexError):
            failed += 1
    assert failed == 17


# ---- tracer ----------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_it():
    original = hodge.scalar_torsion_eigen
    bound_in = [m for m in (glue, spectral, cli) if m.scalar_torsion_eigen is original]
    assert len(bound_in) == 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(m.scalar_torsion_eigen is not original for m in bound_in + [hodge])
        E = complexes.MetricComplex([2, 2], [np.diag([2.0, 3.0])], [np.eye(2)] * 2)
        complexes.torsion_form(E)
        hodge.scalar_torsion_eigen(E)
        complexes.char_form(E)
    finally:
        tracer.uninstall()
    assert all(m.scalar_torsion_eigen is original for m in bound_in + [hodge])
    assert algebra.FormMatrix.__matmul__.__name__ == "__matmul__"
    layers = tracer.layers()
    assert layers["complexes.torsion_form"]["calls"] == 1
    assert layers["hodge.scalar_torsion_eigen"]["calls"] == 1
    assert layers["algebra.stack"]["calls"] >= 1
    assert layers["algebra.form"]["calls"] == 1
    assert tracer.counts["algebra.form_matmul.calls"] > 0
    form = layers["complexes.torsion_form"]
    assert 0.0 < form["self_ms"] < form["ms"]
    names = {span[0] for span in tracer.spans}
    parents = {tracer.spans[p][0] for _, _, _, p in tracer.spans if p >= 0}
    assert "quad.adaptive_quad" in names and "complexes.torsion_form" in parents
    assert tracer.counts["quad.panels"] > 0
    assert tracer.counts["quad.form_nodes"] == 15 * tracer.counts["quad.panels"]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in tracing.PER_LAYER]
    tally = run.Tally()
    tally.walls, tally.cpus, tally.digits = [0.1, 0.2], [0.1, 0.2], [5.0]
    tally.attempted = 2
    e2e = run.end_to_end(tally, [{"setup_s": 1.0}])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOADS)


def test_exits_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "point_base",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
