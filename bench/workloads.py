"""The benchmark's workloads: seeded instances, the timed program calls,
and the checks made on their results.

A workload is a pool of rounds.  Every round holds the same kinds of
items in the same numbers, so whole rounds always attempt the same mix.
An item's ``run`` is the timed call into torsionlab; ``verdict`` reads
the program's own pass flags (an operation whose report says fail
counts as failed); ``check`` compares the result with the oracles in
``oracles.py`` or with an identity the method must satisfy and returns
``(name, error, tolerance)`` triples.  Checks run outside the timed
region.

The program's functions are always reached through their module
attribute (``complexes.torsion_form``), so that the traced mode, which
rebinds those attributes, sees every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import numpy as np

import oracles
from torsionlab import algebra, analytic, cli, complexes, glue, hodge, instances, spectral

WORKLOADS = ("point_base", "form_valued", "exact_routes")

# Random holonomy eigen-angles are 0 or lie in [ANGLE_GAP, 2 pi - ANGLE_GAP].
ANGLE_GAP = 0.05

# The near-degenerate sweep: circle L = 2, split 0.5, angle 10^-k.
SWEEP_EXPONENTS = tuple(range(16))

TOL_POINT = 1e-9          # point-base torsion against its oracle
TOL_ANOMALY = 1e-8        # the metric-anomaly identity
TOL_CIRCLE_FIBER = 1e-9   # circle degree 0 against the fiber oracle
TOL_CHAR_FORM = 1e-9      # char_form_1 against the same-grid formula
TOL_TRANSGRESSION = 1e-6  # d T0 = char_form_1, checked from TRANSGRESSION_GRID up
# At grid 32 the spectral derivative of h = exp(S) aliases: char_form_1
# then misses (1/2) d/dtheta (tr S0 - tr S1) by up to 4e-5 (1500 random
# families; median 1.4e-8), so the transgression is an identity of the
# continuum that grid 32 does not resolve.  At grid 64 the gap is 1e-13.
TRANSGRESSION_GRID = 64
TOL_PAGES = 1e-8          # torsion of the total complex = sum over pages
TOL_LES = 1e-9            # T(LES) = T(E1) + T(E2)
TOL_EXACT_TORSION = 1e-9  # closed-form circle and interval torsions
TOL_HEAT = 1e-7           # heat-route torsion against its closed form
TOL_ZETA = 1e-9           # family_log_det against mpmath


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    # the check whose digits enter accuracy_digits: the main output against
    # an oracle; None for items judged by the program's own identities
    accuracy: str | None
    verdict: Callable[[Any], bool] = lambda result: True


@dataclass
class Workload:
    name: str
    rounds: list                 # the pool: a list of rounds, each a list of Items
    tempdir: str | None = None   # files the pool reads; removed by close()

    @property
    def warmup(self) -> Item:
        return self.rounds[0][0]

    def close(self):
        if self.tempdir is None:
            return
        for name in os.listdir(self.tempdir):
            os.remove(os.path.join(self.tempdir, name))
        os.rmdir(self.tempdir)
        self.tempdir = None


# ---- random inputs --------------------------------------------------------


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(_gaussian(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_invertible(rng, n):
    """Singular values drawn from [1/2, 2]."""
    return (random_unitary(rng, n) * rng.uniform(0.5, 2.0, n)) @ random_unitary(rng, n)


def random_metric(rng, n):
    """Eigenvalues drawn from [1/2, 2]."""
    u = random_unitary(rng, n)
    return (u * rng.uniform(0.5, 2.0, n)) @ u.conj().T


def random_complex(rng, length, max_dim):
    """(dims, v, h, ranks) with v_{q+1} v_q = 0, nonzero singular values in
    [1/2, 2] and metrics with eigenvalues in [1/2, 2]."""
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(length + 1)]
    ranks, v, image = [], [], np.zeros((dims[0], 0), dtype=complex)
    for q in range(length):
        cap = min(dims[q] - image.shape[1], dims[q + 1])
        r = int(rng.integers(0, cap + 1))
        ranks.append(r)
        g = _gaussian(rng, dims[q], r)
        g -= image @ (image.conj().T @ g)
        src = np.linalg.qr(g)[0][:, :r]
        dst = np.linalg.qr(_gaussian(rng, dims[q + 1], r))[0][:, :r]
        v.append((dst * rng.uniform(0.5, 2.0, r)) @ src.conj().T)
        image = dst
    h = [random_metric(rng, d) for d in dims]
    return dims, v, h, ranks


def random_angles(rng, rank):
    """Holonomy eigen-angles: exactly 0 with probability 1/3, otherwise
    uniform in [ANGLE_GAP, 2 pi - ANGLE_GAP]."""
    return [0.0 if rng.random() < 1.0 / 3.0
            else float(rng.uniform(ANGLE_GAP, 2.0 * math.pi - ANGLE_GAP))
            for _ in range(rank)]


def holonomy(rng, angles):
    v = random_unitary(rng, len(angles))
    return (v * np.exp(1j * np.asarray(angles))) @ v.conj().T


def circle_metric_family(rng, grid, d, modes=2, amplitude=0.6):
    """h(theta) = exp(S(theta)) on the grid, S a Hermitian trigonometric
    polynomial of degree ``modes``; log det h = tr S is then one too."""
    theta = np.arange(grid) * (2.0 * np.pi / grid)
    s = np.zeros((grid, d, d), dtype=complex)
    for k in range(1, modes + 1):
        a, b = _gaussian(rng, d, d), _gaussian(rng, d, d)
        a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
        scale = amplitude / (modes * math.sqrt(d))
        s += scale * (np.cos(k * theta)[:, None, None] * a
                      + np.sin(k * theta)[:, None, None] * b)
    c = 0.3 * _gaussian(rng, d, d)
    s += (c + c.conj().T)[None]
    w, u = np.linalg.eigh(s)
    return (u * np.exp(w)[..., None, :]) @ np.swapaxes(u.conj(), -2, -1)


# ---- point_base ------------------------------------------------------------


def _mat_json(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _write_complex(path, dims, v, h):
    doc = {"dims": dims, "v": [_mat_json(m) for m in v],
           "h": [_mat_json(m) for m in h], "base": None, "grading_offset": 0}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _point_item(kind, E, expected):
    """``expected`` is a cached zero-argument oracle, evaluated at the
    first check rather than in set-up."""
    return Item(kind, lambda: complexes.torsion_form(E).degree0,
                lambda got: [("torsion", got - expected(), TOL_POINT)], "torsion")


def _two_term_item(rng, n):
    tau = random_invertible(rng, n)
    E = complexes.MetricComplex([n, n], [tau], [np.eye(n, dtype=complex)] * 2)
    return _point_item("two_term", E, cache(lambda: oracles.two_term_torsion(tau)))


def _random_complex_item(rng, length):
    dims, v, h, ranks = random_complex(rng, length, 5)
    E = complexes.MetricComplex(dims, v, h)
    return _point_item("complex", E, cache(lambda: oracles.point_torsion(v, h, ranks)))


def _anomaly_item(rng, length):
    dims, v, h0, ranks = random_complex(rng, length, 4)
    h1 = [random_metric(rng, d) for d in dims]
    E0 = complexes.MetricComplex(dims, v, h0)
    E1 = complexes.MetricComplex(dims, v, h1)
    expected = cache(lambda: (oracles.point_torsion(v, h0, ranks),
                              oracles.point_torsion(v, h1, ranks),
                              oracles.tilde_f_degree0(h0, h1)))

    def run():
        return (complexes.torsion_form(E0).degree0, complexes.torsion_form(E1).degree0,
                complexes.tilde_f(E0, E0.h, h1).coefficient(0).real,
                hodge.induced_gram(E0), hodge.induced_gram(E1))

    def check(res):
        a0, a1, tf, g0, g1 = res
        t0, t1, tf_e = expected()
        tf_h = sum(0.5 * (-1.0) ** q * float(oracles.log_det_metric(b)
                                              - oracles.log_det_metric(a))
                   for q, (a, b) in enumerate(zip(g0, g1)) if a.shape[0])
        return [("torsion_h0", a0 - t0, TOL_POINT),
                ("torsion_h1", a1 - t1, TOL_POINT),
                ("tilde_f_degree0", tf - tf_e, TOL_POINT),
                ("anomaly", (a1 - a0) - (tf - tf_h), TOL_ANOMALY)]

    return Item("anomaly", run, check, "torsion_h0")


def _json_item(rng, path, length):
    dims, v, h, ranks = random_complex(rng, length, 5)
    _write_complex(path, dims, v, h)
    expected = cache(lambda: oracles.point_torsion(v, h, ranks))
    return Item("json", lambda: cli.run_torsion(path, "complex")["values"]["torsion_degree0"],
                lambda got: [("torsion", got - expected(), TOL_POINT)], "torsion")


POINT_POOL_ROUNDS = 16


def point_base(rng, workdir) -> Workload:
    """Per round: two-term complexes of rank 1-4, six random complexes of
    lengths 1, 2, 2, 3, 3, 4, two metric-anomaly triples and two complexes
    read from JSON.  Sizes are fixed per slot and the entries drawn from
    the seed, so every seed has the same make-up."""
    tempdir = _make_tempdir(workdir)
    rounds = []
    for r in range(POINT_POOL_ROUNDS):
        items = [_two_term_item(rng, n) for n in (1, 2, 3, 4)]
        items += [_random_complex_item(rng, length) for length in (1, 2, 2, 3, 3, 4)]
        items += [_anomaly_item(rng, 1 + (2 * r + j) % 3) for j in range(2)]
        items += [_json_item(rng, os.path.join(tempdir, f"c{r}_{j}.json"), 1 + (r + 2 * j) % 4)
                  for j in range(2)]
        rounds.append(items)
    return Workload("point_base", rounds, tempdir)


def _make_tempdir(workdir):
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"inputs-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---- form_valued -----------------------------------------------------------

FORM_CONFIGS = ((32, 1), (32, 2), (64, 1), (64, 2))
FORM_POOL_ROUNDS = 4


def _form_item(rng, grid, rank):
    length = float(rng.uniform(3.0, 9.0))
    base = algebra.CircleBase(grid, length)
    tau = random_invertible(rng, rank)
    h0 = circle_metric_family(rng, grid, rank)
    h1 = circle_metric_family(rng, grid, rank)
    E = complexes.MetricComplex([rank, rank], [tau], [h0, h1], base=base)
    expected = cache(lambda: (oracles.circle_fiber_torsion(tau, h0, h1),
                              oracles.circle_char_form(h0, h1, length)))

    def run():
        return np.asarray(complexes.torsion_form(E).degree0), complexes.char_form(E)

    def check(res):
        deg0, cf = res
        fiber, char1 = expected()
        c1 = cf.coefficient(1)
        out = [("fiber", float(np.max(np.abs(deg0 - fiber))), TOL_CIRCLE_FIBER),
               ("char_form", float(np.max(np.abs(c1 - char1))), TOL_CHAR_FORM)]
        if grid >= TRANSGRESSION_GRID:
            # d T0 is exact here: T0 = (1/2)(tr S0 - tr S1) + const is a
            # trigonometric polynomial of degree 2
            d_t0 = oracles.fourier_derivative(deg0, length)
            out.append(("transgression", float(np.max(np.abs(d_t0 - c1))),
                        TOL_TRANSGRESSION))
        return out

    return Item(f"circle_g{grid}_r{rank}", run, check, "fiber")


def form_valued(rng, workdir) -> Workload:
    rounds = [[_form_item(rng, g, r) for g, r in FORM_CONFIGS]
              for _ in range(FORM_POOL_ROUNDS)]
    return Workload("form_valued", rounds)


# ---- exact_routes ----------------------------------------------------------


def _report_verdict(report):
    return all(v["pass"] for v in report.values() if isinstance(v, dict))


def _report_checks(report):
    return [(k, v["value"], v["tolerance"]) for k, v in report.items()
            if isinstance(v, dict)]


def _side_torsions(kind, rank, length, split, bc, angles):
    """Closed-form (T(Z), T(Z1), T(Z2), chi(Y)) of a gluing scenario."""
    l1, l2 = split * length, (1.0 - split) * length
    if kind == "circle":
        return (oracles.circle_torsion(angles, length),
                oracles.interval_torsion(rank, l1, "abs"),
                oracles.interval_torsion(rank, l2, "rel"), 2)
    sides = ("abs", "mixed") if bc == "abs" else ("mixed", "rel")
    return (oracles.interval_torsion(rank, length, bc),
            oracles.interval_torsion(rank, l1, sides[0]),
            oracles.interval_torsion(rank, l2, sides[1]), 1)


def _gluing_item(s, kind, rank, length, split, bc=None, angles=None, oracle=True):
    def check(report):
        out = _report_checks(report)
        if oracle:
            t_z, t_1, t_2, chi_y = _side_torsions(kind, rank, length, split, bc, angles)
            out += [("torsion_z", report["torsion_z"] - t_z, TOL_EXACT_TORSION),
                    ("torsion_abs_z1", report["torsion_abs_z1"] - t_1, TOL_EXACT_TORSION),
                    ("torsion_rel_z2", report["torsion_rel_z2"] - t_2, TOL_EXACT_TORSION),
                    ("analytic_lhs", report["analytic_lhs"] - (t_z - t_1 - t_2),
                     TOL_EXACT_TORSION),
                    ("log2_correction", report["log2_correction"]
                     - 0.5 * oracles.LOG2 * rank * chi_y, TOL_EXACT_TORSION),
                    ("gluing", t_z - t_1 - t_2 - 0.5 * oracles.LOG2 * rank * chi_y
                     - report["mv_torsion"], report["residual"]["tolerance"])]
        return out

    return Item("gluing_degree0", lambda: glue.verify_gluing_degree0(s), check,
                "torsion_z" if oracle else None, _report_verdict)


def _report_item(name, s):
    """An item running ``glue.<name>(s)``, judged by its report."""
    return Item(name[len("verify_"):], lambda: getattr(glue, name)(s),
                _report_checks, None, _report_verdict)


def _circle_scenario_items(rng, rank):
    angles = random_angles(rng, rank)
    length, split = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 0.8))
    s = glue.GluingScenario("circle", length, split, holonomy=holonomy(rng, angles))
    return [_gluing_item(s, "circle", rank, length, split, angles=angles),
            _report_item("verify_morse_side", s),
            _report_item("verify_double_formula", s)]


def _interval_scenario_items(rng, rank, bc):
    length, split = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 0.8))
    s = glue.GluingScenario("interval", length, split, rank=rank, bc=bc)
    return [_gluing_item(s, "interval", rank, length, split, bc=bc),
            _report_item("verify_double_formula", s)]


def _sweep_items():
    out = []
    for k in SWEEP_EXPONENTS:
        s = glue.GluingScenario("circle", 2.0, 0.5,
                                holonomy=np.array([[np.exp(1j * 10.0 ** -k)]]))
        # Angles below analytic.spectrum's 1e-12 cut count as trivial there,
        # while the closed form treats every nonzero angle as non-trivial;
        # so the sweep checks the identities in the reports only.
        out.append(_gluing_item(s, "circle", 1, 2.0, 0.5, oracle=False))
        out.append(_report_item("verify_morse_side", s))
    for item in out:
        item.kind = "sweep_" + item.kind
    return out


def _pages_item(rng, n_rows):
    D = instances.random_exact_row_double_complex(rng, n_rows=n_rows)
    expected = cache(lambda: oracles.point_torsion(
        *oracles.total_complex(D.dims, D.dv_at, D.hv_at, D.h_at)[1:]))

    def run():
        return [spectral.page_to_complex(page) for page in spectral.pages(D)]

    def check(page_complexes):
        got = sum(oracles.point_torsion(E.v, E.h) for E in page_complexes)
        return [("pages", got - expected(), TOL_PAGES)]

    return Item("pages", run, check, "pages")


def _les_item(rng, n_rows):
    D = instances.random_exact_row_double_complex(rng, n_rows=n_rows)

    def check(data):
        les = data.les
        exact = max(oracles.cohomology_dims(les.dims, les.v), default=0)
        t_les = oracles.point_torsion(les.v, les.h)
        t_e1 = sum(oracles.point_torsion(row.v, row.h, grading_offset=row.grading_offset)
                   for row in data.row_complexes)
        t_e2 = oracles.point_torsion(data.e2_complex.v, data.e2_complex.h)
        return [("les_exact", float(exact), 0.5),
                ("les_splits", t_les - t_e1 - t_e2, TOL_LES)]

    return Item("three_column_les", lambda: spectral.three_column_les(D), check, "les_splits")


def _heat_item(rng, kind, rank, bc=None):
    if kind == "circle":
        angles = random_angles(rng, rank)
        length = float(rng.uniform(0.5, 4.0))
        g = analytic.ModelGeometry("circle", length, holonomy=holonomy(rng, angles))
        expected = cache(lambda: oracles.circle_torsion(angles, length))
    else:
        length = float(rng.uniform(0.5, 4.0))
        g = analytic.ModelGeometry("interval", length, bc=bc, rank=rank)
        expected = cache(lambda: oracles.interval_torsion(rank, length, bc))
    return Item(f"heat_{kind}", lambda: analytic.torsion_via_heat_integral(g),
                lambda got: [("heat", got - expected(), TOL_HEAT)], "heat")


def _family_item(rng):
    c, a, mult = float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.05, 1.0)), int(rng.integers(1, 4))
    fam = analytic.QuadraticFamily(c, a, mult)
    expected = cache(lambda: oracles.family_log_det(c, a, mult))

    def run():
        return (analytic.family_log_det(fam, "closed"),
                analytic.family_log_det(fam, "euler_maclaurin"))

    return Item("family_log_det", run,
                lambda got: [("closed", got[0] - expected(), TOL_ZETA),
                             ("euler_maclaurin", got[1] - expected(), TOL_ZETA)], "closed")


EXACT_POOL_ROUNDS = 16
FAMILY_ITEMS = 4


def exact_routes(rng, workdir) -> Workload:
    """Per round: pages and three_column_les of four doubles each (two and
    three rows), circle gluing scenarios of rank 1, 1, 2, 2 and interval
    ones of rank 1 and 2 (each through every verify_* that takes it), a
    circle and an interval heat integral, FAMILY_ITEMS zeta families, and
    the fixed near-degenerate sweep.  Ranks, row counts and boundary
    conditions are fixed per slot, so every seed has the same make-up;
    lengths, splits, angles and matrices are drawn from the seed.

    Mixed boundary conditions are left out of the heat items: the heat
    route returns about 0 instead of -(1/2) r log 2 for mixed intervals
    longer than about 3.5 (see CHANGES.md)."""
    sweep = _sweep_items()
    rounds = []
    for r in range(EXACT_POOL_ROUNDS):
        items = [_pages_item(rng, 2 + j % 2) for j in range(4)]
        items += [_les_item(rng, 2 + j % 2) for j in range(4)]
        for rank in (1, 1, 2, 2):
            items += _circle_scenario_items(rng, rank)
        for j, rank in enumerate((1, 2)):
            items += _interval_scenario_items(rng, rank, ("abs", "rel")[(r + j) % 2])
        items.append(_heat_item(rng, "circle", 1 + r % 2))
        items.append(_heat_item(rng, "interval", 2 - r % 2, ("abs", "rel")[(r // 2) % 2]))
        items += [_family_item(rng) for _ in range(FAMILY_ITEMS)]
        rounds.append(items + sweep)
    return Workload("exact_routes", rounds)


BUILDERS = {"point_base": point_base, "form_valued": form_valued,
            "exact_routes": exact_routes}


def build(name: str, seed: int, workdir: str) -> Workload:
    index = WORKLOADS.index(name)
    rng = np.random.default_rng([seed, index])
    return BUILDERS[name](rng, workdir)
