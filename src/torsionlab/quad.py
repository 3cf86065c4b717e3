"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

Each panel is the 15-point Kronrod extension of the 7-point Gauss-Legendre
rule (Kronrod 1965; the ``qk15`` table of QUADPACK, Piessens et al. 1983).
The 15 Kronrod nodes contain the 7 Gauss nodes, so one evaluation of the
integrand on 15 nodes gives both sums.  K15 is exact for polynomials of
degree 22 (23 by symmetry), G7 for degree 13.  The panel's value is the
K15 sum; its error estimate is max |K15 - G7| over the integrand's
components.  On a panel where the integrand is resolved, that difference
is the error of the cruder G7 sum up to the far smaller K15 error, so it
overestimates the error of the returned K15 value.  It says nothing about
features that fall between the nodes of a panel.  A panel whose estimate
is not below its tolerance is bisected, and each half gets half the
tolerance; the returned error is the sum of the accepted panels'
estimates.

The t > 1 half of a torsion t-integral is walked in dyadic windows by
``dyadic_tail``, one ``adaptive_quad`` per window, until a window is
negligible: the torsion form's in u = t^{-1/2} towards 0, the heat
route's in t outwards, settling no earlier than its slowest decay time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureError", "adaptive_quad", "dyadic_tail"]

# QUADPACK's qk15 table: the Kronrod abscissae on [0, 1] from the outside
# in, ending at the centre, with their K15 weights; the odd-indexed
# abscissae (the centre included) are the G7 nodes, with weights _WG.
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245,
                 0.000000000000000000000000000000000])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])


def _mirror(half, parity=1.0):
    """The 15 entries in ascending x from the 8 of an x >= 0 table in
    QUADPACK's order; ``parity`` -1 negates the x < 0 half (abscissae)."""
    return np.concatenate([parity * half, half[-2::-1]])


NODES = _mirror(_XGK, -1.0)
KRONROD_WEIGHTS = _mirror(_WGK)
GAUSS_WEIGHTS = _mirror(np.insert(_WG, range(4), 0.0))


class QuadratureError(ArithmeticError):
    """A quadrature panel's value or error estimate is not finite, or a
    dyadic tail has not settled within its windows."""


@dataclass(frozen=True)
class QuadratureSpec:
    tolerance: float = 1e-10
    max_levels: int = 20


def adaptive_quad(fn, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate a (possibly vector-valued) function over [a, b].

    ``fn`` is evaluated once per panel on the array of its 15 Kronrod
    nodes and returns the values stacked along the first axis: shape
    ``(15,)`` for a scalar integrand, ``(15, m)`` for a vector-valued one.

    Bisects panels until each panel's Gauss-Kronrod error estimate is
    below its share of the requested absolute tolerance, or the panel is
    ``max_levels`` bisections deep.  Returns ``(value, error_estimate)``.
    Raises ``QuadratureError`` at once on a panel whose integrand values,
    value or error estimate are not finite.  Holds no reference to ``fn``
    once it returns.
    """
    return _bisect(fn, a, b, spec.tolerance, 0, spec.max_levels)


def _bisect(fn, a, b, tol, level, max_levels):
    """One panel of ``adaptive_quad``, and its halves while its error
    estimate is not below ``tol``.  A module-level function rather than a
    nested one: a closure that calls itself is a reference cycle, which
    would keep ``fn`` alive until the next cyclic garbage collection."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(fn(mid + half * NODES))
    if not np.isfinite(vals).all():
        raise QuadratureError(f"non-finite integrand on the panel [{a:.6g}, {b:.6g}]")
    value = half * (KRONROD_WEIGHTS @ vals)
    err = float(np.max(np.abs(half * ((KRONROD_WEIGHTS - GAUSS_WEIGHTS) @ vals))))
    if not (np.isfinite(err) and np.all(np.isfinite(value))):
        raise QuadratureError(
            f"non-finite value or error estimate on the panel [{a:.6g}, {b:.6g}]")
    if err < tol or level >= max_levels:
        return value, err
    lval, lerr = _bisect(fn, a, mid, 0.5 * tol, level + 1, max_levels)
    rval, rerr = _bisect(fn, mid, b, 0.5 * tol, level + 1, max_levels)
    return lval + rval, lerr + rerr


def dyadic_tail(fn, factor: float, spec: QuadratureSpec, windows: int,
                settle: float | None = None):
    """Sum ``adaptive_quad`` over the windows between factor^k and
    factor^(k+1), k = 0, 1, ..., from 1, starting from zero.  Stops at the
    first window that starts at or above ``settle`` (anywhere if None) and
    has every component below 0.1 * tolerance.
    Returns ``(value, error_estimate)``; raises ``QuadratureError`` if
    none of the first ``windows`` windows stops the walk.
    """
    cut = 0.1 * spec.tolerance
    value, err = 0.0, 0.0
    edge = 1.0
    for _ in range(windows):
        far = edge * factor
        window, werr = adaptive_quad(fn, min(edge, far), max(edge, far), spec)
        value = value + window
        err += werr
        if (settle is None or edge >= settle) and np.max(np.abs(window)) < cut:
            return value, err
        edge = far
    raise QuadratureError(f"a tail is still above {cut:.3g} after {windows} dyadic "
                          f"windows of the integration variable, from 1 to {edge:.6g}")
