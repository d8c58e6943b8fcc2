"""Clamped fourth-order comparison solves and the a-priori sup bound.

The comparison problem is  beta S'''' - tau S'' = G0  on a subinterval
(a, b) of (-L, L), with value/slope data at each endpoint depending on
whether the endpoint lies on the domain boundary (clamped plate, value 0)
or strictly inside (obstacle contact, value -H); slopes vanish either way.
Its solutions bound every admissible equilibrium from above in sup norm,
uniformly over the interval, which is what :func:`kappa0_bound` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import InvalidInterval
from .hermite import (
    PlateGrid, PlateState, assemble_bending_and_stretch, clamped_dof_indices, gauss_rule, shape_functions,
)

__all__ = [
    "ComparisonBVP", "q_profile", "q_profile_identities", "kappa0_case_bounds", "kappa0_bound",
    "solve_comparison_bvp", "solve_clamped_bvp", "classify_interval",
]

_ENDPOINT_RTOL = 1e-12


def q_profile(y: np.ndarray, H: float) -> np.ndarray:
    """Quartic bridge profile: zero value/slope at 0, value -H and zero slope at 1."""
    y = np.asarray(y, dtype=float)
    return y**2 * (y**2 + 2.0 * (H - 1.0) * y + 1.0 - 3.0 * H)


def _q_deriv(y: np.ndarray, H: float, order: int) -> np.ndarray:
    coeffs = np.array([0.0, 0.0, 1.0 - 3.0 * H, 2.0 * (H - 1.0), 1.0])
    p = np.polynomial.Polynomial(coeffs)
    return p.deriv(order)(np.asarray(y, dtype=float))


def q_profile_identities(H: float, n_sample: int = 10_000) -> dict:
    """Numeric check of the structural identities of the bridge profile."""
    y = np.linspace(0.0, 1.0, n_sample)
    q2 = _q_deriv(y, H, 2)
    out = {
        "Q0": float(q_profile(np.array(0.0), H)),
        "dQ0": float(_q_deriv(0.0, H, 1)),
        "Q1_plus_H": float(q_profile(np.array(1.0), H) + H),
        "dQ1": float(_q_deriv(1.0, H, 1)),
        "d4Q": float(_q_deriv(0.3, H, 4)),
        "max_abs_Q": float(np.max(np.abs(q_profile(y, H)))),
        "max_abs_d2Q": float(np.max(np.abs(q2))),
        "d2Q_bound": 14.0 * (H + 1.0),
    }
    out["d2Q_within_bound"] = out["max_abs_d2Q"] <= out["d2Q_bound"] + 1e-12
    return out


def kappa0_case_bounds(beta: float, tau: float, L: float, H: float, G0: float) -> dict:
    """Per-case sup bounds for the comparison solutions (all four endpoint cases)."""
    base = 16.0 * L**4 * G0 / beta
    qmax = q_profile_identities(H)["max_abs_Q"]
    interior = max(H, base - H)  # solution ranges over [-H, base - H]
    full = base                  # solution ranges over [0, base]
    one_sided = (16.0 * L**4 * G0 + 24.0 * beta + 56.0 * tau * (H + 1.0) * L**2) / beta + qmax
    return {"interior": interior, "touches_boundary": one_sided, "full": full, "q_max": qmax}


def kappa0_bound(beta: float, tau: float, L: float, H: float, G0: float) -> float:
    """Interval-independent sup bound on all comparison solutions; always >= H."""
    if G0 < 0.0:
        raise ValueError("G0 must be nonnegative")
    cases = kappa0_case_bounds(beta, tau, L, H, G0)
    return float(max(H, cases["interior"], cases["full"], cases["touches_boundary"]))


def classify_interval(a: float, b: float, L: float) -> str:
    """Which endpoint-condition case applies to (a, b) inside (-L, L)."""
    left_dom = abs(a + L) <= _ENDPOINT_RTOL * max(1.0, L)
    right_dom = abs(b - L) <= _ENDPOINT_RTOL * max(1.0, L)
    if left_dom and right_dom:
        return "full"
    if left_dom:
        return "touches_left"
    if right_dom:
        return "touches_right"
    return "interior"


@dataclass
class ComparisonBVP:
    """Solved comparison problem on one interval."""

    a: float
    b: float
    G0: float
    case_tag: str
    x: np.ndarray
    S: np.ndarray
    max_abs: float


# power-series coefficients 1/(j + 2n)! of g_j, highest first; cells and passes
# of the bracket refinement (64**5 > 1e9: a zero of S' to 1e-9 of the
# interval moves S there by 1e-18 relative)
_SERIES = {j: [1.0 / math.factorial(j + 2 * n) for n in range(9, -1, -1)] for j in (3, 4)}
_N_CELLS, _N_PASSES = 64, 5


def _comparison_terms(y, order: int, k: float, half: float, G0: float, beta: float):
    """Derivative ``order`` of the particular part and of the 4 homogeneous basis functions.

    y = x - midpoint, half = half-width, k = sqrt(tau/beta).  While k half <= 1
    (tau = 0 too) these are (G0/beta) g4 and {1, y, g2, g3}, where g_j sums
    k^(m-j) y^m / m! over m >= j, m - j even, so g_j' = g_(j-1) and at k = 0 they
    are the quartic and cubic fit.  Beyond, -G0 y^2 / (2 tau) and
    {1, y, exp(k (y - half)), exp(-k (y + half))}: exponentials <= 1 on the interval.
    """
    pw = [np.ones_like(y), y, 0.5 * y**2]  # y^j / j!
    dpw = [np.zeros_like(y)] * order + pw[: 3 - order]  # their derivatives ``order``
    if k * half > 1.0:
        e1, e2 = np.exp(k * (y - half)), np.exp(-k * (y + half))
        return -G0 / (beta * k**2) * dpw[2], [dpw[0], dpw[1], k**order * e1, (-k) ** order * e2]
    g, w = {}, (k * y) ** 2
    for j in (4, 3):  # Horner in w; at k = 0 the leading term alone
        acc = 0.0
        for coef in _SERIES[j] if k else _SERIES[j][-1:]:
            acc = acc * w + coef
        g[j] = y**j * acc
    for j in (2, 1, 0):  # g_j = y^j / j! + k^2 g_(j+2): terms of one sign
        g[j] = pw[j] + k**2 * g[j + 2]
    g[-1] = k**2 * g[1]
    return G0 / beta * g[4 - order], [dpw[0], dpw[1], g[2 - order], g[3 - order]]


def _zeros(f, knots: np.ndarray) -> np.ndarray:
    """A zero of f in every knot cell whose ends differ in sign; f has at most one there."""
    fk = f(knots)
    lo, hi = (ends[fk[:-1] * fk[1:] < 0.0] for ends in (knots[:-1], knots[1:]))
    t, rows = np.linspace(0.0, 1.0, _N_CELLS + 1), np.arange(len(lo))
    for _ in range(_N_PASSES):
        xs = lo[:, None] * (1.0 - t) + hi[:, None] * t  # both ends exact
        fs = np.sign(f(xs))
        j = np.argmax(fs[:, 1:] != fs[:, :1], axis=1)
        lo, hi = xs[rows, j], xs[rows, j + 1]
    return 0.5 * (lo + hi)


def solve_clamped_bvp(
    a: float, b: float, beta: float, tau: float, load, bc: tuple[float, float] = (0.0, 0.0), n_elems: int = 256
) -> PlateState:
    """Hermite solve of  beta z'''' - tau z'' = load  with value data bc and zero slopes.

    ``load`` is a callable of x (vectorized, any shape).  Returns the discrete solution
    as a plate state on its own grid.
    """
    if not b > a:
        raise InvalidInterval(f"need a < b, got ({a}, {b})")
    grid = PlateGrid.from_interval(n_elems, a, b)
    B, S = assemble_bending_and_stretch(grid, beta, tau)
    A = (B + S).tocsc()

    xi, w = gauss_rule(6)
    N0 = shape_functions(xi, grid.h, 0)
    xq = (grid.x_left + np.arange(grid.n_elems) * grid.h)[:, None] + xi * grid.h
    fx = np.asarray(load(xq), dtype=float)                   # (n_elems, n_gauss)
    F = grid.scatter(grid.h * (N0 * (w * fx)[:, None, :]).sum(axis=2))

    full = np.zeros(grid.n_dofs)
    full[0], full[-2] = bc
    fixed = clamped_dof_indices(grid)
    free = np.setdiff1d(np.arange(grid.n_dofs), fixed)
    rhs = F[free] - A[np.ix_(free, fixed)] @ full[fixed]
    full[free] = spla.spsolve(A[np.ix_(free, free)], rhs)
    return PlateState(grid, full)


def solve_comparison_bvp(
    a: float, b: float, G0: float, beta: float, tau: float, L: float, H: float, n_sample: int = 2001
) -> ComparisonBVP:
    """Closed-form solution of the comparison problem on (a, b), and its sup.

    The basis of :func:`_comparison_terms` is fitted to the clamped data by one
    4x4 solve.  The sup is over the ends and the zeros of S': S''' has at most
    one zero (it is A sinh + B cosh in y, or linear), so S'' is monotone on
    either side of it, and S' between consecutive zeros of S''.
    """
    if not (-L <= a < b <= L):
        raise InvalidInterval(f"interval ({a}, {b}) not inside [{-L}, {L}]")
    if G0 < 0.0:
        raise ValueError("G0 must be nonnegative")
    tag = classify_interval(a, b, L)
    va = 0.0 if tag in ("full", "touches_left") else -H
    vb = 0.0 if tag in ("full", "touches_right") else -H
    k, half, mid = np.sqrt(tau / beta), 0.5 * (b - a), 0.5 * (a + b)
    (p0, b0), (p1, b1) = (_comparison_terms(np.array([-half, half]), r, k, half, G0, beta) for r in (0, 1))
    rows = np.array([b0, b1]).transpose(2, 0, 1).reshape(4, 4)  # value, slope at a; at b
    c = np.linalg.solve(rows, [va - p0[0], -p1[0], vb - p0[1], -p1[1]])

    def S(x, order=0):
        part, basis = _comparison_terms(x - mid, order, k, half, G0, beta)
        return part + sum(cj * fj for cj, fj in zip(c, basis))

    knots = np.array([a, b])
    for order in (3, 2, 1):
        knots = np.union1d(knots, _zeros(lambda x: S(x, order), knots))
    x = np.linspace(a, b, n_sample)
    return ComparisonBVP(a, b, G0, tag, x, S(x), float(np.max(np.abs(S(knots)))))
