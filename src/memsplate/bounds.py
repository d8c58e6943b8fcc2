"""Clamped fourth-order comparison solves and the a-priori sup bound.

The comparison problem is  beta S'''' - tau S'' = G0  on a subinterval
(a, b) of (-L, L), with value/slope data at each endpoint depending on
whether the endpoint lies on the domain boundary (clamped plate, value 0)
or strictly inside (obstacle contact, value -H); slopes vanish either way.
Its solutions bound every admissible equilibrium from above in sup norm,
uniformly over the interval, which is what :func:`kappa0_bound` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import InvalidInterval
from .hermite import (
    PlateGrid,
    PlateState,
    assemble_bending_and_stretch,
    clamped_dof_indices,
    gauss_rule,
    shape_functions,
)

__all__ = [
    "ComparisonBVP",
    "q_profile",
    "q_profile_identities",
    "kappa0_case_bounds",
    "kappa0_bound",
    "solve_comparison_bvp",
    "solve_clamped_bvp",
    "classify_interval",
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
    return {
        "interior": interior,
        "touches_boundary": one_sided,
        "full": full,
        "q_max": qmax,
    }


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
    exact: bool


def _quartic_solution(a: float, b: float, va: float, vb: float, beta: float, G0: float):
    """Closed-form quartic for tau = 0: particular G0 x^4/(24 beta) plus cubic fit."""
    q = G0 / (24.0 * beta)
    A = np.array([
        [1.0, a, a**2, a**3],
        [0.0, 1.0, 2.0 * a, 3.0 * a**2],
        [1.0, b, b**2, b**3],
        [0.0, 1.0, 2.0 * b, 3.0 * b**2],
    ])
    rhs = np.array([
        va - q * a**4,
        -4.0 * q * a**3,
        vb - q * b**4,
        -4.0 * q * b**3,
    ])
    c = np.linalg.solve(A, rhs)
    return np.polynomial.Polynomial(np.concatenate([c, [q]]))


def _poly_max_abs(p, a: float, b: float) -> float:
    """Exact sup of |p| on [a, b] via stationary points of the polynomial."""
    cand = [a, b]
    for r in p.deriv().roots():
        if abs(r.imag) < 1e-12 and a <= r.real <= b:
            cand.append(float(r.real))
    return float(np.max(np.abs(p(np.array(cand)))))


def solve_clamped_bvp(
    a: float,
    b: float,
    beta: float,
    tau: float,
    load,
    bc: tuple[float, float] = (0.0, 0.0),
    n_elems: int = 256,
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
    full[0] = bc[0]
    full[-2] = bc[1]
    fixed = clamped_dof_indices(grid)
    free = np.setdiff1d(np.arange(grid.n_dofs), fixed)
    rhs = F[free] - A[np.ix_(free, fixed)] @ full[fixed]
    full[free] = spla.spsolve(A[np.ix_(free, free)], rhs)
    return PlateState(grid, full)


def solve_comparison_bvp(
    a: float,
    b: float,
    G0: float,
    beta: float,
    tau: float,
    L: float,
    H: float,
    n_elems: int = 1024,
    n_sample: int = 2001,
) -> ComparisonBVP:
    """Solve the comparison problem on (a, b); exact quartic when tau = 0."""
    if not (-L <= a < b <= L):
        raise InvalidInterval(f"interval ({a}, {b}) not inside [{-L}, {L}]")
    if G0 < 0.0:
        raise ValueError("G0 must be nonnegative")
    tag = classify_interval(a, b, L)
    va = 0.0 if tag in ("full", "touches_left") else -H
    vb = 0.0 if tag in ("full", "touches_right") else -H
    x = np.linspace(a, b, n_sample)
    if tau == 0.0:
        p = _quartic_solution(a, b, va, vb, beta, G0)
        return ComparisonBVP(a, b, G0, tag, x, p(x), _poly_max_abs(p, a, b), exact=True)
    state = solve_clamped_bvp(a, b, beta, tau, lambda xs: np.full_like(xs, G0), (va, vb), n_elems)
    _, dense = state.sample_dense(8)
    return ComparisonBVP(a, b, G0, tag, x, state(x), float(np.max(np.abs(dense))), exact=False)
