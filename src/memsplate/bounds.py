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

from .errors import InvalidInterval

__all__ = [
    "ComparisonBVP", "q_profile", "kappa0_case_bounds", "kappa0_bound", "solve_comparison_bvp",
    "classify_interval",
]

_ENDPOINT_RTOL = 1e-12


def q_profile(y: np.ndarray, H: float) -> np.ndarray:
    """Quartic bridge profile: zero value/slope at 0, value -H and zero slope at 1."""
    y = np.asarray(y, dtype=float)
    return y**2 * (y**2 + 2.0 * (H - 1.0) * y + 1.0 - 3.0 * H)


def kappa0_case_bounds(beta: float, tau: float, L: float, H: float, G0: float) -> dict:
    """Per-case sup bounds for the comparison solutions (all four endpoint cases)."""
    base = 16.0 * L**4 * G0 / beta
    # max |Q| of the bridge profile on [0, 1]: Q' = 2y (y - 1)(2y - (1 - 3H)), so it is
    # |Q(1)| = H or, for H < 1/3, Q(y*) = (1 - 3H)^3 (1 + H) / 16 at y* = (1 - 3H) / 2;
    # for H >= 1/3 that value is <= 0.  Q(y*) is rounded up by 2^-48, twice the
    # relative rounding error of its evaluation wherever it exceeds H (H < 0.05).
    qmax = max(H, (1.0 - 3.0 * H) ** 3 * (1.0 + H) / 16.0 * (1.0 + 2.0**-48))
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
