from fractions import Fraction

import numpy as np
import pytest

from conftest import comparison_bound_battery
from memsplate import (
    kappa0_bound,
    kappa0_case_bounds,
    q_profile,
    solve_comparison_bvp,
)
from memsplate.bounds import classify_interval
from memsplate.errors import InvalidInterval


def closed_form_tension_solution(a, b, va, vb, beta, tau, G0):
    """Independent closed form for beta S'''' - tau S'' = G0, clamped data.

    General solution: c1 + c2 x + c3 cosh(mu x) + c4 sinh(mu x) - G0 x^2/(2 tau)
    with mu = sqrt(tau/beta).
    """
    mu = np.sqrt(tau / beta)

    def row(x, deriv):
        if deriv == 0:
            return [1.0, x, np.cosh(mu * x), np.sinh(mu * x)]
        return [0.0, 1.0, mu * np.sinh(mu * x), mu * np.cosh(mu * x)]

    A = np.array([row(a, 0), row(a, 1), row(b, 0), row(b, 1)])
    rhs = np.array([
        va + G0 * a**2 / (2 * tau), G0 * a / tau,
        vb + G0 * b**2 / (2 * tau), G0 * b / tau,
    ])
    c = np.linalg.solve(A, rhs)

    def S(x):
        return c[0] + c[1] * x + c[2] * np.cosh(mu * x) + c[3] * np.sinh(mu * x) - G0 * x**2 / (2 * tau)

    return S


def test_full_interval_quartic_exact():
    beta, L, H, G0 = 1.3, 1.0, 1.0, 2.0
    bvp = solve_comparison_bvp(-L, L, G0, beta, 0.0, L, H)
    assert bvp.case_tag == "full"
    x = bvp.x
    exact = G0 * (L**2 - x**2) ** 2 / (24.0 * beta)
    assert np.max(np.abs(bvp.S - exact)) <= 1e-12
    assert bvp.max_abs == pytest.approx(G0 * L**4 / (24.0 * beta), rel=1e-12)


def test_zero_load_gives_zero_solution():
    bvp = solve_comparison_bvp(-1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
    assert np.max(np.abs(bvp.S)) <= 1e-14


def test_interior_case_boundary_conditions_and_bound():
    beta, L, H, G0 = 1.0, 1.0, 1.0, 3.0
    a, b = -0.6, 0.4
    bvp = solve_comparison_bvp(a, b, G0, beta, 0.0, L, H)
    assert bvp.case_tag == "interior"
    # endpoint data exactly: value -H, slope 0
    assert bvp.S[0] == pytest.approx(-H, abs=1e-12)
    assert bvp.S[-1] == pytest.approx(-H, abs=1e-12)
    ds = np.gradient(bvp.S, bvp.x)
    assert abs(ds[0]) < 1e-2 and abs(ds[-1]) < 1e-2  # sampled slope, coarse check
    # proof-case sandwich: -H <= S <= 16 L^4 G0 / beta - H
    assert np.all(bvp.S >= -H - 1e-12)
    assert np.all(bvp.S <= 16.0 * L**4 * G0 / beta - H + 1e-12)


def test_one_sided_cases_classified():
    assert classify_interval(-1.0, 0.3, 1.0) == "touches_left"
    assert classify_interval(-0.3, 1.0, 1.0) == "touches_right"
    assert classify_interval(-0.2, 0.3, 1.0) == "interior"
    assert classify_interval(-1.0, 1.0, 1.0) == "full"


def test_tension_solve_matches_closed_form():
    beta, tau, L, H, G0 = 1.0, 1.0, 1.0, 1.0, 10.0
    a, b = -0.7, 0.5
    bvp = solve_comparison_bvp(a, b, G0, beta, tau, L, H)
    S = closed_form_tension_solution(a, b, -H, -H, beta, tau, G0)
    assert np.max(np.abs(bvp.S - S(bvp.x))) <= 1e-10


def test_tension_sup_is_at_least_a_dense_sample(rng):
    # both sides of the series/exponential switch at k (b - a) / 2 = 1, all four cases
    L, H = 1.0, 1.0
    for j in range(24):
        beta, tau = float(rng.uniform(0.5, 2.0)), float(10 ** rng.uniform(-2.0, 2.0))
        G0 = float(rng.uniform(0.0, 20.0))
        a = -L if j % 4 in (0, 1) else float(rng.uniform(-0.9, 0.3))
        b = L if j % 4 in (0, 2) else float(rng.uniform(a + 0.1, 0.95))
        bvp = solve_comparison_bvp(a, b, G0, beta, tau, L, H)
        va = 0.0 if bvp.case_tag in ("full", "touches_left") else -H
        vb = 0.0 if bvp.case_tag in ("full", "touches_right") else -H
        S = closed_form_tension_solution(a, b, va, vb, beta, tau, G0)
        sample = float(np.max(np.abs(S(np.linspace(a, b, 200_001)))))
        assert sample * (1.0 - 1e-10) <= bvp.max_abs <= sample * (1.0 + 1e-9)


def test_comparison_solution_is_continuous_in_tension():
    # the small-tension basis reduces to the quartic, and meets the exponential one
    a, b, G0, beta, L, H = -0.8, 0.6, 5.0, 1.3, 1.0, 1.0
    quartic = solve_comparison_bvp(a, b, G0, beta, 0.0, L, H)
    for tau, rel in ((1e-14, 1e-12), (1e-8, 1e-9)):
        S = solve_comparison_bvp(a, b, G0, beta, tau, L, H).S
        assert np.max(np.abs(S - quartic.S)) <= rel * np.max(np.abs(quartic.S))
    tau_switch = beta * (2.0 / (b - a)) ** 2  # k (b - a) / 2 = 1
    below, above = (solve_comparison_bvp(a, b, G0, beta, tau_switch * f, L, H) for f in (1 - 1e-12, 1 + 1e-12))
    assert np.max(np.abs(below.S - above.S)) <= 1e-12 * np.max(np.abs(below.S))
    assert below.max_abs == pytest.approx(above.max_abs, rel=1e-12)


def test_kappa0_zero_load_zero_tension():
    H = 1.0
    qmax = float(np.max(np.abs(q_profile(np.linspace(0.0, 1.0, 10_001), H))))
    assert kappa0_bound(1.0, 0.0, 1.0, H, 0.0) == pytest.approx(max(H, 24.0 + qmax), rel=1e-12)


def test_kappa0_hand_case():
    # beta=1, tau=0, L=1, G0=1: full-interval contribution 16; overall >= 16
    cases = kappa0_case_bounds(1.0, 0.0, 1.0, 1.0, 1.0)
    assert cases["full"] == pytest.approx(16.0, rel=1e-14)
    assert kappa0_bound(1.0, 0.0, 1.0, 1.0, 1.0) >= 16.0


def test_kappa0_at_least_H(rng):
    for _ in range(20):
        beta = float(rng.uniform(0.1, 5.0))
        tau = float(rng.uniform(0.0, 3.0))
        L = float(rng.uniform(0.2, 3.0))
        H = float(rng.uniform(0.1, 4.0))
        G0 = float(rng.uniform(0.0, 10.0))
        assert kappa0_bound(beta, tau, L, H, G0) >= H


def test_q_profile_identities():
    y = np.linspace(0.0, 1.0, 10_001)
    for H in (0.5, 1.0, 2.0):
        # the quartic through five values of q_profile
        Q = np.polynomial.Polynomial.fit(y[::2500], q_profile(y[::2500], H), 4)
        # the quartic is q_profile, to rounding, on a dense sample
        assert np.max(np.abs(Q(y) - q_profile(y, H))) <= 1e-13 * (H + 1.0)
        assert q_profile(np.array(0.0), H) == 0.0
        assert Q.deriv(1)(0.0) == pytest.approx(0.0, abs=1e-12)
        assert q_profile(np.array(1.0), H) + H == pytest.approx(0.0, abs=1e-12)
        assert Q.deriv(1)(1.0) == pytest.approx(0.0, abs=1e-12)
        assert Q.deriv(4)(0.3) == pytest.approx(24.0, rel=1e-12)
        assert np.max(np.abs(Q.deriv(2)(y))) <= 14.0 * (H + 1.0) + 1e-12
    # H = 1: Q(1) = -1 forced by the contact value
    assert q_profile(np.array(1.0), 1.0) == pytest.approx(-1.0, abs=1e-14)


def _exact_q(y: Fraction, H: Fraction) -> Fraction:
    return y**2 * (y**2 + 2 * (H - 1) * y + 1 - 3 * H)


def test_q_max_is_the_closed_form(rng):
    # H >= 1/3: Q has no extremum inside (0, 1), so max |Q| = |Q(1)| = H
    for H in (1.0 / 3.0, 0.5, 1.0, 1.7, 40.0):
        assert kappa0_case_bounds(1.0, 0.0, 1.0, H, 1.0)["q_max"] == H
    # H < 1/3: at least every point of a 200k-point sample.  The float sample is off
    # by a few ulp, so its points within 1e-12 of its maximum are evaluated exactly.
    y = np.linspace(0.0, 1.0, 200_001)
    for H in (1e-6, 0.01, 0.04, 0.05, 0.1, 0.3, 1.0 / 3.0 - 1e-9, *rng.uniform(0.0, 1.0 / 3.0, 16)):
        H = float(H)
        q_max = kappa0_case_bounds(1.0, 0.0, 1.0, H, 1.0)["q_max"]
        sample = np.abs(q_profile(y, H))
        near = y[sample >= sample.max() - 1e-12]
        assert Fraction(q_max) >= max(abs(_exact_q(Fraction(t), Fraction(H))) for t in near), H
        assert q_max <= sample.max() + 1e-10, H  # the maximum itself, not a looser bound


def test_bound_battery_small():
    rep = comparison_bound_battery(1.0, (0.0, 1.0), (0.0, 1.0, 10.0), 1.0, 1.0, n_intervals=8)
    assert rep["pass"]
    assert all(rep["cases"][k] > 0 for k in rep["cases"])


def test_invalid_interval():
    with pytest.raises(InvalidInterval):
        solve_comparison_bvp(0.5, 0.2, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        solve_comparison_bvp(-2.0, 0.2, 1.0, 1.0, 0.0, 1.0, 1.0)
