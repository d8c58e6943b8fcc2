import numpy as np
import pytest

from memsplate import (
    boggio_positivity_probe,
    comparison_bound_battery,
    kappa0_bound,
    kappa0_case_bounds,
    q_profile,
    solve_clamped_bvp,
    solve_comparison_bvp,
)
from memsplate.bounds import classify_interval, q_profile_identities
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
    qmax = q_profile_identities(H)["max_abs_Q"]
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
    for H in (0.5, 1.0, 2.0):
        rep = q_profile_identities(H)
        assert rep["Q0"] == 0.0 and rep["dQ0"] == 0.0
        assert rep["Q1_plus_H"] == pytest.approx(0.0, abs=1e-12)
        assert rep["dQ1"] == pytest.approx(0.0, abs=1e-12)
        assert rep["d4Q"] == pytest.approx(24.0, rel=1e-12)
        assert rep["max_abs_d2Q"] <= 14.0 * (H + 1.0) + 1e-12
    # H = 1: Q(1) = -1 forced by the contact value
    assert q_profile(np.array(1.0), 1.0) == pytest.approx(-1.0, abs=1e-14)


def test_bound_battery_small():
    rep = comparison_bound_battery(1.0, (0.0, 1.0), (0.0, 1.0, 10.0), 1.0, 1.0, n_intervals=8)
    assert rep["pass"]
    assert all(rep["cases"][k] > 0 for k in rep["cases"])


def test_invalid_interval():
    with pytest.raises(InvalidInterval):
        solve_comparison_bvp(0.5, 0.2, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        solve_comparison_bvp(-2.0, 0.2, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        solve_clamped_bvp(0.3, 0.3, 1.0, 0.0, lambda x: x)


def test_boggio_uniform_load_closed_form():
    beta, L = 2.0, 1.0
    z = solve_clamped_bvp(-L, L, beta, 0.0, lambda x: -np.ones_like(x), (0.0, 0.0), 256)
    xs = np.linspace(-L, L, 201)
    exact = -((L**2 - xs**2) ** 2) / (24.0 * beta)
    assert np.max(np.abs(z(xs) - exact)) <= 1e-9
    assert np.all(z(xs) <= 1e-12)


def test_boggio_probe_random_loads():
    rep = boggio_positivity_probe((-1.0, 1.0), 1.0, 0.0, n_probes=20, n_elems=256)
    assert rep["pass"]
    assert rep["fraction_nonpositive"] >= 0.95
    rep_t = boggio_positivity_probe((-0.8, 0.6), 1.0, 1.0, n_probes=10, n_elems=256)
    assert rep_t["pass"]
