"""Acceptance battery: every criterion at the default resolutions.

Default grids: 128 plate elements, 128 x 64 field cells per subdomain.
Each test prints one [PASS]/[FAIL] line (visible with -s), and asserts the
stated tolerances; results that other criteria reuse (solved-state matrix,
sweep states) are shared through module fixtures.
"""

import time

import numpy as np
import pytest

from conftest import comparison_bound_battery
from memsplate import (
    FieldGrid,
    PhysicalParams,
    PlateState,
    build_canonical_boundary_data,
    check_max_principle,
    compute_force,
    continuation_pipeline,
    directional_derivative_check,
    force_analytic_flat,
    interpolate,
    make_context,
)
from memsplate.bounds import q_profile
from memsplate.hermite import PlateGrid
from memsplate.fields import FieldSolver
from memsplate.verify import check_coincidence_interval

N_ELEMS = 128
FIELD = FieldGrid(128, 64, 64)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(beta=1.0, tau=0.0, L=1.0, H=1.0, d=1.0,
                          sigma1=1.0, sigma2=1.0, V=2.0)


@pytest.fixture(scope="module")
def ctx(params):
    return make_context(params, n_elems=N_ELEMS, field_grid=FIELD)


@pytest.fixture(scope="module")
def state_matrix(ctx, params):
    """>= 30 solved states across flats, bumps, and random feasible shapes."""
    p = params
    grid = ctx.plate
    states = []
    for c in (-p.H / 2, 0.0, p.H):
        states.append(PlateState.constant(grid, c))
    for amp in (0.1, 0.4, 0.8):
        for width in (1.0, 2.0):
            f = lambda x, a=amp, w=width: -a * np.cos(np.pi * x / (2 * p.L)) ** (2 * w)
            states.append(interpolate(grid, f))
    rng = np.random.default_rng(11)
    for _ in range(6):
        # smooth random admissible shapes: low-order sine series, amplitude < H
        a = rng.uniform(-1.0, 1.0, 5) / (1.0 + np.arange(5)) ** 2
        amp = rng.uniform(0.2, 0.75) * p.H

        def f(x, a=a, amp=amp):
            s = sum(a[m] * np.sin((m + 1) * np.pi * (x + p.L) / (2 * p.L)) for m in range(5))
            return amp * s / (np.sum(np.abs(a)) + 1e-12)

        def df(x, a=a, amp=amp):
            s = sum(
                a[m] * (m + 1) * np.pi / (2 * p.L)
                * np.cos((m + 1) * np.pi * (x + p.L) / (2 * p.L))
                for m in range(5)
            )
            return amp * s / (np.sum(np.abs(a)) + 1e-12)

        states.append(interpolate(grid, f, df))
    solved = []
    for V in (0.5, 1.0, 2.0):
        pV = PhysicalParams(V=V)
        fam = build_canonical_boundary_data(pV)
        solver = FieldSolver(pV, fam, FIELD)
        for u in states[:11]:
            pf = solver.solve(u)
            g = compute_force(u, pf, fam, pV)
            solved.append((pV, u, pf, g))
    return solved


@pytest.fixture(scope="module")
def t1_result(ctx):
    t0 = time.time()
    u, rep, cert = continuation_pipeline(ctx)
    return u, rep, cert, time.time() - t0


@pytest.fixture(scope="module")
def sweep_result(ctx, params):
    """Warm-started loading sweep ending in contact; each state's force comes with its report."""
    rows = []
    warm = None
    for V in (3.0, 6.0, 9.0, 11.0):
        ctxV = make_context(PhysicalParams(V=V), n_elems=N_ELEMS, field_grid=FIELD)
        warm, rep, cert = continuation_pipeline(ctxV, warm)
        rows.append({
            "V": V, "certificate": cert, "g": rep.force,
            "coincidence": check_coincidence_interval(warm, ctxV.p.H),
        })
    return rows


def test_criterion_1_flat_plate_oracles(ctx, params):
    p = params
    fam = ctx.family
    worst_psi = worst_ee = worst_g = 0.0
    for c in (-p.H / 2, 0.0, p.H):
        t0 = time.time()
        u = PlateState.constant(ctx.plate, c)
        pf = ctx.field.solve(u)
        exact1 = fam.h1(ctx.field.x[None, :], ctx.field.z1[:, None], c)
        z2 = -p.H + ctx.field.eta[:, None] * (c + p.H)
        exact2 = fam.h2(ctx.field.x[None, :], z2, c)
        err_psi = max(np.abs(pf.psi1 - exact1).max(), np.abs(pf.psi2 - exact2).max())

        den = p.sigma2 * p.d + p.sigma1 * (c + p.H)
        Ee = ctx.field.electrostatic_energy(pf)
        Ee_exact = -p.L * p.V**2 * p.sigma1 * p.sigma2 / den
        err_ee = abs(Ee - Ee_exact) / abs(Ee_exact)

        g = compute_force(u, pf, fam, p)
        g_exact = force_analytic_flat(c, p)
        err_g = np.max(np.abs(g.values - g_exact)) / g_exact
        dt = time.time() - t0
        assert dt <= 5.0
        worst_psi, worst_ee, worst_g = (
            max(worst_psi, err_psi), max(worst_ee, err_ee), max(worst_g, err_g),
        )
    ok = worst_psi <= 1e-8 and worst_ee <= 0.02 and worst_g <= 0.02
    report(1, ok, f"flat oracles: |psi err|={worst_psi:.2e}, E_e rel={worst_ee:.2e}, "
                  f"g rel={worst_g:.2e}")


def test_criterion_2_mesh_convergence(params):
    p = params
    fam = build_canonical_boundary_data(p)
    c = 0.0
    f = lambda x: c + 0.1 * p.H * np.cos(np.pi * x / (2 * p.L)) ** 2
    df = lambda x: -0.1 * p.H * np.pi / (2 * p.L) * np.sin(np.pi * x / p.L)
    sols = {}
    for n in (16, 32, 64, 128):
        u = interpolate(PlateGrid(n, p.L), f, df)
        solver = FieldSolver(p, fam, FieldGrid(n, n // 2, n // 2))
        pf = solver.solve(u)
        g = compute_force(u, pf, fam, p)
        sols[n] = (pf, g)

    def excluded(g, n):
        # 2 h_x band around any branch switch (none occurs for this family)
        sw = np.nonzero(g.contact[:-1] != g.contact[1:])[0]
        bad = np.zeros(n + 1, bool)
        for s in sw:
            bad[max(0, s - 2): s + 4] = True
        return bad

    pot_err, frc_err = [], []
    for n in (16, 32, 64):
        pfc, gc = sols[n]
        pff, gf = sols[2 * n]
        pot_err.append(max(
            np.max(np.abs(pff.psi1[::2, ::2] - pfc.psi1)),
            np.max(np.abs(pff.psi2[::2, ::2] - pfc.psi2)),
        ))
        keep = ~excluded(gc, n)
        frc_err.append(np.max(np.abs(gf.values[::2][keep] - gc.values[keep])))
    pot_orders = [np.log2(pot_err[i] / pot_err[i + 1]) for i in range(2)]
    frc_orders = [np.log2(frc_err[i] / frc_err[i + 1]) for i in range(2)]
    ok = min(pot_orders) >= 1.8 and min(frc_orders) >= 0.9
    report(2, ok, f"self-convergence orders: potential {pot_orders}, force {frc_orders}")


def test_criterion_3_max_principle(state_matrix):
    n_states = len(state_matrix)
    assert n_states >= 30
    worst_low = worst_high = 0.0
    ok = True
    for pV, u, pf, g in state_matrix:
        rep = check_max_principle(pf)
        ok = ok and rep["pass"]
        worst_low = min(worst_low, rep["psi_min"] - 0.0)
        worst_high = max(worst_high, rep["psi_max"] - pV.V)
    ok = ok and worst_low >= -1e-8 and worst_high <= 1e-8
    report(3, ok, f"{n_states} states: min excursion {worst_low:.2e}, "
                  f"max excursion {worst_high:.2e}")


def test_criterion_4_force_energy_consistency(ctx, params):
    p = params
    grid = ctx.plate
    bump = interpolate(grid, lambda x: -np.cos(np.pi * x / 2) ** 2,
                       lambda x: np.pi / 2 * np.sin(np.pi * x))
    bump2 = interpolate(grid, lambda x: -(1 - x**2) ** 2, lambda x: 4 * x * (1 - x**2))
    tilt = interpolate(grid, lambda x: -np.cos(np.pi * x / 2) ** 2 * (1 + 0.5 * x),
                       lambda x: np.pi / 2 * np.sin(np.pi * x) * (1 + 0.5 * x)
                       - 0.5 * np.cos(np.pi * x / 2) ** 2)
    pairs = [
        (PlateState.zero(grid), bump),
        (PlateState.constant(grid, -0.3), bump),
        (PlateState(grid, 0.2 * bump.dofs), bump2),
        (PlateState.constant(grid, 0.5), tilt),
        (PlateState(grid, 0.1 * bump2.dofs), bump),
    ]
    ok = True
    worst_final = 0.0
    for u, w in pairs:
        rep = directional_derivative_check(u, w, [1e-2, 1e-3, 1e-4], ctx.field, ctx.family, p)
        m = rep["mismatch"]
        decreasing = m[0] < m[1] < m[2]
        ok = ok and decreasing and rep["final_relative_mismatch"] <= 0.05
        worst_final = max(worst_final, rep["final_relative_mismatch"])
    report(4, ok, f"5 pairs, mismatch decreasing with eps, worst final "
                  f"relative mismatch {worst_final:.2e} (<= 5%)")


def test_criterion_5_comparison_bound_suite(params):
    p = params
    t0 = time.time()
    battery = comparison_bound_battery(
        p.beta, (0.0, 1.0), (0.0, 1.0, 10.0), p.L, p.H, n_intervals=50, seed=7,
    )
    # the bridge profile as the quartic through five of its values
    y = np.linspace(0.0, 1.0, 5)
    Q = np.polynomial.Polynomial.fit(y, q_profile(y, p.H), 4)
    d4Q = float(Q.deriv(4)(0.3))
    max_d2Q = float(np.max(np.abs(Q.deriv(2)(np.linspace(0.0, 1.0, 10_000)))))
    dt = time.time() - t0
    ok = (
        battery["pass"]
        and all(battery["cases"][k] > 0 for k in battery["cases"])
        and abs(d4Q - 24.0) <= 1e-10
        and max_d2Q <= 14.0 * (p.H + 1.0)
        and dt <= 10.0
    )
    report(5, ok, f"{sum(battery['cases'].values())} comparison solves in {dt:.1f}s, "
                  f"worst |S|/kappa0 = {battery['worst_ratio']:.3f}, "
                  f"Q'''' = {d4Q:.1f}, max|Q''| = {max_d2Q:.1f}")


def test_criterion_6_continuation_pipeline(t1_result, ctx):
    u, rep, cert, dt = t1_result
    # canonical family: force is nonnegative by construction, confirming the
    # demo voltage qualifies for the sign-based bound argument
    gmin = float(np.min(rep.force.values))
    ok = (
        rep.converged
        and rep.vi_residual <= rep.tol_vi
        and cert["bound_pass"]
        and not cert["reg_active"]
        and cert["energy_below_rest"]
        and cert["lower_bound_pass"]
        and cert["certified"]
        and gmin >= -1e-12
        and np.all(u.values <= 1e-10)  # downward force only
        and dt <= 60.0
    )
    report(6, ok, f"converged in {rep.iterations} its ({dt:.1f}s): vi={rep.vi_residual:.2e} "
                  f"<= {rep.tol_vi:.1e}, sup|u|={cert['sup_abs_u']:.4f} <= kappa0={cert['kappa0']}, "
                  f"E={cert['E']:.6f} in [-c(k0), E(0)] = [{-cert['c_kappa0']:.3g}, {cert['E_rest']:.4f}]")


def test_criterion_7_coincidence_in_sweep(sweep_result):
    states_with_contact = [r for r in sweep_result if r["coincidence"].n_contact > 0]
    ok = len(states_with_contact) > 0
    for r in sweep_result:
        if r["coincidence"].n_contact > 0:
            ok = ok and r["coincidence"].is_interval
    top = sweep_result[-1]
    ok = ok and top["coincidence"].n_contact > 0
    ok = ok and all(r["certificate"]["certified"] for r in sweep_result)
    detail = ", ".join(
        f"V={r['V']}: contact={r['coincidence'].n_contact} interval={r['coincidence'].is_interval} "
        f"certified={r['certificate']['certified']}"
        for r in sweep_result
    )
    report(7, ok, detail)


def test_criterion_8_force_lower_bound(state_matrix, sweep_result, ctx):
    G0 = ctx.constants.G0
    worst = np.inf
    for _, _, _, g in state_matrix:
        worst = min(worst, float(np.min(g.values)))
    for r in sweep_result:
        worst = min(worst, float(np.min(r["g"].values)))
    ok = worst >= -ctx.constants.sigma_bar * 0 - G0 - 1e-8 and worst >= -1e-8
    report(8, ok, f"min g over {len(state_matrix) + len(sweep_result)} solved states: "
                  f"{worst:.3e} (floors: -G0 = {-G0:.2e} and 0 for constant potentials)")


def test_criterion_9_descent_and_determinism(t1_result, params):
    u, rep, cert, _ = t1_result
    Eks = [t["E_k"] for t in rep.trajectory]
    monotone = all(Eks[i + 1] <= Eks[i] for i in range(len(Eks) - 1))
    ctx2 = make_context(params, n_elems=N_ELEMS, field_grid=FIELD)
    _, rep2, cert2 = continuation_pipeline(ctx2)
    identical = cert == cert2
    ok = monotone and identical
    report(9, ok, f"E_k trajectory nonincreasing over {len(Eks)} records: {monotone}; "
                  f"repeated run certificate identical: {identical}")


def test_refinement_at_11V_converges():
    # cold 11 V solves with the field refined together with the plate (n_z1 =
    # n_z2 = n_elems / 2).  The quantity checked for the contact set is the one
    # sweep.csv reports: contact nodes (within eps = h^2 H of the layer) times h
    energies, measures = [], []
    for n in (32, 64, 128):
        ctx = make_context(PhysicalParams(V=11.0), n_elems=n, field_grid=FieldGrid(n, n // 2, n // 2))
        u, rep, cert = continuation_pipeline(ctx)
        assert cert["certified"], n
        energies.append(cert["E"])
        measures.append(check_coincidence_interval(u, ctx.p.H).n_contact * ctx.plate.h)
    E32, E64, E128 = energies
    ratio = (E32 - E64) / (E64 - E128)
    ok = E32 > E64 > E128 and measures == [0.3125, 0.21875, 0.171875] and ratio >= 3.0
    report("refinement", ok, f"E at 32, 64, 128 elements {energies}, contact measure {measures}, "
                             f"ratio of energy differences {ratio:.2f}")
