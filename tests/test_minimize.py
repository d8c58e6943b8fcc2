import numpy as np
import pytest

from memsplate import (
    FieldGrid,
    PhysicalParams,
    PlateState,
    SolverSettings,
    assemble_bending_and_stretch,
    assemble_mass,
    coercivity_check,
    coercivity_constant,
    continuation_pipeline,
    energy_total,
    make_context,
)
from conftest import random_feasible_state

from memsplate.errors import MaxIterations, StalledDescent
from memsplate.minimize import minimize_Ek, penalty_value_grad, tol_vi_for


@pytest.fixture(scope="module")
def ctx32():
    # slightly relaxed certificate tolerance: the trace/energy consistency
    # floor sits near 5e-8 at this half resolution
    return make_context(
        PhysicalParams(V=2.0), n_elems=32, field_grid=FieldGrid(32, 16, 16),
        settings=SolverSettings(tol_vi_factor=1e-7),
    )


@pytest.fixture(scope="module")
def solved32(ctx32):
    return continuation_pipeline(ctx32)


def test_settings_validation():
    for bad in (0.0, -1e-8, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol_vi_factor"):
            SolverSettings(tol_vi_factor=bad)
        with pytest.raises(ValueError, match="tol_lin"):
            SolverSettings(tol_lin=bad)
    with pytest.raises(ValueError, match="max_outer"):
        SolverSettings(max_outer=0)


def test_zero_voltage_minimizes_to_rest(rng):
    ctx = make_context(PhysicalParams(V=0.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    u0 = random_feasible_state(ctx, rng)
    u, rep = minimize_Ek(u0, max(ctx.constants.kappa0, 1.0), ctx)
    assert rep.converged
    assert np.max(np.abs(u.dofs)) <= 1e-10
    assert rep.E_k <= 1e-20


def test_energy_total_trivial_cases(ctx32):
    p = ctx32.p
    k = max(ctx32.constants.kappa0, p.H)
    # V = 0 handled in its own context
    ctx0 = make_context(PhysicalParams(V=0.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    rep0 = energy_total(PlateState.zero(ctx0.plate), k, ctx0)
    assert rep0.E_m == rep0.E_e == rep0.E == rep0.E_k == 0.0

    # flat below the regularization level: E_k is bitwise E
    u = PlateState.constant(ctx32.plate, 0.5)
    rep = energy_total(u, k, ctx32)
    assert rep.E_k == rep.E and not rep.reg_active


def test_regularizer_active_above_level(ctx32):
    p = ctx32.p
    k = max(ctx32.constants.kappa0, p.H)
    u = PlateState.constant(ctx32.plate, k + 1.0)
    rep = energy_total(u, k, ctx32)
    assert rep.reg_active
    # || (u-k)_+ ||^2 = 2L exactly for the unit excess
    assert rep.E_k - rep.E == pytest.approx(ctx32.constants.A * p.L, rel=1e-12)


def test_penalty_value_grad_consistency(ctx32, rng):
    # quadrature value/gradient must be an exact pair (finite differences)
    u = random_feasible_state(ctx32, rng, amplitude=2.0)
    k = 1.2
    A = 3.7
    v0, g0, _ = penalty_value_grad(u, k, A)
    h = 1e-7
    for j in (5, 20, 33):
        up = u.copy()
        up.dofs[j] += h
        vp, _, _ = penalty_value_grad(up, k, A)
        um = u.copy()
        um.dofs[j] -= h
        vm, _, _ = penalty_value_grad(um, k, A)
        fd = (vp - vm) / (2 * h)
        assert fd == pytest.approx(g0[j], abs=1e-6 * max(1.0, abs(v0)))


def test_small_voltage_descent_certificate(solved32, ctx32):
    u, rep, cert = solved32
    assert rep.converged and rep.vi_residual <= rep.tol_vi
    # downward force only: plate stays in [-H, 0]
    assert np.all(u.values <= 1e-12)
    assert np.all(u.values >= -ctx32.p.H)
    # the certificate is the exact gradient of the discrete energy; with the
    # obstacle and the penalty inactive (everywhere here), (B + S) u + dE_e/du
    # must vanish against every free direction
    pf = ctx32.field.solve(u)
    r = ctx32.K @ u.dofs + ctx32.field.shape_gradient_load(pf, u)
    viol = np.abs(r) / ctx32._norms
    viol[~ctx32._free] = 0.0
    assert np.max(viol) <= rep.tol_vi
    assert not rep.reg_active and rep.n_contact_nodes == 0


def test_descent_monotone_and_feasible(solved32, ctx32):
    u, rep, cert = solved32
    Eks = [t["E_k"] for t in rep.trajectory]
    assert all(Eks[i + 1] <= Eks[i] for i in range(len(Eks) - 1))
    assert u.is_feasible(ctx32.p.H)


def test_fp_and_vi_residuals_agree_when_inactive(solved32):
    u, rep, cert = solved32
    assert rep.n_contact_nodes == 0
    assert abs(rep.fp_residual - rep.vi_residual) <= 10.0 * rep.tol_vi


def test_certificate_fields_and_bounds(solved32, ctx32):
    u, rep, cert = solved32
    assert cert["bound_pass"] and not cert["reg_active"]
    assert cert["sup_abs_u"] <= cert["kappa0"]
    assert cert["energy_below_rest"] and cert["lower_bound_pass"]
    assert cert["E"] <= cert["E_rest"]
    assert cert["E"] >= -cert["c_kappa0"]
    # logged energies also respect the coercivity floor
    assert min(t["E_k"] for t in rep.trajectory) >= -cert["c_kappa0"]


def test_determinism_bitwise(ctx32):
    ctx_a = make_context(
        PhysicalParams(V=2.0), n_elems=32, field_grid=FieldGrid(32, 16, 16),
        settings=SolverSettings(tol_vi_factor=1e-7),
    )
    ctx_b = make_context(
        PhysicalParams(V=2.0), n_elems=32, field_grid=FieldGrid(32, 16, 16),
        settings=SolverSettings(tol_vi_factor=1e-7),
    )
    _, _, cert_a = continuation_pipeline(ctx_a)
    _, _, cert_b = continuation_pipeline(ctx_b)
    assert cert_a == cert_b


def test_coercivity_check(ctx32, rng):
    p = ctx32.p
    k = max(ctx32.constants.kappa0, p.H)
    rep = coercivity_check(PlateState.zero(ctx32.plate), k, ctx32)
    assert rep["pass"]
    assert rep["c_k"] == pytest.approx(coercivity_constant(ctx32, k), rel=1e-14)
    # V = 0 reduction: c(k) keeps only the k^2 part when m1 is at the floor
    ctx0 = make_context(PhysicalParams(V=0.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    c0 = coercivity_constant(ctx0, 2.0)
    expected = 1.5 * 2.0 * ctx0.constants.m1 * 2.0 + 0.5 * ctx0.constants.A * 4.0 * 2.0
    assert c0 == pytest.approx(expected, rel=1e-12)
    assert coercivity_check(PlateState.zero(ctx0.plate), 2.0, ctx0)["pass"]
    # random feasible states
    for _ in range(100):
        u = random_feasible_state(ctx32, rng, amplitude=1.5)
        assert coercivity_check(u, k, ctx32)["pass"]


def test_max_iterations_raised():
    ctx = make_context(
        PhysicalParams(V=2.0), n_elems=16, field_grid=FieldGrid(16, 8, 8),
        settings=SolverSettings(max_outer=1),
    )
    with pytest.raises(MaxIterations) as ei:
        minimize_Ek(ctx.zero_state(), max(ctx.constants.kappa0, 1.0), ctx)
    assert ei.value.state is not None and ei.value.report is not None
    assert ei.value.report.iterations == 1


def test_stalled_descent_carries_state():
    # unreachable tolerance forces a stall; the exception carries the iterate
    ctx = make_context(
        PhysicalParams(V=2.0), n_elems=16, field_grid=FieldGrid(16, 8, 8),
        settings=SolverSettings(tol_vi_factor=1e-16, max_outer=100),
    )
    with pytest.raises(StalledDescent) as ei:
        minimize_Ek(ctx.zero_state(), max(ctx.constants.kappa0, 1.0), ctx)
    assert ei.value.state is not None
    Eks = [t["E_k"] for t in ei.value.report.trajectory]
    assert all(Eks[i + 1] <= Eks[i] for i in range(len(Eks) - 1))


def test_k_below_gap_height_rejected(ctx32):
    with pytest.raises(ValueError):
        minimize_Ek(ctx32.zero_state(), 0.5 * ctx32.p.H, ctx32)


def test_continuation_zero_voltage():
    ctx = make_context(PhysicalParams(V=0.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    u, rep, cert = continuation_pipeline(ctx)
    assert np.max(np.abs(u.dofs)) <= 1e-12
    assert cert["bound_pass"] and cert["kappa0"] >= 1.0
    assert cert["status"] == "converged" and cert["certified"]


def test_warm_start_compares_against_the_rest_state(ctx32, solved32):
    # E_rest is the energy of the rest state from any start, not that of the start
    u, rep, cert = solved32
    u_w, rep_w, cert_w = continuation_pipeline(ctx32, u)
    assert cert_w["E_rest"] == cert["E_rest"]
    assert rep_w.trajectory[0]["E_k"] < cert["E_rest"]
    assert cert_w["energy_below_rest"] and cert_w["certified"]


@pytest.mark.parametrize("amplitude", [1e-10, 0.3])
def test_energy_below_rest_allows_only_the_descent_noise_floor(monkeypatch, amplitude):
    # a "descent" that stays at its warm start above rest: its energy exceeds E_rest = 0 by
    # more than 64 ulps of the terms of E_rest, its start and its end, however small it is
    import memsplate.minimize

    def stay(u0, k, ctx):
        report = energy_total(u0, k, ctx)
        report.converged, report.trajectory = True, [{"E_m": report.E_m, "E_e": report.E_e, "E_k": report.E_k}]
        return u0, report

    monkeypatch.setattr(memsplate.minimize, "minimize_Ek", stay)
    ctx = make_context(PhysicalParams(V=0.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    u0 = PlateState.from_nodal(ctx.plate, amplitude * np.cos(np.pi * ctx.plate.nodes / 2) ** 2, np.zeros(17))
    u, rep, cert = continuation_pipeline(ctx, u0)
    assert cert["E_rest"] == 0.0 < cert["E"] and not cert["energy_below_rest"] and not cert["certified"]


@pytest.mark.parametrize("floors, below", [(0.5, True), (2.0, False)])
def test_energy_below_rest_allowance_is_the_noise_floor(monkeypatch, floors, below):
    # a "descent" from rest that reports E above E_rest by a multiple of the noise floor,
    # 64 ulps of |E_m| + |E_e| + penalty over the rest state, its start (rest again) and its end
    import memsplate.minimize

    def shifted(u0, k, ctx):
        report = energy_total(u0, k, ctx)
        rest = {"E_m": report.E_m, "E_e": report.E_e, "E_k": report.E_k}
        noise = memsplate.minimize._NOISE_ULPS * np.finfo(float).eps * 3.0 * abs(report.E_m + report.E_e)
        report.E, report.converged, report.trajectory = report.E + floors * noise, True, [rest]
        return u0, report

    monkeypatch.setattr(memsplate.minimize, "minimize_Ek", shifted)
    ctx = make_context(PhysicalParams(V=2.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    _, _, cert = continuation_pipeline(ctx)
    assert cert["E_rest"] < cert["E"] and cert["energy_below_rest"] == below


@pytest.mark.parametrize("settings, status", [
    (SolverSettings(max_outer=1), "MaxIterations"),
    (SolverSettings(tol_vi_factor=1e-16, max_outer=100), "StalledDescent"),
], ids=["MaxIterations", "StalledDescent"])
def test_continuation_records_a_failed_descent(settings, status):
    # the pipeline keeps the last iterate and its report, and names the failure
    ctx = make_context(PhysicalParams(V=2.0), n_elems=16, field_grid=FieldGrid(16, 8, 8), settings=settings)
    u, rep, cert = continuation_pipeline(ctx)
    assert cert["status"] == status
    assert not cert["converged"] and not cert["certified"]
    assert cert["vi_residual"] > cert["tol_vi"] and cert["energy_below_rest"]
    assert rep.potential is not None and rep.force is not None
    assert u.is_feasible(ctx.p.H) and np.any(u.dofs != 0.0)


@pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 2: a cold reduced-device solve just past pull-in "
    "ends MaxIterations uncertified",
)
def test_cold_solve_just_past_pull_in_certifies():
    ctx = make_context(PhysicalParams(V=5.65), n_elems=32, field_grid=FieldGrid(32, 16, 16))
    u, rep, cert = continuation_pipeline(ctx)
    assert cert["certified"], (cert["status"], rep.iterations, rep.vi_residual, rep.tol_vi)


def test_tol_vi_scaling(ctx32):
    u = PlateState.zero(ctx32.plate)
    t0 = tol_vi_for(ctx32, u)
    p = ctx32.p
    assert t0 == pytest.approx(
        ctx32.settings.tol_vi_factor * (p.beta / p.L**3) * p.H, rel=1e-14
    )


def test_fabricated_constants_fail_the_bound():
    from dataclasses import replace as dc_replace

    ctx = make_context(PhysicalParams(V=2.0), n_elems=16, field_grid=FieldGrid(16, 8, 8),
                       settings=SolverSettings(tol_vi_factor=1e-6))
    # shrink the certified bound below any nonzero deflection: the descent
    # converges, and the certificate refuses the state
    ctx.constants = dc_replace(ctx.constants, kappa0=1e-9)
    u, rep, cert = continuation_pipeline(ctx)
    assert cert["status"] == "converged" and rep.converged
    assert cert["sup_abs_u"] > cert["kappa0"] == 1e-9
    assert not cert["bound_pass"] and not cert["certified"]


def test_continuation_flags_out_of_range_constants():
    from dataclasses import replace as dc_replace

    ctx = make_context(PhysicalParams(V=2.0), n_elems=16, field_grid=FieldGrid(16, 8, 8),
                       settings=SolverSettings(tol_vi_factor=1e-6))
    # pretend the certified range was tiny; the pipeline flags it and reports the
    # constants the descent used
    ctx.constants = dc_replace(ctx.constants, w_max=1e-6)
    u, rep, cert = continuation_pipeline(ctx)
    assert not cert["within_certified_range"]
    assert cert["constants"] == ctx.constants.as_dict()
    assert cert["kappa0"] == ctx.constants.kappa0


def test_a_missed_cg_is_not_tried_again_within_a_line_search(monkeypatch):
    # once a trial's CG misses and that trial factors, the rest of the line
    # search factors directly: one CG attempt per line search, and every trial factors
    import memsplate.fields

    attempts = []

    def missing_pcg(S, b, factor, atol, steps):
        attempts.append(steps)
        return np.zeros_like(b), steps, False

    monkeypatch.setattr(memsplate.fields, "_pcg", missing_pcg)
    ctx = make_context(PhysicalParams(V=11.0), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    u, rep, cert = continuation_pipeline(ctx)
    assert cert["certified"]
    searches = [r for r in rep.trajectory if r["ls_trials"]]
    assert any(r["ls_trials"] > 1 for r in searches)
    assert len(attempts) == len(searches)
    for r in searches:
        assert r["cg_iterations"] == memsplate.fields._PCG_MAXIT
        assert r["factorizations"] == r["ls_trials"]


@pytest.mark.parametrize("L", [1.0, 1.628, 0.37])
def test_norms_are_the_assembled_unit_diagonals(L):
    # make_context sums the element diagonals onto the DOFs instead of assembling
    # the unit matrices; each entry sums at most two element entries, so the bits agree
    p = PhysicalParams(L=L, V=2.0)
    for n in (1, 2, 8, 32, 128, 256):
        ctx = make_context(p, n_elems=n, field_grid=FieldGrid(4, 4, 4))
        Bu, Su = assemble_bending_and_stretch(ctx.plate, 1.0, 1.0)
        assert np.array_equal(ctx._norms, np.sqrt(Bu.diagonal() + Su.diagonal() + assemble_mass(ctx.plate).diagonal()))
