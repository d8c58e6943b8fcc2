import numpy as np
import pytest

from memsplate import (
    FieldGrid,
    FieldSolver,
    PhysicalParams,
    PlateState,
    SolverSettings,
    check_apriori_bound,
    check_coincidence_interval,
    continuation_pipeline,
    make_context,
    run_suite,
)


@pytest.fixture(scope="module")
def ctx():
    return make_context(
        PhysicalParams(V=2.0), n_elems=32, field_grid=FieldGrid(32, 16, 16),
        settings=SolverSettings(tol_vi_factor=1e-7),
    )


@pytest.fixture(scope="module")
def solved(ctx):
    u, rep, cert = continuation_pipeline(ctx)
    return u


def test_apriori_bound_pass_and_fail(ctx):
    u = PlateState.zero(ctx.plate)
    rep = check_apriori_bound(u, kappa0=1.0)
    assert rep["pass"] and rep["margin"] == pytest.approx(1.0)
    big = PlateState.constant(ctx.plate, 3.0)
    assert not check_apriori_bound(big, kappa0=2.0)["pass"]
    half = PlateState.constant(ctx.plate, 1.0)
    rep2 = check_apriori_bound(half, kappa0=2.0)
    assert rep2["pass"] and rep2["margin"] == pytest.approx(1.0)


def test_coincidence_empty_set_vacuous(ctx):
    rep = check_coincidence_interval(PlateState.zero(ctx.plate), H=1.0)
    assert rep.n_contact == 0 and rep.is_interval and rep.gaps == []


def test_coincidence_hat_interval(ctx):
    g = ctx.plate
    vals = np.maximum(-1.0, -2.0 + 4.0 * np.abs(g.nodes))
    u = PlateState.from_nodal(g, vals, np.zeros(g.n_nodes))
    rep = check_coincidence_interval(u, H=1.0)
    assert rep.n_contact > 2 and rep.is_interval


def test_coincidence_two_islands_detected(ctx):
    g = ctx.plate
    vals = np.zeros(g.n_nodes)
    vals[5] = -1.0
    vals[20] = -1.0
    u = PlateState.from_nodal(g, vals, np.zeros(g.n_nodes))
    rep = check_coincidence_interval(u, H=1.0)
    assert not rep.is_interval
    assert rep.gaps == [(5, 20)]


def test_coincidence_flags_nonconstant_potential(ctx):
    rep = check_coincidence_interval(
        PlateState.zero(ctx.plate), H=1.0, constant_potential=False
    )
    assert rep.assumption_violated


def test_run_suite_all_mandatory_pass(ctx, solved):
    rep = run_suite(solved, ctx)
    assert rep["mandatory_pass"]
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["feasibility"]["pass"]
    assert by_name["max_principle"]["pass"]
    assert by_name["force_floor"]["pass"]
    assert by_name["energy_identity"]["pass"]
    assert by_name["stationarity"]["pass"]


def test_run_suite_runs_only_checks_of_the_state(ctx, solved):
    # every check reads the state, its field solve or the device's own constants
    rep = run_suite(solved, ctx)
    assert [(c["name"], c["mandatory"]) for c in rep["checks"]] == [
        ("apriori_bound", True),
        ("coincidence_interval", True),
        ("comparison_bounds", True),
        ("energy_identity", True),
        ("feasibility", True),
        ("force_floor", True),
        ("max_principle", True),
        ("stationarity", False),
    ]


def test_run_suite_solves_the_state_once(ctx, solved, monkeypatch):
    calls = []
    solve = FieldSolver.solve
    monkeypatch.setattr(
        FieldSolver, "solve", lambda self, *a, **k: calls.append(a) or solve(self, *a, **k)
    )
    run_suite(solved, ctx)
    assert len(calls) == 1


def test_run_suite_maps_the_gap_once(ctx, solved, monkeypatch):
    # the energy identity's data energy reads the solve's gap map
    calls = []
    gap_map = FieldSolver.gap_map
    monkeypatch.setattr(
        FieldSolver, "gap_map", lambda self, u: calls.append(u) or gap_map(self, u)
    )
    run_suite(solved, ctx)
    assert len(calls) == 1


def test_run_suite_checks_this_devices_comparison_problems(monkeypatch):
    # every comparison solve of the mandatory check is at the device's own tension and G0
    import memsplate.verify

    tctx = make_context(PhysicalParams(V=2.0, tau=0.5), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    calls = []
    solve = memsplate.verify.solve_comparison_bvp

    def recording(a, b, G0, beta, tau, L, H, **kw):
        calls.append((tau, G0))
        return solve(a, b, G0, beta, tau, L, H, **kw)

    monkeypatch.setattr(memsplate.verify, "solve_comparison_bvp", recording)
    rep = run_suite(PlateState.zero(tctx.plate), tctx)
    assert calls and all(c == (tctx.p.tau, tctx.constants.G0) for c in calls)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["comparison_bounds"]["pass"]


def test_run_suite_detects_infeasible_state(ctx):
    u = PlateState.zero(ctx.plate)
    u.dofs[16] = -1.5  # one value below the layer
    rep = run_suite(u, ctx)
    assert not rep["mandatory_pass"]
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["feasibility"]["pass"]
