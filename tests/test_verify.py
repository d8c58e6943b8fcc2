from types import SimpleNamespace

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


def _comparison_calls(monkeypatch, u, ctx):
    """The (a, b, tau, G0) of every comparison solve of run_suite, and its report."""
    import memsplate.verify

    calls = []
    solve = memsplate.verify.solve_comparison_bvp

    def recording(a, b, G0, beta, tau, L, H, **kw):
        calls.append((a, b, tau, G0))
        return solve(a, b, G0, beta, tau, L, H, **kw)

    monkeypatch.setattr(memsplate.verify, "solve_comparison_bvp", recording)
    rep = run_suite(u, ctx)
    return calls, {c["name"]: c for c in rep["checks"]}["comparison_bounds"]


def test_run_suite_checks_this_devices_comparison_problems(monkeypatch):
    # a contact-free state is one free interval, solved at the device's own tension and G0
    tctx = make_context(PhysicalParams(V=2.0, tau=0.5), n_elems=16, field_grid=FieldGrid(16, 8, 8))
    calls, rec = _comparison_calls(monkeypatch, PlateState.zero(tctx.plate), tctx)
    assert calls == [(-1.0, 1.0, tctx.p.tau, tctx.constants.G0)]
    assert rec["cases"] == ["full"] and rec["kappa0"] == tctx.constants.kappa0
    assert rec["pass"] and rec["worst_ratio"] == rec["max_abs"][0] / rec["kappa0"]


def test_comparison_bounds_solves_each_free_interval(ctx, monkeypatch):
    g = ctx.plate
    x = g.nodes
    # one contact interval: the free intervals run from each clamped end to it
    vals = np.maximum(-1.0, -2.0 + 4.0 * np.abs(x))
    hat = PlateState.from_nodal(g, vals, np.zeros(g.n_nodes))
    contact = np.nonzero(vals <= -1.0)[0]
    calls, rec = _comparison_calls(monkeypatch, hat, ctx)
    assert [c[:2] for c in calls] == [(x[0], x[contact[0]]), (x[contact[-1]], x[-1])]
    assert rec["cases"] == ["touches_left", "touches_right"] and rec["pass"]
    # two contact islands: an interior free interval between them
    vals = np.zeros(g.n_nodes)
    vals[[5, 20]] = -1.0
    islands = PlateState.from_nodal(g, vals, np.zeros(g.n_nodes))
    calls, rec = _comparison_calls(monkeypatch, islands, ctx)
    assert [c[:2] for c in calls] == [(x[0], x[5]), (x[5], x[20]), (x[20], x[-1])]
    assert rec["cases"] == ["touches_left", "interior", "touches_right"] and rec["pass"]
    assert rec["intervals"] == [list(c[:2]) for c in calls]


def test_comparison_bounds_fails_above_kappa0(ctx, monkeypatch):
    import memsplate.verify

    big = SimpleNamespace(a=-1.0, b=1.0, case_tag="full", max_abs=2.0 * ctx.constants.kappa0)
    monkeypatch.setattr(memsplate.verify, "solve_comparison_bvp", lambda *a, **k: big)
    rep = run_suite(PlateState.zero(ctx.plate), ctx)
    rec = {c["name"]: c for c in rep["checks"]}["comparison_bounds"]
    assert not rec["pass"] and rec["worst_ratio"] == 2.0 and not rep["mandatory_pass"]


def test_verify_draws_no_random_numbers():
    import inspect

    import memsplate.verify

    assert "random" not in inspect.getsource(memsplate.verify)


def test_run_suite_detects_infeasible_state(ctx):
    u = PlateState.zero(ctx.plate)
    u.dofs[16] = -1.5  # one value below the layer
    rep = run_suite(u, ctx)
    assert not rep["mandatory_pass"]
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["feasibility"]["pass"]


def test_run_suite_rejects_a_state_off_its_clamped_ends(ctx, solved):
    # u(+-L) = u'(+-L) = 0 belong to the admissible set, and solver states hold them exactly
    by_name = {c["name"]: c for c in run_suite(solved, ctx)["checks"]}
    assert by_name["feasibility"]["clamped_violation"] == 0.0
    lifted = PlateState.constant(ctx.plate, 0.3)
    tilted = PlateState.zero(ctx.plate)
    tilted.dofs[-1] = 0.1  # u'(L) only
    for u, violation in ((lifted, 0.3), (tilted, 0.1)):
        rep = run_suite(u, ctx)
        assert not rep["mandatory_pass"]
        by_name = {c["name"]: c for c in rep["checks"]}
        assert not by_name["feasibility"]["pass"]
        assert by_name["feasibility"]["clamped_violation"] == violation
        assert by_name["feasibility"]["nodal_violation"] == 0.0
