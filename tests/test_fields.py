from types import SimpleNamespace

import numpy as np
import pytest

import memsplate.fields
from memsplate import (
    FieldGrid,
    FieldSolver,
    PhysicalParams,
    PlateGrid,
    PlateState,
    build_canonical_boundary_data,
    check_max_principle,
    interpolate,
)
from memsplate.errors import DegenerateGap, LinearSolveFailed


def flat_exact_arrays(solver, fam, c, H):
    psi1 = fam.h1(solver.x[None, :], solver.z1[:, None], c)
    z2 = -H + solver.eta[:, None] * (c + H)
    psi2 = fam.h2(solver.x[None, :], z2, c)
    return psi1, psi2


@pytest.fixture(scope="module")
def setup():
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)
    grid = PlateGrid(32, p.L)
    solver = FieldSolver(p, fam, FieldGrid(32, 16, 16))
    return p, fam, grid, solver


def test_zero_voltage_gives_zero_field():
    p = PhysicalParams(V=0.0)
    fam = build_canonical_boundary_data(p)
    solver = FieldSolver(p, fam, FieldGrid(16, 8, 8))
    u = PlateState.zero(PlateGrid(16, p.L))
    pf = solver.solve(u)
    assert np.all(pf.psi1 == 0.0) and np.all(pf.psi2 == 0.0)
    assert solver.electrostatic_energy(pf) == 0.0


@pytest.mark.parametrize("c", [-0.5, 0.0, 1.0])
def test_flat_plate_exactness(setup, c):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, c)
    pf = solver.solve(u)
    e1, e2 = flat_exact_arrays(solver, fam, c, p.H)
    assert np.max(np.abs(pf.psi1 - e1)) <= 1e-8
    assert np.max(np.abs(pf.psi2 - e2)) <= 1e-8
    # energy closed form
    den = p.sigma2 * p.d + p.sigma1 * (c + p.H)
    Ee_exact = -p.L * p.V**2 * p.sigma1 * p.sigma2 / den
    Ee = solver.electrostatic_energy(pf)
    assert Ee == pytest.approx(Ee_exact, rel=0.02)
    assert Ee <= 0.0
    # interface flux closed form (exact for the linear profile)
    flux_exact = p.V * p.sigma1 * p.sigma2 / den
    assert np.allclose(pf.interface_flux[1:-1], flux_exact, rtol=1e-9)


def test_flux_continuity_across_interface(setup):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, 0.2)
    pf = solver.solve(u)
    keep = ~pf.contact_mask
    jump = np.abs(pf.interface_flux[keep][1:-1] - pf.interface_flux_gap[keep][1:-1])
    assert np.max(jump) <= 1e-9  # exact linear profiles on both sides


def test_flux_jump_decreases_under_refinement():
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)
    f = lambda x: 0.15 * np.cos(np.pi * x / 2) ** 2
    df = lambda x: -0.15 * np.pi / 2 * np.sin(np.pi * x)
    jumps = []
    for n in (16, 32, 64):
        u = interpolate(PlateGrid(n, p.L), f, df)
        fs = FieldSolver(p, fam, FieldGrid(n, n // 2, n // 2))
        pf = fs.solve(u)
        j = np.abs(pf.interface_flux[1:-1] - pf.interface_flux_gap[1:-1])
        jumps.append(np.max(j))
    assert jumps[2] < jumps[1] < jumps[0]


def test_voltage_squared_scaling():
    fam_ref = build_canonical_boundary_data(PhysicalParams(V=1.0))
    grid = PlateGrid(16, 1.0)
    u = interpolate(grid, lambda x: 0.3 * (1 - x**2) ** 2, lambda x: -1.2 * x * (1 - x**2))
    energies = []
    for V in (1.0, 2.0, 3.0):
        p = PhysicalParams(V=V)
        fam = build_canonical_boundary_data(p)
        fs = FieldSolver(p, fam, FieldGrid(16, 8, 8))
        pf = fs.solve(u)
        energies.append(fs.electrostatic_energy(pf))
    assert energies[1] == pytest.approx(4.0 * energies[0], rel=1e-12)
    assert energies[2] == pytest.approx(9.0 * energies[0], rel=1e-12)
    # monotone in V
    assert -energies[0] < -energies[1] < -energies[2]


def test_max_principle_pass_and_detector(setup, rng):
    p, fam, grid, solver = setup
    u = interpolate(grid, lambda x: -0.4 * np.cos(np.pi * x / 2) ** 2,
                    lambda x: 0.4 * np.pi / 2 * np.sin(np.pi * x))
    pf = solver.solve(u)
    rep = check_max_principle(pf)
    assert rep["pass"]
    assert rep["boundary_inf"] == pytest.approx(0.0, abs=1e-14)
    assert rep["boundary_sup"] == pytest.approx(p.V, abs=1e-12)
    # corrupt one interior value: detector must fire
    pf.psi2[pf.psi2.shape[0] // 2, pf.psi2.shape[1] // 2] = 2.0 * p.V
    assert not check_max_principle(pf)["pass"]


def test_mesh_self_convergence_order():
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)
    f = lambda x: 0.1 * np.cos(np.pi * x / 2) ** 2
    df = lambda x: -0.1 * np.pi / 2 * np.sin(np.pi * x)
    sols = {}
    for n in (16, 32, 64, 128):
        u = interpolate(PlateGrid(n, p.L), f, df)
        fs = FieldSolver(p, fam, FieldGrid(n, n // 2, n // 2))
        sols[n] = fs.solve(u)
    errs = []
    for n in (16, 32, 64):
        c, fnr = sols[n], sols[2 * n]
        errs.append(max(
            np.max(np.abs(fnr.psi1[::2, ::2] - c.psi1)),
            np.max(np.abs(fnr.psi2[::2, ::2] - c.psi2)),
        ))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_assembled_operator_is_symmetric(setup):
    p, fam, grid, solver = setup
    u = interpolate(grid, lambda x: 0.3 * np.sin(np.pi * x) * (1 - x**2),
                    lambda x: 0.3 * (np.pi * np.cos(np.pi * x) * (1 - x**2) - 2 * x * np.sin(np.pi * x)))
    A = solver._operator(solver.gap_map(u))
    assert (A - A.T).nnz == 0


def test_energy_equals_matrix_quadratic_form(setup):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, 0.0)
    pf = solver.solve(u)
    gm = solver.gap_map(u)
    A = solver._operator(gm)
    full = np.empty(solver.n_nodes)
    full[solver.idx1] = pf.psi1
    full[solver.idx2] = pf.psi2
    quad = float(full @ (A @ full))
    form = solver.form_value(pf.psi1, pf.psi2, gm)
    assert quad == pytest.approx(form, rel=1e-8)


def test_variational_upper_bound(setup, rng):
    p, fam, grid, solver = setup
    for _ in range(5):
        dofs = rng.uniform(-0.6, 0.4, grid.n_dofs)
        dofs[0::2] = np.maximum(dofs[0::2], -p.H + 0.05)
        u = PlateState(grid, dofs)
        pf = solver.solve(u)
        Ee = solver.electrostatic_energy(pf)
        assert -Ee <= solver.boundary_data_energy(u) * (1.0 + 1e-10)


def test_linear_solve_failure_raises(setup, monkeypatch):
    # a factorization whose solve returns a wrong vector must trip the residual check
    p, fam, grid, solver = setup

    class WrongLU:
        def solve(self, rhs):
            return np.zeros_like(rhs)

    monkeypatch.setattr(memsplate.fields, "spla", SimpleNamespace(splu=lambda *a, **k: WrongLU()))
    with pytest.raises(LinearSolveFailed):
        solver.solve(PlateState.constant(grid, 0.0))


def test_solver_keeps_no_per_state_data(setup):
    p, fam, grid, solver = setup
    before = dict(vars(solver))
    u = interpolate(grid, lambda x: -0.3 * np.cos(np.pi * x / 2) ** 2,
                    lambda x: 0.3 * np.pi / 2 * np.sin(np.pi * x))
    pf = solver.solve(u)
    solver.electrostatic_energy(pf)
    solver.shape_gradient_load(pf, u)
    solver.boundary_data_energy(u)
    after = vars(solver)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_full_contact_layer_profile(setup):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, -p.H)
    pf = solver.solve(u)
    assert np.all(pf.contact_mask)
    exact = p.V * (pf.z1 + p.H + p.d) / p.d  # linear layer profile, top held at V
    assert np.max(np.abs(pf.psi1 - exact[:, None])) <= 1e-9
    assert np.allclose(pf.bottom_trace_dz1, p.V / p.d, rtol=1e-9)


def test_infeasible_state_rejected(setup):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, -p.H - 0.2)
    with pytest.raises(ValueError):
        solver.solve(u)


def test_grid_validation():
    with pytest.raises(ValueError):
        FieldGrid(3, 8, 8)
    p = PhysicalParams()
    fam = build_canonical_boundary_data(p)
    fs = FieldSolver(p, fam, FieldGrid(12, 8, 8))
    u = PlateState.zero(PlateGrid(8, p.L))  # 12 % 8 != 0
    with pytest.raises(ValueError):
        fs.solve(u)


def test_degenerate_gap_guard(setup):
    # a stale/corrupted gap map (non-contact column below half the threshold)
    # must be refused by the assembly
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, 0.0)
    gm = solver.gap_map(u)
    gm.gamma[5] = gm.eps_contact / 4.0
    with pytest.raises(DegenerateGap):
        solver._assemble_gap(gm)
