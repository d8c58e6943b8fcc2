import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from memsplate.errors import LinearSolveFailed
from memsplate.fields import _NXI, _NZE, _W, _nine_point_pattern


def node_numbers(solver):
    """Row-major numbers of the (n_z1+n_z2+1) x (n_x+1) node grid that layer and gap share."""
    g = solver.grid
    return np.arange((g.n_z1 + g.n_z2 + 1) * (g.n_x + 1)).reshape(g.n_z1 + g.n_z2 + 1, g.n_x + 1)


def all_node_stencil(solver, gm):
    """The solver's nine-point stencil on every node: its layer rows, then the interface and gap rows of one state."""
    return np.concatenate([solver._layer_stencil[:-1], solver._gap_stencil(gm)])


def all_node_operator(solver, gm):
    """The transmission operator on every node, built from the solver's nine-point stencil."""
    stencil = all_node_stencil(solver, gm)
    keep, indices, indptr = _nine_point_pattern(*stencil.shape[:2])
    n = indptr.size - 1
    return sp.csr_matrix((stencil[keep], indices, indptr), shape=(n, n))


def free_block(solver, gm):
    """The whole free system as the solver sets it up: CSR block of its stencil rows, right-hand side, pinned grid."""
    _, rhs, nodes = solver._free_system(gm)
    inner = all_node_stencil(solver, gm)[1:-1, 1:-1]
    keep, indices, indptr = _nine_point_pattern(*inner.shape[:2])
    n = indptr.size - 1
    return sp.csr_matrix((inner[keep], indices, indptr), shape=(n, n)), rhs, nodes


def condensed_block(solver, gm):
    """The solver's interface-plus-gap block with the layer eliminated, and its right-hand side."""
    gap, rhs, _ = solver._free_system(gm)
    return solver._condensed_system(gap, rhs, memsplate.fields._condensed_layer(solver._layer_rows))


def schur_reference(Aff, rhs, n_layer):
    """Dense elimination of the first n_layer free unknowns: the condensed block and right-hand side."""
    A = Aff.toarray()
    L, R = slice(None, n_layer), slice(n_layer, None)
    Z = np.linalg.solve(A[L, L], np.column_stack([A[L, R], rhs[L]]))
    return A[R, R] - A[R, L] @ Z[:, :-1], rhs[R] - A[R, L] @ Z[:, -1]


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
    gm = solver.gap_map(u)
    A = all_node_operator(solver, gm)
    assert (A - A.T).nnz == 0
    Aff = free_block(solver, gm)[0]
    assert (Aff - Aff.T).nnz == 0
    S = condensed_block(solver, gm)[0]
    assert (S - S.T).nnz == 0


def test_energy_equals_matrix_quadratic_form(setup):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, 0.0)
    pf = solver.solve(u)
    gm = solver.gap_map(u)
    A = all_node_operator(solver, gm)
    # the gap grid's first row is the layer's last
    full = np.concatenate([pf.psi1.ravel(), pf.psi2[1:].ravel()])
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
        assert -Ee <= solver.boundary_data_energy(pf.gap) * (1.0 + 1e-10)


def test_linear_solve_failure_raises(setup, monkeypatch):
    # a factorization whose solve returns a wrong vector must trip the residual
    # check, both when it is the first solve and when it is the fallback after
    # CG on a held factor missed tol_lin.  A deflected state: the flat one is
    # solved by the sine transform and never reaches splu
    p, fam, grid, solver = setup
    u = interpolate(grid, lambda x: -0.3 * np.cos(np.pi * x / 2) ** 2,
                    lambda x: 0.3 * np.pi / 2 * np.sin(np.pi * x))
    # the layer is factored on its first solve; solving once first keeps that
    # factorization out of the count below, whatever ran before
    solver.solve(u)

    class WrongLU:
        def solve(self, rhs):
            return np.zeros_like(rhs)

    class IdentityLU:  # unpreconditioned CG: far from tol_lin within the cap
        def solve(self, rhs):
            return rhs.copy()

    factored = []

    def splu(*a, **k):
        factored.append(1)
        return WrongLU()

    monkeypatch.setattr(memsplate.fields, "spla", SimpleNamespace(splu=splu))
    with pytest.raises(LinearSolveFailed):
        solver.solve(u)
    assert len(factored) == 1
    with pytest.raises(LinearSolveFailed):
        solver.solve(u, factor=IdentityLU())
    assert len(factored) == 2


def test_solver_keeps_no_per_state_data(setup):
    p, fam, grid, solver = setup
    before = dict(vars(solver))
    u = interpolate(grid, lambda x: -0.3 * np.cos(np.pi * x / 2) ** 2,
                    lambda x: 0.3 * np.pi / 2 * np.sin(np.pi * x))
    pf = solver.solve(u)
    solver.electrostatic_energy(pf)
    solver.shape_gradient_load(pf, u)
    solver.boundary_data_energy(pf.gap)
    u2 = PlateState(grid, 1.02 * u.dofs)
    assert solver.solve(u2, factor=pf.factor).factor is pf.factor
    after = vars(solver)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_full_contact_layer_profile(setup):
    # a flat plate on the layer sees the gap floored at eps: the flat two-layer
    # profile at height eps - H
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, -p.H)
    pf = solver.solve(u)
    assert np.all(pf.contact_mask)
    c = pf.gap.eps_contact - p.H
    e1, e2 = flat_exact_arrays(solver, fam, c, p.H)
    assert np.max(np.abs(pf.psi1 - e1)) <= 1e-9
    assert np.max(np.abs(pf.psi2 - e2)) <= 1e-9
    den = p.sigma2 * p.d + p.sigma1 * (c + p.H)
    assert np.allclose(pf.bottom_trace_dz1, p.V * p.sigma2 / den, rtol=1e-9)


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


def coo_reference_operator(solver, gm):
    """The operator assembled element by element as COO triplets (duplicates summed)."""
    p, hx, hz, he = solver.p, solver.hx, solver.hz1, solver.heta
    nz1, nz2 = solver.grid.n_z1, solver.grid.n_z2
    kxx_q = np.einsum("aq,bq->abq", _NXI, _NXI)
    kzz_q = np.einsum("aq,bq->abq", _NZE, _NZE)
    kxz_q = np.einsum("aq,bq->abq", _NXI, _NZE) + np.einsum("aq,bq->abq", _NZE, _NXI)
    layer = np.einsum("qe,abq,q->eab", solver._sigma1_q.reshape(4, -1), kxx_q / hx**2 + kzz_q / hz**2, _W) * (hx * hz)
    g = np.broadcast_to(gm.gamma_q[None, :, None, :], (nz2, solver.grid.n_x, 2, 2)).reshape(-1, 4)
    b = (-solver._etaq[:, None, :, None] * gm.dgamma_q[None, :, None, :]).reshape(-1, 4)
    gap = (np.einsum("eq,abq,q->eab", g, kxx_q / hx**2, _W)
           + np.einsum("eq,abq,q->eab", b, kxz_q / (hx * he), _W)
           + np.einsum("eq,abq,q->eab", (1.0 + b**2) / g, kzz_q / he**2, _W)) * (hx * he * p.sigma2)
    idx = node_numbers(solver)

    def elem_nodes(ids):  # basis-ordered corners of every element
        return np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]], axis=-1).reshape(-1, 4)

    nodes = np.concatenate([elem_nodes(idx[:nz1 + 1]), elem_nodes(idx[nz1:])])
    vals = [layer, gap]
    rows = np.repeat(nodes, 4, axis=1).ravel()
    cols = np.tile(nodes, (1, 4)).ravel()
    return sp.coo_matrix((np.concatenate(vals).ravel(), (rows, cols)), shape=(idx.size, idx.size)).tocsr()


def layer_device(varying_layer):
    """A solver with a constant or a varying layer, and a flat, a deflected and a contact state."""
    if varying_layer:
        p = PhysicalParams(V=2.0, sigma1=lambda x, z: 1.0 + 0.3 * np.cos(x) + 0.2 * z)
        fgrid = FieldGrid(32, 12, 8)
    else:
        p = PhysicalParams(V=2.0)
        fgrid = FieldGrid(16, 8, 8)
    # the boundary family feeds only the Dirichlet data, not the operator
    solver = FieldSolver(p, build_canonical_boundary_data(PhysicalParams(V=2.0)), fgrid)
    grid = PlateGrid(16, p.L)
    states = {
        "flat": PlateState.constant(grid, 0.0),
        "deflected": interpolate(grid, lambda x: 0.3 * np.sin(np.pi * x) * (1 - x**2),
                                 lambda x: 0.3 * (np.pi * np.cos(np.pi * x) * (1 - x**2)
                                                  - 2 * x * np.sin(np.pi * x))),
        "contact": interpolate(grid, lambda x: -p.H * np.cos(np.pi * x / 2) ** 4,
                               lambda x: 2 * p.H * np.pi * np.cos(np.pi * x / 2) ** 3
                               * np.sin(np.pi * x / 2)),
    }
    return p, fgrid, solver, states


@pytest.mark.parametrize("varying_layer", [False, True])
def test_fixed_pattern_operator_matches_coo_assembly(varying_layer):
    p, fgrid, solver, states = layer_device(varying_layer)
    # the free nodes are the interior of the node grid, numbered row-major
    interior = node_numbers(solver)[1:-1, 1:-1].ravel()
    nnz, nnz_free, nnz_condensed = set(), set(), set()
    for name, u in states.items():
        gm = solver.gap_map(u)
        assert (name == "contact") == bool(gm.contact.any())
        A = all_node_operator(solver, gm)
        ref = coo_reference_operator(solver, gm)
        assert abs(A - ref).max() <= 1e-13 * abs(ref).max(), name
        Aff, rhs, _ = free_block(solver, gm)
        assert abs(Aff - ref[interior][:, interior]).max() <= 1e-13 * abs(ref).max(), name
        # the condensed block is the layer's Schur complement in the free block
        S, rhs_c = condensed_block(solver, gm)
        S_ref, rhs_ref = schur_reference(ref[interior][:, interior], rhs, (fgrid.n_z1 - 1) * (fgrid.n_x - 1))
        assert np.max(np.abs(S.toarray() - S_ref)) <= 1e-13 * abs(ref).max(), name
        assert np.max(np.abs(rhs_c - rhs_ref)) <= 1e-13 * np.max(np.abs(rhs)), name
        nnz.add(A.nnz)
        nnz_free.add(Aff.nnz)
        nnz_condensed.add(S.nnz)
    # one pattern for every state
    nr, nc = fgrid.n_z1 + fgrid.n_z2 + 1, fgrid.n_x + 1
    assert nnz == {(3 * nr - 2) * (3 * nc - 2)}
    assert nnz_free == {(3 * nr - 8) * (3 * nc - 8)}
    # the gap interior and the interface row: nine-point, with a dense interface block
    assert nnz_condensed == {(3 * fgrid.n_z2 - 2) * (3 * nc - 8) + (nc - 2) ** 2 - (3 * nc - 8)}


def test_held_factor_solve_matches_direct(setup):
    p, fam, grid, solver = setup
    f = lambda a: interpolate(grid, lambda x: -a * np.cos(np.pi * x / 2) ** 2,
                              lambda x: a * np.pi / 2 * np.sin(np.pi * x))
    u0, u = f(0.30), f(0.33)
    held = solver.solve(u0).factor
    pf = solver.solve(u, factor=held)
    ref = solver.solve(u)
    assert pf.factor is held and ref.factor is not held

    # the free system from the all-node operator and the pinned ring values
    gm = solver.gap_map(u)
    A = all_node_operator(solver, gm)
    pinned = solver._dirichlet(gm).ravel()  # zero at the free nodes
    free = node_numbers(solver)[1:-1, 1:-1].ravel()
    rhs = -(A @ pinned)[free]
    Aff = A[free][:, free]
    Aff_solver, rhs_solver, _ = free_block(solver, gm)
    assert np.array_equal(rhs_solver, rhs)
    assert abs(Aff_solver - Aff).max() == 0.0
    assert 0.0 < pf.residual <= solver.tol_lin * np.linalg.norm(rhs)
    # error e = Aff^-1 r: |e| <= |r| / lambda_min, and the energy moves by e'Aff e / 2
    lam_min = np.linalg.eigvalsh(Aff.toarray())[0]
    err = pf.residual / lam_min
    assert np.max(np.abs(pf.psi1 - ref.psi1)) <= err + 1e-13
    assert np.max(np.abs(pf.psi2 - ref.psi2)) <= err + 1e-13
    E, E_ref = solver.electrostatic_energy(pf), solver.electrostatic_energy(ref)
    assert abs(E - E_ref) <= 0.5 * pf.residual * err + 1e-13 * abs(E_ref)


def test_held_factor_is_never_probed_with_a_zero_vector(setup):
    # CG calls the preconditioner only on residuals, never on a zero vector,
    # which would be a wasted triangular solve
    p, fam, grid, solver = setup
    f = lambda a: interpolate(grid, lambda x: -a * np.cos(np.pi * x / 2) ** 2,
                              lambda x: a * np.pi / 2 * np.sin(np.pi * x))
    lu = solver.solve(f(0.30)).factor
    seen = []

    class CountingLU:
        def solve(self, rhs):
            seen.append(bool(np.any(rhs)))
            return lu.solve(rhs)

    held = CountingLU()
    assert solver.solve(f(0.33), factor=held).factor is held
    assert seen and all(seen)


def test_pcg_takes_the_steps_of_scipy_cg(setup):
    # the in-module CG is scipy's algorithm: from x = 0, ||r|| < atol tested
    # before each step, and a cap on the steps that counts as a miss
    p, fam, grid, solver = setup
    f = lambda a: interpolate(grid, lambda x: -a * np.cos(np.pi * x / 2) ** 2,
                              lambda x: a * np.pi / 2 * np.sin(np.pi * x))
    held = solver.solve(f(0.30)).factor
    S, b = condensed_block(solver, solver.gap_map(f(0.33)))
    atol, cap = solver.tol_lin * np.linalg.norm(b), memsplate.fields._PCG_MAXIT

    class IdentityLU:
        def solve(self, rhs):
            return rhs.copy()

    for pre, converges in ((held, True), (IdentityLU(), False)):
        steps = []
        x_ref, info = spla.cg(S, b, rtol=0.0, atol=atol, maxiter=cap, callback=steps.append,
                              M=spla.LinearOperator(S.shape, matvec=pre.solve, dtype=float))
        x, iterations, converged = memsplate.fields._pcg(S, b, pre, atol, cap)
        assert (converged, info == 0) == (converges, converges)
        assert iterations == len(steps) and (iterations < cap) == converges
        assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("value", [-2.0, np.nan], ids=["negative", "nan"])
def test_field_solver_refuses_sigma1_bad_at_a_gauss_point(value):
    # sigma1 is 1 except in a strip 2e-4 thick around the first Gauss level of a
    # 16 x 8 x 8 field: a 64 x 64 sample of the layer misses it, but the layer
    # stiffness is built from sigma1 at exactly that level, where it is not > 0
    p0 = PhysicalParams(V=2.0)
    z_g = -p0.H - p0.d + (0.5 - 0.5 / np.sqrt(3.0)) * p0.d / 8

    def strip(x, z):
        return np.where(np.abs(z - z_g) < 1e-4, value, 1.0) + 0.0 * x

    p = PhysicalParams(V=2.0, sigma1=strip)  # accepted: a callable is checked where it is used
    with pytest.raises(ValueError, match="sigma1"):
        FieldSolver(p, build_canonical_boundary_data(p0), FieldGrid(16, 8, 8))


def z_varying_layer(x, z):
    return 1.0 + 0.2 * z + 0.0 * x


@pytest.mark.parametrize("fgrid", [FieldGrid(128, 64, 64), FieldGrid(32, 16, 16)], ids=["default", "reduced"])
@pytest.mark.parametrize("sigma1", [1.0, z_varying_layer], ids=["constant", "z-varying"])
def test_flat_state_is_solved_by_the_sine_transform(fgrid, sigma1):
    # a flat gap over a layer that does not vary in x: the condensed block is
    # the same in every column, and the sine transform solves it exactly
    p = PhysicalParams(V=2.0, sigma1=sigma1)
    solver = FieldSolver(p, build_canonical_boundary_data(PhysicalParams(V=2.0)), fgrid)
    u = PlateState.zero(PlateGrid(fgrid.n_x, p.L))
    pf = solver.solve(u)
    assert isinstance(pf.factor, memsplate.fields._SineSolver)
    S, rhs_c = condensed_block(solver, solver.gap_map(u))
    x_ref = spla.spsolve(S.tocsc(), rhs_c)
    assert np.max(np.abs(pf.psi2[:-1, 1:-1].ravel() - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))


def test_other_states_and_layers_are_factored_by_superlu(monkeypatch):
    # a layer varying in x, a deflected plate and a plate with nodal values 0
    # but nonzero slopes each make the block differ between columns.  A layer
    # varying in x only below its top element row leaves the block's stencil
    # x-invariant, but not the layer correction
    real, factored = memsplate.fields.spla, []

    class CountingLinalg:
        def splu(self, A, *args, **kwargs):
            factored.append(A.shape[0])
            return real.splu(A, *args, **kwargs)

    monkeypatch.setattr(memsplate.fields, "spla", CountingLinalg())
    grid = PlateGrid(16, 1.0)
    sloped = PlateState.from_nodal(grid, np.zeros(17), np.r_[0.0, np.full(15, 0.1), 0.0])
    deflected = interpolate(grid, lambda x: -0.3 * np.cos(np.pi * x / 2) ** 2,
                            lambda x: 0.3 * np.pi / 2 * np.sin(np.pi * x))
    flat = PlateState.zero(grid)
    cases = [(1.0, deflected), (1.0, sloped),
             (lambda x, z: 1.0 + 0.3 * np.cos(x) + 0.0 * z, flat),
             (lambda x, z: 1.0 + 0.3 * np.cos(x) * (z < -1.5), flat)]
    for sigma1, u in cases:
        p = PhysicalParams(V=2.0, sigma1=sigma1)
        solver = FieldSolver(p, build_canonical_boundary_data(PhysicalParams(V=2.0)), FieldGrid(16, 8, 8))
        solver.solve(flat)  # condense the layer first
        factored.clear()
        pf = solver.solve(u)
        assert factored == [8 * 15] and not isinstance(pf.factor, memsplate.fields._SineSolver)


def test_a_layer_varying_in_x_is_factored_by_superlu(monkeypatch):
    # a cold solve condenses the layer: by SuperLU when sigma1 varies in x,
    # by the sine transform, without SuperLU, when it does not
    real, factored = memsplate.fields.spla, []

    class CountingLinalg:
        def splu(self, A, *args, **kwargs):
            factored.append(A.shape[0])
            return real.splu(A, *args, **kwargs)

    monkeypatch.setattr(memsplate.fields, "spla", CountingLinalg())
    flat = PlateState.zero(PlateGrid(16, 1.0))
    for sigma1, superlu in ((lambda x, z: 1.0 + 0.3 * np.cos(x) + 0.0 * z, True), (z_varying_layer, False)):
        monkeypatch.setattr(memsplate.fields, "_LAYER", None)
        factored.clear()
        p = PhysicalParams(V=2.0, sigma1=sigma1)
        FieldSolver(p, build_canonical_boundary_data(PhysicalParams(V=2.0)), FieldGrid(16, 8, 8)).solve(flat)
        assert (7 * 15 in factored) == superlu
        assert isinstance(memsplate.fields._LAYER.lu, memsplate.fields._SineSolver) != superlu


def test_a_wrong_sine_solve_raises(setup, monkeypatch):
    p, fam, grid, solver = setup
    monkeypatch.setattr(memsplate.fields._SineSolver, "solve", lambda self, b: np.zeros_like(b))
    with pytest.raises(LinearSolveFailed):
        solver.solve(PlateState.zero(grid))


def test_trials_held_on_the_flat_solver_match_direct_solves(setup):
    p, fam, grid, solver = setup
    held = solver.solve(PlateState.zero(grid)).factor
    assert isinstance(held, memsplate.fields._SineSolver)
    free = node_numbers(solver)[1:-1, 1:-1].ravel()
    for a in (0.05, 0.1, 0.15):
        u = interpolate(grid, lambda x: -a * np.cos(np.pi * x / 2) ** 2,
                        lambda x: a * np.pi / 2 * np.sin(np.pi * x))
        pf, ref = solver.solve(u, factor=held), solver.solve(u)
        assert pf.factor is held and pf.cg_iterations >= 1, a
        Aff, rhs, _ = free_block(solver, solver.gap_map(u))
        assert pf.residual <= solver.tol_lin * np.linalg.norm(rhs), a
        # error e = Aff^-1 r: |e| <= |r| / lambda_min
        err = pf.residual / np.linalg.eigvalsh(Aff.toarray())[0]
        x, x_ref = (np.concatenate([f.psi1, f.psi2[1:]]).ravel()[free] for f in (pf, ref))
        assert np.max(np.abs(x - x_ref)) <= err + 1e-13, a


def _thread_ticks():
    """CPU clock ticks (user + system) so far of this process's main thread and of its other threads."""
    main = others = 0
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/stat") as fh:
            stat = fh.read().rsplit(")", 1)[1].split()  # fields from the state on; utime, stime at 11, 12
        ticks = int(stat[11]) + int(stat[12])
        if int(task) == os.getpid():
            main += ticks
        else:
            others += ticks
    return main, others


def _assert_held_solves_keep_other_threads_idle(held_at, amplitudes):
    # a BLAS reduction over a long vector wakes numpy's BLAS thread pool, whose
    # workers then spin: CG and the residual norms must sum with numpy's own
    # loops, so the other threads gain no CPU time over a run of held-factor solves
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count thread CPU time in")
    if len(os.listdir("/proc/self/task")) < 2:
        pytest.skip("the process has no thread besides the main one")
    p = PhysicalParams(V=2.0)
    grid = PlateGrid(16, p.L)
    # 127 x 80 condensed unknowns: long enough vectors for BLAS to thread
    solver = FieldSolver(p, build_canonical_boundary_data(p), FieldGrid(128, 16, 80))
    f = lambda a: interpolate(grid, lambda x: -a * np.cos(np.pi * x / 2) ** 2,
                              lambda x: a * np.pi / 2 * np.sin(np.pi * x))
    held = solver.solve(f(held_at)).factor
    time.sleep(0.5)  # let workers woken before this test settle
    main0, others0 = _thread_ticks()
    for a in amplitudes:
        assert solver.solve(f(a), factor=held).factor is held
    main1, others1 = _thread_ticks()
    assert others1 - others0 <= max(2, 0.1 * (main1 - main0)), (main1 - main0, others1 - others0)
    return held


def test_held_factor_solves_keep_other_threads_idle():
    _assert_held_solves_keep_other_threads_idle(0.30, np.linspace(0.30, 0.40, 15))


def test_held_sine_solves_keep_other_threads_idle():
    # the flat state's solver: numpy's FFT and LAPACK's tridiagonal sweeps do not wake the BLAS pool either
    held = _assert_held_solves_keep_other_threads_idle(0.0, np.linspace(0.0, 0.10, 15))
    assert isinstance(held, memsplate.fields._SineSolver)


@pytest.mark.parametrize("varying_layer", [False, True])
def test_condensed_solve_matches_the_whole_free_block(varying_layer):
    # eliminating the layer changes how the free system is solved, not its
    # solution: a direct solve matches the whole free block's, and the
    # reported residual is that block's on both paths
    p, fgrid, solver, states = layer_device(varying_layer)
    free = node_numbers(solver)[1:-1, 1:-1].ravel()
    for name, u in states.items():
        held = solver.solve(PlateState(u.grid, 0.995 * u.dofs)).factor
        gm = solver.gap_map(u)
        A = all_node_operator(solver, gm)
        Aff = A[free][:, free]
        rhs = -(A @ solver._dirichlet(gm).ravel())[free]
        x_ref = spla.spsolve(Aff.tocsc(), rhs)
        direct, iterated = solver.solve(u), solver.solve(u, factor=held)
        assert direct.cg_iterations == 0 and iterated.cg_iterations >= 1, name
        assert iterated.factor is held, name
        for pf in (direct, iterated):
            x = np.concatenate([pf.psi1, pf.psi2[1:]]).ravel()[free]
            rounding = 1e-14 * np.linalg.norm(abs(Aff) @ abs(x) + abs(rhs))
            assert abs(pf.residual - np.linalg.norm(Aff @ x - rhs)) <= rounding, name
        x = np.concatenate([direct.psi1, direct.psi2[1:]]).ravel()[free]
        assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref)), name
        assert direct.residual <= 1e-13 * np.linalg.norm(rhs), name


def test_layer_is_condensed_once_per_layer(monkeypatch):
    # the condensation depends on the layer's stencil alone: solvers at another
    # voltage or gap permittivity share it, a thicker or finer layer does not,
    # and only the most recent one is kept
    monkeypatch.setattr(memsplate.fields, "_LAYER", None)
    u = PlateState.zero(PlateGrid(16, 1.0))

    def layer_of(p, fgrid):
        FieldSolver(p, build_canonical_boundary_data(p), fgrid).solve(u)
        return memsplate.fields._LAYER

    base = layer_of(PhysicalParams(V=2.0), FieldGrid(16, 8, 8))
    assert base is not None
    assert layer_of(PhysicalParams(V=5.0), FieldGrid(16, 8, 8)) is base
    assert layer_of(PhysicalParams(V=2.0, sigma2=3.0), FieldGrid(16, 8, 8)) is base
    assert layer_of(PhysicalParams(V=2.0), FieldGrid(16, 8, 12)) is base
    thicker = layer_of(PhysicalParams(V=2.0, d=2.0), FieldGrid(16, 8, 8))
    finer = layer_of(PhysicalParams(V=2.0), FieldGrid(16, 12, 8))
    assert thicker is not base and finer is not base and finer is not thicker
    again = layer_of(PhysicalParams(V=2.0), FieldGrid(16, 8, 8))
    assert again is not base and np.array_equal(again.correction, base.correction)
    # building a solver condenses nothing; its first solve does
    thickest = PhysicalParams(V=2.0, d=3.0)
    FieldSolver(thickest, build_canonical_boundary_data(thickest), FieldGrid(16, 8, 8))
    assert memsplate.fields._LAYER is again


@pytest.mark.parametrize("fgrid", [FieldGrid(32, 16, 16), FieldGrid(27, 10, 8)], ids=["reduced", "odd"])
@pytest.mark.parametrize("sigma1", [1.0, z_varying_layer], ids=["constant", "z-varying"])
def test_sine_layer_matches_the_superlu_layer(fgrid, sigma1, monkeypatch, rng):
    # an x-invariant layer is condensed by the sine transform; the SuperLU
    # condensation of the same rows is the reference
    p = PhysicalParams(V=2.0, sigma1=sigma1)
    rows = FieldSolver(p, build_canonical_boundary_data(PhysicalParams(V=2.0)), fgrid)._layer_rows
    sine = memsplate.fields._Layer.build(rows)
    assert isinstance(sine.lu, memsplate.fields._SineSolver)
    monkeypatch.setattr(memsplate.fields, "_x_invariant", lambda stencil: False)
    ref = memsplate.fields._Layer.build(rows)
    assert ref.sine is None and not isinstance(ref.lu, memsplate.fields._SineSolver)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    dst = memsplate.fields._dst
    assert close(sine.correction, ref.correction)
    assert np.array_equal(sine.correction, sine.correction.T)
    assert close(sine.sine, np.diagonal(dst(dst(ref.correction).T)))
    assert close(sine.edge_map, ref.edge_map)
    nl, nj = rows.shape[:2]
    b, x = rng.standard_normal(nl * nj), rng.standard_normal(nj)
    assert close(sine.recover(b, x), ref.recover(b, x))
    # a solve's b_L is nonzero only next to the pinned ring
    b_edge = np.zeros((nl, nj))
    b_edge[0] = rng.standard_normal(nj)
    b_edge[:, 0], b_edge[:, -1] = rng.standard_normal(nl), rng.standard_normal(nl)
    assert close(sine.load(b_edge.ravel()), ref.load(b_edge.ravel()))


@pytest.mark.parametrize("state", ["contact-free", "contact"])
def test_shape_gradient_matches_central_difference(setup, rng, state):
    # The directional derivative of E_e(u) = electrostatic_energy(solve(u)) along
    # random clamped directions w against <shape_gradient_load, w>.  At eps = 1e-6
    # the two energies cancel to about eps_mach |E| / eps ~ 2e-10 |E| and the
    # O(eps^2) truncation is far below that; the gaps measured on these states
    # were at most 1.1e-10 |E| (4e-12 to 1.2e-8 relative to the derivative), so
    # the bound is 1e-9 |E|, and every derivative tested exceeds it 1e6-fold.
    p, _, grid, solver = setup
    if state == "contact":
        u = interpolate(grid, lambda x: -p.H * np.cos(np.pi * x / 2) ** 2,
                        lambda x: p.H * np.pi / 2 * np.sin(np.pi * x))
    else:
        u = interpolate(grid, lambda x: 0.3 * np.sin(np.pi * x) * (1 - x**2),
                        lambda x: 0.3 * (np.pi * np.cos(np.pi * x) * (1 - x**2)
                                         - 2 * x * np.sin(np.pi * x)))
    pf = solver.solve(u)
    assert pf.contact_mask.any() == (state == "contact")
    E0 = solver.electrostatic_energy(pf)
    grad = solver.shape_gradient_load(pf, u)
    eps, tol = 1e-6, 1e-9 * abs(E0)
    for _ in range(4):
        w = 0.1 * rng.standard_normal(grid.n_dofs)
        w[[0, 1, -2, -1]] = 0.0
        if state == "contact":
            # keep the contact set away from the perturbation, where E_e is smooth
            w[np.repeat(np.abs(grid.nodes) <= 0.3, 2)] = 0.0
        energies = []
        for s in (1.0, -1.0):
            pfs = solver.solve(PlateState(grid, u.dofs + s * eps * w))
            assert np.array_equal(pfs.contact_mask, pf.contact_mask)
            energies.append(solver.electrostatic_energy(pfs))
        fd = (energies[0] - energies[1]) / (2.0 * eps)
        directional = float(grad @ w)
        assert abs(directional) > 1e6 * tol
        assert abs(fd - directional) <= tol


def test_field_energy_is_lipschitz_through_the_contact_threshold():
    # A plate touching the layer at its middle node; that node's value moves from
    # -H to -H + 2 eps in 40 steps, through the contact threshold eps.  E_e must
    # change by no more than the step times the largest exact derivative along
    # the path (a mean-value bound; 1.25 covers the derivative between samples).
    # Dropping the gap column below eps made E_e jump there by about 100 times that.
    p = PhysicalParams(V=8.9)
    fam = build_canonical_boundary_data(p)
    grid = PlateGrid(32, p.L)
    solver = FieldSolver(p, fam, FieldGrid(32, 16, 16))
    u = interpolate(grid, lambda x: -p.H * np.cos(np.pi * x / 2) ** 4,
                    lambda x: 2 * p.H * np.pi * np.cos(np.pi * x / 2) ** 3 * np.sin(np.pi * x / 2))
    node = 16
    assert u.values[node] == -p.H
    eps = solver.gap_map(u).eps_contact
    steps = np.linspace(0.0, 2.0 * eps, 41)
    energies, slopes = [], []
    for t in steps:
        dofs = u.dofs.copy()
        dofs[2 * node] = -p.H + t
        v = PlateState(grid, dofs)
        pf = solver.solve(v)
        assert pf.contact_mask[node] == (t <= eps)
        energies.append(solver.electrostatic_energy(pf))
        slopes.append(solver.shape_gradient_load(pf, v)[2 * node])
    jumps = np.abs(np.diff(energies))
    lipschitz = np.max(np.abs(slopes))
    assert lipschitz > 0.0
    assert np.max(jumps) <= 1.25 * lipschitz * (steps[1] - steps[0])
    # The derivative is continuous there too: at 4 times finer sampling its
    # largest change between neighbours shrinks accordingly.  A kinked floor,
    # w = max(u, eps - H), made it jump by about 12 (out of 2.3 to 14) at any
    # sampling.
    fine = []
    for t in np.linspace(0.0, 2.0 * eps, 161):
        dofs = u.dofs.copy()
        dofs[2 * node] = -p.H + t
        v = PlateState(grid, dofs)
        fine.append(solver.shape_gradient_load(solver.solve(v), v)[2 * node])
    assert np.max(np.abs(np.diff(fine))) <= 0.4 * np.max(np.abs(np.diff(slopes)))


def test_floor_is_exact_above_its_band_and_c2_through_it():
    # w(u) is the plate height the field sees: u itself, bit for bit, above the
    # band; the floor below it; a C2 blend between.
    floor, band = -0.99, 0.01
    u = np.linspace(floor - 2.0 * band, floor + 2.0 * band, 801)
    w, dw, d2w = memsplate.fields._floored(u, floor, band)
    above, below = u >= floor + band, u <= floor - band
    assert np.array_equal(w[above], u[above]) and np.all(dw[above] == 1.0) and np.all(d2w[above] == 0.0)
    assert np.all(w[below] == floor) and np.all(dw[below] == 0.0) and np.all(d2w[below] == 0.0)
    assert np.all(w >= floor) and np.all(np.diff(w) > -1e-15)
    # value, slope and curvature meet the outer pieces at both edges of the band
    for inside_edge, outer in ((floor - band + 1e-12, (floor, 0.0, 0.0)),
                               (floor + band - 1e-12, (floor + band, 1.0, 0.0))):
        inner = [float(a[0]) for a in memsplate.fields._floored(np.array([inside_edge]), floor, band)]
        assert np.allclose(inner, outer, rtol=0.0, atol=1e-6)
    # the returned derivatives are those of w
    h = 1e-7
    inside = np.abs(u - floor) < band - 2.0 * h
    wp, dwp, _ = memsplate.fields._floored(u + h, floor, band)
    wm, dwm, _ = memsplate.fields._floored(u - h, floor, band)
    assert np.allclose(((wp - wm) / (2.0 * h))[inside], dw[inside], rtol=0.0, atol=1e-7)
    assert np.allclose(((dwp - dwm) / (2.0 * h))[inside], d2w[inside], rtol=0.0, atol=1e-5)
