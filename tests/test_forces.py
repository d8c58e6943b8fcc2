import numpy as np
import pytest

from memsplate import (
    FieldGrid,
    FieldSolver,
    PhysicalParams,
    PlateGrid,
    PlateState,
    build_canonical_boundary_data,
    compute_force,
    directional_derivative_check,
    force_analytic_flat,
    interpolate,
    mechanical_energy,
)
from memsplate.errors import InfeasiblePerturbation, MissingTrace


@pytest.fixture(scope="module")
def setup():
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)
    grid = PlateGrid(32, p.L)
    solver = FieldSolver(p, fam, FieldGrid(32, 16, 16))
    return p, fam, grid, solver


def test_zero_voltage_zero_force():
    p = PhysicalParams(V=0.0)
    fam = build_canonical_boundary_data(p)
    grid = PlateGrid(16, p.L)
    solver = FieldSolver(p, fam, FieldGrid(16, 8, 8))
    u = PlateState.zero(grid)
    g = compute_force(u, solver.solve(u), p)
    assert np.all(g.values == 0.0)


@pytest.mark.parametrize("c", [-0.5, 0.0, 1.0])
def test_flat_plate_force_oracle(setup, c):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, c)
    g = compute_force(u, solver.solve(u), p)
    exact = force_analytic_flat(c, p)
    assert np.allclose(g.values[1:-1], exact, rtol=0.02)
    assert np.all(g.contact == False)  # noqa: E712


def test_force_analytic_flat_values():
    p = PhysicalParams(V=2.0)  # sigma1=sigma2=d=H=1
    assert force_analytic_flat(0.0, p) == pytest.approx(0.5, rel=1e-14)
    assert force_analytic_flat(0.3, PhysicalParams(V=0.0)) == 0.0
    # monotone decay as the plate moves away
    vals = [force_analytic_flat(c, p) for c in (0.0, 0.5, 1.0, 3.0)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        force_analytic_flat(-2.0, p)


def test_full_contact_branch(setup):
    # on the layer the gap is floored at eps: the plate-side force of a flat
    # plate at height eps - H
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, -p.H)
    pf = solver.solve(u)
    g = compute_force(u, pf, p)
    assert np.all(g.contact)
    exact = force_analytic_flat(pf.gap.eps_contact - p.H, p)
    assert np.allclose(g.values, exact, rtol=1e-8)


def test_canonical_force_nonnegative_and_equals_square_term(setup, rng):
    p, fam, grid, solver = setup
    for _ in range(5):
        dofs = rng.uniform(-0.7, 0.5, grid.n_dofs)
        dofs[0::2] = np.maximum(dofs[0::2], -p.H + 0.05)
        u = PlateState(grid, dofs)
        pf = solver.solve(u)
        g = compute_force(u, pf, p)
        # the field has one column per plate node
        square = 0.5 * p.sigma2 * (1.0 + pf.gap.dgamma**2) * pf.top_trace_dz**2
        assert np.array_equal(g.values, square)
        assert np.all(g.values >= 0.0)


def _force_with_trace_partials(u, pf, p):
    """The force with the correction terms of the plate-trace partials of h2,
    written out for the builtin family, and the slack their rounding adds.

    g = q (tr - hz - hw)^2 - sigma2 (hx^2 + (hz + hw)^2) / 2 with q = sigma2
    (1 + gamma'^2) / 2.  On the plate hx = 0 and hz + hw = 0 exactly, but
    hz + hw as computed is rounding noise of the size of hz; the slack is the
    part of g that this noise moves.
    """
    s1, s2, d, H, V = float(p.sigma1), p.sigma2, p.d, p.H, p.V
    cols = (len(pf.x) - 1) // u.grid.n_elems * np.arange(u.grid.n_nodes)
    gm = pf.gap
    w, tr = gm.w[cols], pf.top_trace_dz[cols]
    den = s2 * d + s1 * (w + H)
    hx = 0.0 * (s1 * (w + H) + s2 * d) / den
    hz = V * s1 / den + 0.0 * w
    hw = -V * s1 * (s1 * (w + H) + s2 * d) / den**2
    q = 0.5 * s2 * (1.0 + gm.dgamma[cols] ** 2)
    g = q * (tr - hz - hw) ** 2 - 0.5 * s2 * (hx**2 + (hz + hw) ** 2)
    shift = (tr - hz - hw) - tr
    slack = q * (2.0 * np.abs(tr * shift) + shift**2) + 0.5 * s2 * (hz + hw) ** 2
    return g, slack


@pytest.mark.parametrize(
    "p",
    [PhysicalParams(V=2.0), PhysicalParams(V=11.0, sigma1=2.5, sigma2=0.7, d=0.3, H=1.7, L=0.8)],
    ids=["unit", "scaled"],
)
def test_force_equals_the_formula_with_trace_partials(p):
    # the square term against the full formula, on contact-free states and on
    # states whose middle rests on the layer: within 2 ulp of max|g| plus what
    # the rounding of the cancelled hz + hw moves the full formula by
    grid = PlateGrid(32, p.L)
    solver = FieldSolver(p, build_canonical_boundary_data(p), FieldGrid(32, 16, 16))
    rng = np.random.default_rng(25)
    mid = np.abs(grid.nodes) < 0.3 * p.L
    n_contact = 0
    for k in range(6):
        dofs = p.H * rng.uniform(-0.7, 0.5, grid.n_dofs)
        dofs[0::2] = np.maximum(dofs[0::2], -0.95 * p.H)
        if k % 2:
            dofs[0::2][mid] = -p.H
            dofs[1::2][mid] = 0.0
        u = PlateState(grid, dofs)
        pf = solver.solve(u)
        g = compute_force(u, pf, p).values
        ref, slack = _force_with_trace_partials(u, pf, p)
        n_contact += bool(pf.gap.contact.any())
        assert np.all(np.abs(g - ref) <= 2.0 * np.spacing(np.max(np.abs(g))) + slack), k
    assert n_contact == 3


def test_force_scales_with_voltage_squared():
    grid = PlateGrid(16, 1.0)
    u = interpolate(grid, lambda x: -0.2 * np.cos(np.pi * x / 2) ** 2,
                    lambda x: 0.2 * np.pi / 2 * np.sin(np.pi * x))
    vals = {}
    for V in (1.0, 2.0):
        p = PhysicalParams(V=V)
        fam = build_canonical_boundary_data(p)
        solver = FieldSolver(p, fam, FieldGrid(16, 8, 8))
        vals[V] = compute_force(u, solver.solve(u), p).values
    assert np.allclose(vals[2.0], 4.0 * vals[1.0], rtol=1e-10)


def test_branch_limit_consistency():
    # as the flat gap closes, the gap-side flux approaches the full-contact
    # layer-side expression
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)
    grid = PlateGrid(32, p.L)
    solver = FieldSolver(p, fam, FieldGrid(32, 16, 16))
    eps = max(1e-9, grid.h**2) * p.H
    c = -p.H + 4.0 * eps  # strictly above the threshold
    u = PlateState.constant(grid, c)
    pf = solver.solve(u)
    gap_side = p.sigma2 * pf.top_trace_dz[16]
    contact_side = p.sigma1 * p.V / p.d
    assert gap_side == pytest.approx(contact_side, rel=0.05)


def test_force_continuity_bound(rng):
    # ||g(u1) - g(u2)||_L2 <= C ||u1 - u2||_H2 with C stable under refinement
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)

    def ratio_on_grid(n):
        grid = PlateGrid(n, p.L)
        solver = FieldSolver(p, fam, FieldGrid(n, n // 2, n // 2))
        h = grid.h
        worst = 0.0
        local = np.random.default_rng(5)
        for _ in range(4):
            base = local.uniform(-0.5, 0.3, grid.n_dofs)
            base[0::2] = np.maximum(base[0::2], -p.H + 0.1)
            pert = base + local.uniform(-0.05, 0.05, grid.n_dofs)
            pert[0::2] = np.maximum(pert[0::2], -p.H + 0.1)
            u1, u2 = PlateState(grid, base), PlateState(grid, pert)
            g1 = compute_force(u1, solver.solve(u1), p).values
            g2 = compute_force(u2, solver.solve(u2), p).values
            num = np.sqrt(h * np.sum((g1 - g2) ** 2))
            diff = u1.dofs - u2.dofs
            dd = PlateState(grid, diff)
            den = np.sqrt(
                mechanical_energy(dd, 2.0, 2.0) + h * np.sum(dd.values**2)
            )
            worst = max(worst, num / den)
        return worst

    c1, c2 = ratio_on_grid(16), ratio_on_grid(32)
    assert np.isfinite(c1) and np.isfinite(c2)
    assert c2 <= 2.0 * c1 + 0.5


def test_directional_derivative_zero_cases(setup):
    p, fam, grid, solver = setup
    u = PlateState.zero(grid)
    w = PlateState.zero(grid)
    rep = directional_derivative_check(u, w, [1e-2, 1e-3], solver, p)
    assert rep["inner_product"] == 0.0
    assert all(q == 0.0 for q in rep["quotients"])


def test_directional_derivative_bump_order(setup):
    p, fam, grid, solver = setup
    u = PlateState.zero(grid)
    w = interpolate(grid, lambda x: -np.cos(np.pi * x / 2) ** 2,
                    lambda x: np.pi / 2 * np.sin(np.pi * x))
    rep = directional_derivative_check(u, w, [1e-2, 1e-3, 1e-4], solver, p)
    m = rep["mismatch"]
    assert m[0] < m[1] < m[2]  # ascending eps, ascending mismatch
    assert min(rep["observed_orders"]) >= 0.8
    assert rep["final_relative_mismatch"] <= 0.05


def test_directional_derivative_infeasible(setup):
    p, fam, grid, solver = setup
    u = PlateState.constant(grid, -p.H + 0.001)
    w = PlateState.constant(grid, -1.0)
    with pytest.raises(InfeasiblePerturbation):
        directional_derivative_check(u, w, [1e-2], solver, p)
    with pytest.raises(InfeasiblePerturbation):
        directional_derivative_check(PlateState.constant(grid, -p.H), w, [1e-3], solver, p)


def test_missing_trace_on_misaligned_grids(setup):
    p, fam, grid, solver = setup
    pf = solver.solve(PlateState.constant(grid, 0.0))
    u_bad = PlateState.zero(PlateGrid(24, p.L))  # 32 % 24 != 0
    with pytest.raises(MissingTrace):
        compute_force(u_bad, pf, p)
