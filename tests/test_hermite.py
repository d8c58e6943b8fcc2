import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsplate import (
    PlateGrid,
    PlateState,
    assemble_bending_and_stretch,
    assemble_mass,
    interpolate,
    mechanical_energy,
    project_obstacle,
)
from memsplate.errors import SingularAssembly
from memsplate.hermite import clamped_dof_indices, gauss_rule, shape_functions
from memsplate.minimize import penalty_value_grad


def hermite_cubic_on_element(x0, h, v0, s0, v1, s1):
    """Independent construction of the interpolating cubic on [x0, x0+h]."""
    # solve for a + b t + c t^2 + d t^3 with t = x - x0
    A = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, h, h**2, h**3],
        [0.0, 1.0, 2.0 * h, 3.0 * h**2],
    ])
    coeffs = np.linalg.solve(A, [v0, s0, v1, s1])
    return np.polynomial.Polynomial(coeffs)


def energy_by_polynomial_oracle(state, beta, tau):
    """Exact elementwise integral of the interpolant's energy via Polynomial.integ."""
    total = 0.0
    g = state.grid
    for e in range(g.n_elems):
        x0 = g.x_left + e * g.h
        v0, s0, v1, s1 = state.dofs[g.conn[e]]
        p = hermite_cubic_on_element(x0, g.h, v0, s0, v1, s1)
        d1, d2 = p.deriv(1), p.deriv(2)
        total += 0.5 * beta * (d2**2).integ()(g.h) + 0.5 * tau * (d1**2).integ()(g.h)
    return total


def test_matrix_symmetry():
    g = PlateGrid(17, 1.3)
    B, S = assemble_bending_and_stretch(g, 2.0, 0.7)
    M = assemble_mass(g)
    for A in (B, S, M):
        dense = A.toarray()
        assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense))


def test_bending_energy_matches_polynomial_oracle():
    L, beta = 1.0, 1.7
    g = PlateGrid(32, L)
    f = lambda x: (L**2 - x**2) ** 2 * 0.3
    df = lambda x: -4.0 * 0.3 * x * (L**2 - x**2)
    u = interpolate(g, f, df)
    B, S = assemble_bending_and_stretch(g, beta, 0.0)
    via_matrix = 0.5 * float(u.dofs @ (B @ u.dofs))
    oracle = energy_by_polynomial_oracle(u, beta, 0.0)
    assert via_matrix == pytest.approx(oracle, rel=1e-10)
    assert mechanical_energy(u, beta, 0.0) == pytest.approx(oracle, rel=1e-10)


def test_zero_state_and_zero_tension():
    g = PlateGrid(8, 1.0)
    B, S = assemble_bending_and_stretch(g, 1.0, 0.0)
    z = np.zeros(g.n_dofs)
    assert np.all(B @ z == 0.0) and np.all(S @ z == 0.0)
    assert S.nnz == 0 or np.max(np.abs(S.data)) == 0.0


def test_energy_zero_and_quadratic_scaling(rng):
    g = PlateGrid(12, 1.0)
    assert mechanical_energy(PlateState.zero(g), 1.0, 1.0) == 0.0
    u = PlateState(g, rng.standard_normal(g.n_dofs))
    u2 = PlateState(g, 2.0 * u.dofs)
    e1 = mechanical_energy(u, 1.3, 0.4)
    e2 = mechanical_energy(u2, 1.3, 0.4)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-13)


def test_interpolant_energy_convergence_rate():
    # smooth bump with hand-derived energy integrals:
    # f = cos^2(pi x / 2L): int f''^2 = pi^4/(4 L^3), int f'^2 = pi^2/(4 L)
    L, beta, tau = 1.0, 1.0, 0.5
    exact = 0.5 * beta * np.pi**4 / (4.0 * L**3) + 0.5 * tau * np.pi**2 / (4.0 * L)
    f = lambda x: np.cos(np.pi * x / (2 * L)) ** 2
    df = lambda x: -np.pi / (2 * L) * np.sin(np.pi * x / L)
    errs = []
    for n in (8, 16, 32):
        u = interpolate(PlateGrid(n, L), f, df)
        errs.append(abs(mechanical_energy(u, beta, tau) - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9  # observed ~4 (energy superconvergence)


def test_projection_identity_on_feasible(rng):
    g = PlateGrid(10, 1.0)
    u = PlateState(g, rng.uniform(-0.9, 1.0, g.n_dofs))
    u.dofs[0::2] = np.abs(u.dofs[0::2]) - 0.5  # all values >= -0.5 > -1
    out = project_obstacle(u, 1.0)
    assert np.array_equal(out.dofs, u.dofs)


def test_projection_single_node():
    g = PlateGrid(6, 1.0)
    u = PlateState.zero(g)
    u.dofs[6] = -1.3  # node 3 value
    u.dofs[7] = 0.8   # its slope
    out = project_obstacle(u, 1.0)
    assert out.values[3] == -1.0
    assert out.slopes[3] == 0.0
    mask = np.ones(g.n_dofs, bool)
    mask[[6, 7]] = False
    assert np.array_equal(out.dofs[mask], u.dofs[mask])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_property_vs_bruteforce(seed):
    rng = np.random.default_rng(seed)
    g = PlateGrid(9, 1.0)
    H = 1.0
    u = PlateState(g, rng.uniform(-2.0, 1.0, g.n_dofs))
    out = project_obstacle(u, H)
    # brute-force nodewise oracle
    for i in range(g.n_nodes):
        v, s = u.values[i], u.slopes[i]
        if v < -H:
            assert out.values[i] == -H and out.slopes[i] == 0.0
        else:
            assert out.values[i] == v and out.slopes[i] == s
    assert out.is_feasible(H)
    # idempotent
    again = project_obstacle(out, H)
    assert np.array_equal(again.dofs, out.dofs)


def test_coercivity_witness(rng):
    import scipy.sparse.linalg as spla

    g = PlateGrid(24, 1.0)
    beta = 1.0
    B, _ = assemble_bending_and_stretch(g, beta, 0.0)
    free = np.ones(g.n_dofs, bool)
    free[clamped_dof_indices(g)] = False
    Bi = B[np.ix_(free, free)]
    lam_min = float(spla.eigsh(Bi, k=1, sigma=0.0, return_eigenvectors=False)[0])
    assert lam_min > 0.0
    for _ in range(100):
        v = rng.standard_normal(int(free.sum()))
        assert v @ (Bi @ v) >= (1.0 - 1e-10) * lam_min * (v @ v)


def test_state_evaluation_reproduces_cubics():
    g = PlateGrid(7, 1.0)
    f = lambda x: 0.3 * x**3 - 0.2 * x**2 + x - 0.05
    df = lambda x: 0.9 * x**2 - 0.4 * x + 1.0
    d2f = lambda x: 1.8 * x - 0.4
    u = interpolate(g, f, df)
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.allclose(u(xs), f(xs), atol=1e-13)
    assert np.allclose(u(xs, deriv=1), df(xs), atol=1e-12)
    assert np.allclose(u(xs, deriv=2), d2f(xs), atol=1e-11)


def test_grid_validation():
    with pytest.raises(ValueError):
        PlateGrid(0, 1.0)
    with pytest.raises(SingularAssembly):
        PlateGrid(4, 1e-310)


def test_flat_state_has_zero_mechanical_energy():
    g = PlateGrid(16, 1.0)
    u = PlateState.constant(g, 3.7)
    assert mechanical_energy(u, 2.0, 5.0) == pytest.approx(0.0, abs=1e-14)


# -- the element kernel against plain per-element loops ---------------------------------


def _loop_sample_dense(u, pts_per_elem, deriv):
    g = u.grid
    xi = np.linspace(0.0, 1.0, pts_per_elem)
    xs, us = [], []
    for e in range(g.n_elems):
        N = shape_functions(xi, g.h, deriv)
        xs.append(g.x_left + e * g.h + xi * g.h)
        us.append(N.T @ u.dofs[g.conn[e]])
    return np.concatenate(xs), np.concatenate(us)


def _loop_mechanical_energy(u, beta, tau):
    xi, w = gauss_rule(4)
    g = u.grid
    N1, N2 = shape_functions(xi, g.h, 1), shape_functions(xi, g.h, 2)
    total = 0.0
    for e in range(g.n_elems):
        loc = u.dofs[g.conn[e]]
        du, d2u = N1.T @ loc, N2.T @ loc
        total += g.h * np.sum(w * (0.5 * beta * d2u**2 + 0.5 * tau * du**2))
    return float(total)


def _loop_penalty(u, k, A):
    xi, wq = gauss_rule(6)
    g = u.grid
    N0 = shape_functions(xi, g.h, 0)
    val, grad, active = 0.0, np.zeros(g.n_dofs), False
    for e in range(g.n_elems):
        dofs = g.conn[e]
        excess = np.maximum(N0.T @ u.dofs[dofs] - k, 0.0)
        if np.any(excess > 0.0):
            active = True
            val += g.h * np.sum(wq * excess**2)
            grad[dofs] += A * g.h * (N0 * (wq * excess)).sum(axis=1)
    return 0.5 * A * val, grad, active


@pytest.mark.parametrize("grid", [
    PlateGrid(1, 1.0), PlateGrid(3, 0.7), PlateGrid(128, 1.0), PlateGrid.from_interval(17, -0.3, 0.55),
], ids=["1", "3", "128", "interval"])
def test_element_kernel_matches_per_element_loops(grid, rng):
    # each element owns the four consecutive DOFs starting at its left node's value
    windows = np.lib.stride_tricks.sliding_window_view(np.arange(grid.n_dofs), 4)[::2]
    assert np.array_equal(grid.conn, windows)

    u = PlateState(grid, rng.uniform(-1.0, 1.0, grid.n_dofs))
    for deriv in (0, 1, 2):
        for got, want in zip(u.sample_dense(7, deriv), _loop_sample_dense(u, 7, deriv)):
            assert np.array_equal(got, want)
    assert mechanical_energy(u, 1.3, 0.4) == _loop_mechanical_energy(u, 1.3, 0.4)

    val, grad, active = penalty_value_grad(u, 0.2, 3.0)
    ref_val, ref_grad, ref_active = _loop_penalty(u, 0.2, 3.0)
    assert active and ref_active and val > 0.0
    assert val == ref_val and np.array_equal(grad, ref_grad)
