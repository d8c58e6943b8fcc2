import numpy as np
import pytest

from memsplate import (
    FieldGrid,
    PhysicalParams,
    build_canonical_boundary_data,
    kappa0_bound,
    make_context,
    solve_comparison_bvp,
)


@pytest.fixture(scope="session")
def unit_params():
    return PhysicalParams(beta=1.0, tau=0.0, L=1.0, H=1.0, d=1.0, sigma1=1.0, sigma2=1.0, V=2.0)


@pytest.fixture(scope="session")
def canonical(unit_params):
    return build_canonical_boundary_data(unit_params)


@pytest.fixture(scope="session")
def small_ctx(unit_params):
    """32-element plate with a matching small field grid (fast unit tests)."""
    return make_context(unit_params, n_elems=32, field_grid=FieldGrid(32, 16, 16))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


def random_feasible_state(ctx, rng, amplitude=0.5, clamped=True):
    from memsplate import PlateState

    dofs = rng.uniform(-amplitude, amplitude, ctx.plate.n_dofs)
    dofs[0::2] = np.maximum(dofs[0::2], -ctx.p.H)
    if clamped:
        dofs[[0, 1, -2, -1]] = 0.0
    return PlateState(ctx.plate, dofs)


def comparison_bound_battery(beta, tau_values, G0_values, L, H, n_intervals, seed=42):
    """Random intervals across all endpoint cases: sup |S_I| <= kappa0 every time."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    count_by_case = {"interior": 0, "touches_left": 0, "touches_right": 0, "full": 0}
    violations = []
    for tau in tau_values:
        for G0 in G0_values:
            kap = kappa0_bound(beta, tau, L, H, G0)
            for j in range(n_intervals):
                mode = j % 4
                if mode == 0:
                    a, b = -L, L
                elif mode == 1:
                    a, b = -L, float(rng.uniform(-0.5 * L, 0.9 * L))
                elif mode == 2:
                    a, b = float(rng.uniform(-0.9 * L, 0.5 * L)), L
                else:
                    a = float(rng.uniform(-0.95 * L, 0.5 * L))
                    b = float(rng.uniform(a + 0.05 * L, 0.98 * L))
                bvp = solve_comparison_bvp(a, b, G0, beta, tau, L, H)
                count_by_case[bvp.case_tag] += 1
                worst = max(worst, bvp.max_abs / kap)
                if not bvp.max_abs <= kap * (1.0 + 1e-8):
                    violations.append((a, b, tau, G0, bvp.max_abs, kap))
    return {"worst_ratio": worst, "cases": count_by_case, "violations": violations,
            "pass": not violations}
