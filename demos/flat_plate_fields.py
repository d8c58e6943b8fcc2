#!/usr/bin/env python3
"""Flat-plate fields against closed forms.

For a plate held flat at height c with the builtin boundary data, the
potential is the one-dimensional two-layer divider profile, so the solver
output can be compared digit-by-digit: potential, interface flux, field
energy, and force density all have closed forms.
"""

import numpy as np

from memsplate import (
    FieldGrid,
    FieldSolver,
    PhysicalParams,
    PlateGrid,
    PlateState,
    build_canonical_boundary_data,
    check_max_principle,
    compute_force,
    force_analytic_flat,
)

p = PhysicalParams(beta=1.0, tau=0.0, L=1.0, H=1.0, d=1.0, sigma1=1.0, sigma2=1.0, V=2.0)
fam = build_canonical_boundary_data(p)
grid = PlateGrid(64, p.L)
solver = FieldSolver(p, fam, FieldGrid(64, 32, 32))

print(f"device: V={p.V}, layer d={p.d}, gap H={p.H}, sigma1={p.sigma1}, sigma2={p.sigma2}")
print(f"{'c':>6} {'max|psi err|':>13} {'E_e':>12} {'E_e exact':>12} {'g(0)':>10} {'g exact':>10}")

for c in (-p.H / 2, 0.0, p.H):
    u = PlateState.constant(grid, c)
    pf = solver.solve(u)

    # closed forms: divider denominator s2 d + s1 (c + H)
    den = p.sigma2 * p.d + p.sigma1 * (c + p.H)
    psi_exact_1 = fam.h1(pf.x[None, :], pf.z1[:, None], c)
    z2 = -p.H + pf.eta[:, None] * (c + p.H)
    psi_exact_2 = fam.h2(pf.x[None, :], z2, c)
    err = max(np.abs(pf.psi1 - psi_exact_1).max(), np.abs(pf.psi2 - psi_exact_2).max())

    Ee = solver.electrostatic_energy(pf)
    Ee_exact = -(2 * p.L / 2) * p.V**2 * p.sigma1 * p.sigma2 / den
    g = compute_force(u, pf, fam, p)
    g_exact = force_analytic_flat(c, p)
    print(f"{c:6.2f} {err:13.2e} {Ee:12.6f} {Ee_exact:12.6f} {g.values[32]:10.6f} {g_exact:10.6f}")

mp = check_max_principle(solver.solve(PlateState.constant(grid, 0.0)))
print(f"\nmax principle: {mp['boundary_inf']} <= psi <= {mp['boundary_sup']}  ->  "
      f"measured [{mp['psi_min']:.3g}, {mp['psi_max']:.3g}]  pass={mp['pass']}")
