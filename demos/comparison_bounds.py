#!/usr/bin/env python3
"""The comparison solves behind the a-priori sup bound.

Solves the clamped fourth-order comparison problem in closed form on random
subintervals (all four endpoint cases, with and without tension) and checks
every solution against the interval-free bound kappa0.
"""

from memsplate import (
    comparison_bound_battery,
    kappa0_bound,
    kappa0_case_bounds,
    solve_comparison_bvp,
)

beta, tau, L, H = 1.0, 0.0, 1.0, 1.0

print("per-case bounds at G0 = 1:")
for name, val in kappa0_case_bounds(beta, tau, L, H, 1.0).items():
    print(f"  {name:18s} {val:.6g}")
print(f"  kappa0 = {kappa0_bound(beta, tau, L, H, 1.0):.6g}")

print("\nsample comparison solutions:")
for (a, b) in [(-L, L), (-L, 0.2), (-0.3, L), (-0.6, 0.4)]:
    bvp = solve_comparison_bvp(a, b, 1.0, beta, tau, L, H)
    print(f"  ({a:+.1f},{b:+.1f})  case={bvp.case_tag:14s} max|S|={bvp.max_abs:.6g}")

battery = comparison_bound_battery(beta, (0.0, 1.0), (0.0, 1.0, 10.0), L, H, n_intervals=50)
print(f"\nbound battery over {sum(battery['cases'].values())} solves: "
      f"worst max|S|/kappa0 = {battery['worst_ratio']:.4f}  pass={battery['pass']}")
