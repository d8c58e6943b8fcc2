#!/usr/bin/env python3
"""The comparison solves behind the a-priori sup bound.

Solves the clamped fourth-order comparison problem in closed form on sample
subintervals (all four endpoint cases, with and without tension) and checks
every solution against the interval-free bound kappa0.
"""

from memsplate import (
    kappa0_bound,
    kappa0_case_bounds,
    solve_comparison_bvp,
)

beta, L, H, G0 = 1.0, 1.0, 1.0, 1.0

print(f"per-case bounds at G0 = {G0:g}:")
for name, val in kappa0_case_bounds(beta, 0.0, L, H, G0).items():
    print(f"  {name:18s} {val:.6g}")

ok = True
for tau in (0.0, 1.0):
    kappa0 = kappa0_bound(beta, tau, L, H, G0)
    print(f"\nsample comparison solutions at tau = {tau:g}, kappa0 = {kappa0:.6g}:")
    for (a, b) in [(-L, L), (-L, 0.2), (-0.3, L), (-0.6, 0.4)]:
        bvp = solve_comparison_bvp(a, b, G0, beta, tau, L, H)
        ok = ok and bvp.max_abs <= kappa0 * (1.0 + 1e-8)
        print(f"  ({a:+.1f},{b:+.1f})  case={bvp.case_tag:14s} max|S|={bvp.max_abs:.6g}  "
              f"max|S|/kappa0={bvp.max_abs / kappa0:.4f}")
print(f"\nevery sample within kappa0: {ok}")
if not ok:
    raise SystemExit(1)
