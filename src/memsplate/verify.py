"""Verification machinery: the checks of one solved state.

Every check is a pure function returning a small report dict with a ``pass``
flag; :func:`run_suite` evaluates the whole battery for a solved state and
aggregates a deterministic report (checks sorted by name).  Each check reads
the state, its one field solve or the device's own constants; the comparison
check solves the clamped comparison problem on each maximal free interval of
the state's contact set.  Checks marked mandatory gate the command-line
verifier's exit status; the rest are diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import solve_comparison_bvp
from .fields import check_max_principle, contact_threshold
from .hermite import PlateState, clamped_dof_indices, project_obstacle
from .minimize import SolveContext, energy_total

__all__ = [
    "CoincidenceReport",
    "check_apriori_bound",
    "check_coincidence_interval",
    "run_suite",
]


def check_apriori_bound(u: PlateState, kappa0: float, pts_per_elem: int = 16) -> dict:
    """Sup of |u| over a fine element sampling against the certified bound."""
    _, dense = u.sample_dense(pts_per_elem)
    sup = float(np.max(np.abs(dense)))
    return {
        "sup_abs_u": sup,
        "kappa0": kappa0,
        "margin": kappa0 - sup,
        "pass": bool(sup <= kappa0 * (1.0 + 1e-12)),
    }


@dataclass
class CoincidenceReport:
    """Structure of the discrete contact set."""

    contact_nodes: list
    is_interval: bool
    gaps: list
    tol_c: float

    @property
    def n_contact(self) -> int:
        return len(self.contact_nodes)

    def as_dict(self) -> dict:
        return {
            "contact_nodes": self.contact_nodes,
            "is_interval": self.is_interval,
            "gaps": self.gaps,
            "tol_c": self.tol_c,
            "n_contact": self.n_contact,
        }


def check_coincidence_interval(u: PlateState, H: float) -> CoincidenceReport:
    """Contact-node index set and whether it is contiguous."""
    tol_c = contact_threshold(u.grid.h, H)
    idx = np.nonzero(u.values <= -H + tol_c)[0]
    gaps = []
    if len(idx) > 1:
        jumps = np.nonzero(np.diff(idx) > 1)[0]
        gaps = [(int(idx[j]), int(idx[j + 1])) for j in jumps]
    return CoincidenceReport(
        contact_nodes=idx.tolist(),
        is_interval=len(gaps) == 0,
        gaps=gaps,
        tol_c=tol_c,
    )


def run_suite(u: PlateState, ctx: SolveContext, k: float = None) -> dict:
    """Full verification battery for one state; deterministic aggregated report."""
    p, c = ctx.p, ctx.constants
    k = max(c.kappa0, p.H) if k is None else k

    feas_violation = float(max(0.0, -(u.values.min() + p.H)))
    # u(-L) = u'(-L) = u(L) = u'(L) = 0 belong to the admissible set; solver states hold them exactly
    clamped_violation = float(np.max(np.abs(u.dofs[clamped_dof_indices(u.grid)])))
    _, dense = u.sample_dense(16)
    sub_nodal = float(max(0.0, -(dense.min() + p.H)))
    # field checks need an admissible state; an infeasible input already fails
    # the mandatory feasibility check, so they run on its projection
    u_field = u if feas_violation == 0.0 else project_obstacle(u, p.H)

    # the one field solve of the state; every check reads its results
    report_nrg = energy_total(u_field, k, ctx)
    # the one contact set of the state; the coincidence and comparison checks read it
    coin = check_coincidence_interval(u, p.H)

    def chk_feasibility():
        return {
            "nodal_violation": feas_violation,
            "sub_nodal_violation": sub_nodal,
            "clamped_violation": clamped_violation,
            "pass": bool(feas_violation <= 1e-12 * max(1.0, p.H) and clamped_violation == 0.0),
        }

    def chk_force_floor():
        gmin = float(np.min(report_nrg.force.values))
        return {"g_min": gmin, "floor": -c.G0, "pass": bool(gmin >= -1e-8)}

    def chk_energy_identity():
        lhs = report_nrg.E_m + report_nrg.E_e
        data_bound = ctx.field.boundary_data_energy(report_nrg.potential.gap)
        return {
            "E_sum_matches": bool(lhs == report_nrg.E),
            "E_k_not_below_E": bool(report_nrg.E_k >= report_nrg.E),
            "variational_bound": bool(-report_nrg.E_e <= data_bound * (1.0 + 1e-10)),
            "minus_E_e": -report_nrg.E_e,
            "data_energy": data_bound,
            "pass": bool(
                lhs == report_nrg.E
                and report_nrg.E_k >= report_nrg.E
                and -report_nrg.E_e <= data_bound * (1.0 + 1e-10)
            ),
        }

    def chk_coincidence():
        out = coin.as_dict()
        out["pass"] = coin.is_interval
        return out

    def chk_comparison():
        # the comparison problem on each maximal free interval: from a clamped end
        # or a contact node to the next contact node or clamped end
        x, nodes, last = u.grid.nodes, coin.contact_nodes, u.grid.n_nodes - 1
        ends = [(0, nodes[0]), *coin.gaps, (nodes[-1], last)] if nodes else [(0, last)]
        bvps = [
            solve_comparison_bvp(float(x[i]), float(x[j]), c.G0, p.beta, p.tau, p.L, p.H)
            for i, j in ends if i < j
        ]
        max_abs = [bvp.max_abs for bvp in bvps]
        return {
            "intervals": [[bvp.a, bvp.b] for bvp in bvps],
            "cases": [bvp.case_tag for bvp in bvps],
            "max_abs": max_abs,
            "kappa0": c.kappa0,
            "worst_ratio": max(max_abs, default=0.0) / c.kappa0,
            "pass": bool(all(m <= c.kappa0 * (1.0 + 1e-8) for m in max_abs)),
        }

    def chk_vi():
        return {
            "vi_residual": report_nrg.vi_residual,
            "tol_vi": report_nrg.tol_vi,
            "fp_residual": report_nrg.fp_residual,
            "trace_residual": report_nrg.trace_residual,
            "pass": bool(report_nrg.vi_residual <= report_nrg.tol_vi),
        }

    checks = {
        "apriori_bound": (True, lambda: check_apriori_bound(u, c.kappa0)),
        "coincidence_interval": (True, chk_coincidence),
        "comparison_bounds": (True, chk_comparison),
        "energy_identity": (True, chk_energy_identity),
        "feasibility": (True, chk_feasibility),
        "force_floor": (True, chk_force_floor),
        "max_principle": (True, lambda: check_max_principle(
            report_nrg.potential, tol_lin=ctx.settings.tol_lin)),
        "stationarity": (False, chk_vi),
    }

    results = {name: fn() for name, (_, fn) in checks.items()}

    out = []
    all_mandatory = True
    for name in sorted(results):
        mandatory = checks[name][0]
        rec = {"name": name, "mandatory": mandatory, **results[name]}
        out.append(rec)
        if mandatory and not rec.get("pass", False):
            all_mandatory = False
    return {
        "checks": out,
        "mandatory_pass": all_mandatory,
        "energy": report_nrg.as_dict(),
        "projected_for_field_checks": bool(feas_violation > 0.0),
    }
