"""Electrostatic force on the plate from the solved potential.

The force density at a plate node is the square term
g = sigma2 (1 + gamma'^2) (dz psi)^2 / 2 of the vertical trace derivative of
the gap potential on the plate, at the floored plate height w of the field
(see ``fields``): on the contact set the gap is eps to 1.2 eps thin and the
same formula applies.  The paper's correction terms carry the plate-trace
partials of the boundary data; the plate is held at the constant potential V,
so h2(x, w, w) = V, those partials cancel to zero, and the force is the
nonnegative square term alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePerturbation, MissingTrace
from .fields import FieldSolver, PotentialField
from .hermite import PlateState, assemble_mass
from .params import PhysicalParams

__all__ = [
    "ForceProfile",
    "compute_force",
    "force_analytic_flat",
    "force_load_vector",
    "directional_derivative_check",
]


@dataclass
class ForceProfile:
    """Nodal force density with the contact tag of every node."""

    x: np.ndarray
    values: np.ndarray          # g at plate nodes
    contact: np.ndarray         # True where the node's gap is at most eps (reported only)


def compute_force(u: PlateState, pf: PotentialField, p: PhysicalParams) -> ForceProfile:
    """Evaluate the force density at the plate nodes of u's grid."""
    n_x = len(pf.x) - 1
    if n_x % u.grid.n_elems != 0:
        raise MissingTrace("field columns do not contain the plate nodes")
    stride = n_x // u.grid.n_elems
    cols = stride * np.arange(u.grid.n_nodes)

    gm = pf.gap
    g = 0.5 * p.sigma2 * (1.0 + gm.dgamma[cols] ** 2) * pf.top_trace_dz[cols] ** 2
    return ForceProfile(pf.x[cols], g, gm.contact[cols])


def force_analytic_flat(c: float, p: PhysicalParams) -> float:
    """Closed-form force density for a flat plate at height c."""
    if c < -p.H:
        raise ValueError("flat height below the layer")
    s1 = float(p.sigma1)  # type: ignore[arg-type]
    return 0.5 * p.sigma2 * s1**2 * p.V**2 / (p.sigma2 * p.d + s1 * (c + p.H)) ** 2


def force_load_vector(gprof: ForceProfile, u: PlateState, M) -> np.ndarray:
    """Pair the nodal force with the plate space: load_i = int g_h phi_i.

    g is carried as the value-interpolant (zero slope coefficients) and
    integrated against the Hermite basis through the consistent mass matrix,
    the same pairing the energies use.
    """
    return M @ PlateState.from_nodal(u.grid, gprof.values, 0.0).dofs


def directional_derivative_check(
    u: PlateState,
    w: PlateState,
    eps_list,
    solver: FieldSolver,
    p: PhysicalParams,
) -> dict:
    """Compare difference quotients of the field energy with the force pairing.

    Requires a strict gap along the whole tested segment so that the contact
    floor, where the field sees w(u) rather than u, does not pollute the
    quotient.
    """
    eps_list = sorted(float(e) for e in eps_list)
    M = assemble_mass(u.grid)

    def strict_gap(state):
        gm = solver.gap_map(state)
        return not np.any(gm.contact)

    if not strict_gap(u):
        raise InfeasiblePerturbation("base state has contact columns")
    pf = solver.solve(u)
    Ee0 = solver.electrostatic_energy(pf)
    gprof = compute_force(u, pf, p)
    inner = float(force_load_vector(gprof, u, M) @ w.dofs)

    quotients, mismatches = [], []
    for eps in eps_list:
        up = PlateState(u.grid, u.dofs + eps * w.dofs)
        if up.values.min() <= -p.H or not strict_gap(up):
            raise InfeasiblePerturbation(f"perturbed state at eps={eps} loses its strict gap")
        pfe = solver.solve(up)
        Ee = solver.electrostatic_energy(pfe)
        q = (Ee - Ee0) / eps
        quotients.append(q)
        mismatches.append(abs(q - inner))

    # slope of log-mismatch vs log-eps between consecutive eps (ascending list);
    # first-order decay of the quotient error shows up as slopes near 1
    orders = [
        float(np.log(mismatches[i + 1] / mismatches[i]) / np.log(eps_list[i + 1] / eps_list[i]))
        if mismatches[i] > 0 and mismatches[i + 1] > 0 else float("inf")
        for i in range(len(eps_list) - 1)
    ]
    return {
        "eps": eps_list,
        "quotients": quotients,
        "inner_product": inner,
        "mismatch": mismatches,
        "observed_orders": orders,
        "final_relative_mismatch": (
            mismatches[0] / abs(inner) if inner != 0.0 else mismatches[0]
        ),
    }
