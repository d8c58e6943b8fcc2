"""Constrained minimization of the (regularized) total energy.

The regularized energy adds (A/2)||(u-k)_+||^2 to bending + tension +
field energy; for k at least the certified sup bound the penalty never
activates at a converged state, so that state is a stationary state of the
plain energy, which is what :func:`continuation_pipeline` certifies.

Descent is projected gradient with Armijo backtracking, preconditioned by
the inverse of the quadratic stiffness (a raw gradient step is useless at
the fourth-order conditioning of the bending operator); once the plate
touches the layer, L-BFGS pairs of the latest steps add the field curvature
the stiffness lacks.  Feasibility is kept exactly by clipping nodal values
at -H.  The gradient is the exact gradient of the discrete energy, with the
field energy differentiated by ``FieldSolver.shape_gradient_load``; it
drives the descent and is the certificate.  Stationarity is certified by a
first-order residual of it measured against single-DOF feasible directions
normalized in the energy space, so the tolerance is grid-independent.  The
same measure of the trace-formula force's weak residual is reported beside
it as the trace residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import DescentFailed, MaxIterations, StalledDescent
from .fields import FieldGrid, FieldSolver, PotentialField
from .forces import ForceProfile, compute_force, force_load_vector
from .hermite import (
    PlateGrid,
    PlateState,
    assemble_bending_and_stretch,
    assemble_mass,
    clamped_dof_indices,
    gauss_rule,
    mechanical_energy,
    shape_functions,
    unit_energy_diagonal,
)
from .params import (
    BoundaryDataFamily,
    DerivedConstants,
    PhysicalParams,
    build_canonical_boundary_data,
    derive_constants,
)

__all__ = [
    "SolverSettings",
    "EnergyReport",
    "SolveContext",
    "make_context",
    "energy_total",
    "minimize_Ek",
    "continuation_pipeline",
    "coercivity_constant",
    "coercivity_check",
]


# Line search: first step, backtracking factor, growth after an accepted step,
# smallest step, trials per iterate and the Armijo constant.
_STEP0 = 1.0
_SHRINK = 0.5
_GROW = 1.5
_STEP_FLOOR = 1e-14
_MAX_LS_TRIALS = 30
_ARMIJO_C1 = 1e-4
# L-BFGS pairs kept, and the rounding noise of E_k in ulps of its terms
_MEMORY = 5
_NOISE_ULPS = 64.0


@dataclass(frozen=True)
class SolverSettings:
    """Knobs of the descent and the inner linear solves."""

    max_outer: int = 200
    tol_vi_factor: float = 1e-8
    tol_lin: float = 1e-10

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not 0.0 < self.tol_vi_factor < np.inf:
            raise ValueError("tol_vi_factor must be positive and finite")
        if not 0.0 < self.tol_lin < np.inf:
            raise ValueError("tol_lin must be positive and finite")


@dataclass
class EnergyReport:
    """All energies of a state plus solver certificates, its potential and its force."""

    E_m: float
    E_e: float
    E: float
    E_k: float
    k: float
    reg_active: bool
    vi_residual: float
    fp_residual: float
    trace_residual: float
    tol_vi: float
    n_contact_nodes: int
    iterations: int = 0
    converged: bool = False
    trajectory: list = field(default_factory=list)
    potential: PotentialField = None
    force: ForceProfile = None

    def as_dict(self) -> dict:
        return {
            "E_m": self.E_m, "E_e": self.E_e, "E": self.E, "E_k": self.E_k, "k": self.k,
            "reg_active": self.reg_active, "vi_residual": self.vi_residual,
            "fp_residual": self.fp_residual, "trace_residual": self.trace_residual,
            "tol_vi": self.tol_vi,
            "n_contact_nodes": self.n_contact_nodes, "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass
class SolveContext:
    """Shared immutable pieces of one device setup (matrices, field solver, constants)."""

    p: PhysicalParams
    family: BoundaryDataFamily
    constants: DerivedConstants
    plate: PlateGrid
    field_grid: FieldGrid
    settings: SolverSettings
    K: object                # quadratic stiffness B + S (bending + tension)
    M: object
    field: FieldSolver
    _free: np.ndarray
    _norms: np.ndarray
    _lu_cache: dict = field(default_factory=dict)

    def zero_state(self) -> PlateState:
        return PlateState.zero(self.plate)

    def grid_sizes(self) -> dict:
        """Plate elements and field cells of the device."""
        g = self.field_grid
        return {"n_elems": self.plate.n_elems, "n_x": g.n_x, "n_z1": g.n_z1, "n_z2": g.n_z2}

    def reduced_solve(self, mask: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the quadratic stiffness restricted to the DOFs in mask."""
        key = mask.tobytes()
        lu = self._lu_cache.get(key)
        if lu is None:
            lu = spla.splu(self.K[np.ix_(mask, mask)].tocsc())
            if len(self._lu_cache) > 64:
                self._lu_cache.clear()
            self._lu_cache[key] = lu
        return lu.solve(rhs[mask])


def make_context(
    p: PhysicalParams,
    constants: DerivedConstants = None,
    n_elems: int = 128,
    field_grid: FieldGrid = None,
    settings: SolverSettings = None,
) -> SolveContext:
    """Assemble everything reusable for a device: matrices, field solver, constants."""
    family = build_canonical_boundary_data(p)
    constants = constants if constants is not None else derive_constants(p, family)
    settings = settings if settings is not None else SolverSettings()
    plate = PlateGrid(n_elems, p.L)
    field_grid = field_grid if field_grid is not None else FieldGrid(n_x=max(n_elems, 4))
    B, S = assemble_bending_and_stretch(plate, p.beta, p.tau)
    M = assemble_mass(plate)
    free = np.ones(plate.n_dofs, bool)
    free[clamped_dof_indices(plate)] = False
    # energy-space norms of the single-DOF direction shapes (beta/tau-free)
    norms = np.sqrt(unit_energy_diagonal(plate))
    solver = FieldSolver(p, family, field_grid, tol_lin=settings.tol_lin)
    return SolveContext(
        p=p, family=family, constants=constants, plate=plate, field_grid=field_grid,
        settings=settings, K=B + S, M=M, field=solver, _free=free, _norms=norms,
    )


# -- penalty -------------------------------------------------------------------


def penalty_value_grad(u: PlateState, k: float, A: float) -> tuple[float, np.ndarray, bool]:
    """(A/2)||(u-k)_+||^2, its exact DOF gradient, and whether it is active.

    A fixed Gauss rule makes value and gradient an exact pair, which the
    backtracking test relies on.
    """
    grid = u.grid
    if A == 0.0:
        return 0.0, np.zeros(grid.n_dofs), False
    xi, wq = gauss_rule(6)
    N0 = shape_functions(xi, grid.h, 0)
    excess = np.maximum(u.local(xi, 0) - k, 0.0)         # (n_elems, n_gauss)
    # elements without excess add exact zeros; val sums in element order
    val = np.add.accumulate(grid.h * np.sum(wq * excess**2, axis=1))[-1]
    grad = grid.scatter(A * grid.h * (N0 * (wq * excess)[:, None, :]).sum(axis=2))
    return float(0.5 * A * val), grad, bool(np.any(excess > 0.0))


# -- residuals -----------------------------------------------------------------


def _residuals(ctx: SolveContext, u: PlateState, r: np.ndarray) -> tuple[float, float]:
    """Stationarity violation over unit-energy-norm nodal feasible directions.

    Value DOFs on the obstacle only admit upward directions, so a nonnegative
    entry there is no violation; every other free DOF is two-sided.  The
    companion number is the projected fixed-point residual measured the same
    way; at contact-free states the two coincide.
    """
    p = ctx.p
    viol = np.abs(r)
    vals = u.values
    active = vals <= -p.H + 1e-12 * max(1.0, p.H)
    value_rows = 2 * np.nonzero(active)[0]
    viol[value_rows] = np.maximum(0.0, -r[value_rows])
    viol[~ctx._free] = 0.0
    vi = float(np.max(viol / ctx._norms))

    stepped = u.dofs - r
    proj = stepped.copy()
    proj[0::2] = np.maximum(proj[0::2], -p.H)
    fp = u.dofs - proj
    fp[~ctx._free] = 0.0
    fp_res = float(np.max(np.abs(fp) / ctx._norms))
    return vi, fp_res


def tol_vi_for(ctx: SolveContext, u: PlateState) -> float:
    scale = max(ctx.p.H, float(np.max(np.abs(u.values))))
    return ctx.settings.tol_vi_factor * (ctx.p.beta / ctx.p.L**3) * scale


# -- energy evaluation -----------------------------------------------------------


def _evaluate(ctx: SolveContext, u: PlateState, k: float, factor=None):
    """Field solve + all energies for one state.

    ``factor`` is a held field factor to precondition the solve with (see
    ``FieldSolver.solve``); the solve factors afresh without one.
    """
    pf = ctx.field.solve(u, factor)
    Ee = ctx.field.electrostatic_energy(pf)
    Em = mechanical_energy(u, ctx.p.beta, ctx.p.tau)
    penv, peng, active = penalty_value_grad(u, k, ctx.constants.A)
    E = Em + Ee
    Ek = E + penv
    return {
        "pf": pf, "E_m": Em, "E_e": Ee, "E": E, "E_k": Ek,
        "pen_value": penv, "pen_grad": peng, "reg_active": active,
    }


def _certify(ctx: SolveContext, u: PlateState, ev: dict) -> dict:
    """Certificate of one evaluated state.

    ``r`` is the exact gradient of the discrete energy and ``vi``, ``fp`` its
    measures against ``tol``; ``trace`` is the same measure of the weak
    residual of the trace-formula ``force`` (stiffness + penalty + force
    paired by the mass), reported beside it.
    """
    r_mech = ctx.K @ u.dofs + ev["pen_grad"]
    r = r_mech + ctx.field.shape_gradient_load(ev["pf"], u)
    vi, fp = _residuals(ctx, u, r)
    force = compute_force(u, ev["pf"], ctx.family, ctx.p)
    trace, _ = _residuals(ctx, u, r_mech + force_load_vector(force, u, ctx.M))
    return {"r": r, "vi": vi, "fp": fp, "tol": tol_vi_for(ctx, u), "force": force, "trace": trace}


def _report(ev: dict, cert: dict, k: float, **run) -> EnergyReport:
    """The report of one evaluated state; ``run`` holds the descent's bookkeeping."""
    return EnergyReport(
        E_m=ev["E_m"], E_e=ev["E_e"], E=ev["E"], E_k=ev["E_k"], k=k,
        reg_active=ev["reg_active"], vi_residual=cert["vi"], fp_residual=cert["fp"],
        trace_residual=cert["trace"], tol_vi=cert["tol"],
        n_contact_nodes=int(np.sum(cert["force"].contact)),
        potential=ev["pf"], force=cert["force"], **run,
    )


def energy_total(u: PlateState, k: float, ctx: SolveContext) -> EnergyReport:
    """Solve the field and report every energy plus the stationarity residual."""
    ev = _evaluate(ctx, u, k)
    return _report(ev, _certify(ctx, u, ev), k)


def _quasi_newton(ctx: SolveContext, mask: np.ndarray, r: np.ndarray, pairs: list) -> np.ndarray:
    """L-BFGS direction -H r on the DOFs in mask, seeded with the inverse stiffness.

    ``pairs`` holds (step, gradient change) of the latest iterates, zero off
    the mask; with none this is the stiffness-preconditioned gradient step.
    """
    q, alphas = np.where(mask, r, 0.0), []
    for sk, yk in reversed(pairs):
        alphas.append((sk @ q) / (yk @ sk))
        q = q - alphas[-1] * yk
    z = np.zeros_like(r)
    z[mask] = ctx.reduced_solve(mask, q)
    for (sk, yk), a in zip(pairs, reversed(alphas)):
        z = z + (a - (yk @ z) / (yk @ sk)) * sk
    return -z


def _clip_values(dofs: np.ndarray, H: float) -> np.ndarray:
    out = dofs.copy()
    out[0::2] = np.maximum(out[0::2], -H)
    return out


def minimize_Ek(
    u0: PlateState, k: float, ctx: SolveContext
) -> tuple[PlateState, EnergyReport]:
    """Backtracked projected descent on the regularized energy.

    Every accepted step decreases the (re-solved) energy by the Armijo amount,
    save a last one whose energy change is within rounding noise and which
    lands on a state stationary within tol; iteration stops once the
    stationarity residual reaches its tolerance.  Raises
    StalledDescent if backtracking bottoms out first and MaxIterations at the
    outer cap; both carry the last iterate.
    """
    st = ctx.settings
    p = ctx.p
    if k < p.H:
        raise ValueError("regularization level k must be at least the gap height")
    dofs = _clip_values(u0.dofs, p.H)
    clamped = clamped_dof_indices(ctx.plate)
    dofs[clamped] = 0.0
    u = PlateState(ctx.plate, dofs)

    ev = _evaluate(ctx, u, k)
    trajectory = []
    step = _STEP0
    pairs, last = [], None
    cert = None  # an accepted trial's certificate, when the line search computed it

    for it in range(1, st.max_outer + 1):
        cert = cert if cert is not None else _certify(ctx, u, ev)
        r, vi, tol = cert["r"], cert["vi"], cert["tol"]
        # ls_trials, factorizations and cg_iterations count what leaving this iterate costs
        rec = {
            "iter": it - 1, "E_m": ev["E_m"], "E_e": ev["E_e"], "E_k": ev["E_k"],
            "step": step, "vi_residual": vi, "trace_residual": cert["trace"],
            "lin_residual": ev["pf"].residual,
            "n_contact_nodes": int(np.sum(cert["force"].contact)),
            "ls_trials": 0, "factorizations": 0, "cg_iterations": 0,
        }
        trajectory.append(rec)
        if vi <= tol:
            return u, _report(ev, cert, k, iterations=it - 1, converged=True, trajectory=trajectory)

        # active-set reduction: freeze obstacle nodes whose multiplier is
        # nonnegative, otherwise the projected step loses its descent
        # component to the clipping
        pinned = (u.values <= -p.H + 1e-12 * max(1.0, p.H)) & (r[0::2] >= 0.0)
        mask = ctx._free.copy()
        mask[2 * np.nonzero(pinned)[0]] = False
        # on the layer the stiffness misses the field's curvature at the contact
        # edge, and the latest steps on an unchanged active set supply it; off
        # the layer the stiffness step alone is kept
        if pinned.any() and last is not None and np.array_equal(mask, last[0]):
            sk, yk = np.where(mask, u.dofs - last[1], 0.0), np.where(mask, r - last[2], 0.0)
            if sk @ yk > 0.0:
                pairs = (pairs + [(sk, yk)])[-_MEMORY:]
        else:
            pairs = []
        last = (mask, u.dofs, r)
        d = _quasi_newton(ctx, mask, r, pairs)

        # every trial is preconditioned by the factor of the current iterate until
        # one misses and factors; the rest of this line search factor directly.  An
        # accepted trial hands on the factor its own solve used
        held = ev["pf"].factor
        noise = _NOISE_ULPS * np.finfo(float).eps * (abs(ev["E_m"]) + abs(ev["E_e"]) + ev["pen_value"])
        accepted = None
        # an L-BFGS direction carries its length; a stiffness step reuses the last one
        s = rec["step"] = 1.0 if pairs else step
        while s >= _STEP_FLOOR and rec["ls_trials"] < _MAX_LS_TRIALS:
            trial = PlateState(ctx.plate, _clip_values(u.dofs + s * d, p.H))
            if np.array_equal(trial.dofs, u.dofs):
                break  # step vanished under clipping/rounding
            ev_t = _evaluate(ctx, trial, k, held)
            rec["ls_trials"] += 1
            if ev_t["pf"].factor is not held:
                rec["factorizations"] += 1
                held = None
            rec["cg_iterations"] += ev_t["pf"].cg_iterations
            delta = ev_t["E_k"] - ev["E_k"]
            pred = float(r @ (trial.dofs - u.dofs))
            armijo = delta <= _ARMIJO_C1 * pred if pred < 0.0 else delta < 0.0
            if delta < 0.0 and armijo:
                accepted = (trial, ev_t, None)
                break
            # near a minimizer the decrease can fall below the energy's rounding
            # noise before the residual reaches tol: a trial whose change is
            # noise is accepted when it is itself stationary within tol
            if abs(delta) <= noise:
                cert_t = _certify(ctx, trial, ev_t)
                if cert_t["vi"] <= cert_t["tol"]:
                    accepted = (trial, ev_t, cert_t)
                    break
            s *= _SHRINK
        if accepted is None:
            raise StalledDescent(
                f"backtracking floor reached at residual {vi:.3e} (tol {tol:.3e})",
                state=u, report=_report(ev, cert, k, iterations=it - 1, trajectory=trajectory),
            )
        u, ev, cert = accepted
        step = min(s * _GROW, 64.0 * _STEP0)

    cert = cert if cert is not None else _certify(ctx, u, ev)
    report = _report(ev, cert, k, iterations=st.max_outer, trajectory=trajectory)
    raise MaxIterations(
        f"outer cap {st.max_outer} reached at residual {cert['vi']:.3e}", state=u, report=report
    )


# -- coercivity ------------------------------------------------------------------


def coercivity_constant(ctx: SolveContext, k: float) -> float:
    """Explicit constant c(k) in the lower bound of the regularized energy."""
    p, c = ctx.p, ctx.constants
    measure = 2.0 * p.L
    return 1.5 * (p.d + 1.0) * c.sigma_bar * c.m1 * measure + 0.5 * c.A * k**2 * measure


def coercivity_check(u: PlateState, k: float, ctx: SolveContext) -> dict:
    """Verify E_k(u) >= (beta/4)||u''||^2 + (A/4)||(u-k)_+||^2 - c(k)."""
    ev = _evaluate(ctx, u, k)
    curv_sq = mechanical_energy(u, 2.0, 0.0)          # ||u''||^2
    pen_sq = 0.0
    if ctx.constants.A > 0.0:
        pen_sq = 2.0 * ev["pen_value"] / ctx.constants.A  # ||(u-k)_+||^2
    ck = coercivity_constant(ctx, k)
    lhs = ev["E_k"]
    rhs = 0.25 * ctx.p.beta * curv_sq + 0.25 * ctx.constants.A * pen_sq - ck
    ok = lhs >= rhs - 1e-8 * (1.0 + abs(rhs))
    return {
        "lhs_E_k": lhs, "rhs_bound": rhs, "margin": lhs - rhs, "c_k": ck, "pass": bool(ok),
    }


# -- continuation ------------------------------------------------------------------


def continuation_pipeline(
    ctx: SolveContext, u0: PlateState = None
) -> tuple[PlateState, EnergyReport, dict]:
    """Minimize at the certified regularization level and check it was inert.

    Picks k = max(kappa0, H), minimizes from u0 (the rest state when None),
    verifies the sup bound on a fine element sampling and that the penalty
    never activated.  A descent that stops short keeps its last iterate, and
    the certificate's ``status`` names the failure (``StalledDescent`` or
    ``MaxIterations``; ``converged`` otherwise).  ``certified`` is the
    verdict: the state is a certified stationary state of the plain energy
    (first-order stationarity and the sup bound), and the certificate holds
    every number needed to re-check the claim.
    """
    c = ctx.constants
    k = max(c.kappa0, ctx.p.H)
    status = "converged"
    try:
        u, report = minimize_Ek(ctx.zero_state() if u0 is None else u0, k, ctx)
    except DescentFailed as exc:
        u, report, status = exc.state, exc.report, type(exc).__name__

    _, dense = u.sample_dense(16)
    sup_u = float(np.max(np.abs(dense)))
    # the constants are certified on deflections up to w_max, which derive_constants
    # sets >= 2 max(kappa0, H) unless given one: a state beyond it also fails the
    # sup bound, so it is flagged and its constants are not re-derived
    within_w_max = bool(sup_u <= c.w_max)
    sub_nodal = float(max(0.0, -(dense.min() + ctx.p.H)))
    bound_ok = bool(sup_u <= c.kappa0 * (1.0 + 1e-12))
    if u0 is None:
        # a descent from rest cannot end above it, and its first record holds E(0)
        E_rest = report.trajectory[0]["E_m"] + report.trajectory[0]["E_e"]
    else:
        E_rest = _evaluate(ctx, ctx.zero_state(), k)["E"]
    ck = coercivity_constant(ctx, k)
    lower_ok, below_rest = bool(report.E >= -ck), bool(report.E <= E_rest)
    certified = all((report.converged, bound_ok, not report.reg_active, lower_ok, below_rest, within_w_max))
    certificate = {
        "status": status,
        "certified": certified,
        "k": k,
        "kappa0": c.kappa0,
        "sup_abs_u": sup_u,
        "min_u": float(dense.min()),
        "sub_nodal_violation": sub_nodal,
        "bound_pass": bound_ok,
        "reg_active": report.reg_active,
        "vi_residual": report.vi_residual,
        "trace_residual": report.trace_residual,
        "tol_vi": report.tol_vi,
        "converged": report.converged,
        "iterations": report.iterations,
        "E_m": report.E_m,
        "E_e": report.E_e,
        "E": report.E,
        "E_k": report.E_k,
        "E_rest": E_rest,
        "energy_below_rest": below_rest,
        "c_kappa0": ck,
        "lower_bound_pass": lower_ok,
        "n_contact_nodes": report.n_contact_nodes,
        "within_certified_range": within_w_max,
        "constants": c.as_dict(),
        "grid": ctx.grid_sizes(),
    }
    return u, report, certificate
