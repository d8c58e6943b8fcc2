"""Command-line front end: solve, sweep, verify.

Exit codes: 0 success, 2 configuration / input error, 3 solver failure
(for a sweep: any point that did not converge), 4 certificate failure
(for a sweep: any point not certified), 5 verification failure or
incompatible state.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    IncompatibleState,
    MalformedState,
    MemsPlateError,
    UnboundedGrowth,
)
from .hermite import PlateState
from .io_files import (
    ConfigBundle,
    columns_to_csv,
    parse_config,
    potential_meta,
    read_plate_csv,
    sha256_of,
    write_contact_csv,
    write_force_csv,
    write_json,
    write_plate_csv,
    write_potential_npy,
    write_trajectory,
)
from .minimize import EnergyReport, SolveContext, continuation_pipeline, make_context
from .params import DerivedConstants, derive_constants
from .verify import check_coincidence_interval, run_suite

log = logging.getLogger("memsplate")


def _setup_logging():
    level = os.environ.get("MEMS_LOG_LEVEL", "info").strip().lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=mapping.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _constants_of(bundle: ConfigBundle) -> DerivedConstants:
    """The derived constants of a config; a constant that overflows is a config error."""
    p = bundle.params
    try:
        return derive_constants(p)
    except UnboundedGrowth as exc:
        raise ConfigError(f"V={p.V:g}: {exc}") from exc


def _context_from_bundle(bundle: ConfigBundle, constants: DerivedConstants = None) -> SolveContext:
    """The solve context of a config, with its constants if they are already derived."""
    return make_context(
        bundle.params,
        constants=constants if constants is not None else _constants_of(bundle),
        n_elems=bundle.n_elems,
        field_grid=bundle.field_grid,
        settings=bundle.settings,
    )


def _manifest(bundle: ConfigBundle, ctx: SolveContext, outdir: Path, files: list, timings: dict) -> dict:
    return {
        "tool": "memsplate",
        "version": __version__,
        "config": bundle.snapshot,
        "constants": ctx.constants.as_dict(),
        "grid": ctx.grid_sizes(),
        "outputs": {
            name: {"path": name, "sha256": sha256_of(outdir / name)} for name in sorted(files)
        },
        "timings": timings,
    }


def _write_state_outputs(u, report: EnergyReport, outdir: Path) -> list:
    """u.csv, psi.npy, g.csv, contact.csv, psi_meta.json for one state and its report."""
    pf = report.potential
    write_plate_csv(outdir / "u.csv", u)
    write_potential_npy(outdir / "psi.npy", pf)
    write_contact_csv(outdir / "contact.csv", pf)
    write_json(outdir / "psi_meta.json", potential_meta(pf))
    write_force_csv(outdir / "g.csv", report.force)
    return ["u.csv", "psi.npy", "contact.csv", "psi_meta.json", "g.csv"]


def cmd_solve(args) -> int:
    t_start, cpu_start = time.time(), time.process_time()
    bundle = parse_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t_setup = time.time()
    ctx = _context_from_bundle(bundle)

    t_solve = time.time()
    try:
        u, report, certificate = continuation_pipeline(ctx)
    except MemsPlateError as exc:
        log.error("solver failed: %s", exc)
        return 3
    t_solved = time.time()

    files = _write_state_outputs(u, report, outdir)
    write_json(outdir / "energy.json", report.as_dict())
    write_json(outdir / "certificate.json", certificate)
    write_trajectory(outdir / "trajectory.jsonl", report.trajectory)
    files += ["energy.json", "certificate.json", "trajectory.jsonl"]

    timings = {
        "total_s": time.time() - t_start, "setup_s": t_solve - t_setup, "solve_s": t_solved - t_solve,
        "write_s": time.time() - t_solved, "cpu_s": time.process_time() - cpu_start,
    }
    write_json(outdir / "manifest.json", _manifest(bundle, ctx, outdir, files, timings))
    converged = certificate["status"] == "converged"
    log.log(
        logging.INFO if converged else logging.ERROR,
        "%s: E=%.8g vi=%.3e (tol %.1e) iterations=%d certified=%s", certificate["status"],
        report.E, report.vi_residual, report.tol_vi, report.iterations, certificate["certified"],
    )
    if certificate["certified"]:
        return 0
    return 4 if converged else 3


def _sweep_point(bundle: ConfigBundle, constants: DerivedConstants) -> dict:
    """One sweep voltage, cold-started (used by the process pool)."""
    return _run_sweep_point(_context_from_bundle(bundle, constants), None, bundle.params.V)


def _run_sweep_point(ctx: SolveContext, warm: PlateState, V: float) -> dict:
    """One sweep point from ``warm`` (rest when None): its row, certificate and state."""
    u, report, certificate = continuation_pipeline(ctx, warm)
    coin = check_coincidence_interval(u, ctx.p.H)
    return {
        "V": V,
        "status": certificate["status"],
        "certified": certificate["certified"],
        "E": report.E, "E_m": report.E_m, "E_e": report.E_e,
        "min_u": float(u.values.min()),
        "contact_measure": coin.n_contact * ctx.plate.h,
        "is_interval": coin.is_interval,
        "vi_residual": report.vi_residual,
        "iterations": report.iterations,
        "certificate": certificate,
        "dofs": u.dofs.tolist(),
    }


def _log_point(row: dict) -> None:
    """One line per sweep point; a point that is not certified logs at error level."""
    log.log(
        logging.INFO if row["certified"] else logging.ERROR,
        "V=%.4g: %s certified=%s min_u=%.5f contact=%.4g", row["V"], row["status"],
        row["certified"], row["min_u"], row["contact_measure"],
    )


def cmd_sweep(args) -> int:
    t_start, cpu_start = time.time(), time.process_time()
    bundle = parse_config(args.config)
    # either end may be the higher: vmin > vmax sweeps downward
    if not all(0.0 <= V < math.inf for V in (args.vmin, args.vmax)) or args.steps < 1 or args.workers < 1:
        log.error("need finite vmin >= 0 and vmax >= 0, steps >= 1 and workers >= 1")
        return 2
    volts = [float(V) for V in np.linspace(args.vmin, args.vmax, args.steps)]
    names = [f"V_{V:.6g}" for V in volts]
    if len(set(names)) < len(names):
        log.error("sweep points share an output directory: %s", ", ".join(names))
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    bundles = [bundle.with_V(V) for V in volts]
    # every point's constants before the first solve: a point that cannot be
    # certified fails the sweep before any work is spent
    constants = [_constants_of(b) for b in bundles]

    rows = []
    if args.workers > 1:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, bundles, constants))
        # the workers' CPU time, counted once the pool has reaped them
        done = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu_s = done.ru_utime + done.ru_stime - children.ru_utime - children.ru_stime
        for row in rows:
            _log_point(row)
        # the device grids do not depend on V: the top point's context serves the point files
        ctx = _context_from_bundle(bundles[-1], constants[-1])
    else:
        worker_cpu_s = 0.0
        warm = None
        for b, c in zip(bundles, constants):
            ctx = _context_from_bundle(b, c)
            row = _run_sweep_point(ctx, warm, b.params.V)
            warm = PlateState(ctx.plate, np.array(row["dofs"]))
            rows.append(row)
            _log_point(row)

    header = [
        "V", "E", "E_m", "E_e", "min_u", "contact_measure", "is_interval",
        "status", "certified", "vi_residual", "iterations",
    ]
    columns_to_csv(outdir / "sweep.csv", header, [
        [int(r[k]) if k in ("is_interval", "certified") else r[k] for r in rows] for k in header
    ])
    files = ["sweep.csv"]

    for name, row in zip(names, rows):
        sub = outdir / name
        sub.mkdir(exist_ok=True)
        write_plate_csv(sub / "u.csv", PlateState(ctx.plate, np.array(row["dofs"])))
        write_json(sub / "point.json", {k: v for k, v in row.items() if k != "dofs"})

    timings = {"total_s": time.time() - t_start, "cpu_s": time.process_time() - cpu_start + worker_cpu_s}
    manifest = _manifest(bundle, ctx, outdir, files, timings)
    manifest["constants"] = [{"V": b.params.V, **c.as_dict()} for b, c in zip(bundles, constants)]
    write_json(outdir / "manifest.json", manifest)

    n_failed = sum(r["status"] != "converged" for r in rows)
    n_certified = sum(r["certified"] for r in rows)
    log.info("sweep finished: %d/%d points certified", n_certified, len(rows))
    if n_failed:
        return 3
    return 0 if n_certified == len(rows) else 4


def cmd_verify(args) -> int:
    bundle = parse_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = _context_from_bundle(bundle)
    try:
        u = read_plate_csv(args.state, ctx.plate)
    except IncompatibleState as exc:
        log.error("state incompatible with config: %s", exc)
        return 5
    except (OSError, MalformedState) as exc:
        log.error("cannot read state %s: %s", args.state, exc)
        return 2

    report = run_suite(u, ctx)
    report["state"] = str(args.state)
    write_json(outdir / "verify_report.json", report)
    for chk in report["checks"]:
        log.info(
            "%-22s %s%s", chk["name"], "pass" if chk.get("pass") else "FAIL",
            "" if chk["mandatory"] else " (advisory)",
        )
    return 0 if report["mandatory_pass"] else 5


def main(argv=None) -> int:
    _setup_logging()
    ap = argparse.ArgumentParser(
        prog="memsplate",
        description="Equilibrium deformations of an electrostatically actuated "
        "plate over a dielectric-coated ground electrode.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize the energy and write the state + certificate")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a voltage range with warm starts")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vmin", type=float, required=True)
    p_sweep.add_argument("--vmax", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification battery on a stored state")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--state", required=True)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
