"""File formats: CSV state serialization, JSON reports, config parsing.

CSV columns carry both a human-readable decimal field and a hex-float field;
readers prefer the hex column, so round trips are bitwise exact.  JSON uses
Python's shortest-repr floats, which also round-trip.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleState
from .fields import FieldGrid, PotentialField
from .forces import ForceProfile
from .hermite import PlateGrid, PlateState
from .minimize import SolverSettings
from .params import PhysicalParams

__all__ = [
    "write_plate_csv", "read_plate_csv",
    "write_potential_csv",
    "write_force_csv", "write_contact_csv",
    "write_json", "write_trajectory", "sha256_of",
    "ConfigBundle", "parse_config",
]


def _hex(v: float) -> str:
    return float(v).hex()


def _fromhex(s: str) -> float:
    return float.fromhex(s)


def write_plate_csv(path, state: PlateState):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "u", "du_dx", "u_hex", "du_dx_hex"])
        for x, v, s in zip(state.grid.nodes, state.values, state.slopes):
            w.writerow([repr(float(x)), repr(float(v)), repr(float(s)), _hex(v), _hex(s)])


def read_plate_csv(path, grid: PlateGrid = None) -> PlateState:
    xs, vals, slopes = [], [], []
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        for row in r:
            xs.append(float(row["x"]))
            if "u_hex" in row and row["u_hex"]:
                vals.append(_fromhex(row["u_hex"]))
                slopes.append(_fromhex(row["du_dx_hex"]))
            else:
                vals.append(float(row["u"]))
                slopes.append(float(row["du_dx"]))
    xs = np.array(xs)
    if grid is None:
        grid = PlateGrid.from_interval(len(xs) - 1, float(xs[0]), float(xs[-1]))
    else:
        if grid.n_nodes != len(xs) or abs(grid.x_left - xs[0]) > 1e-12 or abs(grid.x_right - xs[-1]) > 1e-12:
            raise IncompatibleState("plate CSV does not match the configured grid")
    return PlateState.from_nodal(grid, np.array(vals), np.array(slopes))


def write_potential_csv(path, pf: PotentialField, H: float):
    """Nodal potential in physical coordinates, region-tagged."""
    z2 = pf.z2_physical(H)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "z", "region", "psi", "psi_hex"])
        for j, z in enumerate(pf.z1):
            for i, x in enumerate(pf.x):
                w.writerow([repr(float(x)), repr(float(z)), 1, repr(float(pf.psi1[j, i])), _hex(pf.psi1[j, i])])
        for j in range(len(pf.eta)):
            for i, x in enumerate(pf.x):
                w.writerow([
                    repr(float(x)), repr(float(z2[j, i])), 2,
                    repr(float(pf.psi2[j, i])), _hex(pf.psi2[j, i]),
                ])


def write_contact_csv(path, pf: PotentialField):
    gm = pf.gap
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "is_contact", "gamma", "dgamma", "gamma_hex", "dgamma_hex"])
        for x, c, g, dg in zip(gm.x, gm.contact, gm.gamma, gm.dgamma):
            w.writerow([repr(float(x)), int(c), repr(float(g)), repr(float(dg)), _hex(g), _hex(dg)])


def potential_meta(pf: PotentialField) -> dict:
    return {
        "n_x": len(pf.x) - 1, "n_z1": len(pf.z1) - 1, "n_z2": len(pf.eta) - 1,
        "z1": [float(v) for v in pf.z1], "eta": [float(v) for v in pf.eta],
        "eps_contact": pf.gap.eps_contact,
        "interface_flux": pf.interface_flux.tolist(),
        "interface_flux_gap": pf.interface_flux_gap.tolist(),
        "top_trace_dz": pf.top_trace_dz.tolist(),
        "bottom_trace_dz1": pf.bottom_trace_dz1.tolist(),
        "boundary_inf": pf.boundary_inf, "boundary_sup": pf.boundary_sup,
        "residual": pf.residual,
    }


def write_force_csv(path, gprof: ForceProfile):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "g", "branch", "frak_g", "g_hex", "frak_g_hex"])
        for x, g, c, fg in zip(gprof.x, gprof.values, gprof.contact, gprof.frak_g):
            w.writerow([
                repr(float(x)), repr(float(g)), "contact" if c else "non-contact",
                repr(float(fg)), _hex(g), _hex(fg),
            ])


class _NanSafeEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, cls=_NanSafeEncoder)
        fh.write("\n")


def write_trajectory(path, trajectory: list):
    """Line-delimited records, one per outer iteration."""
    with open(path, "w") as fh:
        for rec in trajectory:
            fh.write(json.dumps(rec, sort_keys=True, cls=_NanSafeEncoder))
            fh.write("\n")


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- configuration -----------------------------------------------------------------

_PHYSICS_KEYS = ("beta", "tau", "l", "h", "d", "sigma1", "sigma2", "v")
_BOUNDARY_KEYS = ("family",)
_GRID_KEYS = ("n_elems", "n_x", "n_z1", "n_z2")
_SOLVER_KEYS = ("tol_lin", "max_outer", "tol_vi_factor")


@dataclass
class ConfigBundle:
    """Everything a run needs, parsed and validated."""

    params: PhysicalParams
    family_tag: str
    n_elems: int
    field_grid: FieldGrid
    settings: SolverSettings
    snapshot: dict

    def with_V(self, V: float) -> "ConfigBundle":
        snap = dict(self.snapshot)
        snap["physics"] = dict(snap["physics"], v=float(V))
        return ConfigBundle(
            self.params.with_V(V), self.family_tag, self.n_elems,
            self.field_grid, self.settings, snap,
        )


def parse_config(path) -> ConfigBundle:
    """Strict INI-style config: unknown keys and missing physics are errors."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    known = {
        "physics": _PHYSICS_KEYS, "boundary": _BOUNDARY_KEYS,
        "grid": _GRID_KEYS, "solver": _SOLVER_KEYS,
    }
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key.lower() not in known[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")

    if "physics" not in cp:
        raise ConfigError("missing [physics] section")
    phys = cp["physics"]
    for key in _PHYSICS_KEYS:
        if key not in phys:
            raise ConfigError(f"missing key '{key}' in [physics]")
    try:
        params = PhysicalParams(
            beta=phys.getfloat("beta"), tau=phys.getfloat("tau"),
            L=phys.getfloat("l"), H=phys.getfloat("h"), d=phys.getfloat("d"),
            sigma1=phys.getfloat("sigma1"), sigma2=phys.getfloat("sigma2"),
            V=phys.getfloat("v"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid physics: {exc}") from exc

    family_tag = "canonical"
    if "boundary" in cp:
        family_tag = cp["boundary"].get("family", "canonical").strip()
        if family_tag != "canonical":
            raise ConfigError(f"unsupported boundary family '{family_tag}' (only 'canonical')")

    g = cp["grid"] if "grid" in cp else {}
    try:
        n_elems = int(g.get("n_elems", 128))
        n_x = int(g.get("n_x", n_elems))
        n_z1 = int(g.get("n_z1", 64))
        n_z2 = int(g.get("n_z2", 64))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    if n_elems < 1:
        raise ConfigError("n_elems must be >= 1")
    if n_x % n_elems != 0:
        raise ConfigError("n_x must be a multiple of n_elems")
    try:
        fgrid = FieldGrid(n_x, n_z1, n_z2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    s = cp["solver"] if "solver" in cp else {}
    try:
        settings = SolverSettings(
            max_outer=int(s.get("max_outer", 200)),
            tol_vi_factor=float(s.get("tol_vi_factor", 1e-8)),
            tol_lin=float(s.get("tol_lin", 1e-10)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc

    snapshot = {
        "physics": {k: float(phys.get(k)) for k in _PHYSICS_KEYS},
        "boundary": {"family": family_tag},
        "grid": {"n_elems": n_elems, "n_x": n_x, "n_z1": n_z1, "n_z2": n_z2},
        "solver": {
            "tol_lin": settings.tol_lin, "max_outer": settings.max_outer,
            "tol_vi_factor": settings.tol_vi_factor,
        },
    }
    return ConfigBundle(params, family_tag, n_elems, fgrid, settings, snapshot)
