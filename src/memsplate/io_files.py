"""File formats: CSV state serialization, the potential as .npy, JSON reports, config parsing.

CSV columns carry both a human-readable decimal field and a hex-float field;
readers prefer the hex column, so round trips are bitwise exact.  The nodal
potential is one float64 array in NumPy's ``.npy`` format, which reads back
bit for bit with ``np.load(path, allow_pickle=False)``; its coordinates live
in ``psi_meta.json`` and ``contact.csv``.  JSON uses Python's shortest-repr
floats, which also round-trip.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleState, MalformedState
from .fields import FieldGrid, PotentialField
from .forces import ForceProfile
from .hermite import PlateGrid, PlateState
from .minimize import SolverSettings
from .params import PhysicalParams

__all__ = [
    "columns_to_csv",
    "write_plate_csv", "read_plate_csv",
    "write_potential_npy",
    "write_force_csv", "write_contact_csv",
    "write_json", "write_trajectory", "sha256_of",
    "ConfigBundle", "parse_config",
]


def columns_to_csv(path, header: list, columns: list):
    """CSV with a header row and one row per entry of the equal-length ``columns``.

    Each column goes through ``np.asarray(...).tolist()`` and ``str``, so floats
    are written as their shortest repr; a column whose header ends in ``_hex``
    is written as hex floats, the exact twin of its decimal column.  Rows end
    in ``\\r\\n``, as ``csv.writer`` ends them; no field needs quoting.
    """
    formats = [float.hex if name.endswith("_hex") else str for name in header]
    rows = zip(*(map(fmt, np.asarray(c).tolist()) for fmt, c in zip(formats, columns)))
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in [header, *rows]))


def write_plate_csv(path, state: PlateState):
    columns_to_csv(path, ["x", "u", "du_dx", "u_hex", "du_dx_hex"], [
        state.grid.nodes, state.values, state.slopes, state.values, state.slopes,
    ])


def read_plate_csv(path, grid: PlateGrid = None) -> PlateState:
    """The state of a plate CSV, from its hex columns where a row has them.

    A missing column, a field that does not parse and a non-finite value
    raise MalformedState.
    """
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        missing = [col for col in ("x", "u", "du_dx") if col not in (r.fieldnames or [])]
        if missing:
            raise MalformedState(f"missing column(s) {', '.join(missing)}")
        try:
            rows = [
                (float(row["x"]), float.fromhex(row["u_hex"]), float.fromhex(row["du_dx_hex"]))
                if row.get("u_hex") else (float(row["x"]), float(row["u"]), float(row["du_dx"]))
                for row in r
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedState(f"line {r.line_num}: {exc!r}") from exc
    if len(rows) < 2:
        raise MalformedState(f"{len(rows)} node rows; a plate needs at least 2")
    data = np.array(rows)
    if not np.isfinite(data).all():
        raise MalformedState("non-finite value")
    xs, vals, slopes = data.T
    if grid is None:
        grid = PlateGrid.from_interval(len(xs) - 1, float(xs[0]), float(xs[-1]))
    else:
        if grid.n_nodes != len(xs) or abs(grid.x_left - xs[0]) > 1e-12 or abs(grid.x_right - xs[-1]) > 1e-12:
            raise IncompatibleState("plate CSV does not match the configured grid")
    return PlateState.from_nodal(grid, vals, slopes)


def write_potential_npy(path, pf: PotentialField):
    """Nodal potential as one C-order float64 ``.npy`` array of shape (n_z1 + n_z2 + 1, n_x + 1).

    Rows 0..n_z1 run through the layer from the electrode up to the interface,
    rows n_z1..n_z1 + n_z2 through the gap up to the plate; the interface row,
    which the layer and the gap share, appears once.  Row j <= n_z1 sits at
    z = z1[j] and row n_z1 + j at z = -H + eta[j] * gamma (``z1`` and ``eta``
    in psi_meta.json, x and gamma in contact.csv).
    """
    with open(path, "wb") as fh:
        np.save(fh, np.concatenate([pf.psi1, pf.psi2[1:]]), allow_pickle=False)


def write_contact_csv(path, pf: PotentialField):
    gm = pf.gap
    columns_to_csv(path, ["x", "is_contact", "gamma", "dgamma", "gamma_hex", "dgamma_hex"], [
        gm.x, gm.contact.astype(int), gm.gamma, gm.dgamma, gm.gamma, gm.dgamma,
    ])


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
    columns_to_csv(path, ["x", "g", "branch", "frak_g", "g_hex", "frak_g_hex"], [
        gprof.x, gprof.values, np.where(gprof.contact, "contact", "non-contact"),
        gprof.frak_g, gprof.values, gprof.frak_g,
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
    n_elems: int
    field_grid: FieldGrid
    settings: SolverSettings
    snapshot: dict

    def with_V(self, V: float) -> "ConfigBundle":
        snap = dict(self.snapshot)
        snap["physics"] = dict(snap["physics"], v=float(V))
        return ConfigBundle(
            self.params.with_V(V), self.n_elems, self.field_grid, self.settings, snap,
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

    if "boundary" in cp:
        family = cp["boundary"].get("family", "canonical").strip()
        if family != "canonical":
            raise ConfigError(f"unsupported boundary family '{family}' (only 'canonical')")

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
        "boundary": {"family": "canonical"},
        "grid": {"n_elems": n_elems, "n_x": n_x, "n_z1": n_z1, "n_z2": n_z2},
        "solver": {
            "tol_lin": settings.tol_lin, "max_outer": settings.max_outer,
            "tol_vi_factor": settings.tol_vi_factor,
        },
    }
    return ConfigBundle(params, n_elems, fgrid, settings, snapshot)
