"""The three benchmark workloads: inputs from a seed, the timed body, the correctness gate.

Every workload drives the user path, ``memsplate.cli.main`` called in-process.
A run draws one *round* of inputs from its seed and repeats that round until
its time is up.  Rounds are identical, so per-round counts are exact and the
spread of round times is noise, not input variation.  Inputs are stratified
across their band so that different seeds give rounds of similar work.
"""

from __future__ import annotations

import csv
import json
import logging
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The default device of the README: 128 plate elements, 128 x 64 x 64 field cells.
DEFAULT_DEVICE = {"n_elems": 128, "n_x": 128, "n_z1": 64, "n_z2": 64}
# The reduced device of the sweep and verify workloads.  A 0 -> 11 V sweep at
# the default device takes about 38 s, longer than one run may last; this one
# keeps the contact branch, the stalls and the per-row rebuilds and takes ~4 s.
REDUCED_DEVICE = {"n_elems": 32, "n_x": 32, "n_z1": 16, "n_z2": 16}

# precontact_solve draws one voltage from each pair of this 0.25 V grid over
# the contact-free band; references.json holds the energy of every grid point.
PRECONTACT_VOLTS = tuple(1.0 + 0.25 * i for i in range(16))
SWEEP_STEPS = 6
SWEEP_VMAX_STRATA = ((10.0, 11.0), (11.0, 12.0))
VERIFY_PRE_BAND = (1.0, 5.0)
VERIFY_CONTACT_BAND = (10.0, 12.0)

H = 1.0  # gap height of every generated device

def config_text(V: float, device: dict) -> str:
    """A device config: the README physics, the given grid, solver defaults."""
    return (
        "[physics]\n"
        "beta = 1.0\ntau = 0.0\nL = 1.0\n"
        f"H = {H!r}\nd = 1.0\nsigma1 = 1.0\nsigma2 = 1.0\nV = {V!r}\n\n"
        "[grid]\n"
        f"n_elems = {device['n_elems']}\nn_x = {device['n_x']}\n"
        f"n_z1 = {device['n_z1']}\nn_z2 = {device['n_z2']}\n"
    )


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def min_nodal_value(u_csv: Path) -> float:
    """Smallest nodal deflection of a stored state (exact, from the hex column)."""
    with open(u_csv, newline="") as fh:
        return min(float.fromhex(row["u_hex"]) for row in csv.DictReader(fh))


@dataclass
class Call:
    """One timed CLI command, the wall time of each state operation in it, and what the gate found."""

    wall_s: float
    cpu_s: float
    state_walls: list
    failed: int
    problems: list


class PointClock(logging.Handler):
    """Timestamps the per-point progress lines ``memsplate sweep`` logs.

    The sweep logs ``V=...`` once a point is done, so the gaps between these
    records are the per-point wall times, read from the program's own output
    without wrapping anything.
    """

    def __init__(self):
        super().__init__(logging.INFO)
        self.stamps = []

    def emit(self, record):
        if record.name == "memsplate" and str(record.msg).startswith("V="):
            self.stamps.append(time.perf_counter())


def read_points(out: Path) -> list:
    """(point.json, its directory) of every sweep point, in voltage order."""
    points = [(read_json(p), p.parent) for p in out.glob("V_*/point.json")]
    return sorted(points, key=lambda pd: pd[0]["V"])


def sweep_argv(config: Path, vmax: float, out: Path) -> list:
    return [
        "sweep", "--config", str(config), "--vmin", "0", "--vmax", repr(vmax),
        "--steps", str(SWEEP_STEPS), "--out", str(out), "--workers", "1",
    ]


def fresh(path: Path) -> Path:
    """An output directory with nothing left from an earlier round."""
    shutil.rmtree(path, ignore_errors=True)
    return path


def _call(cli_main, argv):
    """Run one CLI command; returns (exit code, wall s, cpu s)."""
    t0, c0 = time.perf_counter(), time.process_time()
    rc = cli_main(argv)
    return rc, time.perf_counter() - t0, time.process_time() - c0


def warm_up(cli_main, config: Path, workdir: Path) -> None:
    """One untimed solve, so that first-call costs do not land in the first round."""
    _call(cli_main, ["solve", "--config", str(config), "--out", str(workdir / "warm_up")])


class Workload:
    """Base: a seeded round of inputs, prepared once, run any number of times."""

    name = ""
    device = REDUCED_DEVICE

    def __init__(self, seed: int, workdir: Path, device: dict = None, references: dict = None):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        if device is not None:
            self.device = device
        self.references = references
        self.inputs = self.draw()

    def draw(self) -> dict:
        raise NotImplementedError

    def setup_config(self) -> Path:
        """The config whose make_context set-up time is ``setup_s``."""
        raise NotImplementedError

    def prepare(self, cli_main) -> None:
        """Untimed work before the first round (inputs the program must produce)."""

    def run_round(self, cli_main) -> list:
        """One round of CLI calls; returns a Call for each."""
        raise NotImplementedError

    def write_config(self, name: str, V: float) -> Path:
        path = self.workdir / name
        path.write_text(config_text(V, self.device))
        return path


class PrecontactSolve(Workload):
    """Cold ``memsplate solve`` of the default device, one voltage per 0.5 V stratum of 1-5 V."""

    name = "precontact_solve"
    device = DEFAULT_DEVICE

    def draw(self):
        pairs = [PRECONTACT_VOLTS[i:i + 2] for i in range(0, len(PRECONTACT_VOLTS), 2)]
        return {"volts": [float(pair[self.rng.integers(2)]) for pair in pairs]}

    def setup_config(self):
        return self.write_config("setup.ini", self.inputs["volts"][0])

    def prepare(self, cli_main):
        self.configs = [self.write_config(f"solve_{i}.ini", V) for i, V in enumerate(self.inputs["volts"])]
        warm_up(cli_main, self.configs[0], self.workdir)

    def run_round(self, cli_main):
        calls = []
        for i, (V, cfg) in enumerate(zip(self.inputs["volts"], self.configs)):
            out = fresh(self.workdir / f"solve_{i}")
            rc, wall, cpu = _call(cli_main, ["solve", "--config", str(cfg), "--out", str(out)])
            problems = [] if rc == 0 else [f"solve V={V}: exit {rc}"]
            if rc == 0:
                problems += self.check(V, out)
            calls.append(Call(wall, cpu, [wall], int(rc != 0), problems))
        return calls

    def check(self, V: float, out: Path) -> list:
        """Certificate flags, and E against the reference energy of the seed commit."""
        cert = read_json(out / "certificate.json")
        energy = read_json(out / "energy.json")
        problems = []
        flags = {
            "converged": cert["converged"],
            "bound_pass": cert["bound_pass"],
            "reg_inactive": not cert["reg_active"],
            "lower_bound_pass": cert["lower_bound_pass"],
            "energy_below_rest": cert["energy_below_rest"],
            "within_certified_range": cert["within_certified_range"],
            "vi_within_tol": cert["vi_residual"] <= cert["tol_vi"],
        }
        problems += [f"solve V={V}: certificate {k} false" for k, ok in flags.items() if not ok]
        if self.references is not None:
            ref = self.references.get(repr(V))
            if ref is None:
                problems.append(f"solve V={V}: no reference energy")
            else:
                tol_lin = read_json(out / "manifest.json")["config"]["solver"]["tol_lin"]
                tol = energy_tolerance(ref, cert["tol_vi"], tol_lin)
                if not abs(energy["E"] - ref) <= tol:
                    problems.append(f"solve V={V}: E={energy['E']!r} vs reference {ref!r} (tol {tol:.3g})")
        return problems


def energy_tolerance(E_ref: float, tol_vi: float, tol_lin: float) -> float:
    """How far a certified E may sit from the reference, from the solver's own tolerances.

    Two iterates that both pass the stationarity test at ``tol_vi`` differ in
    energy by O(tol_vi^2) in the energy norm, and a field solve at relative
    residual ``tol_lin`` moves the field energy by at most O(tol_lin) of it; so
    (tol_vi + tol_lin) relative to max(1, |E|) bounds every legitimate change
    of algorithm, ordering or threading with room to spare.
    """
    return (tol_vi + tol_lin) * max(1.0, abs(E_ref))


class TouchdownSweep(Workload):
    """Serial warm-started ``memsplate sweep`` 0 -> vmax in 6 steps, one vmax per stratum."""

    name = "touchdown_sweep"

    def draw(self):
        return {"vmax": [float(self.rng.uniform(lo, hi)) for lo, hi in SWEEP_VMAX_STRATA]}

    def setup_config(self):
        return self.config

    def prepare(self, cli_main):
        self.config = self.write_config("sweep.ini", 0.0)
        warm_up(cli_main, self.write_config("warm_up.ini", self.inputs["vmax"][0] / (SWEEP_STEPS - 1)), self.workdir)

    def run_round(self, cli_main):
        calls = []
        for i, vmax in enumerate(self.inputs["vmax"]):
            out = fresh(self.workdir / f"sweep_{i}")
            clock = PointClock()
            log = logging.getLogger("memsplate")
            level = log.level
            log.setLevel(logging.INFO)  # the point lines are logged at info
            log.addHandler(clock)
            try:
                t0 = time.perf_counter()
                rc, wall, cpu = _call(cli_main, sweep_argv(self.config, vmax, out))
            finally:
                log.removeHandler(clock)
                log.setLevel(level)
            if len(clock.stamps) != SWEEP_STEPS:
                raise RuntimeError(
                    f"sweep logged {len(clock.stamps)} point lines, expected {SWEEP_STEPS}; "
                    "per-point times come from these lines"
                )
            stamps = [t0] + clock.stamps
            # status comes from each point.json: the exit code is 0 while points stall
            points = [p for p, _ in read_points(out)]
            problems = [f"sweep vmax={vmax!r}: exit {rc}"] if rc not in (0, 3) else []
            problems += self.check(vmax, points)
            calls.append(Call(
                wall, cpu, [b - a for a, b in zip(stamps, stamps[1:])],
                sum(p["status"] != "converged" for p in points), problems,
            ))
        return calls

    def check(self, vmax: float, points: list) -> list:
        """Contact sets are intervals, u >= -H, and the top voltage has touched down."""
        problems = []
        if len(points) != SWEEP_STEPS:
            return [f"sweep vmax={vmax!r}: {len(points)} point.json files, expected {SWEEP_STEPS}"]
        for p in points:
            tag = f"sweep point V={p['V']!r}"
            if not p["is_interval"]:
                problems.append(f"{tag}: contact set is not an interval")
            if not p["min_u"] >= -H:
                problems.append(f"{tag}: min_u={p['min_u']!r} below -H")
            if p["status"] not in ("converged", "StalledDescent", "MaxIterations"):
                problems.append(f"{tag}: unknown status {p['status']!r}")
        if not points[-1]["min_u"] <= -H * (1.0 - 1e-9):
            problems.append(f"sweep vmax={vmax!r}: top point has not touched down")
        return problems


class VerifyBattery(Workload):
    """``memsplate verify`` on one pre-contact and one contact state, each against its own config."""

    name = "verify_battery"

    def draw(self):
        return {
            "V_pre": float(self.rng.uniform(*VERIFY_PRE_BAND)),
            "V_contact": float(self.rng.uniform(*VERIFY_CONTACT_BAND)),
        }

    def setup_config(self):
        return self.states[0][0]

    def prepare(self, cli_main):
        """Solve both states; this work is not timed and not counted.

        The pre-contact state is a cold ``solve``.  A cold solve above pull-in
        can stall before it reaches the layer, so the contact state is the top
        point of a warm-started ``sweep`` to its voltage, whose config it shares.
        Either may end stalled (exit 3) and still write its state.
        """
        self.states = []
        for tag in ("pre", "contact"):
            V = self.inputs[f"V_{tag}"]
            cfg = self.write_config(f"{tag}.ini", V)
            out = self.workdir / f"state_{tag}"
            if tag == "pre":
                rc, _, _ = _call(cli_main, ["solve", "--config", str(cfg), "--out", str(out)])
                state = out / "u.csv"
            else:
                rc, _, _ = _call(cli_main, sweep_argv(cfg, V, out))
                points = read_points(out)
                state = points[-1][1] / "u.csv" if points else out / "u.csv"
            if rc not in (0, 3) or not state.is_file():
                raise RuntimeError(f"could not produce the {tag} state at V={V!r} (exit {rc})")
            touches = min_nodal_value(state) <= -H
            if touches != (tag == "contact"):
                raise RuntimeError(f"the {tag} state at V={V!r} has touches_down={touches}")
            self.states.append((cfg, state, tag))

    def run_round(self, cli_main):
        calls = []
        for cfg, state, tag in self.states:
            out = fresh(self.workdir / f"verify_{tag}")
            rc, wall, cpu = _call(cli_main, ["verify", "--config", str(cfg), "--state", str(state), "--out", str(out)])
            report = out / "verify_report.json"
            passed = rc == 0 and report.is_file() and read_json(report)["mandatory_pass"]
            problems = [] if passed else [f"verify {tag}: exit {rc}, mandatory checks did not all pass"]
            calls.append(Call(wall, cpu, [wall], int(not passed), problems))
        return calls


WORKLOADS = {cls.name: cls for cls in (PrecontactSolve, TouchdownSweep, VerifyBattery)}
