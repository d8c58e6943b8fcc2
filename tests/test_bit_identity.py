"""Pinned bits of a solve and a sweep on the reduced device.

These numbers were recorded on numpy 2.4.6 and scipy 1.17.1, the versions CI
pins.  They hold for any change that keeps every output byte-identical, so a
speed-up that claims to compute the same numbers shows it here.  A change that
moves the rounding of a solve re-records them and says why in CHANGES.md.
"""

import csv
import hashlib
import json

from memsplate.cli import main

REDUCED = """[physics]
beta = 1.0
tau = 0.0
L = 1.0
H = 1.0
d = 1.0
sigma1 = 1.0
sigma2 = 1.0
V = 3.0

[grid]
n_elems = 32
n_x = 32
n_z1 = 16
n_z2 = 16
"""

# (ls_trials, cg_iterations) of each trajectory record of the 3 V solve
SOLVE_3V_STEPS = [(1, 6), (1, 6), (1, 6), (2, 12), (2, 12), (1, 6), (2, 12), (1, 6), (2, 12), (2, 12), (1, 6),
                  (2, 12), (0, 0)]
# each point of the 0 -> 11.6 V six-step sweep: its directory, status, E and the sha256 of its u.csv
SWEEP_POINTS = [
    ("V_0", "converged", "0x0.0p+0", "44fa69b19839e64203de78adb8024d33338ca5995b0ae8af3695ead1b28cddd2"),
    ("V_2.32", "converged", "-0x1.59dc8fab86c5ep+1", "7d3d6b5475d28421b07fe60e9aad3b9eb0a06bcb7e8e49cc5032ed66fe580cd6"),
    ("V_4.64", "converged", "-0x1.6007ae419372dp+3", "ccde02ff07832713b4e586c0aa79498aa72ebdb4bf54376252ee40b7b1922623"),
    ("V_6.96", "converged", "-0x1.0493a3a3cb9e7p+5", "96eeaef827844569de488346a50af77a8e0fba3620a81f380d6a348c92c28974"),
    ("V_9.28", "converged", "-0x1.10e7e84700b7ap+6", "78fc67db83f1a36253cb746de6e65b69dc6ebadd8736e5615a5987d3cad59bec"),
    ("V_11.6", "converged", "-0x1.d1598a572149cp+6", "38eaa46387a9062172fe4a9ef8467b3873b7b0991625787ff00235034c357f36"),
]


def test_reduced_solve_keeps_its_bits(tmp_path):
    cfg = tmp_path / "reduced.ini"
    cfg.write_text(REDUCED)
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    energy = json.loads((out / "energy.json").read_text())
    assert (energy["E"].hex(), energy["iterations"]) == ("-0x1.220d6bb551714p+2", 12)
    records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
    assert [(r["ls_trials"], r["cg_iterations"]) for r in records] == SOLVE_3V_STEPS


def test_reduced_sweep_keeps_its_bits(tmp_path):
    cfg = tmp_path / "reduced.ini"
    cfg.write_text(REDUCED)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--vmin", "0", "--vmax", "11.6", "--steps", "6",
                 "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        names = [f"V_{float(r['V']):.6g}" for r in csv.DictReader(fh)]
    seen = []
    for name in names:
        point = json.loads((out / name / "point.json").read_text())
        digest = hashlib.sha256((out / name / "u.csv").read_bytes()).hexdigest()
        seen.append((name, point["status"], point["E"].hex(), digest))
    assert seen == SWEEP_POINTS
