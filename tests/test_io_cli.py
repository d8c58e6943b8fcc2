import csv
import json

import numpy as np
import pytest

from memsplate import (
    FieldGrid,
    FieldSolver,
    PhysicalParams,
    PlateGrid,
    PlateState,
    build_canonical_boundary_data,
    compute_force,
)
from memsplate.cli import main
from memsplate.errors import ConfigError, MalformedState
from memsplate.io_files import (
    parse_config,
    potential_meta,
    read_plate_csv,
    sha256_of,
    write_contact_csv,
    write_force_csv,
    write_json,
    write_plate_csv,
    write_potential_npy,
)

CONFIG_SMALL = """[physics]
beta = 1.0
tau = 0.0
L = 1.0
H = 1.0
d = 1.0
sigma1 = 1.0
sigma2 = 1.0
V = {V}

[grid]
n_elems = 16
n_x = 16
n_z1 = 8
n_z2 = 8

[solver]
tol_vi_factor = 1e-6
"""


def write_config(tmp_path, V=2.0):
    path = tmp_path / "dev.ini"
    path.write_text(CONFIG_SMALL.format(V=V))
    return str(path)


def test_plate_csv_roundtrip_bitwise(tmp_path, rng):
    g = PlateGrid(13, 1.0)
    u = PlateState(g, rng.standard_normal(g.n_dofs) * np.pi)
    path = tmp_path / "u.csv"
    write_plate_csv(path, u)
    back = read_plate_csv(path)
    assert np.array_equal(back.dofs, u.dofs)
    assert back.grid.n_elems == g.n_elems


def test_potential_roundtrip_bitwise(tmp_path):
    p = PhysicalParams(V=2.0)
    fam = build_canonical_boundary_data(p)
    grid = PlateGrid(8, p.L)
    solver = FieldSolver(p, fam, FieldGrid(8, 4, 6))
    x = grid.nodes
    u = PlateState.from_nodal(grid, 0.25 - 0.5 * x**2, -x)
    pf = solver.solve(u)
    write_potential_npy(tmp_path / "psi.npy", pf)
    write_contact_csv(tmp_path / "contact.csv", pf)
    write_json(tmp_path / "psi_meta.json", potential_meta(pf))
    psi = np.load(tmp_path / "psi.npy", allow_pickle=False)
    assert psi.dtype == np.float64 and psi.flags.c_contiguous
    assert psi.shape == (4 + 6 + 1, 8 + 1)
    # the layer rows, then the gap rows above the interface row they share
    assert np.array_equal(psi[:5], pf.psi1)
    assert np.array_equal(psi[4:], pf.psi2)
    # the coordinates live in the other outputs: gap node (j, i) at -H + eta_j gamma_i
    eta = np.array(json.loads((tmp_path / "psi_meta.json").read_text())["eta"])
    with open(tmp_path / "contact.csv", newline="") as fh:
        cols = list(csv.DictReader(fh))
    gamma = np.array([float.fromhex(r["gamma_hex"]) for r in cols])
    assert np.array_equal(gamma, pf.gap.gamma)
    assert np.array_equal(-p.H + eta[:, None] * gamma[None, :], pf.z2_physical(p.H))
    assert np.array_equal([r["is_contact"] == "1" for r in cols], pf.contact_mask)


def _per_row_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def test_csv_writers_match_per_row_reference(tmp_path):
    # the columnar writers against one formatted row per node, as the files were first written
    p = PhysicalParams(V=2.0)
    grid = PlateGrid(8, p.L)
    x = grid.nodes
    u = PlateState.from_nodal(grid, np.maximum(-1.0, -1.5 + 2.0 * np.abs(x)), np.sin(3.0 * x))
    family = build_canonical_boundary_data(p)
    pf = FieldSolver(p, family, FieldGrid(64, 16, 16)).solve(u)
    gm = pf.gap
    g = compute_force(u, pf, p)
    assert gm.contact.any() and not gm.contact.all()
    assert g.contact.any() and not g.contact.all()
    write_plate_csv(tmp_path / "u.csv", u)
    write_contact_csv(tmp_path / "contact.csv", pf)
    write_force_csv(tmp_path / "g.csv", g)
    _per_row_csv(tmp_path / "u_ref.csv", ["x", "u", "du_dx", "u_hex", "du_dx_hex"], [
        [repr(float(a)), repr(float(v)), repr(float(s)), float(v).hex(), float(s).hex()]
        for a, v, s in zip(x, u.values, u.slopes)
    ])
    _per_row_csv(tmp_path / "contact_ref.csv", ["x", "is_contact", "gamma", "dgamma", "gamma_hex", "dgamma_hex"], [
        [repr(float(a)), int(c), repr(float(g)), repr(float(dg)), float(g).hex(), float(dg).hex()]
        for a, c, g, dg in zip(gm.x, gm.contact, gm.gamma, gm.dgamma)
    ])
    _per_row_csv(tmp_path / "g_ref.csv", ["x", "g", "branch", "g_hex"], [
        [repr(float(a)), repr(float(v)), "contact" if c else "non-contact", float(v).hex()]
        for a, v, c in zip(g.x, g.values, g.contact)
    ])
    for name in ("u", "contact", "g"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes(), name


def test_config_parsing_and_errors(tmp_path):
    cfg = write_config(tmp_path)
    bundle = parse_config(cfg)
    assert bundle.params.V == 2.0 and bundle.n_elems == 16
    assert bundle.field_grid.n_z1 == 8

    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG_SMALL.format(V=1.0) + "\n[physics]\nzeta = 3\n")
    with pytest.raises(ConfigError):
        parse_config(bad)

    missing = tmp_path / "missing.ini"
    missing.write_text("[physics]\ntau = 0.0\nL = 1\nH = 1\nd = 1\nsigma1 = 1\nsigma2 = 1\nV = 1\n")
    with pytest.raises(ConfigError, match="beta"):
        parse_config(missing)

    unknown = tmp_path / "unknown.ini"
    unknown.write_text(CONFIG_SMALL.format(V=1.0).replace("[solver]", "[solver]\nwarp = 9\n"))
    with pytest.raises(ConfigError, match="warp"):
        parse_config(unknown)


def test_cli_solve_zero_voltage(tmp_path):
    cfg = write_config(tmp_path, V=0.0)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    u = read_plate_csv(out / "u.csv")
    assert np.all(u.dofs == 0.0)
    energy = json.loads((out / "energy.json").read_text())
    assert energy["E"] == 0.0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["converged"] and cert["bound_pass"]


def test_cli_solve_malformed_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[physics]\ntau = 0.0\nL = 1\nH = 1\nd = 1\nsigma1 = 1\nsigma2 = 1\nV = 1\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_config_accepts_only_the_canonical_boundary_family(tmp_path):
    text = CONFIG_SMALL.format(V=2.0).replace("[grid]", "[boundary]\nfamily = canonical\n\n[grid]")
    named = tmp_path / "named.ini"
    named.write_text(text)
    # naming the family changes nothing: the snapshot records it either way
    assert parse_config(named).snapshot == parse_config(write_config(tmp_path)).snapshot
    assert parse_config(named).snapshot["boundary"] == {"family": "canonical"}

    user = tmp_path / "user.ini"
    user.write_text(text.replace("family = canonical", "family = user"))
    with pytest.raises(ConfigError, match="user"):
        parse_config(user)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(user), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("V = 2.0", "V = inf", id="V=inf"),
        pytest.param("beta = 1.0", "beta = inf", id="beta=inf"),
        pytest.param("n_elems = 16", "n_elems = 0", id="n_elems=0"),
        pytest.param("n_elems = 16", "n_elems = abc", id="n_elems=abc"),
        pytest.param("n_elems = 16\nn_x = 16", "n_elems = -4\nn_x = 8", id="n_elems=-4"),
        pytest.param("[solver]", "[solver]\ntol_lin = -1", id="tol_lin=-1"),
        pytest.param("[solver]", "[solver]\ntol_lin = inf", id="tol_lin=inf"),
        pytest.param("tol_vi_factor = 1e-6", "tol_vi_factor = inf", id="tol_vi_factor=inf"),
        pytest.param("[solver]", "[solver]\nmax_outer = 0", id="max_outer=0"),
    ],
)
def test_cli_solve_rejects_out_of_range_values(tmp_path, old, new):
    text = CONFIG_SMALL.format(V=2.0)
    assert old in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new))
    with pytest.raises(ConfigError):
        parse_config(bad)
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_cli_solve_and_verify_roundtrip(tmp_path):
    cfg = write_config(tmp_path, V=2.0)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    for name, rec in manifest["outputs"].items():
        assert sha256_of(out / name) == rec["sha256"]

    vout = tmp_path / "vout"
    rc = main(["verify", "--config", cfg, "--state", str(out / "u.csv"), "--out", str(vout)])
    assert rc == 0
    report = json.loads((vout / "verify_report.json").read_text())
    assert report["mandatory_pass"]


def test_cli_verify_corrupted_state(tmp_path):
    cfg = write_config(tmp_path, V=2.0)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    u = read_plate_csv(out / "u.csv")
    u.dofs[16] = -1.4  # push one node below the layer
    write_plate_csv(out / "u_bad.csv", u)
    rc = main(["verify", "--config", cfg, "--state", str(out / "u_bad.csv"), "--out", str(tmp_path / "v2")])
    assert rc == 5


def test_cli_verify_unclamped_state_exits_5(tmp_path):
    cfg = write_config(tmp_path, V=2.0)
    write_plate_csv(tmp_path / "lifted.csv", PlateState.constant(PlateGrid(16, 1.0), 0.3))
    rc = main(["verify", "--config", cfg, "--state", str(tmp_path / "lifted.csv"), "--out", str(tmp_path / "v")])
    assert rc == 5
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    feasibility = {c["name"]: c for c in report["checks"]}["feasibility"]
    assert not report["mandatory_pass"] and not feasibility["pass"]
    assert feasibility["clamped_violation"] == 0.3


def test_cli_verify_incompatible_state(tmp_path):
    cfg = write_config(tmp_path, V=2.0)
    other = PlateState.zero(PlateGrid(24, 1.0))
    write_plate_csv(tmp_path / "other.csv", other)
    rc = main(["verify", "--config", cfg, "--state", str(tmp_path / "other.csv"), "--out", str(tmp_path / "v3")])
    assert rc == 5


def _edited_state_csv(tmp_path, edit):
    """A zero-state u.csv of the small config with ``edit`` applied to its rows."""
    path = tmp_path / "u.csv"
    write_plate_csv(path, PlateState.zero(PlateGrid(16, 1.0)))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda rows: [r[:2] + r[3:] for r in rows], "du_dx", id="missing-column"),
        pytest.param(lambda rows: rows[:3] + [rows[3][:3] + ["0x1.zz"] + rows[3][4:]] + rows[4:],
                     "hexadecimal", id="bad-hex"),
        pytest.param(lambda rows: rows[:3] + [rows[3][:3] + ["nan"] + rows[3][4:]] + rows[4:],
                     "non-finite", id="nan"),
    ],
)
def test_cli_verify_malformed_state_exits_2(tmp_path, edit, message, caplog):
    state = _edited_state_csv(tmp_path, edit)
    with pytest.raises(MalformedState, match=message):
        read_plate_csv(state)
    rc = main(["verify", "--config", write_config(tmp_path), "--state", str(state), "--out", str(tmp_path / "v")])
    assert rc == 2
    assert f"cannot read state {state}" in caplog.text and message in caplog.text


NARROW_GAP_PEAK_CONFIG = """[physics]
beta = 0.785
tau = 2.636
L = 1.628
H = 1.704
d = 0.408
sigma1 = 4.349
sigma2 = 1.538
V = 1.0

[grid]
n_elems = 32
n_x = 32
n_z1 = 16
n_z2 = 16
"""


def test_cli_solve_certifies_a_device_with_a_narrow_gap_peak(tmp_path):
    # its m1 gap ratio peaks at w + H = 0.144 on a working range about 2750 long;
    # a constant sampled on a grid over that range reads as unbounded growth
    cfg = tmp_path / "narrow.ini"
    cfg.write_text(NARROW_GAP_PEAK_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["certified"] and cert["status"] == "converged"


def test_cli_solve_exits_4_beyond_the_certified_range(tmp_path, monkeypatch):
    # a state above w_max: the certificate keeps the context's constants and solve fails
    import memsplate.minimize

    descend = memsplate.minimize.minimize_Ek

    def beyond_w_max(u0, k, ctx):
        u, report = descend(u0, k, ctx)
        return PlateState.constant(u.grid, 2.0 * ctx.constants.w_max), report

    monkeypatch.setattr(memsplate.minimize, "minimize_Ek", beyond_w_max)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path), "--out", str(out)]) == 4
    cert = json.loads((out / "certificate.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert not cert["within_certified_range"] and not cert["bound_pass"]
    assert cert["constants"] == manifest["constants"]


def test_cli_sweep_single_zero_point(tmp_path):
    cfg = write_config(tmp_path, V=0.0)
    sout = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg, "--vmin", "0", "--vmax", "0", "--steps", "1",
               "--out", str(sout)])
    assert rc == 0
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["min_u"]) == 0.0
    assert float(rows[0]["V"]) == 0.0
    assert rows[0]["is_interval"] == "1"
    cpu_s = json.loads((sout / "manifest.json").read_text())["timings"]["cpu_s"]
    assert np.isfinite(cpu_s) and cpu_s >= 0.0


def test_cli_sweep_monotone_loading(tmp_path):
    cfg = write_config(tmp_path, V=0.0)
    sout = tmp_path / "sweep2"
    rc = main(["sweep", "--config", cfg, "--vmin", "0", "--vmax", "3", "--steps", "4",
               "--out", str(sout)])
    assert rc == 0
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["converged"] * 4
    min_us = [float(r["min_u"]) for r in rows]
    assert all(min_us[i + 1] <= min_us[i] + 1e-12 for i in range(len(min_us) - 1))
    # per-point artifacts exist
    assert (sout / "V_0" / "u.csv").exists() or (sout / "V_0.0" / "u.csv").exists()


def test_cli_solve_solves_only_inside_the_descent(tmp_path, monkeypatch):
    import memsplate.minimize

    solves = {"inside": 0, "outside": 0}
    depth = [0]
    solve, minimize_Ek = FieldSolver.solve, memsplate.minimize.minimize_Ek

    def counted_solve(self, *args, **kwargs):
        solves["inside" if depth[0] else "outside"] += 1
        return solve(self, *args, **kwargs)

    def tracked_minimize(*args, **kwargs):
        depth[0] += 1
        try:
            return minimize_Ek(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FieldSolver, "solve", counted_solve)
    monkeypatch.setattr(memsplate.minimize, "minimize_Ek", tracked_minimize)
    assert main(["solve", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]) == 0
    assert solves["inside"] > 0 and solves["outside"] == 0


def test_cli_solve_factors_the_field_once_without_contact(tmp_path, monkeypatch):
    # line-search trials reuse the solver of the first field solve as a CG
    # preconditioner.  That solve is of the flat rest state, whose gap block the
    # sine transform solves without SuperLU, and the layer, whose permittivity
    # does not vary in x, is condensed by the sine transform too: with no layer
    # condensation kept, a contact-free descent makes no SuperLU call at all
    import memsplate.fields

    real = memsplate.fields.spla
    factored = []

    class CountingLinalg:
        def splu(self, A, *args, **kwargs):
            factored.append(A.shape[0])
            return real.splu(A, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(real, name)

    monkeypatch.setattr(memsplate.fields, "spla", CountingLinalg())
    monkeypatch.setattr(memsplate.fields, "_LAYER", None)
    cfg = tmp_path / "dev32.ini"
    cfg.write_text(CONFIG_SMALL.format(V=2.0).replace("n_elems = 16\nn_x = 16\nn_z1 = 8\nn_z2 = 8",
                                                      "n_elems = 32\nn_x = 32\nn_z1 = 16\nn_z2 = 16"))
    out = tmp_path / "o32"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    recs = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["grid"]["n_elems"] == 32 and cert["n_contact_nodes"] == 0
    assert sum(r["ls_trials"] for r in recs) > 1
    assert factored == []
    assert sum(r["factorizations"] for r in recs) == 0


def test_cli_sweep_builds_one_context_per_point(tmp_path, monkeypatch):
    import memsplate.cli

    calls = []
    make_context = memsplate.cli.make_context
    monkeypatch.setattr(
        memsplate.cli, "make_context", lambda *a, **k: calls.append(a) or make_context(*a, **k)
    )
    rc = main(["sweep", "--config", write_config(tmp_path, V=0.0), "--vmin", "0", "--vmax", "0.5",
               "--steps", "6", "--out", str(tmp_path / "s")])
    assert rc == 0
    assert len(calls) == 6


def test_manifest_determinism(tmp_path):
    cfg = write_config(tmp_path, V=1.0)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    for m in (m1, m2):
        # the command's own CPU time beside its wall time
        assert np.isfinite(m["timings"]["cpu_s"]) and m["timings"]["cpu_s"] >= 0.0
    m1.pop("timings"), m2.pop("timings")
    assert m1 == m2


def test_solve_manifest_times_its_phases(tmp_path):
    # building the context and writing the state files are timed beside the solve
    out = tmp_path / "o"
    assert main(["solve", "--config", write_config(tmp_path, V=1.0), "--out", str(out)]) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert {"total_s", "setup_s", "solve_s", "write_s", "cpu_s"} <= timings.keys()
    for name in ("setup_s", "write_s"):
        assert np.isfinite(timings[name]) and timings[name] >= 0.0, name


def test_cli_sweep_descending_range(tmp_path):
    # vmin > vmax sweeps downward: points run and are written in sweep order
    sout = tmp_path / "s"
    rc = main(["sweep", "--config", write_config(tmp_path), "--vmin", "3", "--vmax", "1", "--steps", "2",
               "--out", str(sout)])
    assert rc == 0
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["V"]) for r in rows] == [3.0, 1.0]
    assert [(r["status"], r["certified"]) for r in rows] == [("converged", "1")] * 2
    for name in ("V_3", "V_1"):
        point = json.loads((sout / name / "point.json").read_text())
        assert point["certified"] and point["certificate"]["certified"]


@pytest.mark.parametrize("flag, value", [
    ("--vmin", "nan"), ("--vmax", "nan"), ("--vmin", "inf"), ("--vmax", "inf"), ("--vmin", "-1"),
    ("--workers", "0"), ("--workers", "-3"),
])
def test_cli_sweep_rejects_bad_arguments(tmp_path, caplog, flag, value):
    # a voltage that is not finite and >= 0, or fewer than one worker, is an
    # input error, refused with a message before any output is written
    cfg = write_config(tmp_path)
    args = {"--vmin": "0", "--vmax": "1", "--steps": "2", "--workers": "1", flag: value}
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), *(a for kv in args.items() for a in kv)])
    assert rc == 2
    assert "need finite vmin >= 0 and vmax >= 0, steps >= 1 and workers >= 1" in caplog.text
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("vmin, vmax, steps", [("6", "6.00001", "3"), ("2", "2", "2")])
def test_cli_sweep_rejects_points_sharing_a_directory(tmp_path, caplog, vmin, vmax, steps):
    # point directories are named V_{V:.6g}: two points with one name would
    # overwrite each other, so the sweep is refused before any output
    rc = main(["sweep", "--config", write_config(tmp_path), "--vmin", vmin, "--vmax", vmax, "--steps", steps,
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "sweep points share an output directory" in caplog.text
    assert not (tmp_path / "s").exists()


def test_trajectory_log_schema(tmp_path):
    cfg = write_config(tmp_path, V=2.0)
    out = tmp_path / "outt"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
    assert len(lines) >= 1
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"iter", "E_m", "E_e", "E_k", "step", "vi_residual", "trace_residual",
                            "lin_residual", "n_contact_nodes", "ls_trials", "factorizations",
                            "cg_iterations"}
    recs = [json.loads(line) for line in lines]
    for name in ("trace_residual", "lin_residual"):
        assert all(np.isfinite(r[name]) and r[name] >= 0.0 for r in recs), name
    assert recs[-1]["ls_trials"] == 0 and recs[-1]["factorizations"] == 0
    assert all(r["ls_trials"] >= 1 for r in recs[:-1])
    assert all(0 <= r["factorizations"] <= r["ls_trials"] for r in recs)
    # every trial is solved by CG on the held factor, which runs at least one iteration
    assert recs[-1]["cg_iterations"] == 0
    assert all(r["ls_trials"] <= r["cg_iterations"] <= 12 * r["ls_trials"] for r in recs)


def test_cli_sweep_all_points_fail(tmp_path):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(CONFIG_SMALL.format(V=1.0).replace(
        "tol_vi_factor = 1e-6", "tol_vi_factor = 1e-6\nmax_outer = 1"))
    sout = tmp_path / "sfail"
    rc = main(["sweep", "--config", str(cfg), "--vmin", "1", "--vmax", "2", "--steps", "2",
               "--out", str(sout)])
    assert rc == 3
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["MaxIterations"] * 2
    assert [r["certified"] for r in rows] == ["0"] * 2
    for row in rows:
        assert float(row["vi_residual"]) > 0.0 and int(row["iterations"]) == 1
        point = json.loads((sout / f"V_{float(row['V']):.6g}" / "point.json").read_text())
        assert point["status"] == row["status"] and point["iterations"] == int(row["iterations"])
        assert point["certificate"]["status"] == "MaxIterations" and not point["certificate"]["certified"]


def test_cli_sweep_exits_4_on_an_uncertified_point(tmp_path, monkeypatch, caplog):
    # a point whose descent converges but whose state breaks the sup bound is
    # written, marked uncertified and logged at error level, and the sweep exits 4
    from dataclasses import replace as dc_replace

    import memsplate.cli

    derive = memsplate.cli.derive_constants
    monkeypatch.setattr(memsplate.cli, "derive_constants", lambda p: dc_replace(derive(p), kappa0=1e-9))
    sout = tmp_path / "s"
    rc = main(["sweep", "--config", write_config(tmp_path), "--vmin", "0", "--vmax", "2", "--steps", "2",
               "--out", str(sout)])
    assert rc == 4
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["status"], r["certified"]) for r in rows] == [("converged", "1"), ("converged", "0")]
    cert = json.loads((sout / "V_2" / "point.json").read_text())["certificate"]
    assert cert["converged"] and not cert["bound_pass"] and not cert["certified"]
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("V=2: converged certified=False")


def test_cli_solve_failed_descent_writes_every_output(tmp_path):
    # a descent that stops short exits 3 and still writes its last iterate's
    # field, force, certificate and manifest
    cfg = tmp_path / "capped.ini"
    cfg.write_text(CONFIG_SMALL.format(V=2.0).replace("tol_vi_factor = 1e-6", "tol_vi_factor = 1e-6\nmax_outer = 1"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        "u.csv", "psi.npy", "g.csv", "contact.csv", "psi_meta.json",
        "energy.json", "certificate.json", "trajectory.jsonl",
    }
    for name, entry in manifest["outputs"].items():
        assert sha256_of(out / name) == entry["sha256"]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["status"] == "MaxIterations" and cert["iterations"] == 1
    assert not cert["converged"] and not cert["certified"]
    assert np.any(read_plate_csv(out / "u.csv").values < 0.0)


def test_cli_sweep_parallel_workers(tmp_path):
    # a pooled sweep's cpu_s holds the workers' CPU time as well as its own
    import resource
    import time

    cfg = write_config(tmp_path, V=0.0)
    sout = tmp_path / "spar"
    child0, own0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.process_time()
    rc = main(["sweep", "--config", cfg, "--vmin", "0.5", "--vmax", "1.5", "--steps", "2",
               "--out", str(sout), "--workers", "2"])
    child1, own1 = resource.getrusage(resource.RUSAGE_CHILDREN), time.process_time()
    assert rc == 0
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["V"]) for r in rows] == [0.5, 1.5]
    workers = child1.ru_utime + child1.ru_stime - child0.ru_utime - child0.ru_stime
    cpu_s = json.loads((sout / "manifest.json").read_text())["timings"]["cpu_s"]
    assert workers > 0.0
    assert workers <= cpu_s <= workers + (own1 - own0)


def test_log_level_env(tmp_path, monkeypatch):
    import logging

    monkeypatch.setenv("MEMS_LOG_LEVEL", "debug")
    from memsplate.cli import _setup_logging

    logging.getLogger().handlers.clear()
    _setup_logging()
    assert logging.getLogger().level == logging.DEBUG


@pytest.mark.parametrize("command", ["solve", "verify", "sweep", "sweep-pooled"])
def test_cli_uncertifiable_constants_exit_2(tmp_path, command, caplog):
    # at V = 1e100 the regularization strength A overflows, at V = 1e200 the growth
    # constant m1: derive_constants raises UnboundedGrowth for both
    for V in (1e100, 1e200):
        caplog.clear()
        big = write_config(tmp_path, V=V)
        out = str(tmp_path / f"o{V:g}")
        if command == "solve":
            argv = ["solve", "--config", big, "--out", out]
        elif command == "verify":
            state = tmp_path / "u.csv"
            write_plate_csv(state, PlateState.constant(PlateGrid(16, 1.0), 0.0))
            argv = ["verify", "--config", big, "--state", str(state), "--out", out]
        else:
            argv = ["sweep", "--config", write_config(tmp_path, V=0.0), "--vmin", "0", "--vmax", f"{V:g}",
                    "--steps", "2", "--out", out, "--workers", "2" if command == "sweep-pooled" else "1"]
        assert main(argv) == 2
        assert "config error:" in caplog.text


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_certifies_every_point_before_solving(tmp_path, monkeypatch, workers):
    # the top point's constants cannot be certified: the sweep fails before any solve
    import memsplate.cli
    import memsplate.minimize

    def no_solve(*args, **kwargs):
        raise AssertionError("a sweep point was solved")

    monkeypatch.setattr(memsplate.minimize, "minimize_Ek", no_solve)
    monkeypatch.setattr(memsplate.cli, "ProcessPoolExecutor", no_solve)
    out = tmp_path / "o"
    rc = main(["sweep", "--config", write_config(tmp_path, V=0.0), "--vmin", "0", "--vmax", "1e200",
               "--steps", "2", "--out", str(out), "--workers", workers])
    assert rc == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_builds_no_context_off_its_points(tmp_path, workers):
    # the config's own V is not a sweep point, so its constants are never derived
    out = tmp_path / "o"
    rc = main(["sweep", "--config", write_config(tmp_path, V=1e200), "--vmin", "0", "--vmax", "2",
               "--steps", "2", "--out", str(out), "--workers", workers])
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        assert [float(r["V"]) for r in csv.DictReader(fh)] == [0.0, 2.0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [c["V"] for c in manifest["constants"]] == [0.0, 2.0]
    assert (out / "V_2" / "u.csv").exists() and (out / "V_2" / "point.json").exists()


def _reduced_config(tmp_path) -> str:
    """The 32 / 32x16x16 device at the default tolerance."""
    cfg = tmp_path / "reduced.ini"
    cfg.write_text(
        CONFIG_SMALL.format(V=0.0)
        .replace("n_elems = 16\nn_x = 16\nn_z1 = 8\nn_z2 = 8", "n_elems = 32\nn_x = 32\nn_z1 = 16\nn_z2 = 16")
        .replace("tol_vi_factor = 1e-6\n", "")
    )
    return str(cfg)


@pytest.mark.parametrize("vmax", ["10.65", "11.95"])
def test_cli_sweep_through_touchdown_certifies_every_point(tmp_path, vmax):
    # A warm-started 6-point sweep on the 32 / 32x16x16 device at the default
    # tolerance, past touchdown.  With a kinked floor (w = max(u, eps - H)) the
    # 11.95 V sweep stalled at 9.56 V with residual 7.7e-3.  Without the
    # line search's finishing rule the 10.65 V point stalled at 5.8e-8 against
    # tol 1e-8, its energy changes below rounding.
    sout = tmp_path / "touchdown"
    rc = main(["sweep", "--config", _reduced_config(tmp_path), "--vmin", "0", "--vmax", vmax, "--steps", "6",
               "--out", str(sout)])
    with open(sout / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["converged"] * 6
    assert [r["certified"] for r in rows] == ["1"] * 6
    assert rc == 0
    assert float(rows[-1]["min_u"]) == -1.0 and float(rows[-1]["contact_measure"]) > 0.0


def test_cli_sweep_pull_in_hysteresis(tmp_path):
    # at 5.5 V the reduced device has two certified states: loading from rest
    # leaves the plate free, unloading from 11 V keeps it on the layer at a
    # higher energy; both sweeps start from rest and differ only in direction
    cfg = _reduced_config(tmp_path)
    points = {}
    for tag, vmin, vmax in (("up", "0", "5.5"), ("down", "11", "5.5")):
        out = tmp_path / tag
        assert main(["sweep", "--config", cfg, "--vmin", vmin, "--vmax", vmax, "--steps", "3", "--out", str(out)]) == 0
        points[tag] = json.loads((out / "V_5.5" / "point.json").read_text())
    up, down = points["up"], points["down"]
    assert up["certified"] and down["certified"]
    assert up["E"] == pytest.approx(-15.760622, abs=1e-6) and down["E"] == pytest.approx(-15.703274, abs=1e-6)
    assert up["E"] < down["E"]
    assert up["min_u"] > -0.5 and down["min_u"] < -0.99
    assert up["contact_measure"] == 0.0 < down["contact_measure"]


def test_cli_sweep_certifies_each_state_once(tmp_path, monkeypatch):
    # the 10.65 V point ends on a trial accepted at noise level because it
    # certified; that certificate is handed on, not computed again
    import memsplate.minimize

    seen = []
    certify = memsplate.minimize._certify

    def recording(ctx, u, ev):
        seen.append((ctx.p.V, u.dofs.tobytes()))
        return certify(ctx, u, ev)

    monkeypatch.setattr(memsplate.minimize, "_certify", recording)
    rc = main(["sweep", "--config", _reduced_config(tmp_path), "--vmin", "0", "--vmax", "10.65", "--steps", "6",
               "--out", str(tmp_path / "touchdown")])
    assert rc == 0
    assert len(seen) == len(set(seen))
