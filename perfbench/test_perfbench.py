"""Checks of the benchmark itself, mostly on a tiny grid, so that they run in about two minutes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from tracer import LAYERS, METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS, PrecontactSolve, config_text  # noqa: E402

TINY = {"n_elems": 16, "n_x": 16, "n_z1": 8, "n_z2": 8}
SEED = 1
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = ("fields.solve_calls", "minimize.outer_iterations", "minimize.ls_trials", "minimize.make_context_calls")


def _cli_outputs(cli_main, cfg: Path, out: Path) -> dict:
    """Exit codes and every output that holds no timing or path."""
    rc_solve = cli_main(["solve", "--config", str(cfg), "--out", str(out / "solve")])
    rc_verify = cli_main(["verify", "--config", str(cfg), "--state", str(out / "solve" / "u.csv"),
                          "--out", str(out / "verify")])
    rc_sweep = cli_main(["sweep", "--config", str(cfg), "--vmin", "0", "--vmax", "11", "--steps", "3",
                         "--out", str(out / "sweep"), "--workers", "1"])
    report = json.loads((out / "verify" / "verify_report.json").read_text())
    report.pop("state")
    files = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "verify_report.json")
    }
    return {"rc": (rc_solve, rc_verify, rc_sweep), "report": report, "files": files}


def test_tracing_changes_nothing_and_is_removed(tmp_path):
    import scipy.sparse.linalg

    import memsplate.cli
    import memsplate.fields

    cfg = tmp_path / "device.ini"
    cfg.write_text(config_text(2.0, TINY))
    plain = _cli_outputs(memsplate.cli.main, cfg, tmp_path / "plain")
    tracer = Tracer()
    with tracer:
        traced = _cli_outputs(memsplate.cli.main, cfg, tmp_path / "traced")

    assert plain["rc"] == traced["rc"]
    assert plain["report"] == traced["report"]
    assert plain["files"].keys() == traced["files"].keys()
    for name, data in plain["files"].items():
        assert traced["files"][name] == data, name
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "fields.FieldSolver.solve", "fields.factor", "fields.trisolve",
            "minimize.minimize_Ek", "verify.run_suite", "io_files.write_json"} <= names

    for layer in LAYERS:
        mod = importlib.import_module(f"memsplate.{layer}")
        assert not [k for k, v in vars(mod).items() if hasattr(v, "perfbench_span")], layer
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(importlib.import_module(f"memsplate.{layer}"), cls_name)
        assert not [m for m in methods if hasattr(getattr(cls, m), "perfbench_span")]
    assert memsplate.fields.spla is scipy.sparse.linalg


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # TINY is too coarse for a warm sweep to touch down reliably, and the cost
    # of verify hardly depends on the grid: verify_battery keeps its own device
    device = None if workload == "verify_battery" else TINY

    result, detail = bench.run(workload, SEED, 0.0, False, device=device)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert detail["environment"]["nproc"] >= 1

    traced = [bench.run(workload, SEED, 0.0, True, device=device)[0] for _ in range(2)]
    for res in traced:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == layer
        assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    assert traced[0]["metrics"]["fields.solve_calls"]["value"] > 0
    for name in COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def _fake_solve_output(out: Path, E: float, **cert_overrides):
    out.mkdir()
    cert = {
        "converged": True, "bound_pass": True, "reg_active": False, "lower_bound_pass": True,
        "energy_below_rest": True, "within_certified_range": True, "vi_residual": 1e-9, "tol_vi": 1e-8,
    }
    cert.update(cert_overrides)
    (out / "certificate.json").write_text(json.dumps(cert))
    (out / "energy.json").write_text(json.dumps({"E": E}))
    (out / "manifest.json").write_text(json.dumps({"config": {"solver": {"tol_lin": 1e-10}}}))


def test_gate_checks_certificate_and_reference_energy(tmp_path):
    E_ref = -2.0058687205824683
    wl = PrecontactSolve(0, tmp_path, references={repr(2.0): E_ref})
    tol = 2.0 * (1e-8 + 1e-10)

    _fake_solve_output(tmp_path / "ok", E_ref + 0.5 * tol)
    assert wl.check(2.0, tmp_path / "ok") == []
    _fake_solve_output(tmp_path / "off", E_ref + 2.0 * tol)
    assert len(wl.check(2.0, tmp_path / "off")) == 1
    _fake_solve_output(tmp_path / "uncertified", E_ref, reg_active=True, converged=False)
    assert len(wl.check(2.0, tmp_path / "uncertified")) == 2
    _fake_solve_output(tmp_path / "no_ref", E_ref)
    assert wl.check(2.25, tmp_path / "no_ref") == ["solve V=2.25: no reference energy"]
