"""memsplate benchmark: solve, sweep and verify through the CLI, measured from outside.

    python3 perfbench/run.py --workload precontact_solve --seed 1 --seconds 30 --trace 0

Run from anywhere; memsplate is imported from ``src/`` next to this directory,
and the run fails (exit 2, no result) when that source is missing.  Workloads
are described in ``workloads.py``.  A run prepares its seeded inputs, times
``make_context`` for the workload's device a few times (``setup_s``), then
repeats one round of CLI calls until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
rounds with rounds under the tracer of ``tracer.py``, prints the per-layer
metrics (tracing overhead is the traced minus the plain median round), and
writes every span to ``.perfbench-spans/`` at the checkout root.

Standard output ends with two JSON lines: a detail record (inputs, per-state
samples, the tail percentile used, the environment, steal time, any problems
the correctness gate found) and the result
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from envinfo import environment, proc_stat, steal_share
from stats import median, tail
from tracer import Tracer
from workloads import WORKLOADS, PrecontactSolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 10


def load_references() -> dict:
    """Reference energies of the default device, recorded at the seed commit."""
    refs = json.loads((HERE / "references.json").read_text())
    if refs["device"] != PrecontactSolve.device:
        raise RuntimeError("references.json is not for the default device")
    return refs["E"]


def repeat_within(step, seconds: float) -> None:
    """Call ``step`` at least once, and again while that brings the total time nearer ``seconds``.

    One more call of average length ends nearer when it starts more than half
    a call before ``seconds``, so a run ends within about half a call of it.
    """
    t_start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / n >= seconds:
            return


def time_setup(workload) -> list:
    from memsplate.io_files import parse_config
    from memsplate.minimize import make_context

    bundle = parse_config(workload.setup_config())
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        make_context(bundle.params, n_elems=bundle.n_elems, field_grid=bundle.field_grid, settings=bundle.settings)
        times.append(time.perf_counter() - t0)
    return times


def run(workload_name: str, seed: int, seconds: float, trace: bool, device: dict = None):
    """One benchmark run; returns (result, detail).

    ``device`` replaces the workload's grid (tests); there are no reference
    energies for another grid, so the energy check is then skipped.
    """
    import memsplate.cli

    cls = WORKLOADS[workload_name]
    references = load_references() if cls is PrecontactSolve and device is None else None

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tracer = Tracer()
    try:
        wl = cls(seed, workdir, device=device, references=references)
        wl.prepare(memsplate.cli.main)
        setup = [] if trace else time_setup(wl)

        stat0 = proc_stat()
        t_start = time.perf_counter()
        plain, traced = [], []
        if trace:
            # plain and traced rounds alternate, so drift of the machine hits both alike
            def step():
                plain.append(wl.run_round(memsplate.cli.main))
                with tracer:
                    traced.append(wl.run_round(memsplate.cli.main))
        else:
            def step():
                plain.append(wl.run_round(memsplate.cli.main))
        repeat_within(step, seconds)
        rounds = plain + traced
        elapsed = time.perf_counter() - t_start
        stat1 = proc_stat()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [c for r in rounds for c in r]
    problems = [p for c in calls for p in c.problems]
    state_walls = [w for c in calls for w in c.state_walls]
    failed = sum(c.failed for c in calls)
    round_walls = [sum(c.wall_s for c in r) for r in rounds]
    state_tail = tail(state_walls)

    if trace:
        plain_walls = [sum(c.wall_s for c in r) for r in plain]
        traced_walls = [sum(c.wall_s for c in r) for r in traced]
        traced_states = sum(len(c.state_walls) for r in traced for c in r)
        layers = tracer.layer_metrics(len(traced), sum(traced_walls), traced_states)
        layers["trace.overhead_s"] = (median(traced_walls) - median(plain_walls), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans_dir = ROOT / ".perfbench-spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"{workload_name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "run_s": {"value": median(round_walls), "unit": "s"},
            "run_cpu_s": {"value": median(sum(c.cpu_s for c in r) for r in rounds), "unit": "s"},
            "state_s": {"value": median(state_walls), "unit": "s"},
            "state_s_tail": {"value": state_tail["value"], "unit": "s"},
            "certified_frac": {"value": 1.0 - failed / len(state_walls), "unit": "frac"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "device": wl.device,
        "inputs": wl.inputs,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "states_per_round": sum(len(c.state_walls) for c in rounds[0]),
        "elapsed_s": elapsed,
        "round_wall_s": round_walls,
        "state_wall_s": state_walls,
        "state_tail": {"percentile": state_tail["percentile"], "samples": state_tail["n"]},
        "setup_s": setup,
        "failed_frac": failed / len(state_walls),
        "problems": problems[:20],
        "steal_share": steal_share(stat0, stat1),
        "environment": environment(),
    }
    result = {"correct": not problems, "attempted": len(state_walls), "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "memsplate" / "__init__.py").is_file():
        print(f"error: no memsplate source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
