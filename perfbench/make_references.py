"""Record the reference energies of the precontact_solve voltages.

    python3 perfbench/make_references.py --commit <git sha of the source>

Solves every voltage of ``workloads.PRECONTACT_VOLTS`` on the default device
through ``memsplate solve`` and writes ``references.json``.  Run it only on
the commit whose energies are the reference; the benchmark checks later
commits against these numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_DEVICE, PRECONTACT_VOLTS, config_text, read_json  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    args = ap.parse_args(argv)

    from memsplate.cli import main as cli_main

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=HERE.parent))
    energies = {}
    try:
        for V in PRECONTACT_VOLTS:
            cfg = work / "device.ini"
            cfg.write_text(config_text(V, DEFAULT_DEVICE))
            rc = cli_main(["solve", "--config", str(cfg), "--out", str(work / "out")])
            if rc != 0:
                print(f"error: solve at V={V!r} exited {rc}", file=sys.stderr)
                return 1
            energies[repr(V)] = read_json(work / "out" / "energy.json")["E"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {"commit": args.commit, "device": DEFAULT_DEVICE, "E": energies}
    (HERE / "references.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
