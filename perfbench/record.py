"""Records the reference outputs of every command a workload can issue.

    python3 perfbench/record.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json`` (and ``setup.json``).  The
recorded files are the correctness gate of every later run, so re-recording
them is a change to the benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import json
import sys

import check
import workloads
from worker import ROOT, execute


def record(name: str, commands) -> None:
    from dilatelab import cli

    reference = {}
    for argv in commands:
        rec = execute(cli, argv)
        if rec["rc"] != 0:
            raise SystemExit(f"cannot record {argv}: exit {rec['rc']}\n{rec['stderr']}")
        reference[workloads.reference_key(argv)] = check.digest(argv, rec["stdout"])
        print(f"{rec['end'] - rec['start']:7.3f}s {' '.join(argv)}", file=sys.stderr)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    path = check.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    for name in sys.argv[1:] or ("setup",) + workloads.WORKLOADS:
        if name == "setup":
            record(name, workloads.setup_commands())
        else:
            record(name, (argv + ["--threads", "1"] for argv in workloads.pool(name)))
