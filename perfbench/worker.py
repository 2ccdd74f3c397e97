"""Runs one workload's commands in this process and reports what happened.

Reads a JSON config on stdin and writes one JSON object to stdout:

    {"workload": "walks", "seed": 3, "threads": 2, "seconds": 20,
     "cycles": 1, "trace": false}

Commands are issued in a closed loop, in whole cycles of the workload's
slots, so that every slot runs equally often.  The loop stops at the end of
the first cycle that ends after ``seconds`` and after at least ``cycles``
cycles.  Each command is ``dilatelab.cli.main(argv)`` with stdout and stderr
captured.  With ``trace`` the layer spans of
``spans.py`` are installed first and returned with the records.

Between commands the worker times ``calibrate``, a fixed pure-Python loop.
The machine this runs on is shared, and its speed drifts by 20% within
minutes; the loop slows down with the program.  Each record's ``speed`` is
``CALIBRATION_NOMINAL_S`` over the mean loop time of the probes just before
and just after the command, to the power ``workloads.SPEED_EXPONENT``, so
``(end - start) * speed`` is the command's time at the nominal machine speed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WARM_UP = ["gen", "--p", "3", "--size", "1", "--threads", "1"]
# Reference probe time: about the median probe of calibrate() on the recording
# machine.  Any fixed value works; it only sets the scale of the "nominal" speed.
CALIBRATION_NOMINAL_S = 0.0035
CALIBRATION_PROBES = 5


def calibrate(rounds: int = 15_000) -> float:
    """Median time of a few runs of a fixed loop of dict and list updates.

    The loop resembles the kernels' inner loops; the median drops probes that
    an interrupt happened to stretch.
    """
    times = []
    for _ in range(CALIBRATION_PROBES):
        table: dict[int, int] = {}
        acc = [0] * 64
        start = time.perf_counter()
        for i in range(rounds):
            key = i * 7919 % 1031
            table[key] = table.get(key, 0) + 1
            acc[i & 63] += key
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def speeds(probes: list[float], exponent: float) -> list[float]:
    """Machine speed factor over each gap between consecutive probes.

    The speed changes within a second, so only the two probes next to a
    command describe it; a median over more probes tracked it worse.
    """
    return [(2 * CALIBRATION_NOMINAL_S / (before + after)) ** exponent
            for before, after in zip(probes, probes[1:])]


def execute(cli, argv: list[str]) -> dict:
    """Run one command; a traceback is recorded as a failed command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # the loop must go on; the command counts as failed
        rc = -1
        err.write(traceback.format_exc())
    end = time.perf_counter()
    return {"argv": argv, "rc": rc, "start": start, "end": end,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run(config: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from dilatelab import cli

    execute(cli, WARM_UP)
    tracer = saved = None
    if config["trace"]:
        tracer = spans.Tracer()
        saved = spans.install(tracer)
    elif spans.wrapped_names():
        raise RuntimeError(f"untraced run found span wrappers: {spans.wrapped_names()}")
    stream = workloads.commands(config["workload"], config["seed"], config["threads"])
    cycle = workloads.cycle_length(config["workload"])
    records = []
    start = time.perf_counter()
    deadline = start + config["seconds"]
    probes = [calibrate()]
    while len(records) < config["cycles"] * cycle or time.perf_counter() < deadline:
        for argv in itertools.islice(stream, cycle):
            records.append(execute(cli, argv))
            probes.append(calibrate())
    wall = records[-1]["end"] - start
    exponent = workloads.SPEED_EXPONENT[config["workload"]]
    for record, factor in zip(records, speeds(probes, exponent)):
        record["speed"] = factor
    if saved is not None:
        spans.uninstall(saved)
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"records": records, "probes": probes, "wall_s": wall, "rss_kib": rss_kib,
            "spans": tracer.spans if tracer else None}


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
