"""dilatelab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload walks --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  ``--trace 0`` measures set-up time in fresh
interpreters, then runs the workload in a closed loop from one client for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs two
cycles of the workload untraced and the same two cycles traced, each pass in
its own process, and reports the per-layer metrics and the tracing overhead.
Every command's output is checked against ``reference/<workload>.json``.  The
last line of stdout is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import check
import spans
import workloads
from worker import calibrate, speeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10
TRACE_CYCLES = 2  # fixed work, so layer times compare directly between commits


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_worker(config: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(config),
        capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup() -> tuple[list[float], list[dict]]:
    """Nominal-speed wall time of fresh interpreters running a trivial command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, records = [], []
    # the first launch may compile bytecode, so it is run but not timed
    subprocess.run([sys.executable, "-m", "dilatelab", *workloads.setup_commands()[0]],
                   cwd=ROOT, env=env, capture_output=True, timeout=60)
    probes = [calibrate()]
    for argv in workloads.setup_commands():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dilatelab", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        probes.append(calibrate())
        records.append({"argv": argv, "rc": proc.returncode,
                        "stdout": proc.stdout, "stderr": proc.stderr})
    factors = speeds(probes, workloads.SPEED_EXPONENT["setup"])
    return [t * factor for t, factor in zip(times, factors)], records


def failures(records: list[dict], reference: dict) -> list[tuple[list[str], str]]:
    out = []
    for rec in records:
        why = check.verdict(rec, reference)
        if why is not None:
            out.append((rec["argv"], why))
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(args, threads: int) -> tuple[dict, list, int]:
    setup_times, setup_records = measure_setup()
    result = run_worker({"workload": args.workload, "seed": args.seed, "threads": threads,
                         "seconds": args.seconds, "cycles": 1, "trace": False})
    records = result["records"]
    bad = failures(records, check.load_reference(args.workload))
    bad += failures(setup_records, check.load_reference("setup"))
    raw = [r["end"] - r["start"] for r in records]
    latencies = [t * r["speed"] for t, r in zip(raw, records)]
    n = len(records)
    pct, tail_value = tail(latencies)
    loop_failed = sum(1 for argv, _ in bad if argv[0] != "gen")
    print(f"workload {args.workload} seed {args.seed}: {n} commands in "
          f"{result['wall_s']:.2f} s, closed loop, 1 client, --threads {threads}")
    print(f"latency_tail_s is p{pct:.1f} of {n} samples ({TAIL_BEYOND} beyond it); "
          f"setup_s is the median of {len(setup_times)} fresh interpreters")
    print(f"machine speed {sum(latencies) / sum(raw):.3f} x nominal; unscaled: "
          f"{n / sum(raw):.4f} cmds/s, p50 {statistics.median(raw):.4f} s, "
          f"tail {tail(raw)[1]:.4f} s")
    metrics = {
        "throughput_cmds_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "success_share": ((n - loop_failed) / n, "ratio"),
        "peak_rss_mib": (result["rss_kib"] / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, bad, n + len(setup_records)


def per_layer(args) -> tuple[dict, list, int]:
    base = {"workload": args.workload, "seed": args.seed, "threads": 1,
            "seconds": 0, "cycles": TRACE_CYCLES}
    plain = run_worker(dict(base, trace=False))
    traced = run_worker(dict(base, trace=True))
    fired = {rec[0] for rec in traced["spans"]}
    missing = [name for name in spans.REQUIRED[args.workload] if name not in fired]
    if missing:
        fail(f"spans never fired on {args.workload}: {missing}; "
             "a traced function was renamed or is no longer called")
    nominal = {}
    for name, result in (("plain", plain), ("traced", traced)):
        nominal[name] = sum((r["end"] - r["start"]) * r["speed"] for r in result["records"])
    metrics = spans.layer_metrics(traced["spans"], [r["speed"] for r in traced["records"]])
    overhead = nominal["traced"] - nominal["plain"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / nominal["plain"], "ratio")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(traced["spans"], fh)
    print(f"workload {args.workload} seed {args.seed}: {TRACE_CYCLES} cycles, "
          f"{len(traced['records'])} commands, --threads 1; untraced "
          f"{nominal['plain']:.3f} s, traced {nominal['traced']:.3f} s at nominal "
          f"speed, {len(traced['spans'])} spans")
    print("layer self-time shares: " + ", ".join(
        f"{layer} {metrics[f'share.{layer}'][0]:.1%}" for layer in spans.LAYERS))
    records = plain["records"] + traced["records"]
    return metrics, failures(records, check.load_reference(args.workload)), len(records)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dilatelab" / "cli.py").is_file():
        fail(f"no dilatelab sources under {ROOT / 'src'}; run from a source checkout")
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    if args.trace:
        metrics, bad, attempted = per_layer(args)
    else:
        metrics, bad, attempted = end_to_end(args, threads)
    for argv, why in bad:
        print(f"FAILED {' '.join(argv)}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
