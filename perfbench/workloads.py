"""Seeded command lists for the four benchmark workloads.

A workload is a fixed cycle of *slots*.  A slot fixes the shape of one
command (subcommand, family, p, set size, ratio class), and so most of its
cost; the instance details (ratio, the CLI ``--seed``) come from one of
``VARIANTS`` seeded variants.  Variants are split into two disjoint pool
halves: even benchmark seeds draw from half 0 and odd seeds from half 1, so a
claim tuned on one parity can be checked on instances it never saw.  Every variant's outputs were
recorded in ``reference/<workload>.json``, which is what lets any benchmark
seed be checked for correctness.

Within a run, cycle ``c`` uses variant ``perm[c % VARIANTS]`` of each slot,
where ``perm`` is a permutation drawn from the benchmark seed: the first
``VARIANTS`` cycles of a run never repeat a command.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("walks", "catalog", "scan", "families")
VARIANTS = 6
HALVES = 2


def _squares(p: int) -> list[int]:
    return sorted({x * x % p for x in range(1, p)})


def _non_squares(p: int) -> list[int]:
    sq = set(_squares(p))
    return [r for r in range(1, p) if r not in sq]


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(10**6))


def _walk_slot(k: int, p: int, n: int):
    def draw(rng):
        return ["count", "--what", "S_k", "--method", "all", "--k", str(k),
                "--p", str(p), "--random", str(n),
                "--r", str(rng.randrange(1, p)), "--seed", _cli_seed(rng)]
    return draw


def _catalog_slot(p: int, m: int, lo: int):
    def draw(rng):
        return ["verify", "--claim", "all", "--random", str(m), "--size", f"{lo}:12",
                "--p", str(p), "--r", str(rng.randrange(1, p)),
                "--seed", _cli_seed(rng)]
    return draw


def _scan_slot(family: str, p: int, threshold: int, past: int, samples: int):
    def draw(rng):
        return ["scan", "--family", family, "--p", str(p),
                "--sizes", f"2:{threshold + past}", "--samples", str(samples),
                "--seed", _cli_seed(rng)]
    return draw


def _family_slot(what: str, p: int, n: int, ratios: list[int], extra=()):
    def draw(rng):
        return ["count", "--what", what, *extra, "--method", "all",
                "--p", str(p), "--random", str(n),
                "--r", str(rng.choice(ratios)), "--seed", _cli_seed(rng)]
    return draw


def _all(p: int) -> list[int]:
    return list(range(1, p))


# A run is a whole number of cycles (see worker.py), so every slot is equally
# represented.  Set sizes are chosen so that the commands of a workload cost
# about the same; the latency median and the 11th-largest latency are then
# order statistics of a narrow distribution and do not jump when a run gains
# or loses a cycle.
SLOTS = {
    # S_k by walk_dp everywhere, plus nu_identity at p = 11 (3 mod 4); k = 2
    # on the larger sets and k = 3 on the smaller ones, about 0.6 s each.
    "walks": [
        _walk_slot(2, 11, 104), _walk_slot(3, 13, 88), _walk_slot(2, 13, 112),
        _walk_slot(3, 11, 80), _walk_slot(2, 13, 104), _walk_slot(3, 11, 84),
        _walk_slot(2, 11, 112), _walk_slot(3, 13, 94),
    ],
    # C by mu_identity + brute at p = 7, by brute alone at p = 5.  m instances
    # with --size LO:12 use sizes LO .. LO + m - 1; about 0.5 s each.
    "catalog": [
        _catalog_slot(p, m, lo)
        for _ in range(2)
        for p, m, lo in ((7, 3, 8), (5, 2, 8), (7, 2, 9), (5, 1, 9), (7, 1, 11), (5, 1, 10))
    ],
    # Sizes run from 2 to one or two past the theorem threshold: C2path needs
    # n > (sqrt(3) + 1) p, T_triangle needs n >= 3p.  About 0.3 s each.
    "scan": [
        _scan_slot(family, p, threshold, past, samples)
        for past in (1, 2)
        for family, p, threshold, samples in (
            ("C2path", 11, 31, 14), ("T_triangle", 13, 39, 8),
            ("C2path", 13, 36, 14), ("T_triangle", 11, 33, 13))
    ],
    # Exhaustive family counts; square r also runs the group_sum bounds of
    # T and P.  0.25-0.75 s each (F4cycle refuses n > 13).
    "families": [
        _family_slot("T", 7, 14, _squares(7)),
        _family_slot("C2path", 7, 19, _all(7)),
        _family_slot("P", 5, 10, _squares(5), ("--d", "3")),
        _family_slot("F4cycle", 7, 12, _all(7)),
        _family_slot("T", 11, 15, _non_squares(11)),
        _family_slot("P", 7, 10, _non_squares(7), ("--d", "3")),
        _family_slot("C2path", 11, 21, _all(11)),
        _family_slot("T", 7, 14, _non_squares(7)),
        _family_slot("P", 5, 10, _non_squares(5), ("--d", "3")),
        _family_slot("F4cycle", 11, 13, _all(11)),
        _family_slot("T", 11, 15, _squares(11)),
        _family_slot("P", 7, 10, _squares(7), ("--d", "3")),
    ],
}

# How strongly a workload's command times follow the speed probe of
# worker.calibrate, as the exponent of the probe ratio.  Fitted on 6-10 runs
# each: single-process commands (and the set-up launches) swing about three
# quarters as much as the probe, and scaling by the full ratio over-corrected
# them; scan's pool runs on both cores and swings fully with the machine.
SPEED_EXPONENT = {"walks": 0.75, "catalog": 0.75, "scan": 1.0, "families": 0.75,
                  "setup": 0.75}


def variant(workload: str, half: int, slot: int, index: int) -> list[str]:
    """The argv (without ``--threads``) of one recorded command."""
    rng = random.Random(f"perfbench:{workload}:{half}:{slot}:{index}")
    return SLOTS[workload][slot](rng)


def pool(workload: str):
    """Every recorded command of a workload, both halves."""
    for half in range(HALVES):
        for slot in range(len(SLOTS[workload])):
            for index in range(VARIANTS):
                yield variant(workload, half, slot, index)


def cycle_length(workload: str) -> int:
    return len(SLOTS[workload])


def commands(workload: str, seed: int, threads: int):
    """Endless closed-loop command stream for one benchmark seed."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    half = seed % HALVES
    rng = random.Random(f"perfbench:{workload}:run:{seed}")
    slots = range(len(SLOTS[workload]))
    perms = [rng.sample(range(VARIANTS), VARIANTS) for _ in slots]
    for c in itertools.count():
        for slot in slots:
            argv = variant(workload, half, slot, perms[slot][c % VARIANTS])
            yield argv + ["--threads", str(threads)]


def reference_key(argv: list[str]) -> str:
    """Reference lookup key: the argv without its ``--threads`` pair."""
    if "--threads" in argv:
        i = argv.index("--threads")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


SETUP_LAUNCHES = 11


def setup_commands() -> list[list[str]]:
    """The trivial commands whose fresh-interpreter wall time is ``setup_s``."""
    return [["gen", "--p", "3", "--size", "1", "--seed", str(j), "--threads", "1"]
            for j in range(SETUP_LAUNCHES)]
