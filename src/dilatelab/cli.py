"""Batch experiment runner: generate sets, count, verify claims, scan sizes.

Four subcommands share one contract: every run is driven by (flags, seed)
only, so identical invocations produce byte-identical output.  Counting rows
and verdicts are emitted as versioned CSV (default) or JSON.

Exit status: 0 on success, 2 on usage errors, 3 when a size guard refuses an
enumeration, 4 when a hypothesis-met claim fails (which would mean the claim
catalog itself is wrong), 1 on internal errors such as method disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial

from .configcount import (
    CountReport,
    count_ratio_quadruples,
    count_scaled_cycle_pairs,
    count_scaled_walk_pairs,
    refused_checks,
    _cross_checked,
    _not_a_method_of,
    _report,
)
from .errors import (
    DilateLabError,
    DimensionMismatchError,
    MethodMismatchError,
    SizeExceedsSpaceError,
    TooLargeError,
)
from .families import (
    FAMILIES,
    FAMILY_FOUR_CYCLE,
    FAMILY_PATH_PAIRS,
    FAMILY_SIMPLEX,
    FAMILY_TRIANGLE,
    count_path_pairs,
    count_simplex_pairs,
    count_triangle_pairs,
    four_cycle_families,
    group_displacement_sums,
    simplex_bound_group_sum,
    triangle_bound_group_sum,
    two_path_part_rows,
)
from .field import make_prime
from .geometry import (
    PointSet,
    distance_set,
    format_point_set,
    full_space,
    load_point_set,
    quotient_set,
    random_point_set,
)
from .verify import (
    CLAIM_NAMES,
    RATIO_FREE_CLAIMS,
    ScanResult,
    Verdict,
    random_instances,
    ratios_for_policy,
    run_claim,
    scan_threshold,
)

CSV_SCHEMA = "dilatelab-csv v1"
JSON_SCHEMA = "dilatelab-json v1"

# Every count kind and its methods, in the order --method all runs them; auto
# runs the first.  A group_sum after the first is a lower bound, not a check.
KIND_METHODS = {
    "S_k": ("walk_dp", "brute", "nu_identity"),
    "C": ("mu_identity", "brute"),
    "V": ("nu_identity",),
    "quotient": ("brute",),
    "distance": ("brute",),
    "2path_parts": ("brute", "nu_identity"),
    "displacement": ("group_sum",),
    FAMILY_PATH_PAIRS: ("brute",),
    FAMILY_FOUR_CYCLE: ("mu_identity",),
    FAMILY_TRIANGLE: ("brute", "group_sum"),
    FAMILY_SIMPLEX: ("brute", "group_sum"),
}
COUNT_KINDS = tuple(KIND_METHODS)
# the kinds whose rows, and so whose fixed CSV header, take CountReport's count
# layout; the others' take its family layout, even when every row is skipped
REPORT_KINDS = ("S_k", "C", "V", "quotient", "distance")
WHAT_ALIASES = {"T": FAMILY_TRIANGLE, "P": FAMILY_SIMPLEX, "F": FAMILY_FOUR_CYCLE}


def _usable_cores() -> int:
    """The cores this process may run on where the platform tells, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="dilatelab",
        description="Exact counting and verification of dilated point configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # only scan has a worker pool; the others accept --threads and ignore it
    def add_common(p, threads_help="ignored: this command runs in one process"):
        p.add_argument("--p", type=int, help="odd prime modulus")
        p.add_argument("--d", type=int, help="dimension (default 2, or the --set file's)")
        p.add_argument("--seed", default="0", help="seed for all randomness")
        p.add_argument("--threads", type=int, default=_usable_cores(),
                       help=threads_help)
        p.add_argument("--out", help="output path (default stdout)")

    def add_set(p, random_help):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--set", dest="set_path", help="point-set file")
        source.add_argument("--random", type=int, help=random_help)

    g = sub.add_parser("gen", help="write a seeded random point-set file")
    add_common(g)
    g.add_argument("--size", type=int, required=True)

    c = sub.add_parser("count", help="count configurations in a point set")
    add_common(c)
    c.add_argument("--what", choices=COUNT_KINDS + tuple(WHAT_ALIASES), required=True)
    c.add_argument("--k", type=int, default=2, help="walk length for S_k")
    c.add_argument("--r", default="all", help="ratio: integer, 'squares', or 'all'")
    add_set(c, "use a seeded random set of this size")
    c.add_argument("--method", default="auto",
                   choices=("auto", "all", *sorted(set().union(*KIND_METHODS.values()))),
                   help="auto, all, or a method of the kind")

    v = sub.add_parser("verify", help="check catalog claims on instances")
    add_common(v)
    v.add_argument("--claim", choices=CLAIM_NAMES + ("all",), required=True)
    v.add_argument("--r", default="all", help="ratio: integer, 'squares', or 'all'")
    add_set(v, "number of seeded random instances (one ratio each)")
    v.add_argument("--size", default="4:10",
                   help="size or LO:HI[:STEP] inclusive range for --random instances")
    v.add_argument("--k", type=int, default=3, help="walk length for T1.10")

    s = sub.add_parser("scan", help="positivity fraction of a family by set size")
    add_common(s, threads_help="worker pool size (results are schedule-independent)")
    s.add_argument("--family", choices=FAMILIES, required=True)
    s.add_argument("--r", default="all", help="'all', 'squares', or an integer")
    s.add_argument("--sizes", required=True, help="LO:HI[:STEP] inclusive range")
    s.add_argument("--samples", type=int, required=True)

    # gen writes a point-set file, not rows
    for p in (c, v, s):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _parse_sizes(text: str) -> range:
    parts = text.split(":")
    if len(parts) == 1:
        lo = hi = int(parts[0])
        step = 1
    elif len(parts) in (2, 3):
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    else:
        raise ValueError(f"bad size range {text!r}")
    if lo < 1 or hi < lo or step < 1:
        raise ValueError(f"bad size range {text!r}")
    return range(lo, hi + 1, step)


def _ratio_policy(text: str) -> str:
    if text in ("all", "squares"):
        return text
    return f"r={int(text)}"


def _require_positive(value: int, flag: str, parser) -> None:
    if value < 1:
        parser.error(f"{flag} must be at least 1")


def _resolve_set(args, parser) -> PointSet:
    if getattr(args, "set_path", None):
        E = load_point_set(args.set_path)
        if args.p is not None and E.prime.p != args.p:
            parser.error(f"--p {args.p} contradicts the file header p={E.prime.p}")
        if args.d is not None and E.d != args.d:
            parser.error(f"--d {args.d} contradicts the file header d={E.d}")
        return E
    if args.p is None:
        parser.error("--p is required without --set")
    prime = make_prime(args.p)
    if args.random is not None:
        _require_positive(args.random, "--random", parser)
        return random_point_set(prime, args.d, args.random, args.seed)
    return full_space(prime, args.d)


def _emit(kind: str, header: str, rows: list[str], json_rows: list[dict], args) -> None:
    if args.format == "csv":
        lines = [f"# {CSV_SCHEMA} kind={kind} seed={args.seed}", header]
        lines.extend(rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {"schema": JSON_SCHEMA, "kind": kind, "seed": args.seed, "rows": json_rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    """Text to the --out file, or to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args, parser) -> int:
    if args.p is None:
        parser.error("gen requires --p")
    _require_positive(args.size, "--size", parser)
    E = random_point_set(make_prime(args.p), args.d, args.size, args.seed)
    _write(format_point_set(E, comment=f"generated size={args.size} seed={args.seed}"), args)
    return 0


def _note_refused_checks(E: PointSet) -> None:
    """A stderr note per method on E left out since the last call, with its
    reason; stdout stays the rows alone."""
    record = refused_checks(E)
    for (kind, r, _, method), reason in record.items():
        at = "" if r is None else f" r={r}"
        print(f"note: {method} skipped for {kind}{at} ({reason})", file=sys.stderr)
    record.clear()


def _method_rows(E: PointSet, args, what: str, ratio, method: str, exact=()) -> list:
    """The rows of one method of a count kind at one ratio (None for a ratio-free kind).

    A group_sum bound is checked against the exact rows it is given, and at
    a non-square ratio it is recorded as skipped, with no rows.
    """
    if what in ("quotient", "distance"):
        return [_report(E, what, len((quotient_set if what == "quotient" else distance_set)(E)),
                        method)]
    if what == "S_k":
        return [count_scaled_walk_pairs(E, ratio, args.k, method)]
    if what == "C":
        return [count_scaled_cycle_pairs(E, ratio, method)]
    if what == "V":
        return [count_ratio_quadruples(E, ratio)]
    if what == FAMILY_PATH_PAIRS:
        return [count_path_pairs(E, ratio, args.k)]
    if what == "2path_parts":
        return two_path_part_rows(E, ratio, method)
    if what == FAMILY_FOUR_CYCLE:
        fams = four_cycle_families(E, ratio)
        named = [(what, fams.fully_distinct)]
        if args.method == "all":  # the coincidence subfamilies
            named += [("A13", fams.x13), ("A24", fams.x24), ("B13", fams.y13), ("B24", fams.y24)]
        return [_report(E, name, value, method, ratio.r) for name, value in named]
    planar = what == FAMILY_TRIANGLE
    if method == "brute":
        return [(count_triangle_pairs if planar else count_simplex_pairs)(E, ratio)]
    if not ratio.is_square:
        refused_checks(E)[(what, ratio.r, None, method)] = "not a square"
        return []
    if what == "displacement":
        _, lam_total, n_total, slice_total = group_displacement_sums(E, ratio)
        return [_report(E, name, value, method, ratio.r) for name, value in
                (("Lambda_theta", lam_total), ("N_theta", n_total), ("A_kl", slice_total))]
    value = (triangle_bound_group_sum if planar else simplex_bound_group_sum)(E, ratio)
    if exact and value > exact[0].value:  # an element counts a pair at most once
        raise MethodMismatchError(f"the group_sum bound {value} exceeds the {what} count "
                                  f"{exact[0].value} at r={ratio.r}; points={list(E.points)}")
    return [_report(E, what, max(0, int(value)), method, ratio.r)]


def _count_rows(E: PointSet, args) -> list:
    what = WHAT_ALIASES.get(args.what, args.what)
    first, *rest = methods = KIND_METHODS[what]
    if args.method not in ("auto", "all", *methods):
        raise _not_a_method_of(what, args.method, sorted(methods))
    ratio_free = what in ("quotient", "distance")
    ratios = [None] if ratio_free else ratios_for_policy(_ratio_policy(args.r), E.prime)
    reports = []
    for ratio in ratios:
        rows = partial(_method_rows, E, args, what, ratio)
        if args.method != "all":
            reports.extend(rows(first if args.method == "auto" else args.method))
            continue
        key = (what, None if ratio_free else ratio.r, args.k if what == "S_k" else None)
        exact = _cross_checked(E, rows, first, [m for m in rest if m != "group_sum"], key)
        reports.extend(exact)
        if "group_sum" in rest:  # the bound is optional: a refusal keeps the exact rows
            try:
                reports.extend(rows("group_sum", exact))
            except TooLargeError as exc:
                refused_checks(E)[(*key, "group_sum")] = f"guard: {exc}"
            except DimensionMismatchError as exc:  # no orthogonal group enumerated at this d
                refused_checks(E)[(*key, "group_sum")] = str(exc)
    return reports


def cmd_count(args, parser) -> int:
    E = _resolve_set(args, parser)
    reports = _count_rows(E, args)
    _note_refused_checks(E)
    family = WHAT_ALIASES.get(args.what, args.what) not in REPORT_KINDS
    _emit("count", CountReport.FAMILY_CSV_HEADER if family else CountReport.CSV_HEADER,
          [rep.csv_row(family) for rep in reports], [rep.json_dict(family) for rep in reports],
          args)
    return 0


def _verify_instances(args, parser):
    """Yield (E, ratios) per set: --set with every ratio, each --random instance with one."""
    policy = _ratio_policy(args.r)
    if args.random is not None:
        _require_positive(args.random, "--random", parser)
        if args.p is None:
            parser.error("--random requires --p")
        prime = make_prime(args.p)
        try:
            sizes = _parse_sizes(args.size)
        except ValueError as exc:
            parser.error(str(exc))
        for E, ratio in random_instances(prime, args.d, args.random, sizes, args.seed, policy):
            yield E, [ratio]
    else:
        E = _resolve_set(args, parser)
        yield E, ratios_for_policy(policy, E.prime)


def cmd_verify(args, parser) -> int:
    _require_positive(args.k, "--k", parser)
    claims = list(CLAIM_NAMES) if args.claim == "all" else [args.claim]
    # a ratio-free claim is checked once per set, with its first ratio
    later = [claim for claim in claims if claim not in RATIO_FREE_CLAIMS]
    verdicts: list[Verdict] = []
    for E, ratios in _verify_instances(args, parser):
        for i, ratio in enumerate(ratios):
            for claim in later if i else claims:
                try:
                    verdicts.append(run_claim(claim, E, ratio, k=args.k))
                except TooLargeError as exc:
                    if len(claims) == 1:
                        raise
                    r = None if claim in RATIO_FREE_CLAIMS else ratio.r
                    refused_checks(E)[("claim", r, None, claim)] = f"guard: {exc}"
            _note_refused_checks(E)
    failed = any(v.contradicts_catalog for v in verdicts)
    _emit("verify", Verdict.CSV_HEADER, [v.csv_row() for v in verdicts],
          [v.json_dict() for v in verdicts], args)
    return 4 if failed else 0


def cmd_scan(args, parser) -> int:
    if args.p is None:
        parser.error("scan requires --p")
    _require_positive(args.samples, "--samples", parser)
    prime = make_prime(args.p)
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        parser.error(str(exc))
    seed = args.seed
    result = scan_threshold(
        prime, args.d, args.family, _ratio_policy(args.r),
        sizes, args.samples, seed, threads=args.threads,
    )
    _emit("scan", ScanResult.CSV_HEADER, result.csv_rows(), [result.json_dict()], args)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every subcommand has --d and --threads; --d is 2 unless a --set file's header gives it
    if args.d is None and not getattr(args, "set_path", None):
        args.d = 2
    if args.d is not None:
        _require_positive(args.d, "--d", parser)
    _require_positive(args.threads, "--threads", parser)
    try:
        if args.command == "gen":
            return cmd_gen(args, parser)
        if args.command == "count":
            return cmd_count(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
        if args.command == "scan":
            return cmd_scan(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except (TooLargeError, SizeExceedsSpaceError) as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except MethodMismatchError as exc:
        print(f"method mismatch (implementation bug): {exc}", file=sys.stderr)
        return 1
    except (DilateLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
