"""Layer spans installed from outside the package, and their per-layer sums.

The package binds names with ``from .x import y``, so a function can be
reachable under several module namespaces.  ``install`` wraps the function
object and replaces *every* binding of it in the ``dilatelab`` modules, and
replaces the cached properties of ``PointSet`` so that their first (computing)
access is timed.  A target that no longer exists raises at install time, so a
rename upstream fails the traced run instead of silently zeroing a metric.

A span is ``[name, start, end, parent, work, error]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``work`` an optional size counter and
``error`` the exception class name if the call raised.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from functools import cached_property

MARK = "__perfbench_span__"


def _found(args, kwargs, result):
    return 0 if result is None else 1


def _length(args, kwargs, result):
    return len(result)


def _entries(args, kwargs, result):
    return len(args[0]) ** 2


def _claim_span(name, *args, **kwargs):
    return f"verify.claim.{name}"


# (module, attribute, span name or function of the call's arguments, work)
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("verify", "run_claim", _claim_span, None),
    ("verify", "scan_threshold", "verify.scan", None),
    ("verify", "_scan_cell", "verify.scan_cell", None),
    ("families", "four_cycle_families", "families.cycle_families", None),
    ("families", "count_path_pairs", "families.path_pairs", None),
    ("families", "count_triangle_pairs", "families.clique_pairs", None),
    ("families", "count_simplex_pairs", "families.clique_pairs", None),
    ("families", "find_path_pair_witness", "families.witness", _found),
    ("families", "find_cycle_pair_witness", "families.witness", _found),
    ("families", "find_clique_pair_witness", "families.witness", _found),
    ("families", "triangle_bound_group_sum", "families.group_bound", None),
    ("families", "simplex_bound_group_sum", "families.group_bound", None),
    ("configcount", "walk_pair_reports", "configcount.walk_reports", None),
    ("configcount", "cycle_pair_reports", "configcount.cycle_reports", None),
    ("configcount", "_walk_dp_scaled_pairs", "configcount.walk_pairs.walk_dp", None),
    ("configcount", "_nu_identity_scaled_walk_pairs",
     "configcount.walk_pairs.nu_identity", None),
    ("configcount", "_brute_scaled_walk_pairs", "configcount.walk_pairs.brute", None),
    ("configcount", "step_profile_counts", "configcount.profiles", None),
    ("configcount", "_mu_identity_scaled_cycle_pairs",
     "configcount.cycle_pairs.mu_identity", None),
    ("configcount", "_brute_scaled_cycle_pairs", "configcount.cycle_pairs.brute", None),
    ("configcount", "displacement_histogram", "configcount.displacement", None),
    ("orthogonal", "enumerate_orthogonal", "orthogonal.group", _length),
    ("orthogonal", "so2_elements", "orthogonal.group", _length),
    ("geometry", "random_point_set", "geometry.point_set", None),
    ("geometry", "full_space", "geometry.point_set", None),
    ("geometry", "load_point_set", "geometry.point_set", None),
    ("geometry", "distance_set", "geometry.distance_set", None),
    ("geometry", "quotient_set", "geometry.distance_set", None),
)

# cached properties of geometry.PointSet: (attribute, span name, work)
PROPERTIES = (
    ("dist_table", "geometry.dist_table", _entries),
    ("norm_pair_counts", "geometry.buckets", None),
    ("neighbor_buckets", "geometry.buckets", None),
    ("pair_buckets", "geometry.buckets", None),
)

# verify.CLAIM_NAMES at the recording commit; one claim_s metric each.
CLAIMS = ("lemma2.2", "lemma2.3", "lemma2.4", "lemma2.6", "lemma4.2",
          "T1.5", "T1.6", "T1.7", "T1.8", "T1.10", "quotient")

LAYERS = ("cli", "verify", "families", "configcount", "orthogonal", "geometry")

# Spans that must fire on the workload that does most of their work.
REQUIRED = {
    "walks": ("cli.main", "configcount.walk_pairs.walk_dp",
              "configcount.walk_pairs.nu_identity", "geometry.point_set",
              "geometry.dist_table"),
    "catalog": ("configcount.cycle_pairs.mu_identity", "configcount.cycle_pairs.brute",
                "configcount.profiles", "families.cycle_families", "families.witness"),
    "scan": ("verify.scan", "verify.scan_cell", "families.witness",
             "geometry.dist_table", "geometry.buckets"),
    "families": ("families.path_pairs", "families.clique_pairs",
                 "families.cycle_families", "families.group_bound",
                 "orthogonal.group", "configcount.displacement"),
}


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, func, span, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dilatelab" or name.startswith("dilatelab."))]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the (owner, name, original) list to restore."""
    # resolve every target before patching, so a missing one changes nothing
    targets = [(getattr(importlib.import_module(f"dilatelab.{module}"), attr), span, work)
               for module, attr, span, work in FUNCTIONS]
    point_set = importlib.import_module("dilatelab.geometry").PointSet
    properties = [(attr, point_set.__dict__[attr], span, work)
                  for attr, span, work in PROPERTIES]
    for attr, original, _, _ in properties:
        if not isinstance(original, cached_property):
            raise TypeError(f"PointSet.{attr} is no longer a cached_property")
    modules = _package_modules()
    saved = []
    for original, span, work in targets:
        traced = tracer.wrap(original, span, work)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, name, original))
                    setattr(mod, name, traced)
    for attr, original, span, work in properties:
        prop = cached_property(tracer.wrap(original.func, span, work))
        prop.__set_name__(point_set, attr)
        saved.append((point_set, attr, original))
        setattr(point_set, attr, prop)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def wrapped_names() -> list[str]:
    """Names in the package that currently hold a span wrapper."""
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
    geometry = sys.modules.get("dilatelab.geometry")
    if geometry is not None:
        for attr, _, _ in PROPERTIES:
            prop = geometry.PointSet.__dict__.get(attr)
            if getattr(getattr(prop, "func", None), MARK, False):
                found.append(f"PointSet.{attr}")
    return found


def durations(spans: list[list], speeds: list[float]) -> list[float]:
    """Each span's duration at nominal machine speed.

    ``speeds[i]`` is the speed factor of the i-th command; every top-level
    span is one command's ``cli.main``, and a span inherits its root's factor.
    """
    root: list[int] = []
    commands: dict[int, int] = {}
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent < 0:
            commands[i] = len(commands)
            root.append(i)
        else:
            root.append(root[parent])
    return [(end - start) * speeds[commands[root[i]]]
            for i, (_, start, end, _, _, _) in enumerate(spans)]


def self_times(spans: list[list], length: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = list(length)
    for (_, _, _, parent, _, _), dur in zip(spans, length):
        if parent >= 0:
            own[parent] -= dur
    return own


def layer_metrics(spans: list[list], speeds: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from one traced run."""
    length = durations(spans, speeds)
    own = self_times(spans, length)
    command_s = sum(dur for (_, _, _, parent, _, _), dur in zip(spans, length) if parent < 0)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    refusals = 0
    for (name, _, _, _, amount, error), dur, mine in zip(spans, length, own):
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + (amount or 0)
        layer_self[name.split(".", 1)[0]] += mine
        if name.startswith("verify.claim.") and error == "TooLargeError":
            refusals += 1

    def s(name):
        return total.get(name, 0.0), "s"

    def n(table, name):
        return table.get(name, 0), "count"

    out = {"cli.main_s": s("cli.main"), "cli.self_s": (layer_self["cli"], "s")}
    for claim in CLAIMS:
        out[f"verify.claim_s.{claim}"] = s(f"verify.claim.{claim}")
    out["verify.claims"] = (sum(c for k, c in calls.items()
                                if k.startswith("verify.claim.")), "count")
    out["verify.scan_s"] = s("verify.scan")
    out["verify.scan_cells"] = n(calls, "verify.scan_cell")
    out["verify.guard_refusals"] = (refusals, "count")
    out["verify.self_s"] = (layer_self["verify"], "s")
    for key in ("cycle_families", "path_pairs", "clique_pairs", "witness", "group_bound"):
        out[f"families.{key}_s"] = s(f"families.{key}")
    witness_calls = calls.get("families.witness", 0)
    witness_found = work.get("families.witness", 0)
    out["families.witness_calls"] = (witness_calls, "count")
    out["families.witness_found"] = (witness_found, "count")
    out["families.witness_hit_ratio"] = (
        witness_found / witness_calls if witness_calls else 0.0, "ratio")
    out["families.self_s"] = (layer_self["families"], "s")
    for method in ("walk_dp", "nu_identity"):
        out[f"configcount.walk_pairs_s.{method}"] = s(f"configcount.walk_pairs.{method}")
    out["configcount.walk_pairs_calls"] = (
        sum(c for k, c in calls.items() if k.startswith("configcount.walk_pairs.")), "count")
    out["configcount.profiles_s"] = s("configcount.profiles")
    for method in ("mu_identity", "brute"):
        out[f"configcount.cycle_pairs_s.{method}"] = s(f"configcount.cycle_pairs.{method}")
    out["configcount.cycle_pairs_calls"] = (
        sum(c for k, c in calls.items() if k.startswith("configcount.cycle_pairs.")), "count")
    out["configcount.displacement_s"] = s("configcount.displacement")
    out["configcount.self_s"] = (layer_self["configcount"], "s")
    out["orthogonal.group_s"] = s("orthogonal.group")
    out["orthogonal.group_elements"] = n(work, "orthogonal.group")
    out["geometry.point_set_s"] = s("geometry.point_set")
    out["geometry.point_sets"] = n(calls, "geometry.point_set")
    out["geometry.dist_table_s"] = s("geometry.dist_table")
    out["geometry.dist_entries"] = n(work, "geometry.dist_table")
    out["geometry.buckets_s"] = s("geometry.buckets")
    for layer in LAYERS:
        out[f"share.{layer}"] = (layer_self[layer] / command_s if command_s else 0.0, "ratio")
    return out
