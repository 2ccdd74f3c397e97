"""Self-tests of the benchmark itself (not of dilatelab).

    python3 perfbench/selftest.py

Checks that a tampered reference value fails a command, that one seed gives
byte-identical argv lists and outputs while two seeds give different
instances, and that the span installer reaches every binding of its targets,
fails loudly on a renamed target and leaves the originals in place after
uninstalling.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import importlib
import sys

import check
import spans
import workloads
from worker import ROOT, execute

sys.path.insert(0, str(ROOT / "src"))
from dilatelab import cli  # noqa: E402


def _first(workload: str, seed: int, count: int) -> list[list[str]]:
    stream = workloads.commands(workload, seed, 1)
    return [next(stream) for _ in range(count)]


def test_tampered_reference_is_caught():
    for workload, index in (("catalog", 0), ("walks", 0), ("scan", 0), ("families", 1)):
        argv = _first(workload, 0, index + 1)[index]
        reference = check.load_reference(workload)
        record = execute(cli, argv)
        assert check.verdict(record, reference) is None, argv
        key = workloads.reference_key(argv)
        tampered = copy.deepcopy(reference)
        expected = tampered[key]
        if isinstance(expected, dict):
            name = next(iter(expected))
            expected[name] = str(int(expected[name]) + 1)
        else:
            expected[0] = expected[0] + "0"
        assert check.verdict(record, tampered) is not None, argv
        missing = copy.deepcopy(reference)
        del missing[key]
        assert check.verdict(record, missing) is not None, argv
        assert check.verdict(dict(record, rc=3), reference) is not None, argv


def test_seed_determinism():
    for workload in workloads.WORKLOADS:
        length = 2 * workloads.cycle_length(workload)
        assert _first(workload, 5, length) == _first(workload, 5, length)
        assert _first(workload, 5, length) != _first(workload, 7, length)
        even = {workloads.reference_key(a) for a in _first(workload, 4, length)}
        odd = {workloads.reference_key(a) for a in _first(workload, 5, length)}
        assert not even & odd, workload
        reference = check.load_reference(workload)
        for seed in (4, 5, 123456789):
            for argv in _first(workload, seed, length):
                assert workloads.reference_key(argv) in reference, argv
    argv = _first("catalog", 3, 1)[0]
    first, second = execute(cli, argv), execute(cli, argv)
    assert first["stdout"] == second["stdout"] and first["stdout"]


def test_span_installer():
    verify = importlib.import_module("dilatelab.verify")
    families = importlib.import_module("dilatelab.families")
    configcount = importlib.import_module("dilatelab.configcount")
    geometry = importlib.import_module("dilatelab.geometry")
    walk_dp = configcount._walk_dp_scaled_pairs
    nu = configcount._nu_identity_scaled_walk_pairs
    dist_table = geometry.PointSet.__dict__["dist_table"]
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        # every module that imported the kernel by name now holds the wrapper
        for module in (configcount, verify, families):
            assert getattr(module._walk_dp_scaled_pairs, spans.MARK, False), module
        assert getattr(verify._nu_identity_scaled_walk_pairs, spans.MARK, False)
        assert getattr(cli.four_cycle_families, spans.MARK, False)
        for workload in workloads.WORKLOADS:
            for argv in _first(workload, 0, 2):
                assert execute(cli, argv)["rc"] == 0, argv
    finally:
        spans.uninstall(saved)
    fired = {rec[0] for rec in tracer.spans}
    for workload, names in spans.REQUIRED.items():
        assert set(names) <= fired, (workload, set(names) - fired)
    assert all(rec[2] >= rec[1] for rec in tracer.spans)
    assert spans.wrapped_names() == []
    assert configcount._walk_dp_scaled_pairs is walk_dp
    assert verify._walk_dp_scaled_pairs is walk_dp
    assert verify._nu_identity_scaled_walk_pairs is nu
    assert geometry.PointSet.__dict__["dist_table"] is dist_table


def test_renamed_target_fails_loudly():
    renamed = spans.FUNCTIONS + (("configcount", "_no_such_kernel", "x.y", None),)
    original, spans.FUNCTIONS = spans.FUNCTIONS, renamed
    try:
        spans.install(spans.Tracer())
    except AttributeError:
        pass
    else:
        raise AssertionError("a missing target must raise")
    finally:
        spans.FUNCTIONS = original
    assert spans.wrapped_names() == []


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
