"""End-to-end command-line behavior: formats, determinism, exit codes."""

import argparse
import gc
import json
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dilatelab import configcount
from dilatelab.cli import COUNT_KINDS, KIND_METHODS, WHAT_ALIASES, build_parser, main
from dilatelab.errors import TooLargeError
from dilatelab.families import (
    FAMILIES,
    count_simplex_pairs,
    count_triangle_pairs,
    two_path_parts_closed_form,
)
from dilatelab.geometry import PointSet, load_point_set
from dilatelab.verify import CLAIM_NAMES, RATIO_FREE_CLAIMS


# a child process imports the package this suite imports, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(configcount.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_valid_file(tmp_path, capsys):
    out = tmp_path / "set.txt"
    code, _, _ = run_cli(
        ["gen", "--p", "7", "--d", "2", "--size", "20", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "p=7 d=2"
    assert len(lines) == 22  # comment + header + 20 points


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run_cli(
            ["gen", "--p", "11", "--size", "9", "--seed", "33", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_oversized(capsys):
    code, _, err = run_cli(["gen", "--p", "7", "--size", "50"], capsys)
    assert code == 3
    assert "guard exceeded" in err or "50" in err


def test_count_two_point_all_methods(tmp_path, capsys):
    set_path = tmp_path / "two.txt"
    set_path.write_text("p=7 d=2\n0,0\n1,0\n")
    code, out, _ = run_cli(
        ["count", "--what", "S_k", "--k", "2", "--r", "1", "--set", str(set_path),
         "--method", "all"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dilatelab-csv v1 kind=count")
    assert lines[1] == "name,method,p,d,E_size,r,k,value"
    data = [ln.split(",") for ln in lines[2:]]
    assert {row[1] for row in data} >= {"walk_dp", "brute", "nu_identity"}
    assert {row[-1] for row in data} == {"4"}


def test_count_quotient_full_plane(capsys):
    code, out, _ = run_cli(
        ["count", "--what", "quotient", "--p", "7"], capsys
    )
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last == "quotient,brute,7,2,49,,,7"


def test_count_json_format(capsys):
    code, out, _ = run_cli(
        ["count", "--what", "V", "--p", "3", "--random", "4", "--seed", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "dilatelab-json v1"
    assert payload["kind"] == "count"
    assert len(payload["rows"]) == 2  # r in {1, 2}


def test_count_triangle_nonsquare_ratio_skips_group_sum(capsys):
    code, out, err = run_cli(
        ["count", "--what", "T_triangle", "--p", "7", "--random", "5", "--seed", "4",
         "--r", "3", "--method", "all"],
        capsys,
    )
    assert code == 0
    assert "group_sum skipped" in err
    rows = [ln for ln in out.splitlines() if ln.startswith("T_triangle")]
    assert len(rows) == 1  # brute row still emitted


def test_count_triangle_square_ratio_bounds(capsys):
    code, out, _ = run_cli(
        ["count", "--what", "T_triangle", "--p", "7", "--random", "7", "--seed", "4",
         "--r", "2", "--method", "all"],
        capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ln.startswith("T_triangle")]
    methods = {row[6]: int(row[5]) for row in rows}
    assert set(methods) == {"brute", "group_sum"}
    assert methods["group_sum"] <= methods["brute"]


@pytest.mark.parametrize("what,bound,counter", [
    ("T", "triangle_bound_group_sum", count_triangle_pairs),
    ("P", "simplex_bound_group_sum", count_simplex_pairs),
])
def test_a_bound_over_the_exact_count_is_a_mismatch(what, bound, counter, monkeypatch, capsys):
    # the certified bound averages pairs over the group, so it never exceeds the count
    monkeypatch.setattr(f"dilatelab.cli.{bound}", lambda E, ratio: counter(E, ratio).value + 1)
    code, out, err = run_cli(["count", "--what", what, "--p", "7", "--random", "7", "--seed", "4",
                              "--r", "2", "--method", "all"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("method mismatch (implementation bug): the group_sum bound ")
    # the unpatched bound passes the check
    monkeypatch.undo()
    code, _, err = run_cli(["count", "--what", what, "--p", "7", "--random", "7", "--seed", "4",
                            "--r", "2", "--method", "all"], capsys)
    assert code == 0 and err == ""


def test_verify_vacuous_t16(capsys):
    code, out, _ = run_cli(
        ["verify", "--claim", "T1.6", "--p", "7", "--r", "1"], capsys
    )
    assert code == 0
    row = out.strip().splitlines()[-1]
    assert "VACUOUS" in row


def test_verify_claim_sweep_two_point(tmp_path, capsys):
    set_path = tmp_path / "two.txt"
    set_path.write_text("p=7 d=2\n0,0\n1,0\n")
    code, out, _ = run_cli(
        ["verify", "--claim", "all", "--set", str(set_path), "--r", "1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == ("claim,p,d,E_size,r,k,hypothesis_met,conclusion_holds,"
                        "status,lhs,rhs")
    assert not any(",FAILED," in ln for ln in lines)
    claims = {ln.split(",")[0] for ln in lines[2:]}
    assert "lemma2.3" in claims and "quotient" in claims


def test_verify_sweep_skips_guarded_claims(capsys):
    # at p = 101 a 42-point set is beyond the cycle census guard
    # (42^4 > 3 * 10^6 possible profiles), so the claims that count cycle
    # pairs are skipped while the rest still run
    code, out, err = run_cli(
        ["verify", "--claim", "all", "--p", "101", "--random", "2", "--size", "42",
         "--seed", "2", "--r", "1"],
        capsys,
    )
    assert code == 0
    assert "lemma2.4 skipped" in err and "lemma4.2 skipped" in err
    claims = {ln.split(",")[0] for ln in out.strip().splitlines()[2:]}
    assert "lemma2.3" in claims and "T1.6" in claims
    assert "lemma2.4" not in claims and "lemma4.2" not in claims


def test_verify_single_guarded_claim_still_exits_3(capsys):
    code, _, err = run_cli(
        ["verify", "--claim", "lemma4.2", "--p", "101", "--random", "2",
         "--size", "42", "--seed", "2", "--r", "1"],
        capsys,
    )
    assert code == 3
    assert "guard exceeded" in err


def test_verify_random_rows(capsys):
    code, out, _ = run_cli(
        ["verify", "--claim", "lemma2.3", "--random", "10", "--p", "7",
         "--size", "4:8", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rows = [ln for ln in out.strip().splitlines() if ln.startswith("lemma2.3")]
    assert len(rows) == 10
    assert all(",HOLDS," in ln for ln in rows)


def test_verify_size_step(capsys):
    code, out, _ = run_cli(
        ["verify", "--claim", "lemma2.3", "--random", "4", "--p", "7",
         "--size", "4:10:2", "--seed", "3", "--r", "1"],
        capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines() if ln.startswith("lemma2.3")]
    assert [int(row[3]) for row in rows] == [4, 6, 8, 10]


def test_verify_size_reversed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "lemma2.3", "--random", "2", "--p", "7",
              "--size", "10:4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad size range" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--claim", "T1.10", "--p", "7", "--random", "1", "--size", "20",
      "--k", "0", "--r", "3"], "--k"),
    (["verify", "--claim", "T1.10", "--p", "7", "--random", "1", "--size", "20",
      "--k", "-1", "--r", "3"], "--k"),
    (["count", "--what", "S_k", "--p", "7", "--random", "0", "--r", "1"], "--random"),
    (["count", "--what", "S_k", "--p", "7", "--random", "-1", "--r", "1"], "--random"),
    (["verify", "--claim", "lemma2.3", "--p", "7", "--random", "0"], "--random"),
    (["verify", "--claim", "lemma2.3", "--p", "7", "--random", "-1"], "--random"),
    (["gen", "--p", "7", "--size", "0"], "--size"),
])
def test_nonpositive_counts_are_usage_errors(argv, flag, capsys):
    # a zero-size set or walk must not fall back to the full space, reach a
    # verdict, or be reported as a refused guard
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} must be at least 1" in err and "Traceback" not in err


def test_walk_pairs_past_the_lane_guard_keep_walk_dp(capsys):
    # nu_identity would need 8 rows of 8^8 four-byte lanes (512 MiB) and brute
    # 8 * 7^8 + 8^9 tuples: both are optional and left out, not run or refused
    code, out, err = run_cli(["count", "--what", "S_k", "--p", "11", "--random", "8",
                              "--k", "8", "--method", "all", "--r", "1"], capsys)
    assert code == 0
    assert err == ("note: brute skipped for S_k r=1 (guard: a brute count of 8-step walks "
                   "on 8 points refused, over 1000000 tuples)\n"
                   "note: nu_identity skipped for S_k r=1 (guard: 8^8 profiles exceed "
                   "262144 lanes)\n")
    assert [row.split(",")[1] for row in out.splitlines()[2:]] == ["walk_dp"]
    # T1.10 skips only its cross-check against the identity
    code, out, _ = run_cli(["verify", "--claim", "T1.10", "--p", "11", "--random", "1",
                            "--size", "8", "--k", "8", "--r", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 3


def test_walks_past_the_profile_lane_bound_keep_walk_dp(tmp_path, capsys, monkeypatch):
    # two steps, 9 and the null segment 0: nu_identity's last level would hold
    # 2^20 profiles, over PROFILE_GUARD, so it is refused before its classes
    # are laid out, and brute would visit 3^21 tuples
    set_path = tmp_path / "three.txt"
    set_path.write_text("p=13 d=2\n0,0\n1,5\n1,8\n")
    E = load_point_set(set_path)

    def never(*args):
        raise AssertionError("the guard must refuse before the classes are laid out")

    with monkeypatch.context() as patch:
        patch.setattr(configcount, "_distance_classes", never)
        for k in (19, 20):
            with pytest.raises(TooLargeError, match="profiles exceed"):
                configcount.step_profile_counts(E, k)
    code, out, err = run_cli(["count", "--what", "S_k", "--set", str(set_path), "--k", "20",
                              "--method", "all", "--r", "2"], capsys)
    assert code == 0
    assert [row.split(",")[1] for row in out.splitlines()[2:]] == ["walk_dp"]
    assert err == ("note: brute skipped for S_k r=2 (guard: a brute count of 20-step walks "
                   "on 3 points refused, over 1000000 tuples)\n"
                   "note: nu_identity skipped for S_k r=2 (guard: 2^20 profiles exceed "
                   "262144 lanes)\n")


def test_2path_parts_keep_the_brute_rows_when_the_closed_forms_are_refused(monkeypatch,
                                                                           capsys):
    # with a one-lane profile guard every step-profile table is refused: the
    # closed forms are an optional cross-check, so the brute rows stay
    monkeypatch.setattr(configcount, "PROFILE_GUARD", 1)
    code, out, err = run_cli(["count", "--what", "2path_parts", "--p", "7", "--random", "8",
                              "--r", "2", "--method", "all"], capsys)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["A", "B", "A∩B", "open"]
    assert {row.split(",")[-1] for row in out.splitlines()[2:]} == {"brute"}
    assert err == ("note: nu_identity skipped for 2path_parts r=2 "
                   "(guard: 6^2 profiles exceed 1 lanes)\n")


def test_verify_notes_each_refused_cross_check_once(monkeypatch, capsys):
    # three points at k = 19: T1.10 keeps walk_dp and notes nu_identity's
    # refusal with the text count --method all gives the same set
    argv = ["--p", "13", "--random", "1", "--size", "3", "--k", "19", "--r", "2", "--seed", "1"]
    note = "note: nu_identity skipped for S_k r=2 (guard: 3^19 profiles exceed 262144 lanes)\n"
    code, out, err = run_cli(["verify", "--claim", "T1.10", *argv], capsys)
    assert code == 0 and out.splitlines()[2].startswith("T1.10,")
    assert err == note
    code, _, err = run_cli(["count", "--what", "S_k", "--method", "all", "--p", "13",
                            "--random", "3", "--k", "19", "--r", "2", "--seed", "1:0"], capsys)
    assert code == 0 and note in err
    # with a one-lane profile guard S_1 is refused in lemmas 2.2 and 2.3 and
    # S_2 in lemmas 2.3, 2.4 and 4.2, yet each is noted once per set and ratio
    monkeypatch.setattr(configcount, "PROFILE_GUARD", 1)
    code, out, err = run_cli(["verify", "--claim", "all", "--p", "7", "--random", "1",
                              "--size", "8", "--r", "2", "--seed", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 12
    assert err == ("note: lemma2.6 skipped on |E|=8 (guard: 7^1 profiles exceed 1 lanes)\n"
                   + "".join(f"note: nu_identity skipped for S_k r=2 "
                             f"(guard: 6^{k} profiles exceed 1 lanes)\n" for k in (1, 2, 3)))


def test_verify_determinism(capsys):
    args = ["verify", "--claim", "lemma2.2", "--random", "6", "--p", "11",
            "--seed", "9"]
    _, out_a, _ = run_cli(args, capsys)
    _, out_b, _ = run_cli(args, capsys)
    assert out_a == out_b


def test_scan_csv(capsys):
    code, out, _ = run_cli(
        ["scan", "--family", "C2path", "--p", "7", "--sizes", "2:6", "--samples", "3",
         "--seed", "7", "--r", "1", "--threads", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "family,p,d,r_policy,size,samples,positive,fraction,seed"
    assert len(lines) == 2 + 5


def test_scan_usage_error_zero_samples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "C2path", "--p", "7", "--sizes", "2:6",
              "--samples", "0"])
    assert exc.value.code == 2


def test_scan_bad_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "C2path", "--p", "7", "--sizes", "9:2",
              "--samples", "1"])
    assert exc.value.code == 2


def test_usage_error_missing_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--what", "S_k"])
    assert exc.value.code == 2


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dilatelab.cli", "count", "--what", "distance",
         "--p", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("3")  # three distances in the full plane


def test_count_two_path_parts(capsys):
    code, out, _ = run_cli(
        ["count", "--what", "2path_parts", "--p", "7", "--random", "6", "--seed", "3",
         "--r", "2", "--method", "all"],
        capsys,
    )
    assert code == 0
    rows = {ln.split(",")[0]: ln for ln in out.splitlines()[2:]}
    assert {"A", "B", "A∩B", "open"} <= set(rows)
    # closed-form rows agree with the brute rows
    both = [ln for ln in out.splitlines()[2:] if ln.startswith("A,")]
    assert len({ln.split(",")[5] for ln in both}) == 1


def test_2path_parts_closed_forms_off_by_one_are_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr("dilatelab.families.two_path_parts_closed_form",
                        lambda E, ratio: tuple(v + 1 for v in two_path_parts_closed_form(E, ratio)))
    argv = ["count", "--what", "2path_parts", "--p", "7", "--random", "6", "--seed", "3",
            "--r", "2"]
    code, out, err = run_cli([*argv, "--method", "all"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("method mismatch (implementation bug): methods disagree on "
                          "(kind, r, k) = ('2path_parts', 2, None)")
    # without --method all the closed forms are not read
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and len(out.splitlines()) == 6


def test_count_two_path_parts_with_null_segments(capsys):
    # at p = 5 distinct points can sit at squared distance 0; the closed forms
    # still hold and give one nu_identity row per enumerated part
    code, out, err = run_cli(
        ["count", "--what", "2path_parts", "--method", "all", "--p", "5", "--random", "8",
         "--r", "2"],
        capsys,
    )
    assert code == 0 and err == ""
    # family,p,d,E_size,r,value,method
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    values = {(row[0], row[-1]): row[-2] for row in rows}
    for name in ("A", "B", "A∩B"):
        assert values[(name, "nu_identity")] == values[(name, "brute")]
    assert [row[-1] for row in rows].count("nu_identity") == 3


def last_value(argv, capsys):
    # the value column of the last row, whichever of the two headers it has
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, *rows = out.splitlines()[1:]
    return int(rows[-1].split(",")[header.split(",").index("value")])


@pytest.mark.parametrize("p,seed,same", [(13, "1", False), (7, "1", True)])
def test_open_row_is_inclusion_exclusion_not_c2path(p, seed, same, capsys):
    # open counts x1 != x3 and y1 != y3: S_2 + S_1 - A - B.  Where null
    # segments exist it holds pairs with y1 = y2 too, so it is not C2path
    base = ["--p", str(p), "--random", "8", "--r", "2", "--seed", seed]
    code, out, _ = run_cli(["count", "--what", "2path_parts", *base], capsys)
    assert code == 0
    parts = {row.split(",")[0]: int(row.split(",")[-2]) for row in out.splitlines()[2:]}
    s1, s2 = (last_value(["count", "--what", "S_k", "--k", k, "--method", "walk_dp", *base],
                         capsys) for k in ("1", "2"))
    assert parts["open"] == s2 + s1 - parts["A"] - parts["B"]
    c2path = last_value(["count", "--what", "C2path", *base], capsys)
    assert (parts["open"] == c2path) == same
    if p == 13:
        assert (parts["open"], c2path, s2, s1) == (738, 494, 1318, 268)


def test_two_path_parts_reach_the_brute_guard(capsys):
    # brute rows by histogram: n = 40 runs every ratio and matches the closed forms
    code, out, err = run_cli(["count", "--what", "2path_parts", "--method", "all",
                              "--p", "11", "--random", "40", "--threads", "1"], capsys)
    assert code == 0 and err == ""
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    brute = [row[:-1] for row in rows if row[-1] == "brute"]
    closed = [row[:-1] for row in rows if row[-1] == "nu_identity"]
    assert len(brute) == 40 and [row for row in brute if row[0] != "open"] == closed
    # n = 80: 80 * 79^2 + 80^3 tuples, refused before any is visited
    start = time.process_time()
    code, out, err = run_cli(["count", "--what", "2path_parts", "--method", "all",
                              "--p", "11", "--random", "80", "--threads", "1"], capsys)
    assert code == 3 and out == ""
    assert "1011280 tuples refused, over 1000000" in err
    assert time.process_time() - start < 1.0


def test_count_nu_identity_with_null_segments(capsys):
    code, out, err = run_cli(
        ["count", "--what", "S_k", "--method", "nu_identity", "--p", "13", "--random", "12",
         "--k", "2", "--r", "2"],
        capsys,
    )
    assert code == 0 and err == ""
    _, walk_dp, _ = run_cli(
        ["count", "--what", "S_k", "--method", "walk_dp", "--p", "13", "--random", "12",
         "--k", "2", "--r", "2"],
        capsys,
    )
    row, = out.splitlines()[2:]
    assert row.split(",")[1] == "nu_identity"
    assert row.split(",")[-1] == walk_dp.splitlines()[-1].split(",")[-1]


def test_count_two_path_parts_to_file(tmp_path, capsys):
    # the A∩B token is non-ASCII; file output must still round-trip
    out = tmp_path / "parts.csv"
    code, _, _ = run_cli(
        ["count", "--what", "2path_parts", "--p", "7", "--random", "5", "--seed", "1",
         "--r", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "A∩B" in out.read_text(encoding="utf-8")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dilatelab", "count", "--what", "distance", "--p", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("3")


def test_count_four_cycle_subfamilies(capsys):
    code, out, _ = run_cli(
        ["count", "--what", "F4cycle", "--p", "7", "--random", "6", "--seed", "3",
         "--r", "1", "--method", "all"],
        capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["F4cycle", "A13", "A24", "B13", "B24"]
    assert {row[6] for row in rows} == {"mu_identity"}


def test_count_cycles_at_p_1_mod_4_use_the_census(capsys):
    # 14^8 > 10^9 rules out brute, and p = 5 has null segments
    code, out, _ = run_cli(
        ["count", "--what", "C", "--p", "5", "--random", "14", "--r", "2"], capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["C", "mu_identity"]]


def test_count_simplex_group_guard_keeps_exact_rows(capsys):
    # the frame search for O(3, 17) is refused; the brute count stays
    code, out, err = run_cli(
        ["count", "--what", "P", "--d", "3", "--p", "17", "--random", "7",
         "--method", "all", "--r", "4"],
        capsys,
    )
    assert code == 0
    assert err == ("note: group_sum skipped for P_simplex r=4 (guard: the O(3, 17) frame "
                   "search may take 2996352 steps, over 1000000)\n")
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert [(row[0], row[6]) for row in rows] == [("P_simplex", "brute")]


def test_count_simplex_group_sum_at_p_11(capsys):
    # O(3, 11) has 2640 elements, a frame search the group guard admits
    code, out, err = run_cli(
        ["count", "--what", "P", "--d", "3", "--p", "11", "--random", "7",
         "--method", "all", "--r", "4"],
        capsys,
    )
    assert code == 0
    assert "skipped" not in err
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    methods = {row[6]: int(row[5]) for row in rows}
    assert set(methods) == {"brute", "group_sum"}
    assert methods["group_sum"] <= methods["brute"]


def test_count_triangles_at_the_t17_threshold(capsys):
    # n = 3p: the v side runs over C(33, 3) combinations, well inside the guard
    code, out, _ = run_cli(
        ["count", "--what", "T", "--p", "11", "--random", "33", "--r", "3"], capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert [(row[0], row[6]) for row in rows] == [("T_triangle", "brute")]


def test_count_displacement_rows(capsys):
    code, out, _ = run_cli(
        ["count", "--what", "displacement", "--p", "7", "--random", "5", "--seed", "1",
         "--r", "2"],
        capsys,
    )
    assert code == 0
    families = {ln.split(",")[0] for ln in out.splitlines()[2:]}
    assert families == {"Lambda_theta", "N_theta", "A_kl"}


def test_count_triangle_alias(capsys):
    code_alias, out_alias, _ = run_cli(
        ["count", "--what", "T", "--p", "7", "--random", "5", "--seed", "4", "--r", "3"],
        capsys,
    )
    code_full, out_full, _ = run_cli(
        ["count", "--what", "T_triangle", "--p", "7", "--random", "5", "--seed", "4",
         "--r", "3"],
        capsys,
    )
    assert code_alias == code_full == 0
    assert out_alias == out_full


def test_count_simplex_pairs_3d_file(tmp_path, capsys):
    set_path = tmp_path / "cube.txt"
    from dilatelab.field import make_prime
    from dilatelab.geometry import random_point_set, save_point_set

    E = random_point_set(make_prime(3), 3, 8, seed=6)
    save_point_set(E, set_path)
    code, out, _ = run_cli(
        ["count", "--what", "P_simplex", "--set", str(set_path), "--r", "1",
         "--method", "all"],
        capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    methods = {row[6]: int(row[5]) for row in rows}
    assert set(methods) == {"brute", "group_sum"}
    assert methods["group_sum"] <= methods["brute"]


def test_set_file_contradicting_p_flag(tmp_path, capsys):
    set_path = tmp_path / "two.txt"
    set_path.write_text("p=7 d=2\n0,0\n1,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", "--what", "V", "--set", str(set_path), "--p", "11", "--r", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["count", "--what", "V"], ["verify", "--claim", "T1.5"]])
def test_set_file_contradicting_d_flag(command, tmp_path, capsys):
    # not a run in the file's dimension that ignores --d
    set_path = tmp_path / "two.txt"
    set_path.write_text("p=7 d=2\n0,0\n1,0\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--set", str(set_path), "--d", "3", "--r", "1"])
    assert exc.value.code == 2
    assert "--d 3 contradicts the file header d=2" in capsys.readouterr().err
    # a --d that agrees with the header is accepted
    code, out, _ = run_cli([*command, "--set", str(set_path), "--d", "2", "--r", "1"], capsys)
    assert code == 0 and out


@pytest.mark.parametrize("command", [["count", "--what", "V"], ["verify", "--claim", "T1.5"]])
def test_set_file_and_random_sets_are_exclusive(command, tmp_path, capsys):
    # count used the file and verify the random instances; neither is taken now
    set_path = tmp_path / "two.txt"
    set_path.write_text("p=7 d=2\n0,0\n1,0\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--set", str(set_path), "--random", "3", "--p", "7", "--r", "1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_gen_has_no_format_flag(capsys):
    # gen writes a point-set file whatever the format, so the flag is refused
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--p", "7", "--size", "3", "--format", "json"])
    assert exc.value.code == 2


def test_verify_exit_4_on_catalog_contradiction(monkeypatch, capsys):
    # force a hypothesis-met failing verdict to check the exit-code plumbing
    from dilatelab import cli as cli_mod
    from dilatelab.verify import Verdict

    def fake_run_claim(name, E, ratio=None, k=3):
        return Verdict(claim=name, hypothesis_met=True, conclusion_holds=False,
                       lhs=0, rhs=1, params={"p": E.prime.p, "d": E.d, "E_size": len(E)})

    monkeypatch.setattr(cli_mod, "run_claim", fake_run_claim)
    code, out, _ = run_cli(
        ["verify", "--claim", "lemma2.3", "--p", "7", "--random", "3", "--r", "1"],
        capsys,
    )
    assert code == 4
    assert ",FAILED," in out


def test_verify_holds_one_instance_at_a_time(monkeypatch, capsys):
    from dilatelab import cli as cli_mod

    real = cli_mod.run_claim
    refs = []

    def tracking(name, E, ratio=None, k=3):
        if not refs or refs[-1]() is not E:
            # a new instance: every earlier one and its cached tables are gone
            gc.collect()
            assert [ref() for ref in refs] == [None] * len(refs)
            refs.append(weakref.ref(E))
        return real(name, E, ratio, k)

    monkeypatch.setattr(cli_mod, "run_claim", tracking)
    code, _, _ = run_cli(["verify", "--claim", "lemma2.3", "--random", "4", "--p", "7",
                          "--size", "6"], capsys)
    assert code == 0 and len(refs) == 4


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "all", "--random", "3", "--size", "8:12", "--p", "7"],
    ["scan", "--family", "T_triangle", "--p", "7", "--sizes", "2:12", "--samples", "4"],
    ["scan", "--family", "F4cycle", "--p", "7", "--sizes", "2:8", "--samples", "3"],
], ids=["verify", "scan-T", "scan-F4"])
def test_commands_leave_no_point_set_to_the_cyclic_collector(argv, capsys):
    # every set a command makes is freed by reference counting: a reference
    # cycle through a witness search would keep its tables until a gc pass
    def point_sets():
        return [obj for obj in gc.get_objects() if isinstance(obj, PointSet)]

    gc.collect()
    before = point_sets()
    gc.disable()
    try:
        code, _, _ = run_cli([*argv, "--threads", "1"], capsys)
        left = [obj for obj in point_sets() if not any(obj is old for old in before)]
    finally:
        gc.enable()
    assert code == 0 and left == []


def test_parser_is_built_once_per_process(capsys):
    # each build leaves its formatter and actions in reference cycles, so
    # commands that rebuilt it would leave parsers to the cyclic collector
    def parsers():
        return sum(isinstance(obj, argparse.ArgumentParser) for obj in gc.get_objects())

    assert build_parser() is build_parser()
    argv = ["count", "--what", "distance", "--p", "7", "--random", "5"]
    gc.collect()
    gc.disable()
    try:
        assert run_cli(argv, capsys)[0] == 0
        after_one = parsers()
        for _ in range(4):
            assert run_cli(argv, capsys)[0] == 0
        after_five = parsers()
    finally:
        gc.enable()
    assert after_five <= after_one


def test_shared_parser_answers_usage_errors_and_help_alike(capsys):
    # a parse leaves nothing behind in the shared parser: errors and help
    # read the same after any number of commands as from a fresh build
    fresh = build_parser.__wrapped__()
    for argv in (["count", "--what", "nope"], ["count", "--help"], ["--help"], []):
        seen = set()
        for parser in (fresh, build_parser(), build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            captured = capsys.readouterr()
            seen.add((exc.value.code, captured.out, captured.err))
        assert len(seen) == 1
    assert run_cli(["count", "--what", "distance", "--p", "7", "--random", "3"], capsys)[0] == 0
    assert build_parser().format_help() == fresh.format_help()


def test_verify_counts_each_walk_pair_total_once(monkeypatch, capsys):
    calls = Counter()
    for name in ("_walk_dp_scaled_pairs", "_nu_identity_scaled_walk_pairs"):
        real = getattr(configcount, name)

        def counted(E, r, k, _real=real, _name=name):
            calls[_name, k] += 1
            return _real(E, r, k)

        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("dilatelab") \
                    and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    code, _, _ = run_cli(["verify", "--claim", "all", "--random", "1", "--p", "7",
                          "--size", "9", "--r", "3"], capsys)
    assert code == 0
    # S_1 serves lemmas 2.2 and 2.3, S_2 lemmas 2.3, 2.4 and 4.2, S_3 T1.10
    assert calls == {(name, k): 1 for name in ("_walk_dp_scaled_pairs",
                                               "_nu_identity_scaled_walk_pairs")
                     for k in (1, 2, 3)}


def test_ratio_free_claims_are_checked_once_per_set(tmp_path, capsys):
    set_path = tmp_path / "set.txt"
    assert main(["gen", "--p", "7", "--size", "9", "--seed", "5", "--out", str(set_path)]) == 0
    code, out, _ = run_cli(["verify", "--claim", "all", "--set", str(set_path), "--r", "all"],
                           capsys)
    assert code == 0
    rows = Counter(ln.split(",")[0] for ln in out.splitlines()[2:])
    assert rows == {claim: 1 if claim in RATIO_FREE_CLAIMS else 6 for claim in CLAIM_NAMES}
    # every random instance is a set of its own
    code, out, _ = run_cli(["verify", "--claim", "lemma2.6", "--random", "8", "--p", "7",
                            "--size", "4:7", "--r", "all"], capsys)
    assert code == 0
    assert [ln.split(",")[3] for ln in out.splitlines()[2:]] == ["4", "5", "6", "7"] * 2


def test_verify_size_past_the_space_exits_3_before_any_claim(monkeypatch, capsys):
    from dilatelab import cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("no claim may run")

    monkeypatch.setattr(cli_mod, "run_claim", never)
    code, _, err = run_cli(["verify", "--claim", "all", "--random", "8", "--p", "5",
                            "--size", "20:30", "--r", "1"], capsys)
    assert code == 3
    assert "cannot pick 26 distinct points from 25" in err


@pytest.mark.parametrize("what", COUNT_KINDS + tuple(WHAT_ALIASES))
def test_unknown_method_is_a_usage_error_for_every_kind(what, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--what", what, "--method", "bogus", "--p", "7", "--random", "6",
              "--r", "1"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


@pytest.mark.parametrize("what,method,methods", [
    ("S_k", "mu_identity", "brute, nu_identity, walk_dp"),
    ("C", "walk_dp", "brute, mu_identity"),
    ("T_triangle", "walk_dp", "brute, group_sum"),
    ("P_simplex", "walk_dp", "brute, group_sum"),
    ("2path_parts", "walk_dp", "brute, nu_identity"),
    # every other kind has one method
    ("C2path", "nu_identity", "brute"),
    ("F4cycle", "brute", "mu_identity"),
    ("V", "brute", "nu_identity"),
    ("displacement", "brute", "group_sum"),
    ("quotient", "walk_dp", "brute"),
])
def test_method_of_another_kind_names_the_kind_and_its_methods(what, method, methods, capsys):
    code, out, err = run_cli(["count", "--what", what, "--method", method, "--p", "7",
                              "--random", "5", "--r", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} has no method {method!r}; its methods are {methods}\n"


def _rows_by_method(out: str) -> list[tuple[str, list[str]]]:
    """The csv rows of a count, each with its method, read by the header's column."""
    header, *rows = out.splitlines()[1:]
    column = header.split(",").index("method")
    return [(row.split(",")[column], row.split(",")) for row in rows]


@pytest.mark.parametrize("what,method", [(what, method) for what, methods in KIND_METHODS.items()
                                         for method in methods])
def test_each_method_prints_its_rows_of_method_all(what, method, capsys):
    # a method named alone prints the rows --method all prints for it, apart
    # from F4cycle's coincidence subfamilies, which only all adds
    argv = ["count", "--what", what, "--p", "7", "--random", "6", "--r", "1", "--method"]
    code, out_all, _ = run_cli([*argv, "all"], capsys)
    assert code == 0
    code, out, err = run_cli([*argv, method], capsys)
    assert code == 0 and err == ""
    rows = [row for m, row in _rows_by_method(out_all)
            if m == method and row[0] not in ("A13", "A24", "B13", "B24")]
    assert rows and [row for _, row in _rows_by_method(out)] == rows
    if method == KIND_METHODS[what][0]:  # auto runs the first method
        assert run_cli([*argv, "auto"], capsys)[1] == out


def test_every_skipped_method_is_noted_in_one_format(capsys):
    # a bound at a non-square ratio, with all or named alone, and the
    # displacement rows there, are recorded and noted like a refused check
    argv = ["--p", "7", "--random", "6", "--r", "3"]
    for what, method in (("T", "all"), ("P", "all"), ("T", "group_sum"),
                         ("displacement", "auto")):
        kind = WHAT_ALIASES.get(what, what)
        code, out, err = run_cli(["count", "--what", what, "--method", method, *argv], capsys)
        assert code == 0
        assert err == f"note: group_sum skipped for {kind} r=3 (not a square)\n"
        assert "group_sum" not in out


def test_the_simplex_bound_needs_the_dimension_the_count_needs(capsys):
    # named alone, group_sum reaches P at d = 1, which the brute count refuses
    for method in ("brute", "group_sum"):
        code, out, err = run_cli(["count", "--what", "P", "--d", "1", "--p", "7", "--random", "5",
                                  "--r", "1", "--method", method], capsys)
        assert (code, out) == (2, "")
        assert err == "error: simplex pairs need dimension at least 2\n"


def test_gen_stdout_is_its_out_file(tmp_path, capsys):
    path = tmp_path / "set.txt"
    argv = ["gen", "--p", "11", "--d", "3", "--size", "9", "--seed", "4"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and run_cli([*argv, "--out", str(path)], capsys)[0] == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["gen", "--p", "7", "--size", "3"],
    ["count", "--what", "S_k", "--p", "7", "--random", "3", "--r", "1"],
    ["verify", "--claim", "T1.5", "--p", "7", "--random", "1", "--size", "3"],
    ["scan", "--family", "C2path", "--p", "7", "--sizes", "2:4", "--samples", "2"],
], ids=["gen", "count", "verify", "scan"])
def test_dimension_below_one_is_a_usage_error(argv, d, capsys):
    # not a refused guard (exit 3) about a 1-point or fractional space
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--d", d, "--threads", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--d must be at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["gen", "--p", "7", "--size", "3"],
    ["count", "--what", "S_k", "--p", "7", "--random", "3", "--r", "1"],
    ["verify", "--claim", "T1.5", "--p", "7", "--random", "1", "--size", "3"],
    ["scan", "--family", "C2path", "--p", "7", "--sizes", "2:4", "--samples", "2"],
], ids=["gen", "count", "verify", "scan"])
def test_threads_below_one_is_a_usage_error(argv, threads, capsys):
    # not a quiet fall back to one process
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threads must be at least 1" in err and "Traceback" not in err


def test_set_file_of_dimension_zero_is_a_usage_error(tmp_path, capsys):
    set_path = tmp_path / "flat.txt"
    set_path.write_text("p=7 d=0\n\n")
    code, _, err = run_cli(["count", "--what", "V", "--set", str(set_path), "--r", "1"], capsys)
    assert code == 2 and "dimension must be at least 1" in err


def test_scan_output_does_not_depend_on_the_worker_count(capsys):
    argv = ["scan", "--family", "T_triangle", "--p", "7", "--sizes", "3:14:2",
            "--samples", "5", "--r", "all", "--seed", "3"]
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run_cli([*argv, "--threads", threads], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert {"0", "5"} < {line.split(",")[6] for line in outs[0].splitlines()[2:]}


def test_output_file_and_stdout_agree(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    args = ["count", "--what", "S_k", "--k", "1", "--p", "7", "--random", "5",
            "--seed", "5", "--r", "2"]
    code, stdout_text, _ = run_cli(args, capsys)
    assert code == 0
    code2, _, _ = run_cli(args + ["--out", str(out_path)], capsys)
    assert code2 == 0
    assert out_path.read_text() == stdout_text


# (argv, seed, rows of (E_size, d, p, r, witness)), recorded before the
# counting and witness searches were folded into one enumerator per family
PINNED_WITNESSES = [
    (["--claim", "T1.5", "--p", "7", "--random", "3", "--size", "5:7"], "11", [
        ("5", "2", "7", "1", "(((5, 0), (6, 0), (3, 3)), ((5, 0), (6, 0), (3, 3)))"),
        ("6", "2", "7", "2", "(((1, 0), (2, 0), (4, 0)), ((1, 0), (4, 0), (6, 5)))"),
        ("7", "2", "7", "3", "(((3, 1), (6, 1), (0, 4)), ((3, 1), (5, 5), (5, 2)))"),
    ]),
    (["--claim", "T1.7", "--p", "7", "--r", "squares", "--random", "3",
      "--size", "6:8"], "12", [
        ("6", "2", "7", "1", "(((2, 0), (3, 3), (0, 4)), ((2, 0), (3, 3), (0, 4)))"),
        ("7", "2", "7", "2", "(((4, 0), (1, 4), (1, 2)), ((0, 0), (3, 0), (4, 1)))"),
        ("8", "2", "7", "4", "(((6, 6), (3, 2), (5, 4)), ((3, 2), (1, 4), (2, 5)))"),
    ]),
    (["--claim", "T1.8", "--d", "3", "--p", "5", "--r", "squares", "--random", "3",
      "--size", "6:8"], "13", [
        ("6", "3", "5", "1", "(((2, 3, 0), (3, 1, 1), (3, 4, 1), (0, 3, 2)), "
                             "((2, 3, 0), (3, 1, 1), (3, 4, 1), (0, 3, 2)))"),
        ("7", "3", "5", "4", "(((4, 0, 3), (1, 4, 2), (3, 0, 4), (3, 0, 0)), "
                             "((0, 0, 0), (3, 0, 0), (1, 1, 1), (3, 0, 4)))"),
        ("8", "3", "5", "1", "(((3, 1, 0), (4, 3, 0), (4, 4, 0), (3, 0, 3)), "
                             "((3, 1, 0), (4, 3, 0), (4, 4, 0), (3, 0, 3)))"),
    ]),
    # T1.6 rows recorded while the cycle witness still had its own nested
    # search; p = 13 and p = 5 are 1 (mod 4), where null segments exist
    (["--claim", "T1.6", "--p", "7", "--random", "3", "--size", "6:8"], "14", [
        ("6", "2", "7", "1", "(((5, 1), (1, 2), (2, 2), (5, 4)), "
                             "((5, 1), (1, 2), (2, 2), (5, 4)))"),
        ("7", "2", "7", "2", "(((2, 0), (4, 2), (2, 6), (1, 3)), "
                             "((2, 0), (2, 3), (4, 2), (6, 5)))"),
        ("8", "2", "7", "3", "(((1, 0), (3, 0), (4, 0), (2, 1)), "
                             "((1, 0), (6, 1), (3, 0), (5, 2)))"),
    ]),
    (["--claim", "T1.6", "--p", "13", "--random", "3", "--size", "7:9"], "14", [
        ("7", "2", "13", "1", "(((9, 0), (4, 1), (11, 2), (9, 4)), "
                              "((9, 0), (4, 1), (11, 2), (9, 4)))"),
        ("8", "2", "13", "2", "(((1, 1), (11, 1), (6, 2), (4, 7)), "
                              "((7, 3), (9, 2), (1, 1), (4, 7)))"),
        ("9", "2", "13", "3", "(((5, 2), (0, 4), (5, 6), (7, 9)), "
                              "((10, 4), (0, 4), (7, 9), (5, 6)))"),
    ]),
    (["--claim", "T1.6", "--p", "5", "--random", "3", "--size", "6:8"], "14", [
        ("6", "2", "5", "1", "(((0, 1), (2, 1), (3, 1), (4, 1)), "
                             "((0, 1), (2, 1), (3, 1), (4, 1)))"),
        ("7", "2", "5", "2", "(((1, 0), (0, 1), (3, 1), (2, 3)), "
                             "((3, 1), (0, 1), (2, 3), (1, 0)))"),
        ("8", "2", "5", "3", "(((0, 0), (3, 0), (2, 1), (0, 2)), "
                             "((3, 0), (2, 4), (3, 4), (2, 1)))"),
    ]),
]


@pytest.mark.parametrize("argv,seed,rows", PINNED_WITNESSES)
def test_verify_witnesses_are_pinned(argv, seed, rows, capsys):
    # witnesses are the first pair in a fixed search order, so the exact
    # JSON text is part of the output contract, not just its validity
    code, out, _ = run_cli(["verify", *argv, "--seed", seed, "--format", "json"], capsys)
    assert code == 0
    expected = {
        "schema": "dilatelab-json v1",
        "kind": "verify",
        "seed": seed,
        "rows": [
            {
                "claim": argv[1],
                "hypothesis_met": False,
                "conclusion_holds": True,
                "status": "VACUOUS",
                "lhs": "1",
                "rhs": "0",
                "params": {"p": p, "d": d, "E_size": size, "r": r, "witness": witness},
            }
            for size, d, p, r, witness in rows
        ],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# 10^9 as a walk length must be refused at once, never allocated or looped over
SMALL = st.integers(min_value=-1, max_value=8) | st.just(10**9)


@st.composite
def cli_argv(draw):
    seed = ["--seed", str(draw(st.integers(0, 3))), "--threads", "1"]
    command = draw(st.sampled_from(("gen", "count", "verify", "scan")))
    if command == "scan":
        lo = draw(st.integers(0, 8))
        hi = lo + draw(st.integers(-1, 4))
        return ["scan", "--p", str(draw(st.sampled_from((3, 5, 7)))),
                "--d", str(draw(st.integers(-1, 3))), *seed,
                "--family", draw(st.sampled_from(FAMILIES)),
                "--r", draw(st.sampled_from(("all", "squares", "2"))),
                "--sizes", f"{lo}:{hi}", "--samples", str(draw(st.integers(-1, 3)))]
    common = ["--p", str(draw(st.sampled_from((3, 5, 7, 11, 13)))),
              "--d", str(draw(st.integers(1, 3))), *seed]
    if command == "gen":
        return ["gen", *common, "--size", str(draw(SMALL))]
    tail = ["--k", str(draw(SMALL)), "--r", draw(st.sampled_from(("1", "2", "squares")))]
    if command == "count":
        what = draw(st.sampled_from(COUNT_KINDS + tuple(WHAT_ALIASES)))
        method = draw(st.sampled_from(("auto", "all", "walk_dp", "nu_identity", "brute")))
        return ["count", *common, "--what", what, "--random", str(draw(SMALL)),
                "--method", method, *tail]
    claim = draw(st.sampled_from(CLAIM_NAMES + ("all",)))
    # --random is the number of instances here, --size their size
    return ["verify", *common, "--claim", claim, "--random", str(draw(st.integers(-1, 2))),
            "--size", str(draw(SMALL)), *tail]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_fuzz_exits_with_a_documented_code(argv, capsys):
    # 0 success, 2 usage error, 3 refused guard; 4 would mean a catalog
    # claim failed, and an exception escaping main is a crash
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3), argv


@st.composite
def set_file(draw):
    # a small point-set file, valid or with one fault
    p = draw(st.sampled_from((3, 5, 7)))
    d = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(0, p - 1)] * d)
    points = draw(st.lists(coords, min_size=1, max_size=6, unique=True))
    header = f"p={p} d={d}"
    fault = draw(st.sampled_from(("none", "duplicate", "coordinate", "dimension",
                                  "header", "empty")))
    if fault == "duplicate":
        points.append(draw(st.sampled_from(points)))
    elif fault == "coordinate":
        points[0] = (draw(st.sampled_from((-1, p, p + 2))),) + points[0][1:]
    elif fault == "dimension":
        points[-1] = points[-1][:-1] if d > 1 and draw(st.booleans()) else points[-1] + (0,)
    elif fault == "header":
        header = draw(st.sampled_from((f"p={p}", f"p={p} d=x", f"p=9 d={d}", f"d={d} p",
                                       f"{p} {d}")))
    lines = ["# drawn", header, *(",".join(map(str, pt)) for pt in points)]
    return "" if fault == "empty" else "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=set_file(), command=st.sampled_from(("count", "verify")), data=st.data())
def test_cli_fuzz_set_files_exit_with_a_documented_code(text, command, data, tmp_path, capsys):
    path = tmp_path / "drawn.txt"
    path.write_text(text)
    ratio = data.draw(st.sampled_from(("1", "2", "squares")))
    if command == "count":
        what = data.draw(st.sampled_from(COUNT_KINDS + tuple(WHAT_ALIASES)))
        tail = ["--what", what, "--method", data.draw(st.sampled_from(("auto", "all")))]
    else:
        tail = ["--claim", data.draw(st.sampled_from(CLAIM_NAMES + ("all",)))]
    argv = [command, "--set", str(path), "--r", ratio, "--threads", "1", *tail]
    if data.draw(st.booleans()):
        argv += ["--d", str(data.draw(st.integers(0, 3)))]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3), (argv, text)


HUGE_K = ["--k", str(10**9), "--threads", "1"]


@pytest.mark.parametrize("argv,expected", [
    *[(["count", "--what", "S_k", "--p", "11", "--random", str(n), "--method", method], 3)
      for method in ("auto", "all", "walk_dp", "nu_identity", "brute") for n in (1, 2, 8)],
    # no path has k + 1 distinct points
    (["count", "--what", "C2path", "--p", "11", "--random", "8"], 0),
    (["verify", "--claim", "T1.10", "--p", "11", "--random", "1", "--size", "8"], 3),
    # every other claim still runs; T1.10 is skipped with a note
    (["verify", "--claim", "all", "--p", "11", "--random", "1", "--size", "8"], 0),
])
def test_huge_k_is_refused_before_any_power_is_formed(argv, expected, capsys):
    start = time.process_time()
    code, out, err = run_cli(argv + HUGE_K, capsys)
    assert code == expected, err
    assert time.process_time() - start < 1.0
    if argv[2] == "C2path":
        assert out.splitlines()[-1].endswith(",0,brute")
    if argv[2] == "all":
        assert "T1.10 skipped" in err
