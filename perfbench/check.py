"""What a command's output must contain, and the recorded reference for it.

The comparison is on results, not bytes: counted values per (name, r, k),
verdict statuses with their ``lhs``/``rhs``, scan fractions per size, and the
points ``gen`` prints.  Which method produced a count does not matter, but
every method's value must equal the recorded one, and a row that is missing
or extra fails the command, as does any exit status other than 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _rows(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# dilatelab-csv"):
        raise ValueError("not a dilatelab CSV document")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {line!r} does not match header {lines[1]!r}")
        rows.append(dict(zip(header, cells)))
    return rows


def digest(argv: list[str], stdout: str):
    """The checked content of one command's output, as JSON-ready data."""
    command = argv[0]
    if command == "gen":
        return [line for line in stdout.splitlines() if not line.startswith("#")]
    rows = _rows(stdout)
    if command == "count":
        values: dict[str, str] = {}
        for row in rows:
            name = row.get("name") or row["family"]
            # group_sum rows are bounds, not counts, so they are kept apart
            kind = "bound" if row["method"] == "group_sum" else "exact"
            key = f"{name}|r={row.get('r', '')}|k={row.get('k', '')}|{kind}"
            if values.setdefault(key, row["value"]) != row["value"]:
                values[key] = "methods disagree"
        return values
    if command == "verify":
        fields = ("claim", "p", "d", "E_size", "r", "k", "status", "lhs", "rhs")
        return sorted("|".join(row[f] for f in fields) for row in rows)
    if command == "scan":
        return ["|".join(row[f] for f in ("size", "samples", "positive", "fraction"))
                for row in rows]
    raise ValueError(f"no digest for command {command!r}")


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def verdict(record: dict, reference: dict) -> str | None:
    """None if the command matched its reference, else why it failed."""
    if record["rc"] != 0:
        return f"exit {record['rc']}: {record['stderr'].strip()[-300:]}"
    key = workloads.reference_key(record["argv"])
    if key not in reference:
        return "no reference recorded for this command"
    try:
        got = digest(record["argv"], record["stdout"])
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if got != reference[key]:
        return "output differs from the reference"
    return None
