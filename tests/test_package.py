"""The package surface: every import is used, and every top-level name is reached."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import dilatelab

PACKAGE = Path(dilatelab.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}

# Imported and never called: perfbench/selftest.py checks that the benchmark's
# spans rebind these names in these modules.
BENCHMARK_LOCKED = {
    ("verify", "_walk_dp_scaled_pairs"),
    ("verify", "_nu_identity_scaled_walk_pairs"),
    ("families", "_walk_dp_scaled_pairs"),
}


def referenced(tree):
    """Every name a module reads, as a bare name, an attribute or in a string annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= referenced(ast.parse(note.value, mode="eval"))
    return names


def imported(tree):
    """(name, node) for every name bound by an import statement of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node


def exported(tree):
    """The names listed in the module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        used = referenced(tree) | exported(tree)
        for name, node in imported(tree):
            if name not in used and (module, name) not in BENCHMARK_LOCKED:
                unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []


def test_every_top_level_definition_is_reached():
    # reached from another definition of the package, or exported by it
    reads = set()
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a definition's own body does not reach it
                reads |= referenced(node) - {node.name}
            else:
                reads |= referenced(node)
    unreached = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in reads and node.name not in dilatelab.__all__
    ]
    assert unreached == []


def cache_touches(node, path=()):
    """The enclosing definitions, as dotted paths, of every read of an attribute _cache."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from cache_touches(child, (*path, child.name))
            continue
        if isinstance(child, ast.Attribute) and child.attr == "_cache":
            yield ".".join(path)
        yield from cache_touches(child, path)


def test_only_the_memo_touches_the_per_set_cache():
    # PointSet.__init__ makes the memo and per_set reads and writes it, so
    # every per-set table or count goes through per_set's keys
    touches = {(module, path) for module, tree in MODULES.items()
               for path in cache_touches(tree)}
    assert touches == {("geometry", "PointSet.__init__"), ("geometry", "per_set.memo")}


# Runs commands through cli.main in one fresh interpreter and prints, as JSON,
# the process-pool modules loaded after each and the scan rows it printed.
POOL_PROBE = """
import contextlib, io, json, sys
from dilatelab import cli

SCAN = ["scan", "--family", "T_triangle", "--p", "7", "--sizes", "3:9", "--samples", "2"]
COMMANDS = [
    ["gen", "--p", "7", "--size", "5"],
    ["count", "--what", "S_k", "--p", "7", "--random", "6", "--r", "2"],
    ["verify", "--claim", "lemma2.2", "--p", "7", "--random", "2", "--size", "6"],
    [*SCAN, "--threads", "1"],
    ["scan", "--family", "C2path", "--p", "7", "--sizes", "5:5", "--samples", "1",
     "--threads", "2"],
    [*SCAN, "--threads", "2"],
]
seen = []
for argv in COMMANDS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    loaded = sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))
    seen.append({"code": code, "out": out.getvalue(), "pool_modules": loaded})
print(json.dumps(seen))
"""


def test_only_a_pooled_scan_loads_the_process_pool():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", POOL_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    *unpooled, pooled = json.loads(done.stdout)
    assert [run["code"] for run in (*unpooled, pooled)] == [0] * 6
    # gen, count, verify, a one-thread scan and a one-cell scan at two threads
    assert [run["pool_modules"] for run in unpooled] == [[]] * 5
    assert "concurrent.futures.process" in pooled["pool_modules"]
    assert pooled["out"] == unpooled[3]["out"]
