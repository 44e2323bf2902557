"""Self-tests of the per-op-kind timer: ``python3 -m pytest tools``.

Each run is a subprocess, because the timer imports the tree's
``extrakit`` and ``perfbench`` modules by name.  A stub tree checks the
counting, the checks and the exit code; one cycle of the real coding
workload checks the timer against this checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_times.py"

# per cycle: one slow op, one fast one, one failing its check, one raising
# the exception it expects and one raising an unexpected one
STUB = textwrap.dedent('''
    import time
    from dataclasses import dataclass

    import core
    import extrakit


    @dataclass
    class Op:
        kind: str
        call: object
        check: object
        expect: tuple = ()


    def boom(exc):
        raise exc


    class Stub:
        def __init__(self, seed, workdir):
            self.seed = seed
            (workdir / "input.txt").write_text(str(seed))
            self.warm = False

        def warmup(self):
            self.warm = True

        def cycle(self):
            ok = lambda res, exc: None if self.warm and res == 1 else "wrong"
            return [
                Op("slow", lambda: time.sleep(0.02) or 1, ok),
                Op("fast", lambda: 1, ok),
                Op("bad", lambda: 2, ok),
                Op("expected", lambda: boom(ValueError("v")),
                   lambda res, exc: None if isinstance(exc, ValueError) else "no error",
                   expect=(ValueError,)),
                Op("crash", lambda: boom(KeyError("k")), ok),
            ]


    WORKLOADS = {"stub": Stub}
''')


def run(tree: Path, *args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--tree", str(tree), *args],
                          capture_output=True, text=True, env=env, cwd=tree)


def make_stub_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    (tree / "src" / "extrakit").mkdir(parents=True)
    (tree / "src" / "extrakit" / "__init__.py").write_text("")
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "core.py").write_text("def git_commit(root):\n    return 'stub'\n")
    (tree / "perfbench" / "workloads.py").write_text(STUB)
    return tree


def tree_files(tree: Path) -> list:
    return sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if "__pycache__" not in p.parts)


def test_counts_shares_and_failures(tmp_path):
    tree = make_stub_tree(tmp_path)
    before = tree_files(tree)
    proc = run(tree, "--workload", "stub", "--cycles", "3", "--seed", "7")
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["workload"], out["seed"], out["cycles"]) == ("stub", 7, 3)
    assert out["git_commit"] == "stub" and out["tree"] == str(tree.resolve())
    assert out["ops"] == 15 and out["failed"] == 6
    assert sorted(out["failures"]) == sorted(["bad: wrong", "crash: KeyError: 'k'"] * 3)
    kinds = out["kinds"]
    assert list(kinds)[0] == "slow" and set(kinds) == {"slow", "fast", "bad", "expected", "crash"}
    assert all(k["count"] == 3 for k in kinds.values())
    assert kinds["slow"]["mean_ms"] >= 20
    assert abs(sum(k["share"] for k in kinds.values()) - 1) < 1e-9
    assert abs(sum(k["mean_ms"] * k["count"] for k in kinds.values()) - out["total_ms"]) < 1e-6
    # shares follow the summed times, largest first
    shares = [k["share"] for k in kinds.values()]
    assert shares == sorted(shares, reverse=True)
    assert tree_files(tree) == before  # the inputs went elsewhere


def test_refuses_an_extrakit_from_another_tree(tmp_path):
    tree = make_stub_tree(tmp_path)
    (tree / "src" / "extrakit" / "__init__.py").unlink()
    (tree / "src" / "extrakit").rmdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = run(tree, "--workload", "stub", env=env)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "extrakit imported from" in proc.stderr


def test_one_coding_cycle_of_this_checkout():
    proc = run(ROOT, "--workload", "coding", "--cycles", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["failed"] == 0 and out["failures"] == []
    kinds = out["kinds"]
    assert kinds["cli.muchnik-demo"]["count"] == 1 and kinds["cli.sample-graph"]["count"] == 1
    assert sum(k["count"] for k in kinds.values()) == out["ops"]
    assert abs(sum(k["share"] for k in kinds.values()) - 1) < 1e-9
