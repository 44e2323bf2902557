"""Share of the Tier-1 test suite's time spent in each extrakit module.

    python3 perfbench/profile_tier1.py            # writes perfbench/tier1_profile.json

Runs ``pytest tests`` once in this process under cProfile.  A module's
time is the own time of its functions plus the whole time of the
numpy, builtin and standard-library calls they make directly; the rest
(pytest, hypothesis, the tests themselves) is reported as ``other``.  cProfile
adds a cost to every Python call, so the shares are a guide for where to
look, not a measurement to compare commits by; informational only.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = str(ROOT / "src" / "extrakit") + os.sep


def module_of(filename: str):
    if filename.startswith(PACKAGE):
        return filename[len(PACKAGE):].removesuffix(".py").replace(os.sep, ".")
    return None


def shares(stats: pstats.Stats) -> dict[str, float]:
    """Seconds per extrakit module, plus ``other`` for the rest of the run."""
    seconds = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        mod = module_of(filename)
        if mod is not None:
            seconds[mod] += tt
            continue
        # numpy, builtins, stdlib: the inclusive time of each call made
        # directly from extrakit goes to the calling module
        for (cfile, _cline, _cname), (_c, _n, _t, cum) in callers.items():
            caller = module_of(cfile)
            if caller is not None:
                seconds[caller] += cum
    seconds["other"] = stats.total_tt - sum(seconds.values())
    return dict(seconds)


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    profiler.disable()
    wall = time.perf_counter() - start
    seconds = shares(pstats.Stats(profiler))
    total = sum(seconds.values())
    out = {
        "command": "pytest -q tests under cProfile",
        "pytest_exit_code": int(code),
        "wall_s_profiled": round(wall, 3),
        "share": {m: round(s / total, 4)
                  for m, s in sorted(seconds.items(), key=lambda kv: -kv[1])},
    }
    (HERE / "tier1_profile.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
