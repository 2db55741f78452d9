"""Compare two benchmark run records side by side.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files ``run.py`` writes under ``.bench_build/perfbench/``.
Runs made on different JIT rungs (numba, C, none) measure different
programs, so they are refused rather than compared (exit code 2).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    if base["env"]["jit_rung"] != new["env"]["jit_rung"]:
        print(
            f"refusing to compare: JIT rung {base['env']['jit_rung']!r} vs "
            f"{new['env']['jit_rung']!r}",
            file=sys.stderr,
        )
        return 2
    if base["workload"] != new["workload"] or base["trace"] != new["trace"]:
        print("refusing to compare runs of different workloads or modes", file=sys.stderr)
        return 2
    for key in ("python", "numpy", "scipy", "nproc"):
        if base["env"][key] != new["env"][key]:
            print(f"note: {key} differs: {base['env'][key]} vs {new['env'][key]}")
    print(f"{'metric':<32} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, entry in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        old, cur = entry["value"], new["metrics"][name]["value"]
        ratio = f"{cur / old:9.3f}" if old else f"{'-':>9}"
        print(f"{name:<32} {old:>14.6g} {cur:>14.6g} {ratio} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
