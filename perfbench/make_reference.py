"""Record the reference outputs the benchmark checks every unit against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference; it rewrites perfbench/reference.json with one entry per pool
index of each workload (a few minutes on two cores).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, _import_engine


def main() -> int:
    _import_engine()
    from workloads import POOL, WORKLOADS

    refs = {}
    for name, wl in WORKLOADS.items():
        refs[name] = [wl.reference(wl.config(ROOT, idx)) for idx in range(POOL)]
        print(name, refs[name][0], flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    lines = [f' "{name}": [\n' + ",\n".join("  " + json.dumps(r) for r in entries) + "\n ]"
             for name, entries in refs.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
