#!/usr/bin/env python3
"""Compare two saved runs of the benchmark.

    python3 perfbench/run.py --workload lemma-corpus > base.log
    ... change the program ...
    python3 perfbench/run.py --workload lemma-corpus > new.log
    python3 perfbench/compare.py base.log new.log

Each log is the standard output of one ``run.py`` invocation.  Prints each
metric of both runs and their ratio.  Two runs taken under different
row-reduction backends measure different programs: the comparison is
refused as invalid and the exit code is 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> tuple[set[str], dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    backends = {json.loads(line[4:])["rref_backend"] for line in lines if line.startswith("env ")}
    return backends, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_backends, base), (new_backends, new) = load(argv[0]), load(argv[1])
    if len(base_backends | new_backends) != 1:
        print(
            f"INVALID: runs use different row-reduction backends "
            f"({sorted(base_backends)} vs {sorted(new_backends)}); they measure different programs"
        )
        return 1
    for name in sorted(base["metrics"].keys() & new["metrics"].keys()):
        a, b = base["metrics"][name]["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name:60s} {a:14.6g} {b:14.6g}  x{ratio}  {new['metrics'][name]['unit']}")
    for name in sorted(base["metrics"].keys() ^ new["metrics"].keys()):
        print(f"{name:60s} only in {'base' if name in base['metrics'] else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
