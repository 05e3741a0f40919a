"""Compare two sets of benchmark result files.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``bench/run.py`` (untraced
runs, ``*_trace0.json``).  For every workload and end-to-end metric in
``BENCHMARK.json`` it prints the median and quartiles of both sets and the
relative change of the median, and flags:

- ``WORSE``  the new median is worse than the base median by more than the bound;
- ``SPREAD`` a set's quartile distance exceeds the bound as a share of its median
  (not applied to ``setup_s``).

Exits with 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced result files in ``directory``."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*_trace0.json")):
        result = json.loads(path.read_text())
        for name, value in result["end_to_end"].items():
            out[result["workload"]][name].append(value)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base, new, metrics) -> tuple[list[str], int]:
    lines, flagged = [], 0
    header = f"{'workload':18} {'metric':20} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'change':>8}  flags"
    lines.append(header)
    for workload in sorted(set(base) | set(new)):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = base.get(workload, {}).get(name), new.get(workload, {}).get(name)
            if not a or not b:
                lines.append(f"{workload:18} {name:20} missing in {'base' if not a else 'new'}")
                flagged += 1
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            flags = []
            if worse > bound:
                flags.append("WORSE")
            if name != "setup_s" and any((q[2] - q[0]) / q[1] > bound for q in (qa, qb)):
                flags.append("SPREAD")
            flagged += bool(flags)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            lines.append(
                f"{workload:18} {name:20} {fmt.format(*qa):>32} {fmt.format(*qb):>32} "
                f"{change:+8.1%}  {' '.join(flags)}"
            )
    lines.append(f"{flagged} flagged")
    return lines, flagged


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, flagged = compare(load(argv[0]), load(argv[1]), spec["end_to_end"])
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
