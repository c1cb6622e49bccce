"""Print one line per file, workload and metric of the root ``BENCH_*.json`` files.

Usage, from the root of a checkout::

    python3 tools/bench_summary.py [ROOT]

Each ``runs_*`` section of a file maps a workload to its seeds and metrics,
and each metric holds the parent's and the change's median and quartiles.
Two layouts count the pairs: ``change_lower_in``/``change_higher_in``,
which is read through the metric's direction in ``BENCHMARK.json`` (lower
is better where it names none), and ``change_better_in``/``change_worse_in``.
A line reads::

    FILE SECTION WORKLOAD METRIC parent MEDIAN [Q1, Q3] change MEDIAN [Q1, Q3] won W/N

with W the pairs in which the change was better and N the pairs run.
Standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def directions(root: Path) -> dict[str, str]:
    """Each end-to-end metric's better direction, from BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m["better"] for m in json.loads(path.read_text()).get("end_to_end", [])}


def pairs_won(metric: dict, better: str) -> int:
    if "change_better_in" in metric:
        return metric["change_better_in"]
    return metric["change_lower_in" if better == "lower" else "change_higher_in"]


def side(stats: dict) -> str:
    return f"{stats['median']:g} [{stats['q1']:g}, {stats['q3']:g}]"


def lines(root: Path) -> list[str]:
    better = directions(root)
    out = []
    for path in sorted(root.glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        for section, workloads in data.items():
            if not section.startswith("runs_"):
                continue
            for workload, runs in workloads.items():
                for name, metric in runs["metrics"].items():
                    won = pairs_won(metric, better.get(name, "lower"))
                    out.append(
                        f"{path.name} {section} {workload} {name}"
                        f" parent {side(metric['parent'])} change {side(metric['change'])}"
                        f" won {won}/{len(runs['seeds'])}"
                    )
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path.cwd()
    found = lines(root)
    if not found:
        print(f"no BENCH_*.json runs under {root}", file=sys.stderr)
        return 1
    print("\n".join(found))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
