"""`tools/bench_summary.py` reads every committed BENCH file, in both pair layouts."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_summary.py"
LINE = re.compile(
    r"^(BENCH_\S+\.json) (runs_\S+) (\S+(?: \(\S+\))?) (\S+)"
    r" parent \S+ \[\S+, \S+\] change \S+ \[\S+, \S+\] won (\d+)/(\d+)$"
)


def summary(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(root)], capture_output=True, text=True, check=False
    )


def test_prints_every_committed_file():
    done = summary(ROOT)
    assert done.returncode == 0, done.stderr
    matches = [LINE.match(line) for line in done.stdout.splitlines()]
    assert all(matches), [line for line, m in zip(done.stdout.splitlines(), matches) if not m]
    assert {m[1] for m in matches} == {path.name for path in ROOT.glob("BENCH_*.json")}
    assert all(int(m[5]) <= int(m[6]) for m in matches)


def test_reads_both_pair_layouts_through_the_metric_direction(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"},
                                   {"name": "pass_share", "better": "higher"}]})
    )
    stats = {"median": 2, "q1": 1, "q3": 3}
    lower = {"parent": stats, "change": stats, "change_lower_in": 4, "change_higher_in": 1}
    better = {"parent": stats, "change": stats, "change_better_in": 2, "change_worse_in": 3}
    (tmp_path / "BENCH_a.json").write_text(json.dumps({"runs_40s": {"w": {
        "seeds": [1, 2, 3, 4, 5], "metrics": {"wall_s": lower, "pass_share": lower},
    }}}))
    (tmp_path / "BENCH_b.json").write_text(json.dumps({"label": "b", "runs_40s": {"w": {
        "seeds": [1, 2, 3, 4, 5], "metrics": {"wall_s": better},
    }}}))
    done = summary(tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "BENCH_a.json runs_40s w wall_s parent 2 [1, 3] change 2 [1, 3] won 4/5",
        "BENCH_a.json runs_40s w pass_share parent 2 [1, 3] change 2 [1, 3] won 1/5",
        "BENCH_b.json runs_40s w wall_s parent 2 [1, 3] change 2 [1, 3] won 2/5",
    ]


def test_a_directory_without_runs_exits_nonzero(tmp_path):
    done = summary(tmp_path)
    assert done.returncode == 1
    assert not done.stdout
