"""Run the benchmark several times and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 bench/repeat.py --workloads invariants,harmonic-box --seeds 1-10 \\
        [--traces 0,1] [--out results.json]

Each run is ``python3 bench/run.py --workload W --seed N --seconds S --trace T``
with ``S`` read from ``BENCHMARK.json``, for every listed trace setting.  For
every workload and metric the summary gives the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
next to the metric's bound.
``--out`` also writes every run's result, the context lines, the Python
version, ``nproc`` and the CPU model.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traces", default="0", help="0, 1 or 0,1")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": None,
        "cpu_model": cpu_model(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        for trace in args.traces.split(","):
            runs = []
            for seed in parse_seeds(args.seeds):
                argv = list(spec["command"]) + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", trace,
                ]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
                lines = proc.stdout.strip().splitlines()
                run = {"seed": seed, **json.loads(lines[-2]), "result": json.loads(lines[-1])}
                report["nproc"] = run["context"]["nproc"]
                runs.append(run)
                print(
                    f"{workload} trace {trace} seed {seed}: correct={run['result']['correct']} "
                    f"failed={run['result']['failed']}/{run['result']['attempted']} "
                    f"passes={run['context']['pass_walls']} probe_s={run['context']['probe_s']:.4f}",
                    file=sys.stderr,
                    flush=True,
                )
            summary = summarise(runs, bounds)
            report["workloads"].setdefault(workload, {})[f"trace{trace}"] = {
                "summary": summary,
                "runs": runs,
            }
            for name, s in summary.items():
                bound = "" if s["bound"] is None else f"  bound {s['bound']}"
                print(
                    f"{workload:15s} {name:45s} median {s['median']:.6g} {s['unit']}"
                    f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{bound}",
                    flush=True,
                )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
