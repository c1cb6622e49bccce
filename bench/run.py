"""diffhom benchmark: time to an exact verdict, per workload, with output gate.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --print-reference

One single-threaded process runs one workload as a closed loop: one client,
each instance starting only after the previous one returned.  A pass runs
the workload's instance list once; passes repeat until the next one would
end after ``--seconds``.  Every output is checked against ``reference.json``
(see ``workloads.py``), and a failed check is a failed instance.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of a pass
(the mean over the run's passes), peak resident memory, the median of timed
set-ups (interpreter start, ``import diffhom`` and building the instance list,
each in a fresh interpreter; a few before the first pass and two after every
pass, so that they see the same machine as the passes) and the share of
instances that passed.
The mean rather than the median of the passes is reported because the speed
of a shared machine drifts in spells of tens of seconds: the mean averages
over every spell a run sees, where the median of a few passes follows one.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spantrace.py``): calls and self
time per layer function, linear-algebra counters, repeated-input counts,
layer shares of the pass, trace coverage and tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it gives the Python version, the number of usable CPUs and a fixed
pure-Python speed probe timed at the start and end of the run.  The probe
only shows machine-speed drift between sets of runs; no metric is rescaled
by it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# Timed set-ups before the first pass, and after each pass.
SETUP_FIRST = 5
SETUP_PER_PASS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_share": "ratio",
}

# Layer functions reported with calls and self time, and those reported with
# self time only.
CALLS_AND_SELF = (
    "polynomials.substitute",
    "polynomials.mul",
    "polynomials.add",
    "polynomials.determinant",
    "polynomials.render",
    "linalg.insert",
    "linalg.nullspace",
    "linalg.rank_of",
    "linalg.echelon_of",
    "linalg.contains",
    "jets.diff_homog_basis",
    "jets.act_series",
    "tensors.invariant_tensor_basis",
    "tensors.insertion_operator",
    "harmonic.perp_basis",
    "harmonic.quotient",
    "harmonic.ideal_membership",
    "harmonic.verify_spanning",
    "harmonic.verify_block_surjectivity",
    "harmonic.apply_poly_operator",
    "catalog.build_catalog",
    "catalog.top_order_nested_indices",
    "catalog.verify_quotient_basis",
    "catalog.build_generator",
)
SELF_ONLY = (
    "linalg.reduce",
    "linalg.int_row",
    "tensors.verify_wronskian_basis",
    "suite.run_suite",
    "suite.export",
)
COUNTERS = {
    "linalg.insert.dependent": "count",
    "linalg.fill_nnz": "count",
    "linalg.max_coeff_bits": "bits",
    "jets.diff_homog_basis.columns": "count",
    "tensors.invariant_tensor_basis.box_max": "count",
}
# Suite checks timed on the untraced passes of a traced run.
SUITE_CHECKS = ("03-tensor-invariants/d5", "09-quotient-basis/d4")
# Layers whose outermost spans give an inclusive share (`share_incl.*`);
# every layer of spantrace.LAYERS gives a self-time share (`share.*`).
INCLUSIVE_LAYERS = ("polynomials", "linalg", "jets", "tensors", "harmonic", "catalog")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in output order, with its unit."""
    from spantrace import DISTINCT, LAYERS

    units: dict[str, str] = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        if name in DISTINCT:
            units[f"{name}.distinct"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["linalg.insert.useful_ratio"] = "ratio"
    units["spans.calls"] = "count"
    units["spans.self_s"] = "s"
    units.update(COUNTERS)
    for check in SUITE_CHECKS:
        units[f"suite.check.{check.replace('/', '.')}.s"] = "s"
    for layer in LAYERS:
        units[f"share.{layer}"] = "ratio"
    for layer in INCLUSIVE_LAYERS:
        units[f"share_incl.{layer}"] = "ratio"
    units["redundancy.repeated_call_share"] = "ratio"
    units["redundancy.repeated_time_share"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- set-up --------------------------------------------------------------------


def import_diffhom() -> None:
    """Import diffhom from this checkout's source tree, or exit with an error."""
    if not (SRC / "diffhom" / "__init__.py").is_file():
        sys.exit(f"bench: no diffhom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffhom

    if Path(diffhom.__file__).resolve().parent != SRC / "diffhom":
        sys.exit(f"bench: imported diffhom from {diffhom.__file__}, not from {SRC}")


class SetupTimer:
    """Times a fresh interpreter importing diffhom and building a workload."""

    def __init__(self, workload: str, seed: int):
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import random, workloads; workloads.Workload({workload!r}, random.Random({seed}))"
        )
        self.argv = [sys.executable, "-c", code]
        self.times: list[float] = []
        subprocess.run(self.argv, cwd=ROOT, check=True)  # warm the bytecode cache

    def sample(self, repeats: int) -> None:
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run(self.argv, cwd=ROOT, check=True)
            self.times.append(perf_counter() - start)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python computation (rationals and dicts)."""
    start = perf_counter()
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 30001):
        acc += Fraction(1, i % 97 + 1)
        table[i % 1013] = table.get(i % 1013, 0) + i
    return perf_counter() - start


# -- passes --------------------------------------------------------------------


class Outcomes:
    """Instance outcomes over a run."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def record(self, results) -> None:
        for instance, result, text, error in results:
            if error is None:
                outcomes = self.workload.judge(instance, result, text, self.reference)
            else:
                outcomes = self.workload.failed_pass(instance, self.reference)
            for label, ok in sorted(outcomes.items()):
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    print(f"bench: FAILED {self.workload.name}/{label}", file=sys.stderr)


def run_pass(instances) -> tuple[float, float, list]:
    """Run one pass; return wall time, CPU time and (instance, result, text, error)."""
    results = []
    wall0, cpu0 = perf_counter(), process_time()
    for instance in instances:
        try:
            results.append((instance, *instance.run(), None))
        except Exception as exc:  # a raising instance is a failed instance
            traceback.print_exc()
            results.append((instance, None, None, exc))
    return perf_counter() - wall0, process_time() - cpu0, results


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Suite check times and the tracing overhead are not among them: they come
    from the untraced passes of the same run (see ``measure_traced``).
    """
    from spantrace import DISTINCT, LAYERS

    calls, self_s = tracer.calls, tracer.self_s
    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = calls.get(name, 0)
        if name in DISTINCT:
            m[f"{name}.distinct"] = tracer.distinct(name)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    inserts = calls.get("linalg.insert", 0)
    dependent = tracer.counters["linalg.insert.dependent"]
    m["linalg.insert.useful_ratio"] = (inserts - dependent) / inserts if inserts else 0.0
    m["spans.calls"] = sum(v for k, v in calls.items() if k.startswith("spans."))
    m["spans.self_s"] = sum(v for k, v in self_s.items() if k.startswith("spans."))
    m.update(tracer.counters)
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / wall
    for layer in INCLUSIVE_LAYERS:
        m[f"share_incl.{layer}"] = tracer.inclusive_s[layer] / wall
    repeat_calls = sum(calls.get(name, 0) for name in DISTINCT)
    distinct = sum(tracer.distinct(name) for name in DISTINCT)
    m["redundancy.repeated_call_share"] = (
        (repeat_calls - distinct) / repeat_calls if repeat_calls else 0.0
    )
    m["redundancy.repeated_time_share"] = tracer.repeated_s / wall
    m["trace.coverage"] = sum(layer_self.values()) / wall
    return m


def measure(workload, outcomes: Outcomes, seconds: float, setup: SetupTimer) -> dict:
    """Untraced passes until the next one would overrun; end-to-end metrics."""
    walls, cpus = [], []
    setup.sample(SETUP_FIRST)
    start = perf_counter()
    while True:
        wall, cpu, results = run_pass(workload.next_pass())
        outcomes.record(results)
        walls.append(wall)
        cpus.append(cpu)
        setup.sample(SETUP_PER_PASS)
        if perf_counter() - start + statistics.mean(walls) > seconds:
            break
    return {
        "wall_s": statistics.mean(walls),
        "cpu_s": statistics.mean(cpus),
        "setup_s": statistics.median(setup.times),
        "pass_walls": walls,
    }


def measure_traced(workload, outcomes: Outcomes, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    from spantrace import Tracer

    walls: dict[bool, list[float]] = {False: [], True: []}
    per_pass: list[dict[str, float]] = []
    check_s: dict[str, list[float]] = {check: [] for check in SUITE_CHECKS}
    start = perf_counter()
    traced = False
    while True:
        instances = workload.next_pass()
        if traced:
            tracer = Tracer()
            with tracer:
                wall, _, results = run_pass(instances)
            per_pass.append(layer_metrics(tracer, wall))
        else:
            wall, _, results = run_pass(instances)
            for _, result, _, error in results:
                if error is None and workload.name == "verify-default":
                    elapsed = {rec.check_id: rec.elapsed for rec in result[0].records}
                    for check in SUITE_CHECKS:
                        check_s[check].append(elapsed.get(check, 0.0))
        outcomes.record(results)
        walls[traced].append(wall)
        traced = not traced
        upcoming = walls[traced] or walls[not traced]
        if walls[True] and perf_counter() - start + statistics.median(upcoming) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for check, values in check_s.items():
        metrics[f"suite.check.{check.replace('/', '.')}.s"] = (
            statistics.median(values) if values else 0.0
        )
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(
        walls[False]
    )
    metrics["pass_walls"] = walls[True]
    return metrics


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--print-reference", action="store_true",
        help="print the digests of every workload under the reference seed and exit",
    )
    args = parser.parse_args(argv)

    import_diffhom()
    import workloads

    if args.print_reference:
        digests = {
            name: workloads.Workload(name, random.Random(0)).digests()
            for name in workloads.WORKLOADS
        }
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    reference = json.loads(REFERENCE.read_text())[args.workload]
    probes = [speed_probe()]
    workload = workloads.Workload(args.workload, random.Random(args.seed))
    outcomes = Outcomes(workload, reference)
    if args.trace:
        measured = measure_traced(workload, outcomes, args.seconds)
        units = per_layer_units()
    else:
        setup = SetupTimer(args.workload, args.seed)
        measured = measure(workload, outcomes, args.seconds, setup)
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured["pass_share"] = (outcomes.attempted - outcomes.failed) / outcomes.attempted
        units = END_TO_END_UNITS
    probes.append(speed_probe())

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_walls": [round(w, 4) for w in measured["pass_walls"]],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "probe_s": statistics.median(probes),
    }
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
