"""Self-tests of the benchmark harness: tracing, restoration and the output gate.

Run with ``python3 -m pytest bench/test_harness.py`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.import_diffhom()

import spantrace  # noqa: E402
import workloads  # noqa: E402
from diffhom import harmonic, jets, linalg, suite, tensors  # noqa: E402
from diffhom.linalg import Echelon  # noqa: E402
from diffhom.polynomials import Poly  # noqa: E402

SMALL = [
    workloads.Instance(
        "diff_homog_basis(1,1,2)",
        lambda: jets.diff_homog_basis(jets.JetContext(1, 1, 2)),
        lambda r: r.dimension == 4,
    ),
    workloads.Instance(
        "quotient_dimension(3,1)",
        lambda: harmonic.quotient_dimension(3, 1),
        lambda r: r == harmonic.closed_form_dimension(3, 1),
    ),
    workloads.Instance(
        "invariant_tensor_basis(1,2)",
        lambda: tensors.invariant_tensor_basis(1, 2),
        lambda r: len(r) == 2,
    ),
]


def _namespaces() -> dict[str, dict]:
    owners = dict(spantrace.diffhom_modules())
    owners["Poly"] = Poly
    owners["Echelon"] = Echelon
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def _small_workload(reference: dict) -> tuple[workloads.Workload, run.Outcomes]:
    workload = workloads.Workload("invariants", random.Random(0))
    workload.instances = list(SMALL)
    return workload, run.Outcomes(workload, reference)


def _reference() -> dict:
    return {inst.name: workloads.digest(inst.run()[1]) for inst in SMALL}


def test_traced_run_restores_every_patched_attribute():
    before = _namespaces()
    original_nullspace = linalg.nullspace
    tracer = spantrace.Tracer()
    with tracer:
        assert linalg.nullspace is not original_nullspace
        assert jets.nullspace is linalg.nullspace  # the `from .linalg import` binding
        run.run_pass(SMALL)
    after = _namespaces()
    assert before.keys() == after.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    assert tracer.calls["jets.diff_homog_basis"] == 1
    assert tracer.calls["linalg.nullspace"] >= 1
    assert tracer.calls["linalg.insert"] >= 1
    assert not tracer.stack


def test_traced_outputs_equal_untraced_and_cover_the_pass():
    _, _, untraced = run.run_pass(SMALL)
    tracer = spantrace.Tracer()
    with tracer:
        wall, _, traced = run.run_pass(SMALL)
    assert [r[2] for r in traced] == [r[2] for r in untraced]
    metrics = run.layer_metrics(tracer, wall)
    assert metrics["trace.coverage"] > 0.5
    assert metrics["jets.diff_homog_basis.calls"] == 1


def test_distinct_counts_repeated_inputs_with_default_caps():
    tracer = spantrace.Tracer()
    ctx = jets.JetContext(1, 1, 2)
    with tracer:
        jets.diff_homog_basis(ctx)
        jets.diff_homog_basis(ctx, None)
        jets.diff_homog_basis(jets.JetContext(1, 1, 1))
    assert tracer.calls["jets.diff_homog_basis"] == 3
    assert tracer.distinct("jets.diff_homog_basis") == 2
    assert tracer.repeated_s > 0


def test_matching_reference_passes_and_corrupted_reference_fails():
    reference = _reference()
    workload, outcomes = _small_workload(reference)
    outcomes.record(run.run_pass(workload.next_pass())[2])
    assert (outcomes.attempted, outcomes.failed) == (3, 0)

    corrupted = dict(reference)
    corrupted["quotient_dimension(3,1)"] = "0" * 64
    workload, outcomes = _small_workload(corrupted)
    outcomes.record(run.run_pass(workload.next_pass())[2])
    assert (outcomes.attempted, outcomes.failed) == (3, 1)


def test_corrupted_export_digest_fails_the_suite_export():
    report = suite.run_suite(suite.SuiteConfig(d_values=(1, 2), seed=5))
    text = suite.export(report, "json")
    reference = {rec.check_id: "pass" for rec in report.records}
    reference[workloads.EXPORT] = workloads.digest(workloads.normalized_export(text))
    workload = workloads.Workload("verify-default", random.Random(0))
    instance = workload.next_pass()[0]
    outcomes = workload.judge(instance, (report, text), text, reference)
    assert all(outcomes.values()) and len(outcomes) == len(report.records) + 1

    reference[workloads.EXPORT] = "f" * 64
    outcomes = workload.judge(instance, (report, text), text, reference)
    assert [label for label, ok in outcomes.items() if not ok] == [workloads.EXPORT]


def test_export_digest_ignores_only_the_seed():
    report = suite.run_suite(suite.SuiteConfig(d_values=(1, 2), seed=5))
    other = suite.run_suite(suite.SuiteConfig(d_values=(1, 2), seed=6))
    a = workloads.normalized_export(suite.export(report, "json"))
    b = workloads.normalized_export(suite.export(other, "json"))
    assert a == b
    assert f'"seed": {workloads.REFERENCE_SEED}' in a


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(workloads.WORKLOADS)


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path: Path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "invariants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
