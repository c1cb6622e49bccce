"""Suite construction, determinism, exports, and resource-limit handling."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from diffhom.errors import ConfigError
from diffhom.suite import (
    CheckRecord,
    SuiteConfig,
    SuiteReport,
    build_checks,
    export,
    export_csv,
    export_json,
    export_text,
    run_suite,
)


@pytest.fixture(scope="module")
def degree_two_report():
    return run_suite(SuiteConfig.from_dict({"d_values": [2]}))


def test_degree_two_config_runs_nine_checks(degree_two_report):
    assert len(degree_two_report.records) == 9
    assert all(rec.status == "pass" for rec in degree_two_report.records)
    assert degree_two_report.exit_code == 0


def test_records_are_sorted_by_id(degree_two_report):
    ids = [rec.check_id for rec in degree_two_report.records]
    assert ids == sorted(ids)


def test_json_export_is_deterministic(degree_two_report):
    again = run_suite(SuiteConfig.from_dict({"d_values": [2]}))
    assert export_json(degree_two_report) == export_json(again)


def test_json_export_matches_golden_file(degree_two_report):
    golden = Path(__file__).parent / "golden" / "verify_all_d2.json"
    assert export_json(degree_two_report) == golden.read_text()


def test_json_export_excludes_timing_by_default(degree_two_report):
    payload = json.loads(export_json(degree_two_report))
    assert "elapsedSeconds" not in payload["checks"][0]
    timed = json.loads(export_json(degree_two_report, include_timing=True))
    assert "elapsedSeconds" in timed["checks"][0]


def test_csv_schema(degree_two_report):
    lines = export_csv(degree_two_report).splitlines()
    assert lines[0] == "checkId,formula,inputs,expected,computed,status"
    assert len(lines) == 1 + len(degree_two_report.records)
    assert all(line.startswith('"') for line in lines[1:])


def test_csv_includes_dimension_table_rows(degree_two_report):
    text = export_csv(degree_two_report)
    assert "01-schmidt-kolchin/d2" in text
    assert "N=1:4; N=2:9" in text


def test_text_export_shows_failures_in_canonical_form():
    record = CheckRecord(
        check_id="09-quotient-basis/d2",
        formula="demo",
        inputs={"d": 2},
        expected="X0^(0)*X1^(1) - X0^(1)*X1^(0)",
        computed="X0^(0)*X1^(1)",
        status="fail",
        elapsed=0.0,
    )
    text = export_text(SuiteReport(SuiteConfig(), [record]))
    assert "[FAIL]" in text
    assert "expected: X0^(0)*X1^(1) - X0^(1)*X1^(0)" in text
    assert "computed: X0^(0)*X1^(1)" in text


def test_impossible_caps_mark_skips_not_failures():
    cfg = SuiteConfig.from_dict({"d_values": [2], "caps": {"max_box": 1}})
    report = run_suite(cfg)
    statuses = {rec.check_id: rec.status for rec in report.records}
    assert statuses["03-tensor-invariants/d2"] == "skipped(resource)"
    assert statuses["04-harmonic-dimension/d2"] == "skipped(resource)"
    assert report.counts["fail"] == 0
    assert report.exit_code == 0
    assert report.counts["skipped"] >= 2


def test_tensor_check_solves_each_kernel_once(monkeypatch):
    from diffhom import suite, tensors

    solved = []
    original = tensors._box_dimension

    def counting(k, d, *args, **kwargs):
        solved.append((k, d))
        return original(k, d, *args, **kwargs)

    monkeypatch.setattr(tensors, "_box_dimension", counting)
    monkeypatch.setattr(tensors, "invariant_tensor_basis", refuse_tensor_basis)
    checks = [c for c in build_checks(SuiteConfig()) if c.check_id.startswith("03-")]
    assert [c.inputs["d"] for c in checks] == list(suite.TENSOR_DEGREES)
    assert all(check.runner()[2] for check in checks)
    # the Wronskian row's kernel dimension is the dim row for d <= WRONSKIAN_BASIS_MAX;
    # each degree's kernel is counted by rank, once, and never built
    assert sorted(solved) == [(d - 1, d) for d in suite.TENSOR_DEGREES]


def refuse_tensor_basis(*args, **kwargs):
    raise AssertionError("a dimension claim built the invariant tensors")


def test_dimension_claims_count_by_rank(monkeypatch):
    """Outside checks 09 and 10, which compare bases, a default run counts its
    dimensions by rank: no RREF back-substitution, no invariant tensor and no
    jets basis."""
    from dataclasses import replace

    from diffhom import catalog, jets, suite, tensors
    from diffhom.linalg import Echelon

    current, substituted, bases = [None], [], []
    pivots = Echelon.pivots.fget

    def counting_pivots(self):
        if not self._reduced:
            substituted.append(current[0])
        return pivots(self)

    def tagged(check):
        def runner():
            current[0] = check.check_id.split("-")[0]
            return check.runner()

        return replace(check, runner=runner)

    def counting_basis(ctx, caps=None):
        bases.append(ctx)
        return basis(ctx, caps)

    checks, basis = suite.build_checks, jets.diff_homog_basis
    monkeypatch.setattr(Echelon, "pivots", property(counting_pivots))
    monkeypatch.setattr(suite, "build_checks", lambda cfg: [tagged(c) for c in checks(cfg)])
    monkeypatch.setattr(tensors, "invariant_tensor_basis", refuse_tensor_basis)
    monkeypatch.setattr(jets, "diff_homog_basis", counting_basis)
    monkeypatch.setattr(catalog, "diff_homog_basis", counting_basis)
    assert run_suite().exit_code == 0
    assert set(substituted) == {"09", "10"}
    # all from the quotient (10) and generation (18) rows of checks 09 and 10
    assert (len(bases), len(set(bases))) == (28, 16)


def test_default_suite_covers_all_criteria():
    ids = {check.check_id.split("/")[0] for check in build_checks(SuiteConfig())}
    assert ids == {
        "01-schmidt-kolchin",
        "02-stabilization",
        "03-tensor-invariants",
        "04-harmonic-dimension",
        "05-oberst-equality",
        "06-dcp-identification",
        "07-spanning",
        "08-counting",
        "09-quotient-basis",
        "10-generation-minimality",
        "11-properties",
    }


def test_property_checks_total_at_least_200_instances():
    checks = [
        c for c in build_checks(SuiteConfig()) if c.check_id.startswith("11-properties")
    ]
    assert sum(c.inputs["instances"] for c in checks) >= 200


@pytest.mark.parametrize(
    "bad",
    [
        {"d_values": "nope"},
        {"d_values": []},
        {"d_values": [1.5]},
        {"caps": {"max_box": -1}},
        {"caps": {"unknown_cap": 3}},
        {"format": "yaml"},
        {"seed": "abc"},
        {"d_value": [1]},
        {"d_values": [2], "output_format": "json"},
    ],
)
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(bad)


def test_config_round_trips_through_its_dict():
    assert SuiteConfig.from_dict(SuiteConfig().to_dict()) == SuiteConfig()
    custom = SuiteConfig.from_dict({"d_values": [2, 3], "caps": {"max_box": 7}, "seed": 5})
    assert SuiteConfig.from_dict(custom.to_dict()) == custom


def test_export_rejects_unknown_format(degree_two_report):
    with pytest.raises(ConfigError):
        export(degree_two_report, "yaml")


def test_seed_changes_only_property_streams():
    a = run_suite(SuiteConfig.from_dict({"d_values": [3], "seed": 1}))
    b = run_suite(SuiteConfig.from_dict({"d_values": [3], "seed": 2}))
    assert [r.check_id for r in a.records] == [r.check_id for r in b.records]
    assert all(r.status == "pass" for r in a.records + b.records)


# sha256 of the default configuration's JSON export
DEFAULT_EXPORT_SHA256 = "0df4c1d007aecbec12f1ce47c3b679085c076672c1360a94e4489833c8971240"


def test_default_suite_passes_everywhere():
    report = run_suite(SuiteConfig())
    assert report.counts == {"pass": len(report.records), "fail": 0, "skipped": 0}
    assert report.exit_code == 0
    digest = hashlib.sha256(export_json(report).encode()).hexdigest()
    assert digest == DEFAULT_EXPORT_SHA256



def refuse(*args, **kwargs):
    raise AssertionError("check 10 ranked a quotient basis")


def test_default_suite_builds_each_catalog_once(monkeypatch):
    from diffhom import catalog

    built = []
    original = catalog.build_catalog

    def counting(n, k, caps=None):
        built.append((n, k))
        return original(n, k, caps)

    monkeypatch.setattr(catalog, "build_catalog", counting)
    run_suite(SuiteConfig())
    assert built and len(built) == len(set(built))
    # check 10 reads minimality from the catalog, not from the quotient basis
    monkeypatch.setattr(catalog, "verify_quotient_basis", refuse)
    checks = [c for c in build_checks(SuiteConfig()) if c.check_id.startswith("10-")]
    assert checks and all(check.runner()[2] for check in checks)


def refuse_generator(*args, **kwargs):
    raise AssertionError("check 09 built a generator")


def test_quotient_basis_checks_read_the_catalogs_of_check_10(monkeypatch):
    from diffhom import catalog

    checks = build_checks(SuiteConfig())
    for check in checks:
        if check.check_id.startswith("10-"):
            check.runner()
    monkeypatch.setattr(catalog, "build_generator", refuse_generator)
    quotient = [c for c in checks if c.check_id.startswith("09-")]
    assert quotient and all(check.runner()[2] for check in quotient)


def test_minimality_rows_are_the_catalog_entries():
    from diffhom import catalog, suite

    rows = {}
    for check in build_checks(SuiteConfig()):
        if check.check_id.startswith("10-"):
            for row in check.runner()[1].split("; "):
                label, value = row.split(":")
                if label.endswith("min"):
                    rows[label, check.inputs["d"]] = value
    expected = {}
    for n, k in suite.MINIMALITY_PAIRS:
        for entry in catalog.verify_minimality(n, k).entries:
            expected[f"N={n},k={k}min", entry.degree] = "minimal" if entry.passed else "FAIL"
    assert rows == expected
