"""Command-line behaviour: output shapes, exit codes, golden stability."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import diffhom
from diffhom.cli import main
from diffhom.resources import ResourceCaps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_text(capsys):
    code, out, _ = run_cli(capsys, "dim", "--N", "1", "--d", "2", "--k", "1", "--basis")
    assert code == 0
    assert "dimension 4" in out
    assert "X0^(0)*X1^(1)" in out


def test_dim_json_schema(capsys):
    code, out, _ = run_cli(capsys, "dim", "--N", "1", "--d", "2", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"N", "d", "k", "dimension", "basis"}
    assert payload["dimension"] == 4
    assert len(payload["basis"]) == 4


def test_tensor_inv(capsys):
    code, out, _ = run_cli(capsys, "tensor-inv", "--k", "1", "--d", "2", "--basis")
    assert code == 0
    assert "dimension 2" in out
    assert "harmonic image" in out


def test_harmonic_agreement(capsys):
    code, out, _ = run_cli(capsys, "harmonic", "--d", "4", "--k", "1")
    assert code == 0
    assert out.count("6") >= 3
    assert "pass" in out


def test_dcp(capsys):
    code, out, _ = run_cli(capsys, "dcp", "--d", "3", "--k", "1")
    assert code == 0
    assert "ideals coincide" in out


def test_dcp_below_every_generator_degree(capsys):
    # at cap 0 no generator is certified, not even one that lies in both ideals
    code, out, _ = run_cli(capsys, "dcp", "--d", "3", "--k", "1", "--cap", "0")
    assert code == 1
    forward = "  not certified in partial-symmetric ideal: "
    backward = "  not certified in symmetric-plus-powers ideal: "
    e = ["Z1 + Z2 + Z3", "Z1*Z2 + Z1*Z3 + Z2*Z3", "Z1*Z2*Z3"]
    assert out.splitlines() == [
        "d=3 k=1 (partition (1,2), degree cap 0)",
        *(forward + g for g in e + ["Z1^2", "Z2^2", "Z3^2"]),
        *(backward + g for g in ["Z1*Z2", "Z1*Z3", "Z2*Z3"] + e),
    ]


def test_harmonic_json_report(capsys):
    code, out, _ = run_cli(capsys, "harmonic", "--d", "3", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["kernelDimension"] == payload["quotientDimension"] == 3


def test_dcp_json_report(capsys):
    code, out, _ = run_cli(capsys, "dcp", "--d", "2", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["uncertifiedForward"] == []


def test_generators_counts_csv(capsys, tmp_path):
    csv_path = tmp_path / "counts.csv"
    code, _, _ = run_cli(
        capsys, "generators", "--N", "2", "--k", "2",
        "--counts-csv", str(csv_path), "--json", str(tmp_path / "cat.json"),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "degree,expected,computed"
    assert lines[1:] == ["1,3,3", "2,3,3", "3,9,9"]


def test_tableaux(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--mu", "2,2")
    assert code == 0
    assert "2 standard tableaux" in out
    assert "vandermonde" in out


def test_tableaux_bad_partition(capsys):
    code, _, err = run_cli(capsys, "tableaux", "--mu", "x,y")
    assert code == 2
    assert "configuration error" in err


def test_generators_json_schema(capsys, tmp_path):
    out_path = tmp_path / "catalog.json"
    code, _, _ = run_cli(capsys, "generators", "--N", "1", "--k", "1", "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["N"] == 1 and payload["k"] == 1
    degrees = [fam["degree"] for fam in payload["families"]]
    assert degrees == [1, 2]
    counts = [fam["count"] for fam in payload["families"]]
    assert counts == [2, 1]
    generator = payload["families"][1]["generators"][0]
    assert set(generator) == {"index", "poly"}
    assert generator["poly"] == "X0^(0)*X1^(1) - X0^(1)*X1^(0)"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "1", "--k", "1", "--dmax", "3")
    assert code == 0
    assert "finite-generation d=3" in out
    assert "FAIL" not in out


def test_verify_command_builds_one_catalog(capsys, monkeypatch):
    from diffhom import catalog

    built = []
    original = catalog.build_catalog

    def counting(n, k, caps=None):
        built.append((n, k))
        return original(n, k, caps)

    monkeypatch.setattr(catalog, "build_catalog", counting)
    code, out, _ = run_cli(capsys, "verify", "--N", "1", "--k", "2", "--dmax", "3")
    assert code == 0
    assert "minimality d=3: pass" in out
    assert built == [(1, 2)]


def test_verify_command_builds_each_generator_once(capsys, monkeypatch):
    # the quotient-basis lines read the command's one catalog
    from diffhom import catalog

    expected = sum(catalog.build_catalog(1, 3).counts())
    built = []
    original = catalog.build_generator

    def counting(idx, n, d):
        built.append((idx, n, d))
        return original(idx, n, d)

    monkeypatch.setattr(catalog, "build_generator", counting)
    code, out, _ = run_cli(capsys, "verify", "--N", "1", "--k", "3", "--dmax", "5")
    assert code == 0
    assert "quotient-basis d=4: gap 16-12 family 4 -> pass" in out
    assert len(built) == expected


def test_sigma_enumerates_the_model_indices_once(capsys, monkeypatch):
    from diffhom import catalog

    walked = []
    original = catalog._nested_block

    def counting(lengths):
        walked.append(lengths)
        return original(lengths)

    monkeypatch.setattr(catalog, "_nested_block", counting)
    code, out, _ = run_cli(capsys, "sigma", "--d", "5")
    assert code == 0
    assert "class sizes by witness slot: {1: 0, 2: 6, 3: 12, 4: 18, 5: 24}" in out
    assert walked == [(1,) * 5]


def test_sigma(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--d", "3", "--N", "1")
    assert code == 0
    assert "3 (d!/2 formula)" in out
    assert "nested indices for N=1" in out


def test_verify_all_roundtrip(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2], "format": "json"}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-all", "--config", str(cfg), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"fail": 0, "pass": 9, "skipped": 0}
    first = out_path.read_text()
    code, _, _ = run_cli(capsys, "verify-all", "--config", str(cfg), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == first == out


def test_verify_all_format_option_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2], "format": "json"}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify-all", "--config", str(cfg), "--format", "csv", "--out", str(out_path)
    )
    assert code == 0
    assert out.splitlines()[0] == "checkId,formula,inputs,expected,computed,status"
    assert json.loads(out_path.read_text())["summary"]["pass"] == 9


def test_verify_all_bad_config_format_fails_despite_option(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2], "format": "yaml"}))
    code, out, err = run_cli(capsys, "verify-all", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "format must be one of" in err


def test_verify_all_json_is_independent_of_the_hash_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2, 3]}))
    src = str(Path(diffhom.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "4242"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        argv = [sys.executable, "-m", "diffhom", "verify-all", "--config", str(cfg), "--format", "json"]
        done = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["summary"]["fail"] == 0


def test_verify_all_csv(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2]}))
    code, out, _ = run_cli(capsys, "verify-all", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "checkId,formula,inputs,expected,computed,status"


def test_verify_all_env_caps_skip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DIFFHOM_MAX_BOX", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2]}))
    code, out, _ = run_cli(capsys, "verify-all", "--config", str(cfg))
    assert code == 0
    assert "skipped" in out


def test_verify_all_strict_fails_on_a_skip(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2], "caps": {"max_box": 1}}))
    code, out, err = run_cli(capsys, "verify-all", "--config", str(cfg))
    assert code == 0
    assert "0 failed" in out and " 0 skipped" not in out
    code, strict_out, err = run_cli(capsys, "verify-all", "--config", str(cfg), "--strict")
    assert code == 1
    assert strict_out == out
    assert len(err.splitlines()) == 1 and "skipped" in err


def test_verify_all_strict_passes_without_skips(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2]}))
    code, out, _ = run_cli(capsys, "verify-all", "--config", str(cfg), "--strict")
    assert code == 0
    assert " 0 skipped" in out


@pytest.mark.parametrize("data", [{"d_values": [0]}, {"d_values": [7, 8]}])
@pytest.mark.parametrize("strict", [False, True])
def test_verify_all_selecting_no_check_exits_2(capsys, tmp_path, data, strict):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify-all", "--config", str(cfg), *["--strict"] * strict)
    assert code == 2
    assert out == ""
    assert err == "configuration error: the configuration selects no checks\n"


def test_verify_all_bad_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"d_values": "two"}')
    code, _, err = run_cli(capsys, "verify-all", "--config", str(cfg))
    assert code == 2
    assert "configuration error" in err


def test_verify_all_rejects_unknown_config_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_value": [1]}))
    code, out, err = run_cli(capsys, "verify-all", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error")
    assert "d_value" in err
    assert len(err.splitlines()) == 1


def test_verify_all_missing_config(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify-all", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read configuration" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--N", "1", "--d", "2", "--k", "1", "--json"),
        ("generators", "--N", "1", "--k", "1", "--json"),
        ("generators", "--N", "1", "--k", "1", "--counts-csv"),
    ],
)
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "out.txt")
    code, _, err = run_cli(capsys, *argv, target)
    assert code == 2
    assert err.startswith("configuration error: cannot write")
    assert target in err
    assert len(err.splitlines()) == 1


def test_verify_all_unwritable_out_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_values": [2]}))
    target = str(tmp_path / "missing" / "report.json")
    code, _, err = run_cli(capsys, "verify-all", "--config", str(cfg), "--out", target)
    assert code == 2
    assert err.startswith("configuration error: cannot write")
    assert len(err.splitlines()) == 1


def test_env_cap_must_be_a_positive_integer(capsys, monkeypatch):
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("DIFFHOM_MAX_BOX", raw)
        code, _, err = run_cli(capsys, "tensor-inv", "--k", "1", "--d", "2")
        assert code == 2
        assert err.startswith("configuration error: DIFFHOM_MAX_BOX")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "data",
    [{"caps": {"max_box": True}}, {"d_values": [True, 2]}, {"k_values": [False]}],
)
def test_verify_all_rejects_bools(capsys, tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify-all", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error")


@pytest.mark.parametrize(
    "argv",
    [
        ("tensor-inv", "--k", "-1", "--d", "2"),
        ("tensor-inv", "--k", "1", "--d", "0"),
        ("sigma", "--d", "0"),
        ("sigma", "--d", "2", "--N", "-1"),
        ("generators", "--N", "1", "--k", "-1"),
        ("generators", "--N", "-1", "--k", "1"),
        ("harmonic", "--d", "0", "--k", "1"),
        ("harmonic", "--d", "2", "--k", "-1"),
        ("dcp", "--d", "2", "--k", "1", "--cap", "-1"),
        ("verify", "--N", "1", "--k", "1", "--dmax", "0"),
    ],
)
def test_out_of_range_options_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "must be at least" in err


def run_module_within_10s(*argv):
    """`python -m diffhom argv` in a fresh process without DIFFHOM_* caps."""
    src = str(Path(diffhom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIFFHOM_")}
    return subprocess.run(
        [sys.executable, "-m", "diffhom", *argv],
        env={**env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=10,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("harmonic", "--d", "16", "--k", "1"),
        ("harmonic", "--d", "18", "--k", "1"),
        ("harmonic", "--d", "20", "--k", "0"),
        ("dcp", "--d", "20", "--k", "1"),
        ("generators", "--N", "9", "--k", "9"),
        ("verify", "--N", "9", "--k", "9", "--dmax", "2"),
    ],
)
def test_oversized_presentations_exit_2_before_they_are_built(argv):
    # the presentations hold up to 2^d and 3^d terms, the (9,9) catalog
    # 5,000,000,005 generators; a cap checked only after they are built takes
    # minutes to fire, or never fires (box 1)
    done = run_module_within_10s(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: max_")


def test_nested_enumeration_refused_before_it_starts():
    # the 7^8 = 5,764,801 nested candidates are over the default cap, and
    # their closed-form count refuses them before the first is made
    done = run_module_within_10s("sigma", "--d", "8", "--N", "6")
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: max_enumeration: needed 5764801, cap is 2000000"
    ]


def test_dcp_at_d8_finishes_within_seconds():
    # each inclusion is decided once per orbit of generators, without the
    # degree windows, which take over 12 s to build at (8,3), or the dcp
    # presentation's 645,844 terms at (14,2)
    for d, k in ((8, 3), (12, 2), (14, 2)):
        done = run_module_within_10s("dcp", "--d", str(d), "--k", str(k), "--json")
        assert done.returncode == 0, (d, k)
        assert json.loads(done.stdout)["status"] == "pass"


def test_capped_failing_dcp_report_exits_2():
    # below every degree but 1 nearly every dcp generator fails, and the
    # terms of their renderings are counted before any is built
    done = run_module_within_10s("dcp", "--d", "16", "--k", "2", "--cap", "1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: max_products: needed ")


FUZZ_OPTIONS = {
    "dim": ("--N", "--d", "--k"),
    "tensor-inv": ("--k", "--d"),
    "harmonic": ("--d", "--k"),
    "dcp": ("--d", "--k", "--cap"),
    "sigma": ("--d", "--N"),
    "verify": ("--N", "--k", "--dmax"),
}
ENV_CAPS = (
    "DIFFHOM_MAX_BASIS_COLUMNS",
    "DIFFHOM_MAX_BOX",
    "DIFFHOM_MAX_PRODUCTS",
    "DIFFHOM_MEMBERSHIP_CAP",
    "DIFFHOM_MAX_ENUMERATION",
)
# small, negative and non-numeric values; sizes stay small enough to run in seconds
fuzz_values = st.one_of(
    st.integers(-3, 3).map(str), st.sampled_from(["", "x", "1.5", "-", "0x2", " 2", "1e3"])
)
fuzz_env = st.dictionaries(
    st.sampled_from(ENV_CAPS),
    st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["", "abc", "2.5", " 7"])),
    max_size=2,
)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for option in FUZZ_OPTIONS[command]:
        if draw(st.integers(0, 5)):  # now and then leave a required option out
            argv += [option, draw(fuzz_values)]
    return argv


@given(fuzz_argv(), fuzz_env)
@settings(max_examples=40, deadline=None)
def test_cli_fuzz_exits_cleanly(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, env),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv with exit 2
            code = exc.code
    assert code in (0, 1, 2), (argv, env, err.getvalue())
    assert "Traceback" not in err.getvalue()


CAP_NAMES = tuple(ResourceCaps.__dataclass_fields__)
# wrong types, bools, negatives and nested values in every config position
wrong_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans(), st.text(max_size=1)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
)
# value lists small enough that a valid config runs in well under a second
tiny_values = st.lists(st.integers(0, 3), min_size=1, max_size=3)
config_entries = st.fixed_dictionaries(
    {},
    optional={
        "n_values": st.one_of(tiny_values, wrong_values),
        "k_values": st.one_of(tiny_values, wrong_values),
        "caps": st.one_of(
            st.dictionaries(
                st.one_of(st.sampled_from(CAP_NAMES), st.text(max_size=3)),
                st.one_of(st.integers(-2, 40), wrong_values),
                max_size=2,
            ),
            wrong_values,
        ),
        "format": st.one_of(st.sampled_from(["text", "json", "csv", "xml"]), wrong_values),
        "seed": st.one_of(st.integers(-(2**70), 2**70), wrong_values),
        "extra": wrong_values,
    },
)
config_texts = st.one_of(
    # a JSON object; d_values is always set, so that a valid config stays small
    st.builds(
        lambda entries, d_values: json.dumps({**entries, "d_values": d_values}),
        config_entries,
        st.one_of(tiny_values, wrong_values),
    ),
    # a top level that is not an object
    wrong_values.map(json.dumps),
    # text that is not JSON, and bytes that are not UTF-8
    st.sampled_from(["", "{", "[1,", "NaN", "{'d_values': [1]}"]),
    st.binary(max_size=6).map(lambda b: b"\xff" + b),
    # nesting deeper than the parser's recursion limit
    st.sampled_from([3, 5_000]).map(lambda n: "[" * n + "]" * n),
)


@given(config_texts, st.booleans())
@settings(max_examples=25, deadline=None)
def test_verify_all_config_fuzz_exits_cleanly(text, strict):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify-all", "--config", str(cfg)] + ["--strict"] * strict)
    assert code in (0, 1, 2), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
