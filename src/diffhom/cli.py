"""Command-line interface: dimensions, catalogs, and the verification suite.

Exit codes: 0 on success (all requested checks pass), 1 when a verification
fails, 2 for configuration or I/O problems.  Resource-cap skips do not fail
a run, except under `verify-all --strict`.  Caps can be overridden with
DIFFHOM_* environment variables (see resources.py) on top of any
configuration file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import catalog as cat
from . import harmonic as har
from . import jets
from . import tensors as ten
from .errors import ConfigError, DiffhomError
from .resources import caps_from_env
from .suite import SuiteConfig, export, export_json, run_suite


def _at_least(args, **minima) -> None:
    """Reject integer options below their minimum (exit 2, one line)."""
    for name, low in minima.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise ConfigError(f"--{name} must be at least {low}, got {value}")


def _write(path: str, text: str) -> None:
    """Write a text file; a path that cannot be written exits 2, not a traceback."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit_json(payload, path: str = "-") -> None:
    """Write the payload as indented, key-sorted JSON to stdout ("-") or a file."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        _write(path, text)


def _cmd_dim(args) -> int:
    caps = caps_from_env()
    ctx = jets.JetContext(args.N, args.k, args.d)
    basis = jets.diff_homog_basis(ctx, caps)
    rendered = [p.render() for p in basis.elements]
    payload = {
        "N": args.N,
        "d": args.d,
        "k": args.k,
        "dimension": basis.dimension,
        "basis": rendered,
    }
    if args.json is not None:
        _emit_json(payload, args.json)
    else:
        print(f"N={args.N} d={args.d} k={args.k}: dimension {basis.dimension}")
        if args.basis:
            for tag, poly in zip(basis.provenance, rendered):
                print(f"  [{tag}] {poly}")
    return 0


def _cmd_tensor_inv(args) -> int:
    _at_least(args, k=0, d=1)
    caps = caps_from_env()
    basis = ten.invariant_tensor_basis(args.k, args.d, caps)
    print(f"k={args.k} d={args.d}: dimension {len(basis)}")
    if args.basis:
        for t in basis:
            print(f"  {t.render()}")
            print(f"    harmonic image: {ten.to_harmonic(t).render()}")
    return 0


def _cmd_harmonic(args) -> int:
    _at_least(args, d=1, k=0)
    caps = caps_from_env()
    kernel = har._kernel_dimension(args.d, args.k, caps)
    quotient = har.quotient_dimension(args.d, args.k, caps)
    formula = har.closed_form_dimension(args.d, args.k)
    ok = kernel == quotient == formula
    if args.json:
        payload = {
            "d": args.d,
            "k": args.k,
            "kernelDimension": kernel,
            "quotientDimension": quotient,
            "closedFormula": formula,
            "status": "pass" if ok else "fail",
        }
        _emit_json(payload)
        return 0 if ok else 1
    print(f"d={args.d} k={args.k}")
    print(f"  kernel dimension:   {kernel}")
    print(f"  quotient dimension: {quotient}")
    print(f"  closed formula:     {formula}")
    print(f"  agreement:          {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_dcp(args) -> int:
    _at_least(args, d=1, k=0, cap=0)
    caps = caps_from_env()
    report = har.verify_dcp_equality(args.d, args.k, args.cap, caps)
    mu = har.balanced_partition(args.d, args.k)
    if args.json:
        payload = {
            "d": args.d,
            "k": args.k,
            "partition": str(mu),
            "degreeCap": report.degree_cap,
            "uncertifiedForward": report.uncertified_forward,
            "uncertifiedBackward": report.uncertified_backward,
            "status": "pass" if report.passed else "fail",
        }
        _emit_json(payload)
        return 0 if report.passed else 1
    print(f"d={args.d} k={args.k} (partition {mu}, degree cap {report.degree_cap})")
    if report.passed:
        print("  both inclusions certified: ideals coincide")
        return 0
    for g in report.uncertified_forward:
        print(f"  not certified in partial-symmetric ideal: {g}")
    for g in report.uncertified_backward:
        print(f"  not certified in symmetric-plus-powers ideal: {g}")
    return 1


def _cmd_tableaux(args) -> int:
    caps = caps_from_env()
    try:
        parts = [int(x) for x in args.mu.split(",") if x.strip() != ""]
        mu = har.Partition.of(parts)
    except (ValueError, DiffhomError) as exc:
        raise ConfigError(f"bad partition {args.mu!r}: {exc}") from exc
    tableaux = har.enum_standard_tableaux(mu, caps)
    print(f"partition {mu}: {len(tableaux)} standard tableaux")
    for t in tableaux:
        rows = " / ".join(",".join(map(str, row)) for row in t.rows)
        print(f"  rows {rows}   vandermonde {har.tableau_vandermonde(t).render()}")
    return 0


def _cmd_generators(args) -> int:
    _at_least(args, N=0, k=0)
    caps = caps_from_env()
    catalog = cat.build_catalog(args.N, args.k, caps)
    payload = {
        "N": args.N,
        "k": args.k,
        "families": [
            {
                "degree": degree,
                "order": degree - 1,
                "count": len(catalog.family(degree)),
                "generators": [
                    {"index": str(rec.index), "poly": rec.poly.render()}
                    for rec in catalog.family(degree)
                ],
            }
            for degree in range(1, args.k + 2)
        ],
    }
    if args.counts_csv is not None:
        lines = ["degree,expected,computed"]
        for family in payload["families"]:
            expected = cat.nested_count_formula(args.N, family["degree"])
            lines.append(f"{family['degree']},{expected},{family['count']}")
        _write(args.counts_csv, "\n".join(lines) + "\n")
    if args.json is not None:
        _emit_json(payload, args.json)
        return 0
    for family in payload["families"]:
        print(f"degree {family['degree']} (order {family['order']}): {family['count']} generators")
        for gen in family["generators"]:
            print(f"  {gen['index']}  {gen['poly']}")
    return 0


def _cmd_verify(args) -> int:
    _at_least(args, N=1, k=0, dmax=1)
    caps = caps_from_env()
    catalog = cat.build_catalog(args.N, args.k, caps)
    ok = True
    for degree in range(2, args.k + 2):
        report = cat.degree_quotient_entry(catalog, degree, caps)
        ok = ok and report.passed
        print(
            f"quotient-basis d={degree}: gap {report.full_dimension}-{report.lower_dimension}"
            f" family {report.family_size} -> {'pass' if report.passed else 'FAIL'}"
        )
    for degree in range(1, args.dmax + 1):
        entry = cat.degree_generation_entry(catalog, degree, caps)
        ok = ok and entry.passed
        print(
            f"finite-generation d={entry.degree}: span {entry.rank}"
            f" of {entry.invariant_dimension} -> {'pass' if entry.passed else 'FAIL'}"
        )
    for degree in range(2, args.k + 2):
        entry = cat.degree_minimality_entry(catalog, degree, caps)
        ok = ok and entry.passed
        print(f"minimality d={entry.degree}: {'pass' if entry.passed else 'FAIL'}")
    counts = catalog.counts()
    expected = [cat.nested_count_formula(args.N, i) for i in range(1, args.k + 2)]
    print(f"generator counts {counts} expected {expected} -> {'pass' if counts == expected else 'FAIL'}")
    ok = ok and counts == expected
    return 0 if ok else 1


def _cmd_sigma(args) -> int:
    _at_least(args, d=1, N=0)
    caps = caps_from_env()
    indices = cat.top_order_indices(args.d, caps)
    sizes = cat.model_class_sizes(indices)
    print(f"model indices for d={args.d}: {len(indices)} (d!/2 formula)")
    print(f"  class sizes by witness slot: {sizes}")
    if len(indices) <= 60:
        for idx in indices:
            print(f"  {idx.alpha} witness {idx.witness}")
    if args.N is not None:
        nested = cat.top_order_nested_indices(args.N, args.d, caps)
        print(
            f"nested indices for N={args.N}, d={args.d}: {len(nested)}"
            f" (formula {cat.nested_count_formula(args.N, args.d)})"
        )
        if len(nested) <= 60:
            for idx in nested:
                print(f"  {idx}")
    return 0


def _cmd_verify_all(args) -> int:
    data = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read configuration: {exc}") from exc
    cfg = SuiteConfig.from_dict(data)
    cfg = dataclasses.replace(
        cfg, caps=caps_from_env(cfg.caps), output_format=args.format or cfg.output_format
    )
    report = run_suite(cfg)
    if not report.records:
        raise ConfigError("the configuration selects no checks")
    rendered = export(report, cfg.output_format, include_timing=args.include_timing)
    sys.stdout.write(rendered)
    if args.out is not None:
        _write(args.out, export_json(report, args.include_timing))
    skipped = report.counts["skipped"]
    if args.strict and skipped:
        print(f"strict: {skipped} check(s) skipped at a resource cap", file=sys.stderr)
        return 1
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffhom",
        description="Exact computations with differentially homogeneous polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension (and basis) of an invariant space")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--basis", action="store_true", help="print the basis elements")
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("tensor-inv", help="invariant tensors of one box")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--basis", action="store_true")
    p.set_defaults(fn=_cmd_tensor_inv)

    p = sub.add_parser("harmonic", help="solution-space dimensions and formula check")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(fn=_cmd_harmonic)

    p = sub.add_parser("dcp", help="certify the two ideal presentations agree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help="membership degree cap")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(fn=_cmd_dcp)

    p = sub.add_parser("tableaux", help="standard tableaux of a partition")
    p.add_argument("--mu", required=True, help="comma-separated parts, e.g. 2,3")
    p.set_defaults(fn=_cmd_tableaux)

    p = sub.add_parser("generators", help="emit the generator catalog")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    p.add_argument("--counts-csv", default=None, metavar="PATH", help="write a degree,expected,computed table")
    p.set_defaults(fn=_cmd_generators)

    p = sub.add_parser("verify", help="quotient-basis, generation, minimality suites")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sigma", help="enumerate the generator index sets")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("verify-all", help="run the batch verification suite")
    p.add_argument("--config", default=None, metavar="CFG.JSON")
    p.add_argument("--out", default=None, metavar="REPORT.JSON")
    p.add_argument("--format", choices=("text", "json", "csv"), default=None)
    p.add_argument("--include-timing", action="store_true")
    p.add_argument(
        "--strict", action="store_true", help="fail (exit 1) when a check is skipped at a resource cap"
    )
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DiffhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
