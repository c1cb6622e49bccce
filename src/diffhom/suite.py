"""The batch verification suite: every structural claim, machine-checked.

A suite run instantiates one check record per claim and degree, in a fixed
order.  Each claim tuple yields exact (label, expected, computed, ok) rows; a
record shows its rows as "label:value; ..." strings and passes when all rows
do.  Resource-cap violations mark a check as skipped rather than failed: a
skip is a machine limit, a fail is a mathematical discrepancy.  Reports are
deterministic given the configuration (records are sorted by check id and
timing is excluded from exports by default), so JSON exports are byte-stable
golden files.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from fractions import Fraction
from itertools import product as iter_product
from math import factorial

from . import catalog as cat
from . import harmonic as har
from . import jets
from . import tensors as ten
from .errors import ConfigError, ResourceLimitError
from .polynomials import Poly, SERIES_COEFF, determinant, jet_var
from .resources import DEFAULT_CAPS, ResourceCaps

# claim tuples exercised by the default suite
SK_DIMENSIONS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3))
STABILIZATION = ((1, 2), (1, 3))
TENSOR_DEGREES = (2, 3, 4, 5)
WRONSKIAN_BASIS_MAX = 4
HARMONIC_TUPLES = ((2, 1), (3, 1), (4, 1), (3, 2), (5, 2))
DCP_TUPLES = ((3, 1), (4, 1), (4, 2))
SPANNING_SHAPES = ((1, 1), (1, 1, 1), (2, 2), (2, 3))
QUOTIENT_TUPLES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3))
GENERATION_TRIPLES = ((1, 1, 5), (1, 2, 4), (2, 1, 3))
MINIMALITY_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
COUNTING_MODEL_DEGREES = (2, 3, 4, 5, 6)
COUNTING_NESTED_DEGREES = (1, 2, 3, 4, 5)
COUNTING_NESTED_MAX_N = 3


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass but never a count or a cap."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SuiteConfig:
    n_values: tuple = (1, 2, 3)
    d_values: tuple = (1, 2, 3, 4, 5, 6)
    k_values: tuple = (0, 1, 2, 3, 4)
    caps: ResourceCaps = field(default_factory=lambda: DEFAULT_CAPS)
    output_format: str = "text"
    seed: int = 20240801

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - set(SuiteConfig().to_dict())
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        updates = {}
        for key in ("n_values", "d_values", "k_values"):
            if key in data:
                values = data[key]
                if (
                    not isinstance(values, (list, tuple))
                    or not values
                    or not all(_is_int(v) and v >= 0 for v in values)
                ):
                    raise ConfigError(f"{key} must be a non-empty list of integers")
                updates[key] = tuple(sorted(set(values)))
        if "caps" in data:
            caps_data = data["caps"]
            if not isinstance(caps_data, dict):
                raise ConfigError("caps must be an object")
            valid = set(ResourceCaps.__dataclass_fields__)
            unknown = set(caps_data) - valid
            if unknown:
                raise ConfigError(f"unknown cap names: {sorted(unknown)}")
            if not all(_is_int(v) and v > 0 for v in caps_data.values()):
                raise ConfigError("caps must be positive integers")
            updates["caps"] = replace(DEFAULT_CAPS, **caps_data)
        if "format" in data:
            if data["format"] not in ("text", "json", "csv"):
                raise ConfigError("format must be one of text|json|csv")
            updates["output_format"] = data["format"]
        if "seed" in data:
            if not _is_int(data["seed"]):
                raise ConfigError("seed must be an integer")
            updates["seed"] = data["seed"]
        return SuiteConfig(**updates)

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "d_values": list(self.d_values),
            "k_values": list(self.k_values),
            "caps": asdict(self.caps),
            "format": self.output_format,
            "seed": self.seed,
        }


@dataclass
class CheckRecord:
    check_id: str
    formula: str
    inputs: dict
    expected: str
    computed: str
    status: str  # pass | fail | skipped(resource)
    elapsed: float


@dataclass
class SuiteReport:
    config: SuiteConfig
    records: list

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for rec in self.records:
            key = "skipped" if rec.status.startswith("skipped") else rec.status
            out[key] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


@dataclass
class _Check:
    check_id: str
    formula: str
    inputs: dict
    runner: object  # () -> (expected, computed, ok)


# ---------------------------------------------------------------------------
# claim rows: each generator yields the rows of one claim tuple


def _result(rows):
    """Fold (label, expected, computed, ok) rows into a record's strings and flag."""
    rows = list(rows)
    expected = "; ".join(f"{label}:{want}" for label, want, _, _ in rows)
    computed = "; ".join(f"{label}:{got}" for label, _, got, _ in rows)
    return expected, computed, all(ok for *_, ok in rows)


def _eq(label, want, got):
    """The row of a claim that a computed value equals the expected one."""
    return label, want, got, got == want


def _dimension(n, k, d, caps):
    return jets._invariant_dimension(jets.JetContext(n, k, d), caps)


def _sk_rows(d, n, caps):
    yield _eq(f"N={n}", (n + 1) ** d, _dimension(n, d - 1, d, caps))


def _stabilization_rows(d, n, caps):
    yield _eq(f"N={n}", _dimension(n, d - 1, d, caps), _dimension(n, d, d, caps))


def _tensor_rows(d, caps):
    if d > WRONSKIAN_BASIS_MAX:
        yield _eq("dim", factorial(d), ten._box_dimension(d - 1, d, caps))
        return
    # the Wronskian check computes the same kernel; its dimension is the dim row
    report = ten.verify_wronskian_basis(d, caps)
    yield _eq("dim", factorial(d), report.kernel_dimension)
    yield "wronskian-rank", factorial(d), report.rank, report.passed


def _harmonic_rows(d, k, caps, kernel_dimension):
    yield _eq(f"k={k}", har.closed_form_dimension(d, k), kernel_dimension(d, k, caps))


def _oberst_rows(d, k, caps, kernel_dimension):
    yield _eq(f"k={k}", kernel_dimension(d, k, caps), har.quotient_dimension(d, k, caps))


def _dcp_rows(d, k, caps):
    report = har.verify_dcp_equality(d, k, d * (k + 1), caps)
    yield f"k={k}", "equal", "equal" if report.passed else "not-certified", report.passed


def _spanning_rows(d, shape, caps):
    mu = har.Partition.of(shape)
    report = har.verify_spanning(mu, caps)
    yield f"mu={report.partition}", report.expected_dimension, report.rank, report.passed
    k = har.matching_order(mu)
    if k is not None and mu.d >= k + 1:
        blocks = har.verify_block_surjectivity(mu.d, k, caps)
        yield f"blocks(k={k})", blocks.expected_dimension, blocks.rank, blocks.passed


def _counting_rows(d, ns, caps):
    if d in COUNTING_MODEL_DEGREES:
        yield _eq("model", factorial(d) // 2, len(cat.top_order_indices(d, caps)))
    for n in ns:
        want = cat.nested_count_formula(n, d)
        yield _eq(f"N={n}", want, len(cat.top_order_nested_indices(n, d, caps)))


def _quotient_basis_rows(d, n, caps, catalog):
    report = cat.degree_quotient_entry(catalog(n, d - 1, caps), d, caps)
    gap = report.full_dimension - report.lower_dimension
    computed = f"{report.family_size}+{'basis' if report.passed else 'FAIL'}"
    yield f"N={n}", f"{gap}+basis", computed, report.passed


def _generation_rows(d, generation, minimality, caps, catalog):
    for n, k in generation:
        entry = cat.degree_generation_entry(catalog(n, k, caps), d, caps)
        yield f"N={n},k={k}", entry.invariant_dimension, entry.rank, entry.passed
    for n, k in minimality:
        want = cat.nested_count_formula(n, d)
        got = len(catalog(n, k, caps).family(d))
        signed = dict(cat.weighted_signature(n, k)).get(d) == got
        computed = got if signed else f"{got}!=sig"
        yield f"N={n},k={k}|G{d}|", want, computed, got == want and signed
        if d >= 2:
            minimal = cat.degree_minimality_entry(catalog(n, k, caps), d, caps).passed
            yield f"N={n},k={k}min", "minimal", "minimal" if minimal else "FAIL", minimal
    # the two construction routes (determinant build vs tensor projection) agree
    for n in sorted({n for n, _ in generation + minimality}):
        agree = True
        for rec in catalog(n, d - 1, caps).family(d):
            idx = rec.index
            assignment = cat.composition_to_function(idx.lengths)
            agree = agree and cat.function_to_composition(assignment, n) == idx.lengths
            projected = ten.project_to_symmetric(
                ten.tensor_from_multilinear(ten.wronskian(idx.flat), d, d - 1),
                assignment,
            ).sign_normalized()
            agree = agree and rec.poly == projected
        yield f"N={n}routes", "agree", "agree" if agree else "FAIL", agree


# ---------------------------------------------------------------------------
# property suites (criterion-style randomized checks, exactly seeded)


def _random_poly(rng, variables, max_factors, max_terms):
    p = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = [(rng.choice(variables), 1) for _ in range(rng.randint(1, max_factors))]
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + Poly.monomial(mono, coeff if coeff else 1)
    return p


def _specialize_series(p, coefficients):
    """p with each l_m set to coefficients[m], term by term.

    The l_m sort last in a monomial, so dropping them leaves it sorted.
    """
    out = {}
    for mono, c in p.terms.items():
        rest = []
        for v, e in mono:
            if v.family == SERIES_COEFF:
                c *= coefficients[v.i] ** e
            else:
                rest.append((v, e))
        rest = tuple(rest)
        out[rest] = out.get(rest, 0) + c
    return Poly(out)


def _prop_action_group_law(rng, caps, trials):
    ctx = jets.JetContext(1, 2, 3)
    variables = ctx.variables()
    failures = 0
    for _ in range(trials):
        p = _random_poly(rng, variables, 3, 4)
        a = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)]
        b = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 3)]
        conv = [
            sum((a[s] * b[m - s] for s in range(m + 1)), Fraction(0))
            for m in range(ctx.k + 1)
        ]
        acted = jets.act_series(p, ctx)
        twice = _specialize_series(jets.act_series(_specialize_series(acted, b), ctx), a)
        once = _specialize_series(acted, conv)
        if twice != once:
            failures += 1
    return trials, failures


def _random_tensor(rng, k, d):
    coords = {}
    for _ in range(rng.randint(1, 5)):
        idx = tuple(rng.randint(0, k) for _ in range(d))
        coords[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ten.Tensor.make(k, d, coords)


def _prop_one_parameter(rng, caps, trials):
    failures = 0
    for _ in range(trials):
        k = rng.randint(1, 3)
        d = rng.randint(2, 4)
        t = _random_tensor(rng, k, d)
        alpha = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = ten.expand_one_parameter(t, alpha)
        rhs = t
        for ell in range(1, d + 1):
            rhs = rhs.add(
                ten.insertion_operator(t, ell).scale(alpha**ell / factorial(ell))
            )
        if lhs != rhs:
            failures += 1
    return trials, failures


def _prop_intertwining(rng, caps, trials):
    count = 0
    failures = 0
    for k, d in ((1, 2), (1, 3), (2, 3)):
        for idx in iter_product(range(k + 1), repeat=d):
            t = ten.Tensor.unit(k, d, idx)
            image = ten.to_harmonic(t)
            for ell in range(1, d + 1):
                count += 1
                op = har.elementary_symmetric(range(1, d + 1), ell).scale(factorial(ell))
                lhs = ten.to_harmonic(ten.insertion_operator(t, ell))
                rhs = har.apply_poly_operator(op, image)
                if lhs != rhs:
                    failures += 1
    return count, failures


def _prop_product_implication(rng, caps, trials):
    ctx = jets.JetContext(1, 2, 2)
    x0 = Poly.variable(jet_var(0, 0))
    x1 = Poly.variable(jet_var(1, 0))
    wronskian = x0 * Poly.variable(jet_var(1, 1)) - x1 * Poly.variable(jet_var(0, 1))
    invariants = [x0, x1, wronskian, x0 * x1, wronskian * x0]
    others = [
        Poly.variable(jet_var(0, 1)),
        Poly.variable(jet_var(1, 2)),
        x0 + Poly.variable(jet_var(0, 1)),
        x0 * Poly.variable(jet_var(1, 1)),
    ]
    failures = 0
    for _ in range(trials):
        pool_p = invariants if rng.random() < 0.5 else others
        pool_q = invariants if rng.random() < 0.5 else others
        p = pool_p[rng.randrange(len(pool_p))]
        q = pool_q[rng.randrange(len(pool_q))]
        report = jets.product_lemma_check(p, q, ctx)
        if not report.implication_holds:
            failures += 1
    return trials, failures


def _prop_determinant_alternation(rng, caps, trials):
    variables = [jet_var(i, j) for i in range(2) for j in range(3)]
    failures = 0
    for _ in range(trials):
        n = rng.choice((3, 4))
        matrix = [
            [
                Poly.variable(rng.choice(variables))
                if rng.random() < 0.7
                else Poly.zero()
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        base = determinant(matrix)
        i, j = rng.sample(range(n), 2)
        swapped = [
            [row[j] if c == i else row[i] if c == j else row[c] for c in range(n)]
            for row in matrix
        ]
        if determinant(swapped) != -base:
            failures += 1
            continue
        doubled = [
            [row[i] if c == j else row[c] for c in range(n)] for row in matrix
        ]
        if not determinant(doubled).is_zero:
            failures += 1
    return trials, failures


_PROPERTY_CHECKS = (
    ("action-group-law", "acting twice equals acting by the product series", 3, _prop_action_group_law, 48),
    ("one-parameter-expansion", "slotwise (I+aJ) equals the insertion-operator sum", 4, _prop_one_parameter, 48),
    ("intertwining", "harmonic image intertwines insertions with symmetric operators", 3, _prop_intertwining, 113),
    ("product-implication", "invariant product forces invariant factors", 3, _prop_product_implication, 48),
    ("determinant-alternation", "column swap negates, duplicate column kills", 4, _prop_determinant_alternation, 48),
)


# ---------------------------------------------------------------------------
# check registry


def build_checks(cfg: SuiteConfig) -> list:
    caps = cfg.caps
    checks: list[_Check] = []
    ns, ds, ks = set(cfg.n_values), set(cfg.d_values), set(cfg.k_values)
    # Kernels and catalogs that several checks read (04 and 05; 09 and the rows of 10)
    # are computed once per call.  The caches live only as long as these
    # checks, so every suite run still does all of its own work.
    kernel_dimension = cache(har._kernel_dimension)
    catalog = cache(cat.build_catalog)

    def grouped(criterion, formula, key, items, rows):
        """One check per configured degree over the (d, input value, claim) items."""
        for d in sorted({d for d, _, _ in items} & ds):
            group = [(value, claim) for dd, value, claim in items if dd == d]
            checks.append(_Check(
                f"{criterion}/d{d}",
                formula,
                {"d": d, key: [value for value, _ in group]},
                lambda d=d, group=group: _result(
                    row for _, claim in group for row in rows(d, claim, caps)
                ),
            ))

    grouped(
        "01-schmidt-kolchin",
        "dim equals (N+1)^d at full order d-1",
        "N",
        [(d, n, n) for n, d in SK_DIMENSIONS if n in ns and d - 1 <= max(ks, default=-1)],
        _sk_rows,
    )
    grouped(
        "02-stabilization",
        "dimension at order d equals dimension at order d-1",
        "N",
        [(d, n, n) for n, d in STABILIZATION if n in ns],
        _stabilization_rows,
    )

    for d in TENSOR_DEGREES:
        if d in ds and (d - 1) in ks:
            checks.append(_Check(
                f"03-tensor-invariants/d{d}",
                "invariant tensors have dimension d!",
                {"d": d, "k": d - 1},
                lambda d=d: _result(_tensor_rows(d, caps)),
            ))

    harmonic = [(d, k, k) for d, k in HARMONIC_TUPLES if k in ks]
    grouped(
        "04-harmonic-dimension",
        "solution-space dimension matches d!/((q!)^(k+1-r)((q+1)!)^r)",
        "k",
        harmonic,
        partial(_harmonic_rows, kernel_dimension=kernel_dimension),
    )
    grouped(
        "05-oberst-equality",
        "operator-kernel dimension equals quotient dimension",
        "k",
        harmonic,
        partial(_oberst_rows, kernel_dimension=kernel_dimension),
    )
    grouped(
        "06-dcp-identification",
        "symmetric-plus-powers ideal equals the partial-symmetric ideal",
        "k",
        [(d, k, k) for d, k in DCP_TUPLES if k in ks],
        _dcp_rows,
    )
    grouped(
        "07-spanning",
        "derivatives of column Vandermondes span the solution space",
        "mu",
        [(sum(s), "(" + ",".join(map(str, s)) + ")", s) for s in SPANNING_SHAPES],
        _spanning_rows,
    )

    nested_ns = sorted(n for n in ns if n <= COUNTING_NESTED_MAX_N)
    for d in sorted(set(COUNTING_MODEL_DEGREES + COUNTING_NESTED_DEGREES)):
        counting_ns = nested_ns if d in COUNTING_NESTED_DEGREES else []
        if d in ds and (d in COUNTING_MODEL_DEGREES or counting_ns):
            checks.append(_Check(
                f"08-counting/d{d}",
                "index counts match d!/2 and N(N+1)/2*(N+1)^(d-2)",
                {"d": d, "N": counting_ns},
                lambda d=d, counting_ns=counting_ns: _result(_counting_rows(d, counting_ns, caps)),
            ))

    grouped(
        "09-quotient-basis",
        "nested-index generators induce a basis of the top-order quotient",
        "N",
        [(d, n, n) for n, d in QUOTIENT_TUPLES if n in ns],
        partial(_quotient_basis_rows, catalog=catalog),
    )

    max_degree = max([dm for *_, dm in GENERATION_TRIPLES] + [k + 1 for _, k in MINIMALITY_PAIRS])
    for d in range(1, max_degree + 1):
        generation = [
            (n, k) for n, k, dm in GENERATION_TRIPLES if d <= dm and n in ns and k in ks
        ]
        minimality = [
            (n, k) for n, k in MINIMALITY_PAIRS if d <= k + 1 and n in ns and k in ks
        ]
        if d in ds and (generation or minimality):
            checks.append(_Check(
                f"10-generation-minimality/d{d}",
                "generator monomials span; generators are minimal; counts match",
                {"d": d, "generation": generation, "minimality": minimality},
                lambda d=d, generation=generation, minimality=minimality: _result(
                    _generation_rows(d, generation, minimality, caps, catalog)
                ),
            ))

    for name, formula, d, fn, trials in _PROPERTY_CHECKS:
        if d in ds:
            check_id = f"11-properties/{name}"
            rng_seed = f"{cfg.seed}/{check_id}"

            def runner(fn=fn, rng_seed=rng_seed, trials=trials):
                rng = random.Random(rng_seed)
                count, failures = fn(rng, caps, trials)
                return (
                    f"{count} instances, 0 failures",
                    f"{count} instances, {failures} failures",
                    failures == 0,
                )

            checks.append(_Check(check_id, formula, {"d": d, "instances": trials}, runner))

    return checks


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    """Execute all configured checks and collect a deterministic report."""
    cfg = cfg or SuiteConfig()
    records = []
    for check in build_checks(cfg):
        start = time.perf_counter()
        try:
            expected, computed, ok = check.runner()
            status = "pass" if ok else "fail"
        except ResourceLimitError as exc:
            expected, computed, status = "", f"resource limit: {exc}", "skipped(resource)"
        records.append(
            CheckRecord(
                check_id=check.check_id,
                formula=check.formula,
                inputs=check.inputs,
                expected=expected,
                computed=computed,
                status=status,
                elapsed=time.perf_counter() - start,
            )
        )
    records.sort(key=lambda rec: rec.check_id)
    return SuiteReport(cfg, records)


# ---------------------------------------------------------------------------
# exports


def report_to_dict(report: SuiteReport, include_timing: bool = False) -> dict:
    checks = []
    for rec in report.records:
        item = {
            "checkId": rec.check_id,
            "formula": rec.formula,
            "inputs": rec.inputs,
            "expected": rec.expected,
            "computed": rec.computed,
            "status": rec.status,
        }
        if include_timing:
            item["elapsedSeconds"] = round(rec.elapsed, 6)
        checks.append(item)
    return {
        "config": report.config.to_dict(),
        "checks": checks,
        "summary": report.counts,
    }


def export_json(report: SuiteReport, include_timing: bool = False) -> str:
    return json.dumps(report_to_dict(report, include_timing), indent=2, sort_keys=True) + "\n"


def export_csv(report: SuiteReport) -> str:
    lines = ["checkId,formula,inputs,expected,computed,status"]
    for rec in report.records:
        cells = [
            rec.check_id,
            rec.formula,
            json.dumps(rec.inputs, sort_keys=True, separators=(",", ":")),
            rec.expected,
            rec.computed,
            rec.status,
        ]
        quoted = ['"' + cell.replace('"', '""') + '"' for cell in cells]
        lines.append(",".join(quoted))
    return "\n".join(lines) + "\n"


def export_text(report: SuiteReport) -> str:
    labels = {"pass": "PASS", "fail": "FAIL", "skipped(resource)": "SKIP"}
    lines = []
    for rec in report.records:
        lines.append(f"[{labels.get(rec.status, '????')}] {rec.check_id}: {rec.formula}")
        if rec.status != "pass":
            lines.append(f"    expected: {rec.expected}")
            lines.append(f"    computed: {rec.computed}")
    counts = report.counts
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"


def export(report: SuiteReport, output_format: str, include_timing: bool = False) -> str:
    if output_format == "json":
        return export_json(report, include_timing)
    if output_format == "csv":
        return export_csv(report)
    if output_format == "text":
        return export_text(report)
    raise ConfigError(f"unknown format {output_format!r}")
