"""The benchmark's workloads: instance lists, expected values and digests.

Each workload is a list of instances.  An instance is one call into a public
function of diffhom followed by writing its output as canonical text (the
rendering of every basis element and report field, or the JSON export of a
suite report), as a user of the CLI would.  Outside the timed pass, the value
is checked independently (a closed-form count, or the ``passed`` flag the
library computes) and the digest of the text is compared with the digest
recorded in ``reference.json`` at the commit that introduced the benchmark.

Why each workload exists:

* ``verify-default`` is what users run: the default 43-check suite plus its
  JSON export.  ``03-tensor-invariants/d5`` dominates it, so the ``tensors``
  box kernel and ``linalg.Echelon.insert`` carry most of the time.
* ``invariants`` builds jet invariant spaces and the generator catalog, so
  ``jets`` and ``polynomials.Poly.substitute`` dominate; ``tensors`` and
  ``harmonic`` do none of the work.  Some contexts are computed more than
  once per pass, so a caching change shows here.
* ``harmonic-box`` is ungraded box linear algebra on integer rows (kernel,
  rank of a tall system, membership certificates), so ``linalg`` dominates,
  with no ``jets``, ``Poly.substitute`` or ``tensors`` kernel work.

``python3 bench/run.py --print-reference`` prints the digests of every
instance as JSON, in the format of ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from diffhom import catalog, harmonic, jets, suite
from diffhom.polynomials import Poly
from diffhom.tensors import Tensor

# The suite seed whose export the reference digest was recorded with.  Other
# seeds only change the export's ``config.seed`` field, as long as every
# seeded property check reports 0 failures.
REFERENCE_SEED = 20240801

EXPORT = "export"


@dataclass(frozen=True)
class Instance:
    """One call into diffhom, the text it writes, and the check of its value."""

    name: str
    call: Callable[[], object]
    expect: Callable[[object], bool] | None
    output: Callable[[object], str] | None = None

    def run(self) -> tuple[object, str]:
        result = self.call()
        return result, (self.output or canonical)(result)


def canonical(obj) -> str:
    """Canonical text of a diffhom result: renderings and report fields."""
    if isinstance(obj, (Poly, Tensor)):
        return obj.render()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical(x) for x in obj) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(obj, f.name))}" for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, (bool, int, str, Fraction)) or obj is None:
        return repr(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def normalized_export(export_text: str) -> str:
    """The JSON export as it reads under the reference seed."""
    data = json.loads(export_text)
    data["config"]["seed"] = REFERENCE_SEED
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- instance lists ----------------------------------------------------------
#
# Instances are sized so that a pass takes a few seconds and a run sees
# several passes: verify_quotient_basis(1,5) (about 7 s alone) is left out of
# `invariants`, and `harmonic-box` ranks the (5,3) box instead of the (7,2) one.


def _invariants() -> list[Instance]:
    ctx = jets.JetContext(2, 3, 4)
    return [
        Instance(
            "verify_quotient_basis(2,4)",
            lambda: catalog.verify_quotient_basis(2, 4),
            lambda r: r.passed,
        ),
        Instance(
            "verify_finite_generation(1,3,4)",
            lambda: catalog.verify_finite_generation(1, 3, 4),
            lambda r: r.passed,
        ),
        Instance(
            "verify_minimality(1,3)",
            lambda: catalog.verify_minimality(1, 3),
            lambda r: r.passed,
        ),
        Instance(
            "diff_homog_basis(2,3,4)",
            lambda: jets.diff_homog_basis(ctx),
            lambda r: r.dimension == (ctx.n + 1) ** ctx.d,
        ),
    ]


def _perp(d: int, k: int) -> Instance:
    return Instance(
        f"perp_basis(ik({d},{k}),{k})",
        lambda: harmonic.perp_basis(harmonic.ik_presentation(d, k), k),
        lambda r: len(r) == harmonic.closed_form_dimension(d, k),
    )


def _quotient(d: int, k: int) -> Instance:
    return Instance(
        f"quotient_dimension({d},{k})",
        lambda: harmonic.quotient_dimension(d, k),
        lambda r: r == harmonic.closed_form_dimension(d, k),
    )


def _harmonic_box() -> list[Instance]:
    return [
        _perp(7, 2),
        _quotient(5, 3),
        _perp(8, 1),
        _quotient(8, 1),
        Instance(
            "verify_dcp_equality(6,2)",
            lambda: harmonic.verify_dcp_equality(6, 2),
            lambda r: r.passed,
        ),
        Instance(
            "verify_spanning((2,2,2))",
            lambda: harmonic.verify_spanning((2, 2, 2)),
            lambda r: r.passed,
        ),
    ]


WORKLOADS = ("verify-default", "invariants", "harmonic-box")
_INSTANCES = {"invariants": _invariants, "harmonic-box": _harmonic_box}


class Workload:
    """A workload's passes: which calls run, and how each outcome is judged.

    ``rng`` is seeded from the benchmark's ``--seed``.  It draws the suite
    seed of each ``verify-default`` pass, and the order in which the other
    workloads run their instances.
    """

    def __init__(self, name: str, rng: random.Random):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = rng
        self.instances = _INSTANCES[name]() if name in _INSTANCES else []

    def next_pass(self) -> list[Instance]:
        """The instances of the next pass, in the order they run."""
        if self.name == "verify-default":
            seed = self.rng.randrange(10**9)
            return [Instance(EXPORT, lambda: _suite_and_export(seed), None, _exported)]
        order = list(self.instances)
        self.rng.shuffle(order)
        return order

    def judge(self, instance: Instance, result, text: str, reference: dict) -> dict[str, bool]:
        """Outcome per instance label; False is a failed instance."""
        if self.name == "verify-default":
            report, _ = result
            statuses = {rec.check_id: rec.status for rec in report.records}
            labels = (set(reference) | set(statuses)) - {EXPORT}
            outcomes = {label: statuses.get(label) == "pass" for label in labels}
            outcomes[EXPORT] = digest(normalized_export(text)) == reference.get(EXPORT)
            return outcomes
        ok = instance.expect(result) and digest(text) == reference.get(instance.name)
        return {instance.name: ok}

    def failed_pass(self, instance: Instance, reference: dict) -> dict[str, bool]:
        """Outcomes when the instance raised: every label it covers failed."""
        labels = reference if self.name == "verify-default" else [instance.name]
        return {label: False for label in labels}

    def digests(self) -> dict[str, str]:
        """Digests of one pass under the reference seed (reference.json)."""
        if self.name == "verify-default":
            report, exported = _suite_and_export(REFERENCE_SEED)
            out = {rec.check_id: rec.status for rec in report.records}
            out[EXPORT] = digest(normalized_export(exported))
            return out
        return {inst.name: digest(inst.run()[1]) for inst in self.instances}


def _suite_and_export(seed: int):
    report = suite.run_suite(suite.SuiteConfig(seed=seed))
    return report, suite.export(report, "json")


def _exported(result) -> str:
    return result[1]

