"""Enumeration of generator indices and the finite generator catalog.

The quotient of the degree-d invariants by those of lower derivation order
has an explicit basis of Wronskian determinants, selected by the nested
indices: one strictly increasing run of exponents per variable, satisfying
the bound and witness conditions of `_nested_block`.  The model case (d
slots, one variable each) is their multilinear block, all runs of length
one: a tuple (a_1..a_d) with a_j <= j-1 whose witness slot i has a_i = 0
and whose deletion leaves a_j <= j-1 after removal, which is the condition
that every later run is tight.

One enumerator walks each composition (r_0..r_n) of d as a block.  Run i
has C(P_i, r_i) candidates, P_i = r_0 + ... + r_i, and their product
telescopes to the multinomial d!/(r_0!...r_n!); summed over the
compositions, that is (n+1)^d.  So the candidates are counted in closed
form against `max_enumeration` before any is made.

Every nested index produces one generator: the d x d determinant whose
column s is the a_s-fold transpose-shift of the jet coordinate vector of
the variable assigned to slot s by the sorted slot-to-variable map.  The
catalog collects the generators in degrees 1..k+1; `build_catalog` is the
only builder of generator families.  The verification routines are degree
entries that read one given catalog: its degree-d family is a basis of the
top-order quotient, its monomials span the invariants, and it is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, product
from math import factorial

from .errors import InvalidCompositionError, InvalidIndexError
from .jets import JetContext, diff_homog_basis
from .linalg import echelon_of
from .polynomials import Poly, compositions, determinant, falling_factorial, jet_var
from .resources import DEFAULT_CAPS, ResourceCaps
from .spans import rank_modulo, span_rank


# ---------------------------------------------------------------------------
# nested indices, and the model case as their multilinear block


@dataclass(frozen=True)
class NestedIndex:
    """One exponent run per variable; empty runs are empty tuples."""

    runs: tuple  # tuple of tuples, length n+1

    @property
    def lengths(self) -> tuple:
        return tuple(len(r) for r in self.runs)

    @property
    def degree(self) -> int:
        return sum(self.lengths)

    @property
    def flat(self) -> tuple:
        return tuple(a for run in self.runs for a in run)

    def prefix_sums(self) -> tuple:
        return tuple(accumulate(self.lengths))

    def class_index(self) -> int | None:
        """Largest variable whose run starts with 0."""
        last = None
        for i, run in enumerate(self.runs):
            if run and run[0] == 0:
                last = i
        return last

    def __str__(self) -> str:
        return "(" + ";".join(",".join(map(str, r)) if r else "-" for r in self.runs) + ")"


def _bounds_ok(idx: NestedIndex) -> bool:
    """Strictly increasing runs bounded by the prefix sums."""
    prefix = idx.prefix_sums()
    for i, run in enumerate(idx.runs):
        if not run:
            continue
        if any(run[t] >= run[t + 1] for t in range(len(run) - 1)):
            return False
        if run[0] < 0 or run[-1] >= prefix[i]:
            return False
    return True


def _nested_block(lengths: tuple):
    """The nested indices with the given run lengths, in lexicographic order.

    Run i ranges over the increasing r_i-subsets of {0..P_i - 1}, where
    P_i = r_0 + ... + r_i.  It is tight when it is empty or ends below
    P_i - 1, and run i is a witness when it starts with 0, is tight or has
    length one, and every later run is tight.  One backward pass finds the
    largest witness: it stops at the first run that is not tight, since no
    earlier run can be a witness.  The largest witness is checked to be the
    class index, which the partition into classes relies on.
    """
    prefix = tuple(accumulate(lengths))
    for runs in product(*(combinations(range(p), r) for p, r in zip(prefix, lengths))):
        for i in range(len(runs) - 1, -1, -1):
            run = runs[i]
            tight = not run or run[-1] < prefix[i] - 1
            if run and run[0] == 0 and (tight or len(run) == 1):
                idx = NestedIndex(runs)
                if idx.class_index() != i:
                    raise InvalidIndexError(f"last witness {i} of {idx} differs from class index")
                yield idx
                break
            if not tight:
                break


def top_order_nested_indices(
    n: int, d: int, caps: ResourceCaps | None = None
) -> list[NestedIndex]:
    """All nested indices for n+1 variables in degree d, deterministic order.

    One `_nested_block` per composition of d, in lex order, except that the
    degree-one family runs X_0..X_N.  The (n+1)^d candidates are checked
    against `max_enumeration` before the first is made.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_enumeration", (n + 1) ** d)
    # lex order puts e_N first in degree one
    comps = sorted(compositions(d, n + 1), reverse=d == 1)
    return [idx for comp in comps for idx in _nested_block(comp)]


@dataclass(frozen=True)
class IndexTuple:
    """A model-case index with the largest certifying slot as witness."""

    alpha: tuple
    witness: int  # 1-based slot index with alpha[witness-1] == 0


def top_order_indices(d: int, caps: ResourceCaps | None = None) -> list[IndexTuple]:
    """All model-case index tuples for degree d, lexicographically ordered.

    They are the nested indices with d runs of length one (the d! candidates
    of a_j <= j-1 are checked against `max_enumeration` first); the witness
    is the class index, read 1-based.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_enumeration", factorial(d))
    return [IndexTuple(idx.flat, idx.class_index() + 1) for idx in _nested_block((1,) * d)]


def model_class_sizes(indices: list[IndexTuple]) -> dict:
    """Cardinalities of the classes by witness slot (class 1 is empty for d >= 2).

    The indices are the degree-d model indices that `top_order_indices(d)`
    lists, counted as given rather than enumerated again.
    """
    sizes = dict.fromkeys(range(1, len(indices[0].alpha) + 1), 0)
    for idx in indices:
        sizes[idx.witness] += 1
    return sizes


def nested_count_formula(n: int, d: int) -> int:
    """N(N+1)/2 * (N+1)^(d-2) for d >= 2, and N+1 in degree one."""
    if d == 1:
        return n + 1
    return n * (n + 1) // 2 * (n + 1) ** (d - 2)


# ---------------------------------------------------------------------------
# the composition bijection


def function_to_composition(f, n: int) -> tuple:
    """Fiber counts of a non-decreasing function into {0..n}."""
    values = list(f)
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        raise InvalidCompositionError(f"{values} is not non-decreasing")
    if values and not (0 <= values[0] and values[-1] <= n):
        raise InvalidCompositionError(f"{values} leaves the range 0..{n}")
    counts = [0] * (n + 1)
    for v in values:
        counts[v] += 1
    return tuple(counts)


def composition_to_function(m) -> tuple:
    """The sorted function realizing the given fiber counts."""
    counts = tuple(m)
    if any(c < 0 for c in counts):
        raise InvalidCompositionError(f"negative count in {counts}")
    return tuple(v for v, c in enumerate(counts) for _ in range(c))


# ---------------------------------------------------------------------------
# generators


def build_generator(idx: NestedIndex, n: int, d: int) -> Poly:
    """The determinant generator attached to a nested index.

    Column s holds the a_s-fold transpose-shift of the coordinate vector
    (X_v^(0), ..., X_v^(d-1)) of the variable v assigned to slot s; the
    result is sign-normalized so its leading coefficient is positive.  An
    identically zero determinant signals an inadmissible index and raises.
    """
    if len(idx.runs) != n + 1 or idx.degree != d:
        raise InvalidIndexError(f"{idx} does not fit n={n}, d={d}")
    if not _bounds_ok(idx):
        raise InvalidIndexError(f"{idx} violates the run bounds")
    variables = composition_to_function(idx.lengths)
    flat = idx.flat
    matrix = []
    for t in range(d):
        row = []
        for s in range(d):
            a = flat[s]
            if t >= a:
                row.append(
                    Poly.variable(jet_var(variables[s], t - a)).scale(
                        falling_factorial(t, a)
                    )
                )
            else:
                row.append(Poly.zero())
        matrix.append(row)
    poly = determinant(matrix)
    if poly.is_zero:
        raise InvalidIndexError(f"index {idx} produced the zero generator")
    return poly.sign_normalized()


@dataclass(frozen=True)
class GeneratorRecord:
    degree: int
    order: int
    index: NestedIndex
    poly: Poly


@dataclass
class GeneratorCatalog:
    """Generators of the order-filtered invariant algebra, by degree."""

    n: int
    k: int
    families: tuple  # families[i] lists the degree-(i+1) records

    def family(self, degree: int) -> tuple:
        return self.families[degree - 1]

    def counts(self) -> list:
        return [len(f) for f in self.families]

    def all_records(self) -> list:
        return [rec for fam in self.families for rec in fam]


def build_catalog(n: int, k: int, caps: ResourceCaps | None = None) -> GeneratorCatalog:
    """The generators of degrees 1..k+1, one determinant per nested index.

    Each degree's family lists its records in index order.  Their number,
    the sum of the nested-index counts, is checked against `max_products`
    before any index is enumerated or determinant built.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_products", sum(nested_count_formula(n, i) for i in range(1, k + 2)))
    families = []
    for degree in range(1, k + 2):
        records = []
        for idx in top_order_nested_indices(n, degree, caps):
            poly = build_generator(idx, n, degree)
            records.append(GeneratorRecord(degree, poly.derivation_order(), idx, poly))
        families.append(tuple(records))
    return GeneratorCatalog(n, k, tuple(families))


def weighted_signature(n: int, k: int) -> list:
    """(weight, multiplicity) pairs of the generator degrees.

    The nested-index counts in each degree up to k+1; in degree one that is
    one weight-1 coordinate per variable.
    """
    return [(degree, nested_count_formula(n, degree)) for degree in range(1, k + 2)]


# ---------------------------------------------------------------------------
# verification


@dataclass
class QuotientBasisReport:
    n: int
    d: int
    full_dimension: int
    lower_dimension: int
    family_size: int
    spans: bool
    independent: bool

    @property
    def count_matches(self) -> bool:
        return self.family_size == self.full_dimension - self.lower_dimension

    @property
    def passed(self) -> bool:
        return self.spans and self.independent and self.count_matches


def degree_quotient_entry(
    catalog: GeneratorCatalog, degree: int, caps: ResourceCaps | None = None
) -> QuotientBasisReport:
    """The catalog's degree-d generators induce a basis of the top-order quotient.

    One echelon of the order-(d-2) invariants of degree d takes every
    generator of the family, none skipped: the family is independent modulo
    the lower space when each generator adds a pivot.  The order-(d-1)
    invariants are given as a basis, so the two span the same space exactly
    when the echelon's rank is their dimension and it contains each of them.
    The number of generators must equal the dimension gap.
    """
    n, d = catalog.n, degree
    full = diff_homog_basis(JetContext(n, d - 1, d), caps)
    lower = diff_homog_basis(JetContext(n, d - 2, d), caps).elements if d >= 2 else []
    family = catalog.family(d)
    ech = echelon_of(p.terms for p in lower)
    pivots = [ech.insert(rec.poly.terms) for rec in family]
    return QuotientBasisReport(
        n=n,
        d=d,
        full_dimension=full.dimension,
        lower_dimension=len(lower),
        family_size=len(family),
        spans=ech.rank == full.dimension and all(ech.contains(p.terms) for p in full.elements),
        independent=None not in pivots,
    )


def verify_quotient_basis(
    n: int, d: int, caps: ResourceCaps | None = None
) -> QuotientBasisReport:
    """The nested-index generators induce a basis of the top-order quotient.

    The `degree_quotient_entry` of degree d, read from the catalog of order
    d-1.
    """
    return degree_quotient_entry(build_catalog(n, d - 1, caps), d, caps)


@dataclass
class DegreeGenerationEntry:
    degree: int
    product_count: int
    rank: int
    invariant_dimension: int
    contained: bool

    @property
    def passed(self) -> bool:
        return self.rank == self.invariant_dimension and self.contained


@dataclass
class FiniteGenerationReport:
    n: int
    k: int
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _degree_products(catalog: GeneratorCatalog, degree: int) -> list[Poly]:
    """All monomials in the catalog generators of the given total degree."""
    products: list[Poly] = []
    _extend(catalog.all_records(), 0, degree, Poly.constant(1), products)
    return products


def _extend(records: list, start: int, remaining: int, current: Poly, products: list) -> None:
    """Append current times each product of degree remaining in records[start:].

    A module function rather than a recursive closure, which would refer to
    itself through its own cell and leave a reference cycle per call.
    """
    if remaining == 0:
        products.append(current)
        return
    for idx in range(start, len(records)):
        rec = records[idx]
        if rec.degree > remaining:
            continue
        _extend(records, idx, remaining - rec.degree, current * rec.poly, products)


def degree_generation_entry(
    catalog: GeneratorCatalog, degree: int, caps: ResourceCaps | None = None
) -> DegreeGenerationEntry:
    """Compare the span of the catalog's degree-d monomials with the invariants.

    The invariants are those of degree d and order at most the catalog's k,
    in its n+1 variables.  The monomials are counted against `max_products`
    before the invariant basis or any monomial is built.
    """
    caps = caps or DEFAULT_CAPS
    # ways[t]: the generator monomials of degree t, counted before any is built
    ways = [1] + [0] * degree
    for rec in catalog.all_records():
        for t in range(rec.degree, degree + 1):
            ways[t] += ways[t - rec.degree]
    caps.check("max_products", ways[degree])
    basis = diff_homog_basis(JetContext(catalog.n, catalog.k, degree), caps)
    products = _degree_products(catalog, degree)
    return DegreeGenerationEntry(
        degree=degree,
        product_count=len(products),
        rank=span_rank(products) if products else 0,
        invariant_dimension=basis.dimension,
        contained=rank_modulo(products, basis.elements) == 0,
    )


def verify_finite_generation(
    n: int, k: int, d_max: int, caps: ResourceCaps | None = None
) -> FiniteGenerationReport:
    """Monomials in the catalog generators span every graded invariant space.

    One `degree_generation_entry` per degree up to d_max, all read from one
    catalog.
    """
    catalog = build_catalog(n, k, caps)
    entries = [degree_generation_entry(catalog, degree, caps) for degree in range(1, d_max + 1)]
    return FiniteGenerationReport(n, k, entries)


@dataclass
class MinimalityDegreeEntry:
    degree: int
    orders_exact: bool
    independent_modulo_lower: bool

    @property
    def passed(self) -> bool:
        return self.orders_exact and self.independent_modulo_lower


@dataclass
class MinimalityReport:
    n: int
    k: int
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def degree_minimality_entry(
    catalog: GeneratorCatalog, degree: int, caps: ResourceCaps | None = None
) -> MinimalityDegreeEntry:
    """No generator of the given degree (2..k+1) is a polynomial in the others.

    Products of two or more generators with degrees summing to i have every
    factor of order at most its degree minus one, hence order at most i-2;
    independence of the degree-i family modulo the order-(i-2) invariants
    then rules out any relation that lowers a generator's order.  The
    catalog's degree-i family is ranked modulo the order-(i-2) invariants of
    degree i, and its orders must be exactly i-1, with every record of the
    catalog within the order bound.
    """
    orders_bounded = all(rec.order <= rec.degree - 1 for rec in catalog.all_records())
    family = catalog.family(degree)
    lower = diff_homog_basis(JetContext(catalog.n, degree - 2, degree), caps).elements
    independent = rank_modulo([rec.poly for rec in family], lower) == len(family)
    return MinimalityDegreeEntry(
        degree=degree,
        orders_exact=orders_bounded and all(rec.order == degree - 1 for rec in family),
        independent_modulo_lower=independent,
    )


def verify_minimality(n: int, k: int, caps: ResourceCaps | None = None) -> MinimalityReport:
    """No generator is a polynomial in the others.

    One `degree_minimality_entry` per degree 2..k+1, all read from one
    catalog.
    """
    catalog = build_catalog(n, k, caps)
    entries = [degree_minimality_entry(catalog, degree, caps) for degree in range(2, k + 2)]
    return MinimalityReport(n, k, entries)
