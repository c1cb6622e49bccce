"""Partitions, tableaux, partial-symmetric ideals, and harmonic polynomials.

A partition of d is stored ascending with zero padding to exactly d parts.
Its conjugate is read off the Young diagram right-to-left inside the d-wide
bounding box, so empty column positions contribute zero parts; the prefix
sums of the conjugate count the cells in the rightmost columns.  This is the
convention under which the power-and-symmetric ideal below coincides with
the DeConcini-Procesi ideal of the balanced partition.

Two ideals in the auxiliary variables Z_1..Z_d drive everything:

  ik_presentation(d, k):  all elementary symmetric polynomials e_1..e_d
                          together with the powers Z_i^(k+1);
  dcp_presentation(mu):   the partial elementary symmetric polynomials
                          e_j(S) for subsets S with |S| = i and
                          i - d_i(mu) < j <= i  (DeConcini-Procesi).

For a polynomial Q, the operator Q(d/dZ) acts on Z-polynomials; the solution
space of an ideal is the joint kernel of its generator operators.  Because
the powers Z_i^(k+1) force per-variable degree <= k, solution spaces live in
finite coordinate boxes and all kernels and ranks are exact integer linear
algebra.  Quotient dimensions are computed independently (rank of the ideal's
image inside the box algebra), giving a second route to every ik dimension.
Both presentations check their closed-form term counts (2^d - 1 + d for
ik, up to 3^d for dcp) against `max_products` before building a term.

The solution space of ik(d, k) inside the box of bound k is the joint
kernel of its generators' operators there, and `perp_basis` solves that
one ideal only, refusing any other presentation.  The box absorbs the
powers, and Newton's identities give (e_1..e_d) = (p_1..p_d) over Q, so the
kernel is the power sums' joint kernel, which a row of p_m(d/dZ) with at
most d entries expresses where one of e_m(d/dZ) has up to C(d, m).  Under
f_a <-> Z^a the box is the tensor power of the model space and the power
sums p_m(d/dZ) are those of the shift, so the invariant tensors are the
same kernel, and `perp_basis` makes the call `tensors._box_kernels` makes
for them: the multilinear block of `jets._multidegree_kernels`, the jet
invariants' row builder.  The `jets` docstring gives its middle-degree cut
and its syzygy criterion.

The quotient route stays apart on purpose, so that a slip in the kernel
engine cannot hide in the dimension it is checked against: it keeps its
e_j rows and so gives every ik dimension a second, independent
computation; it is the one route to the dcp dimensions.  It ranks the
landing pairs degree by degree, and stops at the first degree the ideal
fills, since the box algebra is generated in degree 1.  Its rows come only
from the pairs that land: a generator term Z^q meets exactly the
monomials of the box shifted by q.  It codes the box monomials with one
bit field per exponent, under which a product is an integer addition and
a product that leaves the box is seen by one mask, and hands each
degree's rows to `rank_of` in any order.  `_kernel_dimension` counts the
kernel vectors of `perp_basis` without building its polynomials.
`apply_poly_operator` stays the plain operator on whole polynomials.  Kernel
polynomials are built with their terms already in render order.

verify_dcp_equality decides each inclusion between the two presentations
once per S_d-orbit of generators, with no membership window and without
building the dcp presentation.  The forward inclusion holds because the
e_j(Z_1..Z_d) are dcp generators and Z_1^(k+1) is their combination with
e_(k+1)(Z_2..Z_d) that the generating function prod_s (1 + Z_s t) gives,
an identity checked as an exact polynomial equality
(`_uncertified_forward`).  The backward inclusion is decided on the orbit
sums of a Young subgroup (`_orbit_members`).  The tests hold both against
bounded-degree membership windows.

Spanning ranks the derivatives of the column Vandermondes one degree at a
time, each level spanned by the first derivatives of the one above
(`_derivative_span_rank`), and tests the dcp generators' annihilation on
each Vandermonde product alone (`_annihilates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial, prod
from operator import add, mul, sub

from .errors import DiffhomError, IndexOutOfRangeError
from .linalg import Echelon, rank_of
from .polynomials import (
    Poly,
    Z_VAR,
    _coeff,
    _wrap,
    determinant,
    falling_factorial,
    mono_sort_key,
    slot_var,
    z_var,
)
from .resources import DEFAULT_CAPS, ResourceCaps
from .tensors import (
    _box_kernels,
    canonical_wronskian_exponents,
    tensor_from_multilinear,
    wronskian,
)

# ---------------------------------------------------------------------------
# partitions and tableaux


@dataclass(frozen=True)
class Partition:
    """Ascending partition of d, zero-padded to exactly d parts."""

    parts: tuple

    @staticmethod
    def of(parts) -> "Partition":
        clean = sorted(int(x) for x in parts)
        if any(x < 0 for x in clean):
            raise ValueError(f"negative part in {parts}")
        d = sum(clean)
        if d == 0:
            raise ValueError("partition of 0 not supported")
        nonzero = [x for x in clean if x]
        return Partition(tuple([0] * (d - len(nonzero)) + nonzero))

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def nonzero(self) -> tuple:
        return tuple(x for x in self.parts if x)

    def conjugate(self) -> "Partition":
        d = self.d
        return Partition(
            tuple(sum(1 for p in self.parts if p >= d + 1 - j) for j in range(1, d + 1))
        )

    def cells_in_last_columns(self, i: int) -> int:
        """Cells in the i rightmost column positions of the d-wide diagram."""
        return sum(self.conjugate().parts[:i])

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.nonzero) + ")"


def balanced_partition(d: int, k: int) -> Partition:
    """The partition of d from euclidean division by k+1.

    With d = q(k+1) + r this is q repeated (k+1-r) times followed by q+1
    repeated r times; its conjugate is r followed by q copies of k+1.
    """
    if d < 1 or k < 0:
        raise IndexOutOfRangeError(f"invalid balanced partition d={d} k={k}")
    q, r = divmod(d, k + 1)
    return Partition.of((q,) * (k + 1 - r) + (q + 1,) * r)


@dataclass(frozen=True)
class YoungTableau:
    """A filling of a diagram; rows are top-to-bottom, shortest row first."""

    shape: Partition
    rows: tuple

    @staticmethod
    def of(shape: Partition, rows) -> "YoungTableau":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        lens = tuple(len(r) for r in rows)
        if lens != shape.nonzero:
            raise ValueError(f"row lengths {lens} do not match shape {shape}")
        return YoungTableau(shape, rows)

    def entries(self) -> list:
        return [x for row in self.rows for x in row]

    def is_injective(self) -> bool:
        seen = self.entries()
        return len(set(seen)) == len(seen) and all(1 <= x <= self.shape.d for x in seen)

    def columns(self) -> list:
        """Column entries read bottom-to-top (longest row first)."""
        width = max((len(r) for r in self.rows), default=0)
        cols = []
        for c in range(width):
            cols.append(tuple(row[c] for row in reversed(self.rows) if len(row) > c))
        return cols

    def is_standard(self) -> bool:
        if not self.is_injective():
            return False
        for row in self.rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
        for col in self.columns():
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                return False
        return True


def enum_standard_tableaux(
    mu: Partition, caps: ResourceCaps | None = None
) -> list[YoungTableau]:
    """All standard fillings of the diagram, by deterministic backtracking.

    A cell can receive the next value once its left neighbour and the cell
    below it (rows grow downwards) are filled, which enforces increasing
    rows and bottom-to-top increasing columns.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_enumeration", factorial(mu.d))
    found: list[YoungTableau] = []
    _place(mu, [[0] * length for length in mu.nonzero], 1, found)
    return found


def _place(mu: Partition, grid: list, value: int, found: list) -> None:
    """Fill value and every later one into grid in each admissible way.

    A module function rather than a recursive closure, which would refer to
    itself through its own cell and leave a reference cycle per call.
    """
    if value > mu.d:
        found.append(YoungTableau.of(mu, tuple(tuple(row) for row in grid)))
        return
    for i, row in enumerate(grid):
        for c in range(len(row)):
            if row[c]:
                continue
            if c > 0 and not row[c - 1]:
                continue
            if i + 1 < len(grid) and not grid[i + 1][c]:
                continue
            row[c] = value
            _place(mu, grid, value + 1, found)
            row[c] = 0


def tableau_vandermonde(tableau: YoungTableau) -> Poly:
    """Product over columns of the Vandermonde determinant in the column's Z's.

    A column with m entries (read bottom-to-top) contributes the m x m
    determinant with rows (1, Z_e, ..., Z_e^(m-1)); an empty column
    contributes 1.
    """
    result = Poly.constant(1)
    for col in tableau.columns():
        m = len(col)
        matrix = [
            [Poly.variable(z_var(e)) ** p for p in range(m)]
            for e in col
        ]
        result = result * determinant(matrix)
    return result


# ---------------------------------------------------------------------------
# ideals


def elementary_symmetric(var_indices, j: int) -> Poly:
    """The j-th elementary symmetric polynomial in the given Z variables."""
    factors = [(z_var(i), 1) for i in sorted(set(var_indices))]
    return Poly({monomial: 1 for monomial in combinations(factors, j)})


@dataclass(frozen=True)
class IdealPresentation:
    nvars: int
    generators: tuple
    label: str


def ik_presentation(d: int, k: int, caps: ResourceCaps | None = None) -> IdealPresentation:
    """Full elementary symmetric polynomials plus the (k+1)-st powers.

    Its 2^d - 1 + d terms are checked against `max_products` before any is
    built.
    """
    (caps or DEFAULT_CAPS).check("max_products", 2**d - 1 + d)
    gens = [elementary_symmetric(range(1, d + 1), j) for j in range(1, d + 1)]
    gens += [Poly.monomial([(z_var(i), k + 1)]) for i in range(1, d + 1)]
    return IdealPresentation(d, tuple(gens), f"ik(d={d},k={k})")


def dcp_presentation(mu: Partition, caps: ResourceCaps | None = None) -> IdealPresentation:
    """Partial elementary symmetric polynomials selected by the partition.

    Its terms, C(i, j) for each of the C(d, i) subsets of size i and each
    selected j, are counted and checked against `max_products` before any
    is built.
    """
    d = mu.d
    lows = _dcp_lows(mu)
    (caps or DEFAULT_CAPS).check(
        "max_products",
        sum(comb(d, i) * comb(i, j) for i, lo in enumerate(lows, 1) for j in range(lo, i + 1)),
    )
    gens = []
    for i, lo in enumerate(lows, 1):
        for subset in combinations(range(1, d + 1), i):
            for j in range(lo, i + 1):
                gens.append(elementary_symmetric(subset, j))
    return IdealPresentation(d, tuple(gens), f"dcp{mu}")


def _dcp_lows(mu: Partition) -> list:
    """For i = 1..d, the least j with e_j(S), |S| = i, a dcp generator (none when above i)."""
    return [max(1, i - mu.cells_in_last_columns(i) + 1) for i in range(1, mu.d + 1)]


def _z_exponents(p: Poly, d: int) -> list:
    """Terms of a Z-polynomial as (exponent tuple, coefficient) pairs.

    Integral coefficients come out as int, so the operator and product rows
    built from them stay in integer arithmetic.
    """
    out = []
    for mono, c in p.terms.items():
        exp = [0] * d
        for v, e in mono:
            if v.family != Z_VAR or not 1 <= v.i <= d:
                raise IndexOutOfRangeError(f"{v.render()} is not Z_1..Z_{d}")
            exp[v.i - 1] = e
        out.append((tuple(exp), _coeff(c)))
    return out


def _derivative(exp: tuple, terms) -> dict:
    """Apply the operator sum c*(d/dZ)^q over terms (q, c) to the monomial Z^exp."""
    out = {}
    for qexp, qc in terms:
        if any(e < q for e, q in zip(exp, qexp)):
            continue
        coeff = qc
        for e, q in zip(exp, qexp):
            if q:
                coeff *= falling_factorial(e, q)
        out[tuple(e - q for e, q in zip(exp, qexp))] = coeff
    return out


def _z_monomial(exp: tuple) -> tuple:
    return tuple(sorted((z_var(i + 1), e) for i, e in enumerate(exp) if e))


def apply_poly_operator(q: Poly, p: Poly) -> Poly:
    """Apply the differential operator of q (Z_i -> d/dZ_i) to p."""
    d = 0
    for v in q.variables() | p.variables():
        d = max(d, v.i)
    result: dict = {}
    q_terms = _z_exponents(q, d)
    for pexp, pc in _z_exponents(p, d):
        for out, coeff in _derivative(pexp, q_terms).items():
            mono = _z_monomial(out)
            s = result.get(mono, 0) + pc * coeff
            if s:
                result[mono] = s
            else:
                result.pop(mono, None)
    return Poly(result)


def perp_basis(
    presentation: IdealPresentation, box_bound: int, caps: ResourceCaps | None = None
) -> list[Poly]:
    """Joint polynomial kernel of ik(d, k) in the box of bound k.

    presentation must equal ik_presentation(d, box_bound), d its number of
    variables, as a whole: label, generators and their order.  Any other is
    refused with a one-line `DiffhomError` before any kernel row is built.
    The box of per-variable degree <= k absorbs the powers Z_i^(k+1), so
    the kernel is that of e_1(d/dZ)..e_d(d/dZ) on the box, returned as
    polynomials, echelon-ordered over the box monomials in (total degree,
    exponent tuple) order.

    Newton's identities over Q give (e_1..e_d) = (p_1..p_d), and p_m(d/dZ)
    with m > k is zero on the box, so the kernel is the joint kernel of the
    power sums p_1..p_min(d, k): one call of `tensors._box_kernels(k, d)`,
    whose p_m row has at most d entries where an e_m row has up to C(d, m).
    The `max_box` cap sees the whole box.  The tests hold the result against
    the kernel of every generator applied to every box monomial.
    """
    caps = caps or DEFAULT_CAPS
    d = presentation.nvars
    caps.check("max_box", (box_bound + 1) ** d)
    if presentation != ik_presentation(d, box_bound, caps):
        raise DiffhomError(
            f"perp_basis solves ik(d,k) in the box of bound k only, "
            f"not {presentation.label} at bound {box_bound}"
        )
    basis: list[Poly] = []
    for columns, kernel in _box_kernels(box_bound, d):
        basis += _kernel_polys(columns, kernel)
    return basis


def _kernel_dimension(d: int, k: int, caps: ResourceCaps | None = None) -> int:
    """len(perp_basis(ik_presentation(d, k), k)), without building a polynomial.

    The caps are those of `perp_basis`, in its order: `max_box`, then the
    2^d - 1 + d terms of ik(d, k) against `max_products`.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_box", (k + 1) ** d)
    caps.check("max_products", 2**d - 1 + d)
    return sum(len(kernel) for _, kernel in _box_kernels(k, d))


def _kernel_polys(columns: list, kernel: list) -> list[Poly]:
    """Kernel vectors over the exponent-tuple columns, as polynomials.

    The columns are ranked once in render order, so each polynomial is built
    with its terms already in the order `Poly.render` prints them.
    """
    zs = [z_var(i + 1) for i in range(len(columns[0]) if columns else 0)]
    # Z_1 < Z_2 < ... in the variable order, so each monomial comes out sorted
    monos = [tuple([(z, e) for z, e in zip(zs, b) if e]) for b in columns]
    order = sorted(range(len(monos)), key=lambda ci: mono_sort_key(monos[ci]))
    rank = {ci: position for position, ci in enumerate(order)}
    return [
        _wrap({monos[ci]: vec[ci] for ci in sorted(vec, key=rank.__getitem__)})
        for vec in kernel
    ]


def _box_quotient_dimension(
    generators, d: int, box_bound: int, caps: ResourceCaps
) -> int:
    """Dimension of (box algebra)/(ideal image), by exact rank, degree by degree.

    Monomials with any exponent above the bound are discarded during
    multiplication, i.e. the computation happens modulo the pure powers
    Z_i^(box_bound+1); the ideal must contain those powers for the answer
    to equal the dimension of the full quotient ring.

    The generators must be homogeneous, or DiffhomError is raised before
    any row is built.  The rows m*g are then homogeneous, so the rank
    splits by degree: degree t is ranked from the multipliers of degree
    t - deg g alone, over the box monomials of degree t.  The box algebra
    B is generated in degree 1, so once the ideal's image fills a degree t
    it fills every later one, I_(t+1) >= sum_i Z_i*I_t = B_(t+1): the
    degrees are ranked in increasing order, and none is built after the
    first whose rank equals its column count.

    A box monomial Z^m is the column of its code sum m_i (2h)^(d-1-i), h
    the least power of two above box_bound: one field of 2h values per
    exponent, so a sum of two box exponents never carries out of its field
    and code(m+e) = code(m) + code(e).  A generator term c*Z^e with every
    e_i <= box_bound lands from the multiplier m exactly when every
    m_i + e_i <= box_bound, that is when no field of code(m) + code(e) +
    offset reaches h, offset holding h - 1 - box_bound in each field: one
    addition and one mask per (multiplier, term).  A term with an exponent
    above the bound never lands.  The row of m*g holds c at code(m) +
    code(e) for its landing terms, and the rows of a degree go to `rank_of`
    in any order.  Before a degree's rows are built, their number, the
    multipliers of degree t - deg g summed over the generators g, is checked
    against `max_products`.  The callers check `max_box` before they build
    the generators.
    """
    half = 1 << box_bound.bit_length()
    place = [(2 * half) ** (d - 1 - i) for i in range(d)]
    offset, high = (half - 1 - box_bound) * sum(place), half * sum(place)
    gens = []
    for g in generators:
        degree = g.total_degree()
        if not g.is_homogeneous(degree):
            raise DiffhomError(f"box quotient: generator {g.render()} is not homogeneous")
        codes = [(sum(map(mul, e, place)), c) for e, c in _z_exponents(g, d) if max(e) <= box_bound]
        gens.append((degree, [(code, code + offset, c) for code, c in codes]))
    multipliers: list = []
    dimension = 0
    for t in range(d * box_bound + 1):
        multipliers.append(_box_degree(t, d, box_bound, place))
        caps.check(
            "max_products", sum(len(multipliers[t - degree]) for degree, _ in gens if degree <= t)
        )
        rows = [
            row
            for degree, terms in gens
            if degree <= t
            for m in multipliers[t - degree]
            if (row := {m + code: c for code, shifted, c in terms if not (m + shifted) & high})
        ]
        rank = rank_of(rows)
        dimension += len(multipliers[t]) - rank
        if rank == len(multipliers[t]):
            break
    return dimension


def _box_degree(s: int, d: int, bound: int, place: list) -> list:
    """Codes sum m_i*place[i] of the exponent tuples m in {0..bound}^d with sum s.

    Coordinates are fixed one at a time, each within what the later ones
    can still absorb, so every partial tuple is completed and none is
    discarded.
    """
    partial = [(0, s)]  # (code so far, degree still to place)
    for i, p in enumerate(place):
        room = (d - 1 - i) * bound
        partial = [
            (code + j * p, left - j)
            for code, left in partial
            for j in range(max(0, left - room), min(bound, left) + 1)
        ]
    return [code for code, _ in partial]


def quotient_dimension(d: int, k: int, caps: ResourceCaps | None = None) -> int:
    """dim of the box algebra modulo the elementary symmetric image.

    Independent counterpart of perp_basis: the two must agree for any
    zero-dimensional ideal, here the symmetric-plus-powers ideal.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_box", (k + 1) ** d)
    gens = ik_presentation(d, k, caps).generators[:d]
    return _box_quotient_dimension(gens, d, k, caps)


def dcp_quotient_dimension(mu: Partition, caps: ResourceCaps | None = None) -> int:
    """Quotient dimension for a partial-symmetric ideal, box bound d-1.

    Valid because Z_i^d always lies in the ideal (it contains all full
    elementary symmetric polynomials, and Z_i^d reduces against them).
    """
    caps = caps or DEFAULT_CAPS
    mu = mu if isinstance(mu, Partition) else Partition.of(mu)
    caps.check("max_box", mu.d**mu.d)
    return _box_quotient_dimension(dcp_presentation(mu, caps).generators, mu.d, mu.d - 1, caps)


def closed_form_dimension(d: int, k: int) -> int:
    """d! / ((q!)^(k+1-r) ((q+1)!)^r) with d = q(k+1) + r."""
    q, r = divmod(d, k + 1)
    return factorial(d) // (factorial(q) ** (k + 1 - r) * factorial(q + 1) ** r)


# ---------------------------------------------------------------------------
# the two-presentation equality


@dataclass
class DcpEqualityReport:
    d: int
    k: int
    degree_cap: int
    uncertified_forward: list   # ik generators not certified in the dcp ideal
    uncertified_backward: list  # dcp generators not certified in the ik ideal

    @property
    def passed(self) -> bool:
        return not self.uncertified_forward and not self.uncertified_backward


def verify_dcp_equality(
    d: int, k: int, degree_cap: int | None = None, caps: ResourceCaps | None = None
) -> DcpEqualityReport:
    """Certify both inclusions between the two ideal presentations.

    Each generator of either presentation is tested for bounded-degree
    membership in the other ideal; uncertified generators are reported by
    their canonical rendering, in generator order.  Both ideals are
    homogeneous, so a generator of degree j is certified within the cap
    exactly when j <= cap and it lies in the other ideal; both are
    S_d-stable, so a generator shares the verdict of its S_d-orbit.  Each
    direction decides one verdict per orbit, and neither builds a
    membership window or `dcp_presentation`:

    - forward (`_uncertified_forward`): e_j(Z_1..Z_d) is itself a dcp
      generator, and Z_1^(k+1) is the dcp combination that one identity
      gives, checked as an exact polynomial equality;
    - backward (`_uncertified_backward`): e_j(S) lies in ik exactly when
      e_j(1..i) does, i = |S|, which `_orbit_members` decides on orbit sums.

    The ik presentation's term count is checked against `max_products`
    first, as `ik_presentation` builds it.  Only the dcp generators of a
    failing orbit are built, to be rendered, so the C(d, i) subsets are
    enumerated only for reports that list them, and their terms, C(d, i) *
    C(i, j) for each failing (i, j), are checked against `max_products`
    before any is built.
    """
    caps = caps or DEFAULT_CAPS
    if degree_cap is None:
        degree_cap = d * (k + 1)
    forward = _uncertified_forward(ik_presentation(d, k, caps), k, degree_cap)
    backward = _uncertified_backward(d, k, degree_cap, caps)
    return DcpEqualityReport(d, k, degree_cap, forward, backward)


def _uncertified_forward(ik: IdealPresentation, k: int, degree_cap: int) -> list:
    """The renderings of the ik generators not certified in dcp, in generator order.

    e_j(Z_1..Z_d) is the dcp generator of S = {1..d} when lo_d <= j
    (`_dcp_lows`; lo_d = 1), so it is certified exactly when lo_d <= j <=
    cap.  The powers Z_s^m, m = k+1, share the verdict of Z_1^m.  Dividing
    prod_s (1 + Z_s t) by 1 + Z_1 t and reading the coefficient of t^m gives

        (-Z_1)^m = e_m(Z_2..Z_d) - sum_(a<m) e_(m-a)(Z_1..Z_d) * (-Z_1)^a,

    with e_j = 0 above its number of variables, so every term has degree
    m.  Z_1^m is certified when m <= cap, when `_dcp_lows` selects every
    element the identity uses (each e_(m-a) at i = d, the least being e_1,
    and e_m(Z_2..Z_d) at i = d-1 when m <= d-1; for m >= d that term is
    zero), and when the identity holds as an exact `Poly` equality.  The
    e_j(Z_1..Z_d) are the ik generators themselves, so e_m(Z_2..Z_d) is
    the one polynomial built.  An uncertified power is not disproved; the
    tests hold the report equal to bounded-degree membership windows.
    """
    d, m = ik.nvars, k + 1
    lows = _dcp_lows(balanced_partition(d, k))
    certified = m <= degree_cap and lows[d - 1] <= 1 and (m >= d or lows[d - 2] <= m)
    if certified:
        minus_z1 = -Poly.variable(z_var(1))
        rest = elementary_symmetric(range(2, d + 1), m) if m < d else Poly.zero()
        for a in range(max(0, m - d), m):
            rest = rest - ik.generators[m - a - 1] * minus_z1**a
        certified = rest == minus_z1**m
    verdicts = [lows[d - 1] <= j <= degree_cap for j in range(1, d + 1)] + [certified] * d
    return [g.render() for g, ok in zip(ik.generators, verdicts) if not ok]


def _uncertified_backward(d: int, k: int, degree_cap: int, caps: ResourceCaps) -> list:
    """The renderings of the dcp generators not certified in ik, in generator order.

    The terms of the failing generators are checked against `max_products`
    before any is built.
    """
    failing = []
    for i, lo in enumerate(_dcp_lows(balanced_partition(d, k)), 1):
        degrees = range(lo, min(i, degree_cap) + 1)
        js = [j for j, member in zip(degrees, _orbit_members(d, k, i, degrees)) if not member]
        failing.append((i, js + list(range(max(lo, degree_cap + 1), i + 1))))
    caps.check("max_products", sum(comb(d, i) * comb(i, j) for i, js in failing for j in js))
    return [
        elementary_symmetric(subset, j).render()
        for i, js in failing
        if js
        for subset in combinations(range(1, d + 1), i)
        for j in js
    ]


def _orbit_members(d: int, k: int, i: int, degrees) -> list:
    """For each j in degrees, whether e_j(Z_1..Z_i) lies in ik(d, k), on orbit sums.

    ik contains every Z_s^(k+1), so membership is decided in the box
    algebra B = Q[Z]/(Z_s^(k+1)), where the ideal's degree-j part is
    spanned by the box multiples m*e_l, deg m = j - l.  For k = 0 the
    target has an exponent above the box: it is zero in B, a member.  For
    i = d the target is the generator e_j.

    The target is fixed by G = S_i x S_(d-i), and the ideal is G-stable,
    so the target lies in it exactly when it lies in the image of the
    Reynolds operator of G, which commutes with multiplication by the
    symmetric e_l: that image is spanned by the products e_l*O(m) with the
    G-orbit sums O(m) of the box monomials.  An orbit is a pair of
    non-increasing tuples of entries <= k, held as the multiplicities
    (n_0..n_k) of each value in each block (`_orbits`); the columns are the
    orbits of degree j, and the target is the one column of
    (1^j 0^(i-j), 0^(d-i)).  e_l*O(m) raises l positions by one, y_v of
    the value-v positions of each block (v < k).  The product is the sum,
    over the y, of the orbit sum of the result, with the number of ways to
    reach one of its monomials as coefficient: the product over the blocks
    and the values v >= 1 of C(n''_v, y_(v-1)), n'' the result's
    multiplicities.  Distinct y give distinct results.  The orbits and
    raisings of each block are built once for all the degrees.
    """
    if k == 0 or i == d:
        return [True] * len(degrees)
    orbits: dict = {}
    raisings: dict = {}

    def orbits_of(n, s):
        if (n, s) not in orbits:
            orbits[n, s] = _orbits(n, k, s)
        return orbits[n, s]

    def raised(counts):
        """{positions raised: [(result multiplicities, coefficient)]} over every y."""
        if counts not in raisings:
            out = raisings[counts] = {}
            for y in product(*(range(c + 1) for c in counts[:k])):
                result = tuple(map(add, map(sub, counts, y + (0,)), (0,) + y))
                out.setdefault(sum(y), []).append((result, prod(map(comb, result[1:], y))))
        return raisings[counts]

    members = []
    for j in degrees:
        ech = Echelon()
        for s in range(max(0, j - d), j):
            for first in range(s + 1):
                for c1 in orbits_of(i, first):
                    for c2 in orbits_of(d - i, s - first):
                        second = raised(c2)
                        ech.insert({
                            (t1, t2): x1 * x2
                            for a1, results in raised(c1).items()
                            for t1, x1 in results
                            for t2, x2 in second.get(j - s - a1, ())
                        })
        members.append(ech.contains({((i - j, j) + (0,) * (k - 1), (d - i,) + (0,) * k): 1}))
    return members


def _orbits(n: int, k: int, s: int) -> list:
    """The multiplicities (n_0..n_k) of the values 0..k in each non-increasing n-tuple of sum s."""
    partial = [((), n, s)]  # (multiplicities of k, k-1, ..., positions left, degree left)
    for v in range(k, 0, -1):
        partial = [
            (counts + (m,), left - m, rest - m * v)
            for counts, left, rest in partial
            for m in range(min(left, rest // v) + 1)
        ]
    return [(left,) + counts[::-1] for counts, left, rest in partial if rest == 0]


# ---------------------------------------------------------------------------
# spanning and block surjectivity


def matching_order(mu: Partition) -> int | None:
    """The truncation order k whose balanced partition equals mu, if any."""
    for k in range(mu.d):
        if balanced_partition(mu.d, k) == mu:
            return k
    return None


@dataclass
class SpanningReport:
    partition: Partition
    tableau_count: int
    annihilated: bool
    rank: int
    expected_dimension: int
    route: str

    @property
    def passed(self) -> bool:
        return self.annihilated and self.rank == self.expected_dimension


def verify_spanning(mu, caps: ResourceCaps | None = None) -> SpanningReport:
    """Check that derivatives of the column Vandermondes span the solutions.

    Compares the dimension of the span of every derivative of every
    standard tableau's Vandermonde product Delta_T with the solution-space
    dimension (counted by the operator-kernel route when the partition is
    balanced, by the quotient route otherwise), and tests that every
    generator of dcp_presentation(mu) annihilates every Delta_T.

    The span is ranked level by level (`_derivative_span_rank`), and the
    annihilation is tested on each Delta_T alone (`_annihilates`): the
    operators commute with every d/dZ_i, so a generator that kills Delta_T
    kills all its derivatives.

    Caps are checked before the work they guard: first those of the
    expected dimension's route, which runs first.  Then, before any
    Vandermonde is built, `max_products` against the rows the levels take
    when the claim holds: one per tableau at the top, and d per basis row
    of each level above the others, at most d times the dimension
    d!/prod(mu_i!) in all.  Then each level's own row count before it is
    built, so a false claim cannot run past the cap.
    """
    caps = caps or DEFAULT_CAPS
    mu = mu if isinstance(mu, Partition) else Partition.of(mu)
    d = mu.d
    k = matching_order(mu)
    if k is not None:
        expected, route = _kernel_dimension(d, k, caps), f"kernel(k={k})"
    else:
        expected, route = dcp_quotient_dimension(mu, caps), "quotient"
    tableaux = enum_standard_tableaux(mu, caps)
    presentation = dcp_presentation(mu, caps)
    caps.check(
        "max_products",
        len(tableaux) + d * factorial(d) // prod(factorial(part) for part in mu.nonzero),
    )
    deltas = [_z_exponents(tableau_vandermonde(t), d) for t in tableaux]
    annihilated = _annihilates(presentation, deltas)
    rank = _derivative_span_rank(deltas, d, caps)
    return SpanningReport(mu, len(tableaux), annihilated, rank, expected, route)


def _derivative_span_rank(deltas: list, d: int, caps: ResourceCaps) -> int:
    """Dimension of the span of every derivative of the products, level by level.

    deltas lists the products as (exponent tuple, coefficient) terms, all
    of one degree, with every exponent below d.  The span is graded by
    degree, and its part V_(t-1) one degree down is spanned by the first
    derivatives of a basis of V_t, since every derivative of degree t-1 is
    d/dZ_i of one of degree t (Macaulay's inverse systems).  So V_top is
    the span of the products, each level is one `Echelon`, the next level
    takes d/dZ_i of each row of the level that added a pivot (a basis of
    its span), and the rank is the sum of the levels' ranks.  A monomial
    is the integer code sum e_i*d^(d-1-i), so d/dZ_i of a row is one pass
    over its codes: the exponent e_i is the digit (code // d^(d-1-i)) % d,
    and Z^e goes to e_i*Z^(e-e_i) at code minus d^(d-1-i), distinct codes
    staying distinct.  `max_products` is checked against each level's
    d*rank rows before they are built.
    """
    place = [d ** (d - 1 - i) for i in range(d)]
    level = [{sum(map(mul, exp, place)): c for exp, c in delta} for delta in deltas]
    rank = 0
    while level:
        ech = Echelon()
        basis = [row for row in level if ech.insert(row) is not None]
        rank += len(basis)
        caps.check("max_products", d * len(basis))
        level = [
            row
            for b in basis
            for p in place
            if (row := {code - p: c * e for code, c in b.items() if (e := code // p % d)})
        ]
    return rank


def _annihilates(presentation: IdealPresentation, deltas: list) -> bool:
    """Whether every generator's operator kills every product.

    Every dcp generator is squarefree, so g(d/dZ) Delta = sum c_q
    (d/dZ)^q Delta over squarefree q, and (d/dZ)^q Delta is nonzero only
    for a q inside the support of one of Delta's terms.  So each term
    Z^e of Delta adds prod_(i in q) e_i * Z^(e-q) to the image of each
    subset q of its support, built once per product, and each generator
    sums the images of its terms; a q that lies in no support adds
    nothing.  A generator term that is not squarefree raises
    DiffhomError.  Subsets are bit masks, and monomials the integer codes
    of `_derivative_span_rank` (every exponent of a product is below d).
    """
    d = presentation.nvars
    gens = []
    for g in presentation.generators:
        terms = _z_exponents(g, d)
        if any(max(q, default=0) > 1 for q, _ in terms):
            raise DiffhomError(f"{presentation.label}: generator {g.render()} is not squarefree")
        gens.append([(sum(1 << i for i, e in enumerate(q) if e), c) for q, c in terms])
    place = [d ** (d - 1 - i) for i in range(d)]
    for delta in deltas:
        images: dict = {}
        for exp, c in delta:
            subsets = [(0, c, sum(map(mul, exp, place)))]
            for i, e in enumerate(exp):
                if e:
                    bit, p = 1 << i, place[i]
                    subsets += [(mask | bit, value * e, out - p) for mask, value, out in subsets]
            for mask, value, out in subsets:
                images.setdefault(mask, {})[out] = value
        for terms in gens:
            image: dict = {}
            for mask, qc in terms:
                for out, value in images.get(mask, {}).items():
                    image[out] = image.get(out, 0) + qc * value
            if any(image.values()):
                return False
    return True


def _equal_blocks(elements: tuple, size: int):
    """Unordered partitions of the elements into blocks of the given size."""
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for others in combinations(rest, size - 1):
        block = (first,) + others
        remaining = tuple(x for x in rest if x not in others)
        for tail in _equal_blocks(remaining, size):
            yield (block,) + tail


def _block_product(blocks, alphas) -> Poly:
    """Product of slot-relabelled Wronskians over disjoint slot blocks."""
    result = Poly.constant(1)
    for block, alpha in zip(blocks, alphas):
        w = wronskian(alpha)
        mapping = {}
        for v in w.variables():
            mapping[v] = Poly.variable(slot_var(block[v.i - 1], v.j))
        result = result * w.substitute(mapping)
    return result


@dataclass
class BlockSurjectivityReport:
    d: int
    k: int
    partition_count: int
    rank: int
    expected_dimension: int

    @property
    def passed(self) -> bool:
        return self.rank == self.expected_dimension


def verify_block_surjectivity(
    d: int, k: int, caps: ResourceCaps | None = None
) -> BlockSurjectivityReport:
    """Products of block invariants span the whole invariant space.

    The slots 1..d are partitioned into q blocks of size k+1 and one block
    of size r (d = q(k+1) + r; when r = 0 it is empty, with Wronskian 1);
    each block carries its canonical Wronskian basis, and all products over
    all unordered partitions are collected.
    Reordering within a block only changes basis, and permuting equal-size
    blocks fixes the product, so the products over all d! orderings of the
    slots are this same family: a shortfall in rank is final.  It has d!/q!
    members, the slot orderings up to the order of the q equal blocks, and
    that number is checked against `max_products` before any is built.
    """
    caps = caps or DEFAULT_CAPS
    if d < k + 1:
        raise IndexOutOfRangeError(f"need d >= k+1, got d={d} k={k}")
    caps.check("max_products", factorial(d) // factorial(d // (k + 1)))
    r = d % (k + 1)
    slots = tuple(range(1, d + 1))

    partitions = []
    for small in combinations(slots, r):
        remaining = tuple(x for x in slots if x not in small)
        for big_blocks in _equal_blocks(remaining, k + 1):
            partitions.append(big_blocks + (small,))

    family = [
        _block_product(blocks, alphas)
        for blocks in partitions
        for alphas in product(*(canonical_wronskian_exponents(len(b)) for b in blocks))
    ]
    rank = rank_of(tensor_from_multilinear(p, d, k).coords for p in family)
    expected = quotient_dimension(d, k, caps)
    return BlockSurjectivityReport(d, k, len(partitions), rank, expected)
