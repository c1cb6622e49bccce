"""Truncated formal series acting on jet polynomials, and the invariant spaces.

An invertible series a(T) = l0 + l1 T + l2 T^2 + ... acts on a polynomial in
the jet variables X_i^(j) by substituting each X_i^(j) with the order-j
Leibniz expansion of (a X_i) and evaluating at T = 0.  A polynomial P of
degree d is differentially homogeneous when the action returns l0^d P for
every invertible series; since only the coefficients l0..lk act on order-k
polynomials, quasi-invariance is a polynomial identity in finitely many
series coefficients.  `act_series` and `is_diff_homogeneous` test it exactly
by substitution; they are the group-level oracle.

The invariant spaces are computed from the Lie algebra instead.  The series
group is the scalars l0 times the unipotent group of series with l0 = 1.
The scalars act on a degree-d polynomial by l0^d, so homogeneity takes care
of them.  The unipotent group is connected, so in characteristic 0 a
polynomial is invariant under it exactly when its Lie algebra kills it (the
infinitesimal invariance criterion).  Differentiating the action at the
identity in the direction of l_m gives the derivations

    E_m = sum_i sum_{j >= m} j!/(j-m)! X_i^(j-m) d/dX_i^(j),   m = 1..k,

so the invariant space in degree d is the joint kernel of E_1..E_k on the
degree-d monomials.  E_m lowers the total derivation weight of a monomial
(the sum of its orders j) by exactly m, so the system splits into
independent blocks of equal weight, and the images under different E_m
never share a monomial.

Only the blocks up to the middle weight dk/2 are solved, because no
invariant lies above it.  E_1 acts on the span of X_i^(0..k) as the
principal nilpotent X_i^(j) -> j X_i^(j-1), so by Jacobson-Morozov it is the
lowering element f of an sl2-triple (e, h, f) there, with h X_i^(j) =
(2j - k) X_i^(j).  Acting by derivations on the degree-d polynomials, f is
E_1 and h has eigenvalue 2w - dk on weight block w.  In a finite-dimensional
sl2-module f is injective on the eigenspaces of h with positive eigenvalue,
so E_1 kills nothing in a block above dk/2.  (This is the symmetry behind
Stanley's hard-Lefschetz proof of the Sperner property of
C[Z]/(Z_i^(k+1)).)  The rows of a block read only lower blocks, so the
blocks that are kept are solved exactly as before.

Series multiply commutatively, and so do the E_m: E_l E_m and E_m E_l both
send X_i^(j) to j!/(j-m-l)! X_i^(j-m-l), and a commutator of derivations
that vanishes on the variables vanishes.  So their transposes commute too,
which is what the syzygy criterion of `linalg.graded_rows` needs: the
rows of a weight block are taken operator by operator, E_1 first, and the
row of E_m at a monomial mu is skipped when mu is the smallest key of a
kept row of E_1..E_(m-1) in mu's own block.  The kept rows span every row,
so the kernel and its canonical basis are unchanged, and so is the rank:
a block's kernel has its column count minus that rank.

Each E_m also keeps the multidegree alpha, the number of factors in each
X_i, and commutes with every permutation of X_0..X_N.  So a weight block
splits into one block per alpha, and the kernel on a permuted alpha is the
permuted kernel: only the non-increasing multidegrees, one per partition of
d into at most N+1 parts, are solved.  Rows never mix multidegrees, so a
weight block's RREF is the union of its per-alpha RREFs, and the canonical
kernel vector of a free column lies in that column's own alpha.  That vector
is the one whose largest monomial is the free column and which vanishes on
every other free column, so a relabelled kernel is made canonical again by
an RREF keyed by descending monomial.  A dimension needs neither the
relabelling nor a kernel vector: it is the sum over the non-increasing beta
of |orbit(beta)| times the nullity of beta's blocks, each block's column
count minus its rank (`_invariant_dimension`).  For (N,k,d) = (2,3,4) the 4
non-increasing multidegrees have 217 of the 789 columns up to weight 6 and
324 rows, 130 of them dependent; the criterion keeps 249, and 55 of those
are still dependent.  Solving all 15 multidegrees kept 896 of 1,185 rows,
188 of them dependent; over all 13 weight blocks there would be 3,459
rows, 2,175 of them dependent.

The tensor picture is the polarization of this one.  The degree-d
polynomials in X_0..X_N are Sym^d(C^(N+1) (x) F_k), F_k spanned by the
orders 0..k, and a derivation acts on a product factor by factor.  On one
factor E_m is J^m, J the shift X_i^(j) -> j X_i^(j-1), so E_m acts as the
power sum p_m(J_1..J_d) = sum_s J_s^m of the shifts J_s of the d factors.
The J_s commute, and by Newton's identities p_m with m > d lies in
Q[p_1..p_d], so E_1..E_min(k,d) have the joint kernel of E_1..E_k and only
they give rows.  At N + 1 = d the block of multidegree (1,...,1) is
multilinear, and with X_s^(a) read as f_a in slot s it is the box
{0..k}^d of `tensors`: the invariant tensors are the jet invariants of that
multidegree, and `tensors._box_kernels` and `tensors._box_dimension` read
their basis and their dimension off `_multidegree_rows`, the library's one
builder of E_m rows.  A column of a block is a sorted
tuple of variable indices, looked up by the mixed-radix code of its
exponent vector, the exponent of X_i^(j) having base beta_i + 1 in
multidegree beta; raising X_i^(j) to X_i^(j+m) then adds to the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import itemgetter
from typing import Iterator

from .errors import IndexOutOfRangeError, UnsupportedVariableError
from .linalg import Echelon, graded_rows, nullspace, rank_of
from .polynomials import JET_X, Poly, VarId, _wrap, compositions, jet_var, series_coeff
from .resources import DEFAULT_CAPS, ResourceCaps


@dataclass(frozen=True)
class JetContext:
    """Ambient data: jet variables X_i^(j) for 0 <= i <= n, 0 <= j <= k."""

    n: int
    k: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.d < 0:
            raise IndexOutOfRangeError(f"invalid context n={self.n} k={self.k} d={self.d}")

    def variables(self) -> list[VarId]:
        return [jet_var(i, j) for i in range(self.n + 1) for j in range(self.k + 1)]


def leibniz_image(i: int, j: int, ctx: JetContext) -> Poly:
    """Order-j Leibniz expansion of a series times X_i, at T = 0.

    (a X_i)^(j)|_{T=0} = sum_{s=0..j} C(j,s) (j-s)! l_{j-s} X_i^(s).
    """
    if not (0 <= i <= ctx.n and 0 <= j <= ctx.k):
        raise IndexOutOfRangeError(f"X{i}^({j}) outside context n={ctx.n} k={ctx.k}")
    terms = {}
    for s in range(j + 1):
        mono = tuple(sorted(((series_coeff(j - s), 1), (jet_var(i, s), 1))))
        terms[mono] = comb(j, s) * factorial(j - s)
    return Poly(terms)


def act_series(p: Poly, ctx: JetContext) -> Poly:
    """Apply the symbolic series action to a jet polynomial.

    The result lives in the jet variables and the series coefficients
    l0..lk; specializing l0 = 1 and l_m = 0 for m > 0 recovers p.
    """
    mapping = {}
    for v in p.variables():
        if v.family != JET_X:
            raise UnsupportedVariableError(f"cannot act on {v.render()}")
        mapping[v] = leibniz_image(v.i, v.j, ctx)
    return p.substitute(mapping)


def is_diff_homogeneous(p: Poly, d: int, ctx: JetContext) -> bool:
    """Exact quasi-invariance test: action equals l0^d times the input.

    Requires p to be classically homogeneous of degree d in jet variables;
    anything else returns False immediately.
    """
    if not p.is_homogeneous(d):
        return False
    if any(v.family != JET_X for v in p.variables()):
        return False
    scaled = p * (Poly.variable(series_coeff(0)) ** d)
    return (act_series(p, ctx) - scaled).is_zero


@dataclass
class InvariantBasis:
    """A deterministic basis of the invariant space for one context."""

    context: JetContext
    elements: list[Poly] = field(default_factory=list)
    provenance: list[str] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.elements)


def _monomial(t: tuple, variables) -> tuple:
    """The monomial of a sorted tuple of variable indices."""
    return tuple([(variables[v], t.count(v)) for v in dict.fromkeys(t)])


def _orbits(parts: int, d: int) -> dict:
    """The compositions of d into `parts` parts, by their non-increasing sort.

    Maps each non-increasing beta to the sigmas of the other compositions
    alpha in its orbit, sigma being the stable descending argsort of alpha,
    so that beta[r] = alpha[sigma[r]].  The C(d + parts - 1, parts - 1)
    compositions are walked by `compositions`, never the permutations of the
    parts.
    """
    orbits: dict = {}
    for alpha in compositions(d, parts):
        sigma = sorted(range(parts), key=alpha.__getitem__, reverse=True)
        beta = tuple(alpha[s] for s in sigma)
        orbit = orbits.setdefault(beta, [])
        if beta != alpha:
            orbit.append(sigma)
    return orbits


def _multidegree_rows(beta: tuple, k: int) -> tuple[list, Iterator[list]]:
    """The invariant system of multidegree beta, weight block by weight block.

    Returns, for each weight w up to dk/2, d = sum(beta), the block's columns
    in monomial order, and the `graded_rows` generator of the rows of
    E_1..E_min(k,d) that span each block's system, one list per block.

    A column is a sorted tuple of variable indices, where X_i^(j) has index
    i*(k+1) + j, so raising an order by m adds m to an index.  The row of
    E_m at a column mu of weight w - m collects, for each factor X_i^(j) of
    mu with j + m <= k, the column with that factor raised to X_i^(j+m),
    with entry (the multiplicity of X_i^(j+m) in mu, plus 1) * (j+m)!/j!:
    the coefficient of mu in the image of that column.
    """
    order, d = k + 1, sum(beta)
    middle = d * k // 2
    # radix[v]: the place of variable v in a column's mixed-radix code, the
    # base of v being beta[v // order] + 1
    radix, place = [], 1
    for b in beta:
        for _ in range(order):
            radix.append(place)
            place *= b + 1
    # (column, weight, code), grown one X_i at a time; each X_i's factors
    # are sorted once into monomial order, so every block comes out in it
    grown = [((), 0, 0)]
    indices = range(len(radix))
    for i, b in enumerate(beta):
        base = i * order
        factors = sorted(
            combinations_with_replacement(range(base, base + order), b),
            key=lambda f: _monomial(f, indices),
        )
        weighed = [(f, sum(f) - b * base, sum(map(radix.__getitem__, f))) for f in factors]
        grown = [
            (t + f, w + fw, c + fc)
            for t, w, c in grown
            for f, fw, fc in weighed
            if w + fw <= middle
        ]
    columns: list[list] = [[] for _ in range(middle + 1)]
    codes: list[list] = [[] for _ in range(middle + 1)]
    for t, w, c in grown:
        columns[w].append(t)
        codes[w].append(c)
    # the triples would otherwise stay alive through the solve
    del grown
    index = [{c: ci for ci, c in enumerate(block)} for block in codes]
    # rise[j][m] = (j+m)!/j!, the weight of raising an order j by m
    rise = [[factorial(j + m) // factorial(j) for m in range(order - j)] for j in range(order)]

    def row(i: int, w: int, mu: int) -> dict:
        # operator i is E_(i+1); a repeated factor writes its entry again.  A
        # loop, as a comprehension here costs twice as much on Python 3.11
        m = i + 1
        low, col, code, out = columns[w - m][mu], index[w], codes[w - m][mu], {}
        for u in low:
            j = u % order
            if j + m < order:
                out[col[code + radix[u + m] - radix[u]]] = (low.count(u + m) + 1) * rise[j][m]
        return out

    shifts = range(1, min(k, d) + 1)
    return columns, graded_rows(list(map(len, columns)), shifts, row)


def _multidegree_kernels(beta: tuple, k: int) -> tuple[list, list]:
    """The columns of each weight block, and the `nullspace` basis of its invariants."""
    columns, blocks = _multidegree_rows(beta, k)
    return columns, [nullspace(rows, len(block)) for block, rows in zip(columns, blocks)]


def _multidegree_nullity(beta: tuple, k: int) -> int:
    """The dimension of the invariants of multidegree beta, counted by rank.

    Each block's kernel has its column count minus the rank of its rows, so
    no RREF is built and no kernel vector is made.
    """
    columns, blocks = _multidegree_rows(beta, k)
    return sum(len(block) - rank_of(rows) for block, rows in zip(columns, blocks))


def diff_homog_basis(ctx: JetContext, caps: ResourceCaps | None = None) -> InvariantBasis:
    """Kernel basis of the quasi-invariance system in degree ctx.d.

    Returns the joint kernel of the derivations E_1..E_k on the degree-d
    monomials in the context's jet variables (see the module docstring): by
    homogeneity and the infinitesimal invariance criterion this is exactly
    the space on which the series action returns l0^d P, as
    `is_diff_homogeneous` checks by substitution.  Output is the canonical
    echelon basis, graded by derivation weight, with primitive integer
    coefficients; the `max_basis_columns` cap sees every degree-d monomial.

    The system is solved for the weights up to dk/2 only (the sl2 bound of
    the module docstring), and for one multidegree per orbit of the
    permutations of X_0..X_N (the orbit argument of the module docstring):
    `_multidegree_kernels` solves the non-increasing multidegrees beta, and
    the kernel of every other alpha in beta's orbit is beta's, relabelled by
    X_r^(j) -> X_sigma(r)^(j) and re-canonicalised in one `Echelon` keyed by
    descending monomial, so that each pivot is its vector's largest
    monomial.  Each weight block's vectors, of every multidegree, are then
    listed by their largest monomial, which is the order of the block's free
    columns.  `_invariant_dimension` counts the same basis without building
    it.
    """
    caps = caps or DEFAULT_CAPS
    variables = ctx.variables()
    caps.check("max_basis_columns", comb(len(variables) + ctx.d - 1, ctx.d))
    order = ctx.k + 1
    # found[w]: (largest monomial, terms in render order) of block w's vectors
    found: list[list] = [[] for _ in range(ctx.d * ctx.k // 2 + 1)]
    for beta, sigmas in _orbits(ctx.n + 1, ctx.d).items():
        columns, kernels = _multidegree_kernels(beta, ctx.k)
        for w, kernel in enumerate(kernels):
            if not kernel:
                continue
            col = [_monomial(t, variables) for t in columns[w]]
            for vec in kernel:
                # col is in monomial order, for one degree render order, so
                # the terms are too
                found[w].append((col[max(vec)], {col[ci]: vec[ci] for ci in sorted(vec)}))
            support = set().union(*kernel)
            for sigma in sigmas:
                relabel = {
                    variables[r * order + j]: variables[s * order + j]
                    for r, s in enumerate(sigma)
                    for j in range(order)
                }
                image = {c: tuple(sorted([(relabel[v], e) for v, e in col[c]])) for c in support}
                # key 0 is the largest relabelled monomial, so each pivot is
                # its row's largest monomial, and descending keys are render
                # order
                ranked = sorted(support, key=image.__getitem__, reverse=True)
                key = {c: r for r, c in enumerate(ranked)}
                echelon = Echelon().extend({key[c]: v for c, v in vec.items()} for vec in kernel)
                for p, vec in echelon.pivots.items():
                    terms = {image[ranked[r]]: vec[r] for r in sorted(vec, reverse=True)}
                    found[w].append((image[ranked[p]], terms))
    basis = InvariantBasis(ctx)
    for w, block in enumerate(found):
        block.sort(key=itemgetter(0))
        for vi, (_, terms) in enumerate(block):
            basis.elements.append(_wrap(terms))
            basis.provenance.append(f"w{w}/v{vi}")
    return basis


def _invariant_dimension(ctx: JetContext, caps: ResourceCaps | None = None) -> int:
    """diff_homog_basis(ctx, caps).dimension, counted by rank.

    The cap is that of `diff_homog_basis`.  Rows never mix multidegrees, and
    the kernel of a permuted multidegree is the permuted kernel, so the
    dimension is the sum over the non-increasing beta of |orbit(beta)| times
    beta's nullity: no RREF, no kernel vector and no relabelling.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_basis_columns", comb(len(ctx.variables()) + ctx.d - 1, ctx.d))
    return sum(
        (1 + len(sigmas)) * _multidegree_nullity(beta, ctx.k)
        for beta, sigmas in _orbits(ctx.n + 1, ctx.d).items()
    )


@dataclass
class ProductLemmaReport:
    """Outcome of the product-implication check on one pair."""

    p_homogeneous: bool
    q_homogeneous: bool
    product_homogeneous: bool

    @property
    def implication_holds(self) -> bool:
        # product invariant => both factors invariant
        return (not self.product_homogeneous) or (self.p_homogeneous and self.q_homogeneous)


def product_lemma_check(p: Poly, q: Poly, ctx: JetContext) -> ProductLemmaReport:
    """Check quasi-invariance of p, q and p*q and the product implication."""
    dp, dq = p.total_degree(), q.total_degree()
    return ProductLemmaReport(
        p_homogeneous=is_diff_homogeneous(p, dp, ctx),
        q_homogeneous=is_diff_homogeneous(q, dq, ctx),
        product_homogeneous=is_diff_homogeneous(p * q, dp + dq, ctx),
    )
