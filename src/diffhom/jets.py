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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

from .errors import IndexOutOfRangeError, UnsupportedVariableError
from .linalg import image_rows, nullspace
from .polynomials import JET_X, Poly, VarId, jet_var, mono_sort_key, series_coeff
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
        terms[mono] = Fraction(comb(j, s) * factorial(j - s))
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


def _degree_monomials(variables, d):
    for combo in combinations_with_replacement(variables, d):
        exps: dict[VarId, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        yield tuple(sorted(exps.items()))


def _weight(mono) -> int:
    return sum(v.j * e for v, e in mono)


def _lowerings(mono) -> dict:
    """Images of a jet monomial under every E_m, as one dict over lowered monomials.

    E_m replaces one factor X_i^(j), j >= m, by j!/(j-m)! X_i^(j-m); the
    image monomials of E_m have weight m less than mono, so the images for
    different m never collide.  E_m with m above every order in mono is zero.
    """
    out: dict = {}
    for v, e in mono:
        rest = dict(mono)
        if e == 1:
            del rest[v]
        else:
            rest[v] = e - 1
        for m in range(1, v.j + 1):
            exps = dict(rest)
            low = jet_var(v.i, v.j - m)
            exps[low] = exps.get(low, 0) + 1
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + e * factorial(v.j) // factorial(v.j - m)
    return out


def diff_homog_basis(ctx: JetContext, caps: ResourceCaps | None = None) -> InvariantBasis:
    """Kernel basis of the quasi-invariance system in degree ctx.d.

    Enumerates all degree-d monomials in the context's jet variables and
    returns the joint kernel of the derivations E_1..E_k on their span (see
    the module docstring): by homogeneity and the infinitesimal invariance
    criterion this is exactly the space on which the series action returns
    l0^d P, as `is_diff_homogeneous` checks by substitution.  The system is
    solved one derivation-weight block at a time.  Output is the canonical
    echelon basis, graded by derivation weight, with primitive integer
    coefficients.
    """
    caps = caps or DEFAULT_CAPS
    variables = ctx.variables()
    ncols_total = comb(len(variables) + ctx.d - 1, ctx.d)
    caps.check("max_basis_columns", ncols_total)

    blocks: dict[int, list] = {}
    for mono in _degree_monomials(variables, ctx.d):
        blocks.setdefault(_weight(mono), []).append(mono)

    basis = InvariantBasis(ctx)
    for w in sorted(blocks):
        columns = sorted(blocks[w], key=mono_sort_key)
        images = (_lowerings(mono) for mono in columns)
        kernel = nullspace(image_rows(images), len(columns))
        for vi, vec in enumerate(kernel):
            poly = Poly({columns[ci]: Fraction(val) for ci, val in vec.items()})
            basis.elements.append(poly)
            basis.provenance.append(f"w{w}/v{vi}")
    return basis


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
