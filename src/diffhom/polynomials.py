"""Exact sparse multivariate polynomials over the rationals.

Variables are tagged by family so that a single carrier type can hold jet
variables X_i^(j), tensor-slot variables Y_s^(t), auxiliary variables Z_i and
truncated-series coefficients l_m at the same time:

  VarId = (family, i, j)     with a fixed total order: family tag first,
                             then the two indices lexicographically.
  Monomial = tuple of (VarId, exponent) pairs, sorted, no zero exponents.
  Poly.terms = dict mapping Monomial -> nonzero coefficient, int first.

Coefficients are stored int first: an integer stays an `int`, an integral
`Fraction` is stored as its `int` numerator, and only a true fraction stays a
`Fraction`.  Almost every coefficient the paper's identities produce is an
integer, and an `int` add or multiply costs a small fraction of the
`Fraction` one, so integer inputs never build a `Fraction` at all.  Since
`2 == Fraction(2)`, with equal hashes and equal `str`, the two forms compare,
hash and render alike; ring operations on mixed inputs may leave an integral
`Fraction` in place, which is equally correct.

The zero polynomial has an empty term map and equal polynomials have equal
term maps, so `==` is exact identity testing.  Coefficients are arbitrary
precision rationals throughout; there is no floating point anywhere.

Rendering is canonical: variables print as X0^(2), Y3^(0), Z1, l0; monomial
factors are joined by `*`; terms are sorted by the graded monomial order; and
rationals print as p/q.  Golden files and JSON exports rely on this form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    NonSquareError,
    NotLinearError,
    UnmappedVariableError,
)

# Family tags, in rendering and ordering position.
JET_X = 0
TENSOR_Y = 1
Z_VAR = 2
SERIES_COEFF = 3

_FAMILY_LETTER = {JET_X: "X", TENSOR_Y: "Y", Z_VAR: "Z", SERIES_COEFF: "l"}


class VarId(NamedTuple):
    """A tagged variable; tuple order gives the global variable order."""

    family: int
    i: int
    j: int

    def render(self) -> str:
        letter = _FAMILY_LETTER[self.family]
        if self.family in (JET_X, TENSOR_Y):
            return f"{letter}{self.i}^({self.j})"
        return f"{letter}{self.i}"


def jet_var(i: int, j: int) -> VarId:
    """The jet variable X_i^(j): coordinate i, derivation order j."""
    return VarId(JET_X, i, j)


def slot_var(s: int, t: int) -> VarId:
    """The tensor-slot variable Y_s^(t): slot s (1-based), order t."""
    return VarId(TENSOR_Y, s, t)


def z_var(i: int) -> VarId:
    """The auxiliary variable Z_i (1-based)."""
    return VarId(Z_VAR, i, 0)


def series_coeff(m: int) -> VarId:
    """The coefficient l_m of T^m in a truncated invertible series."""
    return VarId(SERIES_COEFF, m, 0)


Monomial = tuple  # tuple[tuple[VarId, int], ...], sorted by VarId


def mono_degree(mono: Monomial) -> int:
    return sum(map(itemgetter(1), mono))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[VarId, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_sort_key(mono: Monomial):
    """Graded order: total degree first, then the sorted exponent pairs."""
    return (mono_degree(mono), mono)


# (VarId, exponent) -> its factor text; bounded by the variables in use
_FACTOR_TEXT: dict = {}


def _factor_text(pair: tuple) -> str:
    v, e = pair
    text = _FACTOR_TEXT[pair] = v.render() if e == 1 else f"{v.render()}^{e}"
    return text


def mono_render(mono: Monomial) -> str:
    if not mono:
        return "1"
    return "*".join([_FACTOR_TEXT.get(pair) or _factor_text(pair) for pair in mono])


def render_terms(terms) -> str:
    """Join (coefficient, body) pairs as `a - 2*b + 1/3*c`; an empty body is a constant."""
    pieces = []
    for c, body in terms:
        mag = str(abs(c))
        if not body:
            body = mag
        elif mag != "1":
            body = f"{mag}*{body}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(pieces) or "0"


def _coeff(value) -> int | Fraction:
    """The int-first form of an exact coefficient (see the module docstring)."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _add_scaled(out: dict, terms: Mapping, c) -> None:
    """out += c * terms in place, dropping the monomials that cancel."""
    for m, x in terms.items():
        s = out.get(m, 0) + c * x
        if s:
            out[m] = s
        else:
            out.pop(m, None)


class Poly:
    """A sparse exact-rational polynomial in tagged variables.

    Coefficients are int first: the constructors keep integers as `int` and
    only true fractions as `Fraction`, so integer arithmetic stays in `int`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: _coeff(c) for m, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def variable(v: VarId) -> "Poly":
        return _wrap({((v, 1),): 1})

    @staticmethod
    def monomial(pairs: Iterable[tuple[VarId, int]], c=1) -> "Poly":
        exps: dict[VarId, int] = {}
        for v, e in pairs:
            if e:
                exps[v] = exps.get(v, 0) + e
        return Poly({tuple(sorted(exps.items())): c})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_scaled(out, other.terms, 1)
        return _wrap(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_scaled(out, other.terms, -1)
        return _wrap(out)

    def __neg__(self) -> "Poly":
        return _wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return _wrap(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        if not c:
            return Poly()
        return _wrap({m: c * x for m, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None  # mutable mapping inside

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximal total degree of a term; 0 for the zero polynomial."""
        return max((mono_degree(m) for m in self.terms), default=0)

    def is_homogeneous(self, d: int) -> bool:
        return all(mono_degree(m) == d for m in self.terms)

    def variables(self) -> set[VarId]:
        return {v for m in self.terms for v, _ in m}

    def derivation_order(self) -> int:
        """Largest derivation superscript among jet/slot variables (0 if none)."""
        orders = [
            v.j
            for m in self.terms
            for v, _ in m
            if v.family in (JET_X, TENSOR_Y)
        ]
        return max(orders, default=0)

    # -- calculus and substitution --------------------------------------

    def partial_derivative(self, v: VarId) -> "Poly":
        """Formal partial derivative with respect to v."""
        out: dict = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(v, 0)
            if not e:
                continue
            if e == 1:
                del exps[v]
            else:
                exps[v] = e - 1
            mono = tuple(sorted(exps.items()))
            s = out.get(mono, 0) + c * e
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return _wrap(out)

    def substitute(self, mapping: Mapping[VarId, "Poly"]) -> "Poly":
        """Ring homomorphism sending each variable to its image.

        The map must cover every variable occurring in the polynomial;
        a missing variable raises UnmappedVariableError rather than being
        treated as the identity.  Each power image**e is built once per call,
        and the terms accumulate in one dict.
        """
        powers: dict[VarId, list[Poly]] = {}  # v -> [unused, image, image**2, ...]
        out: dict = {}
        for m, c in self.terms.items():
            term = None
            for v, e in m:
                ladder = powers.get(v)
                if ladder is None:
                    image = mapping.get(v)
                    if image is None:
                        raise UnmappedVariableError(v)
                    ladder = powers[v] = [None, image]
                while len(ladder) <= e:
                    ladder.append(ladder[-1] * ladder[1])
                term = ladder[e] if term is None else term * ladder[e]
            _add_scaled(out, {(): 1} if term is None else term.terms, c)
        return _wrap(out)

    def coefficient_of(self, v: VarId) -> "Poly":
        """The polynomial q with p = q*v + (terms not involving v).

        Only defined when p has degree at most one in v (the multilinear
        use case); otherwise NotLinearError is raised.
        """
        out: dict = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(v, 0)
            if e == 0:
                continue
            if e > 1:
                raise NotLinearError(f"degree {e} in {v.render()}")
            del exps[v]
            out[tuple(sorted(exps.items()))] = c
        return _wrap(out)

    # -- normal forms and rendering --------------------------------------

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=mono_sort_key)

    def sign_normalized(self) -> "Poly":
        """Scale by -1 if the leading coefficient is negative."""
        if not self.terms:
            return self
        if self.terms[self.leading_monomial()] < 0:
            return -self
        return self

    def render(self) -> str:
        return render_terms(
            (self.terms[m], mono_render(m) if m else "")
            for m in sorted(self.terms, key=mono_sort_key)
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _wrap(terms: dict) -> Poly:
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


def determinant(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Laplace expansion along rows, memoized over the set of still-available
    columns.  With sparse low-degree entries this beats elimination over the
    polynomial ring, and the memoization collapses the n! cofactor tree to
    2^n subproblems.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NonSquareError(f"matrix is {n}x{len(row)}")
    if n == 0:
        return Poly.constant(1)
    return _expand(matrix, {}, frozenset(range(n)))


def _expand(matrix: Sequence[Sequence[Poly]], memo: dict, cols: frozenset) -> Poly:
    """Laplace expansion of the minor on the last len(cols) rows and the columns cols.

    A module function rather than a closure over memo: a recursive closure
    refers to itself through its own cell, and that cycle would keep memo
    and every cofactor in it alive until a cyclic garbage collection.
    """
    row_idx = len(matrix) - len(cols)
    if len(cols) == 1:
        (c,) = cols
        return matrix[row_idx][c]
    cached = memo.get(cols)
    if cached is not None:
        return cached
    total: dict = {}
    for pos, c in enumerate(sorted(cols)):
        entry = matrix[row_idx][c]
        if entry.is_zero:
            continue
        _add_scaled(total, (entry * _expand(matrix, memo, cols - {c})).terms, -1 if pos % 2 else 1)
    memo[cols] = result = _wrap(total)
    return result


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); equals n!/(n-k)! for 0 <= k <= n."""
    return factorial(n) // factorial(n - k)


def compositions(total: int, parts: int):
    """Exponent tuples of `parts` nonnegative entries summing to total, in lex order.

    Each tuple is read off the positions of parts-1 bars among total+parts-1
    places (stars and bars); lex order of the bar positions is lex order of
    the tuples.
    """
    n = total + parts - 1
    for bars in combinations(range(n), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n,)))
