"""Exactness and canonical-form tests for the sparse polynomial core."""

from __future__ import annotations

import gc
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from diffhom.errors import NonSquareError, NotLinearError, UnmappedVariableError
from diffhom.polynomials import (
    Poly,
    compositions,
    determinant,
    jet_var,
    slot_var,
    z_var,
)
from diffhom.tensors import wronskian

X0 = Poly.variable(jet_var(0, 0))
X1 = Poly.variable(jet_var(1, 0))
X0p = Poly.variable(jet_var(0, 1))
X1p = Poly.variable(jet_var(1, 1))
Z1 = Poly.variable(z_var(1))
Z2 = Poly.variable(z_var(2))
Z3 = Poly.variable(z_var(3))


def permutation_determinant(matrix):
    """Brute-force oracle: full expansion over permutations."""
    n = len(matrix)
    total = Poly.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        prod = Poly.constant(1)
        for r, c in enumerate(perm):
            prod = prod * matrix[r][c]
        total = total + (prod if sign > 0 else -prod)
    return total


class TestArithmetic:
    def test_additive_inverse(self):
        assert (X0 + (-X0)).is_zero

    def test_difference_of_squares(self):
        assert (X0 + X1) * (X0 - X1) == X0**2 - X1**2

    def test_exact_rational_scale(self):
        p = (X0 * X1).scale(3)
        assert p.scale(Fraction(2, 3)) == (X0 * X1).scale(2)

    def test_zero_has_empty_terms(self):
        assert (X0 - X0).terms == {}
        assert Poly.constant(0).terms == {}


class TestDerivative:
    def test_power_rule(self):
        assert (Z1**2 * Z2).partial_derivative(z_var(1)) == (Z1 * Z2).scale(2)

    def test_independent_variable(self):
        assert Z2.partial_derivative(z_var(1)).is_zero

    def test_mixed_terms(self):
        p = X0 * X0p + X1
        assert p.partial_derivative(jet_var(0, 0)) == X0p


class TestSubstitute:
    def test_wronskian_substitution(self):
        w = Poly.variable(slot_var(1, 0)) * Poly.variable(slot_var(2, 1)) - Poly.variable(
            slot_var(1, 1)
        ) * Poly.variable(slot_var(2, 0))
        mapping = {
            slot_var(1, 0): X0,
            slot_var(1, 1): X0p,
            slot_var(2, 0): X1,
            slot_var(2, 1): X1p,
        }
        assert w.substitute(mapping) == X0 * X1p - X1 * X0p

    def test_antisymmetric_collapse(self):
        w = Poly.variable(slot_var(1, 0)) * Poly.variable(slot_var(2, 1)) - Poly.variable(
            slot_var(1, 1)
        ) * Poly.variable(slot_var(2, 0))
        mapping = {
            slot_var(1, 0): X0,
            slot_var(1, 1): X0p,
            slot_var(2, 0): X0,
            slot_var(2, 1): X0p,
        }
        assert w.substitute(mapping).is_zero

    def test_collapsing_substitution(self):
        assert (Z1 + Z2).substitute({z_var(1): Z1, z_var(2): Z1}) == Z1.scale(2)

    def test_unmapped_variable_is_an_error(self):
        with pytest.raises(UnmappedVariableError):
            (Z1 + Z2).substitute({z_var(1): Z1})


class TestDeterminant:
    def test_two_by_two(self):
        y = [[Poly.variable(slot_var(s, t)) for s in (1, 2)] for t in (0, 1)]
        expected = y[0][0] * y[1][1] - y[0][1] * y[1][0]
        assert determinant(y) == expected

    def test_equal_columns_vanish(self):
        m = [[X0, X0], [X1, X1]]
        assert determinant(m).is_zero

    def test_vandermonde(self):
        m = [[Poly.constant(1), Z1], [Poly.constant(1), Z2]]
        assert determinant(m) == Z2 - Z1

    def test_non_square_raises(self):
        with pytest.raises(NonSquareError):
            determinant([[X0, X1]])

    def test_against_permutation_oracle(self):
        entries = [X0, X1, X0p, X1p, Z1, Poly.zero()]
        m = [[entries[(3 * r + c) % 6] for c in range(3)] for r in range(3)]
        assert determinant(m) == permutation_determinant(m)

    def test_leaves_no_garbage_cycle(self):
        # the memo and its cofactors are freed by reference counting alone
        m = [[Poly.variable(slot_var(s, t)) + Z1 for s in range(1, 5)] for t in range(4)]
        gc.disable()
        try:
            gc.collect()
            assert not determinant(m).is_zero
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCoefficientOf:
    def test_direct_readoff(self):
        w = wronskian((0, 0))
        assert w.coefficient_of(slot_var(2, 1)) == Poly.variable(slot_var(1, 0))

    def test_absent_variable(self):
        assert (Z1 * Z2).coefficient_of(z_var(3)).is_zero

    def test_not_linear_raises(self):
        with pytest.raises(NotLinearError):
            (Z1**2).coefficient_of(z_var(1))

    def test_wronskian_third_column(self):
        # expanding the 3x3 determinant along its third column: the
        # coefficient of Y3^(2) is the 2x2 principal minor, checked against
        # the brute-force expansion oracle
        w = wronskian((0, 0, 0))
        matrix = [
            [Poly.variable(slot_var(s, t)) for s in (1, 2, 3)] for t in (0, 1, 2)
        ]
        assert w == permutation_determinant(matrix)
        expected = Poly.variable(slot_var(1, 0)) * Poly.variable(slot_var(2, 1)) - Poly.variable(
            slot_var(1, 1)
        ) * Poly.variable(slot_var(2, 0))
        assert w.coefficient_of(slot_var(3, 2)) == expected


class TestRendering:
    def test_canonical_forms(self):
        assert (X0 * X1p - X1 * X0p).render() == "X0^(0)*X1^(1) - X0^(1)*X1^(0)"
        assert (X0 * X1).scale(Fraction(2, 3)).render() == "2/3*X0^(0)*X1^(0)"
        assert (X0**2).render() == "X0^(0)^2"
        assert Poly.zero().render() == "0"
        assert Poly.constant(Fraction(-1, 2)).render() == "-1/2"
        assert Poly.variable(z_var(1)).render() == "Z1"
        assert Poly.variable(slot_var(3, 0)).render() == "Y3^(0)"

    def test_term_order_is_graded(self):
        p = Z1 + Z1 * Z2 + Poly.constant(5)
        assert p.render() == "5 + Z1 + Z1*Z2"

    def test_sign_normalization(self):
        p = -(X0 * X1p) + X1 * X0p
        assert p.sign_normalized().render() == "X0^(0)*X1^(1) - X0^(1)*X1^(0)"


# hypothesis material: random sparse polynomials over a small variable pool
VARIABLES = [jet_var(0, 0), jet_var(1, 0), jet_var(0, 1), z_var(1), z_var(2)]

coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
monomials = st.lists(st.sampled_from(VARIABLES), min_size=0, max_size=3)
polys = st.builds(
    lambda terms: sum(
        (Poly.monomial([(v, 1) for v in mono], c) for mono, c in terms if c),
        Poly.zero(),
    ),
    st.lists(st.tuples(monomials, coefficients), min_size=0, max_size=4),
)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=50)
def test_substitution_is_a_homomorphism(a, b):
    mapping = {
        jet_var(0, 0): Z1 + Z2,
        jet_var(1, 0): Z1 * Z2,
        jet_var(0, 1): Poly.constant(2),
        z_var(1): Z2,
        z_var(2): Z1 - Poly.constant(1),
    }
    assert (a * b).substitute(mapping) == a.substitute(mapping) * b.substitute(mapping)


@given(polys, polys, st.sampled_from(VARIABLES))
@settings(max_examples=50)
def test_leibniz_rule(a, b, v):
    lhs = (a * b).partial_derivative(v)
    rhs = a * b.partial_derivative(v) + b * a.partial_derivative(v)
    assert lhs == rhs


@pytest.mark.parametrize("total,parts", [(0, 1), (3, 1), (0, 2), (4, 2), (2, 3), (5, 3), (3, 4)])
def test_compositions_are_all_tuples_in_lex_order(total, parts):
    out = list(compositions(total, parts))
    assert out == [t for t in product(range(total + 1), repeat=parts) if sum(t) == total]
    assert len(out) == comb(total + parts - 1, parts - 1)


# -- int-first coefficients against a Fraction-only reference ------------------
#
# The reference below stores every coefficient as a Fraction and implements
# each operation from its definition, independently of polynomials.py;
# substitution is the term-by-term product the library used to run.

def ref_mono(pairs):
    exps = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono(m1 + m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, v):
    out = {}
    for m, c in a.items():
        e = dict(m).get(v, 0)
        if e:
            low = ref_mono([(w, f - (w == v)) for w, f in m])
            out[low] = out.get(low, Fraction(0)) + c * e
    return ref_clean(out)


def ref_substitute(a, mapping):
    out = {}
    for m, c in a.items():
        term = {(): c}
        for v, e in m:
            for _ in range(e):
                term = ref_mul(term, mapping[v])
        out = ref_add(out, term)
    return out


def ref_determinant(matrix):
    n = len(matrix)
    out = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {(): Fraction(-1) ** inversions}
        for r, c in enumerate(perm):
            term = ref_mul(term, matrix[r][c])
        out = ref_add(out, term)
    return out


def as_ref(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


int_coefficients = st.integers(-6, 6)
mixed_coefficients = st.one_of(
    int_coefficients,
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    # an integral Fraction, which the library stores as an int
    int_coefficients.map(Fraction),
)


def term_lists(coefficient):
    """Up to four (monomial, coefficient) pairs; exponents reach 3 per variable."""
    pairs = st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 3)), max_size=2)
    return st.lists(st.tuples(pairs, coefficient), max_size=4)


def from_terms(terms):
    """The polynomial (built through the Poly constructor) and its reference."""
    raw = {}
    for pairs, c in terms:
        m = ref_mono(pairs)
        raw[m] = raw.get(m, 0) + c
    return Poly(raw), ref_clean({m: Fraction(c) for m, c in raw.items()})


def coefficient_types(p):
    return {type(c) for c in p.terms.values()}


@given(
    term_lists(mixed_coefficients),
    term_lists(mixed_coefficients),
    st.sampled_from(VARIABLES),
    st.integers(0, 3),
)
@settings(max_examples=80)
def test_mixed_coefficients_match_the_fraction_reference(ta, tb, v, n):
    (a, ra), (b, rb) = from_terms(ta), from_terms(tb)
    assert as_ref(a) == ra
    assert as_ref(a + b) == ref_add(ra, rb)
    assert as_ref(a - b) == ref_add(ra, rb, -1)
    assert as_ref(a * b) == ref_mul(ra, rb)
    assert as_ref(a**n) == ref_pow(ra, n)
    assert as_ref(a.partial_derivative(v)) == ref_derivative(ra, v)
    assert all(type(c) is int or c.denominator > 1 for c in a.terms.values())


@given(
    term_lists(mixed_coefficients),
    st.lists(term_lists(mixed_coefficients), min_size=len(VARIABLES), max_size=len(VARIABLES)),
)
@settings(max_examples=40)
def test_substitution_matches_the_term_by_term_product(ta, images):
    a, ra = from_terms(ta)
    pairs = [from_terms(t) for t in images]
    mapping = {v: p for v, (p, _) in zip(VARIABLES, pairs)}
    ref_mapping = {v: r for v, (_, r) in zip(VARIABLES, pairs)}
    assert as_ref(a.substitute(mapping)) == ref_substitute(ra, ref_mapping)


square_entries = st.integers(1, 3).flatmap(
    lambda n: st.lists(term_lists(mixed_coefficients), min_size=n * n, max_size=n * n)
)


@given(square_entries)
@settings(max_examples=30)
def test_determinant_matches_the_permutation_expansion(entries):
    n = round(len(entries) ** 0.5)
    built = [from_terms(t) for t in entries]
    matrix = [[built[n * r + c][0] for c in range(n)] for r in range(n)]
    ref = [[built[n * r + c][1] for c in range(n)] for r in range(n)]
    assert as_ref(determinant(matrix)) == ref_determinant(ref)


@given(
    term_lists(int_coefficients),
    term_lists(int_coefficients),
    st.lists(term_lists(int_coefficients), min_size=len(VARIABLES), max_size=len(VARIABLES)),
    st.sampled_from(VARIABLES),
)
@settings(max_examples=40)
def test_integer_inputs_give_int_coefficients(ta, tb, images, v):
    """The speedup rests on this: integer arithmetic never builds a Fraction."""
    (a, _), (b, _) = from_terms(ta), from_terms(tb)
    mapping = {w: from_terms(t)[0] for w, t in zip(VARIABLES, images)}
    results = [
        a,
        a + b,
        a - b,
        a * b,
        a**3,
        a.scale(Fraction(6, 3)),
        a.partial_derivative(v),
        a.substitute(mapping),
        determinant([[a, b], [mapping[v], a]]),
        Poly.constant(Fraction(4, 2)),
        Poly.monomial([(v, 2)], Fraction(-3, 1)),
        Poly.variable(v),
    ]
    for p in results:
        assert coefficient_types(p) <= {int}, p
