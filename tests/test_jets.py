"""Series action, quasi-invariance, and invariant bases."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial

import pytest

from diffhom import jets, tensors
from diffhom.errors import (
    IndexOutOfRangeError,
    ResourceLimitError,
    UnsupportedVariableError,
)
from diffhom.jets import (
    JetContext,
    act_series,
    diff_homog_basis,
    is_diff_homogeneous,
    leibniz_image,
    product_lemma_check,
)
from diffhom.linalg import Echelon, nullspace
from diffhom.polynomials import Poly, SERIES_COEFF, jet_var, mono_sort_key, series_coeff, z_var
from diffhom.resources import ResourceCaps
from diffhom.tensors import invariant_tensor_basis

from span_checks import in_span, spans_equal

X0 = Poly.variable(jet_var(0, 0))
X1 = Poly.variable(jet_var(1, 0))
X0p = Poly.variable(jet_var(0, 1))
X1p = Poly.variable(jet_var(1, 1))
W = X0 * X1p - X1 * X0p
L0 = Poly.variable(series_coeff(0))
L1 = Poly.variable(series_coeff(1))
L2 = Poly.variable(series_coeff(2))


def specialize_series(p, coefficients):
    mapping = {}
    for v in p.variables():
        if v.family == SERIES_COEFF:
            mapping[v] = Poly.constant(coefficients[v.i])
        else:
            mapping[v] = Poly.variable(v)
    return p.substitute(mapping)


class TestLeibnizImage:
    def test_order_zero(self):
        assert leibniz_image(0, 0, JetContext(1, 1, 1)) == L0 * X0

    def test_order_one(self):
        assert leibniz_image(0, 1, JetContext(1, 1, 1)) == L0 * X0p + L1 * X0

    def test_order_two(self):
        img = leibniz_image(0, 2, JetContext(1, 2, 1))
        expected = L0 * Poly.variable(jet_var(0, 2)) + (L1 * X0p).scale(2) + (L2 * X0).scale(2)
        assert img == expected

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            leibniz_image(2, 0, JetContext(1, 1, 1))
        with pytest.raises(IndexOutOfRangeError):
            leibniz_image(0, 2, JetContext(1, 1, 1))


class TestActSeries:
    def test_single_variable(self):
        ctx = JetContext(1, 1, 1)
        assert act_series(X0, ctx) == L0 * X0
        assert act_series(X0p, ctx) == L0 * X0p + L1 * X0

    def test_wronskian_quasi_invariance(self):
        ctx = JetContext(1, 1, 2)
        assert act_series(W, ctx) == L0 * L0 * W

    def test_rejects_foreign_variables(self):
        with pytest.raises(UnsupportedVariableError):
            act_series(Poly.variable(z_var(1)), JetContext(1, 1, 1))

    def test_identity_specialization_recovers_input(self):
        ctx = JetContext(1, 2, 3)
        p = X0 * X1 * Poly.variable(jet_var(0, 2)) - X0p**2 * X1
        assert specialize_series(act_series(p, ctx), [1, 0, 0]) == p

    def test_linearity(self):
        ctx = JetContext(1, 1, 2)
        p, q = X0 * X1p, X1 * X0p
        lhs = act_series(p.scale(3) - q.scale(Fraction(1, 2)), ctx)
        assert lhs == act_series(p, ctx).scale(3) - act_series(q, ctx).scale(Fraction(1, 2))


class TestDiffHomogeneous:
    def test_order_zero_monomial(self):
        assert is_diff_homogeneous(X0**2, 2, JetContext(1, 1, 2))

    def test_wronskian(self):
        assert is_diff_homogeneous(W, 2, JetContext(1, 1, 2))

    def test_half_wronskian_fails(self):
        assert not is_diff_homogeneous(X0 * X1p, 2, JetContext(1, 1, 2))

    def test_wrong_degree_short_circuits(self):
        assert not is_diff_homogeneous(W, 3, JetContext(1, 1, 3))
        assert not is_diff_homogeneous(X0 + X0**2, 2, JetContext(1, 1, 2))


class TestGroupLaw:
    def test_numeric_composition(self):
        rng = random.Random(99)
        ctx = JetContext(1, 2, 3)
        variables = ctx.variables()
        for _ in range(25):
            p = Poly.zero()
            for _ in range(rng.randint(1, 4)):
                mono = [(rng.choice(variables), 1) for _ in range(rng.randint(1, 3))]
                p = p + Poly.monomial(mono, Fraction(rng.randint(-3, 3), rng.randint(1, 2)) or 1)
            a = [Fraction(rng.randint(1, 4)), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2), 3)]
            b = [Fraction(rng.randint(1, 4)), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2), 2)]
            conv = [sum((a[s] * b[m - s] for s in range(m + 1)), Fraction(0)) for m in range(3)]
            acted = specialize_series(act_series(p, ctx), b)
            twice = specialize_series(act_series(acted, ctx), a)
            assert twice == specialize_series(act_series(p, ctx), conv)


class TestBasis:
    def test_dimension_and_span_n1_d2(self):
        basis = diff_homog_basis(JetContext(1, 1, 2))
        assert basis.dimension == 4
        assert spans_equal(basis.elements, [X0**2, X0 * X1, X1**2, W])

    def test_degree_one(self):
        basis = diff_homog_basis(JetContext(1, 3, 1))
        assert basis.dimension == 2
        assert spans_equal(basis.elements, [X0, X1])

    def test_three_variables(self):
        assert diff_homog_basis(JetContext(2, 1, 2)).dimension == 9

    def test_every_element_is_invariant(self):
        for ctx in (JetContext(1, 1, 2), JetContext(1, 2, 3), JetContext(2, 1, 2)):
            basis = diff_homog_basis(ctx)
            assert len(basis.provenance) == basis.dimension
            for p in basis.elements:
                assert is_diff_homogeneous(p, ctx.d, ctx)

    def test_monotone_and_stabilizing(self):
        for n, d in ((1, 2), (1, 3)):
            dims = [
                diff_homog_basis(JetContext(n, k, d)).dimension for k in range(d + 1)
            ]
            assert all(a <= b for a, b in zip(dims, dims[1:]))
            assert dims[d - 1] == dims[d] == (n + 1) ** d

    def test_filtration_consistency(self):
        for k in (1, 2, 3):
            smaller = diff_homog_basis(JetContext(1, k - 1, 3)).elements
            larger = diff_homog_basis(JetContext(1, k, 3)).elements
            for p in smaller:
                assert in_span(p, larger)

    def test_resource_limit(self):
        caps = ResourceCaps(max_basis_columns=3)
        with pytest.raises(ResourceLimitError):
            diff_homog_basis(JetContext(1, 1, 2), caps)


def transpose(images):
    """Constraint rows of the map sending column i to the sparse dict images[i]."""
    rows = {}
    for i, image in enumerate(images):
        for out, c in image.items():
            rows.setdefault(out, {})[i] = c
    return list(rows.values())


def basis_from_images(ctx, image):
    """Per weight block, the kernel of the map sending each degree-d monomial,
    in mono_sort_key order, to the sparse dict image(monomial)."""
    blocks = {}
    for combo in combinations_with_replacement(ctx.variables(), ctx.d):
        mono = Poly.constant(1)
        for v in combo:
            mono = mono * Poly.variable(v)
        (key,) = mono.terms
        blocks.setdefault(sum(v.j * e for v, e in key), []).append(key)
    elements, provenance = [], []
    for w in sorted(blocks):
        columns = sorted(blocks[w], key=mono_sort_key)
        images = [image(key) for key in columns]
        for vi, vec in enumerate(nullspace(transpose(images), len(columns))):
            elements.append(Poly({columns[ci]: Fraction(val) for ci, val in vec.items()}))
            provenance.append(f"w{w}/v{vi}")
    return elements, provenance


def substitution_basis(ctx):
    """The invariant basis by the group action: the kernel of
    m -> act_series(m) - l0^d m."""
    lam0_d = L0**ctx.d

    def defect(key):
        m = Poly({key: 1})
        return (act_series(m, ctx) - m * lam0_d).terms

    return basis_from_images(ctx, defect)


def lowerings(mono):
    """Images of a jet monomial under every E_m, as one dict over lowered monomials.

    E_m replaces one factor X_i^(j), j >= m, by j!/(j-m)! X_i^(j-m); images
    for different m have different weights, so they never collide.
    """
    out = {}
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


def columns_of(n, k, d):
    return comb((n + 1) * (k + 1) + d - 1, d)


# every context with N <= 2, k <= 3, d <= 4 up to the 330 columns of N=1, k=3, d=4
ORACLE_CONTEXTS = [
    JetContext(n, k, d)
    for n in (1, 2)
    for k in range(4)
    for d in range(5)
    if columns_of(n, k, d) <= 330
]

# every context with N <= 3, k <= 4, d <= 5 and at most 4,000 columns
LOWERING_CONTEXTS = [
    JetContext(n, k, d)
    for n in (1, 2, 3)
    for k in range(5)
    for d in range(6)
    if columns_of(n, k, d) <= 4000
]


def context_id(ctx):
    return f"N{ctx.n}k{ctx.k}d{ctx.d}"


@cache
def lowering_basis(ctx):
    """The E_m-image oracle of one context, shared by the tests that read it."""
    return basis_from_images(ctx, lowerings)


class TestLieRouteAgainstSubstitution:
    """diff_homog_basis (derivation rows) against the series action itself."""

    @pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=context_id)
    def test_same_rendered_basis_and_provenance(self, ctx):
        basis = diff_homog_basis(ctx)
        elements, provenance = substitution_basis(ctx)
        assert [p.render() for p in basis.elements] == [p.render() for p in elements]
        assert basis.provenance == provenance
        for p in basis.elements:
            assert is_diff_homogeneous(p, ctx.d, ctx)


class TestCriterionRowsAgainstAllRows:
    """diff_homog_basis (pruned raising rows) against every E_m image row."""

    # N7k1d2 has 136 columns in 2 orbits of multidegrees, and S_8 has 40,320
    # permutations that the orbit walk never lists
    @pytest.mark.parametrize("ctx", LOWERING_CONTEXTS + [JetContext(7, 1, 2)], ids=context_id)
    def test_same_rendered_basis_and_provenance(self, ctx):
        basis = diff_homog_basis(ctx)
        elements, provenance = lowering_basis(ctx)
        assert [p.render() for p in basis.elements] == [p.render() for p in elements]
        assert basis.provenance == provenance

    def test_criterion_skips_dependent_rows(self, monkeypatch):
        inserted = []
        original = Echelon.insert

        def counting(self, row):
            inserted.append(original(self, row))
            return inserted[-1]

        monkeypatch.setattr(Echelon, "insert", counting)
        basis = diff_homog_basis(JetContext(2, 3, 4))
        assert basis.dimension == 3**4
        # only the blocks up to the middle weight dk/2 = 6 are solved, and of
        # those only the columns of the 4 non-increasing multidegrees: every
        # E_m row there would be 324 rows, 130 of them dependent, and the
        # row-lead criterion keeps 249, 55 of them dependent.  The other 58
        # inserts re-canonicalise the relabelled kernels of the other 11
        # multidegrees, all independent.  Solving all 15 multidegrees kept
        # 896 rows, 188 of them dependent.
        assert (len(inserted), inserted.count(None)) == (307, 55)


class TestMultidegreeOrbits:
    """Each derivation E_m keeps the multidegree and commutes with every
    permutation of X_0..X_N, so the invariant space is stable under them and
    one multidegree per orbit is solved."""

    @pytest.mark.parametrize(
        "ctx", [JetContext(2, 2, 3), JetContext(2, 3, 4), JetContext(3, 2, 3)], ids=context_id
    )
    def test_permuting_the_variables_keeps_the_span(self, ctx):
        elements = diff_homog_basis(ctx).elements
        for sigma in permutations(range(ctx.n + 1)):
            mapping = {v: Poly.variable(jet_var(sigma[v.i], v.j)) for v in ctx.variables()}
            assert spans_equal([p.substitute(mapping) for p in elements], elements)

    def test_one_kernel_call_per_partition(self, monkeypatch):
        sizes = []
        original = jets.graded_rows

        def counting(block_sizes, shifts, row):
            sizes.append(sum(block_sizes))
            return original(block_sizes, shifts, row)

        monkeypatch.setattr(jets, "graded_rows", counting)
        # the basis and the dimension read the same blocks
        for solve in (diff_homog_basis, jets._invariant_dimension):
            sizes.clear()
            solve(JetContext(2, 3, 4))
            # 4 = 3+1 = 2+2 = 2+1+1: the partitions of 4 into at most 3 parts,
            # solved on 217 of the 789 columns up to the middle weight
            assert len(sizes) == 4
            assert sum(sizes) == 217


# every context with N <= 3, k <= 4 and d <= 5; (3,4,5) needs 42,504 columns
READER_CONTEXTS = [JetContext(n, k, d) for n in range(1, 4) for k in range(5) for d in range(6)]


class TestDimensionReader:
    """`_invariant_dimension` counts `diff_homog_basis` by rank: the sum over
    the non-increasing multidegrees of orbit size times nullity."""

    @pytest.mark.parametrize("ctx", READER_CONTEXTS, ids=context_id)
    def test_counts_the_basis(self, ctx):
        try:
            want = diff_homog_basis(ctx).dimension
        except ResourceLimitError as exc:
            # outside the cap, the reader is refused with the same line
            with pytest.raises(ResourceLimitError) as refused:
                jets._invariant_dimension(ctx)
            assert str(refused.value) == str(exc)
            return
        assert jets._invariant_dimension(ctx) == want

    def test_builds_no_rref_no_kernel_vector_and_no_relabelling(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a kernel was read")

        monkeypatch.setattr(Echelon, "pivots", property(refused))
        monkeypatch.setattr(jets, "nullspace", refused)
        # 15 multidegrees in 4 orbits: only the 4 are solved
        assert jets._invariant_dimension(JetContext(2, 3, 4)) == 3**4

    def test_caps_like_the_basis(self):
        caps = ResourceCaps(max_basis_columns=1364)
        messages = []
        for count in (jets._invariant_dimension, diff_homog_basis):
            with pytest.raises(ResourceLimitError) as refused:
                count(JetContext(2, 3, 4), caps)
            messages.append(str(refused.value))
        assert messages == ["max_basis_columns: needed 1365, cap is 1364"] * 2


class TestMultidegreeColumns:
    """`_multidegree_kernels` grows its columns in monomial order, with no sort
    per block, so each block is checked against every monomial of its weight."""

    @pytest.mark.parametrize("beta", [(4,), (3, 1), (2, 2, 1), (1, 1, 1)])
    def test_blocks_are_the_monomials_of_their_weight_in_order(self, beta):
        k, d = 3, sum(beta)
        variables = [jet_var(i, j) for i in range(len(beta)) for j in range(k + 1)]
        columns, kernels = jets._multidegree_kernels(beta, k)
        assert len(columns) == len(kernels) == d * k // 2 + 1
        for w, block in enumerate(columns):
            monomials = [jets._monomial(t, variables) for t in block]
            assert all(a < b for a, b in zip(monomials, monomials[1:])), w
            expected = {
                t
                for t in combinations_with_replacement(range(len(variables)), d)
                if tuple(sum(u // (k + 1) == i for u in t) for i in range(len(beta))) == beta
                and sum(u % (k + 1) for u in t) == w
            }
            assert set(block) == expected and len(block) == len(expected), w


class TestNewtonShiftBound:
    """E_m acts on degree-d polynomials as the power sum p_m(J_1..J_d), and p_m
    with m > d lies in Q[p_1..p_d], so only E_1..E_min(k,d) give rows, for the
    jets and for the tensor box alike."""

    @pytest.mark.parametrize(
        "solve,k,d",
        [
            (lambda: diff_homog_basis(JetContext(1, 4, 2)), 4, 2),
            (lambda: diff_homog_basis(JetContext(2, 5, 3)), 5, 3),
            (lambda: invariant_tensor_basis(5, 3), 5, 3),
            (lambda: jets._invariant_dimension(JetContext(2, 5, 3)), 5, 3),
            (lambda: tensors._box_dimension(5, 3), 5, 3),
        ],
        ids=["N1k4d2", "N2k5d3", "tensors(5,3)", "dimension-N2k5d3", "box-dimension(5,3)"],
    )
    def test_shifts_stop_at_min_k_d(self, solve, k, d, monkeypatch):
        seen = []
        original = jets.graded_rows

        def recording(sizes, shifts, row):
            seen.append(list(shifts))
            return original(sizes, shifts, row)

        monkeypatch.setattr(jets, "graded_rows", recording)
        solve()
        assert seen and all(shifts == list(range(1, min(k, d) + 1)) for shifts in seen)


class TestMiddleWeightBound:
    """No invariant has a term above the middle weight dk/2.

    E_1 is a principal nilpotent on each X_i^(0..k), so by Jacobson-Morozov
    the degree-d polynomials form an sl2-module in which weight block w has
    h-eigenvalue 2w - dk, and the lowering operator E_1 is injective where
    that eigenvalue is positive.  diff_homog_basis solves only the blocks up
    to the middle; the oracle here solves every block.
    """

    @pytest.mark.parametrize("ctx", LOWERING_CONTEXTS, ids=context_id)
    def test_no_kernel_vector_above_the_middle(self, ctx):
        elements, _ = lowering_basis(ctx)
        weights = {sum(v.j * e for v, e in mono) for p in elements for mono in p.terms}
        assert max(weights, default=0) <= ctx.d * ctx.k // 2


class TestProductLemma:
    def test_product_of_invariants(self):
        report = product_lemma_check(X0, W, JetContext(1, 1, 3))
        assert (report.p_homogeneous, report.q_homogeneous, report.product_homogeneous) == (
            True,
            True,
            True,
        )
        assert report.implication_holds

    def test_non_invariant_product(self):
        report = product_lemma_check(X0p, X1, JetContext(1, 1, 2))
        assert not report.product_homogeneous
        assert not report.p_homogeneous
        assert report.implication_holds

    def test_square(self):
        report = product_lemma_check(X0, X0, JetContext(1, 1, 2))
        assert report.product_homogeneous and report.implication_holds
